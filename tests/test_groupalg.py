"""Tests for the group algebra: convolution, Q-elements, the twisting map
and the torus evaluation functional.

The psi parity oracle runs first: it pins the orientation of the two middle
terms of Q_ij^(c) and everything later relies on it.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mystica.cyclo import Cyclotomic, cyc_make, parse_scalar, scalar_to_text
from mystica.groupalg import (
    GroupAlgebraElement,
    e_group,
    ga_mul,
    j_c,
    perm_act,
    psi_eval,
    q_ij_element,
    q_w_element,
)
from mystica.groups import make_gmpn, make_w, closure_generate
from mystica.monomial import MonomialElement, adjacent_swap, torus_gen
from mystica.qpoly import operator_matrix, phi_eval, phi_w_eval
from reference import reference_operator, reference_psi

C_VALUES = [Cyclotomic.rational(1), cyc_make(4, 1), cyc_make(3, 1), cyc_make(12, 5)]


def test_psi_parity_oracle_pins_q_orientation():
    """Normative check: psi(Q_ij^(c)) must reproduce phi_ij^(c) on all four
    parity classes of (k_i, k_j)."""
    for c in C_VALUES:
        q = q_ij_element(c, 0, 1, 2, 12)
        for k in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (5, 2), (3, 3)]:
            assert psi_eval(q, k) == phi_eval(c, 0, 1, k), (c, k)


def test_psi_on_q_w_matches_phi_w():
    for c in C_VALUES:
        for n in (2, 3):
            for perm in itertools.permutations(range(n)):
                q = q_w_element(c, perm, n, 12)
                for k in itertools.product(range(3), repeat=n):
                    assert psi_eval(q, k) == phi_w_eval(c, perm, k)


def test_q12_at_one_explicit_coefficients():
    q = q_ij_element(1, 0, 1, 2, 4)
    tau1 = torus_gen(2, 4, 1, 2)
    tau2 = torus_gen(2, 4, 2, 2)
    expected = GroupAlgebraElement(
        2,
        4,
        {
            MonomialElement.identity(2, 4): Fraction(1, 2),
            tau1 * tau2: Fraction(-1, 2),
            tau1: Fraction(1, 2),
            tau2: Fraction(1, 2),
        },
    )
    assert q == expected


def test_q12_at_i_matches_parity_oracle():
    # at c = i the diagonal terms vanish and the two tau terms carry (1 -+ i)/2
    q = q_ij_element(cyc_make(4, 1), 0, 1, 2, 4)
    tau1 = torus_gen(2, 4, 1, 2)
    tau2 = torus_gen(2, 4, 2, 2)
    assert q.terms.keys() == {tau1, tau2}
    assert q.terms[tau1] == parse_scalar("1/2 + -1/2*zeta4^1")
    assert q.terms[tau2] == parse_scalar("1/2 + 1/2*zeta4^1")


def test_e_group_examples():
    trivial = closure_generate((4, 2), [])
    assert e_group(trivial) == GroupAlgebraElement.one(2, 4)
    S2 = make_gmpn(1, 1, 2).lift(4)
    s1 = adjacent_swap(2, 4, 1)
    assert e_group(S2) == GroupAlgebraElement(2, 4, {MonomialElement.identity(2, 4): 1, s1: 1})
    G = make_gmpn(2, 2, 2)
    eG = e_group(G)
    assert len(eG.terms) == 4
    assert all(v == 1 for v in eG.terms.values())


def test_convolution_examples():
    S2 = make_gmpn(1, 1, 2).lift(4)
    e = e_group(S2)
    assert ga_mul(e, e) == GroupAlgebraElement(2, 4, {g: 2 for g in e.terms})
    s1 = adjacent_swap(2, 4, 1)
    one = GroupAlgebraElement.one(2, 4)
    a = one + GroupAlgebraElement.from_element(s1)
    b = one + GroupAlgebraElement.from_element(s1, -1)
    assert ga_mul(a, b) == GroupAlgebraElement(2, 4)


def test_q_inverse_law_via_convolution():
    one2 = GroupAlgebraElement.one(2, 4)
    c = cyc_make(4, 1)
    q = q_ij_element(c, 0, 1, 2, 4)
    qinv = q_ij_element(c.inverse(), 0, 1, 2, 4)
    assert ga_mul(q, qinv) == one2


def test_q_w_identities_all_small_permutations():
    # Q_w^(c) Q_w^(1/c) = 1 and Q_{w'w}^(c) = w^-1(Q_{w'}^(c)) Q_w^(c)
    N = 12
    for n in (2, 3):
        one = GroupAlgebraElement.one(n, N)
        perms = list(itertools.permutations(range(n)))
        for c in C_VALUES:
            qs = {w: q_w_element(c, w, n, N) for w in perms}
            for w in perms:
                assert qs[w] * q_w_element(c.inverse(), w, n, N) == one
            winvs = {w: tuple(sorted(range(n), key=lambda i: w[i])) for w in perms}
            for w in perms:
                for wp in perms:
                    ww = tuple(wp[w[i]] for i in range(n))
                    assert qs[ww] == perm_act(winvs[w], qs[wp]) * qs[w]


def test_psi_is_multiplicative_and_separates_q_elements():
    N = 12
    rng = random.Random(6)
    for _ in range(100):
        exps_a = tuple(rng.randrange(N) for _ in range(2))
        exps_b = tuple(rng.randrange(N) for _ in range(2))
        a = MonomialElement(2, N, (0, 1), exps_a)
        b = MonomialElement(2, N, (0, 1), exps_b)
        ga = GroupAlgebraElement.from_element(a)
        gb = GroupAlgebraElement.from_element(b)
        k = tuple(rng.randrange(6) for _ in range(2))
        assert psi_eval(ga * gb, k) == psi_eval(ga, k) * psi_eval(gb, k)
    # the tested Q-elements are pairwise distinct under psi: psi is linear, so
    # psi(q_i - q_j) is nonzero on some parity vector
    qs = [q_w_element(c, (1, 0), 2, N) for c in C_VALUES]
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            assert any(
                psi_eval(qs[i], k) != psi_eval(qs[j], k) for k in [(0, 0), (1, 0), (0, 1), (1, 1)]
            )


def test_psi_rejects_non_torus():
    s1 = adjacent_swap(2, 4, 1)
    with pytest.raises(ValueError):
        psi_eval(GroupAlgebraElement.from_element(s1), (1, 0))


def test_q_w_times_torus_sum_gives_det_twist():
    # Q_w^(c) e_T = t_1^(det w) e_T for the torus of G(m,p,n)
    for m, p in [(2, 1), (2, 2), (4, 2)]:
        for n in (2, 3):
            G = make_gmpn(m, p, n).lift(12)
            N = G.N
            eT = GroupAlgebraElement(n, N, {t: 1 for t in G.torus_elements()})
            for c in [Cyclotomic.rational(1), cyc_make(4, 1), cyc_make(3, 1)]:
                for perm in itertools.permutations(range(n)):
                    q = q_w_element(c, perm, n, N)
                    sign = MonomialElement(n, N, tuple(range(n)), (0,) * n)
                    from mystica.monomial import perm_sign

                    if perm_sign(perm) == -1:
                        exps = [0] * n
                        exps[0] = N // 2
                        sign = MonomialElement(n, N, tuple(range(n)), tuple(exps))
                    expected = GroupAlgebraElement.from_element(sign) * eT
                    assert q * eT == expected, (m, p, n, perm)


def test_j_c_fixes_torus_elements():
    t = GroupAlgebraElement.from_element(torus_gen(2, 4, 1, 3), cyc_make(4, 1))
    assert j_c(cyc_make(4, 1), t) == t


def test_j_c_inverse_round_trip_random():
    rng = random.Random(31)
    n, N = 3, 4
    perms = list(itertools.permutations(range(n)))
    c = cyc_make(4, 1)
    for _ in range(40):
        terms = {}
        for _ in range(3):
            g = MonomialElement(n, N, rng.choice(perms), tuple(rng.randrange(N) for _ in range(n)))
            terms[g] = rng.randint(-3, 3)
        a = GroupAlgebraElement(n, N, terms)
        assert j_c(c.inverse(), j_c(c, a)) == a
        assert j_c(c, j_c(c.inverse(), a)) == a


def test_j_c_is_multiplicative_random():
    rng = random.Random(32)
    n, N = 2, 12
    perms = list(itertools.permutations(range(n)))
    for c in C_VALUES:
        for _ in range(30):
            a = GroupAlgebraElement(
                n, N, {MonomialElement(n, N, rng.choice(perms), (rng.randrange(N), rng.randrange(N))): rng.randint(-2, 2) for _ in range(2)}
            )
            b = GroupAlgebraElement(
                n, N, {MonomialElement(n, N, rng.choice(perms), (rng.randrange(N), rng.randrange(N))): rng.randint(-2, 2) for _ in range(2)}
            )
            assert j_c(c, a * b) == j_c(c, a) * j_c(c, b)


def test_twist_then_untwisted_operator_equals_twisted_operator():
    # rho_+(J_c(a)) = rho_c(a) on small degrees, both sides summed term by
    # term from the definition
    rng = random.Random(33)
    G = make_gmpn(2, 1, 2)
    elems = list(G.elements)
    c = cyc_make(4, 1)
    for _ in range(25):
        a = GroupAlgebraElement(
            G.n, G.N, {rng.choice(elems): rng.randint(-2, 2) for _ in range(3)}
        )
        for d in range(4):
            assert reference_operator(list(j_c(c, a).items()), 0, d) == reference_operator(list(a.items()), c, d)


def test_j_at_i_of_swap_matches_twisted_operator():
    s1 = adjacent_swap(2, 4, 1)
    c = cyc_make(4, 1)
    image = j_c(c, GroupAlgebraElement.from_element(s1))
    tau1 = torus_gen(2, 4, 1, 2)
    tau2 = torus_gen(2, 4, 2, 2)
    assert frozenset(image.terms) == frozenset({s1 * tau1, s1 * tau2})
    for d in range(3):
        assert reference_operator(list(image.items()), 0, d) == reference_operator([(s1, 1)], c, d)


def test_twist_identity_on_every_parity_box():
    # psi_k(Q_w^(c)) = phi_w^(c)(k) on {0,1}^n x S_n for n = 2, 3, 4.
    # J_c(t*w) = t*w*Q_w^(c), so this is rho_0(J_c(x)) = rho_c(x) on every
    # slice: every exponent in the support of Q_w^(c) is 0 or N/2, so psi_k
    # reads k mod 2 only, as phi_w^(c) does, and the parity box covers every
    # degree
    cases = 0
    for N, c, w, qw in _parity_box_q_elements():
        assert all(e in (0, N // 2) for g in qw.terms for e in g.exps), (N, c, w)
        for k in itertools.product((0, 1), repeat=len(w)):
            assert psi_eval(qw, k) == phi_w_eval(c, w, k), (N, c, w, k)
            cases += 1
    assert cases == 3_080


def _parity_box_q_elements():
    """(N, c, w, Q_w^(c)) for every w in S_n, n = 2, 3, 4, and every c of its
    ambient: N = 4 with c in 1, zeta4, 1/2, -3 and N = 12 with c in zeta3,
    zeta12^5, zeta4."""
    for N, cs in (
        (4, (1, cyc_make(4, 1), Fraction(1, 2), -3)),
        (12, (cyc_make(3, 1), cyc_make(12, 5), cyc_make(4, 1))),
    ):
        for n in (2, 3, 4):
            for c in cs:
                for w in itertools.permutations(range(n)):
                    yield N, c, w, q_w_element(c, w, n, N)


def test_rho_examples():
    one = GroupAlgebraElement.one(2, 4)
    for d in range(3):
        mat = operator_matrix(list(one.items()), cyc_make(4, 1), d)
        assert all(r == c and v == 1 for (r, c), v in mat.entries.items())
    G = make_gmpn(2, 2, 2)
    zero_mat = operator_matrix(list(e_group(G).items()), 0, 1)
    assert zero_mat.entries == {}


# (c, c^-1) written out, so the reference below uses no field inverse; the
# last value is 1 written in Q(zeta4), whose Q-elements carry order-4
# coefficients
_C_WITH_INVERSES = [
    ("1", "1"),
    ("-1", "-1"),
    ("zeta4", "zeta4^3"),
    ("zeta3", "zeta3^2"),
    ("1/2+1/2*zeta4", "1-zeta4"),
]


def _reference_q_w(c, cinv, perm, n, N):
    """Q_w^(c) multiplied out on the torus from the quarter-coefficient
    formula, one inversion (i, j) at a time: (c + c^-1)/4 (1 - tau_i tau_j)
    + (c^-1 - c + 2)/4 tau_i + (c - c^-1 + 2)/4 tau_j."""
    half = N // 2
    quarter = Fraction(1, 4)
    out = {(0,) * n: Cyclotomic.one()}
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] < perm[j]:
                continue
            ti = tuple(half if k == i else 0 for k in range(n))
            tj = tuple(half if k == j else 0 for k in range(n))
            tij = tuple(half if k in (i, j) else 0 for k in range(n))
            factor = {
                (0,) * n: (c + cinv) * quarter,
                tij: -(c + cinv) * quarter,
                ti: (cinv - c + 2) * quarter,
                tj: (c - cinv + 2) * quarter,
            }
            product = {}
            for e, a in out.items():
                for f, b in factor.items():
                    key = tuple((x + y) % N for x, y in zip(e, f))
                    product[key] = product[key] + a * b if key in product else a * b
            out = product
    identity_perm = tuple(range(n))
    return {
        MonomialElement(n, N, identity_perm, e): (v.order, v.nums, v.den)
        for e, v in out.items()
        if not v.is_zero()
    }


def test_memoised_q_w_matches_quarter_coefficient_products():
    cs = [(parse_scalar(c), parse_scalar(cinv)) for c, cinv in _C_WITH_INVERSES]
    cs.append((Cyclotomic.rational(1, 4), Cyclotomic.rational(1, 4)))
    for c, cinv in cs:
        assert c * cinv == 1
    for N in (4, 12):
        for c, cinv in cs:
            for n in (1, 2, 3):
                for perm in itertools.permutations(range(n)):
                    if N % c.order and perm != tuple(range(n)):
                        with pytest.raises(ValueError):
                            q_w_element(c, perm, n, N)
                        continue
                    q = q_w_element(c, perm, n, N)
                    got = {g: (v.order, v.nums, v.den) for g, v in q.terms.items()}
                    assert got == _reference_q_w(c, cinv, perm, n, N), (scalar_to_text(c), c.order, perm, N)
                    assert q_w_element(c, perm, n, N) == q
                    assert q_w_element(c, list(perm), n, N) == q


def test_memoised_q_ij_keeps_the_order_of_c():
    # zeta3 and zeta4 share their numerators (0, 1); 1 and 1 in Q(zeta4) their value
    for c in (cyc_make(3, 1), cyc_make(4, 1), Cyclotomic.one(), Cyclotomic.rational(1, 4)):
        q = q_ij_element(c, 0, 1, 2, 12)
        assert {v.order for v in q.terms.values()} == {c.order}
        assert psi_eval(q, (1, 0)) == phi_eval(c, 0, 1, (1, 0))


# -- the integer convolution kernel against the term-by-term convolution ------


def _reference_mul(left, right):
    """The element-by-element convolution: one group-law product, one field
    product and one field sum per pair of terms, zero sums dropped."""
    out = {}
    for g, a in left.items():
        for h, b in right.items():
            key = g * h
            total = out[key] + a * b if key in out else a * b
            if total.is_zero():
                del out[key]
            else:
                out[key] = total
    return out


def _reference_j_c(c, a):
    """J_c term by term: each support term times Q of its permutation, summed."""
    out = {}
    for g, v in a.terms.items():
        for key, value in _reference_mul({g: v}, q_w_element(c, g.perm, a.n, a.N).terms).items():
            total = out[key] + value if key in out else value
            if total.is_zero():
                del out[key]
            else:
                out[key] = total
    return out


_DEGREES = {1: 1, 3: 2, 4: 2, 12: 4}
_J_C_VALUES = {
    4: (Cyclotomic.rational(1), Cyclotomic.rational(1, 2), cyc_make(4, 1)),
    12: (Cyclotomic.rational(1), cyc_make(3, 1), cyc_make(4, 3), cyc_make(12, 5)),
}


@st.composite
def _kernel_case(draw):
    """(a, b, c, order): two elements of one ambient with n <= 3, N in {4, 12},
    either both with every coefficient at `order` or (order None) each
    coefficient at its own order in {1, 3, 4, 12}, denominators 1 to 4, some
    numerators large; each side may be empty, and a drawn involution s can add
    g + g s to a and h - s h to b, whose product cancels to zero."""
    n = draw(st.integers(1, 3))
    N = draw(st.sampled_from((4, 12)))
    order = draw(st.sampled_from((None, 1, 3, 4, 12)))
    perms = list(itertools.permutations(range(n)))

    def element():
        return MonomialElement(n, N, draw(st.sampled_from(perms)), tuple(draw(st.integers(0, N - 1)) for _ in range(n)))

    def coeff():
        o = order or draw(st.sampled_from((1, 3, 4, 12)))
        nums = draw(st.lists(st.integers(-3, 3) | st.integers(-(10**12), 10**12), min_size=_DEGREES[o], max_size=_DEGREES[o]))
        if not any(nums):
            nums[0] = 1
        value = Cyclotomic.zero(o)
        for j, x in enumerate(nums):
            value = value + Cyclotomic.root(o, j) * x
        return value * Fraction(1, draw(st.integers(1, 4)))

    sides = [{element(): coeff() for _ in range(draw(st.integers(0, 4)))} for _ in range(2)]
    if draw(st.booleans()):
        involutions = [torus_gen(n, N, 1, N // 2)] + ([adjacent_swap(n, N, 1)] if n > 1 else [])
        s = draw(st.sampled_from(involutions))
        g, h, v, w = element(), element(), coeff(), coeff()
        sides[0].update({g: v, g * s: v})
        sides[1].update({h: w, s * h: -w})
    a, b = (GroupAlgebraElement(n, N, terms) for terms in sides)
    return a, b, draw(st.sampled_from(_J_C_VALUES[N])), order


def _assert_matches(got, want, exact):
    assert got.terms.keys() == want.keys()
    for g, v in want.items():
        assert got.terms[g] == v, g
        if exact:
            assert (got.terms[g].order, got.terms[g].nums, got.terms[g].den) == (v.order, v.nums, v.den), g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_case())
def test_convolution_kernel_matches_term_by_term_convolution(case):
    a, b, c, order = case
    _assert_matches(a * b, _reference_mul(a.terms, b.terms), exact=order is not None)
    _assert_matches(ga_mul(b, a), _reference_mul(b.terms, a.terms), exact=order is not None)
    # Q_w^(c) carries coefficients of c's order, and 1 on the identity
    _assert_matches(j_c(c, a), _reference_j_c(c, a), exact=order is not None and c.order in (1, order))


def test_convolution_kernel_cancels_to_zero_and_takes_empty_operands():
    n, N = 3, 12
    g, h = MonomialElement(n, N, (1, 2, 0), (1, 5, 7)), MonomialElement(n, N, (2, 1, 0), (0, 6, 3))
    s = adjacent_swap(n, N, 2)
    v, w = parse_scalar("1/3 - 2*zeta12^3"), parse_scalar("3/4*zeta12 + 1/2")
    a = GroupAlgebraElement(n, N, {g: v, g * s: v, h: 1})
    b = GroupAlgebraElement(n, N, {h: w, s * h: -w})
    assert (a * b).terms == {h * h: w, h * s * h: -w}
    assert (GroupAlgebraElement(n, N, {g: v, g * s: v}) * b).terms == {}
    empty = GroupAlgebraElement(n, N)
    assert (a * empty).terms == (empty * a).terms == j_c(cyc_make(4, 1), empty).terms == {}


# -- psi_k as one integer accumulation against the term-by-term sum -----------


def _assert_same_element(got, want):
    assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


@st.composite
def _psi_case(draw):
    """(a, k): a torus-supported element with n <= 3 and N in {1, 2, 3, 4, 6,
    8, 12}, up to five terms, each coefficient an int, a Fraction or a
    rational multiple of a root of unity whose order need not divide N,
    perhaps plus a further coefficient; k with entries in -5..24."""
    n = draw(st.integers(1, 3))
    N = draw(st.sampled_from((1, 2, 3, 4, 6, 8, 12)))

    def coeff():
        kind = draw(st.sampled_from(("int", "fraction", "root")))
        if kind == "int":
            return draw(st.integers(-3, 3) | st.integers(-(10**12), 10**12))
        if kind == "fraction":
            return Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 12)))
        root = Cyclotomic.root(draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 10, 12))), draw(st.integers(0, 11)))
        value = root * Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 6)))
        return value + coeff() if draw(st.booleans()) else value

    identity = tuple(range(n))
    terms = {
        MonomialElement(n, N, identity, tuple(draw(st.integers(0, N - 1)) for _ in range(n))): coeff()
        for _ in range(draw(st.integers(0, 5)))
    }
    return GroupAlgebraElement(n, N, terms), tuple(draw(st.integers(-5, 24)) for _ in range(n))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_psi_case())
def test_psi_accumulation_matches_term_by_term_sum(case):
    a, k = case
    _assert_same_element(psi_eval(a, k), reference_psi(a, k))


def test_psi_accumulation_matches_term_by_term_sum_on_every_parity_box_q_element():
    cases = 0
    for N, c, w, qw in _parity_box_q_elements():
        for k in itertools.product((-1, 0, 1), repeat=len(w)):
            _assert_same_element(psi_eval(qw, k), reference_psi(qw, k))
            cases += 1
    assert cases == 7 * (3**2 * 2 + 3**3 * 6 + 3**4 * 24)  # seven (N, c), k in {-1, 0, 1}^n
