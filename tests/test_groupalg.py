"""Tests for the group algebra: convolution, Q-elements, the twisting map
and the torus evaluation functional.

The psi parity oracle runs first: it pins the orientation of the two middle
terms of Q_ij^(c) and everything later relies on it.
"""

import itertools
import random
from fractions import Fraction

import pytest

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
    assert ga_mul(e, e) == e.scale(2)
    s1 = adjacent_swap(2, 4, 1)
    one = GroupAlgebraElement.one(2, 4)
    a = one + GroupAlgebraElement.from_element(s1)
    b = one - GroupAlgebraElement.from_element(s1)
    assert ga_mul(a, b).is_zero()


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
    # injectivity on the span of the tested Q-elements: distinct values on
    # some parity vector
    qs = [q_w_element(c, (1, 0), 2, N) for c in C_VALUES]
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            diff = qs[i] - qs[j]
            assert any(
                not psi_eval(diff, k).is_zero() for k in [(0, 0), (1, 0), (0, 1), (1, 1)]
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
    # rho_+(J_c(a)) = rho_c(a) on small degrees
    rng = random.Random(33)
    G = make_gmpn(2, 1, 2)
    elems = list(G.elements)
    c = cyc_make(4, 1)
    for _ in range(25):
        a = GroupAlgebraElement(
            G.n, G.N, {rng.choice(elems): rng.randint(-2, 2) for _ in range(3)}
        )
        for d in range(4):
            assert operator_matrix(j_c(c, a), 0, d) == operator_matrix(a, c, d)


def test_j_at_i_of_swap_matches_twisted_operator():
    s1 = adjacent_swap(2, 4, 1)
    c = cyc_make(4, 1)
    image = j_c(c, GroupAlgebraElement.from_element(s1))
    tau1 = torus_gen(2, 4, 1, 2)
    tau2 = torus_gen(2, 4, 2, 2)
    assert image.support() == frozenset({s1 * tau1, s1 * tau2})
    for d in range(3):
        assert operator_matrix(image, 0, d) == operator_matrix(s1, c, d)


def test_rho_examples():
    one = GroupAlgebraElement.one(2, 4)
    for d in range(3):
        mat = operator_matrix(one, cyc_make(4, 1), d)
        assert all(r == c and v == 1 for (r, c), v in mat.entries.items())
    G = make_gmpn(2, 2, 2)
    zero_mat = operator_matrix(e_group(G), 0, 1)
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
