"""Tests for twisted polynomial multiplication, cocycles and invariants."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mystica.cyclo import Cyclotomic, cyc_make, parse_scalar
from mystica.groups import make_gmpn, make_w
from mystica.linalg import SparseMatrix
from mystica.monomial import MonomialElement, adjacent_swap, perm_apply, torus_gen
from mystica.qpoly import (
    QMatrix,
    QPolynomial,
    act_c,
    commute_check,
    fundamental_invariants,
    hilbert_free,
    invariant_degrees,
    invariant_dimension,
    operator_matrix,
    phi_eval,
    phi_w_eval,
    qform_bracket,
    qmul,
    slice_monomials,
)
from reference import reference_action, reference_cocycle, reference_operator, reference_torus

MINUS2 = QMatrix.minus_one(2)
PLUS2 = QMatrix(2, [[1, 1], [1, 1]])


def _slice_trace(G, c, degree):
    """The trace invariant_dimension reads: the diagonal sum of the group
    sum's operator on the degree slice."""
    from mystica.qpoly import group_sum_terms

    matrix = operator_matrix(group_sum_terms(G), c, degree)
    return sum((v for (r, col), v in matrix.entries.items() if r == col), Cyclotomic.zero())


def x(i, n, power=1):
    """x_i^power with one-based index i."""
    return mono(tuple(power if j == i else 0 for j in range(1, n + 1)))


def mono(k, coeff=1):
    """The one-term polynomial coeff * x^k."""
    return QPolynomial(len(k), {tuple(k): coeff})


def test_qmatrix_constraints():
    with pytest.raises(ValueError):
        QMatrix(2, [[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        QMatrix(2, [[2, 1], [1, 1]])
    QMatrix(2, [[1, 2], [Fraction(1, 2), 1]])  # fine: q12*q21 = 1


def test_bracket_examples():
    assert qform_bracket(MINUS2, (1, 0), (0, 1)) == 1
    assert qform_bracket(MINUS2, (0, 1), (1, 0)) == -1
    for k in itertools.product(range(3), repeat=2):
        for kp in itertools.product(range(3), repeat=2):
            assert qform_bracket(PLUS2, k, kp) == 1


def test_qmul_examples():
    # x2 *_- x1 = -x1 x2
    assert qmul(MINUS2, x(2, 2), x(1, 2)) == QPolynomial(2, {(1, 1): -1})
    f = QPolynomial(2, {(1, 0): 1, (0, 1): 3})
    one = mono((0, 0))
    assert qmul(MINUS2, one, f) == f
    assert qmul(MINUS2, f, one) == f
    # cross terms cancel in the twisted square of x1 + x2
    s = QPolynomial(2, {(1, 0): 1, (0, 1): 1})
    assert qmul(MINUS2, s, s) == QPolynomial(2, {(2, 0): 1, (0, 2): 1})


def test_qmul_associative_randomized():
    rng = random.Random(17)
    q = QMatrix(2, [[1, cyc_make(4, 1)], [cyc_make(4, 3), 1]])
    for mats in (MINUS2, q):
        for _ in range(40):
            polys = []
            for _ in range(3):
                terms = {
                    (rng.randrange(3), rng.randrange(3)): rng.randint(-2, 2)
                    for _ in range(2)
                }
                polys.append(QPolynomial(2, terms))
            f, g, h = polys
            assert qmul(mats, qmul(mats, f, g), h) == qmul(mats, f, qmul(mats, g, h))


def test_phi_examples():
    c = cyc_make(4, 1)
    assert phi_eval(c, 0, 1, (1, 0)) == c
    assert phi_eval(1, 0, 1, (1, 1)) == -1
    assert phi_eval(0, 0, 1, (1, 1)) == 1  # the untwisted tag
    assert phi_w_eval(c, (0, 1, 2), (3, 1, 4)) == 1  # identity has no inversions
    # an int or a Fraction c, and a rational c written at order 4, give the
    # values of that c written at order 1, field order included
    half = Fraction(-3, 2)
    pairs = ((2, Cyclotomic.rational(2)), (half, Cyclotomic.rational(half)))
    for c, same in pairs + ((Cyclotomic.rational(half, 4), Cyclotomic.rational(half)),):
        for k in itertools.product(range(3), repeat=3):
            got, want = phi_w_eval(c, (2, 0, 1), k), phi_w_eval(same, (2, 0, 1), k)
            assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den), (c, k)


def test_phi_antisymmetry_and_inverse():
    # phi_ij^(1/c) = phi_ij^(c)^-1 = phi_ji^(c)
    for cval in [cyc_make(4, 1), cyc_make(3, 1), Cyclotomic.rational(1)]:
        for k in itertools.product(range(4), repeat=2):
            a = phi_eval(cval, 0, 1, k)
            b = phi_eval(cval.inverse(), 0, 1, k)
            assert a * b == 1
            assert phi_eval(cval, 1, 0, k) == b


def test_cocycle_and_sign_bracket_depend_on_parities_only():
    # the lemma that makes the exponent vectors in {0,1}^n of criterion 10's
    # cocycle suites a proof for every k: reducing k mod 2 changes neither
    # phi_w^(c)(k) nor the q = -1 bracket <k, k'>
    for n in (2, 3, 4):
        q = QMatrix.minus_one(n)
        vectors = list(itertools.product(range(4), repeat=n))
        parity = {k: tuple(x % 2 for x in k) for k in vectors}
        for w in itertools.permutations(range(n)):
            for c in (0, 1, cyc_make(4, 1), cyc_make(3, 1)):
                for k in vectors:
                    assert phi_w_eval(c, w, k) == phi_w_eval(c, w, parity[k]), (c, w, k)
        for k in vectors:
            for kp in vectors:
                assert qform_bracket(q, k, kp) == qform_bracket(q, parity[k], parity[kp]), (k, kp)


def test_act_examples():
    s1 = adjacent_swap(2, 4, 1)
    assert act_c(1, s1, mono((1, 1))) == mono((1, 1), -1)
    t1 = torus_gen(2, 4, 1, 1)
    for k in range(4):
        assert act_c(0, t1, mono((k, 0))) == mono((k, 0), cyc_make(4, k))
    assert act_c(0, s1, mono((2, 1))) == mono((1, 2))


def test_action_composition_law():
    rng = random.Random(8)
    n, N = 3, 4
    perms = list(itertools.permutations(range(n)))
    for c in (0, 1, cyc_make(4, 1)):
        for _ in range(80):
            a = MonomialElement(n, N, rng.choice(perms), tuple(rng.randrange(N) for _ in range(n)))
            b = MonomialElement(n, N, rng.choice(perms), tuple(rng.randrange(N) for _ in range(n)))
            f = QPolynomial(n, {tuple(rng.randrange(4) for _ in range(n)): rng.randint(-2, 2) for _ in range(2)})
            assert act_c(c, a * b, f) == act_c(c, a, act_c(c, b, f))


def test_actions_are_algebra_maps():
    # untwisted action respects the plain product, twisted action respects the
    # sign-twisted product, for every element of G(2,1,3)
    rng = random.Random(12)
    G = make_gmpn(2, 1, 3)
    q = QMatrix.minus_one(3)
    plain = QMatrix(3, [[1] * 3] * 3)
    for g in G.elements:
        for _ in range(6):
            k = tuple(rng.randrange(4) for _ in range(3))
            kp = tuple(rng.randrange(4) for _ in range(3))
            f, h = mono(k), mono(kp)
            assert act_c(0, g, qmul(plain, f, h)) == qmul(plain, act_c(0, g, f), act_c(0, g, h))
            assert act_c(1, g, qmul(q, f, h)) == qmul(q, act_c(1, g, f), act_c(1, g, h))


def test_operator_matrix_identity():
    e = MonomialElement.identity(2, 4)
    for d in range(4):
        mat = operator_matrix(e, 1, d)
        dim = len(slice_monomials(2, d))
        assert mat.entries == {(i, i): Cyclotomic.one() for i in range(dim)}


def test_operator_matrix_swap_degree_two():
    mat = operator_matrix(adjacent_swap(2, 4, 1), 1, 2)
    # basis order: x1^2, x1 x2, x2^2
    assert mat.entries[(2, 0)] == 1
    assert mat.entries[(0, 2)] == 1
    assert mat.entries[(1, 1)] == -1
    assert len(mat.entries) == 3


def test_operator_matrix_group_sum_symmetrizes():
    G = make_gmpn(1, 1, 2).lift(4)
    terms = [(g, Cyclotomic.one()) for g in G.elements]
    mat = operator_matrix(terms, 0, 1)
    assert mat.entries == {
        (0, 0): Cyclotomic.one(),
        (1, 0): Cyclotomic.one(),
        (0, 1): Cyclotomic.one(),
        (1, 1): Cyclotomic.one(),
    }


def test_invariant_dimension_examples():
    W = make_w(2, 1, 2)
    assert invariant_dimension(W, 1, 2) == 2
    for G in (W, make_gmpn(2, 1, 2)):
        assert invariant_dimension(G, 0, 0) == 1
        assert invariant_dimension(G, 1, 0) == 1
    # oracle: coefficient of t^4 in 1/((1-t^2)(1-t^4))
    assert invariant_dimension(make_gmpn(2, 1, 2), 0, 4) == hilbert_free([2, 4], 4)[4]
    assert invariant_dimension(make_gmpn(2, 1, 2), 0, 4) == 2


def test_hilbert_free_examples():
    assert hilbert_free([2, 2], 6) == [1, 0, 2, 0, 3, 0, 4]
    assert hilbert_free([], 4) == [1, 0, 0, 0, 0]
    assert hilbert_free([2, 4], 4) == [1, 0, 1, 0, 2]


def test_fundamental_invariants_examples():
    polys = fundamental_invariants(2, 2, 2)
    assert polys[0] == QPolynomial(2, {(2, 0): 1, (0, 2): 1})
    assert polys[1] == QPolynomial(2, {(1, 1): 1})
    polys = fundamental_invariants(1, 1, 2)
    assert polys[0] == QPolynomial(2, {(1, 0): 1, (0, 1): 1})
    assert polys[1] == QPolynomial(2, {(1, 1): 1})
    for m, p, n in [(2, 2, 2), (4, 2, 3), (6, 3, 2)]:
        degs = [max(sum(k) for k in poly.terms) for poly in fundamental_invariants(m, p, n)]
        assert degs == invariant_degrees(m, p, n)


def test_commute_check_examples():
    assert commute_check(MINUS2, fundamental_invariants(2, 2, 2))
    assert not commute_check(MINUS2, [x(1, 2), x(2, 2)])
    f = QPolynomial(2, {(1, 0): 1, (0, 1): 1})
    g = mono((1, 1))
    assert not commute_check(MINUS2, [f, g])
    # the one-sided product is x1^2 x2 - x1 x2^2
    assert qmul(MINUS2, f, g) == QPolynomial(2, {(2, 1): 1, (1, 2): -1})
    assert qmul(MINUS2, g, f) == QPolynomial(2, {(2, 1): -1, (1, 2): 1})


def test_odd_rank_invariants_not_closed_under_twisted_product():
    # for odd m the product of two untwisted invariants can leave the
    # untwisted invariant space
    f = QPolynomial(2, {(1, 0): 1, (0, 1): 1})
    g = mono((1, 1))
    prod = qmul(MINUS2, f, g)
    s1 = adjacent_swap(2, 4, 1)
    assert act_c(0, s1, f) == f
    assert act_c(0, s1, g) == g
    assert act_c(0, s1, prod) != prod


def test_act_c_and_qmul_results_are_clean_polynomials():
    # both build their result without the constructor's cleaning, which must
    # leave it unchanged: Cyclotomic values, exponent tuples, no zero
    rng = random.Random(23)
    n, N = 3, 12
    perms = list(itertools.permutations(range(n)))
    mats = (QMatrix.minus_one(n), QMatrix(n, [[1] * n] * n))
    for _ in range(60):
        f, h = (
            QPolynomial(n, {tuple(rng.randrange(3) for _ in range(n)): rng.randint(-2, 2) for _ in range(4)})
            for _ in range(2)
        )
        g = MonomialElement(n, N, rng.choice(perms), tuple(rng.randrange(N) for _ in range(n)))
        outs = [act_c(c, g, f) for c in (0, 1, cyc_make(4, 1), Fraction(2, 3))]
        outs += [qmul(q, f, h) for q in mats]
        for out in outs:
            assert out == QPolynomial(n, dict(out.terms))
            assert all(isinstance(k, tuple) and isinstance(v, Cyclotomic) and not v.is_zero() for k, v in out.terms.items())
    # x1 + x2 squared at q = -1: the cross terms cancel and are not stored
    s = QPolynomial(2, {(1, 0): 1, (0, 1): 1})
    assert set(qmul(MINUS2, s, s).terms) == {(2, 0), (0, 2)}


def test_minus_one_matrix_is_built_once_per_rank():
    for n in (1, 2, 3, 4):
        q = QMatrix.minus_one(n)
        assert QMatrix.minus_one(n) is q
        assert q.is_minus_one() and q.n == n
    assert MINUS2 is QMatrix.minus_one(2)
    assert qform_bracket(MINUS2, (0, 1), (1, 0)) == -1 and qform_bracket(MINUS2, (1, 0), (0, 1)) == 1


def test_integer_weights_match_half_scaled_tally():
    # integer weights are counted in one tally per permutation; 1/2 is not an
    # integer, so its elements get a tally of their own, whose value 1/2
    # multiplies; doubling those entries must give the integer tally's exactly
    rng = random.Random(44)
    for G in (make_gmpn(2, 1, 2), make_w(2, 1, 2), make_gmpn(2, 2, 3)):
        for c in (0, 1):
            for d in range(4):
                fast = operator_matrix([(g, Cyclotomic.one()) for g in G.elements], c, d)
                half = Cyclotomic.rational(Fraction(1, 2))
                slow = operator_matrix([(g, half) for g in G.elements], c, d)
                doubled = {key: v * 2 for key, v in slow.entries.items()}
                assert fast.entries.keys() == doubled.keys()
                assert all(fast.entries[k] == doubled[k] for k in doubled)


def test_slice_monomials_order():
    assert slice_monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert slice_monomials(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(slice_monomials(3, 4)) == 15


def test_polynomial_text():
    f = QPolynomial(2, {(2, 1): 1, (1, 2): -1})
    assert f.to_text() == "x1^2*x2 + (-1)*x1*x2^2"


def _assert_same_entries(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == value, key
        assert got[key].order == value.order, key


def test_slice_action_kernel_matches_definition():
    # the kernel behind act_c and operator_matrix against the definition,
    # entry by entry and field order by field order.  The weight sets mix
    # integers small and large (2^31 - 1 and -2^70 scale the root tallies),
    # non-integers (each multiplies its tally's value), plain int and
    # Fraction coefficients, an integer written in Q(zeta_12), whose entries
    # still lie in Q(zeta_L), and whole-group sums sharing one coefficient;
    # a coefficient outside Q is refused.
    # c = 2 and c = -1 are rational c other than 1; c = 10^7 gives numerators
    # of more than 64 bits; the ambient N = 3 is odd, so -1 is not a power of
    # zeta_N there.
    rng = random.Random(61)
    cs = [0, 1, 2, -1, 10**7, cyc_make(4, 1), Cyclotomic.rational(Fraction(1, 2)) + cyc_make(4, 1) * Fraction(1, 2)]
    coeffs = [Cyclotomic.rational(v) for v in (1, -2, 3, Fraction(1, 2))]
    poly_coeffs = coeffs + [cyc_make(4, 1)]  # act_c takes any polynomial coefficient
    big = Cyclotomic.rational(-(2**70))
    weight_sets = (
        coeffs[:3],
        coeffs[2:],
        [coeffs[0], big, coeffs[1]],
        [coeffs[1], big, coeffs[3], 2**31 - 1],
        [2, Fraction(1, 2), -3, Cyclotomic.rational(5, 12)],
    )
    for G in (make_gmpn(3, 1, 2), make_gmpn(3, 1, 2, N=3), make_gmpn(4, 1, 3), make_w(4, 1, 3)):
        n = G.n
        # sum over t of t^(w(k)), per permutation w and column k, for the group sums
        sum_degree = 5 if G.order < 100 else 2
        torus_sums = {}
        for d in range(sum_degree + 1):
            for col, k in enumerate(slice_monomials(n, d)):
                for g in G.elements:
                    key = (g.perm, d, col)
                    torus = reference_torus(g, k)
                    torus_sums[key] = torus_sums[key] + torus if key in torus_sums else torus
        for c in cs:
            elems = rng.sample(G.elements, 4)
            for d in range(6):
                basis = slice_monomials(n, d)
                row = {k: idx for idx, k in enumerate(basis)}
                for g in elems:
                    _assert_same_entries(operator_matrix(g, c, d).entries, reference_operator([(g, 1)], c, d))
                for weights in weight_sets:
                    terms = list(zip(elems, weights))
                    rational = [(g, Fraction(v.nums[0], v.den) if isinstance(v, Cyclotomic) else v) for g, v in terms]
                    _assert_same_entries(operator_matrix(terms, c, d).entries, reference_operator(rational, c, d))
                if d > sum_degree:
                    continue
                shared = coeffs[1]
                want = {}
                for w in {g.perm for g in G.elements}:
                    for col, k in enumerate(basis):
                        image, scalar = reference_cocycle(c, w, k, G.N)
                        key, value = (row[image], col), shared * scalar * torus_sums[w, d, col]
                        want[key] = want[key] + value if key in want else value
                want = {key: v for key, v in want.items() if not v.is_zero()}
                _assert_same_entries(operator_matrix([(g, shared) for g in G.elements], c, d).entries, want)
            for outside in (cyc_make(4, 1), 0.5):
                with pytest.raises(ValueError, match="must be rational"):
                    operator_matrix([(elems[0], 1), (elems[1], outside)], c, 1)
            for g in elems:
                f = QPolynomial(
                    n,
                    {
                        rng.choice(slice_monomials(n, rng.randrange(6))): rng.choice(poly_coeffs)
                        for _ in range(5)
                    },
                )
                want = {}
                for k, coeff in f.terms.items():
                    image, scalar = reference_action(c, g, k)
                    want[image] = coeff * scalar
                _assert_same_entries(act_c(c, g, f).terms, want)


_ONE_OFF_CS = (0, Cyclotomic.rational(Fraction(1, 2)), cyc_make(4, 1), cyc_make(3, 1))


@st.composite
def _one_off_case(draw):
    """(actor, terms, n, N, c, degree): an operator that no kept sum holds,
    with n <= 3 and N in {3, 4, 12}, and its (element, coefficient) terms.  Blocks
    of terms: single elements, one permutation with distinct torus parts, a
    whole coset of a torus subgroup under one coefficient, and an element
    beside its product with an involution, or beside itself, whose
    coefficients may cancel.  Coefficients are rational, -3 to 3 over
    denominators 1 to 4, zero included, each an int or Fraction or written
    in Q(zeta_e) for e in {1, 3, 4, 12}.  The actor is the term list or a
    lone element itself."""
    n = draw(st.sampled_from((1, 2, 3)))
    N = draw(st.sampled_from((3, 4, 12)))
    perms = list(itertools.permutations(range(n)))

    def torus():
        return tuple(draw(st.integers(0, N - 1)) for _ in range(n))

    def coeff():
        value = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
        order = draw(st.sampled_from((None, 1, 3, 4, 12)))
        return value if order is None else Cyclotomic.rational(value, order)

    terms = []
    for kind in draw(st.lists(st.sampled_from(("element", "perm", "coset", "pair")), min_size=1, max_size=3)):
        perm = draw(st.sampled_from(perms))
        if kind == "element":
            terms.append((MonomialElement(n, N, perm, torus()), coeff()))
        elif kind == "perm":
            shared = draw(st.booleans()) and coeff()
            for exps in draw(st.lists(st.builds(torus), min_size=2, max_size=4, unique=True)):
                terms.append((MonomialElement(n, N, perm, exps), shared or coeff()))
        elif kind == "coset":
            # the subgroup generated by t_j^(N/q), q a divisor of N up to 4
            span = {(0,) * n}
            orders = st.sampled_from([q for q in (2, 3, 4) if N % q == 0])
            for j, q in draw(st.lists(st.tuples(st.integers(0, n - 1), orders), min_size=1, max_size=2)):
                step = tuple(N // q if i == j else 0 for i in range(n))
                span |= {tuple((x + r * y) % N for x, y in zip(u, step)) for u in span for r in range(q)}
            base, shared = torus(), coeff()
            terms += [(MonomialElement(n, N, perm, tuple(map(sum, zip(base, u)))), shared) for u in sorted(span)]
        else:
            g, value = MonomialElement(n, N, perm, torus()), coeff()
            s = torus_gen(n, N, 1, N // 2) if N % 2 == 0 and draw(st.booleans()) else MonomialElement.identity(n, N)
            terms += [(g, value), (g * s, draw(st.sampled_from((value, -value))))]
    if len(terms) == 1 and draw(st.booleans()):
        terms = [(terms[0][0], 1)]
        actor = terms[0][0]
    else:
        actor = terms
    return actor, terms, n, N, draw(st.sampled_from(_ONE_OFF_CS)), draw(st.sampled_from(range(7)))


# N = 3 is odd, so two keys of one slice can differ in the sign bit alone:
# (3, 3) and (0, 6) under the swap both go to (0, 0) mod 3, with sign bits 1
# and 0 and one c exponent
_SIGN_ONLY = [(MonomialElement(2, 3, (1, 0), (1, 2)), Cyclotomic.one())]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_one_off_case())
@example((_SIGN_ONLY, _SIGN_ONLY, 2, 3, cyc_make(4, 1), 6))
@example((_SIGN_ONLY[0][0], _SIGN_ONLY, 2, 3, Cyclotomic.rational(Fraction(1, 2)), 6))
def test_one_off_operators_match_the_definition_and_a_kept_sum(case):
    # a one-off actor, whose entries are computed afresh, against the sum of
    # the terms' actions straight from the definition, each entry in
    # Q(zeta_L) whatever order its coefficients are written at, and exactly,
    # field order included, against the same terms held as a kept sum that
    # has already filled entries under another c and at other degrees, so
    # that an entry kept across c or degrees where it should not be shows
    from mystica.qpoly import _GroupSum

    actor, terms, n, N, c, degree = case
    want = reference_operator(terms, c, degree)
    got = operator_matrix(actor, c, degree).entries
    assert got.keys() == want.keys()
    assert all(v == want[key] for key, v in got.items())
    assert all(v.order == (N if c == 0 else lcm(N, c.order)) for v in got.values())
    kept_sum = _GroupSum(terms, n, N)
    other_c = _ONE_OFF_CS[(_ONE_OFF_CS.index(c) + 1) % len(_ONE_OFF_CS)]
    operator_matrix(kept_sum, other_c, (degree + 1) % 7)
    operator_matrix(kept_sum, c, (degree + 3) % 7)
    kept = operator_matrix(kept_sum, c, degree).entries
    assert {key: (v.order, v.nums, v.den) for key, v in got.items()} == {
        key: (v.order, v.nums, v.den) for key, v in kept.items()
    }


@pytest.mark.parametrize("G", [make_gmpn(3, 1, 2), make_gmpn(4, 1, 3), make_w(4, 1, 3)], ids=lambda G: G.tag.label)
def test_slice_trace_matches_element_by_element_sum(G):
    # the symmetrizer's diagonal sum, read per (sign, c exponent, root
    # exponent) key, against the exact sum over every element and every
    # monomial it fixes
    fixed = {}
    for degree in range(7):
        for g in G.elements:
            fixed[g, degree] = [k for k in slice_monomials(G.n, degree) if perm_apply(g.perm, k) == k]
    for c in (0, 1, cyc_make(4, 1), parse_scalar("1/2+1/2*zeta4")):
        for degree in range(7):
            expected = Cyclotomic.zero()
            for g in G.elements:
                for k in fixed[g, degree]:
                    expected = expected + act_c(c, g, mono(k)).terms[k]
            assert _slice_trace(G, c, degree) == expected, (c, degree)


def test_group_sum_grouping_is_kept_and_matches_uncached_grouping():
    from mystica.qpoly import _by_perm, _plan, group_sum_terms

    for G in (make_gmpn(4, 2, 3), make_w(4, 1, 2), make_gmpn(3, 1, 2)):
        group_sum = group_sum_terms(G)
        assert group_sum_terms(G) is group_sum
        terms = [(g, Cyclotomic.one()) for g in G.elements]
        fresh = _by_perm(terms, G.n, G.N)
        assert list(group_sum._plans) == list(fresh)
        for perm, members in fresh.items():
            assert group_sum._plans[perm] == _plan(members, G.N)
        for c in (0, 1, cyc_make(4, 1)):
            for degree in range(4):
                assert operator_matrix(group_sum, c, degree) == operator_matrix(terms, c, degree)


def test_class_sums_are_kept_and_add_up_to_the_group_sum():
    from mystica.qpoly import class_sum_terms, group_sum_terms

    for G in (make_gmpn(4, 2, 3), make_w(4, 1, 2), make_gmpn(3, 1, 2)):
        classes = class_sum_terms(G)
        assert class_sum_terms(G) is classes
        assert len(classes) == len(G.indexed().conjugacy_classes())
        # coefficient 1: each weight is |U| times a multiplicity
        weights = [weight for cls in classes for plan in cls._plans.values() for _, _, reps in plan for _, weight in reps]
        assert sum(weights) == G.order
        for c in (0, cyc_make(4, 1)):
            for degree in range(4):
                whole = operator_matrix(group_sum_terms(G), c, degree)
                total = operator_matrix(classes[0], c, degree)
                for cls in classes[1:]:
                    for (r, col), v in operator_matrix(cls, c, degree).entries.items():
                        total.add(r, col, v)
                assert total == whole, (c, degree)


def test_group_sum_entry_memo_and_period_match_element_by_element_sums():
    # a group sum keeps its entries per (c, permutation, key) across degrees
    # and calls, and sums the torus exponents of each coefficient over the
    # cosets of their period group: both against the sum of the operators of
    # its elements one at a time, at degrees out of order and alternating c
    # on the same object, so that a stale or c-crossed entry shows
    from mystica.qpoly import _GroupSum, class_sum_terms, group_sum_terms

    rng = random.Random(73)
    cs = (0, 1, cyc_make(4, 1))
    one = Cyclotomic.one()
    shared = Cyclotomic.rational(-3)
    periods = set()  # (|U|, |E|) of every coefficient's exponents in the subset sums
    for G in (make_gmpn(4, 1, 3), make_w(4, 1, 3), make_gmpn(3, 1, 2)):
        single = {}

        def reference(terms, ci, d):
            dim = len(slice_monomials(G.n, d))
            total = SparseMatrix(dim, dim)
            for g, coeff in terms:
                if (g, ci, d) not in single:
                    single[g, ci, d] = operator_matrix(g, cs[ci], d).entries
                for (r, col), v in single[g, ci, d].items():
                    total.add(r, col, coeff * v)
            return total.entries

        whole = [(g, one) for g in G.elements]
        classes = [[(G.elements[i], one) for i in sorted(cls)] for cls in G.indexed().conjugacy_classes()]
        # a random quarter of G has a trivial period somewhere; the union of
        # the t_1-cosets of a sample is periodic under t_1, and only partly
        # periodic under the torus
        quarter = [(g, shared) for g in rng.sample(G.elements, G.order // 4)]
        cosets = dict.fromkeys(torus_gen(G.n, G.N, 1, j) * h for h in rng.sample(G.elements, 12) for j in range(G.N))
        subsets = [_GroupSum(terms, G.n, G.N) for terms in (quarter, [(g, shared) for g in cosets])]
        sums = [(group_sum_terms(G), whole)] + list(zip(class_sum_terms(G), classes))
        sums += list(zip(subsets, (quarter, [(g, shared) for g in cosets])))
        for d in (5, 2, 5, 0):
            for ci, c in enumerate(cs):
                for group_sum, terms in sums:
                    _assert_same_entries(operator_matrix(group_sum, c, d).entries, reference(terms, ci, d))
                trace = sum((v for (r, col), v in reference(whole, ci, d).items() if r == col), Cyclotomic.zero())
                assert _slice_trace(G, c, d) == trace, (G, c, d)
        # a plan weighs each coset representative by |U| times its
        # multiplicity, 1 here, times the coefficient's numerator
        for perm, plan in group_sum_terms(G)._plans.items():
            ((_, _, reps),) = plan
            assert [size for _, size in reps] == [sum(g.perm == perm for g in G.elements)]
        for subset, terms in zip(subsets, (quarter, [(g, shared) for g in cosets])):
            for perm, plan in subset._plans.items():
                ((_, _, reps),) = plan
                (size,) = {weight // shared.nums[0] for _, weight in reps}
                count = sum(g.perm == perm for g, _ in terms)
                assert size * len(reps) == count
                periods.add((size, count))
                assert subset is subsets[0] or size % G.N == 0
    assert any(size == 1 < count for size, count in periods)
    assert any(1 < size < count for size, count in periods)


def _permutation_image(G):
    return tuple(perm for perm, rows in G.blocks() if rows)


def test_orbit_columns_meet_each_orbit_once():
    from mystica.groups import closure_generate
    from mystica.qpoly import _orbit_columns

    groups = (
        make_gmpn(3, 1, 3),  # S_3
        make_w(3, 1, 3),  # A_3: the odd blocks are empty
        make_gmpn(2, 2, 4),  # S_4
        closure_generate((4, 2), [torus_gen(2, 4, 1, 1)]),  # trivial image
        closure_generate((4, 3), [adjacent_swap(3, 4, 1)]),  # one transposition
    )
    for G in groups:
        perms = _permutation_image(G)
        for degree in range(6):
            basis = slice_monomials(G.n, degree)
            orbits = {frozenset(perm_apply(w, k) for w in perms) for k in basis}
            reps = _orbit_columns(perms, degree)
            assert list(reps) == sorted(reps)
            assert sorted(len(orbit & {basis[col] for col in reps}) for orbit in orbits) == [1] * len(orbits)
            assert len(reps) == len(orbits), (G, degree)


def test_operator_matrix_on_chosen_columns_is_the_restricted_full_matrix():
    from mystica.qpoly import _orbit_columns, class_sum_terms

    G = make_gmpn(4, 1, 3)
    half = Cyclotomic.rational(Fraction(1, 2))
    one_off = [(g, Fraction(num, 3)) for g, num in zip(G.elements[::7], itertools.cycle((1, -2, 5)))]
    actors = (class_sum_terms(G)[3], one_off, G.elements[5])
    for actor in actors:
        for c in (0, 1, cyc_make(4, 1), half):
            for degree in (0, 3, 5):
                dim = len(slice_monomials(G.n, degree))
                for columns in (_orbit_columns(_permutation_image(G), degree), (dim - 1,), range(0, dim, 2)):
                    # the part first, so that a kept sum fills its entries there
                    part = operator_matrix(actor, c, degree, columns)
                    full = operator_matrix(actor, c, degree)
                    kept = set(columns)
                    expected = {pos: v for pos, v in full.entries.items() if pos[1] in kept}
                    assert (part.nrows, part.ncols) == (full.nrows, full.ncols) == (dim, dim)
                    assert part.entries == expected, (c, degree)
