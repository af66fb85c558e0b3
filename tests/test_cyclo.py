"""Tests for exact cyclotomic arithmetic."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mystica.cyclo import (
    Cyclotomic,
    _euclid_inverse,
    _make,
    cyc_make,
    cyclotomic_polynomial,
    in_gaussian_half_ring,
    parse_scalar,
    scalar_to_text,
)

ORDERS = [1, 2, 3, 4, 6, 8, 12]


def _from_coords(order, coords):
    """The element with the given rational coordinates in the reduced power basis."""
    fracs = [Fraction(c) for c in coords]
    den = lcm(*(f.denominator for f in fracs))
    return _make(order, [f.numerator * (den // f.denominator) for f in fracs], den)


def _coords(a):
    """The rational coordinates of an element in the reduced power basis."""
    return tuple(Fraction(x, a.den) for x in a.nums)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_make_identity_and_minus_one():
    assert cyc_make(4, 0) == 1
    assert cyc_make(4, 2) == -1


def test_make_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        cyc_make(0, 1)


def test_cube_root_by_repeated_multiplication():
    # independent oracle: multiply out the powers one at a time
    w = cyc_make(3, 1)
    assert w * w == cyc_make(3, 2)
    assert w * w * w == 1
    # minimal polynomial x^2 + x + 1 vanishes
    assert w * w + w + 1 == Cyclotomic.zero(3)


def test_nth_power_of_primitive_root_is_one():
    for n in ORDERS:
        z = cyc_make(n, 1)
        acc = Cyclotomic.one(n)
        for _ in range(n):
            acc = acc * z
        assert acc == 1


def test_inverse_pair_of_fourth_roots():
    assert cyc_make(4, 1) * cyc_make(4, 3) == 1


def test_half_plus_half_i_times_conjugate():
    a = parse_scalar("1/2 + 1/2*zeta4^1")
    b = parse_scalar("1/2 + -1/2*zeta4^1")
    # expanding in Q(i): (1+i)(1-i)/4 = 1/2
    assert a * b == Fraction(1, 2)


def test_order_lift_normalisation():
    # zeta_8 * zeta_8 equals zeta_4 once both live at order 8
    prod = cyc_make(8, 1) * cyc_make(8, 1)
    assert prod == cyc_make(4, 1)
    assert prod.order == 8
    assert _coords(cyc_make(4, 1).lift(8)) == _coords(prod)


def test_division_and_division_by_zero():
    a = cyc_make(12, 7) + 3
    b = cyc_make(12, 5) - Fraction(1, 2)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / Cyclotomic.zero(12)


def _random_element(rng, order):
    deg = len(cyclotomic_polynomial(order)) - 1
    return _from_coords(order, (Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(deg)))


def test_field_axioms_random_triples():
    rng = random.Random(20140404)
    for order in ORDERS:
        for _ in range(60):
            a = _random_element(rng, order)
            b = _random_element(rng, order)
            c = _random_element(rng, order)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)
            if not a.is_zero():
                assert a * a.inverse() == 1


def test_canonical_difference_is_all_zero():
    rng = random.Random(7)
    for order in ORDERS:
        for _ in range(20):
            a = _random_element(rng, order)
            assert all(c == 0 for c in _coords(a - a))


def test_order_lift_coherence_of_products():
    rng = random.Random(11)
    for order in [2, 3, 4, 6]:
        for _ in range(25):
            a = _random_element(rng, order)
            b = _random_element(rng, order)
            low = a * b
            high = a.lift(2 * order) * b.lift(2 * order)
            assert low == high


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([1, 2, 4]),
)
def test_gaussian_half_ring_closed_under_ring_ops(a, b, c, d, da, db):
    i = cyc_make(4, 1)
    x = Cyclotomic.rational(Fraction(a, da)) + Cyclotomic.rational(Fraction(b, da)) * i
    y = Cyclotomic.rational(Fraction(c, db)) + Cyclotomic.rational(Fraction(d, db)) * i
    assert in_gaussian_half_ring(x)
    assert in_gaussian_half_ring(y)
    assert in_gaussian_half_ring(x + y)
    assert in_gaussian_half_ring(x - y)
    assert in_gaussian_half_ring(x * y)


def test_gaussian_half_ring_examples():
    assert in_gaussian_half_ring(parse_scalar("1/2 + 1/2*zeta4^1"))
    assert not in_gaussian_half_ring(Cyclotomic.rational(Fraction(1, 3)))
    assert not in_gaussian_half_ring(cyc_make(3, 1))
    # an element of Q(i) with a non-dyadic denominator
    assert not in_gaussian_half_ring(parse_scalar("1/6*zeta4^1"))
    # i itself embedded at a larger order
    assert in_gaussian_half_ring(cyc_make(12, 3))


def test_scalar_text_round_trip():
    rng = random.Random(23)
    for order in ORDERS:
        for _ in range(15):
            a = _random_element(rng, order)
            assert parse_scalar(scalar_to_text(a)) == a


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_scalar("zeta4^")
    with pytest.raises(ValueError):
        parse_scalar("(1 + zeta4^1")
    with pytest.raises(ValueError):
        parse_scalar("1 $ 2")


# -- differential test against sympy ------------------------------------
#
# The reference keeps an element of Q(zeta_N) as a sympy polynomial with
# rational coefficients, reduced modulo cyclotomic_poly(N).

REFERENCE_ORDERS = [1, 2, 3, 4, 5, 6, 8, 12, 20, 24]
_X = sympy.Symbol("x")


def _reference(a: Cyclotomic) -> sympy.Poly:
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in _coords(a)]
    return sympy.Poly(list(reversed(coeffs)), _X, domain="QQ")


def _reduced(poly: sympy.Poly, order: int) -> sympy.Poly:
    return poly.rem(sympy.Poly(sympy.cyclotomic_poly(order, _X), _X, domain="QQ"))


def _reference_lift(poly: sympy.Poly, order: int, target: int) -> sympy.Poly:
    step = target // order
    return _reduced(poly.compose(sympy.Poly(_X**step, _X, domain="QQ")), target)


def _reference_text(poly: sympy.Poly, order: int) -> str:
    """The text form: nonzero coordinates as 'c', 'zetaN^j' or 'c*zetaN^j'."""
    parts = []
    for (j,), c in sorted(poly.terms()):
        c = Fraction(int(c.p), int(c.q))
        if j == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"zeta{order}^{j}")
        else:
            parts.append(f"{c}*zeta{order}^{j}")
    return " + ".join(parts) if parts else "0"


def _assert_canonical(a: Cyclotomic) -> None:
    assert len(a.nums) == len(cyclotomic_polynomial(a.order)) - 1
    assert all(type(x) is int for x in a.nums)
    assert type(a.den) is int and a.den >= 1
    assert gcd(a.den, *a.nums) == 1
    if not any(a.nums):
        assert a.den == 1


def _elements(order: int):
    deg = len(cyclotomic_polynomial(order)) - 1
    coord = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return st.lists(coord, min_size=deg, max_size=deg).map(lambda cs: _from_coords(order, cs))


@st.composite
def _pairs(draw):
    order = draw(st.sampled_from(REFERENCE_ORDERS))
    other = draw(st.sampled_from(REFERENCE_ORDERS))
    return order, draw(_elements(order)), draw(_elements(order)), other, draw(_elements(other))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairs())
def test_arithmetic_matches_sympy_reference(case):
    order, a, b, other, c = case
    ra, rb, rc = _reference(a), _reference(b), _reference(c)
    for value, expected in (
        (a + b, ra + rb),
        (a - b, ra - rb),
        (a * b, _reduced(ra * rb, order)),
        (-a, -ra),
        (a - a, ra - ra),
    ):
        _assert_canonical(value)
        assert value.order == order
        assert _reference(value) == expected
    if not a.is_zero():
        inverse = a.inverse()
        _assert_canonical(inverse)
        assert _reference(inverse) == ra.invert(sympy.Poly(sympy.cyclotomic_poly(order, _X), _X, domain="QQ"))
    # lifting into a multiple order, and equality across orders
    top = lcm(order, other)
    lifted = a.lift(top)
    _assert_canonical(lifted)
    assert _reference(lifted) == _reference_lift(ra, order, top)
    assert lifted == a and a == lifted
    same = _reference_lift(ra, order, top) == _reference_lift(rc, other, top)
    assert (a == c) is same and (c == a) is same
    # the text form and its round trip
    assert scalar_to_text(a) == _reference_text(ra, order)
    assert parse_scalar(scalar_to_text(a)) == a


def test_zero_is_stored_as_zero_over_one():
    for order in REFERENCE_ORDERS:
        a = cyc_make(order, 1) * Fraction(3, 4)
        for zero in (Cyclotomic.zero(order), a - a, a * 0, Cyclotomic.rational(Fraction(0, 5), order)):
            assert zero.nums == (0,) * len(zero.nums) and zero.den == 1
            assert zero == 0 and scalar_to_text(zero) == "0"
    assert _make(4, (2, -4), 6).nums == (1, -2)
    assert _make(4, (2, -4), 6).den == 3


def test_root_of_unity_inverse_negates_the_exponent():
    for order in REFERENCE_ORDERS:
        for e in range(-order, 2 * order):
            x = Cyclotomic.root(order, e)
            inverse = x.inverse()
            assert x * inverse == 1
            general = _euclid_inverse(x)
            assert (inverse.order, inverse.nums, inverse.den) == (general.order, general.nums, general.den)
            assert inverse is Cyclotomic.root(order, -e)
            assert x ** -3 == general * general * general


def test_general_inverse_of_non_roots():
    rng = random.Random(41)
    for order in REFERENCE_ORDERS:
        for _ in range(10):
            a = _random_element(rng, order)
            if a.is_zero():
                continue
            inverse = a.inverse()
            assert a * inverse == 1
            assert inverse * a == 1
            _assert_canonical(inverse)


# -- differential test against a Fraction oracle -----------------------
#
# The package holds rationals only as integer numerators over one
# denominator.  These oracles redo the text form and the Z[i, 1/2] test on
# Fraction coordinates, a reference independent of that integer code.


def _oracle_text(a: Cyclotomic) -> str:
    parts = []
    for j, c in enumerate(_coords(a)):
        if c == 0:
            continue
        if j == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"zeta{a.order}^{j}")
        else:
            parts.append(f"{c}*zeta{a.order}^{j}")
    return " + ".join(parts) if parts else "0"


def _oracle_gaussian_half_ring(a: Cyclotomic) -> bool:
    m = lcm(a.order, 4)
    coords = _coords(a.lift(m))
    ivec = Cyclotomic.root(m, m // 4).nums
    pos = next(j for j in range(1, len(ivec)) if ivec[j] != 0)
    v = coords[pos] / ivec[pos]
    u = coords[0] - v * ivec[0]
    if any(c != v * ivec[j] + (u if j == 0 else 0) for j, c in enumerate(coords)):
        return False
    return all(q.denominator & (q.denominator - 1) == 0 for q in (u, v))


def test_integer_text_literals_and_gaussian_test_match_fraction_oracle():
    rng = random.Random(1312)
    seen = {True: 0, False: 0}
    for order in (1, 2, 3, 4, 6, 8, 12, 24):
        deg = len(cyclotomic_polynomial(order)) - 1
        for _ in range(40):
            den = rng.randint(1, 16)
            a = _from_coords(order, [Fraction(rng.randint(-9, 9), den) for _ in range(deg)])
            # every other element in Q(i) at its order, so both verdicts occur
            if order % 4 == 0 and rng.random() < 0.5:
                i = Cyclotomic.root(order, order // 4)
                a = Cyclotomic.rational(Fraction(rng.randint(-9, 9), den), order) + Fraction(rng.randint(-9, 9), den) * i
            text = scalar_to_text(a)
            assert text == _oracle_text(a)
            assert parse_scalar(text) == a
            verdict = in_gaussian_half_ring(a)
            assert verdict is _oracle_gaussian_half_ring(a), text
            seen[verdict] += 1
    assert seen[True] and seen[False]
    for literal, value in (("-3/6", Fraction(-1, 2)), ("0/5", Fraction(0)), ("7", Fraction(7)), ("12/8", Fraction(3, 2))):
        parsed = parse_scalar(literal)
        assert parsed == value and (parsed.nums, parsed.den) == ((value.numerator,), value.denominator)
        assert scalar_to_text(parsed) == str(value)
    parsed = parse_scalar("2/4*zeta8^3")
    assert (parsed.order, parsed.nums, parsed.den) == (8, (0, 0, 0, 1), 2)
    assert scalar_to_text(parsed) == _oracle_text(parsed) == "1/2*zeta8^3"
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar("1/0")


def test_rational_operands_are_ints_or_fractions_only():
    a = cyc_make(12, 5)
    assert a * Fraction(2, 4) == a * Cyclotomic.rational(Fraction(1, 2))
    assert Cyclotomic.rational(Fraction(-6, 4)) == Fraction(-3, 2)
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            Cyclotomic.rational(bad)
        with pytest.raises(TypeError):
            a * bad
        assert (a == bad) is False
