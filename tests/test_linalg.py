"""Tests for the exact sparse elimination and the modular rank certificate."""

import random
from fractions import Fraction
from math import gcd

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mystica.cyclo import Cyclotomic, cyc_make, cyclotomic_polynomial
from mystica.linalg import (
    SparseMatrix,
    _certificate_prime,
    _insert_field_column,
    _prime_factors,
    modular_full_rank_certificate,
    sparse_rank,
)


def R(q):
    return Cyclotomic.rational(Fraction(q))


def test_sparse_rank_small_rational():
    rows = [
        {0: R(1), 1: R(2)},
        {0: R(2), 1: R(4)},  # dependent
        {2: R(5)},
    ]
    assert sparse_rank(rows) == 2


def test_sparse_rank_cyclotomic_dependence():
    i = cyc_make(4, 1)
    rows = [
        {0: Cyclotomic.one(4), 1: i},
        {0: i, 1: -Cyclotomic.one(4)},  # i times the first row
        {0: R(1)},
    ]
    assert sparse_rank(rows) == 2


def test_sparse_rank_identity_block():
    rows = [{j: R(1)} for j in range(7)]
    assert sparse_rank(rows) == 7
    assert sparse_rank(rows + [dict((j, R(3)) for j in range(7))]) == 7


def test_sparse_rank_same_support_bucket():
    # many rows on one support: rank is the character-matrix rank
    w = cyc_make(3, 1)
    rows = [
        {0: R(1), 1: R(1), 2: R(1)},
        {0: R(1), 1: w, 2: w * w},
        {0: R(1), 1: w * w, 2: w},
        {0: R(3), 1: R(0) + w + w * w + R(2), 2: R(2) + w + w * w},  # sum of the rows above
    ]
    assert sparse_rank(rows) == 3


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_sparse_rank_matches_sympy_on_random_rational_rows(data):
    ncols = data.draw(st.integers(1, 8))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=3))
    dense = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=8))
    keep_zeros = data.draw(st.booleans())  # zero entries stored in the rows are ignored
    rows = [{c: R(v) for c, v in enumerate(row) if v or keep_zeros} for row in dense]
    reference = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in dense])
    assert sparse_rank(rows) == reference.rank()


def test_sparse_rank_on_combinations_of_independent_cyclotomic_rows():
    # r rows in echelon form (a one at column i, nothing left of it) are
    # independent; rows that are combinations of them add nothing to the rank
    rng = random.Random(12)

    def scalar():
        return sum((R(rng.randint(-2, 2)) * cyc_make(12, rng.randrange(12)) for _ in range(2)), Cyclotomic.zero(12))

    for r in range(7):
        labels = rng.sample(range(100), 8)  # the echelon columns in a scrambled label order
        basis = [{labels[i]: Cyclotomic.one(12), **{labels[j]: scalar() for j in range(i + 1, 8)}} for i in range(r)]
        rows = list(basis)
        for _ in range(rng.randint(0, 4)):
            combo: dict = {}
            for b in basis:
                coefficient = scalar()
                for col, v in b.items():
                    combo[col] = combo.get(col, Cyclotomic.zero(12)) + coefficient * v
            rows.append(combo)
        rng.shuffle(rows)
        assert sparse_rank(rows) == r, r


def test_modular_certificate_full_rank():
    i = cyc_make(4, 1)
    rows = [
        {0: Cyclotomic.one(4), 1: i},
        {0: i, 1: Cyclotomic.one(4)},
    ]
    assert modular_full_rank_certificate(rows, 2)


def test_modular_certificate_rejects_dependence():
    i = cyc_make(4, 1)
    rows = [
        {0: Cyclotomic.one(4), 1: i},
        {0: i, 1: -Cyclotomic.one(4)},
    ]
    assert not modular_full_rank_certificate(rows, 2)


def test_modular_certificate_agrees_with_exact_on_random_family():
    rng = random.Random(77)
    for _ in range(30):
        n_rows = rng.randint(2, 6)
        n_cols = rng.randint(2, 6)
        rows = []
        for _ in range(n_rows):
            row = {}
            for c in range(n_cols):
                if rng.random() < 0.6:
                    row[c] = cyc_make(12, rng.randrange(12)) * R(rng.randint(-2, 2))
            rows.append({c: v for c, v in row.items() if not v.is_zero()})
        exact = sparse_rank([dict(r) for r in rows])
        certified = modular_full_rank_certificate(rows, n_rows)
        if certified:
            assert exact == n_rows  # a passing certificate is a proof
        if exact == n_rows:
            assert certified  # at this size the certificate also never misses


def test_sparse_matrix_equality_and_dense():
    a = SparseMatrix(2, 2)
    a.add(0, 0, R(1))
    a.add(0, 0, R(-1))
    b = SparseMatrix(2, 2)
    assert a == b
    a.add(1, 0, cyc_make(4, 1))
    assert a != b
    assert a.entries == {(1, 0): cyc_make(4, 1)}
    a.add(1, 0, cyc_make(4, 1))
    assert a == SparseMatrix(2, 2, {(1, 0): cyc_make(4, 1) * R(2)})
    assert SparseMatrix(2, 2) != SparseMatrix(2, 3)
    assert SparseMatrix(2, 2).entries is not SparseMatrix(2, 2).entries


def test_certificate_prime_is_prime_with_an_element_of_exact_order():
    from sympy import isprime

    for N in (1, 2, 4, 5, 12, 20, 24, 60, 97):
        q, z = _certificate_prime(N)
        assert isprime(q) and (q - 1) % N == 0 and q > 1_000_003, N
        assert pow(z, N, q) == 1, N
        assert all(pow(z, N // r, q) != 1 for r in _prime_factors(N)), N


# -- the integer kernel against the field elimination ------------------------------

_KERNEL_ORDERS = (1, 3, 4, 8, 12)


@st.composite
def _field_vectors(draw):
    """(L, size, vectors over Q(zeta_L)): entries written at orders dividing
    L with denominators 1, 2, 3 or 5, and vectors that are Q(zeta_L)-multiples
    of an earlier one or combinations of two earlier ones."""
    L = draw(st.sampled_from(_KERNEL_ORDERS))
    orders = [o for o in (1, 2, 3, 4, 6, 8, 12) if L % o == 0]
    size = draw(st.integers(1, 4))

    def scalar():
        order = draw(st.sampled_from(orders))
        value = Cyclotomic.zero(order)
        for a in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)):
            value = value + Cyclotomic.root(order, draw(st.integers(0, order - 1))) * a
        return value / draw(st.sampled_from((1, 2, 3, 5)))

    def clean(vector):
        return {i: v for i, v in vector.items() if not v.is_zero()}

    vectors = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("fresh", "multiple", "combination"))) if vectors else "fresh"
        if kind == "fresh":
            vectors.append(clean({i: scalar() for i in draw(st.sets(st.integers(0, size - 1), min_size=1))}))
        elif kind == "multiple":
            a = scalar()
            vectors.append(clean({i: v * a for i, v in draw(st.sampled_from(vectors)).items()}))
        else:
            u, w = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            a, b = scalar(), scalar()
            zero = Cyclotomic.zero(L)
            vectors.append(clean({i: u.get(i, zero) * a + w.get(i, zero) * b for i in set(u) | set(w)}))
    return L, size, vectors


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_field_vectors())
def test_integer_kernel_rank_matches_sparse_rank(case):
    L, size, vectors = case
    phi = len(cyclotomic_polynomial(L)) - 1
    pivots: dict = {}
    rank = sum(_insert_field_column(dict(v), size, L, pivots) for v in vectors)
    assert rank == sparse_rank([dict(v) for v in vectors])
    assert len(pivots) == phi * rank
    for lead, row in pivots.items():
        assert row[0] > 0 and gcd(*row) == 1, lead  # primitive, positive leading entry
