"""Tests for monomial group elements and their group law."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mystica.cyclo import Cyclotomic
from mystica.monomial import (
    MonomialElement,
    adjacent_swap,
    central_scalar,
    perm_apply,
    torus_gen,
)


def all_elements(n, N):
    for perm in itertools.permutations(range(n)):
        for exps in itertools.product(range(N), repeat=n):
            yield MonomialElement(n, N, perm, exps)


def test_semidirect_relation_swap_then_scale():
    # s_1 * t_1^(z) has canonical form t_2^(z) * s_1
    s1 = adjacent_swap(2, 4, 1)
    t1 = torus_gen(2, 4, 1, 1)
    prod = s1 * t1
    assert prod.perm == (1, 0)
    assert prod.exps == (0, 1)


def test_identity_is_neutral():
    e = MonomialElement.identity(3, 2)
    a = adjacent_swap(3, 2, 1) * torus_gen(3, 2, 3, 1)
    assert e * a == a
    assert a * e == a


def test_square_of_twisted_swap():
    # (s_1 t_1^(-1))^2 = t_1^(-1) t_2^(-1) at N=2, n=2
    sigma = adjacent_swap(2, 2, 1) * torus_gen(2, 2, 1, 1)
    sq = sigma * sigma
    assert sq == MonomialElement(2, 2, (0, 1), (1, 1))
    assert sigma.element_order() == 4


def test_inverse_examples():
    e = MonomialElement.identity(2, 4)
    assert e.inverse() == e
    t = torus_gen(2, 4, 1, 1)
    assert t.inverse() == torus_gen(2, 4, 1, 3)
    sigma = adjacent_swap(2, 2, 1) * torus_gen(2, 2, 1, 1)
    expected = adjacent_swap(2, 2, 1) * torus_gen(2, 2, 2, 1)
    assert sigma.inverse() == expected
    assert sigma * sigma.inverse() == MonomialElement.identity(2, 2)


def test_det_examples():
    assert adjacent_swap(3, 2, 1).det() == -1
    assert MonomialElement.identity(3, 2).det() == 1
    a = torus_gen(2, 6, 1, 1) * torus_gen(2, 6, 2, 2)
    assert a.det() == -1
    assert (torus_gen(2, 4, 1, 1) * adjacent_swap(2, 4, 1)).det() == -Cyclotomic.root(4, 1)


def test_act_on_basis_examples():
    s1 = adjacent_swap(2, 4, 1)
    scalar, target = s1.act_on_basis(1)
    assert (scalar, target) == (1, 2)
    e = MonomialElement.identity(3, 4)
    for k in range(1, 4):
        scalar, target = e.act_on_basis(k)
        assert scalar == 1 and target == k
    a = torus_gen(2, 4, 2, 1) * s1
    scalar, target = a.act_on_basis(1)
    assert scalar == Cyclotomic.root(4, 1)
    assert target == 2
    with pytest.raises(IndexError):
        s1.act_on_basis(3)


def test_central_scalar():
    assert central_scalar(2, 2, 0) == MonomialElement.identity(2, 2)
    z = central_scalar(2, 2, 1)
    assert z == MonomialElement(2, 2, (0, 1), (1, 1))
    assert z * z == MonomialElement.identity(2, 2)
    for a in all_elements(2, 2):
        assert a * z == z * a


@pytest.mark.parametrize("n,N", [(2, 2), (3, 2), (2, 4)])
def test_group_axioms_on_full_element_set(n, N):
    elems = list(all_elements(n, N))
    e = MonomialElement.identity(n, N)
    inverses = {}
    for a in elems:
        inv = a.inverse()
        assert a * inv == e and inv * a == e
        inverses[a] = inv
    for a in elems:
        for b in elems:
            ab = a * b
            for c in elems:
                assert (ab) * c == a * (b * c)


def test_det_is_multiplicative_randomized():
    rng = random.Random(99)
    for n, N in [(2, 2), (3, 2), (2, 4)]:
        elems = list(all_elements(n, N))
        for _ in range(10_000):
            a = rng.choice(elems)
            b = rng.choice(elems)
            assert (a * b).det() == a.det() * b.det()


def long_cycles(n):
    for perm in itertools.permutations(range(n)):
        seen = 1
        cur = perm[0]
        while cur != 0:
            cur = perm[cur]
            seen += 1
        if seen == n:
            yield perm


@pytest.mark.parametrize("n,N", [(2, 2), (3, 2), (4, 2), (3, 4)])
def test_long_cycle_power_law(n, N):
    # (t c)^n equals the scalar matrix with entry det(t), for every torus t
    # and every n-cycle c
    for cperm in long_cycles(n):
        c = MonomialElement(n, N, cperm, (0,) * n)
        for exps in itertools.product(range(N), repeat=n):
            t = MonomialElement(n, N, tuple(range(n)), exps)
            expected = central_scalar(n, N, sum(exps))
            assert (t * c) ** n == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_action_on_basis_respects_composition(data):
    n, N = data.draw(st.sampled_from([(2, 2), (3, 2), (2, 4), (3, 4)]))
    perm_a = tuple(data.draw(st.permutations(range(n))))
    perm_b = tuple(data.draw(st.permutations(range(n))))
    exps_a = tuple(data.draw(st.integers(0, N - 1)) for _ in range(n))
    exps_b = tuple(data.draw(st.integers(0, N - 1)) for _ in range(n))
    a = MonomialElement(n, N, perm_a, exps_a)
    b = MonomialElement(n, N, perm_b, exps_b)
    ab = a * b
    for i in range(1, n + 1):
        s1, j1 = b.act_on_basis(i)
        s2, j2 = a.act_on_basis(j1)
        s, j = ab.act_on_basis(i)
        assert j == j2
        assert s == s1 * s2


def test_json_round_trip_and_schema():
    a = torus_gen(2, 4, 1, 1) * adjacent_swap(2, 4, 1)
    data = a.to_json()
    assert data == {"n": 2, "N": 4, "perm": [2, 1], "exp": [1, 0]}
    assert MonomialElement(data["n"], data["N"], tuple(p - 1 for p in data["perm"]), tuple(data["exp"])) == a


def test_text_form():
    a = torus_gen(2, 4, 1, 1) * adjacent_swap(2, 4, 1)
    assert a.to_text() == "t1^1 t2^0 * (1 2)"
    assert MonomialElement.identity(2, 4).to_text() == "t1^0 t2^0 * ()"


def test_perm_apply_convention():
    # w(k) = (k_{w^-1(1)}, ..., k_{w^-1(n)})
    w = (1, 2, 0)  # sends position 0 to 1, 1 to 2, 2 to 0
    assert perm_apply(w, (5, 6, 7)) == (7, 5, 6)


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError):
        MonomialElement.identity(2, 2) * MonomialElement.identity(2, 4)
    with pytest.raises(ValueError):
        MonomialElement.identity(2, 2) * MonomialElement.identity(3, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_power_is_the_repeated_product(data):
    # g**k by repeated squaring from the base against k factors of g (of its
    # inverse for k < 0); g**0 is the identity, a new object
    n = data.draw(st.integers(1, 4))
    N = data.draw(st.sampled_from((1, 2, 3, 4, 12)))
    g = MonomialElement(
        n, N, tuple(data.draw(st.permutations(range(n)))), tuple(data.draw(st.integers(0, N - 1)) for _ in range(n))
    )
    for k in range(-4, 7):
        want = MonomialElement.identity(n, N)
        for _ in range(abs(k)):
            want = want * (g if k > 0 else g.inverse())
        got = g**k
        assert (got.perm, got.exps) == (want.perm, want.exps), k
        assert got == want and hash(got) == hash(want), k
    assert g**0 is not g**0


def _order_by_repeated_products(a):
    """The reference element order: multiply until the identity comes back."""
    out, order, ident = a, 1, MonomialElement.identity(a.n, a.N)
    while out != ident:
        out = out * a
        order += 1
    return order


def test_closed_form_order_matches_repeated_products():
    from mystica.groups import make_gmpn, make_w

    for G in (make_gmpn(4, 1, 3), make_w(4, 2, 3), make_gmpn(3, 1, 3)):
        for a in G.elements:
            assert a.element_order() == _order_by_repeated_products(a), a


def test_public_constructor_rejects_bad_input():
    for perm in [(0, 0, 1), (0, 1, 3), (1, 2)]:
        with pytest.raises(ValueError):
            MonomialElement(3, 4, perm, (0, 0, 0))
    with pytest.raises(ValueError):
        MonomialElement(3, 4, (0, 1, 2), (0, 0))
    # exponents are reduced mod N, so the result equals a product's
    a = MonomialElement(2, 4, (1, 0), (5, -1))
    assert a.exps == (1, 3)
    assert a == adjacent_swap(2, 4, 1) * torus_gen(2, 4, 1, 3) * torus_gen(2, 4, 2, 1)
