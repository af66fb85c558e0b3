"""The group algebra of mu_N^n : S_n over cyclotomic scalars.

Carries the full group sums e_G, the torus-algebra elements Q_w^(c) built
from quarter-coefficient formulas, the coefficient-twisting automorphism J_c
sending w*t to w*t*Q_w^(c), and the evaluation functional that identifies a
torus-algebra element with the function k -> sum of coeff * zeta^(e.k).

The orientation of the two middle terms of Q_ij^(c) is pinned by the
normative identity psi(Q_ij^(c)) = phi_ij^(c) on all four parity classes;
the psi parity oracle in the test suite checks this before anything is
built on top.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import Cyclotomic, _make, scalar_to_text
from .groups import FiniteMonomialGroup
from .monomial import MonomialElement, inversions, perm_apply

_QUARTER = _make(1, (1,), 4)


class GroupAlgebraElement:
    """Sparse finitely supported map from group elements to scalars."""

    __slots__ = ("n", "N", "terms")

    def __init__(self, n: int, N: int, terms=None):
        self.n = n
        self.N = N
        clean: dict[MonomialElement, Cyclotomic] = {}
        for g, v in (terms or {}).items():
            if (g.n, g.N) != (n, N):
                raise ValueError("support element outside the stated ambient")
            if not isinstance(v, Cyclotomic):
                v = Cyclotomic.rational(v)
            if not v.is_zero():
                clean[g] = v
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int, N: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(n, N)

    @staticmethod
    def one(n: int, N: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(n, N, {MonomialElement.identity(n, N): 1})

    @staticmethod
    def from_element(g: MonomialElement, coeff=1) -> "GroupAlgebraElement":
        return GroupAlgebraElement(g.n, g.N, {g: coeff})

    # -- linear structure -------------------------------------------------

    def items(self):
        return self.terms.items()

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for g, v in other.terms.items():
            cur = out.get(g)
            total = v if cur is None else cur + v
            if total.is_zero():
                out.pop(g, None)
            else:
                out[g] = total
        return GroupAlgebraElement(self.n, self.N, out)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.n, self.N, {g: -v for g, v in self.terms.items()})

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-other)

    def scale(self, coeff) -> "GroupAlgebraElement":
        if not isinstance(coeff, Cyclotomic):
            coeff = Cyclotomic.rational(coeff)
        return GroupAlgebraElement(self.n, self.N, {g: v * coeff for g, v in self.terms.items()})

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Bilinear convolution through the group law."""
        self._check(other)
        out: dict[MonomialElement, Cyclotomic] = {}
        for g, a in self.terms.items():
            for h, b in other.terms.items():
                key = g * h
                coeff = a * b
                cur = out.get(key)
                total = coeff if cur is None else cur + coeff
                if total.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = total
        return GroupAlgebraElement(self.n, self.N, out)

    def _check(self, other: "GroupAlgebraElement") -> None:
        if (self.n, self.N) != (other.n, other.N):
            raise ValueError("mismatched ambient parameters")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return (
            (self.n, self.N) == (other.n, other.N)
            and self.terms.keys() == other.terms.keys()
            and all(v == other.terms[g] for g, v in self.terms.items())
        )

    def is_zero(self) -> bool:
        return not self.terms

    def is_torus_supported(self) -> bool:
        return all(g.is_torus() for g in self.terms)

    def __repr__(self) -> str:
        parts = [
            f"({scalar_to_text(v)})*[{g.to_text()}]"
            for g, v in sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        ]
        return " + ".join(parts) if parts else "0"


def ga_mul(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    return a * b


def e_group(G: FiniteMonomialGroup) -> GroupAlgebraElement:
    """The sum of all group elements, with unit coefficients."""
    return GroupAlgebraElement(G.n, G.N, {g: 1 for g in G.elements})


def _tau(n: int, N: int, i: int) -> MonomialElement:
    exps = [0] * n
    exps[i] = N // 2
    return MonomialElement(n, N, tuple(range(n)), tuple(exps))


def _as_cyclotomic(c) -> Cyclotomic:
    return c if isinstance(c, Cyclotomic) else Cyclotomic.rational(c)


def _coerce_invertible(c, N: int) -> Cyclotomic:
    c = _as_cyclotomic(c)
    if c.is_zero():
        raise ValueError("c must be invertible")
    if N % c.order != 0:
        raise ValueError(f"ambient torus order {N} does not contain the order-{c.order} scalars")
    return c


# Q_ij^(c) and Q_w^(c) are memoised on c's canonical form (order included,
# since the coefficients are written at c's order), the indices and the
# ambient.  Callers share the returned elements and must not mutate their
# terms.


def q_ij_element(c, i: int, j: int, n: int, N: int) -> GroupAlgebraElement:
    """The quarter-coefficient torus-algebra element attached to the pair
    (i, j), zero-based indices.  Requires an even ambient torus order."""
    if N % 2 != 0:
        raise ValueError("ambient torus order must be even to host sign elements")
    c = _coerce_invertible(c, N)
    return _q_ij(c.order, c.nums, c.den, i, j, n, N)


@lru_cache(maxsize=1024)
def _q_ij(order: int, nums: tuple, den: int, i: int, j: int, n: int, N: int) -> GroupAlgebraElement:
    c = _make(order, nums, den)
    cinv = c.inverse()
    ti, tj = _tau(n, N, i), _tau(n, N, j)
    plus = (c + cinv) * _QUARTER
    return GroupAlgebraElement(
        n,
        N,
        {
            MonomialElement.identity(n, N): plus,
            ti * tj: -plus,
            ti: (cinv - c + 2) * _QUARTER,
            tj: (c - cinv + 2) * _QUARTER,
        },
    )


def q_w_element(c, perm: tuple[int, ...], n: int, N: int) -> GroupAlgebraElement:
    """Product of the pair elements over the inversions of the permutation."""
    c = _as_cyclotomic(c)
    return _q_w(c.order, c.nums, c.den, tuple(perm), n, N)


@lru_cache(maxsize=1024)
def _q_w(order: int, nums: tuple, den: int, perm: tuple[int, ...], n: int, N: int) -> GroupAlgebraElement:
    c = _make(order, nums, den)
    out = GroupAlgebraElement.one(n, N)
    for i, j in inversions(perm):
        out = out * q_ij_element(c, i, j, n, N)
    return out


def perm_act(perm: tuple[int, ...], a: GroupAlgebraElement) -> GroupAlgebraElement:
    """The symmetric group acting on torus-algebra elements by permuting the
    exponent vectors."""
    out: dict[MonomialElement, Cyclotomic] = {}
    for g, v in a.terms.items():
        if not g.is_torus():
            raise ValueError("permutation action is defined on torus support only")
        out[MonomialElement(g.n, g.N, g.perm, perm_apply(perm, g.exps))] = v
    return GroupAlgebraElement(a.n, a.N, out)


def j_c(c, a: GroupAlgebraElement) -> GroupAlgebraElement:
    """The linear map sending w*t to w*t*Q_w^(c), extended over the support.

    In canonical t*w storage this is right multiplication of each support
    element by the torus-algebra element of its permutation part.
    """
    out = GroupAlgebraElement.zero(a.n, a.N)
    for g, v in a.terms.items():
        out = out + (GroupAlgebraElement.from_element(g, v) * q_w_element(c, g.perm, a.n, a.N))
    return out


def psi_eval(a: GroupAlgebraElement, k) -> Cyclotomic:
    """Evaluate a torus-supported element as a function of the exponent
    vector: sum of coeff * prod_j zeta^(e_j k_j)."""
    if not a.is_torus_supported():
        raise ValueError("psi is defined on torus-supported elements only")
    out = Cyclotomic.zero(a.N)
    for g, v in a.terms.items():
        e = sum(ej * kj for ej, kj in zip(g.exps, k)) % a.N
        out = out + v * Cyclotomic.root(a.N, e)
    return out
