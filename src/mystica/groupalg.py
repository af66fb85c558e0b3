"""The group algebra of mu_N^n : S_n over cyclotomic scalars.

Carries the full group sums e_G, the torus-algebra elements Q_w^(c) built
from quarter-coefficient formulas, the coefficient-twisting automorphism J_c
sending w*t to w*t*Q_w^(c), and the evaluation functional that identifies a
torus-algebra element with the function k -> sum of coeff * zeta^(e.k).

The orientation of the two middle terms of Q_ij^(c) is pinned by the
normative identity psi(Q_ij^(c)) = phi_ij^(c) on all four parity classes;
the psi parity oracle in the test suite checks this before anything is
built on top.

Every product of the algebra, a * b and each product a_w Q_w^(c) of J_c,
runs through one kernel, _convolve.  A product with at most one term on a
side has distinct product elements and nothing to add up; its terms are
multiplied one by one.  Otherwise the kernel accumulates integers.  It writes
every coefficient at one accumulation order L over one denominator: L is the
lcm of the orders of the coefficients of order above 1, and a coefficient of
order 1 is written in as a constant that never lifts the other factor, as in
Cyclotomic.__mul__.  So a product whose coefficients share one order keeps
exactly the (order, nums, den) of the term-by-term sum, and one whose
coefficients all have order 1 runs on plain integers.  The numerators of each
coefficient are packed into one integer, digit j in a signed field at bit
j * width (Kronecker substitution), the width bounding every coefficient the
product can reach; a pair of terms then adds the product of two integers to
the unreduced convolution row of its product element, and each element's row
is unpacked and folded modulo the L-th cyclotomic polynomial once.

The evaluation psi_k, psi_eval, is one integer accumulation too: each
coefficient's numerators, scaled to one denominator, are added at the rows
of their roots at the lcm order of N and the coefficients, and the sum is
made once.  Its term-by-term reference is in tests/reference.py.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import mul

from .cyclo import Cyclotomic, _ctx, _make, _reduce, scalar_to_text
from .groups import FiniteMonomialGroup
from .monomial import MonomialElement, _trusted, inversions, perm_apply

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
    def one(n: int, N: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(n, N, {MonomialElement.identity(n, N): 1})

    @staticmethod
    def from_element(g: MonomialElement, coeff=1) -> "GroupAlgebraElement":
        return GroupAlgebraElement(g.n, g.N, {g: coeff})

    # -- linear structure -------------------------------------------------

    def items(self):
        return self.terms.items()

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

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Bilinear convolution through the group law."""
        self._check(other)
        return _convolve(self.n, self.N, self.terms.items(), other.terms.items())

    def _check(self, other: "GroupAlgebraElement") -> None:
        if (self.n, self.N) != (other.n, other.N):
            raise ValueError("mismatched ambient parameters")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return (self.n, self.N) == (other.n, other.N) and self.terms == other.terms

    def is_torus_supported(self) -> bool:
        return all(g.is_torus() for g in self.terms)

    def __repr__(self) -> str:
        parts = [
            f"({scalar_to_text(v)})*[{g.to_text()}]"
            for g, v in sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        ]
        return " + ".join(parts) if parts else "0"


def _trusted_element(n: int, N: int, terms: dict) -> GroupAlgebraElement:
    """The element with these terms, already nonzero Cyclotomic values on
    elements of the ambient, without the checks of the public constructor."""
    out = object.__new__(GroupAlgebraElement)
    out.n = n
    out.N = N
    out.terms = terms
    return out


def _numerators(coeff: Cyclotomic, order: int, scale: int) -> list[int]:
    """The numerators of coeff * scale / coeff.den at the accumulation order,
    the constant alone for an order-1 coeff."""
    if coeff.order == 1:
        return [coeff.nums[0] * (scale // coeff.den)]
    if coeff.order != order:
        coeff = coeff.lift(order)
    scale //= coeff.den
    return [x * scale for x in coeff.nums]


def _pack(digits: list[int], width: int) -> int:
    """sum_j digits[j] * 2^(j * width)."""
    packed = 0
    for x in reversed(digits):
        packed = (packed << width) + x
    return packed


def _convolve(n: int, N: int, left, right) -> GroupAlgebraElement:
    """The sum of the products of every left term with every right term
    through the group law, each side a sized, re-iterable collection of
    (element, nonzero Cyclotomic) pairs.

    (t w)(t' w') = (t + w(t')) (w w'), and the product element of a pair is
    keyed by one integer: the id of w w' above the exponents of t + w(t')
    written in radix 2N, so the sum needs no reduction mod N until the keys
    are decoded.  See the module docstring for the coefficient rows."""
    if min(len(left), len(right)) <= 1:  # distinct products, nothing to accumulate
        return _trusted_element(n, N, {g * h: a * b for g, a in left for h, b in right})
    order = den_left = den_right = 1
    for _, v in left:
        if order % v.order:
            order = lcm(order, v.order)
        if den_left % v.den:
            den_left = lcm(den_left, v.den)
    for _, v in right:
        if order % v.order:
            order = lcm(order, v.order)
        if den_right % v.den:
            den_right = lcm(den_right, v.den)
    left = [(g, _numerators(v, order, den_left)) for g, v in left]
    right = [(h, _numerators(v, order, den_right)) for h, v in right]
    # no coefficient of the product exceeds the bound in size
    bound = sum(sum(map(abs, x)) for _, x in left) * sum(sum(map(abs, y)) for _, y in right)
    width = bound.bit_length() + 1 if order != 1 else 0
    radix = 2 * N
    powers = [radix**i for i in range(n)]
    span = radix**n
    by_perm: dict = {}
    for g, x in left:
        by_perm.setdefault(g.perm, []).append((sum(map(mul, g.exps, powers)), _pack(x, width)))
    right = [(h, _pack(y, width)) for h, y in right]
    perm_ids: dict = {}
    acc: dict = {}
    get = acc.get
    for w, lefts in by_perm.items():
        pushed = [powers[i] for i in w]  # t'_i lands at position w(i)
        rights = [
            (perm_ids.setdefault(tuple(map(w.__getitem__, h.perm)), len(perm_ids)) * span
             + sum(map(mul, h.exps, pushed)), y)
            for h, y in right
        ]
        for code, x in lefts:
            for key, y in rights:
                key += code
                acc[key] = get(key, 0) + x * y
    merged: dict = {}  # keys whose exponent digits agree mod N name one element
    for key, packed in acc.items():
        key = (key // span, tuple([key // p % radix % N for p in powers]))
        merged[key] = merged.get(key, 0) + packed
    perms = list(perm_ids)
    den = den_left * den_right
    out = {}
    if order == 1:
        for (perm_id, exps), packed in merged.items():
            if packed:
                out[_trusted(n, N, perms[perm_id], exps)] = _make(1, (packed,), den)
        return _trusted_element(n, N, out)
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    shifts = range(0, width * (2 * _ctx(order)[0] - 1), width)
    bias = sum(half << s for s in shifts)  # makes every digit nonnegative
    for (perm_id, exps), packed in merged.items():
        packed += bias
        value = _reduce(order, [(packed >> s & mask) - half for s in shifts], den)
        if not value.is_zero():
            out[_trusted(n, N, perms[perm_id], exps)] = value
    return _trusted_element(n, N, out)


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
        out[_trusted(g.n, g.N, g.perm, perm_apply(perm, g.exps))] = v
    return _trusted_element(a.n, a.N, out)


def j_c(c, a: GroupAlgebraElement) -> GroupAlgebraElement:
    """The linear map sending w*t to w*t*Q_w^(c), extended over the support.

    In canonical t*w storage this is right multiplication of each support
    element by the torus-algebra element of its permutation part: J_c(a) is
    the sum over the permutations w of a_w Q_w^(c), a_w the terms of a with
    permutation w, and these products have disjoint supports.
    """
    n, N = a.n, a.N
    by_perm: dict = {}
    for g, v in a.terms.items():
        by_perm.setdefault(g.perm, []).append((g, v))
    out: dict = {}
    for w, terms in by_perm.items():
        out.update(_convolve(n, N, terms, q_w_element(c, w, n, N).terms.items()).terms)
    return _trusted_element(n, N, out)


def psi_eval(a: GroupAlgebraElement, k) -> Cyclotomic:
    """Evaluate a torus-supported element as a function of the exponent
    vector: sum of coeff * prod_j zeta^(e_j k_j).

    One integer accumulation at L = lcm(N, orders of the coefficients) over
    D = lcm of their denominators: numerator j of a coefficient of order o,
    scaled to D, is added at the row of zeta_L^(j L/o + <e, k> L/N), and the
    sum is made once.  The value is the canonical element of the
    term-by-term sum, whose reference is in tests/reference.py."""
    if not a.is_torus_supported():
        raise ValueError("psi is defined on torus-supported elements only")
    N = a.N
    order, den = N, 1
    for v in a.terms.values():
        if order % v.order:
            order = lcm(order, v.order)
        if den % v.den:
            den = lcm(den, v.den)
    deg, rows = _ctx(order)
    acc = [0] * deg
    step = order // N
    for g, v in a.terms.items():
        shift = sum(map(mul, g.exps, k)) * step
        stride = order // v.order
        scale = den // v.den
        for j, x in enumerate(v.nums):
            if x:
                x *= scale
                for t, r in enumerate(rows[(j * stride + shift) % order]):
                    if r:
                        acc[t] += x * r
    return _make(order, acc, den)
