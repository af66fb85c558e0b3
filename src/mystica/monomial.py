"""Elements of the finite monomial group mu_N^n : S_n and their group law.

An element is stored in the canonical form t*w, a torus factor written on
the left of a permutation.  The torus factor is a vector of exponents of
zeta_N, the permutation a tuple of zero-based images.  Conversion from the
other normal form w*t uses w*t = (w(t))*w.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .cyclo import Cyclotomic


class MonomialElement:
    """One element t*w of mu_N^n : S_n."""

    __slots__ = ("n", "N", "perm", "exps", "_hash")

    def __init__(self, n: int, N: int, perm: tuple[int, ...], exps: tuple[int, ...]):
        if len(perm) != n or len(exps) != n:
            raise ValueError("perm and exps must have length n")
        if sorted(perm) != list(range(n)):
            raise ValueError(f"perm {perm} is not a bijection of 0..{n - 1}")
        self.n = n
        self.N = N
        self.perm = tuple(perm)
        self.exps = tuple(e % N for e in exps)
        self._hash = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(n: int, N: int) -> "MonomialElement":
        return MonomialElement(n, N, tuple(range(n)), (0,) * n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialElement)
            and self.n == other.n
            and self.N == other.N
            and self.perm == other.perm
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        """hash((n, N, perm, exps)), computed on first use and kept: most
        elements are built, multiplied and read without ever being hashed."""
        if self._hash is None:
            self._hash = hash((self.n, self.N, self.perm, self.exps))
        return self._hash

    def sort_key(self):
        return (self.perm, self.exps)

    # -- group law --------------------------------------------------------

    def __mul__(self, other: "MonomialElement") -> "MonomialElement":
        """(t w)(t' w') = (t + w(t')) (w w') with w(t')_{w(i)} = t'_i."""
        if (self.n, self.N) != (other.n, other.N):
            raise ValueError("mismatched ambient parameters")
        n, N = self.n, self.N
        w, e = self.perm, self.exps
        e2 = other.exps
        new_exps = list(e)
        for i in range(n):
            new_exps[w[i]] = (new_exps[w[i]] + e2[i]) % N
        return _trusted(n, N, tuple([w[j] for j in other.perm]), tuple(new_exps))

    def inverse(self) -> "MonomialElement":
        n, N = self.n, self.N
        w, e = self.perm, self.exps
        winv = [0] * n
        for i in range(n):
            winv[w[i]] = i
        return _trusted(n, N, tuple(winv), tuple([(-e[w[i]]) % N for i in range(n)]))

    def __pow__(self, k: int) -> "MonomialElement":
        """Repeated squaring, starting from the base itself for k != 0, so no
        identity is built or multiplied in."""
        if k == 0:
            return _trusted(self.n, self.N, tuple(range(self.n)), (0,) * self.n)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        while not k & 1:
            base = base * base
            k >>= 1
        out = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                out = out * base
            k >>= 1
        return out

    def element_order(self) -> int:
        """The order of t*w, by cycles_order."""
        return cycles_order(perm_cycles(self.perm), self.exps, self.N)

    # -- characters and actions -------------------------------------------

    def det(self) -> Cyclotomic:
        """det(t*w) = sign(w) * zeta_N^(sum of the exponents of t)."""
        value = Cyclotomic.root(self.N, sum(self.exps))
        return value if perm_sign(self.perm) == 1 else -value

    def act_on_basis(self, i: int) -> tuple[Cyclotomic, int]:
        """Image of the basis vector x_i (one-based): (scalar, index of target)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"basis index {i} out of range 1..{self.n}")
        j = self.perm[i - 1]
        return Cyclotomic.root(self.N, self.exps[j]), j + 1

    def is_torus(self) -> bool:
        return all(self.perm[i] == i for i in range(self.n))

    # -- ambient changes -----------------------------------------------

    def lift(self, N: int) -> "MonomialElement":
        if N == self.N:
            return self
        if N % self.N != 0:
            raise ValueError(f"cannot lift torus order {self.N} into {N}")
        step = N // self.N
        return _trusted(self.n, N, self.perm, tuple([e * step for e in self.exps]))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "perm": [p + 1 for p in self.perm],
            "exp": list(self.exps),
        }

    def to_text(self) -> str:
        torus = " ".join(f"t{i + 1}^{e}" for i, e in enumerate(self.exps))
        return f"{torus} * {cycle_text(self.perm)}"

    def __repr__(self) -> str:
        return f"MonomialElement({self.to_text()!r}, N={self.N})"


def _trusted(n: int, N: int, perm: tuple[int, ...], exps: tuple[int, ...]) -> MonomialElement:
    """The element t*w from a bijective perm and exponents already in 0..N-1,
    without the checks of the public constructor: products, inverses, lifts
    and the group constructors build their elements through it."""
    elem = object.__new__(MonomialElement)
    elem.n = n
    elem.N = N
    elem.perm = perm
    elem.exps = exps
    elem._hash = None  # hashed on first use, as after __init__
    return elem


def perm_cycles(perm: tuple[int, ...]) -> list[list[int]]:
    """The cycles of the permutation, fixed points included, each walked as
    i, perm[i], perm[perm[i]], ... from its smallest point i, in order of
    that point."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cycle, i = [], start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = perm[i]
        if cycle:
            cycles.append(cycle)
    return cycles


def cycles_order(cycles: list[list[int]], exps: tuple[int, ...], N: int) -> int:
    """The order of t*w for t = zeta_N^exps and w with these cycles: lcm over
    the cycles C of |C| * N / gcd(N, sum of e_i over C), since the |C|-th
    power of t*w acts on the coordinates of C as the scalar
    zeta_N^(sum of e_i over C)."""
    return lcm(*[len(cycle) * (N // gcd(N, sum([exps[i] for i in cycle]))) for cycle in cycles])


def cycle_text(perm: tuple[int, ...]) -> str:
    """One-based cycle notation, '()' for the identity."""
    cycles = ("(" + " ".join(str(i + 1) for i in cycle) + ")" for cycle in perm_cycles(perm) if len(cycle) > 1)
    return "".join(cycles) or "()"


def adjacent_swap(n: int, N: int, i: int) -> MonomialElement:
    """The permutation matrix swapping basis vectors i and i+1 (one-based)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"adjacent swap index {i} out of range 1..{n - 1}")
    perm = list(range(n))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return MonomialElement(n, N, tuple(perm), (0,) * n)

def torus_gen(n: int, N: int, j: int, exponent: int) -> MonomialElement:
    """The diagonal matrix scaling x_j (one-based) by zeta_N^exponent."""
    if not 1 <= j <= n:
        raise ValueError(f"torus index {j} out of range 1..{n}")
    exps = [0] * n
    exps[j - 1] = exponent % N
    return MonomialElement(n, N, tuple(range(n)), tuple(exps))


def central_scalar(n: int, N: int, exponent: int) -> MonomialElement:
    """The scalar matrix with every diagonal entry zeta_N^exponent."""
    return MonomialElement(n, N, tuple(range(n)), (exponent % N,) * n)


def perm_apply(perm: tuple[int, ...], vec: tuple[int, ...]) -> tuple[int, ...]:
    """Pushforward w(k), i.e. w(k)_{w(i)} = k_i."""
    out = [0] * len(vec)
    for i, p in enumerate(perm):
        out[p] = vec[i]
    return tuple(out)


@lru_cache(maxsize=None)
def inversions(perm: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The pairs i < j with perm[i] > perm[j], in lexicographic order."""
    n = len(perm)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def perm_sign(perm: tuple[int, ...]) -> int:
    return -1 if len(inversions(perm)) % 2 else 1
