"""Finite subgroups of mu_N^n : S_n.

Groups are stored extensionally, as the sorted tuple of all their elements.
A family group (G(m,p,n), W(m,d,n), T(m,p,j,n)) holds one block of torus
rows per permutation instead, takes its order from the block sizes and builds
the element tuple on first read.  Equality and hashing read the non-empty
blocks, so comparing two family groups builds no element; the element set
behind membership tests is built from the tuple on first use and kept, so a
caller that reads only the elements and the order never hashes them.  The
torus order of the ambient field is always lcm(m, 4) so that fourth roots of
unity coexist with the m-th roots used by the group itself.

The counterpart mu(G) of G(m,p,n) is built as the det filter W(m, m/p, n);
criterion 2 of verify checks it against the paper's product form
{w t_1^(det w) t}.

The thick subgroups of G(m,1,n) are built in closed form by a det-and-parity
filter.  The conjugacy-class machinery at the bottom of the module enumerates
normal subgroups as join-closed unions of conjugacy classes: on the quotient
G(m,1,n)/{det t = 1} = mu_m x S_n, lifted back, for the independent side of
criterion 6, and on the group itself for the normal abelian subgroup scans
of classify.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import NamedTuple

from .monomial import MonomialElement, _trusted, cycles_order, perm_cycles, perm_sign

DEFAULT_CAP = 50_000


def group_size_cap() -> int:
    """Size cap for group construction, overridable via MYSTICA_CAP."""
    value = os.environ.get("MYSTICA_CAP")
    if not value:
        return DEFAULT_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MYSTICA_CAP must be a positive integer, got {value!r}")
    return cap


class CapExceededError(RuntimeError):
    pass


class GroupTag(NamedTuple):
    """Provenance of a constructed group, used for labels and JSON."""

    kind: str  # "G", "W", "generated", "explicit"
    params: tuple = ()

    @property
    def label(self) -> str:
        if self.kind == "G":
            m, p, n = self.params
            return f"G({m},{p},{n})"
        if self.kind == "W":
            m, d, n = self.params
            return f"W({m},{d},{n})"
        return self.kind


class FiniteMonomialGroup:
    """A finite set of monomial elements closed under the group law.

    An explicit, generated or index-subgroup group holds its sorted element
    tuple from the start.  A family group holds blocks, one (permutation,
    torus rows) pair per permutation in sort order, and a short generating
    set; `elements` builds the tuple from the blocks on first read, and
    `order`, `len`, `tag`, `to_json()`, `lift`, `sign_twist`, `==` and
    `hash` never need it.
    """

    def __init__(self, n: int, N: int, elements, tag: GroupTag | None = None):
        eset = frozenset(elements)
        for a in eset:
            if (a.n, a.N) != (n, N):
                raise ValueError("element outside the stated ambient")
        self._fill(n, N, len(eset), tag)
        self._elements = tuple(sorted(eset, key=lambda a: a.sort_key()))
        self._eset = eset

    @classmethod
    def _sorted(cls, n: int, N: int, elements: tuple, tag: GroupTag | None = None) -> "FiniteMonomialGroup":
        """The group of the given distinct elements of the stated ambient,
        already in sort_key order; nothing is checked."""
        group = object.__new__(cls)
        group._fill(n, N, len(elements), tag)
        group._elements = elements
        return group

    @classmethod
    def _from_blocks(cls, n: int, N: int, blocks: tuple, tag: GroupTag, generators: tuple) -> "FiniteMonomialGroup":
        """The group whose elements are t*w for each block (w, rows) and each
        exponent vector t in rows, blocks and rows already in sort order and
        distinct; generators are (perm, exps) pairs that generate it."""
        group = object.__new__(cls)
        group._fill(n, N, sum(len(rows) for _, rows in blocks), tag)
        group._blocks = blocks
        group._generators = generators
        return group

    def _fill(self, n: int, N: int, order: int, tag: GroupTag | None) -> None:
        self.n = n
        self.N = N
        self.order = order
        self.tag = tag or GroupTag("explicit")
        self._elements: tuple | None = None  # built from _blocks on first read when None
        self._blocks: tuple | None = None
        self._generators: tuple = ()
        self._eset: frozenset | None = None  # built by element_set() on first use
        self._memo: dict = {}

    @property
    def elements(self) -> tuple[MonomialElement, ...]:
        """The elements in sort order, built from the blocks on first read."""
        if self._elements is None:
            n, N = self.n, self.N
            self._elements = tuple(_trusted(n, N, perm, exps) for perm, rows in self._blocks for exps in rows)
        return self._elements

    @property
    def known_generators(self) -> tuple[MonomialElement, ...]:
        """A generating set known from the construction, empty when none is
        known; IndexedGroup.generators starts from it."""
        return tuple(_trusted(self.n, self.N, perm, exps) for perm, exps in self._generators)

    def memo(self, key, build):
        """build(), computed on first use and kept with the group under key."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def indexed(self) -> "IndexedGroup":
        """The group's one IndexedGroup, shared by every caller."""
        return self.memo("indexed", lambda: IndexedGroup(self))

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, a) -> bool:
        return a in self.element_set()

    def __eq__(self, other) -> bool:
        """Equal element sets, read off the non-empty blocks: every
        construction keeps its blocks and rows in sort order, so two groups
        with the same elements have the same non-empty blocks."""
        return (
            isinstance(other, FiniteMonomialGroup)
            and (self.n, self.N, self.order) == (other.n, other.N, other.order)
            and self._filled_blocks() == other._filled_blocks()
        )

    def __hash__(self) -> int:
        return self.memo("hash", lambda: hash((self.n, self.N, self._filled_blocks())))

    def _filled_blocks(self) -> tuple:
        """The blocks with at least one row."""
        return tuple(block for block in self.blocks() if block[1])

    def __repr__(self) -> str:
        return f"<{self.tag.label} order {self.order} in mu_{self.N}^{self.n}:S_{self.n}>"

    def identity(self) -> MonomialElement:
        return MonomialElement.identity(self.n, self.N)

    def element_set(self) -> frozenset:
        """The elements as a frozenset, built on first use and kept."""
        if self._eset is None:
            self._eset = frozenset(self.elements)
        return self._eset

    def blocks(self) -> tuple:
        """The (permutation, torus rows) pairs in sort order: the elements
        are t*w, w the permutation of a block and t each exponent vector of
        its rows in turn.  A family group holds them from its construction,
        one per permutation of S_n, the odd ones with empty rows for W at odd
        m; any other group groups its sorted elements into runs of one
        permutation on the first call and keeps them."""
        if self._blocks is None:
            runs = itertools.groupby(self.elements, key=lambda a: a.perm)
            self._blocks = tuple((perm, tuple(a.exps for a in run)) for perm, run in runs)
        return self._blocks

    def torus_elements(self) -> tuple[MonomialElement, ...]:
        """The first block's elements: the identity permutation sorts first."""
        perm, rows = self.blocks()[0]
        return self.elements[: len(rows)] if perm == tuple(range(self.n)) else ()

    def lift(self, N: int) -> "FiniteMonomialGroup":
        if N == self.N:
            return self
        if N % self.N != 0:
            raise ValueError(f"cannot lift torus order {self.N} into {N}")
        # scaling the exponents keeps the sort order
        step = N // self.N
        blocks = tuple((perm, tuple(tuple([e * step for e in ex]) for ex in rows)) for perm, rows in self.blocks())
        generators = tuple((perm, tuple([e * step for e in exps])) for perm, exps in self._generators)
        return FiniteMonomialGroup._from_blocks(self.n, N, blocks, self.tag, generators)

    def sign_twist(self) -> "FiniteMonomialGroup":
        """phi(G) = {(-I)^[w odd] t*w}, for even N: the rows of each odd
        permutation's block moved by N/2 in every coordinate and re-sorted.
        g -> (-I)^[w odd] is a homomorphism into the centre and phi keeps w,
        so phi is an injective homomorphism and phi(G) is isomorphic to G."""
        if self.N % 2:
            raise ValueError(f"-I is not in the torus of order {self.N}")
        N, half = self.N, self.N // 2
        twisted: dict[int, tuple] = {}  # id(rows) -> moved rows; blocks may share rows

        def moved(exps: tuple) -> tuple:
            return tuple([(e + half) % N for e in exps])

        def twist(perm: tuple, rows: tuple) -> tuple:
            if perm_sign(perm) == 1:
                return rows
            if id(rows) not in twisted:
                twisted[id(rows)] = tuple(sorted(map(moved, rows)))
            return twisted[id(rows)]

        blocks = tuple((perm, twist(perm, rows)) for perm, rows in self.blocks())
        generators = tuple((perm, exps if perm_sign(perm) == 1 else moved(exps)) for perm, exps in self._generators)
        return FiniteMonomialGroup._from_blocks(self.n, N, blocks, GroupTag("generated"), generators)

    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        """(element order, count) pairs in increasing order, read off the
        blocks by monomial.cycles_order, with no element built."""
        histogram: dict[int, int] = {}
        for perm, rows in self.blocks():
            cycles = perm_cycles(perm)
            for exps in rows:
                order = cycles_order(cycles, exps, self.N)
                histogram[order] = histogram.get(order, 0) + 1
        return tuple(sorted(histogram.items()))

    def to_json(self) -> dict:
        if self.tag.kind == "G":
            m, p, n = self.tag.params
            return {"kind": "G", "m": m, "p": p, "n": n}
        if self.tag.kind == "W":
            m, d, n = self.tag.params
            return {"kind": "W", "m": m, "cprime": d, "n": n}
        return {"kind": "explicit", "elements": [a.to_json() for a in self.elements]}


def common_ambient(a: FiniteMonomialGroup, b: FiniteMonomialGroup):
    if a.n != b.n:
        raise ValueError("groups live in different ranks")
    N = lcm(a.N, b.N)
    return a.lift(N), b.lift(N)


def ambient_order(m: int) -> int:
    """Torus order used for all work at level m: lcm(m, 4)."""
    return lcm(m, 4)


# holds the 42 row sets of the orders grid (m <= 6, n <= 4)
@lru_cache(maxsize=64)
def _torus_rows(m: int, n: int, N: int, residues: frozenset) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors (N/m) f, f in {0..m-1}^n with sum(f) mod m in
    residues, in lexicographic order."""
    step = N // m
    return tuple(
        tuple([step * x for x in f]) for f in itertools.product(range(m), repeat=n) if sum(f) % m in residues
    )


def _family(m: int, p: int, odd, n: int, N: int | None, tag: GroupTag) -> FiniteMonomialGroup:
    """The det-and-parity filter: the t*w, t in mu_m^n and w in S_n, with det
    t in the index-p subgroup of mu_m for even w and det t = zeta_m^r, r in
    odd, for odd w; one block of torus rows per permutation, permutations in
    lexicographic order and rows in lexicographic order, which is the sort
    order of the elements.  With no odd residue (W at odd m) the blocks of
    the odd permutations are empty."""
    N = N or ambient_order(m)
    if N % m != 0:
        raise ValueError(f"ambient order {N} does not contain the {m}-th roots")
    even_rows, odd_rows = (_torus_rows(m, n, N, frozenset(r)) for r in (range(0, m, p), odd))
    blocks = tuple(
        (perm, even_rows if perm_sign(perm) == 1 else odd_rows) for perm in itertools.permutations(range(n))
    )
    return FiniteMonomialGroup._from_blocks(n, N, blocks, tag, _family_generators(m, p, odd, n, N))


def _family_generators(m: int, p: int, odd, n: int, N: int) -> tuple:
    """A generating set of the det-and-parity filter, as (perm, exps) pairs
    (Broue, Malle and Rouquier, J. reine angew. Math. 500 (1998)): t_1^p;
    t_1 t_2^-1 when p > 1; t_1^r (1 2) for the first odd residue r; for
    n >= 3 the long cycle (1 2 ... n), times t_1^r when it is odd.  The
    identity is left out.  The torus part is generated by t_1^p and the
    S_n-conjugates of t_1 t_2^-1, and (1 2) and the long cycle generate S_n.
    Rank one gets t_1^p alone.  A filter that keeps even permutations only
    (W at odd m) gets t_1^p, t_1 t_2^-1 when p > 1 or n = 2 (no permutation
    moves t_1 there), and for n >= 3 (1 2 3) and, for n >= 4, the even cycle
    (1 2 ... n) for odd n or (2 3 ... n) for even n, which generate A_n; the
    A_n-conjugates of t_1 t_2^-1 (of t_1 when p = 1) span the torus part."""
    step = N // m

    def t1(power: int, perm: tuple) -> tuple:
        return perm, (power * step % N,) + (0,) * (n - 1)

    identity = tuple(range(n))
    gens = [t1(p, identity)]
    if n > 1 and (p > 1 or (n == 2 and not odd)):
        gens.append((identity, (step, N - step) + (0,) * (n - 2)))
    if n > 1 and odd:
        r = odd[0]
        gens.append(t1(r, (1, 0) + identity[2:]))
        if n >= 3:
            gens.append(t1(r if n % 2 == 0 else 0, identity[1:] + (0,)))
    elif n >= 3:
        gens.append(t1(0, (1, 2, 0) + identity[3:]))
        if n >= 4:
            gens.append(t1(0, identity[1:] + (0,) if n % 2 else (0,) + identity[2:] + (1,)))
    return tuple(g for g in gens if any(g[1]) or g[0] != identity)


def make_gmpn(m: int, p: int, n: int, *, N: int | None = None) -> FiniteMonomialGroup:
    """The imprimitive reflection group: pairs t*w with det t in the index-p
    subgroup of the m-th roots of unity.  Order m^n n!/p."""
    return make_thick(m, p, 0, n, N=N)


def make_thick(m: int, p: int, j: int, n: int, *, N: int | None = None) -> FiniteMonomialGroup:
    """T(m,p,j,n): pairs t*w with det t in zeta_m^(j [w odd]) mu_(m/p), a thick
    subgroup of G(m,1,n) of order m^n n!/p when p | 2j.  It is G(m,p,n) when
    p | j (or n = 1), W(m,m/p,n) when j = p/2 and m/p is odd, and outside both
    families when j = p/2 and m/p is even."""
    if m < 1 or n < 1 or p < 1 or m % p != 0:
        raise ValueError(f"p={p} must divide m={m} and both must be positive")
    if 2 * j % p != 0:
        raise ValueError(f"2j={2 * j} must be a multiple of p={p}")
    tag = GroupTag("G", (m, p, n))
    if j % p and n > 1:
        tag = GroupTag("W", (m, m // p, n)) if (m // p) % 2 else GroupTag("generated")
    group = _family(m, p, range(j % p, m, p), n, N, tag)
    assert group.order == m**n * factorial(n) // p
    return group


def make_w(m: int, d: int, n: int, *, N: int | None = None) -> FiniteMonomialGroup:
    """The det-twisted family: pairs t*w with det(t*w) in the order-d subgroup
    of the m-th roots of unity.  Order m^(n-1) d n!, halved for odd m, n > 1."""
    if m < 1 or n < 1 or d < 1 or m % d != 0:
        raise ValueError(f"d={d} must divide m={m} and both must be positive")
    p = m // d
    # odd w need det t in -mu_d: the classes of zeta_m^(m/2) mod mu_d, and
    # none of the m-th roots when m is odd
    group = _family(m, p, range(m // 2 % p, m, p) if m % 2 == 0 else (), n, N, GroupTag("W", (m, d, n)))
    assert group.order == m ** (n - 1) * d * factorial(n) // (2 if m % 2 and n > 1 else 1)
    return group


def thick_family(m: int, n: int) -> list[FiniteMonomialGroup]:
    """All thick subgroups of G(m,1,n), T(m,p,j,n) for p | m and j in {0, p/2}
    (docs/decisions.md, criterion 6), in enumerate_thick's order: by order,
    then j = 0 first, as the first odd permutation's rows decide.  S_1 has
    no odd permutation, so j = p/2 joins only when n >= 2."""
    return [
        make_thick(m, p, j, n)
        for p in range(m, 0, -1)
        if m % p == 0
        for j in ((0, p // 2) if p % 2 == 0 and n >= 2 else (0,))
    ]


def mu_group(G: FiniteMonomialGroup) -> FiniteMonomialGroup:
    """The counterpart of G(m,p,n) for even m: the det filter W(m, m/p, n),
    which the paper writes as the products {w t_1^(det w) t : w in S_n, t in
    T}; criterion 2 of verify builds that product form and compares."""
    if G.tag.kind != "G":
        raise ValueError("mu is defined on groups built as G(m,p,n)")
    m, p, n = G.tag.params
    if m % 2 != 0:
        raise ValueError(
            "no counterpart group exists for odd m: the invariants are not closed "
            "under the sign-twisted product, so no group acting by twisted "
            "automorphisms has them as its invariants"
        )
    return make_w(m, m // p, n, N=G.N)


def closure_generate(ambient: tuple[int, int], gens) -> FiniteMonomialGroup:
    """Smallest subgroup of mu_N^n : S_n containing the generators, of order
    at most group_size_cap()."""
    N, n = ambient
    cap = group_size_cap()
    gens = list(gens)
    for g in gens:
        if (g.n, g.N) != (n, N):
            raise ValueError("generator outside the stated ambient")
    e = MonomialElement.identity(n, N)
    seen = {e}
    frontier = [e]
    gens_full = gens + [g.inverse() for g in gens]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens_full:
                b = a * g
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > cap:
                        raise CapExceededError(f"closure exceeded cap {cap}")
        frontier = nxt
    return FiniteMonomialGroup(n, N, seen, GroupTag("generated"))


def is_thick(G: FiniteMonomialGroup, ambient_m: int) -> bool:
    """Whether G is a thick subgroup of G(ambient_m, 1, n): normal with full
    projection to the symmetric group."""
    amb = make_gmpn(ambient_m, 1, G.n)
    Gl, ambl = common_ambient(G, amb)
    if not Gl.element_set() <= ambl.element_set():
        raise ValueError(f"group is not contained in G({ambient_m},1,{G.n})")
    perms = {a.perm for a in Gl.elements}
    if len(perms) != factorial(G.n):
        return False
    # normality under a generating set of the ambient is enough
    from .monomial import adjacent_swap, torus_gen

    Nl = ambl.N
    gens = [adjacent_swap(G.n, Nl, i) for i in range(1, G.n)]
    gens.append(torus_gen(G.n, Nl, 1, Nl // ambient_m))
    for g in gens:
        ginv = g.inverse()
        for x in Gl.elements:
            if g * x * ginv not in Gl:
                return False
    return True


class TorusSubgroup(NamedTuple):
    """The intersection of a group with the diagonal torus."""

    elements: tuple[MonomialElement, ...]
    m_detected: int  # order of the smallest root subgroup containing all entries
    cprime_order: int  # order of the determinant image of the torus part
    form_matches: bool  # T equals {t : det t in C'} inside mu_m^n
    generation_matches: bool  # T is generated by t_1^(eps') and t_i^(eps) t_j^(eps^-1)

    @property
    def order(self) -> int:
        return len(self.elements)


def torus_part(G: FiniteMonomialGroup) -> TorusSubgroup:
    n, N = G.n, G.N
    torus = G.torus_elements()
    # smallest m with all entries inside the m-th roots
    m = 1
    for a in G.elements:
        for e in a.exps:
            if e:
                m = lcm(m, N // gcd(e, N))
    det_exps = {sum(t.exps) % N for t in torus}
    cprime = len(det_exps)
    # det values of torus elements live in mu_m; the image is a subgroup
    step = N // m
    tset = {t.exps for t in torus}
    # does T match {t in mu_m^n : det t in C'}?
    dstep = m // cprime  # C' = exponents divisible by m/cprime (as m-th roots)
    expected = set()
    for f in itertools.product(range(m), repeat=n):
        if (sum(f) % m) % dstep == 0:
            expected.add(tuple(step * x for x in f))
    form_matches = tset == expected
    # generation statement: t_1^(eps') for eps' in C', and t_i^(eps) t_j^(eps^-1)
    gens = []
    for j in range(cprime):
        exps = [0] * n
        exps[0] = (j * dstep * step) % N
        gens.append(MonomialElement(n, N, tuple(range(n)), tuple(exps)))
    for i in range(n):
        for j in range(n):
            if i != j:
                exps = [0] * n
                exps[i] = step % N
                exps[j] = (-step) % N
                gens.append(MonomialElement(n, N, tuple(range(n)), tuple(exps)))
    generated = closure_generate((N, n), gens)
    generation_matches = generated.element_set() == frozenset(torus)
    return TorusSubgroup(torus, m, cprime, form_matches, generation_matches)


# ---------------------------------------------------------------------------
# Conjugacy classes and the class-join lattice
# ---------------------------------------------------------------------------


class IndexedGroup:
    """Index-based view of a group for combinatorial computations.

    Elements are numbered in the group's sort order, block by block, so an
    element's index is the start of its permutation's block plus the row of
    its exponent vector: no element is hashed.  Products enter through one
    right-multiplication array per generator g = s*v, with one
    MonomialElement product per block and generator: the block's first row
    times g gives the target block, and (t*w)(s*v) = (t + w(s))*(w v) moves
    every row of the block by the same shift w(s).  The generators are the
    group's known ones (at most four for a family group), completed
    greedily.  The left multiplications, conjugations and class products
    follow from those arrays by associativity along a breadth-first spanning
    tree of the Cayley graph, as index lookups (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, ch. 3-4).  No dense Cayley table
    is kept.  Normal subgroups are answered as sets of element indices; the
    class-join lattice behind them works on bit masks of class ids.
    """

    def __init__(self, G: FiniteMonomialGroup):
        self.group = G
        self.elems = G.elements
        self._where: dict[tuple, tuple] = {}  # perm -> (block start, rows, exps -> row), in index order
        row_dicts: dict[int, dict] = {}  # one exps -> row dict per rows tuple, which blocks may share
        start = 0
        for perm, rows in G.blocks():
            if rows:  # W at odd m has empty odd blocks
                if id(rows) not in row_dicts:
                    row_dicts[id(rows)] = {exps: r for r, exps in enumerate(rows)}
                self._where[perm] = (start, rows, row_dicts[id(rows)])
                start += len(rows)
        self.id_index = self.index_of(G.identity())
        self.inv = self._inverses()
        self._right: dict[int, list[int]] = {}
        self._gens: list[int] | None = None
        self._tree: list[tuple[int, int, list[int]]] = []
        self._classes: list[frozenset[int]] | None = None
        self._class_of: list[int] | None = None
        self._class_mult: list[list[int]] | None = None

    def _inverses(self) -> list[int]:
        """i -> the index of the inverse of element i, block by block without
        an element: (t*w)^-1 = (-w^-1(t))*w^-1 lies in the block of w^-1, at
        the row of the exponents -t_(w(j)) mod N."""
        N = self.group.N
        out: list[int] = []
        for perm, (_, rows, _) in self._where.items():
            target, _, row_of = self._where[tuple(map(perm.index, range(len(perm))))]  # w^-1
            out.extend(target + row_of[tuple([-t[x] % N for x in perm])] for t in rows)
        return out

    def index_of(self, a: MonomialElement) -> int:
        """The index of the group element a: its block start plus its row."""
        start, _, row_of = self._where[a.perm]
        return start + row_of[a.exps]

    def mul(self, i: int, j: int) -> int:
        return self.index_of(self.elems[i] * self.elems[j])

    def right(self, g: int) -> list[int]:
        """x -> x * g on indices, kept per g; an unshifted block lands row for
        row on its target, whose rows are then the same."""
        if g not in self._right:
            elems, h, N = self.elems, self.elems[g], self.group.N
            out: list[int] = []
            for start, rows, _ in self._where.values():
                first = elems[start] * h
                target, _, row_of = self._where[first.perm]
                shift = [(x - y) % N for x, y in zip(first.exps, rows[0])]
                if any(shift):
                    out.extend(target + row_of[tuple([(x + d) % N for x, d in zip(t, shift)])] for t in rows)
                else:
                    out.extend(range(target, target + len(rows)))
            self._right[g] = out
        return self._right[g]

    def left(self, r: int) -> list[int]:
        """x -> r * x on indices, without products: where the spanning tree
        has x = y * g, r * x = (r * y) * g."""
        self.generators()
        out = [r] * len(self.elems)  # r * identity = r; the tree fills the rest
        for x, y, times_g in self._tree:
            out[x] = times_g[out[y]]
        return out

    # -- generators ------------------------------------------------------

    def generators(self) -> list[int]:
        """A small generating set: the group's known generators first, then,
        greedily, the first element not yet generated, in index order, until
        everything is reached; a group with no known generators is scanned
        from index 0.  Each join grows the breadth-first spanning tree,
        (x, y, right(g)) with x = y * g, from the elements already reached."""
        if self._gens is not None:
            return self._gens
        gens: list[int] = []
        arrays: list[list[int]] = []
        reached = [self.id_index]
        seen = {self.id_index}
        known = [self.index_of(a) for a in self.group.known_generators]
        for i in itertools.chain(known, range(len(self.elems))):
            if i in seen:
                continue
            gens.append(i)
            arrays.append(self.right(i))
            # the old generators keep the reached subgroup, so only the new
            # one leads out of it on the first step
            frontier, step = list(reached), arrays[-1:]
            while frontier:
                nxt = []
                for y in frontier:
                    for times_g in step:
                        x = times_g[y]
                        if x not in seen:
                            seen.add(x)
                            self._tree.append((x, y, times_g))
                            nxt.append(x)
                reached.extend(nxt)
                frontier, step = nxt, arrays
            if len(seen) == len(self.elems):
                break
        self._gens = gens
        return gens

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_classes(self) -> list[frozenset[int]]:
        """The classes, numbered by their smallest element, as orbits under
        conjugation by the generators."""
        if self._classes is not None:
            return self._classes
        size = len(self.elems)
        conjugations = []
        for g in self.generators():
            times_g_inv = [0] * size
            for x, y in enumerate(self.right(g)):
                times_g_inv[y] = x
            conjugations.append([times_g_inv[y] for y in self.left(g)])  # x -> g x g^-1
        class_of = [-1] * size
        classes: list[frozenset[int]] = []
        for start in range(size):
            if class_of[start] >= 0:
                continue
            cid = len(classes)
            class_of[start] = cid
            orbit = [start]
            for x in orbit:  # the orbit grows while it is walked
                for conj in conjugations:
                    y = conj[x]
                    if class_of[y] < 0:
                        class_of[y] = cid
                        orbit.append(y)
            classes.append(frozenset(orbit))
        self._classes = classes
        self._class_of = class_of
        return classes

    def class_of(self, i: int) -> int:
        self.conjugacy_classes()
        return self._class_of[i]

    def class_mult(self) -> list[list[int]]:
        """class_mult[i][j]: the bit mask of the classes met by (rep of class
        i) * class j, the rep being the smallest element of class i."""
        if self._class_mult is not None:
            return self._class_mult
        classes = self.conjugacy_classes()
        class_of = self._class_of
        table = []
        for cls in classes:
            row = [0] * len(classes)
            for x, y in enumerate(self.left(min(cls))):
                row[class_of[x]] |= 1 << class_of[y]
            table.append(row)
        self._class_mult = table
        return table

    # -- the class-join lattice of normal subgroups -------------------------

    def _join(self, mask: int, c: int) -> int:
        """The classes of A<C>, for the normal subgroup A with class mask
        `mask` and the class C numbered c: A C^k grows by one factor C at a
        time, and only the classes found last need multiplying again."""
        if mask >> c & 1:
            return mask
        table = self.class_mult()
        frontier = mask
        while frontier:
            grown = 0
            for a in _bits(frontier):
                grown |= table[a][c]
            frontier = grown & ~mask
            mask |= frontier
        return mask

    def _elements(self, mask: int) -> frozenset[int]:
        """The elements of the classes in the mask."""
        classes = self.conjugacy_classes()
        return frozenset().union(*(classes[c] for c in _bits(mask)))

    def normal_closure(self, indices) -> frozenset[int]:
        """The elements of the smallest normal subgroup containing the given
        elements."""
        mask = 1 << self.class_of(self.id_index)
        for c in {self.class_of(i) for i in indices}:
            mask = self._join(mask, c)
        return self._elements(mask)

    def normal_subgroups(self) -> list[frozenset[int]]:
        """All normal subgroups, each as a frozenset of element indices, by
        order and then by sorted class ids: the joins of the normal closures
        of single classes."""
        classes = self.conjugacy_classes()
        trivial = 1 << self._class_of[self.id_index]
        principals: dict[int, int] = {}  # normal closure of a class -> that class
        for c in range(len(classes)):
            principals.setdefault(self._join(trivial, c), c)
        known = {trivial} | set(principals)
        frontier = list(known)
        while frontier:
            nxt = []
            for a in frontier:
                for c in principals.values():
                    joined = self._join(a, c)
                    if joined not in known:
                        known.add(joined)
                        nxt.append(joined)
            frontier = nxt
        masks = sorted(known, key=lambda mask: (sum(len(classes[c]) for c in _bits(mask)), list(_bits(mask))))
        return [self._elements(mask) for mask in masks]

    def subgroup_from_indices(self, indices, tag: GroupTag | None = None) -> FiniteMonomialGroup:
        G = self.group
        return FiniteMonomialGroup._sorted(G.n, G.N, tuple(self.elems[i] for i in sorted(indices)), tag)

    def is_abelian(self, indices) -> bool:
        """Whether the normal subgroup with these elements is abelian.  It is
        exactly when the rep of each of its classes commutes with all of it:
        conjugating by g carries that pair to (g rep g^-1, the same subgroup).
        x * rep is found as the inverse of rep^-1 * x^-1."""
        inv = self.inv
        classes = self.conjugacy_classes()
        for c in {self._class_of[i] for i in indices}:
            rep = min(classes[c])
            times_rep, times_rep_inv = self.left(rep), self.left(inv[rep])
            if any(times_rep[x] != inv[times_rep_inv[inv[x]]] for x in indices):
                return False
        return True


def _bits(mask: int):
    """The positions of the set bits of the mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_thick(m: int, n: int) -> list[FiniteMonomialGroup]:
    """All thick subgroups of G(m,1,n), by size and then element sort keys.
    Each contains A = {t : det t = 1}, and t*w -> (det t, w) maps G(m,1,n)
    onto mu_m x S_n with kernel A (docs/decisions.md, criterion 6, steps
    1-2), so they are the preimages of the normal subgroups of that quotient
    which meet every permutation.  The quotient is zeta_m^a I times the
    permutation matrices, index k*m + a for the k-th permutation; its
    class-join lattice is searched, and the preimage's block at w holds the
    torus rows whose det residue is an a met at w.  A preimage equal to a
    member of thick_family is that member; any other is tagged generated."""
    cap = group_size_cap()
    if m**n * factorial(n) > cap:
        raise CapExceededError(f"ambient order {m ** n * factorial(n)} exceeds cap {cap}")
    N, perms, identity = ambient_order(m), tuple(itertools.permutations(range(n))), tuple(range(n))
    scalars = tuple((a * N // m,) * n for a in range(m))
    generators = [(identity, scalars[1])] if m > 1 else []  # zeta_m I, (1 2), (1 2 ... n)
    if n >= 2:
        generators.append(((1, 0) + identity[2:], scalars[0]))
    if n >= 3:
        generators.append((identity[1:] + (0,), scalars[0]))
    blocks = tuple((w, scalars) for w in perms)
    quotient = FiniteMonomialGroup._from_blocks(n, N, blocks, GroupTag("generated"), tuple(generators))
    family = thick_family(m, n)
    out = []
    for indices in quotient.indexed().normal_subgroups():
        residues = [frozenset(a for a in range(m) if k * m + a in indices) for k in range(len(perms))]
        if all(residues):
            preimage = tuple((w, _torus_rows(m, n, N, r)) for w, r in zip(perms, residues))
            lifted = FiniteMonomialGroup._from_blocks(n, N, preimage, GroupTag("generated"), ())
            out.append(next((T for T in family if T == lifted), lifted))
    return sorted(out, key=lambda G: (G.order, [(w, t) for w, rows in G.blocks() for t in rows]))
