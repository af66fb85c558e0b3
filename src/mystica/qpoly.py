"""The graded polynomial space with its family of twisted products and the
sign-twisted group actions on it.

Monomials are exponent tuples; polynomials are sparse maps from exponent
tuples to cyclotomic coefficients.  The product on S_q(V) is the bilinear
extension of x^k *_q x^k' = <k,k'> x^{k+k'}, where the bracket is read off
the q-matrix.  The twisted action of a monomial matrix multiplies each
monomial by a cocycle value and a torus character before permuting the
exponents.

The parameter c of the twisted action is any invertible field element; the
distinguished value 0 selects the untwisted action (cocycle identically 1).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import mul

from .cyclo import Cyclotomic, _make, _rational_parts
from .groups import FiniteMonomialGroup
from .linalg import SparseMatrix, sparse_rank
from .monomial import MonomialElement, inversions, perm_apply

_ONE = Cyclotomic.one()
_MINUS_ONE = -_ONE


def _c_key(c):
    """The hashable key (order, nums, den) of an invertible c, None for the
    untwisted action (c None or 0).  A rational c is keyed at field order 1,
    an int or a Fraction straight from its numerator and denominator."""
    if isinstance(c, Cyclotomic):
        if c.is_zero():
            return None
        return (1, c.nums[:1], c.den) if c.is_rational() else (c.order, c.nums, c.den)
    if c is None or c == 0:
        return None
    num, den = _rational_parts(c)
    return (1, (num,), den)


def _field_order(c_key, N: int) -> int:
    """The order L of the field Q(zeta_L) holding the operators' entries: N
    for the untwisted action, lcm(N, ord c) otherwise, which is N for a
    rational c of any order, since _c_key writes it at order 1."""
    return N if c_key is None else lcm(N, c_key[0])


@lru_cache(maxsize=None)
def slice_monomials(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Degree-d exponent tuples in lexicographic order, largest first."""

    def gen(rest, remaining):
        if rest == 1:
            yield (remaining,)
            return
        for lead in range(remaining, -1, -1):
            for tail in gen(rest - 1, remaining - lead):
                yield (lead,) + tail

    return tuple(gen(n, degree))


@lru_cache(maxsize=None)
def _orbit_columns(perms: tuple[tuple[int, ...], ...], degree: int) -> tuple[int, ...]:
    """The slice columns, indices into slice_monomials, that come first in
    their orbit under the permutations (a group, the permutation image of a
    monomial group), k -> w(k): one column per orbit, in slice order."""
    basis = slice_monomials(len(perms[0]), degree)
    pos = {k: idx for idx, k in enumerate(basis)}
    covered = [False] * len(basis)
    reps = []
    for idx, k in enumerate(basis):
        if not covered[idx]:
            reps.append(idx)
            for perm in perms:
                covered[pos[perm_apply(perm, k)]] = True
    return tuple(reps)


class QMatrix:
    """A commutation matrix: q_ii = 1 and q_ij q_ji = 1, entries exact."""

    def __init__(self, n: int, entries):
        self.n = n
        self.entries = tuple(tuple(e if isinstance(e, Cyclotomic) else Cyclotomic.rational(e) for e in row) for row in entries)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("q-matrix has wrong shape")
        for i in range(n):
            if self.entries[i][i] != 1:
                raise ValueError("diagonal q-matrix entries must be 1")
            for j in range(n):
                if self.entries[i][j] * self.entries[j][i] != 1:
                    raise ValueError("q_ij q_ji = 1 violated")
        self._minus_one = all(self.entries[i][j] == (1 if i == j else -1) for i in range(n) for j in range(n))

    @staticmethod
    @lru_cache(maxsize=None)
    def minus_one(n: int) -> "QMatrix":
        """The q = -1 matrix of rank n, built and validated once per rank;
        callers share it."""
        return QMatrix(n, [[1 if i == j else -1 for j in range(n)] for i in range(n)])

    def is_minus_one(self) -> bool:
        return self._minus_one


def qform_bracket(q: QMatrix, k: tuple[int, ...], kprime: tuple[int, ...]) -> Cyclotomic:
    """<k, k'> = prod_{i<j} q_ij^(k'_i k_j)."""
    if len(k) != q.n or len(kprime) != q.n:
        raise ValueError("exponent vectors do not match the q-matrix rank")
    if q.is_minus_one():
        s = sum(kprime[i] * k[j] for i in range(q.n) for j in range(i + 1, q.n))
        return _MINUS_ONE if s % 2 else _ONE
    out = Cyclotomic.one()
    for i in range(q.n):
        for j in range(i + 1, q.n):
            e = kprime[i] * k[j]
            if e:
                out = out * q.entries[i][j] ** e
    return out


class QPolynomial:
    """Sparse polynomial: exponent tuple -> cyclotomic coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        for k, v in (terms or {}).items():
            if not isinstance(v, Cyclotomic):
                v = Cyclotomic.rational(v)
            if not v.is_zero():
                clean[tuple(k)] = v
        self.terms = clean

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms.keys() == other.terms.keys() and all(
            v == other.terms[k] for k, v in self.terms.items()
        )

    def to_text(self) -> str:
        from .cyclo import scalar_to_text

        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            coeff = self.terms[k]
            vars_txt = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(k) if e
            )
            ctxt = scalar_to_text(coeff)
            if not vars_txt:
                parts.append(f"({ctxt})" if ("+" in ctxt or ctxt.startswith("-")) else ctxt)
            elif coeff == 1:
                parts.append(vars_txt)
            else:
                parts.append(f"({ctxt})*{vars_txt}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"QPolynomial({self.to_text()!r})"


def _trusted_polynomial(n: int, terms: dict) -> QPolynomial:
    """The polynomial with these terms, already nonzero Cyclotomic values on
    exponent tuples, without the checks of the public constructor: act_c and
    qmul build their results through it."""
    out = object.__new__(QPolynomial)
    out.n = n
    out.terms = terms
    return out


def qmul(q: QMatrix, f: QPolynomial, g: QPolynomial) -> QPolynomial:
    if f.n != g.n or f.n != q.n:
        raise ValueError("rank mismatch in twisted product")
    out: dict = {}
    for k, a in f.terms.items():
        for k2, b in g.terms.items():
            coeff = qform_bracket(q, k, k2) * a * b
            key = tuple(x + y for x, y in zip(k, k2))
            cur = out.get(key)
            total = coeff if cur is None else cur + coeff
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
    return _trusted_polynomial(f.n, out)


def commute_check(q: QMatrix, polys) -> bool:
    polys = list(polys)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if qmul(q, polys[i], polys[j]) != qmul(q, polys[j], polys[i]):
                return False
    return True


# -- the slice-action kernel ---------------------------------------------
#
# For g = t*w in canonical form the twisted action sends x^k to
# (-1)^s * c^b * zeta_N^a * x^(w(k)): (s, b) is the cocycle phi_w^(c)(k) of
# w, and zeta_N^a = prod_j t_{w(j)}^(k_j) = t^(w(k)) is the torus root, so
# a = <t, w(k)> mod N.  operator_matrix runs every actor, a rational
# combination of elements, as a _GroupSum, which holds per w one plan and
# per (c, w) one key -> entry dict; _entry fills the dict on a key's first
# read in the one placement loop, _integer_sum_matrix.


def _cocycle(pairs, k) -> tuple[int, int]:
    """(sign bit, c exponent) of the product of phi_ij^(c)(k) over the index
    pairs: phi_ij^(c)(k) = (-1)^(k_i k_j) c^(parity(k_i) - parity(k_j))."""
    sign = 0
    cexp = 0
    for i, j in pairs:
        sign += k[i] * k[j]
        cexp += (k[i] % 2) - (k[j] % 2)
    return sign % 2, cexp


@lru_cache(maxsize=1024)
def _twist_row(N: int, c_key, sign: int, cexp: int):
    """(values, nums, den): values[a] = (-1)^sign c^cexp zeta_N^a, 0 <= a < N,
    in Q(zeta_L), L = lcm(N, ord c), for c = _make(*c_key), and nums[a] its
    numerators over the common denominator den.  The untwisted action
    (c_key None) has no cocycle: its values are the roots zeta_N^a."""
    if c_key is None:
        values = tuple(Cyclotomic.root(N, a) for a in range(N))
    else:
        cc = _make(*c_key)
        field_order = _field_order(c_key, N)
        scale = -(cc**cexp) if sign else cc**cexp
        values = tuple(Cyclotomic.root(field_order, a * (field_order // N)) * scale for a in range(N))
    den = lcm(*(v.den for v in values))
    return values, tuple(tuple(x * (den // v.den) for x in v.nums) for v in values), den


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


@lru_cache(maxsize=None)
def _slice_images(perm: tuple[int, ...], degree: int, N: int):
    """Per column k of slice_monomials: the row of w(k), and the key
    (w(k) mod N, sign bit, c exponent) that fixes the entry of every term
    with permutation w at that column."""
    basis = slice_monomials(len(perm), degree)
    pos = {k: idx for idx, k in enumerate(basis)}
    pairs = inversions(perm)
    rows, keys = [], []
    for k in basis:
        image = perm_apply(perm, k)
        rows.append(pos[image])
        keys.append((tuple(x % N for x in image), *_cocycle(pairs, k)))
    return tuple(rows), tuple(keys)


def _period(counts: dict, N: int):
    """(generators, order, coset representatives with multiplicity) of the
    period group U = {u : counts[e + u] = counts[e] for every e} of a
    multiset of torus exponents, given as exponents -> multiplicity.

    U lies in E - e0 for the support E and any e0 in it, so the candidates
    e - e0 are tried in turn, skipping those already in the span of the
    generators found; each one that is a period joins the span."""
    if len(counts) == 1:  # one torus part
        return (), 1, tuple(counts.items())

    def shift(e, u):
        return tuple([(x + y) % N for x, y in zip(e, u)])

    first = next(iter(counts))
    span = {(0,) * len(first)}
    gens = []
    for e in counts:
        u = tuple([(x - y) % N for x, y in zip(e, first)])
        if u in span or any(counts.get(shift(f, u)) != m for f, m in counts.items()):
            continue
        gens.append(u)
        grown, step = set(span), u
        while step not in span:
            grown.update(shift(s, step) for s in span)
            step = shift(step, u)
        span = grown
    reps, covered = [], set()
    for e, m in counts.items():
        if e not in covered:
            reps.append((e, m))
            covered.update(shift(e, u) for u in span)
    return tuple(gens), len(span), tuple(reps)


def phi_eval(c, i: int, j: int, k) -> Cyclotomic:
    """phi_ij^(c)(k) = (-1)^(k_i k_j) c^(parity(k_i) - parity(k_j)); indices zero-based."""
    return _twist_row(1, _c_key(c), *_cocycle(((i, j),), k))[0][0]


def phi_w_eval(c, perm: tuple[int, ...], k) -> Cyclotomic:
    """Product of phi_ij^(c)(k) over the inversions of the permutation."""
    return _twist_row(1, _c_key(c), *_cocycle(inversions(tuple(perm)), k))[0][0]


def act_c(c, g: MonomialElement, f: QPolynomial) -> QPolynomial:
    """The twisted action of a monomial matrix on a polynomial."""
    if f.n != g.n:
        raise ValueError("rank mismatch")
    c_key = _c_key(c)
    pairs = inversions(g.perm)
    untwisted = _twist_row(g.N, None, 0, 0)[0] if c_key is None else None  # the same row for every k
    out: dict = {}
    for k, coeff in f.terms.items():
        image = perm_apply(g.perm, k)
        values = untwisted if c_key is None else _twist_row(g.N, c_key, *_cocycle(pairs, k))[0]
        out[image] = coeff * values[_dot(g.exps, image) % g.N]
    return _trusted_polynomial(f.n, out)


def _by_perm(terms, n: int, N: int) -> dict:
    """perm -> [(torus exponents, numerator, denominator), ...] of the
    (element, coefficient) terms.  A coefficient is rational: an int or a
    Fraction, read through its numerator and denominator, or a rational
    Cyclotomic of any order."""
    members: dict = {}
    for elem, value in terms:
        if elem.n != n or elem.N != N:
            raise ValueError("mixed ambients in operator")
        if isinstance(value, Cyclotomic):
            if not value.is_rational():
                raise ValueError("operator coefficients must be rational")
            num, den = value.nums[0], value.den
        else:
            try:
                num, den = _rational_parts(value)
            except TypeError:
                raise ValueError("operator coefficients must be rational") from None
        members.setdefault(elem.perm, []).append((elem.exps, num, den))
    return members


def _plan(members, N: int) -> tuple:
    """((denominator, generators of U, (representative, weight) pairs), ...)
    of one permutation's terms: those that share one coefficient num/den form
    one part, its torus exponents counted and their period group U searched
    once, and each coset representative weighs |U| times its multiplicity
    times num; a part of zero coefficient drops out."""
    if len(members) == 1:  # one term
        ((e, num, den),) = members
        return ((den, (), ((e, num),)),) if num else ()
    shared: dict = {}  # (num, den) -> exponents -> multiplicity
    for e, num, den in members:
        if num:
            counts = shared.setdefault((num, den), {})
            counts[e] = counts.get(e, 0) + 1
    plan = []
    for (num, den), counts in shared.items():
        gens, size, reps = _period(counts, N)
        plan.append((den, gens, tuple([(rep, size * m * num) for rep, m in reps])))
    return tuple(plan)


def _entry(N: int, c_key, field_order: int, plan, key):
    """The entry at a column of the given key under c, None for zero: per
    part of the plan whose period group is orthogonal to w(k), the root
    exponents <rho, w(k)> of the coset representatives are tallied with
    their weights and mapped through (-1)^s c^b into Q(zeta_L).  A tally of
    one coset, as for a group sum or a single term, reads its value off the
    row of c, scaled by its weight."""
    image, sign, cexp = key
    values, nums, den = _twist_row(N, c_key, sign, cexp)
    total = None
    for cden, gens, reps in plan:
        if gens and any(_dot(image, u) % N for u in gens):
            continue
        if len(reps) == 1:
            ((rep, weight),) = reps
            value = values[_dot(image, rep) % N]._scaled(weight, cden)
        else:
            tally: dict = {}
            for rep, weight in reps:
                a = _dot(image, rep) % N
                tally[a] = tally.get(a, 0) + weight
            vec = [0] * len(nums[0])
            for a, weight in tally.items():
                for j, x in enumerate(nums[a]):
                    vec[j] += weight * x
            if not any(vec):
                continue
            value = _make(field_order, vec, den * cden)
        total = value if total is None else total + value
    return None if total is None or total.is_zero() else total


class _GroupSum:
    """Operator terms (element, rational coefficient) grouped by permutation
    into one plan each, whose entries are kept per (c, permutation, key)
    across degrees and calls.

    The terms of permutation w that share one coefficient form a multiset E
    of torus exponents, and their entry at column k is the coefficient times
    (-1)^s c^b sum_{e in E} zeta_N^<e, w(k)>, which depends only on the key
    (w(k) mod N, s, b).  For the period group U of E, the sum is
    |U| [r orthogonal to U] sum_{rho in E/U} zeta_N^<rho, r> at r = w(k): one
    term per coset for a group sum (U is the torus), for a class sum (U
    holds (1 - w)T) and for a single term (U is trivial)."""

    __slots__ = ("n", "N", "_plans", "_tables")

    def __init__(self, terms, n: int, N: int):
        self.n, self.N = n, N
        # loops, not comprehensions, here and in tables: a one-off actor
        # builds its sum and its plans on every operator_matrix call
        self._plans = plans = {}
        for perm, members in _by_perm(terms, n, N).items():
            plans[perm] = _plan(members, N)
        self._tables: dict = {}  # c key -> (c key, field order, perm -> (plan, entries))

    def tables(self, c_key) -> tuple:
        """(c key, L, perm -> (plan, key -> entry)) under c, made on first use
        per c and kept; the entries are filled as slices read them."""
        tables = self._tables.get(c_key)
        if tables is None:
            plans = {}
            for perm, plan in self._plans.items():
                plans[perm] = (plan, {})
            tables = self._tables[c_key] = (c_key, _field_order(c_key, self.N), plans)
        return tables


def group_sum_terms(G: FiniteMonomialGroup) -> _GroupSum:
    """The group sum of G as operator terms, grouped once per group."""
    return G.memo("group_sum", lambda: _GroupSum([(g, 1) for g in G.elements], G.n, G.N))


def class_sum_terms(G: FiniteMonomialGroup) -> list[_GroupSum]:
    """The conjugacy-class sums of G as operator terms, one per class of
    G.indexed().conjugacy_classes(), in that order; grouped once per group."""

    def build():
        return [
            _GroupSum([(G.elements[i], 1) for i in sorted(cls)], G.n, G.N)
            for cls in G.indexed().conjugacy_classes()
        ]

    return G.memo("class_sums", build)


def _terms_of(actor):
    """Normalize an operator argument to (terms, n, N)."""
    if isinstance(actor, MonomialElement):
        return [(actor, 1)], actor.n, actor.N
    terms = list(actor)
    if not terms:
        raise ValueError("empty operator")
    head = terms[0][0]
    return terms, head.n, head.N


def operator_matrix(actor, c, degree: int, columns=None) -> SparseMatrix:
    """Exact matrix of the actor on the degree slice, columns indexed by
    slice_monomials.  The actor is an element or a rational combination of
    elements, a list of (element, coefficient) terms with each coefficient an
    int, a Fraction or a rational Cyclotomic; its matrix is the
    coefficient-weighted sum of the element matrices, and each entry lies in
    Q(zeta_L), L = _field_order(c, N), whatever order a coefficient is
    written at.  A coefficient outside Q raises ValueError.  Only the given
    columns (column indices) are placed, all of them by default; the others
    are left empty.

    Every actor runs as a _GroupSum.  A kept sum (group_sum_terms,
    class_sum_terms) keeps its entries per (c, permutation, key) across
    degrees and calls; any other actor is grouped and its periods searched
    once per call, and its entries are kept for that call only."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if not isinstance(actor, _GroupSum):
        actor = _GroupSum(*_terms_of(actor))
    return _integer_sum_matrix(actor.tables(_c_key(c)), actor.n, actor.N, degree, columns)


_UNSET = object()


def _integer_sum_matrix(tables: tuple, n: int, N: int, degree: int, columns=None) -> SparseMatrix:
    """The weighted sum of the element operators on the degree slice, from
    the tables of _GroupSum.tables: per permutation w, column k holds the
    entry of its key at the row of w(k), read from the permutation's entries
    under c or, on its first read, computed by _entry and kept there.  Only
    the given columns are placed, every column when columns is None."""
    c_key, field_order, plans = tables
    dim = len(slice_monomials(n, degree))
    matrix = SparseMatrix(dim, dim)
    placed = matrix.entries
    for perm, (plan, entries) in plans.items():
        rows, keys = _slice_images(perm, degree, N)
        if columns is None:
            selected = enumerate(zip(rows, keys))
        else:
            selected = [(col, (rows[col], keys[col])) for col in columns]
        for col, (row, key) in selected:
            value = entries.get(key, _UNSET)
            if value is _UNSET:
                value = entries[key] = _entry(N, c_key, field_order, plan, key)
            if value is None:
                continue
            if (row, col) in placed:  # another permutation maps k to the same row
                matrix.add(row, col, value)
            else:
                placed[row, col] = value
    return matrix


# -- invariants --------------------------------------------------------


class DimensionMismatchError(RuntimeError):
    """The two invariant-dimension computations disagreed."""


def invariant_dimension(G: FiniteMonomialGroup, c, degree: int) -> int:
    """Dimension of the fixed space of the degree slice, computed both as the
    rank of the symmetrizer matrix and as the trace average, the trace read
    off the same matrix's diagonal; the two must agree exactly."""
    matrix = operator_matrix(group_sum_terms(G), c, degree)
    rank = sparse_rank(matrix.columns())
    trace = sum((v for (row, col), v in matrix.entries.items() if row == col), Cyclotomic.zero())
    average = trace / G.order
    if not average.is_rational() or average.den != 1:
        raise DimensionMismatchError(f"trace average {average!r} is not an integer")
    traced = average.nums[0]
    if traced != rank:
        raise DimensionMismatchError(
            f"symmetrizer rank {rank} != trace average {traced} for {G!r} at degree {degree}"
        )
    return rank


def hilbert_free(degrees, D: int) -> list[int]:
    """First D+1 coefficients of prod_i 1/(1 - t^(d_i)), exactly."""
    if D < 0:
        raise ValueError("D must be nonnegative")
    coeffs = [1] + [0] * D
    for d in degrees:
        if d < 1:
            raise ValueError("generator degrees must be positive")
        for i in range(d, D + 1):
            coeffs[i] += coeffs[i - d]
    return coeffs


def invariant_degrees(m: int, p: int, n: int) -> list[int]:
    """Degrees of the fundamental invariants: m, 2m, ..., (n-1)m, n*m/p."""
    return [k * m for k in range(1, n)] + [n * (m // p)]


def default_truncation_degree(m: int, p: int, n: int) -> int:
    """Large enough to see every fundamental generator degree once."""
    return max(2 * m, n * m // p, 8)


def fundamental_invariants(m: int, p: int, n: int) -> list[QPolynomial]:
    """Power sums in x_i^m plus the product of all variables to the power m/p."""
    if m % p != 0:
        raise ValueError(f"p={p} must divide m={m}")
    out = []
    for k in range(1, n):
        terms = {}
        for i in range(n):
            key = [0] * n
            key[i] = k * m
            terms[tuple(key)] = 1
        out.append(QPolynomial(n, terms))
    l = m // p
    out.append(QPolynomial(n, {(l,) * n: 1}))
    return out
