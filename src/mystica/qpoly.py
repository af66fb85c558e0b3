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

from functools import lru_cache, partial
from math import lcm
from operator import mul

from .cyclo import Cyclotomic, _make
from .groups import FiniteMonomialGroup
from .linalg import SparseMatrix, sparse_rank
from .monomial import MonomialElement, inversions, perm_apply

_ONE = Cyclotomic.one()


def _coerce_c(c):
    """None for the untwisted action, otherwise an invertible Cyclotomic;
    a rational c is kept at field order 1."""
    if c is None:
        return None
    if not isinstance(c, Cyclotomic):  # a rational number
        return None if c == 0 else Cyclotomic.rational(c)
    if c.is_zero():
        return None
    if c.is_rational() and c.order != 1:
        return _make(1, c.nums[:1], c.den)
    return c


def _field_order(cc, N: int) -> int:
    """The order L of the field Q(zeta_L) holding the element operators'
    entries: N for the untwisted action, lcm(N, ord c) otherwise, which is N
    for a rational c of any order, since _coerce_c writes it at order 1."""
    return N if cc is None else lcm(N, cc.order)


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
    def minus_one(n: int) -> "QMatrix":
        return QMatrix(n, [[1 if i == j else -1 for j in range(n)] for i in range(n)])

    def is_minus_one(self) -> bool:
        return self._minus_one


def qform_bracket(q: QMatrix, k: tuple[int, ...], kprime: tuple[int, ...]) -> Cyclotomic:
    """<k, k'> = prod_{i<j} q_ij^(k'_i k_j)."""
    if len(k) != q.n or len(kprime) != q.n:
        raise ValueError("exponent vectors do not match the q-matrix rank")
    if q.is_minus_one():
        s = sum(kprime[i] * k[j] for i in range(q.n) for j in range(i + 1, q.n))
        return Cyclotomic.rational(-1 if s % 2 else 1)
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

    @staticmethod
    def zero(n: int) -> "QPolynomial":
        return QPolynomial(n)

    @staticmethod
    def monomial(k, coeff=1) -> "QPolynomial":
        return QPolynomial(len(k), {tuple(k): coeff})

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        out = dict(self.terms)
        for k, v in other.terms.items():
            cur = out.get(k)
            total = v if cur is None else cur + v
            if total.is_zero():
                out.pop(k, None)
            else:
                out[k] = total
        return QPolynomial(self.n, out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def scale(self, coeff) -> "QPolynomial":
        if not isinstance(coeff, Cyclotomic):
            coeff = Cyclotomic.rational(coeff)
        return QPolynomial(self.n, {k: v * coeff for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms.keys() == other.terms.keys() and all(
            v == other.terms[k] for k, v in self.terms.items()
        )

    def is_zero(self) -> bool:
        return not self.terms

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

    def to_json(self) -> list:
        from .cyclo import scalar_to_text

        return [
            {"exp": list(k), "coeff": scalar_to_text(self.terms[k])}
            for k in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True)
        ]

    def __repr__(self) -> str:
        return f"QPolynomial({self.to_text()!r})"


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
    return QPolynomial(f.n, out)


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
# a = <t, w(k)> mod N.


def _cocycle(pairs, k) -> tuple[int, int]:
    """(sign bit, c exponent) of the product of phi_ij^(c)(k) over the index
    pairs: phi_ij^(c)(k) = (-1)^(k_i k_j) c^(parity(k_i) - parity(k_j))."""
    sign = 0
    cexp = 0
    for i, j in pairs:
        sign += k[i] * k[j]
        cexp += (k[i] % 2) - (k[j] % 2)
    return sign % 2, cexp


def _c_key(cc):
    """The hashable key (order, nums, den) of c, None for the untwisted action."""
    return None if cc is None else (cc.order, cc.nums, cc.den)


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
        field_order = _field_order(cc, N)
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


def _by_perm(terms, n: int, N: int) -> dict:
    """perm -> (torus exponents, values) of the (element, value) terms."""
    members: dict = {}
    for elem, value in terms:
        if (elem.n, elem.N) != (n, N):
            raise ValueError("mixed ambients in operator")
        exps, values = members.setdefault(elem.perm, ([], []))
        exps.append(elem.exps)
        values.append(value)
    return members


def _period(counts: dict, N: int):
    """(generators, order, coset representatives with multiplicity) of the
    period group U = {u : counts[e + u] = counts[e] for every e} of a
    multiset of torus exponents, given as exponents -> multiplicity.

    U lies in E - e0 for the support E and any e0 in it, so the candidates
    e - e0 are tried in turn, skipping those already in the span of the
    generators found; each one that is a period joins the span."""
    if len(counts) == 1:  # one element's operator
        return (), 1, tuple(counts.items())

    def shift(e, u):
        return tuple((x + y) % N for x, y in zip(e, u))

    first = next(iter(counts))
    span = {(0,) * len(first)}
    gens = []
    for e in counts:
        u = tuple((x - y) % N for x, y in zip(e, first))
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
    return _twist_row(1, _c_key(_coerce_c(c)), *_cocycle(((i, j),), k))[0][0]


def phi_w_eval(c, perm: tuple[int, ...], k) -> Cyclotomic:
    """Product of phi_ij^(c)(k) over the inversions of the permutation."""
    return _twist_row(1, _c_key(_coerce_c(c)), *_cocycle(inversions(tuple(perm)), k))[0][0]


def act_c(c, g: MonomialElement, f: QPolynomial) -> QPolynomial:
    """The twisted action of a monomial matrix on a polynomial."""
    if f.n != g.n:
        raise ValueError("rank mismatch")
    c_key = _c_key(_coerce_c(c))
    pairs = inversions(g.perm)
    out: dict = {}
    for k, coeff in f.terms.items():
        image = perm_apply(g.perm, k)
        values = _twist_row(g.N, c_key, *_cocycle(pairs, k))[0]
        out[image] = coeff * values[_dot(g.exps, image) % g.N]
    return QPolynomial(f.n, out)


class _Entries(dict):
    """key -> entry of the terms of one permutation under one c, None for a
    zero entry; computed on first lookup and kept."""

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(key)
        return value


class _GroupSum:
    """Operator terms (element, coefficient) grouped by permutation, whose
    entries are kept per (c, permutation, key) across degrees and calls.

    The terms of permutation w that share one coefficient form a multiset E
    of torus exponents, and their entry at column k is the coefficient times
    (-1)^s c^b sum_{e in E} zeta_N^<e, w(k)>, which depends only on the key
    (w(k) mod N, s, b).  For the period group U of E, the sum is
    |U| [r orthogonal to U] sum_{rho in E/U} zeta_N^<rho, r> at r = w(k): one
    term per coset for a group sum (U is the torus) and for a class sum (U
    holds (1 - w)T)."""

    def __init__(self, terms, n: int, N: int):
        self.n, self.N = n, N
        self.by_perm = _by_perm(terms, n, N)
        self._parts = {}  # perm -> ((coefficient, generators of U, |U|, representatives), ...)
        for perm, (exps, values) in self.by_perm.items():
            shared: dict = {}  # coefficient -> (coefficient, exponents -> multiplicity)
            for e, v in zip(exps, values):
                coeff = v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v)
                counts = shared.setdefault((coeff.order, coeff.nums, coeff.den), (coeff, {}))[1]
                counts[e] = counts.get(e, 0) + 1
            self._parts[perm] = tuple((coeff, *_period(counts, N)) for coeff, counts in shared.values())
        self._tables: dict = {}  # (c key, perm) -> _Entries

    def _entries(self, cc, perm) -> _Entries:
        c_key = _c_key(cc)
        table = self._tables.get((c_key, perm))
        if table is None:
            field_order = _field_order(cc, self.N)
            plan = []  # (coefficient to multiply by or None, denominator, generators of U, (rep, weight) pairs)
            for coeff, gens, size, reps in self._parts[perm]:
                if coeff.is_rational() and field_order % coeff.order == 0:  # it scales the tally
                    plan.append((None, coeff.den, gens, tuple((rep, size * m * coeff.nums[0]) for rep, m in reps)))
                else:
                    plan.append((coeff, 1, gens, tuple((rep, size * m) for rep, m in reps)))
            table = _Entries(partial(_entry, self.N, c_key, field_order, plan))
            self._tables[c_key, perm] = table
        return table


def _entry(N: int, c_key, field_order: int, plan, key):
    """The entry at a column of the given key, from _GroupSum._entries's
    plan: per coefficient whose period group is orthogonal to w(k), the root
    exponents <rho, w(k)> of the coset representatives are tallied with
    their weights and mapped through (-1)^s c^b into Q(zeta_L)."""
    image, sign, cexp = key
    _, nums, den = _twist_row(N, c_key, sign, cexp)
    total = None
    for coeff, cden, gens, reps in plan:
        if any(_dot(image, u) % N for u in gens):
            continue
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
        if coeff is not None:
            value = coeff * value
        total = value if total is None else total + value
    return None if total is None or total.is_zero() else total


def group_sum_terms(G: FiniteMonomialGroup) -> _GroupSum:
    """The group sum of G as operator terms, grouped once per group."""
    return G.memo("group_sum", lambda: _GroupSum([(g, _ONE) for g in G.elements], G.n, G.N))


def class_sum_terms(G: FiniteMonomialGroup) -> list[_GroupSum]:
    """The conjugacy-class sums of G as operator terms, one per class of
    G.indexed().conjugacy_classes(), in that order; grouped once per group."""

    def build():
        return [
            _GroupSum([(G.elements[i], _ONE) for i in sorted(cls)], G.n, G.N)
            for cls in G.indexed().conjugacy_classes()
        ]

    return G.memo("class_sums", build)


def _terms_of(actor):
    """Normalize an operator argument to (terms, n, N)."""
    if isinstance(actor, MonomialElement):
        return [(actor, _ONE)], actor.n, actor.N
    if hasattr(actor, "items") and hasattr(actor, "n"):
        return list(actor.items()), actor.n, actor.N
    terms = list(actor)
    if not terms:
        raise ValueError("empty operator")
    head = terms[0][0]
    return terms, head.n, head.N


def operator_matrix(actor, c, degree: int) -> SparseMatrix:
    """Exact matrix of the actor on the degree slice, columns indexed by
    slice_monomials.  For group-algebra input this is the coefficient-weighted
    sum of the element matrices; each entry lies in the field the definition
    puts it in, Q(zeta_L) with L = _field_order(c, N) or the larger field of
    a coefficient."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if not isinstance(actor, _GroupSum):
        actor = _GroupSum(*_terms_of(actor))
    return _integer_sum_matrix(actor, _coerce_c(c), degree)


def _integer_sum_matrix(actor: _GroupSum, cc, degree: int) -> SparseMatrix:
    """The weighted sum of the element operators on the degree slice: per
    permutation w, column k holds the entry of its key at the row of w(k)."""
    dim = len(slice_monomials(actor.n, degree))
    matrix = SparseMatrix(dim, dim)
    placed = matrix.entries
    for perm in actor.by_perm:
        entries = actor._entries(cc, perm)
        rows, keys = _slice_images(perm, degree, actor.N)
        for col, (row, key) in enumerate(zip(rows, keys)):
            value = entries[key]
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
