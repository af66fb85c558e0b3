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

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .cyclo import Cyclotomic, _make
from .groups import FiniteMonomialGroup
from .linalg import SparseMatrix, sparse_rank
from .monomial import MonomialElement, perm_apply

# numpy is imported inside the functions that use it, so that commands which
# never reach the exponent-array kernels start without loading it.

_ONE = Cyclotomic.one()


def _coerce_c(c):
    """None for the untwisted action, otherwise an invertible Cyclotomic;
    a rational c is kept at field order 1."""
    if c is None:
        return None
    if isinstance(c, (int, Fraction)):
        if c == 0:
            return None
        return Cyclotomic.rational(c)
    if c.is_zero():
        return None
    if c.is_rational() and c.order != 1:
        return Cyclotomic.rational(c.rational_value())
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

    @staticmethod
    def sign_matrix(n: int, sign: int) -> "QMatrix":
        value = Cyclotomic.rational(sign)
        one = Cyclotomic.one()
        return QMatrix(n, [[one if i == j else value for j in range(n)] for i in range(n)])

    @staticmethod
    def minus_one(n: int) -> "QMatrix":
        return QMatrix.sign_matrix(n, -1)

    @staticmethod
    def plus_one(n: int) -> "QMatrix":
        return QMatrix.sign_matrix(n, 1)

    def is_minus_one(self) -> bool:
        return all(
            self.entries[i][j] == (1 if i == j else -1)
            for i in range(self.n)
            for j in range(self.n)
        )


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

    @staticmethod
    def variable(i: int, n: int, power: int = 1) -> "QPolynomial":
        """x_i^power with one-based index i."""
        k = [0] * n
        k[i - 1] = power
        return QPolynomial(n, {tuple(k): 1})

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
# w, and zeta_N^a = prod_j t_{w(j)}^(k_j) = t^(w(k)) is the torus root.


def _cocycle(pairs, k) -> tuple[int, int]:
    """(sign bit, c exponent) of the product of phi_ij^(c)(k) over the index
    pairs: phi_ij^(c)(k) = (-1)^(k_i k_j) c^(parity(k_i) - parity(k_j))."""
    sign = 0
    cexp = 0
    for i, j in pairs:
        sign += k[i] * k[j]
        cexp += (k[i] % 2) - (k[j] % 2)
    return sign % 2, cexp


def _scalar(cc, N: int, sign: int, cexp: int, root_exp: int) -> Cyclotomic:
    """(-1)^sign * zeta_N^root_exp * c^cexp in Q(zeta_L), L = lcm(N, ord c).
    The untwisted action (cc None) has no cocycle and stays in Q(zeta_N)."""
    field_order = _field_order(cc, N)
    out = Cyclotomic.root(field_order, root_exp * (field_order // N))
    if cc is None:
        return out
    if cexp:
        out = out * cc**cexp
    return -out if sign else out


@lru_cache(maxsize=None)
def _inversions(perm: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    n = len(perm)
    return tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
    )


def _root_exponents(exps: "np.ndarray", images) -> "np.ndarray":
    """The unreduced exponents a with t^(w(k)) = zeta_N^a: entry (i, j) for
    the monomial w(k) = images[i] and the element t*w whose torus exponents
    are exps[j]."""
    import numpy as np

    return np.asarray(images, dtype=np.int64).reshape(-1, exps.shape[1]) @ exps.T


@lru_cache(maxsize=None)
def _slice_images(perm: tuple[int, ...], degree: int):
    """Per column k of slice_monomials, as read-only arrays: the rows of
    w(k), the monomials w(k) as rows, and the sign bits and c exponents of
    the cocycle."""
    import numpy as np

    basis = slice_monomials(len(perm), degree)
    pos = {k: idx for idx, k in enumerate(basis)}
    pairs = _inversions(perm)
    table = [(pos[perm_apply(perm, k)],) + _cocycle(pairs, k) for k in basis]
    rows, signs, cexps = np.array(table, dtype=np.int64).T
    out = (rows, np.array(basis, dtype=np.int64)[rows], signs, cexps)
    for array in out:
        array.flags.writeable = False
    return out


def _by_perm(terms, n: int, N: int) -> dict:
    """perm -> (torus exponents, one row per element, and values) of the
    (element, value) terms."""
    import numpy as np

    members: dict = {}
    for elem, value in terms:
        if (elem.n, elem.N) != (n, N):
            raise ValueError("mixed ambients in operator")
        members.setdefault(elem.perm, []).append((elem.exps, value))
    return {
        perm: (np.array([exps for exps, _ in group], dtype=np.int64), [value for _, value in group])
        for perm, group in members.items()
    }


def phi_eval(c, i: int, j: int, k) -> Cyclotomic:
    """phi_ij^(c)(k) = (-1)^(k_i k_j) c^(parity(k_i) - parity(k_j)); indices zero-based."""
    return _scalar(_coerce_c(c), 1, *_cocycle(((i, j),), k), 0)


def phi_w_eval(c, perm: tuple[int, ...], k) -> Cyclotomic:
    """Product of phi_ij^(c)(k) over the inversions of the permutation."""
    return _scalar(_coerce_c(c), 1, *_cocycle(_inversions(tuple(perm)), k), 0)


def act_c(c, g: MonomialElement, f: QPolynomial) -> QPolynomial:
    """The twisted action of a monomial matrix on a polynomial."""
    import numpy as np

    if f.n != g.n:
        raise ValueError("rank mismatch")
    cc = _coerce_c(c)
    pairs = _inversions(g.perm)
    images = [perm_apply(g.perm, k) for k in f.terms]
    roots = _root_exponents(np.array([g.exps], dtype=np.int64), images)[:, 0].tolist()
    out: dict = {}
    for (k, coeff), image, root_exp in zip(f.terms.items(), images, roots):
        out[image] = coeff * _scalar(cc, g.N, *_cocycle(pairs, k), root_exp)
    return QPolynomial(f.n, out)


class _GroupSum:
    """The sum of a list of elements of G as operator terms (element, 1)
    grouped by permutation, all sharing one coefficient object, so
    operator_matrix tests its integrality once."""

    def __init__(self, G: FiniteMonomialGroup, elements):
        self.n, self.N = G.n, G.N
        self.by_perm = _by_perm(((g, _ONE) for g in elements), G.n, G.N)


def group_sum_terms(G: FiniteMonomialGroup) -> _GroupSum:
    """The group sum of G as operator terms, grouped once per group."""
    return G.memo("group_sum", lambda: _GroupSum(G, G.elements))


def class_sum_terms(G: FiniteMonomialGroup) -> list[_GroupSum]:
    """The conjugacy-class sums of G as operator terms, one per class of
    G.indexed().conjugacy_classes(), in that order; grouped once per group."""

    def build():
        return [_GroupSum(G, [G.elements[i] for i in sorted(cls)]) for cls in G.indexed().conjugacy_classes()]

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
    if isinstance(actor, _GroupSum):
        groups, n, N = actor.by_perm, actor.n, actor.N
    else:
        terms, n, N = _terms_of(actor)
        groups = _by_perm(terms, n, N)
    return _integer_sum_matrix(groups, _coerce_c(c), n, N, degree)


def _integer_sum_matrix(groups, cc, n: int, N: int, degree: int) -> SparseMatrix:
    """The weighted sum of the element operators on the degree slice, from
    _by_perm's perm -> (torus exponents, coefficients).

    Every element scalar is (-1)^s c^b zeta_N^a, and (s, b) depend only on
    the permutation and the column, so per permutation and column the root
    exponents a are tallied with integer weights: one tally for the integer
    coefficients of at most 31 bits in Q(zeta_L), and one for each other
    coefficient, with weight 1, which multiplies its tally's value.  The
    integer map of (-1)^s c^b from _factor_maps takes a tally to its value."""
    import numpy as np

    dim = len(slice_monomials(n, degree))
    field_order = _field_order(cc, N)
    maps, den, largest = _factor_maps(N, n, None if cc is None else (cc.order, cc.nums, cc.den))
    weights: dict = {}  # id(coefficient) -> (tally class, integer weight)
    multipliers = [None]  # tally class -> its coefficient; class 0 holds the integers
    matrix = SparseMatrix(dim, dim)
    for perm, (exps, coeffs) in groups.items():
        for v in coeffs:
            if id(v) not in weights:
                coeff = v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v)
                if coeff.is_rational() and coeff.den == 1 and abs(coeff.nums[0]) < 2**31 and field_order % coeff.order == 0:
                    weights[id(v)] = (0, coeff.nums[0])
                else:
                    weights[id(v)] = (len(multipliers), 1)
                    multipliers.append(coeff)
        classes, cints = zip(*[weights[id(v)] for v in coeffs])
        slots = {k: i for i, k in enumerate(dict.fromkeys(classes))}  # the classes present here
        rows, images, signs, cexps = _slice_images(perm, degree)
        tally = np.zeros((dim, len(slots), N), dtype=np.int64)
        roots = _root_exponents(exps, images) % N
        np.add.at(tally, (np.arange(dim)[:, None], [slots[k] for k in classes], roots), cints)
        factor_maps = maps[signs, cexps]
        if sum(map(abs, cints)) * largest >= 2**63:  # values past int64: Python ints
            tally, factor_maps = tally.astype(object), factor_maps.astype(object)
        nums = np.matmul(tally, factor_maps).reshape(dim * len(slots), -1).tolist()
        rows = rows.tolist()
        for (col, k), vec in zip(product(range(dim), slots), nums):
            if any(vec):
                value = _make(field_order, vec, den)
                matrix.add(rows[col], col, value if k == 0 else multipliers[k] * value)
    return matrix


@lru_cache(maxsize=64)
def _factor_maps(N: int, n: int, c_key):
    """The factors (-1)^s c^b, |b| <= P = n(n-1)/2, of the element scalars as
    integer maps, for c = _make(*c_key), or None for the untwisted action:
    (maps, den, largest), where row a of maps[s, b] (a negative b indexes
    from the end) holds the numerators of (-1)^s c^b zeta_N^a in Q(zeta_L)
    over the common denominator den, and largest bounds every numerator."""
    import numpy as np

    cc = None if c_key is None else _make(*c_key)
    P = n * (n - 1) // 2
    values = [[[_scalar(cc, N, s, b, a) for a in range(N)] for b in range(-P, P + 1)] for s in (0, 1)]
    den = lcm(*(v.den for block in values for row in block for v in row))
    nums = [[[[x * (den // v.den) for x in v.nums] for v in row] for row in block[P:] + block[:P]] for block in values]
    largest = max(abs(x) for block in nums for row in block for vec in row for x in vec)
    return np.array(nums, dtype=np.int64 if largest < 2**63 else object), den, largest


# -- invariants --------------------------------------------------------


class DimensionMismatchError(RuntimeError):
    """The two invariant-dimension computations disagreed."""


def slice_trace(G: FiniteMonomialGroup, c, degree: int) -> Cyclotomic:
    """Trace of the group sum's operator on the degree slice: each fixed
    monomial of each element contributes (-1)^s c^b zeta_N^a, so the keys
    (s, b, a mod N) are counted with integer multiplicity and each distinct
    scalar is built once."""
    import numpy as np

    cc = _coerce_c(c)
    counts: dict = {}
    for perm, (exps, _) in group_sum_terms(G).by_perm.items():
        rows, images, signs, cexps = _slice_images(perm, degree)
        fixed = np.flatnonzero(rows == np.arange(len(rows)))
        all_roots = (_root_exponents(exps, images[fixed]) % G.N).tolist()
        for sign, cexp, roots in zip(signs[fixed].tolist(), cexps[fixed].tolist(), all_roots):
            if cc is None:
                sign = cexp = 0
            for root_exp in roots:
                key = (sign, cexp, root_exp)
                counts[key] = counts.get(key, 0) + 1
    trace = Cyclotomic.zero()
    for key, count in counts.items():
        trace = trace + _scalar(cc, G.N, *key) * count
    return trace


def invariant_dimension(G: FiniteMonomialGroup, c, degree: int) -> int:
    """Dimension of the fixed space of the degree slice, computed both as the
    rank of the symmetrizer matrix and as the trace average; the two must
    agree exactly."""
    matrix = operator_matrix(group_sum_terms(G), c, degree)
    rank = sparse_rank(matrix.columns())
    average = slice_trace(G, c, degree) / G.order
    if not average.is_rational() or average.rational_value().denominator != 1:
        raise DimensionMismatchError(f"trace average {average!r} is not an integer")
    traced = int(average.rational_value())
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
