"""Exact sparse linear algebra over cyclotomic scalars.

Rows and matrices are dictionaries keyed by hashable column labels; all
arithmetic is exact field arithmetic in Q(zeta_N).  The rank routine keeps
the pivot rows in reduced echelon form, which guarantees termination and
keeps fill-in local when the input has block structure.  An integer kernel
takes vectors over Q(zeta_N) one at a time, for a caller that stops at a
target rank, and eliminates their power-basis coordinates in plain
integers.

For full-rank certificates there is also a modular route: mapping zeta_N to
an order-N element of a prime field F_q (q = 1 mod N) is a ring map on the
cyclotomic integers, so a nonvanishing minor mod q is nonvanishing in
characteristic zero and full rank mod q proves full rank over the field.
The converse direction is not used anywhere.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

from .cyclo import Cyclotomic, cyclotomic_polynomial

# numpy is imported inside the F_q certificate, which no command calls, so
# no command loads it.


class SparseMatrix:
    """A sparse matrix with exact entries; zero entries are never stored."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries: dict | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {} if entries is None else entries  # (row, col) -> Cyclotomic

    def add(self, row: int, col: int, value: Cyclotomic) -> None:
        key = (row, col)
        cur = self.entries.get(key)
        total = value if cur is None else cur + value
        if total.is_zero():
            self.entries.pop(key, None)
        else:
            self.entries[key] = total

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        if self.entries.keys() != other.entries.keys():
            return False
        return all(v == other.entries[k] for k, v in self.entries.items())

    def columns(self) -> list[dict]:
        out = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return out


def _reduce_row(row: dict, pivots: dict) -> dict:
    """Fully reduce a row against reduced-echelon pivot rows."""
    while True:
        hit = None
        for col in row:
            if col in pivots:
                hit = col
                break
        if hit is None:
            return row
        factor = row[hit]
        prow = pivots[hit]
        for col, value in prow.items():
            cur = row.get(col)
            total = -factor * value if cur is None else cur - factor * value
            if total.is_zero():
                row.pop(col, None)
            else:
                row[col] = total


def sparse_rank(rows) -> int:
    """Rank of a list of sparse rows (dicts col -> Cyclotomic), exactly: the
    rows, shortest first, go into one reduced-echelon pivot set."""
    pivots: dict = {}
    live = [{c: v for c, v in row.items() if not v.is_zero()} for row in rows]
    for row in sorted(live, key=len):
        _insert_pivot(row, pivots)
    return len(pivots)


def _insert_pivot(row: dict, pivots: dict) -> bool:
    """Reduce the row against the reduced-echelon pivot rows and, if anything
    is left, add it as a new pivot row, clearing its pivot column from the
    others so the form stays reduced; whether the rank grew.  The row may be
    modified."""
    row = _reduce_row(row, pivots)
    if not row:
        return False
    pivot_col = min(row, key=repr)
    inv = row[pivot_col].inverse()
    normalized = {c: v * inv for c, v in row.items()}
    for prow in pivots.values():
        if pivot_col in prow:
            factor = prow[pivot_col]
            for col, value in normalized.items():
                cur = prow.get(col)
                total = -factor * value if cur is None else cur - factor * value
                if total.is_zero():
                    prow.pop(col, None)
                else:
                    prow[col] = total
    pivots[pivot_col] = normalized
    return True


# -- the integer kernel ---------------------------------------------------
#
# The line through a vector v over Q(zeta_L) is, over Q, spanned by the
# phi(L) multiples zeta_L^j v, j < phi(L); written in power-basis
# coordinates with the denominators cleared, they are integer rows.  The
# rank of a family of vectors over Q(zeta_L) is the rational rank of their
# rows divided by phi(L).  The rows are kept in echelon form, each
# primitive: reduced by fraction-free steps, then divided by its content.


def _insert_integer_pivot(row: list[int], pivots: dict) -> bool:
    """Reduce the integer row against the primitive echelon rows (leading
    column -> the row from that column on) by fraction-free steps and, if
    anything is left, add it, divided by its content and with a positive
    leading entry; whether the rank grew."""
    lead = 0  # the column of row[0]
    while True:
        for skip, x in enumerate(row):
            if x:
                break
        else:
            return False
        if skip:
            row = row[skip:]
            lead += skip
        prow = pivots.get(lead)
        if prow is None:
            break
        a, b = prow[0], row[0]
        g = gcd(a, b)
        a, b = a // g, b // g
        row = [a * x - b * y for x, y in zip(row, prow)]
    g = gcd(*row)
    if row[0] < 0:
        g = -g
    pivots[lead] = row if g == 1 else [x // g for x in row]
    return True


def _insert_field_column(column: dict, size: int, order: int, pivots: dict) -> bool:
    """Insert the vector over Q(zeta_order) with the given entries (index
    below size -> Cyclotomic) into the integer echelon rows as its phi(order)
    rows zeta^j v, entry i at coordinates i*phi .. i*phi + phi - 1; whether
    its rank over Q(zeta_order) grew.  The rows already inserted span a
    Q(zeta_order)-space, so v either lies in it, and so does every zeta^j v,
    or each of its rows raises the rational rank by one."""
    poly = cyclotomic_polynomial(order)
    deg = len(poly) - 1
    entries = [(i, v if v.order == order else v.lift(order)) for i, v in column.items()]
    den = lcm(*(v.den for _, v in entries))
    row = [0] * (size * deg)
    for i, v in entries:
        row[i * deg : (i + 1) * deg] = v.nums if v.den == den else [x * (den // v.den) for x in v.nums]
    if not _insert_integer_pivot(row, pivots):
        return False
    for _ in range(deg - 1):
        # times zeta: shift each entry's coordinates up, fold x^phi by poly
        shifted = []
        for start in range(0, len(row), deg):
            top = row[start + deg - 1]
            block = [0] + row[start : start + deg - 1]
            shifted += [x - top * p for x, p in zip(block, poly)] if top else block
        row = shifted
        _insert_integer_pivot(row, pivots)
    return True


def _certificate_prime(N: int, floor: int = 1_000_003) -> tuple[int, int]:
    """A prime q = 1 mod N above the floor, with an element of exact
    multiplicative order N in F_q."""
    q = floor + ((1 - floor) % N)
    while True:
        q += N
        if q % 2 and all(q % d for d in range(3, isqrt(q) + 1, 2)):
            break
    exponent = (q - 1) // N
    prime_parts = _prime_factors(N)
    for g in range(2, q):
        z = pow(g, exponent, q)
        if all(pow(z, N // r, q) != 1 for r in prime_parts):
            return q, z
    raise RuntimeError("no order-N element found (unreachable for prime q = 1 mod N)")


def _prime_factors(value: int) -> list[int]:
    out = []
    d = 2
    while d * d <= value:
        if value % d == 0:
            out.append(d)
            while value % d == 0:
                value //= d
        d += 1
    if value > 1:
        out.append(value)
    return out


def _reduce_mod(value: Cyclotomic, q: int, zpow) -> int | None:
    """The image of value in F_q under zeta_(value.order) -> z, given
    zpow[j] = z^j; None when the denominator of value is divisible by q."""
    den = value.den % q
    if den == 0:
        return None
    image = 0
    for j, x in enumerate(value.nums):
        if x:
            image += x * zpow[j]
    return image * pow(den, q - 2, q) % q


def modular_full_rank_certificate(rows, target: int) -> bool:
    """True only if the rows are certainly linearly independent over the
    cyclotomic field (and there are exactly target of them).

    Entries are sent through the reduction map Z[zeta_N] -> F_q; full rank of
    the image matrix proves full rank of the original.  A False answer is
    inconclusive and should fall back to the exact elimination.
    """
    import numpy as np

    rows = list(rows)
    if len(rows) != target:
        return False
    N = 1
    for row in rows:
        for v in row.values():
            N = lcm(N, v.order)
    q, z = _certificate_prime(N)
    zpow = [1] * N
    for j in range(1, N):
        zpow[j] = zpow[j - 1] * z % q
    columns: dict = {}
    data = []
    for row in rows:
        img = {}
        for col, v in row.items():
            idx = columns.setdefault(col, len(columns))
            acc = _reduce_mod(v.lift(N), q, zpow)
            if acc is None:
                return False  # prime collides with a denominator
            if acc:
                img[idx] = acc
        data.append(img)
    if len(columns) < target:
        return False
    A = np.zeros((len(rows), len(columns)), dtype=np.int64)
    for i, img in enumerate(data):
        for j, value in img.items():
            A[i, j] = value
    return _modq_rank(A, q) == target


def _modq_rank(A: "np.ndarray", q: int) -> int:
    import numpy as np

    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), q - 2, q)
        A[r] = A[r] * inv % q
        below = A[r + 1 :, c]
        hit = np.nonzero(below)[0]
        if len(hit):
            block = A[r + 1 :][hit]
            A[r + 1 :][hit] = (block - np.outer(below[hit], A[r])) % q
        r += 1
    return r
