"""Exact sparse linear algebra over cyclotomic scalars.

Rows and matrices are dictionaries keyed by hashable column labels; all
arithmetic is exact field arithmetic in Q(zeta_N).  The rank routine keeps
the pivot rows in reduced echelon form, which guarantees termination and
keeps fill-in local when the input has block structure.

For full-rank certificates there is also a modular route: mapping zeta_N to
an order-N element of a prime field F_q (q = 1 mod N) is a ring map on the
cyclotomic integers, so a nonvanishing minor mod q is nonvanishing in
characteristic zero and full rank mod q proves full rank over the field.
The converse direction is not used anywhere.

When the columns arrive in blocks (one block per degree slice), the modular
rank is kept incrementally: ModqLeftKernel holds a basis K of the left kernel
{y : y [B_0 ... B_d] = 0 mod q} and replaces it by ker(K B_(d+1)) K, so no
block is reduced twice (elimination over word-size prime fields as in Dumas,
Giorgi and Pernet, "FFLAS and FFPACK", ACM TOMS 35(3), 2008).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .cyclo import Cyclotomic

# numpy is imported inside the functions that use it, so that commands which
# never reach the F_q and exponent-array kernels start without loading it.


@dataclass
class SparseMatrix:
    """A sparse matrix with exact entries; zero entries are never stored."""

    nrows: int
    ncols: int
    entries: dict = field(default_factory=dict)  # (row, col) -> Cyclotomic

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

    def to_dense(self) -> list[list[Cyclotomic]]:
        zero = Cyclotomic.zero()
        return [
            [self.entries.get((r, c), zero) for c in range(self.ncols)]
            for r in range(self.nrows)
        ]


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
    """Rank of a list of sparse rows (dicts col -> Cyclotomic), exactly."""
    pivots: dict = {}
    # identical-support rows are reduced together first; this collapses the
    # large same-shape blocks produced by group operators before they meet
    # the global elimination
    buckets: dict = {}
    for row in rows:
        live = {c: v for c, v in row.items() if not v.is_zero()}
        if live:
            buckets.setdefault(frozenset(live), []).append(live)
    ordered = []
    for _, bucket in sorted(buckets.items(), key=lambda kv: (len(kv[0]), sorted(map(repr, kv[0])))):
        if len(bucket) == 1:
            ordered.extend(bucket)
            continue
        local: dict = {}
        for row in bucket:
            row = _reduce_row(row, local)
            if row:
                pivot_col = min(row, key=repr)
                inv = row[pivot_col].inverse()
                local[pivot_col] = {c: v * inv for c, v in row.items()}
        ordered.extend(local.values())
    for row in sorted(ordered, key=len):
        row = _reduce_row(dict(row), pivots)
        if not row:
            continue
        pivot_col = min(row, key=repr)
        inv = row[pivot_col].inverse()
        normalized = {c: v * inv for c, v in row.items()}
        # keep reduced echelon form: clear the new pivot column everywhere
        for pcol, prow in list(pivots.items()):
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
    return len(pivots)


def _certificate_prime(N: int, floor: int = 1_000_003) -> tuple[int, int]:
    """A prime q = 1 mod N above the floor, with an element of exact
    multiplicative order N in F_q."""
    q = floor + ((1 - floor) % N)
    while True:
        q += N
        if q % 2 and all(q % d for d in range(3, int(q**0.5) + 1, 2)):
            break
    exponent = (q - 1) // N
    prime_parts = _prime_factors(N)
    for g in range(2, q):
        z = pow(g, exponent, q)
        if z == 1:
            continue
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


def modq_left_kernel(A: "np.ndarray", q: int) -> "np.ndarray":
    """Rows spanning the left kernel {y : y A = 0 mod q} of an int64 matrix
    with entries in [0, q); A itself is not modified.

    Row-by-row elimination on [A | I]: each row is cleared by the pivots of
    the rows above it, and a row whose A part is then zero carries a kernel
    vector in its I part.  Entries stay below q, so every product fits in
    int64 for q < 2**31.
    """
    import numpy as np

    nrows, ncols = A.shape
    work = np.hstack([A, np.eye(nrows, dtype=np.int64)])
    kernel = []
    for i in range(nrows):
        row = work[i]
        nz = np.flatnonzero(row[:ncols])
        if not len(nz):
            kernel.append(i)
            continue
        col = nz[0]
        row[:] = row * pow(int(row[col]), q - 2, q) % q
        hit = i + 1 + np.flatnonzero(work[i + 1 :, col])
        if len(hit):
            work[hit] = (work[hit] - np.outer(work[hit, col], row)) % q
    return work[kernel, ncols:]


class ModqLeftKernel:
    """The left kernel mod q of a matrix whose column blocks arrive one at a
    time: basis rows y with y [B_0 ... B_d] = 0, started at the identity.
    The rank of the blocks seen so far is nrows - len(basis)."""

    def __init__(self, nrows: int, q: int):
        import numpy as np

        if nrows * (q - 1) ** 2 >= 2**63:
            raise ValueError(f"q={q} is too large for int64 products over {nrows} rows")
        self.nrows = nrows
        self.q = q
        self.basis = np.eye(nrows, dtype=np.int64)

    def extend(self, block: "np.ndarray") -> None:
        """Add the columns of block (nrows x k, entries in [0, q))."""
        if len(self.basis):
            image = self.basis @ block % self.q
            self.basis = modq_left_kernel(image, self.q) @ self.basis % self.q

    @property
    def rank(self) -> int:
        return self.nrows - len(self.basis)
