#!/usr/bin/env python3
"""Table the degree at which the element operators become linearly
independent, for levels beyond the acceptance grid.

For each level m in 5, 6 the script takes every rank-2 group G(m,p,2), and
W(m,d,2) for even m, plus the rank-3 groups of order at most ISO_CAP, and
prints the exact saturation degree of faithfulness_saturation_degree for
c = 0, 1 and zeta4 next to the bound n*N that criterion 9 tests and the sum
of (d_i - 1) over the fundamental invariant degrees (for W(m,d,n), those of its
counterpart G(m,m/d,n)).  This is a report, not an acceptance check.

    PYTHONPATH=src python3 scripts/saturation_report.py
"""

import time
from math import factorial

from mystica.classify import ISO_CAP
from mystica.cyclo import cyc_make
from mystica.groups import make_gmpn, make_w
from mystica.mystic import faithfulness_saturation_degree
from mystica.qpoly import invariant_degrees
from mystica.verify import SATURATION_SLACK

C_VALUES = (("0", 0), ("1", 1), ("zeta4", cyc_make(4, 1)))
LEVELS = (5, 6)
MAX_ORDER = ISO_CAP


def groups(m: int):
    """(group, invariant degrees) for the ranks and orders the report covers."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    for n in (2, 3):
        for p in divisors:
            if n == 2 or m**n * factorial(n) // p <= MAX_ORDER:
                yield make_gmpn(m, p, n), invariant_degrees(m, p, n)
        if m % 2 == 0:
            for d in divisors:
                if n == 2 or m ** (n - 1) * d * factorial(n) <= MAX_ORDER:
                    yield make_w(m, d, n), invariant_degrees(m, m // d, n)


def main() -> None:
    print(f"{'group':10s} {'order':>5s} {'n*N':>4s} {'sum(d_i-1)':>10s}  " + "  ".join(f"{'c=' + tag:>8s}" for tag, _ in C_VALUES) + "  seconds")
    seen = set()
    for m in LEVELS:
        for G, degrees in groups(m):
            key = (G.n, G.N, G.element_set())
            if key in seen:
                continue
            seen.add(key)
            bound = G.n * G.N
            top = bound + SATURATION_SLACK
            start = time.perf_counter()
            cells = []
            for _, c in C_VALUES:
                d, _ = faithfulness_saturation_degree(G, c, top)
                cells.append(f"> {top}" if d is None else str(d))
            elapsed = time.perf_counter() - start
            print(
                f"{G.tag.label:10s} {G.order:5d} {bound:4d} {sum(d - 1 for d in degrees):10d}  "
                + "  ".join(f"{cell:>8s}" for cell in cells)
                + f"  {elapsed:7.1f}"
            )


if __name__ == "__main__":
    main()
