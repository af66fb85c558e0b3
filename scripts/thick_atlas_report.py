#!/usr/bin/env python3
"""Print an atlas of the thick subgroups on the desk grid.

For every level m and rank n the script lists each thick subgroup with its
order, structural fingerprint and regular/singular status, and marks the
groups that fall outside the two standard families.  Useful for exploring
the classification by eye.
"""

import argparse

from mystica.classify import fingerprint, regular_singular
from mystica.groups import thick_family


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=3)
    args = parser.parse_args()
    for m in range(1, args.max_m + 1):
        for n in range(2, args.max_n + 1):
            found = thick_family(m, n)
            print(f"== level m={m}, rank n={n}: {len(found)} thick subgroups")
            for G in found:
                fp = fingerprint(G)
                reg = regular_singular(G)
                marker = "  <- outside the G/W families" if G.tag.kind == "generated" else ""
                print(
                    f"  {G.tag.label:12s} order {G.order:5d}  {reg.status:8s} "
                    f"center {fp.center_order:3d}  abelianization {fp.abelianization}{marker}"
                )


if __name__ == "__main__":
    main()
