"""Command-line interface.

Subcommands build groups, run the counterpart construction and its
equivalence report, compute invariant dimensions against the free-algebra
series, test abstract isomorphism of a group with its counterpart, and run
the full desk-scale verification grid.  Output is deterministic: identical
arguments produce identical bytes.  Exit codes: 0 pass, 1 verification
failure, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cyclo import parse_scalar
from .groups import CapExceededError, enumerate_thick, group_size_cap, make_gmpn, make_w, mu_group

# Each command imports the rest of what it runs inside its body, so a query
# loads and compiles only the modules it uses.


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _group_payload(G) -> dict:
    data = G.to_json()
    return {"group": data, "label": G.tag.label, "order": G.order, "elements": [a.to_json() for a in G.elements]}


def _group_lines(G) -> list[str]:
    lines = [f"{G.tag.label}  order {G.order}  ambient mu_{G.N}^{G.n} : S_{G.n}"]
    lines.extend("  " + a.to_text() for a in G.elements)
    return lines


def _degree(args) -> int:
    from .qpoly import default_truncation_degree

    if args.degree is None:
        return default_truncation_degree(args.m, args.p, args.n)
    return args.degree


def _build_group(args) -> "FiniteMonomialGroup":
    if args.cprime is not None:
        return make_w(args.m, args.cprime, args.n)
    return make_gmpn(args.m, args.p, args.n)


def cmd_group(args) -> int:
    G = _build_group(args)
    if args.format == "json":
        _emit_json(_group_payload(G))
    else:
        _emit(_group_lines(G))
    return 0


def cmd_thick(args) -> int:
    found = enumerate_thick(args.m, args.n)
    if args.format == "json":
        _emit_json([_group_payload(G) for G in found])
    else:
        lines = [f"thick subgroups at level {args.m}, rank {args.n}: {len(found)}"]
        for G in found:
            lines.append(f"  {G.tag.label}  order {G.order}")
        _emit(lines)
    return 0


def cmd_mu(args) -> int:
    G = make_gmpn(args.m, args.p, args.n)
    mu = mu_group(G)
    if args.format == "json":
        _emit_json(_group_payload(mu))
    else:
        _emit([f"counterpart of {G.tag.label}:"] + _group_lines(mu))
    return 0


def cmd_equiv(args) -> int:
    from .mystic import mystic_equiv_check

    G = make_gmpn(args.m, args.p, args.n)
    mu = mu_group(G)
    D = _degree(args)
    c = parse_scalar(args.c)
    report = mystic_equiv_check(G, 0, mu, c, D)
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        lines = [f"operator equivalence of ({G.tag.label}, untwisted) and ({mu.tag.label}, c={args.c}), degrees 0..{D}"]
        for d, flag in enumerate(report.per_degree):
            lines.append(f"  degree {d:2d}: {'equal' if flag else 'DIFFERENT'}")
        lines.append(f"VERDICT: {'equivalent' if report.verdict else 'not equivalent'}")
        _emit(lines)
    return 0 if report.verdict else 1


def cmd_invariants(args) -> int:
    from .qpoly import (
        QMatrix,
        commute_check,
        fundamental_invariants,
        hilbert_free,
        invariant_degrees,
        invariant_dimension,
    )

    G = make_gmpn(args.m, args.p, args.n)
    D = _degree(args)
    polys = fundamental_invariants(args.m, args.p, args.n)
    commute = commute_check(QMatrix.minus_one(args.n), polys)
    series = hilbert_free(invariant_degrees(args.m, args.p, args.n), D)
    plus_dims = [invariant_dimension(G, 0, d) for d in range(D + 1)]
    rows = {"series": series, "untwisted": plus_dims}
    verdict = plus_dims == series
    if args.m % 2 == 0:
        mu = mu_group(G)
        minus_dims = [invariant_dimension(mu, 1, d) for d in range(D + 1)]
        rows["twisted"] = minus_dims
        verdict = verdict and minus_dims == series and commute
    payload = {
        "m": args.m,
        "p": args.p,
        "n": args.n,
        "D": D,
        "generators": [poly.to_text() for poly in polys],
        "generators_commute": commute,
        "dimensions": rows,
        "verdict": verdict,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        lines = [f"fundamental invariants of {G.tag.label}:"]
        lines.extend(f"  {poly.to_text()}" for poly in polys)
        lines.append(f"pairwise commuting under the sign twist: {commute}")
        lines.append(f"free series   : {series}")
        lines.append(f"untwisted dims: {plus_dims}")
        if "twisted" in rows:
            lines.append(f"twisted dims  : {rows['twisted']}")
        lines.append(f"VERDICT: {'match' if verdict else 'MISMATCH'}")
        _emit(lines)
    return 0 if verdict else 1


def cmd_iso(args) -> int:
    from .classify import ISO_CAP, isomorphic

    G = make_gmpn(args.m, args.p, args.n)
    mu = mu_group(G)
    answer = isomorphic(G, mu, ISO_CAP if args.cap is None else args.cap)
    if args.format == "json":
        _emit_json({"m": args.m, "p": args.p, "n": args.n, "isomorphic": answer})
    else:
        verb = "isomorphic" if answer else "not isomorphic"
        _emit([f"{G.tag.label} and its counterpart {mu.tag.label} are {verb} as abstract groups"])
    return 0


def _verify_config(args) -> "VerifyConfig":
    """The verify-all bounds: each option left unset keeps VerifyConfig's default."""
    from .verify import VerifyConfig

    given = {name: getattr(args, name) for name in VerifyConfig._fields}
    return VerifyConfig(**{name: value for name, value in given.items() if value is not None})


def cmd_verify_all(args) -> int:
    from .verify import run_all

    results = run_all(_verify_config(args))
    results.sort(key=lambda r: (r.check, json.dumps(r.params, sort_keys=True)))
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        _emit_json([r.to_json() for r in results])
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            detail = f"  [{r.detail}]" if r.detail and not r.passed else ""
            lines.append(f"[{status}] {r.check}: {params}{detail}")
        lines.append(f"checks: {len(results)}, failures: {len(failures)}")
        _emit(lines)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mystica",
        description="exact constructions and desk-scale verification for "
        "monomial reflection groups and their det-twisted counterparts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_params(p):
        p.add_argument("--m", type=int, required=True, help="order of the root subgroup")
        p.add_argument("--p", type=int, default=1, help="index divisor, p | m")
        p.add_argument("--n", type=int, required=True, help="rank")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("group", help="build a group and print it")
    add_group_params(p)
    p.add_argument("--cprime", type=int, default=None, help="build the det-filtered group with this C' order instead")
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("thick", help="enumerate the thick subgroups of G(m,1,n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_thick)

    p = sub.add_parser("mu", help="compute the det-twisted counterpart of G(m,p,n)")
    add_group_params(p)
    p.set_defaults(fn=cmd_mu)

    p = sub.add_parser("equiv", help="operator-equivalence report for G(m,p,n) and its counterpart")
    add_group_params(p)
    p.add_argument("--degree", type=int, default=None, help="truncation degree")
    p.add_argument(
        "--c",
        default="1",
        help="action parameter for the counterpart side, as a scalar literal "
        "(default 1, the sign-twisted action; 0 selects the untwisted action); "
        "a negative literal takes the = form, --c=-3/6",
    )
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("invariants", help="invariant dimensions against the free series, plus the commuting check")
    add_group_params(p)
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("iso", help="abstract isomorphism of G(m,p,n) with its counterpart")
    add_group_params(p)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("verify-all", help="run the full verification grid")
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify_all)

    return parser


def _validate(args) -> str | None:
    try:
        group_size_cap()
    except ValueError as exc:
        return str(exc)
    for name in ("m", "p", "cprime", "n", "cap", "max_m", "max_n"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            return f"{name} must be a positive integer"
    degree = getattr(args, "degree", None)
    if degree is not None and degree < 0:
        return "degree must be a nonnegative integer"
    m = getattr(args, "m", None)
    p = getattr(args, "p", None)
    if m is not None and p is not None and m % p != 0:
        return f"p={p} must divide m={m}"
    cprime = getattr(args, "cprime", None)
    if m is not None and cprime is not None and m % cprime != 0:
        return f"cprime={cprime} must divide m={m}"
    if args.command in ("mu", "equiv", "iso") and m is not None and m % 2 != 0:
        return f"m={m} must be even: odd-level groups have no det-twisted counterpart"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    problem = _validate(args)
    if problem:
        sys.stderr.write(f"mystica: {problem}\n")
        return 2
    try:
        return args.fn(args)
    except CapExceededError as exc:
        sys.stderr.write(f"mystica: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"mystica: {exc}\n")
        return 2
    except Exception as exc:
        # never a traceback, and never exit 1, which means a refuted check
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        sys.stderr.write(f"mystica: internal error: {detail}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
