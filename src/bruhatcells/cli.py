"""Command-line interface.

Subcommands: catalog, verify, query, hasse, oracle.  Exit codes follow one
contract everywhere: 0 all requested checks pass, 1 a mathematical check
failed (witness printed), 2 usage error or size guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .conjugacy import (
    _catalog_entries,
    verify_ascent_classes,
    verify_coxeter_bound,
    verify_subset_conjugacy,
    verify_twisted_minimum,
    verify_unique_max_classification,
)
from .coxeter import _RANK_LIMIT, CartanType
from .errors import GuardError
from .partitions import cycle_type
from .permutations import Permutation, length_order
from .sl_criteria import (
    JordanClass,
    bruhat_lower_set,
    dense_cell_involution,
    format_class_summary,
    involution_cell_meets,
    passes_corank_bound,
    weyl_class_inside,
)
from .oracle import (
    COMPLETE_PAIRS,
    intersection_table,
    validate_class,
)

USAGE_ERROR = 2
CHECK_FAILED = 1

# name -> (suite,).  Each suite guards its own size and raises GuardError;
# the tuple shape is kept for bench/tracing.py, which wraps entry[0].
_VERIFY_CHECKS = {
    "m-classification": (verify_unique_max_classification,),
    "ascent": (verify_ascent_classes,),
    "twisted-min": (verify_twisted_minimum,),
    "conjugate-j": (verify_subset_conjugacy,),
    "coxeter-bound": (verify_coxeter_bound,),
}


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _load_jordan(path: str) -> JordanClass:
    with open(path, "r", encoding="utf-8") as fh:
        return JordanClass.from_json_dict(json.load(fh))


def cmd_catalog(args) -> int:
    try:
        t = CartanType.from_string(args.type)
        members = _catalog_entries(t)
    except (ValueError, GuardError) as exc:
        return _fail_usage(str(exc))
    if args.format == "json":
        print(json.dumps({"type": str(t), "entries": members}, indent=2))
    else:
        print(f"classifying subsets and their involutions for {t} "
              f"({len(members)} entries):")
        for rec in members:
            subset = "{" + " ".join(map(str, rec["subset"])) + "}"
            print(f"  J={subset:<20} m={rec['element']:<24} length={rec['length']}")
    return 0


def cmd_verify(args) -> int:
    try:
        t = CartanType.from_string(args.type)
    except ValueError as exc:
        return _fail_usage(str(exc))
    named = args.checks != "all"
    if named:
        selected = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not selected:
            return _fail_usage(
                f"no checks named in {args.checks!r}; available: "
                f"{sorted(_VERIFY_CHECKS)} or 'all'"
            )
        unknown = [c for c in selected if c not in _VERIFY_CHECKS]
        if unknown:
            return _fail_usage(
                f"unknown checks {unknown}; available: {sorted(_VERIFY_CHECKS)} or 'all'"
            )
    else:
        selected = list(_VERIFY_CHECKS)
    reports = []
    skipped = []
    for name in selected:
        suite = _VERIFY_CHECKS[name][0]
        kwargs = {"allow_large": named and args.allow_large} if name == "ascent" else {}
        try:
            reports.append(suite(t, **kwargs))
        except GuardError as exc:
            if named:
                return _fail_usage(f"check {name} refused: {exc}")
            skipped.append((name, exc))
    if not reports:
        return _fail_usage(
            f"no verification suite fits {t}: rank {t.rank} > {_RANK_LIMIT}, and "
            f"|W({t})| = {t.weyl_order} is too large for the ascent suite"
        )
    ok = all(r.passed for r in reports)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "type": str(t),
                    "passed": ok,
                    "skipped": [name for name, _ in skipped],
                    "reports": [r.to_dict() for r in reports],
                },
                indent=2,
            )
        )
    else:
        for r in reports:
            print(r.to_text())
        for name, exc in skipped:
            print(f"# skipped {name}: {exc}")
    return 0 if ok else CHECK_FAILED


def cmd_query(args) -> int:
    try:
        c = _load_jordan(args.jordan)
        w = Permutation.parse(args.perm, c.n_plus_1)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(str(exc))
    lam = cycle_type(w)
    record = {
        "class": c.to_json_dict(),
        "summary": dict(format_class_summary(c)[1:]),
        "perm": w.cycle_string(),
        "cycle_type": str(lam),
        "full_weyl_class_inside": weyl_class_inside(c, lam),
    }
    if w.is_involution:
        record["involution"] = True
        record["meets_cell"] = involution_cell_meets(c, w)
    else:
        record["involution"] = False
        record["corank_bound_holds"] = passes_corank_bound(c, w)
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        for name, value in format_class_summary(c):
            print(f"{name}: {value}")
        print(f"perm: {w.cycle_string()}  (cycle type {lam})")
        if w.is_involution:
            verdict = "nonempty" if record["meets_cell"] else "empty"
            print(f"involution verdict: intersection with BwB is {verdict}")
        else:
            held = "holds" if record["corank_bound_holds"] else "fails"
            print(
                "non-involution: necessary corank bound "
                f"{held} (membership itself undecided at element level)"
            )
        inside = "yes" if record["full_weyl_class_inside"] else "no"
        print(f"entire Weyl class of this cycle type inside: {inside}")
    return 0


def cmd_hasse(args) -> int:
    try:
        c = _load_jordan(args.jordan)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(str(exc))
    if c.n_plus_1 > 6:
        return _fail_usage(
            f"n+1 = {c.n_plus_1} > 6 would produce an unreadable diagram"
        )
    lower = bruhat_lower_set(c)
    ordered = sorted(lower, key=length_order)
    lines = [
        "digraph bruhat_lower_set {",
        "  rankdir=BT;",
        f"  label=\"cells below {dense_cell_involution(c).cycle_string()} "
        f"for SL({c.n_plus_1}) {c.describe()}\";",
    ]
    name = {w: w.cycle_string() for w in ordered}
    for w in ordered:
        lines.append(f'  "{name[w]}";')
    for u in ordered:
        for v in sorted(_covers(u) & lower, key=length_order):
            lines.append(f'  "{name[u]}" -> "{name[v]}";')
    lines.append("}")
    text = "\n".join(lines)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _fail_usage(str(exc))
    else:
        print(text)
    return 0


def _covers(u: Permutation) -> set[Permutation]:
    """The elements covering u in the Bruhat order: u*(i j) for i < j with
    u(i) < u(j) and no u(k) between them for i < k < j (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, Section 2.1)."""
    im = u.images
    out = set()
    for i, x in enumerate(im):
        bound = len(im) + 1  # the least u(k) above u(i) so far
        for j in range(i + 1, len(im)):
            if x < im[j] < bound:
                bound = im[j]
                v = im[:i] + (bound,) + im[i + 1 : j] + (x,) + im[j + 1 :]
                out.add(Permutation(v))
    return out


def cmd_oracle(args) -> int:
    try:
        c = _load_jordan(args.jordan)
        # validate_class needs the lower set: its degree guard refuses first
        bruhat_lower_set(c)
        table = intersection_table(c, args.q, allow_large=args.allow_large)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, GuardError) as exc:
        return _fail_usage(str(exc))
    report = validate_class(c, args.q, table)
    fatal_kinds = {
        "sound": ("SOUND",),
        "complete": ("SOUND", "COMPLETE"),
        "all": ("SOUND", "COMPLETE"),
    }[args.checks]
    fatal = report.failed(fatal_kinds)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "class": c.to_json_dict(),
                    "q": args.q,
                    "orbit_size": table.orbit_size,
                    "cells": [w.cycle_string() for w in table.sorted_cells()],
                    "opposite_cells": [
                        w.cycle_string() for w in table.sorted_opposite()
                    ],
                    "bruhat_max": table.bruhat_max.cycle_string()
                    if table.bruhat_max
                    else None,
                    "complete_pair": (c.n_plus_1, args.q) in COMPLETE_PAIRS,
                    "report": report.to_dict(),
                    "exit_failures": [r.to_dict() for r in fatal],
                },
                indent=2,
            )
        )
    else:
        for name, value in format_class_summary(c):
            print(f"{name}: {value}")
        print(f"q: {args.q}")
        print(f"orbit size: {table.orbit_size}")
        print("cells met (BwB): " + ", ".join(w.cycle_string() for w in table.sorted_cells()))
        print(
            "opposite cells met (BwB^-): "
            + ", ".join(w.cycle_string() for w in table.sorted_opposite())
        )
        print(
            "bruhat max: "
            + (table.bruhat_max.cycle_string() if table.bruhat_max else "none")
        )
        print(report.to_text())
    return 0 if not fatal else CHECK_FAILED


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every call of ``main`` shares it."""
    parser = argparse.ArgumentParser(
        prog="bruhatcells",
        description="Conjugacy classes meeting Bruhat cells: catalogs, "
        "verification suites, SL(n+1) queries and a finite-field oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="classifying subsets and their involutions")
    p.add_argument("--type", required=True, help="Cartan type, e.g. A3, B4, E6")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="run exhaustive verification suites")
    p.add_argument("--type", required=True)
    p.add_argument(
        "--checks",
        default="all",
        help="comma-separated subset of "
        f"{sorted(_VERIFY_CHECKS)} or 'all'",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--allow-large", action="store_true", help="lift the ascent suite's |W| limit"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("query", help="cell membership verdicts for one class")
    p.add_argument("--jordan", required=True, help="JordanClass JSON file")
    p.add_argument("--perm", required=True, help="permutation, e.g. '(1 2)(3 4)'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("hasse", help="DOT diagram of the cells below the dense element")
    p.add_argument("--jordan", required=True)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("oracle", help="empirical cell tables over a prime field")
    p.add_argument("--jordan", required=True)
    p.add_argument("--q", type=int, required=True, help="prime field size")
    p.add_argument(
        "--checks",
        choices=("sound", "complete", "all"),
        default="sound",
        help="which failing checks set a nonzero exit code",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="walk orbits estimated at more than 10^6 torus classes",
    )
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
