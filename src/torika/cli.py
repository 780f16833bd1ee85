"""Command line front end.

One subcommand per pipeline stage: validate, smooth, truncate,
standard, invariants, cohomology, check-int and report.  Reports go to
stdout (aligned text by default, JSON with --format json); every error
goes to stderr and flips the exit status to 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cohomology import ORDER_LIMIT, RANK_LIMIT, _check_limits, cohomology
from .datum import (_as_int, _require, build_action, datum_from_fan,
                    dump_datum, load_datum)
from .errors import DatumError, TorikaError
from .fans import is_smooth_cone, validate_fan
from .groups import GROUP_PRESETS, group_preset
from .invariants import full_report
from .linalg import FinAbGroup
from .structure import (character_lattice, pure_divisorial_truncation,
                        rho_map, tropical_int_check)


def _group_dict(g: FinAbGroup) -> dict:
    return {"free_rank": g.free_rank,
            "invariant_factors": list(g.torsion),
            "pretty": str(g)}


def _emit_json(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_validate(args) -> int:
    status = 0
    for path in args.files:
        datum = load_datum(path, normalize_rays=args.normalize_rays,
                           require_valid=False)
        report = validate_fan(datum.fan)
        if args.format == "json":
            _emit_json({"file": path, "valid": report.ok,
                        "problems": list(report.problems),
                        "rays": len(datum.fan.rays),
                        "cones": len(datum.fan.cones)})
        elif report.ok:
            print(f"{path}: valid fan ({len(datum.fan.rays)} rays, "
                  f"{len(datum.fan.cones)} cones)")
        else:
            print(f"{path}: INVALID")
            for problem in report.problems:
                print(f"  - {problem}")
        if not report.ok:
            status = 1
    return status


def _cmd_smooth(args) -> int:
    for path in args.files:
        datum = load_datum(path, normalize_rays=args.normalize_rays)
        verdicts = [(c.rays, is_smooth_cone(datum.fan, c))
                    for c in datum.fan.cones]
        overall = all(v for _, v in verdicts)
        if args.format == "json":
            _emit_json({"file": path, "smooth": overall,
                        "cones": [{"rays": list(r), "smooth": v}
                                  for r, v in verdicts]})
        else:
            for rays, verdict in verdicts:
                word = "smooth" if verdict else "NOT smooth"
                print(f"{path}: cone {rays}: {word}")
            print(f"{path}: fan is {'smooth' if overall else 'NOT smooth'}")
    return 0


def _cmd_truncate(args) -> int:
    for path in args.files:
        datum = load_datum(path, normalize_rays=args.normalize_rays)
        truncated = pure_divisorial_truncation(datum.fan)
        name = (datum.name + "-truncated") if datum.name else "truncated"
        print(dump_datum(datum_from_fan(truncated, name)))
    return 0


def _cmd_standard(args) -> int:
    for path in args.files:
        datum = load_datum(path, normalize_rays=args.normalize_rays)
        rho = rho_map(pure_divisorial_truncation(datum.fan))
        name = (datum.name + "-standard") if datum.name else "standard"
        std = datum_from_fan(rho.source, name)
        doc = {"file": path,
               "standard": json.loads(dump_datum(std)),
               "rho_matrix": rho.matrix.to_rows()}
        if args.format == "json":
            _emit_json(doc)
        else:
            print(f"{path}: standard fan of rank {rho.source.rank}")
            print(dump_datum(std))
            print("rho matrix rows:")
            for row in rho.matrix.to_rows():
                print(f"  {row}")
    return 0


def _cmd_invariants(args) -> int:
    for path in args.files:
        datum = load_datum(path, normalize_rays=args.normalize_rays)
        rep = full_report(datum.fan)
        if args.format == "json":
            _emit_json({"file": path,
                        "class_group": _group_dict(rep.class_group),
                        "brauer_kernel": _group_dict(rep.brauer_kernel),
                        "splitting_group": rep.splitting_group})
        else:
            print(f"{path}: class_group = {rep.class_group}")
            print(f"{path}: brauer_kernel = {rep.brauer_kernel} "
                  f"(splitting group {rep.splitting_group})")
    return 0


def _inline_lattice(args, limits):
    """The --lattice JSON as a GLattice; every refusal names --lattice."""
    if args.splitting_group is None:
        raise TorikaError("--lattice needs --splitting-group")
    try:
        spec = json.loads(args.lattice)
    except json.JSONDecodeError as exc:
        raise TorikaError(f"--lattice is not valid JSON: {exc}") from None
    _require(isinstance(spec, dict) and "rank" in spec,
             '--lattice expects {"rank": n, "action": ...}')
    unknown = sorted(set(spec) - {"rank", "action"})
    _require(not unknown, f"--lattice has unknown keys {unknown}")
    rank = _as_int(spec["rank"], "--lattice field 'rank'")
    _require(rank >= 0, f"--lattice field 'rank' must be nonnegative, got {rank}")
    group = group_preset(args.splitting_group)
    if limits is not None:  # refused before the action is built
        _check_limits(group, rank, *limits)
    try:
        return build_action(group, rank, spec.get("action"))
    except DatumError as exc:
        raise TorikaError(f"--lattice: {exc}") from None


def _cmd_cohomology(args) -> int:
    jobs = []
    # H^0 builds no d^1, so it takes no size guard
    limits = (args.order_limit, args.rank_limit) if args.degree else None
    if args.lattice is not None:
        jobs.append(("<inline>", _inline_lattice(args, limits)))
    for path in args.files:
        datum = load_datum(path, normalize_rays=args.normalize_rays, limits=limits)
        jobs.append((path, character_lattice(datum.fan)))
    if not jobs:
        raise TorikaError("cohomology needs a datum file or --lattice")
    for label, lattice in jobs:
        result = cohomology(lattice, args.degree,
                            order_limit=args.order_limit,
                            rank_limit=args.rank_limit)
        if args.format == "json":
            _emit_json({"file": label, "degree": args.degree,
                        "group": _group_dict(result.group),
                        "splitting_group": lattice.group.name
                        or f"order-{lattice.group.order}"})
        else:
            print(f"{label}: H^{args.degree} = {result.group} "
                  f"(group {lattice.group.name or lattice.group.order}, "
                  f"rank {lattice.rank})")
    return 0


def _cmd_check_int(args) -> int:
    status = 0
    for path in args.files:
        datum = load_datum(path, normalize_rays=args.normalize_rays)
        result = tropical_int_check(pure_divisorial_truncation(datum.fan),
                                    args.bound)
        if args.format == "json":
            _emit_json({"file": path, "bound": args.bound,
                        "passed": result.passed,
                        "uncovered": [list(p) for p in result.uncovered],
                        "unexpected": [list(p) for p in result.unexpected]})
        else:
            word = "PASS" if result.passed else "FAIL"
            print(f"{path}: check-int bound {args.bound}: {word}")
            for point in result.uncovered:
                print(f"  uncovered support point {point}")
            for point in result.unexpected:
                print(f"  unexpected image point {point}")
        if not result.passed:
            status = 1
    return status


def _cmd_report(args) -> int:
    for path in args.files:
        datum = load_datum(path, normalize_rays=args.normalize_rays)
        rep = full_report(datum.fan, bound=args.bound)
        if args.format == "json":
            _emit_json({
                "file": path,
                "name": datum.name,
                "smooth": rep.smooth,
                "pure_divisorial": rep.pure_divisorial,
                "orbit_count": rep.orbit_count,
                "ray_orbit_summary": [list(x) for x in rep.ray_orbit_summary],
                "class_group": _group_dict(rep.class_group),
                "brauer_kernel": _group_dict(rep.brauer_kernel),
                "tropical_check": rep.tropical_check,
                "bound": args.bound,
                "splitting_group": rep.splitting_group,
            })
        else:
            orbits = ", ".join(f"size {s} (stabilizer order {o})"
                               for s, o in rep.ray_orbit_summary) or "none"
            rows = [
                ("file", path),
                ("name", datum.name or "(unnamed)"),
                ("smooth", "yes" if rep.smooth else "no"),
                ("pure divisorial", "yes" if rep.pure_divisorial else
                 "no (invariants use the truncation)"),
                ("orbit count", str(rep.orbit_count)),
                ("ray orbits", orbits),
                ("class group", str(rep.class_group)),
                ("brauer kernel", str(rep.brauer_kernel)),
                ("tropical check", f"{'pass' if rep.tropical_check else 'FAIL'}"
                                   f" (bound {args.bound})"),
                ("splitting group", rep.splitting_group),
            ]
            width = max(len(k) for k, _ in rows)
            for key, value in rows:
                print(f"{key.ljust(width)}  {value}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "smooth": _cmd_smooth,
    "truncate": _cmd_truncate,
    "standard": _cmd_standard,
    "invariants": _cmd_invariants,
    "cohomology": _cmd_cohomology,
    "check-int": _cmd_check_int,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torika",
        description="Invariants of toric varieties with finite descent data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, files="+"):
        if files:
            p.add_argument("files", nargs=files, metavar="FILE",
                           help="datum file(s) in the documented JSON schema")
        p.add_argument("--normalize-rays", action="store_true",
                       help="divide ray vectors by their content on load")
        p.add_argument("--format", choices=("text", "json"), default="text")

    common(sub.add_parser("validate", help="check a datum and list problems"))
    common(sub.add_parser("smooth", help="smoothness verdict per cone"))
    common(sub.add_parser("truncate",
                          help="emit the pure divisorial truncation"))
    common(sub.add_parser("standard",
                          help="emit the standard fan and the rho matrix"))
    common(sub.add_parser("invariants", help="class group and Brauer kernel"))
    p = sub.add_parser("cohomology",
                       help="group cohomology of a character lattice")
    common(p, files="*")
    p.add_argument("--degree", type=int, choices=(0, 1, 2), default=2)
    p.add_argument("--lattice", metavar="JSON",
                   help='inline lattice {"rank": n, "action": ...}')
    p.add_argument("--splitting-group", choices=sorted(GROUP_PRESETS),
                   help="group preset for an inline lattice")
    p.add_argument("--order-limit", type=int, default=ORDER_LIMIT)
    p.add_argument("--rank-limit", type=int, default=RANK_LIMIT)
    p = sub.add_parser("check-int",
                       help="compare support points with the standard cover")
    common(p)
    p.add_argument("--bound", type=int, default=5)
    p = sub.add_parser("report", help="full invariant report")
    common(p)
    p.add_argument("--bound", type=int, default=5)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "bound", 0) < 0:  # refused before any file is read
            raise ValueError("bound must be nonnegative")
        return _COMMANDS[args.command](args)
    except (TorikaError, ValueError) as exc:
        print(f"torika: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, still reported without a traceback
        detail = " ".join(str(exc).split())
        stage = getattr(exc, "torika_stage", None)
        where = f" in {stage}" if stage else ""
        print(f"torika: internal error{where}: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
