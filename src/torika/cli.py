"""Command line front end.

One subcommand per pipeline stage: validate, smooth, truncate, standard,
invariants, cohomology, check-int and report.  Each is a function from
one input (a path with its datum, or a label with its lattice) to one
Record.  One loop in main prints each record, as text or --format json, as
soon as it is made, so an error in a later file follows the earlier
output; cohomology alone reads every input before it prints.  An error
goes to stderr; it, or a record that did not pass (only validate makes
one), sets the exit status to 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from .cohomology import ORDER_LIMIT, RANK_LIMIT, _check_limits, cohomology
from .datum import (_as_int, _require, build_action, datum_from_fan,
                    load_datum, serialize_datum)
from .errors import DatumError, TorikaError
from .fans import is_smooth_cone, validate_fan
from .groups import GROUP_PRESETS, group_preset
from .invariants import full_report
from .linalg import FinAbGroup
from .structure import (character_lattice, pure_divisorial_truncation,
                        rho_map, tropical_int_check)


class Record(NamedTuple):
    """What one subcommand made of one input."""

    doc: dict
    lines: list
    ok: bool = True


def _group_dict(g: FinAbGroup) -> dict:
    return {"free_rank": g.free_rank,
            "invariant_factors": list(g.torsion),
            "pretty": str(g)}


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _validate(path, datum, args) -> Record:
    report = validate_fan(datum.fan)
    rays, cones = len(datum.fan.rays), len(datum.fan.cones)
    lines = ([f"{path}: valid fan ({rays} rays, {cones} cones)"] if report.ok
             else [f"{path}: INVALID"] + [f"  - {p}" for p in report.problems])
    return Record({"file": path, "valid": report.ok,
                   "problems": list(report.problems),
                   "rays": rays, "cones": cones}, lines, report.ok)


def _smooth(path, datum, args) -> Record:
    verdicts = [(c.rays, is_smooth_cone(datum.fan, c))
                for c in datum.fan.cones]
    overall = all(v for _, v in verdicts)
    word = {True: "smooth", False: "NOT smooth"}
    return Record({"file": path, "smooth": overall,
                   "cones": [{"rays": list(r), "smooth": v}
                             for r, v in verdicts]},
                  [f"{path}: cone {r}: {word[v]}" for r, v in verdicts]
                  + [f"{path}: fan is {word[overall]}"])


def _truncate(path, datum, args) -> Record:
    name = (datum.name + "-truncated") if datum.name else "truncated"
    doc = serialize_datum(
        datum_from_fan(pure_divisorial_truncation(datum.fan), name))
    return Record(doc, [_json(doc)])


def _standard(path, datum, args) -> Record:
    rho = rho_map(pure_divisorial_truncation(datum.fan))
    name = (datum.name + "-standard") if datum.name else "standard"
    std = serialize_datum(datum_from_fan(rho.source, name))
    rows = rho.matrix.to_rows()
    return Record({"file": path, "standard": std, "rho_matrix": rows},
                  [f"{path}: standard fan of rank {rho.source.rank}",
                   _json(std), "rho matrix rows:"]
                  + [f"  {row}" for row in rows])


def _invariants(path, datum, args) -> Record:
    rep = full_report(datum.fan)
    doc = {"file": path, "class_group": _group_dict(rep.class_group),
           "brauer_kernel": _group_dict(rep.brauer_kernel),
           "splitting_group": rep.splitting_group}
    return Record(doc, [
        f"{path}: class_group = {doc['class_group']['pretty']}",
        f"{path}: brauer_kernel = {doc['brauer_kernel']['pretty']} "
        f"(splitting group {doc['splitting_group']})"])


def _cohomology(label, lattice, args) -> Record:
    result = cohomology(lattice, args.degree, order_limit=args.order_limit,
                        rank_limit=args.rank_limit)
    return Record({"file": label, "degree": args.degree,
                   "group": _group_dict(result.group),
                   "splitting_group": lattice.group.name
                   or f"order-{lattice.group.order}"},
                  [f"{label}: H^{args.degree} = {result.group} "
                   f"(group {lattice.group.name or lattice.group.order}, "
                   f"rank {lattice.rank})"])


def _check_int(path, datum, args) -> Record:
    # a failed check raises, so every record that is made passed
    result = tropical_int_check(pure_divisorial_truncation(datum.fan),
                                args.bound)
    return Record({"file": path, "bound": args.bound,
                   "passed": result.passed,
                   "uncovered": [list(p) for p in result.uncovered],
                   "unexpected": [list(p) for p in result.unexpected]},
                  [f"{path}: check-int bound {args.bound}: PASS"])


def _report(path, datum, args) -> Record:
    rep = full_report(datum.fan, bound=args.bound)
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
        ("tropical check", f"pass (bound {args.bound})"),
        ("splitting group", rep.splitting_group),
    ]
    width = max(len(k) for k, _ in rows)
    return Record({
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
    }, [f"{key.ljust(width)}  {value}" for key, value in rows])


def _inline_lattice(args, limits):
    """The --lattice JSON as a GLattice; every refusal names --lattice."""
    if args.splitting_group is None:
        raise TorikaError("--lattice needs --splitting-group")
    try:  # argv keeps bytes that are not UTF-8 as surrogates, which encode refuses
        spec = json.loads(args.lattice.encode())
    except (ValueError, RecursionError) as exc:  # bad syntax, too deep, a huge int
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


def _inputs(args):
    """(label, input) pairs: datums, loaded one by one; lattices, all first."""
    if args.command != "cohomology":
        return ((path, load_datum(path, normalize_rays=args.normalize_rays,
                                  require_valid=args.command != "validate"))
                for path in args.files)
    # H^0 builds no d^1, so it takes no size guard
    limits = (args.order_limit, args.rank_limit) if args.degree else None
    jobs = [] if args.lattice is None else [("<inline>", _inline_lattice(args, limits))]
    jobs += [(path, character_lattice(load_datum(
        path, normalize_rays=args.normalize_rays, limits=limits).fan))
        for path in args.files]
    if not jobs:
        raise TorikaError("cohomology needs a datum file or --lattice")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torika",
        description="Invariants of toric varieties with finite descent data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, record, help, files="+"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(record=record)
        p.add_argument("files", nargs=files, metavar="FILE",
                       help="datum file(s) in the documented JSON schema")
        p.add_argument("--normalize-rays", action="store_true",
                       help="divide ray vectors by their content on load")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    command("validate", _validate, "check a datum and list problems")
    command("smooth", _smooth, "smoothness verdict per cone")
    command("truncate", _truncate, "emit the pure divisorial truncation")
    command("standard", _standard, "emit the standard fan and the rho matrix")
    command("invariants", _invariants, "class group and Brauer kernel")
    p = command("cohomology", _cohomology,
                "group cohomology of a character lattice", files="*")
    p.add_argument("--degree", type=int, choices=(0, 1, 2), default=2)
    p.add_argument("--lattice", metavar="JSON",
                   help='inline lattice {"rank": n, "action": ...}')
    p.add_argument("--splitting-group", choices=sorted(GROUP_PRESETS),
                   help="group preset for an inline lattice")
    p.add_argument("--order-limit", type=int, default=ORDER_LIMIT)
    p.add_argument("--rank-limit", type=int, default=RANK_LIMIT)
    for name, record, help in (
            ("check-int", _check_int,
             "compare support points with the standard cover"),
            ("report", _report, "full invariant report")):
        command(name, record, help).add_argument("--bound", type=int, default=5)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "bound", 0) < 0:  # refused before any file is read
            raise ValueError("bound must be nonnegative")
        status = 0
        for label, item in _inputs(args):
            record = args.record(label, item, args)
            print(_json(record.doc) if args.format == "json"
                  else "\n".join(record.lines))
            status |= not record.ok
        return status
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
