"""Correctness checks for benchmark answers, run outside the timed region.

An answer is the report of one datum in a plain form shared by the
in-process pipeline and the CLI's JSON: groups are (free_rank, torsion)
pairs.  `check_answer` returns the list of problems with it, empty when
it is right.  The class group is recomputed with an independent Smith
normal form, the Brauer kernel is compared with a closed form where one
is known and otherwise with the presentation-quotient route, and the
tropical check must pass.
"""

from __future__ import annotations

from importlib import import_module

from torika import (GFan, ResourceLimitError, StageError, cohomology,
                    divisor_map, induced_h2_map, is_pure_divisorial,
                    kernel_of_h2_map_via_presentations)


def group_pair(g):
    return (g.free_rank, tuple(g.torsion))


def answer_of(report):
    """The plain answer of an InvariantReport."""
    return {
        "smooth": report.smooth,
        "pure_divisorial": report.pure_divisorial,
        "orbit_count": report.orbit_count,
        "ray_orbit_summary": [list(x) for x in report.ray_orbit_summary],
        "class_group": group_pair(report.class_group),
        "brauer_kernel": group_pair(report.brauer_kernel),
        "tropical_check": report.tropical_check,
        "splitting_group": report.splitting_group,
    }


def answer_of_cli(doc):
    """The plain answer of `torika report --format json` output."""
    def pair(g):
        return (g["free_rank"], tuple(g["invariant_factors"]))
    return {
        "smooth": doc["smooth"],
        "pure_divisorial": doc["pure_divisorial"],
        "orbit_count": doc["orbit_count"],
        "ray_orbit_summary": doc["ray_orbit_summary"],
        "class_group": pair(doc["class_group"]),
        "brauer_kernel": pair(doc["brauer_kernel"]),
        "tropical_check": doc["tropical_check"],
        "splitting_group": doc["splitting_group"],
    }


def smith_invariants(rows, ncols):
    """Cokernel of the integer matrix with these rows, acting on columns.

    The map is Z^ncols -> Z^len(rows), x -> (row . x); returns the
    cokernel as (free_rank, torsion invariant factors).  A plain
    elimination, independent of the package's linear algebra.
    """
    a = [list(r) for r in rows]
    m, n = len(a), ncols
    diag = []
    top = 0
    while top < min(m, n):
        nonzero = [(abs(a[i][j]), i, j) for i in range(top, m)
                   for j in range(top, n) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        p = a[top][top]
        clean = True
        for i in range(top + 1, m):
            q = a[i][top] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
            clean &= a[i][top] == 0
        for j in range(top + 1, n):
            q = a[top][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[top]
            clean &= a[top][j] == 0
        if not clean:
            continue
        if any(a[i][j] % p for i in range(top + 1, m) for j in range(top + 1, n)):
            bad = next(i for i in range(top + 1, m)
                       if any(a[i][j] % p for j in range(top + 1, n)))
            a[top] = [x + y for x, y in zip(a[top], a[bad])]
            continue
        diag.append(abs(p))
        top += 1
    return m - len(diag), tuple(d for d in diag if d > 1)


def _oracle_brauer(fan):
    """Brauer kernel by the presentation-quotient route, limits raised."""
    fmap = divisor_map(fan)
    order = fan.group.order
    rank = max(fmap.source.rank, fmap.target.rank)
    limits = {"order_limit": max(order, 12), "rank_limit": max(rank, 8)}
    induced = induced_h2_map(fmap, cohomology(fmap.source, 2, **limits),
                             cohomology(fmap.target, 2, **limits))
    return group_pair(kernel_of_h2_map_via_presentations(fmap, induced))


def working_fan(fan):
    """The pure divisorial truncation: the same rays, cones of dim <= 1.

    Built directly so that a fan already known to be valid is not
    validated again (validation is the slow part of a large fan).
    """
    if is_pure_divisorial(fan):
        return fan
    return GFan(rank=fan.rank, rays=fan.rays, action=fan.action,
                cones=tuple(c for c in fan.cones if len(c) <= 1))


def documented_refusal(exc, fan):
    """Whether exc is the documented size-guard refusal for this fan.

    The bar-resolution guards refuse a Brauer kernel whose character
    lattice or ray permutation lattice is larger than RANK_LIMIT, or a
    group larger than ORDER_LIMIT.  Any other refusal is a failure.
    """
    if not (isinstance(exc, StageError) and exc.stage == "Brauer kernel"
            and isinstance(exc.original, ResourceLimitError)):
        return False
    guards = import_module("torika.cohomology")
    rank_limit = getattr(guards, "RANK_LIMIT", None)
    order_limit = getattr(guards, "ORDER_LIMIT", None)
    if rank_limit is None or order_limit is None:
        return False
    return (max(fan.rank, len(fan.rays)) > rank_limit
            or fan.group.order > order_limit)


def check_answer(answer, fan, expect):
    """Problems with the answer for fan; expect holds known closed forms.

    expect may give "class_group" and "brauer_kernel" as (free, torsion)
    pairs, "orbit_sizes" (sorted ray-orbit sizes), and "pure_divisorial".
    Without a closed form, the Brauer kernel is compared with the
    presentation route.
    """
    problems = []
    working = working_fan(fan)
    order = fan.group.order

    def same(what, got, want):
        if tuple(got) != tuple(want):
            problems.append(f"{what}: got {got}, expected {want}")

    if not answer["smooth"]:
        problems.append("smooth: got False for a smooth fan")
    same("orbit count", (answer["orbit_count"],), (len(fan.cones),))
    sizes = sorted(s for s, _ in answer["ray_orbit_summary"])
    if sum(sizes) != len(fan.rays) or any(
            s * h != order for s, h in answer["ray_orbit_summary"]):
        problems.append(f"ray orbits {answer['ray_orbit_summary']} do not "
                        f"partition {len(fan.rays)} rays of a group of "
                        f"order {order}")
    if expect.get("orbit_sizes") is not None:
        same("ray orbit sizes", sizes, expect["orbit_sizes"])
    if expect.get("pure_divisorial") is not None:
        same("pure divisorial", (answer["pure_divisorial"],),
             (expect["pure_divisorial"],))
    rows = [r.generator for r in working.rays]
    same("class group", answer["class_group"],
         smith_invariants(rows, fan.rank))
    forms = dict(expect)
    if order == 1:
        forms["brauer_kernel"] = (0, ())  # H^2 of the trivial group is 0
    for field in ("class_group", "brauer_kernel"):
        if forms.get(field) is not None:
            want = (forms[field][0], tuple(forms[field][1]))
            same(f"{field} closed form", answer[field], want)
    if forms.get("brauer_kernel") is None:
        same("brauer kernel vs presentations", answer["brauer_kernel"],
             _oracle_brauer(working))
    if not answer["tropical_check"]:
        problems.append("tropical check failed")
    return problems


def is_one_line_rejection(returncode, stdout, stderr):
    """`torika validate` rejected a malformed file as documented.

    Exit status 1 and no traceback, with either a one-line
    `torika: ...` error or the validate command's INVALID problem list.
    """
    if returncode != 1 or "Traceback" in stderr or "Traceback" in stdout:
        return False
    lines = stderr.strip().splitlines()
    if len(lines) == 1 and lines[0].startswith("torika: "):
        return not stdout.strip()
    out = stdout.strip().splitlines()
    return (not stderr.strip() and len(out) >= 2
            and out[0].endswith(": INVALID")
            and all(line.startswith("  - ") for line in out[1:]))

