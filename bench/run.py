"""The torika benchmark.

Run from the repository root:

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload galois-descent --seed 3 --seconds 30 --trace 0

One process, one closed-loop client: each datum starts after the last
one finished, and `cli-fixtures` runs at most one child process at a
time.  Inputs are generated from --seed (see generators.py) and written
as datum files under .bench_out/; the program only ever sees those files.
In-process workloads repeat whole passes over their data, and cli-fixtures
rounds of invocations, until there are 100 samples and the next pass
would end after --seconds (see run_passes).  Answers are checked outside
the timed region (checker.py).

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of a
separate traced replay, whose spans are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from math import comb
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FIXTURES = ROOT / "fixtures"
MALFORMED = ROOT / "tests" / "data"


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if __name__ == "__main__":
    # Only this checkout's program is measured: refuse to run without it.
    for _need in (SRC / "torika" / "__init__.py", FIXTURES, MALFORMED):
        if not _need.exists():
            fail(f"{_need.relative_to(ROOT)} is missing; run from the root "
                 f"of a full checkout of the repository")
    sys.path.insert(0, str(SRC))

import torika  # noqa: E402

import checker  # noqa: E402
import generators  # noqa: E402
import spans  # noqa: E402

# The workloads, and why each was chosen, are described in README.md and
# BENCHMARK.json; the names and units below must match BENCHMARK.json.
WORKLOADS = ("cli-fixtures", "galois-descent", "product-fans")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "datum_p50_s": "s",
                    "datum_p90_s": "s", "ok_share": "ratio",
                    "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "fans.validate_s": "s", "fans.cone_pairs": "count",
    "fans.max_cone_pairs": "count", "fans.useful_pair_ratio": "ratio",
    "fans.ray_orbits_s": "s", "fans.is_smooth_s": "s",
    "cohomology.h2_s": "s", "cohomology.coboundary_s": "s",
    "cohomology.d2_rows": "count", "cohomology.d2_cols": "count",
    "cohomology.d2_nnz": "count", "cohomology.d2_density": "ratio",
    "linalg.kernel_s": "s", "linalg.convert_s": "s",
    "linalg.cokernel_s": "s", "cohomology.kernel_lift_s": "s",
    "cohomology.lift_rows": "count", "cohomology.lift_cols": "count",
    "cohomology.refused": "count", "structure.truncation_s": "s",
    "structure.divisor_map_s": "s", "structure.rho_map_s": "s",
    "structure.tropical_check_s": "s", "structure.support_points": "count",
    "invariants.class_group_s": "s", "invariants.brauer_kernel_s": "s",
    "invariants.full_report_s": "s", "datum.load_s": "s",
    "cli.startup_s": "s", "cli.rejections": "count",
    "cli.tracebacks": "count", "trace.overhead_s": "s",
    "trace.unaccounted_share": "ratio",
}

# Closed forms known for the shipped fixtures: the n-family class groups
# (rays (1,0), (-1,n)), the rank-3 Brauer example and the standard fans.
FIXTURE_FORMS = {
    "nfamily_n0": {"class_group": (1, ())},
    "nfamily_n1": {"class_group": (0, ())},
    **{f"nfamily_n{n}": {"class_group": (0, (n,))} for n in range(2, 6)},
    "brauer_rank3": {"brauer_kernel": (0, (2,))},
    "standard_c2": {"brauer_kernel": (0, ())},
    "standard_s3": {"brauer_kernel": (0, ())},
}

MIN_SAMPLES = 100
SETUP_ARGS = ["-c", "import torika"]
SETUP_SAMPLES = 20
SETUP_SPAN = 0.8
STARTUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
BOUND = 5
HD_GRID = 100_000


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(args):
    """Run one child process to completion; (seconds, CompletedProcess)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def median_child_seconds(args, samples):
    """Median wall time of fresh processes, after one warm-up run."""
    run_child(args)
    times = []
    for _ in range(samples):
        seconds, proc = run_child(args)
        if proc.returncode != 0:
            fail(f"{' '.join(args)} exited with {proc.returncode}: "
                 f"{proc.stderr.strip()}")
        times.append(seconds)
    return statistics.median(times)


class SetupSampler:
    """Fresh-process `import torika` timings, spread over a timed run.

    After one warm-up, a sample falls due every SETUP_SPAN * seconds /
    SETUP_SAMPLES of the run; `tick` is called between data.  The host's
    speed changes from one few-second spell to the next, so samples
    spread over the run give a steadier median than a block of them
    taken in a few seconds.
    """

    def __init__(self, seconds):
        self.every = SETUP_SPAN * seconds / SETUP_SAMPLES
        self.times = []
        run_child(SETUP_ARGS)
        self.start = time.perf_counter()

    def tick(self):
        due = (time.perf_counter() - self.start) // self.every + 1
        if len(self.times) < min(due, SETUP_SAMPLES):
            self.sample()

    def sample(self):
        seconds, proc = run_child(SETUP_ARGS)
        if proc.returncode != 0:
            fail(f"{' '.join(SETUP_ARGS)} exited with {proc.returncode}: "
                 f"{proc.stderr.strip()}")
        self.times.append(seconds)

    def median(self):
        while len(self.times) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.times)


def run_passes(seconds, one_pass):
    """Whole passes while the next is expected to end within `seconds`.

    Passes also go on until there are MIN_SAMPLES timings: on
    cli-fixtures, three or more attempts of each of its 34 invocations.
    """
    passes = []
    samples = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records = one_pass()
        passes.append((time.perf_counter() - t0, records))
        samples += len(records)
        elapsed = time.perf_counter() - start
        if (samples >= MIN_SAMPLES
                and elapsed + elapsed / len(passes) > seconds):
            return passes


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile.

    A mean of the order statistics weighted by a Beta(q(n+1), (1-q)(n+1))
    distribution over their ranks.  A plain sample percentile that falls
    between two data of very different cost jumps between them from run
    to run; this one moves smoothly.
    """
    xs = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    grid = (numpy.arange(HD_GRID) + 0.5) / HD_GRID
    log_pdf = (a - 1) * numpy.log(grid) + (b - 1) * numpy.log1p(-grid)
    pdf = numpy.exp(log_pdf - log_pdf.max())
    weights = numpy.bincount((grid * n).astype(int), weights=pdf, minlength=n)
    return float(weights @ xs / weights.sum())


# --- in-process pipeline -------------------------------------------------------

def report_datum(path):
    """load_datum + full_report, as a user of the library calls them."""
    datum = torika.load_datum(path)
    return checker.answer_of(torika.full_report(datum.fan, bound=BOUND))


def attempt(thunk):
    try:
        return ("ok", thunk())
    except Exception as exc:  # classified by the checker after timing
        return ("raised", exc)


def inprocess_pass(items, tick):
    records = []
    for index, (path, _) in enumerate(items):
        start = time.perf_counter()
        outcome = attempt(lambda: report_datum(path))
        records.append((index, time.perf_counter() - start, outcome))
        tick()
    return records


def same_outcome(a, b):
    if a[0] != b[0]:
        return False
    if a[0] == "ok":
        return a[1] == b[1]
    return type(a[1]) is type(b[1]) and str(a[1]) == str(b[1])


def describe(exc):
    return f"{type(exc).__name__}: {exc}"


def judge_inprocess(items, outcomes):
    """Verdict per datum index: ("ok" | "refused" | "failed", detail)."""
    verdicts = {}
    for index, outcome in outcomes.items():
        path, expect = items[index]
        fan = torika.load_datum(path, require_valid=False).fan
        kind, value = outcome
        if kind == "raised":
            if checker.documented_refusal(value, fan):
                verdicts[index] = ("refused", describe(value))
            else:
                detail = "".join(traceback.format_exception(value)).strip()
                verdicts[index] = ("failed", detail.splitlines()[-1])
            continue
        problems = checked(lambda: checker.check_answer(value, fan, expect))
        verdicts[index] = (("failed", "; ".join(problems)) if problems
                           else ("ok", ""))
    return verdicts


def checked(thunk):
    """The checker's problem list; an error inside it is a problem too."""
    kind, value = attempt(thunk)
    return value if kind == "ok" else [f"checker raised {describe(value)}"]


def verdicts_for(rounds, items):
    """(index, seconds, verdict) per datum, with its median attempt.

    A datum must answer the same way in every round.
    """
    attempts = {}
    for records in rounds:
        for index, seconds, outcome in records:
            attempts.setdefault(index, []).append((seconds, outcome))
    verdicts = judge_inprocess(
        items, {index: tries[0][1] for index, tries in attempts.items()})
    out = []
    for index, tries in sorted(attempts.items()):
        verdict = verdicts[index]
        if any(not same_outcome(o, tries[0][1]) for _, o in tries):
            verdict = ("failed", "answer changed between attempts")
        out.append((index, statistics.median(t for t, _ in tries), verdict))
    return out


# --- cli-fixtures --------------------------------------------------------------

def cli_jobs():
    jobs = [("report", p) for p in sorted(FIXTURES.glob("*.json"))]
    jobs += [("validate", p) for p in sorted(MALFORMED.glob("*.json"))]
    return jobs


def cli_args(command, path):
    rel = str(path.relative_to(ROOT))
    if command == "report":
        return ["-m", "torika.cli", "report", "--format", "json", rel]
    return ["-m", "torika.cli", "validate", rel]


def cli_pass(jobs, tick=lambda: None):
    records = []
    for index, (command, path) in enumerate(jobs):
        seconds, proc = run_child(cli_args(command, path))
        records.append((index, seconds,
                        (proc.returncode, proc.stdout, proc.stderr)))
        tick()
    return records


def fixture_expect(path):
    return FIXTURE_FORMS.get(path.stem, {})


def reference_answer(path):
    """The in-process answer for a fixture and the checker's problems."""
    kind, answer = attempt(lambda: report_datum(path))
    if kind != "ok":
        return None, [f"in-process report raised {describe(answer)}"]
    fan = torika.load_datum(path, require_valid=False).fan
    return answer, checked(
        lambda: checker.check_answer(answer, fan, fixture_expect(path)))


def judge_cli(jobs, passes):
    reference = {}
    out = []
    for _, records in passes:
        for index, seconds, (code, stdout, stderr) in records:
            command, path = jobs[index]
            if command == "validate":
                ok = checker.is_one_line_rejection(code, stdout, stderr)
                verdict = ("ok", "") if ok else (
                    "failed", f"{path.name}: not a one-line rejection "
                              f"(exit {code}): {stderr.strip()[-200:]}")
                out.append((index, seconds, verdict))
                continue
            if index not in reference:
                reference[index] = reference_answer(path)
            answer, problems = reference[index]
            if code != 0 or stderr.strip():
                verdict = ("failed", f"{path.name}: exit {code}: "
                                     f"{stderr.strip()[-200:]}")
            elif attempt(lambda: checker.answer_of_cli(
                    json.loads(stdout))) != ("ok", answer):
                verdict = ("failed", f"{path.name}: CLI JSON differs from "
                                     f"the in-process report")
            elif problems:
                verdict = ("failed", f"{path.name}: " + "; ".join(problems))
            else:
                verdict = ("ok", "")
            out.append((index, seconds, verdict))
    return out


# --- traced replay ---------------------------------------------------------------

def _stage(name, thunk):
    try:
        return thunk()
    except torika.TorikaError as exc:
        raise torika.StageError(name, exc) from exc


def _count_pairs(fan, counts):
    sets = [frozenset(c.rays) for c in fan.cones if c.rays]
    maximal = [s for s in sets if not any(s < t for t in sets)]
    counts["fans.cone_pairs"] += comb(len(sets), 2)
    counts["fans.max_cone_pairs"] += comb(len(maximal), 2)


def _replay_class_group(rec, fan):
    with rec.span("fans.validate_s"):
        fan.require_valid()
    with rec.span("fans.is_smooth_s"):
        if not torika.is_smooth(fan):
            raise ValueError("the class group computation expects a smooth fan")
    with rec.span("structure.divisor_map_s"):
        dmap = torika.divisor_map(fan)
    with rec.span("linalg.cokernel_s"):
        return torika.cokernel(dmap.matrix)


def _replay_brauer(rec, fan, counts):
    fan.require_valid()
    if not torika.is_pure_divisorial(fan):
        raise ValueError("the Brauer kernel expects a pure divisorial fan")
    with rec.span("fans.is_smooth_s"):
        if not torika.is_smooth(fan):
            raise ValueError("the Brauer kernel expects a smooth fan")
    with rec.span("structure.divisor_map_s"):
        dmap = torika.divisor_map(fan)
    try:
        with rec.span("cohomology.h2_s"):
            h2 = torika.cohomology(dmap.source, 2)
        with rec.span("cohomology.kernel_lift_s"):
            kernel = torika.kernel_of_h2_map(dmap, h2)
    except torika.ResourceLimitError:
        counts["cohomology.refused"] += 1
        raise
    order = fan.group.order
    counts["cohomology.lift_rows"] += dmap.target.rank * order ** 2
    counts["cohomology.lift_cols"] += (h2.cocycles.cols
                                       + dmap.target.rank * order)
    return kernel


def replay(rec, path, counts):
    """full_report's stages, called one public function at a time.

    The fan is loaded unvalidated so that fans.validate_s times a fresh
    fan; the stage order and error wrapping follow full_report.
    """
    with rec.span("datum.load_s"):
        fan = torika.load_datum(path, require_valid=False).fan
    with rec.span("invariants.full_report_s"):
        with rec.span("fans.validate_s"):
            fan.require_valid()
        _count_pairs(fan, counts)
        with rec.span("fans.is_smooth_s"):
            smooth = _stage("smoothness", lambda: torika.is_smooth(fan))
        pure = torika.is_pure_divisorial(fan)
        orbits = _stage("orbit count", lambda: torika.orbit_count(fan))
        with rec.span("fans.ray_orbits_s"):
            ray_orbits = _stage("ray orbits", lambda: torika.ray_orbits(fan))
        with rec.span("structure.truncation_s"):
            working = fan if pure else _stage(
                "truncation", lambda: torika.pure_divisorial_truncation(fan))
        if working is not fan:
            _count_pairs(working, counts)
        with rec.span("invariants.class_group_s"):
            cls = _stage("class group",
                         lambda: _replay_class_group(rec, working))
        with rec.span("invariants.brauer_kernel_s"):
            brauer = _stage("Brauer kernel",
                            lambda: _replay_brauer(rec, working, counts))
        with rec.span("structure.tropical_check_s"):
            tropical = _stage("tropical check", lambda: torika.tropical_int_check(
                working, BOUND).passed)
    return {
        "smooth": smooth, "pure_divisorial": pure, "orbit_count": orbits,
        "ray_orbit_summary": [[len(o), s.order] for o, s in ray_orbits],
        "class_group": checker.group_pair(cls),
        "brauer_kernel": checker.group_pair(brauer),
        "tropical_check": tropical,
        "splitting_group": fan.group.name or f"order-{fan.group.order}",
    }


def probe_layers(rec, path, counts):
    """Single-layer probes outside the replay, on a datum that answered."""
    fan = checker.working_fan(torika.load_datum(path, require_valid=False).fan)
    with rec.span("structure.rho_map_s"):
        rho = torika.rho_map(fan)
    scale = max(fan.max_ray_norm(), 1)
    counts["structure.support_points"] += (
        len(torika.pure_divisorial_support(fan, BOUND))
        + len(torika.pure_divisorial_support(rho.source, BOUND * scale)))
    lattice = torika.character_lattice(fan)
    with rec.span("cohomology.coboundary_s"):
        d2 = torika.coboundary_matrix(lattice, 2)
    with rec.span("linalg.convert_s"):
        array = d2.to_array()
        torika.IntMatrix.from_array(array)
    counts["cohomology.d2_rows"] += d2.rows
    counts["cohomology.d2_cols"] += d2.cols
    counts["cohomology.d2_nnz"] += int((array != 0).sum())
    counts["d2_cells"] += d2.rows * d2.cols
    with rec.span("linalg.kernel_s"):
        torika.kernel_basis(d2)


def traced_run(workload, seed, items):
    """Untraced and traced replay of each datum in turn, then probes.

    Interleaving the two per datum keeps drift in machine speed out of
    trace.overhead_s.  Data only in the traced run (the slow ladder cases)
    are replayed traced only, judged on the replay's answer, and not
    probed.
    """
    rec = spans.Recorder()
    counts = Counter()
    untraced, traced = [], []
    untraced_wall = traced_wall = 0.0
    for index, (path, spec) in enumerate(items):
        twin = not spec.get("traced_only")
        if twin:
            start = time.perf_counter()
            plain = attempt(lambda: report_datum(path))
            untraced_seconds = time.perf_counter() - start
        rec.datum = index
        start = time.perf_counter()
        outcome = attempt(lambda: replay(rec, path, counts))
        seconds = time.perf_counter() - start
        traced.append((index, outcome))
        if twin:
            untraced_wall += untraced_seconds
            traced_wall += seconds
            untraced.append((index, untraced_seconds, plain))
        else:
            untraced.append((index, seconds, outcome))
    rec.datum = None
    for index, outcome in traced:
        if outcome[0] == "ok" and not items[index][1].get("traced_only"):
            rec.datum = index
            probe = attempt(lambda: probe_layers(rec, items[index][0], counts))
            if probe[0] != "ok":
                print(f"  probe failed on {items[index][0].name}: "
                      f"{describe(probe[1])}")
    rec.datum = None
    mismatched = [index for (index, outcome), (_, _, plain)
                  in zip(traced, untraced) if not same_outcome(outcome, plain)]
    totals = rec.totals()
    self_times = rec.self_times()
    metrics = {name: totals.get(name, 0.0) for name, unit
               in PER_LAYER_UNITS.items() if unit == "s"}
    metrics.update({name: counts[name] for name, unit
                    in PER_LAYER_UNITS.items() if unit == "count"})
    metrics["fans.useful_pair_ratio"] = (counts["fans.max_cone_pairs"]
                                         / max(counts["fans.cone_pairs"], 1))
    metrics["cohomology.d2_density"] = (
        counts["cohomology.d2_nnz"] / max(counts["d2_cells"], 1))
    metrics["cli.startup_s"] = median_child_seconds(
        ["-m", "torika.cli", "--help"], STARTUP_SAMPLES)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.unaccounted_share"] = (
        self_times.get("invariants.full_report_s", 0.0)
        / max(totals.get("invariants.full_report_s", 0.0), 1e-12))
    ladder = ladder_rows(rec, items)
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{workload}-{seed}.json",
              {"workload": workload, "seed": seed,
               "data": [p.name for p, _ in items],
               "labels": [spec.get("label", p.stem) for p, spec in items],
               "ladder": ladder})
    return metrics, untraced, mismatched, ladder


def inprocess_rejections():
    """Malformed tests/data files loaded in-process: how many are rejected
    with a TorikaError (one line in the CLI), how many raise otherwise."""
    rejected = tracebacks = 0
    for path in sorted(MALFORMED.glob("*.json")):
        try:
            torika.load_datum(path)
        except torika.TorikaError:
            rejected += 1
        except Exception:  # the CLI would print a traceback for this
            tracebacks += 1
    return rejected, tracebacks


def ladder_rows(rec, items):
    """Mean validate and H^2 seconds per datum label (the size ladders)."""
    validate = rec.by_datum("fans.validate_s")
    h2 = rec.by_datum("cohomology.h2_s")
    rows = {}
    for index, (path, spec) in enumerate(items):
        label = spec.get("label", path.stem)
        row = rows.setdefault(label, {"data": 0, "validate_s": 0.0, "h2_s": 0.0})
        row["data"] += 1
        row["validate_s"] += validate.get(index, 0.0)
        row["h2_s"] += h2.get(index, 0.0)
    for row in rows.values():
        row["validate_s"] /= row["data"]
        row["h2_s"] /= row["data"]
    return rows


# --- reporting --------------------------------------------------------------------

def latencies(verdicts):
    """One latency per datum or CLI job: the median of its attempts.

    The host's speed changes by up to 1.9 times, for seconds to minutes
    at a time.  The attempts of a datum are spread over the whole run, and
    their median follows the host's typical speed over the run.  The
    fastest attempt would follow its best moment instead, which a run may
    or may not have: in six runs during a slow spell, the sum of the
    fastest attempts spread 0.11-0.12 of its median, the sum of the
    medians 0.04-0.05.
    """
    attempts = {}
    for index, seconds, _ in verdicts:
        attempts.setdefault(index, []).append(seconds)
    return [statistics.median(seconds) for seconds in attempts.values()]


def summarize(verdicts, times, setup_s, peak_rss_mb):
    kinds = Counter(v[0] for _, _, v in verdicts)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "datum_p50_s": percentile(times, 50),
        "datum_p90_s": percentile(times, 90),
        "ok_share": kinds["ok"] / len(verdicts),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, kinds


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def print_problems(verdicts, labels):
    shown = set()
    for index, _, (kind, detail) in verdicts:
        if kind != "ok" and (index, kind) not in shown:
            shown.add((index, kind))
            print(f"  {kind}: {labels[index]}: {detail}")


def run_workload(workload, seed, seconds, trace):
    if workload == "cli-fixtures":
        items = [(p, fixture_expect(p)) for p in sorted(FIXTURES.glob("*.json"))]
    else:
        data_dir = OUT / f"data-{workload}-{seed}-{os.getpid()}"
        pure = workload == "galois-descent"
        items = [(path, dict(spec, pure_divisorial=pure)) for path, spec
                 in generators.write_data(workload, seed, data_dir, trace)]
    try:
        if trace:
            return run_traced(workload, seed, items)
        return run_timed(workload, seed, seconds, items)
    finally:
        if workload != "cli-fixtures":
            shutil.rmtree(data_dir, ignore_errors=True)


def run_timed(workload, seed, seconds, items):
    setup = SetupSampler(seconds)
    if workload == "cli-fixtures":
        jobs = cli_jobs()
        passes = run_passes(seconds, lambda: cli_pass(jobs, setup.tick))
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        verdicts = judge_cli(jobs, passes)
        labels = [f"{c} {p.name}" for c, p in jobs]
        shape = f"{len(passes)} rounds of {len(jobs)} invocations"
    else:
        passes = run_passes(
            seconds, lambda: inprocess_pass(items, setup.tick))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        verdicts = verdicts_for([records for _, records in passes], items)
        labels = [spec["label"] for _, spec in items]
        shape = f"{len(passes)} passes of {len(items)} data"
    times = latencies(verdicts)
    metrics, kinds = summarize(verdicts, times, setup.median(),
                               usage.ru_maxrss / 1024)
    print(f"{workload} seed {seed}: {shape}; {len(verdicts)} "
          f"judged, {len(times)} latencies; {kinds['ok']} ok, "
          f"{kinds['refused']} refused by a documented limit, "
          f"{kinds['failed']} failed")
    print_problems(verdicts, labels)
    for name, value in metrics.items():
        print(f"  {name:<12} {value:.6g} {END_TO_END_UNITS[name]}")
    emit(kinds["failed"] == 0, len(verdicts), kinds["failed"], metrics,
         END_TO_END_UNITS)


def run_traced(workload, seed, items):
    metrics, untraced, mismatched, ladder = traced_run(workload, seed, items)
    verdicts = verdicts_for([untraced], items)
    failed = sum(v[0] == "failed" for _, _, v in verdicts)
    attempted = len(verdicts)
    if workload == "cli-fixtures":
        jobs = [("validate", p) for p in sorted(MALFORMED.glob("*.json"))]
        records = cli_pass(jobs)
        outputs = [output for _, _, output in records]
        metrics["cli.rejections"] = sum(
            checker.is_one_line_rejection(*output) for output in outputs)
        metrics["cli.tracebacks"] = sum(
            "Traceback" in stderr for _, _, stderr in outputs)
        failed += sum(v[0] == "failed" for _, _, v
                      in judge_cli(jobs, [(0.0, records)]))
        attempted += len(records)
    else:
        metrics["cli.rejections"], metrics["cli.tracebacks"] = (
            inprocess_rejections())
    print(f"{workload} seed {seed} (traced): {attempted} attempted, "
          f"{failed} failed, {len(mismatched)} replay mismatches")
    print(f"  {'label':<28} {'data':>4} {'validate_s':>11} {'h2_s':>9}")
    for label, row in sorted(ladder.items()):
        print(f"  {label:<28} {row['data']:>4} {row['validate_s']:>11.4f} "
              f"{row['h2_s']:>9.4f}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {PER_LAYER_UNITS[name]}")
    emit(failed == 0 and not mismatched, attempted, failed, metrics,
         PER_LAYER_UNITS)


def run_all(seed, seconds):
    """Every workload in its own process, one after another."""
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        ok &= proc.returncode == 0
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(torika.__file__).resolve().parent != SRC / "torika":
        fail(f"imported torika from {torika.__file__}, not from {SRC}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
