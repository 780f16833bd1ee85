"""Alternating parent/change pairs of bench/run.py, each side from its own checkout.

    python3 tools/bench_pairs.py run PARENT CHANGE OUT.jsonl WORKLOAD:PAIRS ...
    python3 tools/bench_pairs.py summary OUT.jsonl

`run` runs `bench/run.py --workload W --seed S --seconds 35 --trace 0`
under this tool's own interpreter in the two checkouts PARENT and CHANGE.
WORKLOAD:N runs pairs 0..N-1 and WORKLOAD:A-B pairs A..B-1; pair p uses
seed p + 1, and even pairs run the parent first, odd pairs the change.
Each run appends one JSON line to OUT.jsonl: its side, seed, pair, exit
status, pass (or round) count and the benchmark's last stdout line, or
null when that line is not JSON (a failed run).  The benchmark keeps
every pass's answers, so `peak_rss_mb` grows with the pass count, which
is why the count is kept next to the metrics.

`summary` prints, per workload and end-to-end metric, each side's median
and quartiles (`statistics.quantiles(n=4, method='inclusive')`), the
parent's interquartile range, the change's relative difference and the
number of pairs the change wins, with the direction ("better") read from
BENCHMARK.json; and each side's pass counts in pair order.  For
`peak_rss_mb` it also prints the least-squares slope on the pass count,
fitted within each side (one intercept per side, one slope), and the
change's relative difference in mean at the parent's mean pass count:
RSS growth from extra passes is then told apart from the change.  Only the
pairs in which both runs have a result are summarised, and only when
there are two or more; the pairs of the failed runs are listed per side.
"""

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(parent, change, out, specs):
    with open(out, "a") as sink:
        for spec in specs:
            workload, pairs = spec.split(":")
            first, _, last = pairs.partition("-")
            for pair in range(int(first), int(last)) if last else range(int(first)):
                sides = [("parent", parent), ("change", change)]
                for side, root in (sides if pair % 2 == 0 else sides[::-1]):
                    seed = pair + 1
                    proc = subprocess.run(
                        [sys.executable, "bench/run.py", "--workload", workload,
                         "--seed", str(seed), "--seconds", "35", "--trace", "0"],
                        cwd=root, capture_output=True, text=True)
                    lines = proc.stdout.strip().splitlines()
                    shape = next((l for l in lines if l.startswith(f"{workload} seed")), "")
                    passes = re.search(r"(\d+) (?:passes|rounds)", shape)
                    record = {"side": side, "workload": workload, "seed": seed,
                              "pair": pair, "passes": int(passes.group(1)) if passes else None,
                              "shape": shape, "exit": proc.returncode,
                              "line": _result(lines)}
                    sink.write(json.dumps(record) + "\n")
                    sink.flush()


def _result(lines):
    """The last stdout line as JSON, or None when a failed run left none."""
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summary(out):
    better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    runs = [json.loads(line) for line in open(out) if line.strip()]
    result = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair = {}
        failed = {"parent": [], "change": []}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
                if r["line"] is None:
                    failed[r["side"]].append(r["pair"])
        pairs = [p for _, p in sorted(by_pair.items())
                 if len(p) == 2 and all(r["line"] is not None for r in p.values())]
        table = {"failed": failed}
        if len(pairs) < 2:  # quartiles need two pairs
            result[workload] = dict(table, pairs=len(pairs))
            continue
        for metric, direction in better.items():
            parent = [p["parent"]["line"]["metrics"][metric]["value"] for p in pairs]
            change = [p["change"]["line"]["metrics"][metric]["value"] for p in pairs]
            sign = 1 if direction == "lower" else -1
            pm, cm = statistics.median(parent), statistics.median(change)
            pq = quartiles(parent)
            table[metric] = {
                "parent_median": pm, "change_median": cm,
                "change_vs_parent": cm / pm - 1 if pm else 0.0,
                "parent_quartiles": pq, "change_quartiles": quartiles(change),
                "parent_iqr": pq[1] - pq[0],
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "pairs": len(pairs)}
        counts = {side: [p[side]["passes"] for p in pairs] for side in ("parent", "change")}
        rss = {side: [p[side]["line"]["metrics"]["peak_rss_mb"]["value"] for p in pairs]
               for side in ("parent", "change")}
        table["peak_rss_mb"].update(_rss_on_passes(counts, rss))
        table["passes"] = dict(counts, parent_median=statistics.median(counts["parent"]),
                               change_median=statistics.median(counts["change"]))
        result[workload] = table
    print(json.dumps(result, indent=1))


def _rss_on_passes(counts, rss):
    """The within-side least-squares slope of RSS on the pass count, and the
    change's mean RSS moved to the parent's mean pass count, against the
    parent's mean; None where no side's pass count varies."""
    mean = {side: (statistics.fmean(counts[side]), statistics.fmean(rss[side]))
            for side in counts}
    sxx = sxy = 0.0
    for side, (mx, my) in mean.items():
        sxx += sum((x - mx) ** 2 for x in counts[side])
        sxy += sum((x - mx) * (y - my) for x, y in zip(counts[side], rss[side]))
    if not sxx:
        return {"slope_mb_per_pass": None, "change_vs_parent_at_parent_passes": None}
    slope = sxy / sxx
    (px, py), (cx, cy) = mean["parent"], mean["change"]
    return {"slope_mb_per_pass": slope,
            "change_vs_parent_at_parent_passes": (cy - slope * (cx - px)) / py - 1}


if __name__ == "__main__":
    command, args = sys.argv[1], sys.argv[2:]
    if command == "run":
        run(args[0], args[1], args[2], args[3:])
    elif command == "summary":
        summary(args[0])
    else:
        sys.exit(f"unknown command {command!r}: expected run or summary")
