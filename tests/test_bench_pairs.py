"""tools/bench_pairs.py run and summary, on stubbed and synthetic runs."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
METRICS = ("setup_s", "wall_s", "datum_p50_s", "datum_p90_s", "ok_share", "peak_rss_mb")


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rss_slope_on_passes_tells_extra_passes_from_the_change(tmp_path, capsys):
    # RSS = 50 MB + 2 MB a pass, and the change holds 1 MB more at any pass count
    out = tmp_path / "pairs.jsonl"
    with open(out, "w") as sink:
        for pair, passes in enumerate((10, 12, 14, 16)):
            for side, extra, offset in (("parent", 0, 0), ("change", 1, 1)):
                count = passes + extra
                metrics = {m: {"value": 1.0} for m in METRICS}
                metrics["peak_rss_mb"] = {"value": 50 + 2 * count + offset}
                sink.write(json.dumps({"side": side, "workload": "w", "pair": pair,
                                       "passes": count, "line": {"metrics": metrics}}) + "\n")
    _tool().summary(out)
    rss = json.loads(capsys.readouterr().out)["w"]["peak_rss_mb"]
    assert rss["slope_mb_per_pass"] == pytest.approx(2)
    assert rss["change_vs_parent_at_parent_passes"] == pytest.approx(1 / 76)
    assert rss["change_vs_parent"] == pytest.approx(79 / 76 - 1)


def test_run_alternates_sides_and_records_each_run(tmp_path, monkeypatch):
    calls = []

    def fake_run(argv, cwd, capture_output, text):
        calls.append((argv, cwd))
        seed = argv[argv.index("--seed") + 1]
        line = json.dumps({"metrics": {"wall_s": {"value": float(seed)}}})
        stdout = f"noise\nw seed {seed}: {40 + len(calls)} passes of 9 data; ok\n{line}\n"
        return SimpleNamespace(stdout=stdout, returncode=0)

    tool = _tool()
    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    out = tmp_path / "pairs.jsonl"
    tool.run("PARENT", "CHANGE", out, ["w:3"])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["pair"], r["side"]) for r in records] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
        (2, "parent"), (2, "change")]
    assert [c for _, c in calls] == ["PARENT", "CHANGE", "CHANGE", "PARENT",
                                     "PARENT", "CHANGE"]
    assert all(argv[:2] == [sys.executable, "bench/run.py"] for argv, _ in calls)
    assert [r["passes"] for r in records] == [41, 42, 43, 44, 45, 46]
    assert [r["seed"] for r in records] == [1, 1, 2, 2, 3, 3]
    assert records[2]["line"] == {"metrics": {"wall_s": {"value": 2.0}}}
    assert all(r["exit"] == 0 and r["workload"] == "w" for r in records)
