"""tools/bench_pairs.py summary, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

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
