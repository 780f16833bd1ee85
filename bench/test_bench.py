"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import random

import pytest

import checker
import generators
import run
import torika


@pytest.mark.parametrize("workload", ["galois-descent", "product-fans"])
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    first = generators.write_data(workload, 7, tmp_path / "a")
    second = generators.write_data(workload, 7, tmp_path / "b")
    other = generators.write_data(workload, 8, tmp_path / "c")
    assert len(first) >= 100
    assert [p.name for p, _ in first] == [p.name for p, _ in second]
    assert all(a.read_bytes() == b.read_bytes()
               for (a, _), (b, _) in zip(first, second))
    assert any(a.read_bytes() != c.read_bytes()
               for (a, _), (c, _) in zip(first, other))


def test_product_fans_add_p1_to_the_fifth_when_traced():
    timed = generators.product_fans(3)
    traced = generators.product_fans(3, traced=True)
    assert {spec["doc"]["lattice_rank"] for spec in timed} == {2, 3, 4}
    assert traced[:-1] == timed
    assert traced[-1]["doc"]["lattice_rank"] == 5
    assert traced[-1]["traced_only"]


def test_galois_ladder_is_added_when_traced():
    timed = generators.galois_descent(3)
    traced = generators.galois_descent(3, traced=True)
    assert traced[:len(timed)] == timed
    assert not any(spec["traced_only"] for spec in timed)
    ladder = traced[len(timed):]
    assert [spec["label"] for spec in ladder] == \
        [label for _, _, label in generators.LADDER]
    assert all(spec["traced_only"] for spec in ladder)


def test_regular_c10_is_refused_as_documented(tmp_path):
    items = _items("galois-descent", 3, tmp_path, traced=True)
    path = next(p for p, spec in items if spec["label"] == "regular C10")
    fan = torika.load_datum(path).fan
    with pytest.raises(torika.ResourceLimitError) as info:
        torika.brauer_kernel(fan)
    exc = torika.StageError("Brauer kernel", info.value)
    assert checker.documented_refusal(exc, fan)


def _items(workload, seed, tmp_path, traced=False):
    return generators.write_data(workload, seed, tmp_path, traced)


def test_galois_data_validate_or_are_refused_as_documented(tmp_path):
    for path, spec in _items("galois-descent", 4, tmp_path):
        fan = torika.load_datum(path).fan  # raises unless the fan is valid
        assert sorted(len(o) for o, _ in torika.ray_orbits(fan)) == \
            spec["orbit_sizes"], spec["label"]
        if spec["label"].endswith("wide"):
            with pytest.raises(torika.ResourceLimitError) as info:
                torika.brauer_kernel(fan)
            exc = torika.StageError("Brauer kernel", info.value)
            assert checker.documented_refusal(exc, fan), spec["label"]
        else:
            assert len(fan.rays) <= generators.MAX_ANSWERED_RAYS


def test_product_data_validate_or_are_refused_as_documented(tmp_path):
    for path, spec in _items("product-fans", 5, tmp_path, traced=True):
        fan = torika.load_datum(path, require_valid=False).fan
        working = checker.working_fan(fan)
        if fan.rank == 5:
            # Validating (P^1)^5 takes tens of seconds: check its truncation,
            # which is where the documented refusal happens.
            with pytest.raises(torika.ResourceLimitError):
                torika.brauer_kernel(working)
            continue
        assert torika.validate_fan(fan).ok, spec["label"]
        assert torika.class_group(working) == torika.FinAbGroup(fan.rank, ())


def test_checker_fails_on_a_wrong_expected_group():
    path = run.FIXTURES / "brauer_rank3.json"
    fan = torika.load_datum(path).fan
    answer = run.report_datum(path)
    assert checker.check_answer(answer, fan, {"brauer_kernel": (0, (2,))}) == []
    assert checker.check_answer(answer, fan, {"brauer_kernel": (0, ())})
    assert checker.check_answer(answer, fan, {"class_group": (1, ())})
    wrong = dict(answer, brauer_kernel=(0, (3,)))
    assert checker.check_answer(wrong, fan, {})  # the oracle disagrees
    wrong = dict(answer, class_group=(0, (2,)))
    assert checker.check_answer(wrong, fan, {})  # the Smith form disagrees


def test_independent_smith_form_matches_the_package():
    rng = random.Random(0)
    for _ in range(200):
        rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]]
        rows += [[rng.randint(-4, 4) for _ in rows[0]]
                 for _ in range(rng.randint(0, 4))]
        want = torika.cokernel(torika.IntMatrix(rows))
        assert checker.smith_invariants(rows, len(rows[0])) == \
            checker.group_pair(want), rows


def test_one_line_rejection_rules():
    assert checker.is_one_line_rejection(1, "", "torika: bad.json: oops\n")
    assert checker.is_one_line_rejection(
        1, "bad.json: INVALID\n  - ray 0 is zero\n", "")
    assert not checker.is_one_line_rejection(0, "", "torika: x\n")
    assert not checker.is_one_line_rejection(
        1, "", "Traceback (most recent call last):\n  ...\nKeyError: 1\n")


def test_trace_accounts_for_full_report(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    galois = _items("galois-descent", 1, tmp_path / "g")
    product = _items("product-fans", 1, tmp_path / "p")
    items = [(p, {"label": s["label"]}) for p, s in galois[::8]]
    items += [(p, {"label": s["label"]}) for p, s in product
              if s["doc"]["lattice_rank"] <= 3][:6]
    metrics, untraced, mismatched, ladder = run.traced_run("test", 1, items)
    assert mismatched == []
    assert metrics["trace.unaccounted_share"] < 0.05
    assert metrics["invariants.full_report_s"] > 0
    assert set(run.PER_LAYER_UNITS) == set(metrics)
    assert sum(row["data"] for row in ladder.values()) == len(items)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert spec["command"] == ["python3", "bench/run.py"]
