"""Command line interface, driven through main() directly."""

import json
import os
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

import pytest

from torika import invariants
from torika.cli import main
from torika.cohomology import cohomology, trivial_lattice
from torika.datum import datum_from_fan, load_datum, serialize_datum
from torika.errors import ResourceLimitError, TorikaError
from torika.groups import group_preset
from torika.invariants import full_report
from torika.structure import pure_divisorial_truncation, rho_map

from conftest import FIXTURE_NAMES, fixture_path
from test_datum import C2_DOC, MALFORMED_FIELDS, UNDECODABLE

DATA = Path(__file__).resolve().parent / "data"
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_good(capsys):
    code, out, err = run(capsys, "validate", fixture_path("p2"))
    assert code == 0
    assert "valid fan (3 rays, 7 cones)" in out
    assert err == ""


def test_validate_bad_exits_nonzero(capsys):
    code, out, err = run(capsys, "validate",
                         str(DATA / "bad_intersection.json"))
    assert code == 1
    assert "INVALID" in out
    assert "do not intersect in their common face" in out


def test_validate_prints_every_record_in_order_and_exits_1_on_an_invalid_one(capsys):
    good, bad, other = fixture_path("p2"), str(DATA / "bad_intersection.json"), fixture_path("a2")
    assert run(capsys, "validate", good, bad, other) == (1, (
        f"{good}: valid fan (3 rays, 7 cones)\n"
        f"{bad}: INVALID\n"
        f"  - cones (2,) and (0, 1) do not intersect in their common face\n"
        f"{other}: valid fan (2 rays, 4 cones)\n"), "")


def test_records_stream_so_a_later_error_follows_earlier_output(capsys, tmp_path):
    path, missing = fixture_path("p2"), str(tmp_path / "missing.json")
    _, first, _ = run(capsys, "report", path)
    code, out, err = run(capsys, "report", path, missing)
    assert (code, out) == (1, first)
    assert err.splitlines() == [f"torika: {missing}: No such file or directory"]


def test_validate_unreadable_file(capsys):
    code, out, err = run(capsys, "validate", str(DATA / "missing.json"))
    assert code == 1
    assert "torika:" in err


def test_validate_undecodable_file_is_one_located_line(capsys, tmp_path):
    for name, (content, fragment) in UNDECODABLE.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"torika: {path}: "), err
        assert fragment in err


def test_validate_json_format(capsys):
    code, out, _ = run(capsys, "validate", "--format", "json",
                       fixture_path("a2"))
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["cones"] == 4


def test_smooth(capsys):
    code, out, _ = run(capsys, "smooth", fixture_path("p2"))
    assert code == 0
    assert "fan is smooth" in out


def test_truncate(capsys):
    code, out, _ = run(capsys, "truncate", fixture_path("a2"))
    assert code == 0
    doc = json.loads(out)
    assert doc["max_cones"] == [[0], [1]]
    assert doc["rays"] == [[1, 0], [0, 1]]
    # the truncation is a datum, printed alike in both formats
    paths = [fixture_path(name) for name in FIXTURE_NAMES]
    text = run(capsys, "truncate", *paths)
    assert text[0] == 0 and text[1].count('"max_cones"') == len(paths)
    assert run(capsys, "truncate", "--format", "json", *paths) == text


def test_standard_json(capsys):
    code, out, _ = run(capsys, "standard", "--format", "json",
                       fixture_path("sign_rank1"))
    doc = json.loads(out)
    assert doc["rho_matrix"] == [[1, -1]]
    assert doc["standard"]["lattice_rank"] == 2
    for name in FIXTURE_NAMES:
        datum = load_datum(fixture_path(name))
        rho = rho_map(pure_divisorial_truncation(datum.fan))
        std = datum_from_fan(rho.source, datum.name + "-standard")
        out = run(capsys, "standard", "--format", "json", fixture_path(name))[1]
        assert json.loads(out)["standard"] == serialize_datum(std), name


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", fixture_path("nfamily_n3"))
    assert code == 0
    assert "class_group = Z/3" in out
    assert "brauer_kernel = 0" in out


def test_invariants_agree_with_report_on_fixtures(capsys):
    # invariants takes no --bound: no bound changes what it prints
    for name in FIXTURE_NAMES:
        path = fixture_path(name)
        report = json.loads(run(capsys, "report", "--format", "json", path)[1])
        code, out, err = run(capsys, "invariants", "--format", "json", path)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"file": path, **{
            key: report[key] for key in ("class_group", "brauer_kernel", "splitting_group")}}
        assert run(capsys, "invariants", path) == (0, (
            f"{path}: class_group = {report['class_group']['pretty']}\n"
            f"{path}: brauer_kernel = {report['brauer_kernel']['pretty']} "
            f"(splitting group {report['splitting_group']})\n"), "")
        with pytest.raises(SystemExit):
            main(["invariants", "--bound", "5", path])
        capsys.readouterr()


def test_report_text(capsys):
    code, out, _ = run(capsys, "report", fixture_path("nfamily_n3"))
    assert code == 0
    assert "class group" in out
    assert "Z/3" in out
    assert "tropical check" in out
    assert "pass" in out


def test_report_json(capsys):
    code, out, _ = run(capsys, "report", "--format", "json",
                       fixture_path("nfamily_n3"))
    doc = json.loads(out)
    assert doc["class_group"]["pretty"] == "Z/3"
    assert doc["class_group"]["invariant_factors"] == [3]
    assert doc["brauer_kernel"]["pretty"] == "0"
    assert doc["tropical_check"] is True
    assert doc["splitting_group"] == "trivial"


def test_report_nonpure_notes_truncation(capsys):
    code, out, _ = run(capsys, "report", fixture_path("a2"))
    assert code == 0
    assert "no (invariants use the truncation)" in out


def test_check_int(capsys):
    code, out, _ = run(capsys, "check-int", "--bound", "3",
                       fixture_path("standard_c2"))
    assert code == 0
    assert "check-int bound 3: PASS" in out


def test_check_int_refuses_a_negative_bound_in_one_line(capsys):
    assert run(capsys, "check-int", "--bound", "-1", fixture_path("standard_c2")) == (
        1, "", "torika: bound must be nonnegative\n")


@pytest.mark.parametrize("command", ["check-int", "report"])
def test_negative_bound_is_refused_before_any_file_is_read(capsys, tmp_path, command):
    missing = str(tmp_path / "missing.json")
    assert run(capsys, command, "--bound", "-1", missing) == (
        1, "", "torika: bound must be nonnegative\n")


def test_cohomology_from_file(capsys):
    code, out, _ = run(capsys, "cohomology", fixture_path("sign_rank1"))
    assert code == 0
    assert "H^2 = 0" in out


def test_cohomology_inline_lattice(capsys):
    code, out, _ = run(capsys, "cohomology", "--degree", "2",
                       "--splitting-group", "C2",
                       "--lattice", '{"rank": 1, "action": null}')
    assert code == 0
    assert "H^2 = Z/2" in out


def test_cohomology_inline_h1(capsys):
    code, out, _ = run(capsys, "cohomology", "--degree", "1",
                       "--splitting-group", "C2",
                       "--lattice",
                       '{"rank": 1, "action": {"generators": {"1": [[-1]]}}}')
    assert code == 0
    assert "H^1 = Z/2" in out


def test_cohomology_lattice_without_group(capsys):
    code, out, err = run(capsys, "cohomology",
                         "--lattice", '{"rank": 1, "action": null}')
    assert code == 1
    assert "--splitting-group" in err


def test_cohomology_group_without_lattice(capsys):
    # the flag names an inline lattice's group; a datum brings its own
    assert run(capsys, "cohomology", "--splitting-group", "C2", fixture_path("p2")) == (
        1, "", "torika: --splitting-group needs --lattice\n")


@pytest.mark.parametrize("spec, says", [
    ('{"rank": 2.7}', "field 'rank' must be an integer, got 2.7"),
    ('{"rank": true}', "field 'rank' must be an integer, got True"),
    ('{"rank": "2"}', "field 'rank' must be an integer, got '2'"),
    ('{"rank": -1}', "field 'rank' must be nonnegative, got -1"),
    ('{"rank": 1, "actoin": null}', "unknown keys ['actoin']"),
    ('{"rank": 1', "is not valid JSON"),
    ('[1]', 'expects {"rank": n, "action": ...}'),
    ('{"rank": 1, "action": [[[2]], [[1]]]}', "action of element 0 is not unimodular"),
    # argv keeps the bytes of a non-UTF-8 argument as lone surrogates
    pytest.param('{"rank": 1, "caf\udce9": null}', "codec can't encode character '\\udce9'",
                 id="not_utf8"),
    pytest.param("[" * 100_000, "maximum recursion depth exceeded", id="deep"),
    pytest.param('{"rank": ' + "9" * 5000 + "}",
                 "--lattice: an integer has more digits than Python converts",
                 id="huge_int"),
])
def test_cohomology_bad_inline_lattice_is_one_located_line(capsys, spec, says):
    code, out, err = run(capsys, "cohomology", "--splitting-group", "C2",
                         "--lattice", spec)
    assert code == 1 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("torika: --lattice"), err
    assert says in lines[0], err


def test_oversized_inline_lattice_is_refused_before_it_is_built(capsys):
    refusal = ("torika: --lattice: lattice rank 400 exceeds the limit 16 (d^1 would be "
               "400x400); raise it with --rank-limit\n")
    for degree in ("1", "2"):
        start = time.perf_counter()
        code, out, err = run(capsys, "cohomology", "--degree", degree,
                             "--splitting-group", "C2", "--lattice", '{"rank": 400}')
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (1, "", refusal)
    # the same words as the refusal of a lattice that was built
    lattice = trivial_lattice(group_preset("S3"), 17)
    with pytest.raises(ResourceLimitError) as info:
        cohomology(lattice, 1)
    code, out, err = run(capsys, "cohomology", "--degree", "1",
                         "--splitting-group", "S3", "--lattice", '{"rank": 17}')
    assert (code, out, err) == (
        1, "", f"torika: --lattice: {info.value.refusal}; raise it with --rank-limit\n")
    # degree 0 builds no d^1 and takes no guard
    code, out, _ = run(capsys, "cohomology", "--degree", "0",
                       "--splitting-group", "C2", "--lattice", '{"rank": 17}')
    assert code == 0 and "H^0 = Z^17" in out


def test_oversized_datum_is_refused_before_its_action_is_built(capsys, tmp_path):
    # a shear has infinite order, so building this C2 action would fail
    eye = [[int(i == j) for j in range(17)] for i in range(17)]
    shear = [row[:] for row in eye]
    shear[0][1] = 1
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"group": "C2", "lattice_rank": 17,
                                "action": [eye, shear], "rays": [], "max_cones": []}))
    refusal = (f"torika: {path}: lattice rank 17 exceeds the limit 16 (d^1 would be "
               "17x17); raise it with --rank-limit\n")
    for degree in ("1", "2"):
        assert run(capsys, "cohomology", "--degree", degree, str(path)) == (1, "", refusal)
    # every input is read before any H^n is printed
    assert run(capsys, "cohomology", "--degree", "2", fixture_path("p2"), str(path)) == (
        1, "", refusal)
    # degree 0 takes no guard, so the action is built and refused
    assert run(capsys, "cohomology", "--degree", "0", str(path)) == (
        1, "", f"torika: {path}: field 'action': action is not a homomorphism at (1, 1)\n")


C13 = {"order": 13, "table": [[(i + j) % 13 for j in range(13)] for i in range(13)]}


@pytest.mark.parametrize("argv, group, rank, refusal", [
    (["invariants"], "C2", 17,
     "Brauer kernel: lattice rank 17 exceeds the limit 16 (d^1 would be 17x17)"),
    (["report", "--format", "json"], C13, 1,
     "Brauer kernel: group order 13 exceeds the limit 12 (d^1 would be 1x1)"),
    (["cohomology"], "C2", 17,
     "lattice rank 17 exceeds the limit 16 (d^1 would be 17x17); raise it with --rank-limit"),
    (["cohomology", "--degree", "1"], C13, 1,
     "group order 13 exceeds the limit 12 (d^1 would be 1x1); raise it with --order-limit"),
], ids=["invariants", "report", "cohomology-rank", "cohomology-order"])
def test_size_refusal_names_its_file_and_only_this_commands_flag(
        capsys, tmp_path, argv, group, rank, refusal):
    # a refusal the command has no flag for names none; cohomology names
    # its own flag, not the library keyword
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"group": group, "lattice_rank": rank,
                                "rays": [], "max_cones": []}))
    code, _, err = run(capsys, *argv, fixture_path("p2"), str(path))
    assert (code, err) == (1, f"torika: {path}: {refusal}\n")


def test_cohomology_no_input(capsys):
    code, out, err = run(capsys, "cohomology")
    assert code == 1
    assert "datum file or --lattice" in err


def test_normalize_rays_flag(capsys):
    code, out, _ = run(capsys, "validate", "--normalize-rays",
                       str(DATA / "nonprimitive_ray.json"))
    assert code == 0
    assert "valid fan" in out


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "report", "--format", "json",
                      fixture_path("standard_s3"))
    _, second, _ = run(capsys, "report", "--format", "json",
                       fixture_path("standard_s3"))
    assert first == second


@pytest.mark.parametrize("error, line", [
    (AssertionError("unit rank plus divisor rank\nmust equal the fan rank"),
     "internal error in ray orbits: AssertionError: unit rank plus "
     "divisor rank must equal the fan rank"),
    (KeyError("ray_perms"),
     "internal error in ray orbits: KeyError: 'ray_perms'"),
])
def test_internal_error_is_one_line(capsys, monkeypatch, error, line):
    def broken(fan):
        raise error

    monkeypatch.setattr("torika.invariants.ray_orbits", broken)
    path = fixture_path("p2")
    code, out, err = run(capsys, "report", path)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"torika: {path}: {line}"]


def test_coset_ray_mismatch_is_an_internal_error_of_the_tropical_check(
        capsys, monkeypatch):
    # a ray hit twice and one missed: impossible on a valid fan
    monkeypatch.setattr("torika.structure._coset_rays", lambda fan: [0, 0, 2])
    path = fixture_path("p2")
    code, out, err = run(capsys, "report", path)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"torika: {path}: internal error in tropical check: AssertionError: "
        "rho's columns are not the fan's rays, each once"]


def test_internal_error_before_any_stage_names_none(capsys, monkeypatch):
    def broken(fan):
        raise KeyError("pure")

    monkeypatch.setattr("torika.invariants.is_pure_divisorial", broken)
    path = fixture_path("p2")
    code, out, err = run(capsys, "report", path)
    assert code == 1
    assert err.splitlines() == [f"torika: {path}: internal error: KeyError: 'pure'"]


@pytest.mark.parametrize("error, line", [
    (KeyError("x"), "internal error in Brauer kernel: KeyError: 'x'"),
    (TorikaError("weird"), "Brauer kernel: weird"),
])
def test_a_failure_inside_one_input_names_that_input(capsys, monkeypatch, error, line):
    # the trivial group of p2 passes; the C2 of standard_c2 fails, after p2's report
    kernel = invariants._shapiro_kernel

    def broken(lattice, *rest):
        if lattice.group.order > 1:
            raise error
        return kernel(lattice, *rest)

    monkeypatch.setattr(invariants, "_shapiro_kernel", broken)
    first, second = fixture_path("p2"), fixture_path("standard_c2")
    _, alone, _ = run(capsys, "report", first)
    assert run(capsys, "report", first, second) == (1, alone, f"torika: {second}: {line}\n")
    assert run(capsys, "invariants", second) == (1, "", f"torika: {second}: {line}\n")


@pytest.mark.parametrize("name", sorted(MALFORMED_FIELDS))
def test_malformed_group_and_action_fields_are_one_located_line(capsys, tmp_path, name):
    fields, message = MALFORMED_FIELDS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(C2_DOC, **fields)))
    assert run(capsys, "validate", str(path)) == (1, "", f"torika: {path}: {message}\n")


def test_a_generator_list_is_refused_in_an_inline_lattice_too(capsys):
    assert run(capsys, "cohomology", "--splitting-group", "C2", "--lattice",
               '{"rank": 1, "action": {"generators": [[1]]}}') == (
        1, "", "torika: --lattice: field 'action.generators' must map element "
               "indices to matrices\n")


def test_a_wide_trivial_action_validates_and_is_refused_by_the_brauer_kernel(
        capsys, tmp_path):
    path = tmp_path / "wide_trivial.json"
    path.write_text(json.dumps({"group": "C6", "lattice_rank": 600, "action": None,
                                "rays": [], "max_cones": []}))
    start = time.perf_counter()
    assert run(capsys, "validate", str(path)) == (
        0, f"{path}: valid fan (0 rays, 1 cones)\n", "")
    assert run(capsys, "report", str(path)) == (
        1, "", f"torika: {path}: Brauer kernel: lattice rank 600 exceeds the limit 16 "
               "(d^1 would be 600x600)\n")
    assert time.perf_counter() - start < 10.0


def test_validate_refuses_cone_wider_than_rank_in_one_line(capsys, tmp_path):
    path = tmp_path / "wide_cone.json"
    path.write_text(json.dumps({
        "group": "trivial", "lattice_rank": 2,
        "rays": [[1, k] for k in range(20)], "max_cones": [list(range(20))]}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err == (f"torika: {path}: max_cones entry 0 lists 20 rays, more "
                   f"than lattice_rank 2, so its generators are linearly "
                   f"dependent\n")


def _group_doc(g):
    return {"free_rank": g.free_rank, "invariant_factors": list(g.torsion), "pretty": str(g)}


def test_invariants_computes_only_what_it_prints(capsys, monkeypatch):
    # the two fields of the full report, with no orbit count or tropical check
    reports = {name: full_report(load_datum(fixture_path(name)).fan) for name in FIXTURE_NAMES}

    def refuse(*args):
        raise AssertionError("torika invariants prints neither")
    module = import_module("torika.invariants")
    for name in ("orbit_count", "tropical_int_check"):
        monkeypatch.setattr(module, name, refuse)
    for name, rep in reports.items():
        path = fixture_path(name)
        assert run(capsys, "invariants", path) == (0, (
            f"{path}: class_group = {rep.class_group}\n"
            f"{path}: brauer_kernel = {rep.brauer_kernel} "
            f"(splitting group {rep.splitting_group})\n"), "")
        doc = {"file": path, "class_group": _group_doc(rep.class_group),
               "brauer_kernel": _group_doc(rep.brauer_kernel),
               "splitting_group": rep.splitting_group}
        assert run(capsys, "invariants", "--format", "json", path) == (
            0, json.dumps(doc, indent=2, sort_keys=True) + "\n", "")


SMOKE = [[*command.split(), "--format", format, *sorted(
    str(p.relative_to(ROOT)) for p in (ROOT / "fixtures").glob("*.json"))]
    for format in ("text", "json")
    for command in ("validate", "smooth", "truncate", "standard", "invariants",
                    "check-int", "report", "cohomology --degree 0",
                    "cohomology --degree 1", "cohomology --degree 2")]
SMOKE.append(["cohomology", "--degree", "2", "--splitting-group", "C2", "--lattice",
              '{"rank": 2, "action": [[[1,0],[0,1]],[[0,1],[1,0]]]}'])
MALFORMED = [["validate", str(p.relative_to(ROOT))] for p in sorted(DATA.glob("*.json"))]

# main() on each argv, with numpy made unimportable first
NO_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from torika.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _run_python(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)


def test_the_command_line_runs_without_numpy(capsys, monkeypatch):
    proc = _run_python("-c", NO_NUMPY, json.dumps(SMOKE + MALFORMED))
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(SMOKE) + len(MALFORMED)
    monkeypatch.chdir(ROOT)
    for argv, got in zip(SMOKE + MALFORMED, results):
        assert tuple(got) == run(capsys, *argv), argv
    for argv, (code, out, err) in zip(SMOKE, results):
        assert (code, err) == (0, ""), argv
    assert len(MALFORMED) >= 20
    for (_, path), (code, out, err) in zip(MALFORMED, results[len(SMOKE):]):
        lines = err.splitlines()
        assert code == 1, path
        assert (len(lines) == 1 and lines[0].startswith("torika: ")) or (
            not lines and out.splitlines()[0] == f"{path}: INVALID"), (path, err)


def test_importing_the_command_line_imports_no_numpy():
    proc = _run_python("-c", "import torika.cli, sys; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_importing_the_command_line_builds_no_dataclasses():
    # -S: the interpreter's site module may import typing by itself
    proc = _run_python("-S", "-c", "import torika.cli, sys; print(sorted("
                       "{'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
