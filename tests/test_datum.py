"""Datum files: loading, located errors, round trips."""

import json
import re
import time
from itertools import permutations
from pathlib import Path

import pytest

from torika.cohomology import permutation_module
from torika.datum import (build_action, build_group, datum_from_fan, dump_datum,
                          load_datum, serialize_datum)
from torika.errors import DatumError
from torika.fans import validate_fan
from torika.groups import group_preset
from torika.linalg import IntMatrix, _is_unimodular

from conftest import FIXTURE_NAMES, fixture_path, load_fixture

DATA = Path(__file__).resolve().parent / "data"


def data_path(name):
    return str(DATA / f"{name}.json")


def test_all_fixtures_load_and_validate():
    for name in FIXTURE_NAMES:
        datum = load_fixture(name)
        assert validate_fan(datum.fan).ok
        assert datum.lattice_rank == datum.fan.rank


def test_family_fixture_content():
    datum = load_fixture("nfamily_n3")
    assert datum.rays == [(1, 0), (-1, 3)]
    assert datum.max_cones == ((0,), (1,))
    assert datum.group.order == 1


def test_round_trip_all_fixtures():
    for name in FIXTURE_NAMES:
        datum = load_fixture(name)
        doc = serialize_datum(datum)
        rebuilt = datum_from_fan(datum.fan, datum.name)
        doc2 = serialize_datum(rebuilt)
        assert doc == doc2
        # reload through a file written from the serialization
        import json
        import tempfile

        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as fh:
            json.dump(doc, fh)
            path = fh.name
        reloaded = load_datum(path)
        assert reloaded.rays == datum.rays
        assert reloaded.max_cones == datum.max_cones
        assert reloaded.group.table == datum.group.table
        for g in datum.group.elements():
            assert reloaded.action.act(g) == datum.action.act(g)


def test_generator_action_completion():
    datum = load_fixture("brauer_rank3")
    flip = IntMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert datum.action.act(1) == flip
    assert datum.action.act(0) == IntMatrix.identity(3)


def test_generator_action_completion_klein():
    import json
    import tempfile

    doc = {"group": "C2xC2", "lattice_rank": 2,
           "action": {"generators": {"1": [[-1, 0], [0, 1]],
                                     "2": [[1, 0], [0, -1]]}},
           "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
           "max_cones": [[0], [1], [2], [3]]}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        path = fh.name
    datum = load_datum(path)
    assert datum.action.act(3) == IntMatrix([[-1, 0], [0, -1]])


@pytest.mark.parametrize("key", [" 1", "+1", "01", "1_0", "a"])
def test_generator_keys_are_decimal_element_indices(key):
    c2 = group_preset("C2")
    assert build_action(c2, 1, {"generators": {"1": [[-1]]}}).act(1) == IntMatrix([[-1]])
    with pytest.raises(DatumError, match=re.escape(
            f"generator key {key!r} is not an element index")):
        build_action(c2, 1, {"generators": {key: [[-1]]}})


def test_group_and_generator_fields_refuse_bad_values():
    c2 = group_preset("C2")
    with pytest.raises(DatumError, match="field 'group' must be a preset name "
                                         "or a table, got int"):
        build_group(3)
    # the identity's matrix is I before any generator is read
    with pytest.raises(DatumError, match="element 0 is assigned two different matrices"):
        build_action(c2, 1, {"generators": {"0": [[-1]]}})


def test_generator_completion_multiplies_only_along_the_tree(monkeypatch):
    # GLattice is the one proof of the action, so the walk takes one
    # product per element it reaches and checks no other edge
    from torika import datum as datum_module

    s3 = group_preset("S3")
    lattice = permutation_module(s3, s3.trivial_subgroup())
    gens = {"1": lattice.act(1).to_rows(), "2": lattice.act(2).to_rows()}
    products = []
    matmul = IntMatrix.__matmul__
    monkeypatch.setattr(IntMatrix, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    matrices = datum_module._complete_generator_action(s3, 6, gens)
    assert len(products) == s3.order - 1
    assert matrices == lattice.action


C2_DOC = {"group": "C2", "lattice_rank": 1, "rays": [[1]], "max_cones": [[0]]}
# malformed datums refused by the field they break, never an internal error
MALFORMED_FIELDS = {
    "generators_list": ({"action": {"generators": [[1]]}},
                        "field 'action.generators' must map element indices to matrices"),
    "table_row_int": ({"group": {"order": 2, "table": [5, [1, 0]]}},
                      "field 'group.table' must be a list of rows"),
    "action_extra_key": ({"action": {"generators": {"1": [[-1]]}, "extra": 1}},
                         "field 'action': unknown keys ['extra']"),
    "group_extra_key": ({"group": {"order": 2, "table": [[0, 1], [1, 0]], "extra": 1}},
                        "field 'group': unknown keys ['extra']"),
    "group_name_key": ({"group": {"order": 2, "table": [[0, 1], [1, 0]], "name": "C2"}},
                       "field 'group': unknown keys ['name']"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FIELDS))
def test_malformed_group_and_action_fields_are_located(tmp_path, name):
    fields, message = MALFORMED_FIELDS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(C2_DOC, **fields)))
    with pytest.raises(DatumError) as err:
        load_datum(str(path))
    assert str(err.value) == f"{path}: {message}"


def test_a_wide_trivial_action_is_adopted_without_a_product(tmp_path, monkeypatch):
    def refuse(a, b):
        raise AssertionError("a matrix product")

    path = tmp_path / "wide_trivial.json"
    path.write_text(json.dumps({"group": "C6", "lattice_rank": 600, "action": None,
                                "rays": [], "max_cones": []}))
    monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
    start = time.perf_counter()
    datum = load_datum(str(path))
    assert time.perf_counter() - start < 5.0
    assert datum.lattice_rank == 600 and datum.group.order == 6
    assert all(datum.action.act(g) == IntMatrix.identity(600) for g in range(6))


def _s3_permutation_doc(action):
    """S3 permuting the coordinates of Z^3, with the coordinate rays."""
    return {"group": "S3", "lattice_rank": 3, "action": action,
            "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "max_cones": [[0], [1], [2]]}


def _permutation_matrix(p):
    return [[int(p[j] == i) for j in range(3)] for i in range(3)]


def test_generator_action_completion_two_generators(tmp_path):
    # S3 lists the permutations of {0, 1, 2} lexicographically; the
    # transpositions 1 = (1 2) and 2 = (0 1) generate it
    perms = list(permutations(range(3)))
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(_s3_permutation_doc(
        [_permutation_matrix(p) for p in perms])))
    generated = tmp_path / "generated.json"
    generated.write_text(json.dumps(_s3_permutation_doc(
        {"generators": {"1": _permutation_matrix(perms[1]),
                        "2": _permutation_matrix(perms[2])}})))
    want = load_datum(str(listed)).action
    assert load_datum(str(generated)).action == want
    assert [want.act(g).to_rows() for g in range(6)] == [
        _permutation_matrix(p) for p in perms]
    # -P still squares to I, but (1 2)(0 1) no longer has order 3
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(_s3_permutation_doc(
        {"generators": {"1": _permutation_matrix(perms[1]),
                        "2": [[-x for x in row]
                              for row in _permutation_matrix(perms[2])]}})))
    with pytest.raises(DatumError,
                       match=r"field 'action': action is not a homomorphism at \(2, 4\)$"):
        load_datum(str(broken))


@pytest.mark.parametrize("name,fragment", [
    ("bad_json", "Expecting"),
    ("unknown_preset", "unknown group preset 'C9'"),
    ("wrong_table", "field 'group'"),
    ("nonunimodular_action", "element 1 is not unimodular"),
    ("inconsistent_generators", "field 'action': action is not a homomorphism at (1, 1)"),
    ("nongenerating", "unreached elements [2, 3]"),
    ("wrong_action_count", "one matrix per element"),
    ("wrong_ray_length", "ray 0 must be a vector of length 2"),
    ("nonprimitive_ray", "ray 0 is not primitive"),
    ("zero_ray", "ray 0 is zero"),
    ("duplicate_rays", "rays 0 and 1 coincide"),
    ("out_of_range_cone", "ray index 3"),
    ("dependent_cone", "linearly dependent"),
    ("bad_intersection", "do not intersect in their common face"),
    ("ray_off_fan", "which is not a ray"),
    ("cone_image_missing", "which is not a cone"),
    ("missing_field", "missing required field 'lattice_rank'"),
    ("unknown_field", "unknown fields ['extra']"),
    ("negative_rank", "must be nonnegative"),
    ("float_ray", "must be an integer"),
])
def test_malformed_fixture(name, fragment):
    path = data_path(name)
    with pytest.raises(DatumError) as err:
        load_datum(path)
    message = str(err.value)
    assert fragment in message
    assert name in message  # errors are located with the file path


TOO_LONG = "an integer has more digits than Python converts, far above every size limit"
UNDECODABLE = {
    "latin1": (b'{"name": "caf\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
    "deep": (b"[" * 100_000, "maximum recursion depth exceeded"),
    # more digits than Python converts: refused in the datum's own words
    "huge_int": (b'{"lattice_rank": ' + b"9" * 5000 + b"}", TOO_LONG),
    "huge_negative_int": (b'{"rays": [[-' + b"9" * 4301 + b"]]}", TOO_LONG),
}


@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_file_is_one_located_datum_error(tmp_path, name):
    content, fragment = UNDECODABLE[name]
    path = tmp_path / f"{name}.json"
    path.write_bytes(content)
    with pytest.raises(DatumError) as err:
        load_datum(str(path))
    message = str(err.value)
    assert message.startswith(f"{path}: ") and fragment in message
    assert "\n" not in message


@pytest.mark.parametrize("name, source, message", [
    ("field", "nonunimodular_action",
     "field 'action': the matrix for element 1 is not unimodular"),
    ("ray", "float_ray", "ray 0 entry must be an integer, got 1.5"),
])
def test_relative_path_prefix_of_its_message_is_still_named(
        tmp_path, monkeypatch, name, source, message):
    # the relative path is a prefix of the message, which is located all the same
    (tmp_path / name).write_bytes(Path(data_path(source)).read_bytes())
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DatumError) as err:
        load_datum(name)
    assert str(err.value) == f"{name}: {message}"


def test_full_action_lists_take_determinants_only_to_name_a_failure(monkeypatch):
    from torika import datum as datum_module

    calls = []
    monkeypatch.setattr(datum_module, "_is_unimodular",
                        lambda m: calls.append(m) or _is_unimodular(m))
    s3 = group_preset("S3")
    lattice = permutation_module(s3, s3.trivial_subgroup())
    spec = [m.to_rows() for m in lattice.action]
    assert build_action(s3, 6, spec) == lattice and not calls
    swapped = spec[:1] + spec[2:3] + spec[1:2] + spec[3:]
    with pytest.raises(DatumError, match="field 'action': action is not a homomorphism"):
        build_action(s3, 6, swapped)
    assert len(calls) == 6
    singular = spec[:4] + [[[2 * x for x in row] for row in spec[4]]] + spec[5:]
    with pytest.raises(DatumError, match="action of element 4 is not unimodular"):
        build_action(s3, 6, singular)
    calls.clear()  # generator matrices are still checked, one each
    gens = {"1": spec[1], "2": spec[2], "4": spec[4]}
    assert build_action(s3, 6, {"generators": gens}) == lattice and len(calls) == 3


def test_normalize_rays():
    path = data_path("nonprimitive_ray")
    datum = load_datum(path, normalize_rays=True)
    assert datum.rays == [(1, 0)]


def test_require_valid_off():
    path = data_path("nonprimitive_ray")
    datum = load_datum(path, require_valid=False)
    report = validate_fan(datum.fan)
    assert not report.ok


def test_dump_is_deterministic():
    datum = load_fixture("standard_s3")
    assert dump_datum(datum) == dump_datum(datum)


def wide_cone_doc(rays_in_cone, rank=2):
    """A datum whose one maximal cone lists more rays than the rank."""
    rays = [[1, k] + [0] * (rank - 2) for k in range(rays_in_cone)]
    return {"group": "trivial", "lattice_rank": rank, "rays": rays,
            "max_cones": [list(range(rays_in_cone))]}


def test_cone_with_more_rays_than_rank_is_refused_early(tmp_path):
    path = tmp_path / "wide_cone.json"
    path.write_text(json.dumps(wide_cone_doc(20)))
    start = time.perf_counter()
    with pytest.raises(DatumError) as err:
        load_datum(str(path), require_valid=False)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == (
        f"{path}: max_cones entry 0 lists 20 rays, more than lattice_rank 2, "
        f"so its generators are linearly dependent")


def test_cone_rays_are_counted_once(tmp_path):
    # a repeated index is one ray, so three distinct rays in rank 3 load
    doc = wide_cone_doc(3, rank=3)
    doc["max_cones"] = [[0, 1, 2, 2, 0]]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    assert load_datum(str(path), require_valid=False).max_cones == ((0, 1, 2),)
    doc["max_cones"] = [[0, 1, 1], [0, 1, 2, 3]]
    doc["rays"].append([0, 0, 1])
    path.write_text(json.dumps(doc))
    with pytest.raises(DatumError, match="entry 1 lists 4 rays"):
        load_datum(str(path), require_valid=False)
