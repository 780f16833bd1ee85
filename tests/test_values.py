"""The value classes: construction, equality, hashing, read-only fields and reprs.

Each maker below builds one value of one public class from scratch, so
two calls give equal values that are distinct objects.  Fields are
listed in the order the constructor takes them; `==`, `hash` and the
generic repr read exactly these, in this order.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from conftest import fixture_path
from torika import value as value_module
from torika.cohomology import (CohomologyResult, GLattice, GLatticeMap,
                               InducedCohomologyMap, cohomology, induced_h2_map,
                               permutation_module)
from torika.datum import ToricDatum, load_datum
from torika.fans import Cone, ConeForm, GFan, Ray, ValidationReport, validate_fan
from torika.groups import FiniteGroup, Subgroup, cyclic_group
from torika.invariants import InvariantReport, full_report
from torika.linalg import FinAbGroup, IntMatrix, SmithDecomposition, smith_normal_form
from torika.structure import (AffineStructure, FanMorphism, TropicalCheckResult,
                              affine_structure, rho_map, tropical_int_check)
from torika.value import Value


def _c2_swap():
    group = cyclic_group(2)
    return GLattice(group, 2, (IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]])))


def _c2_fan():
    return load_datum(fixture_path("standard_c2")).fan


def _h2_map():
    source = _c2_swap()
    return induced_h2_map(GLatticeMap(source, source, IntMatrix([[0, 1], [1, 0]])))


# class -> (maker, compared fields, repr is the generic Name(field=value, ...))
VALUES = {
    FiniteGroup: (lambda: cyclic_group(3), ("order", "table"), False),
    Subgroup: (lambda: cyclic_group(4).subgroup([0, 2]), ("parent", "elements"), False),
    SmithDecomposition: (lambda: smith_normal_form(IntMatrix([[2, 4], [6, 8]])),
                         ("u", "s", "v"), True),
    FinAbGroup: (lambda: FinAbGroup(1, (2, 4)), ("free_rank", "torsion"), True),
    GLattice: (_c2_swap, ("group", "rank", "action"), True),
    GLatticeMap: (lambda: GLatticeMap(_c2_swap(), _c2_swap(), IntMatrix([[0, 1], [1, 0]])),
                  ("source", "target", "matrix"), True),
    CohomologyResult: (lambda: cohomology(_c2_swap(), 2),
                       ("degree", "coefficients", "group", "cocycles", "boundaries"), True),
    InducedCohomologyMap: (_h2_map, ("source", "target", "matrix"), True),
    Ray: (lambda: Ray((1, -2)), ("generator",), False),
    Cone: (lambda: Cone((2, 0)), ("rays",), False),
    ConeForm: (lambda: ConeForm.of([(1, 0, 0), (1, 2, 0)], 3),
               ("independent", "smooth", "normals", "duals"), True),
    GFan: (_c2_fan, ("rank", "rays", "cones", "action"), True),
    ValidationReport: (lambda: validate_fan(_c2_fan()), ("problems",), True),
    FanMorphism: (lambda: rho_map(_c2_fan()), ("source", "target", "matrix"), True),
    AffineStructure: (lambda: affine_structure(_c2_fan(), ()),
                      ("res_factors", "units", "divisor_module"), True),
    TropicalCheckResult: (lambda: tropical_int_check(_c2_fan(), 2),
                          ("passed", "uncovered", "unexpected"), True),
    InvariantReport: (lambda: full_report(_c2_fan()),
                      ("smooth", "pure_divisorial", "orbit_count", "ray_orbit_summary",
                       "class_group", "brauer_kernel", "tropical_check",
                       "splitting_group"), True),
    ToricDatum: (lambda: load_datum(fixture_path("standard_c2")),
                 ("name", "group_spec", "fan"), True),
}
CLASSES = sorted(VALUES, key=lambda cls: cls.__name__)
GENERIC_REPRS = [cls for cls in CLASSES if VALUES[cls][2]]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_values_compare_and_hash_equal(cls):
    make, fields, _ = VALUES[cls]
    a, b = make(), make()
    assert type(a) is type(b) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a.__eq__(object()) is NotImplemented and a != object()
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    make, fields, _ = VALUES[cls]
    value = make()
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    assert value == make()


@pytest.mark.parametrize("cls", GENERIC_REPRS, ids=lambda cls: cls.__name__)
def test_generic_reprs_print_the_compared_fields(cls):
    make, fields, _ = VALUES[cls]
    value = make()
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_values_survive_copy_and_pickle(cls):
    value = VALUES[cls][0]()
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)


def test_custom_reprs_are_unchanged():
    c3 = cyclic_group(3)
    assert repr(c3) == "FiniteGroup(C3)"
    assert repr(FiniteGroup(2, ((0, 1), (1, 0)))) == "FiniteGroup(order 2)"
    assert repr(cyclic_group(4).subgroup([2, 0])) == "Subgroup([0, 2] of FiniteGroup(C4))"
    assert repr(Ray([1, -2])) == "Ray(1, -2)"
    assert repr(Cone([2, 0, 2])) == "Cone(0, 2)"
    assert repr(Cone()) == "Cone()"


def test_constructors_keep_their_defaults_and_normal_forms():
    assert Cone().rays == ()
    assert Cone([3, 1, 3]).rays == (1, 3)
    assert Ray([1, 2]).generator == (1, 2)
    assert FinAbGroup(2).torsion == ()
    assert ConeForm(False, False).normals == ConeForm(False, False).duals == ()
    group = FiniteGroup(order=2, table=[[0, 1], [1, 0]])
    assert group.table == ((0, 1), (1, 0)) and group.identity == 0 and group.name == ""
    assert FiniteGroup(2, ((0, 1), (1, 0)), 0, "C2").name == "C2"
    assert group.generating_set == (1,) and group.inv(1) == 1
    assert cyclic_group(4).subgroup([2, 0, 2]).elements == (0, 2)


def test_excluded_fields_do_not_affect_equality():
    named, unnamed = cyclic_group(2), FiniteGroup(2, ((0, 1), (1, 0)), name="")
    assert named == unnamed and hash(named) == hash(unnamed)
    assert FiniteGroup(2, ((0, 1), (1, 0)), identity=1) == named
    g = cyclic_group(6)
    assert g.subgroup([0, 3]) == g.generated_subgroup([3])
    for value in (named, g.subgroup([0, 3])):
        twin = copy.copy(value)
        object.__setattr__(twin, "generating_set", ())
        assert twin == value and hash(twin) == hash(value)

    result = cohomology(_c2_swap(), 2)
    bare = CohomologyResult(result.degree, result.coefficients, result.group,
                            result.cocycles, result.boundaries)
    assert bare._coords is None and result._coords is not None
    assert bare == result and hash(bare) == hash(result)
    assert "_coords" not in repr(result)

    fan, fresh = _c2_fan(), _c2_fan()
    fan.cone_form(fan.maximal_cones()[0])
    assert fan._cache != fresh._cache
    assert fan == fresh
    assert "_cache" not in repr(fan)


def test_a_fan_keeps_its_own_hash_and_cache():
    fan = _c2_fan()
    assert hash(fan) == hash((fan.rank, fan.rays, fan.cones, fan.action.group.table))
    cache = {}
    built = GFan(fan.rank, fan.rays, fan.cones, fan.action, cache)
    assert built._cache is cache and built == fan
    assert GFan(fan.rank, fan.rays, fan.cones, fan.action)._cache == {}


def test_values_of_different_fields_differ():
    assert Cone((0, 1)) != Cone((0, 2)) and Ray((1, 0)) != Ray((0, 1))
    assert FinAbGroup(1, (2,)) != FinAbGroup(0, (2,))
    assert cyclic_group(2) != cyclic_group(3)
    assert ValidationReport(("a",)) != ValidationReport(())
    assert ToricDatum("x", "C2", _c2_fan()) != ToricDatum("y", "C2", _c2_fan())
    z4 = cyclic_group(4)
    assert permutation_module(z4, z4.subgroup([0, 2])) != permutation_module(
        z4, z4.trivial_subgroup())


# The plain records: every slot is set by `Value.__init__`, with no checks.
RECORDS = [AffineStructure, CohomologyResult, ConeForm, InducedCohomologyMap,
           InvariantReport, SmithDecomposition, ToricDatum, TropicalCheckResult,
           ValidationReport]


def _slot_values(cls):
    value = VALUES[cls][0]()
    return value, [getattr(value, name) for name in cls.__slots__]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_have_no_initializer_of_their_own(cls):
    assert "__init__" not in cls.__dict__
    assert cls.__init__ is Value.__init__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_built_positionally_by_keyword_and_mixed(cls):
    value, given = _slot_values(cls)
    slots = cls.__slots__
    by_name = dict(zip(slots, given))
    for built in (cls(*given), cls(**by_name), cls(**dict(reversed(by_name.items()))),
                  cls(*given[:1], **dict(zip(slots[1:], given[1:]))),
                  cls(*given[:-1], **{slots[-1]: given[-1]})):
        assert type(built) is cls and built == value and hash(built) == hash(value)
        assert all(getattr(built, name) is getattr(value, name) for name in slots)


def test_only_the_optional_slots_have_defaults():
    assert {cls: cls._defaults for cls in CLASSES if cls._defaults} == {
        ConeForm: {"normals": (), "duals": ()}, CohomologyResult: {"_coords": None}}


@pytest.mark.parametrize("cls", [ConeForm, CohomologyResult], ids=lambda cls: cls.__name__)
def test_records_left_out_slots_take_their_defaults(cls):
    value, given = _slot_values(cls)
    kept = {name: x for name, x in zip(cls.__slots__, given) if name not in cls._defaults}
    first = next(iter(kept))
    for built in (cls(*kept.values()), cls(**kept),
                  cls(kept[first], **{k: v for k, v in kept.items() if k != first})):
        assert {name: getattr(built, name) for name in cls._defaults} == cls._defaults
        assert all(getattr(built, name) is x for name, x in kept.items())
    # `_coords` is left out of equality; ConeForm's normals and duals are compared
    assert (cls(**kept) == value) == (cls is CohomologyResult)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_bad_call_to_a_record_is_a_type_error_naming_the_class(cls):
    _, given = _slot_values(cls)
    slots = cls.__slots__
    required = [name for name in slots if name not in cls._defaults]
    last = required[-1]
    calls = {
        f"missing argument '{last}'": lambda: cls(*given[:len(required) - 1]),
        f"missing argument '{required[0]}'": lambda: cls(
            **dict(zip(required[1:], given[1:len(required)]))),
        "unexpected keyword argument 'not_a_field'": lambda: cls(*given, not_a_field=1),
        f"multiple values for argument '{slots[0]}'": lambda: cls(*given, **{slots[0]: None}),
        f"takes {len(slots)} arguments but {len(slots) + 1} were given": lambda: cls(
            *given, None),
    }
    for words, call in calls.items():
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value).startswith(f"{cls.__name__}() ") and words in str(info.value)


def test_value_module_generates_no_code():
    tree = ast.parse(Path(value_module.__file__).read_text())
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"exec", "eval", "compile"}


def test_a_subclass_keeps_the_initializer():
    class Named(Ray):
        pass

    class Outcome(TropicalCheckResult):
        pass

    assert Named([1, 2]).generator == (1, 2)
    assert Outcome(True, (), unexpected=(3,)).unexpected == (3,)
