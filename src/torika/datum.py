"""Reading and writing fan descriptions as JSON documents.

A datum file is a single JSON object with the keys

    name          optional label
    group         preset name ("trivial", "C2", ..., "S3") or
                  {"order": n, "table": [[...], ...]}
    lattice_rank  ambient lattice rank
    action        null for the trivial action, a list with one
                  rank x rank matrix per group element, or
                  {"generators": {"<element>": matrix, ...}} to give
                  matrices on generators only
    rays          list of integer vectors
    max_cones     list of ray-index lists; faces are materialized

Loading produces a ToricDatum whose fan has passed validation, or a
DatumError locating the offending field.
"""

from __future__ import annotations

import json

from .cohomology import GLattice, _check_limits, _walk_action, trivial_lattice
from .errors import DatumError, TorikaError
from .fans import GFan, primitive_vector, validate_fan
from .groups import GROUP_PRESETS, FiniteGroup, group_preset
from .linalg import IntMatrix, _is_unimodular
from .value import Value


class ToricDatum(Value):
    """Fields name, group_spec and fan: a named fan as loaded from (or written to) a file."""

    __slots__ = _fields = ("name", "group_spec", "fan")

    @property
    def group(self) -> FiniteGroup:
        return self.fan.group

    @property
    def lattice_rank(self) -> int:
        return self.fan.rank

    @property
    def rays(self):
        return self.fan.ray_vectors()

    @property
    def max_cones(self):
        return tuple(c.rays for c in self.fan.maximal_cones())

    @property
    def action(self) -> GLattice:
        return self.fan.action


def _require(condition, message):
    if not condition:
        raise DatumError(message)


# the one ValueError json raises besides bad syntax and text that is not UTF-8
HUGE_INT = "an integer has more digits than Python converts, far above every size limit"


def _as_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatumError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_matrix(data, rank, what):
    _require(isinstance(data, list) and len(data) == rank,
             f"{what} must be a {rank}x{rank} matrix")
    rows, entry = [], f"{what} entry"
    for i, row in enumerate(data):
        _require(isinstance(row, list) and len(row) == rank,
                 f"{what} row {i} must have {rank} entries")
        rows.append([_as_int(x, entry) for x in row])
    return IntMatrix._adopt(rows, rank)  # every entry and row length checked above


def build_group(spec) -> FiniteGroup:
    """Expand a group field: preset name or explicit order/table."""
    if isinstance(spec, str):
        try:
            return group_preset(spec)
        except TorikaError as exc:
            raise DatumError(f"field 'group': {exc}") from None
    if isinstance(spec, dict):
        _require("order" in spec and "table" in spec,
                 "field 'group': explicit groups need 'order' and 'table'")
        unknown = sorted(set(spec) - {"order", "table"})
        _require(not unknown, f"field 'group': unknown keys {unknown}")
        order = _as_int(spec["order"], "field 'group.order'")
        table = spec["table"]
        _require(isinstance(table, list) and all(isinstance(row, list) for row in table),
                 "field 'group.table' must be a list of rows")
        try:
            return FiniteGroup(order=order, table=tuple(
                tuple(_as_int(x, "field 'group.table' entry") for x in row)
                for row in table))
        except TorikaError as exc:
            raise DatumError(f"field 'group': {exc}") from None
    raise DatumError(f"field 'group' must be a preset name or a table, "
                     f"got {type(spec).__name__}")


def _complete_generator_action(group, rank, gens):
    """The matrices given on generators, {element: matrix}, after the identity's I."""
    _require(isinstance(gens, dict), "field 'action.generators' must map "
             "element indices to matrices")
    given = {group.identity: IntMatrix.identity(rank)}
    for key, mat in gens.items():
        try:
            g = int(key)
        except (TypeError, ValueError):
            g = None
        if g is None or str(key) != str(g):  # no " 1", "+1", "01" or "1_0"
            raise DatumError(f"field 'action': generator key {key!r} "
                             f"is not an element index")
        _require(0 <= g < group.order,
                 f"field 'action': generator {g} is out of range")
        matrix = _parse_matrix(mat, rank, f"field 'action' generator {g}")
        _require(given.setdefault(g, matrix) == matrix,
                 f"field 'action': element {g} is assigned two different matrices")
    return given


def build_action(group, rank, spec) -> GLattice:
    """Expand an action field into a validated GLattice."""
    if spec is None:
        return trivial_lattice(group, rank)
    if isinstance(spec, dict):
        _require("generators" in spec, "field 'action': expected null, "
                 "a matrix list, or {'generators': {...}}")
        unknown = sorted(set(spec) - {"generators"})
        _require(not unknown, f"field 'action': unknown keys {unknown}")
        given = _complete_generator_action(group, rank, spec["generators"])
        gens, what = [g for g in given if g != group.identity], "the matrix for element"
    else:
        _require(isinstance(spec, list) and len(spec) == group.order,
                 f"field 'action' must list one matrix per element "
                 f"({group.order} expected)")
        given = {g: _parse_matrix(m, rank, f"field 'action' element {g}")
                 for g, m in enumerate(spec)}
        gens, what = group.generating_set, "action of element"
    mats = [given.get(g) for g in group.elements()]
    try:  # built and proved on one walk: |G||S| products
        if mats[group.identity] != IntMatrix.identity(rank):
            raise ValueError("identity element must act as the identity matrix")
        _walk_action(group, mats, gens)
        return GLattice._adopt(group, rank, mats)
    except ValueError as exc:
        # unimodularity is checked only to name the first matrix that fails it
        bad = next((g for g, m in given.items() if not _is_unimodular(m)), None)
        _require(bad is None, f"field 'action': {what} {bad} is not unimodular")
        raise DatumError(f"field 'action': {exc}") from None


def _build_datum(doc, *, normalize_rays=False, limits=None) -> ToricDatum:
    _require(isinstance(doc, dict), "top level must be an object")
    for key in ("group", "lattice_rank", "rays", "max_cones"):
        _require(key in doc, f"missing required field '{key}'")
    unknown = set(doc) - {"name", "group", "lattice_rank", "action",
                          "rays", "max_cones"}
    _require(not unknown, f"unknown fields {sorted(unknown)}")
    name = doc.get("name", "")
    _require(isinstance(name, str), "field 'name' must be a string")
    group = build_group(doc["group"])
    rank = _as_int(doc["lattice_rank"], "field 'lattice_rank'")
    _require(rank >= 0, "field 'lattice_rank' must be nonnegative")
    if limits is not None:  # refused before the action is built
        _check_limits(group, rank, *limits)
    action = build_action(group, rank, doc.get("action"))
    raw_rays = doc["rays"]
    _require(isinstance(raw_rays, list), "field 'rays' must be a list")
    rays = []
    for i, vec in enumerate(raw_rays):
        _require(isinstance(vec, list) and len(vec) == rank,
                 f"ray {i} must be a vector of length {rank}")
        entry = f"ray {i} entry"
        ray = tuple(_as_int(x, entry) for x in vec)
        if normalize_rays:
            ray = primitive_vector(ray) if any(ray) else ray
        rays.append(ray)
    cones = doc["max_cones"]
    _require(isinstance(cones, list), "field 'max_cones' must be a list")
    for i, cone in enumerate(cones):
        _require(isinstance(cone, list),
                 f"max_cones entry {i} must be a list of ray indices")
        entry = f"max_cones entry {i} index"
        for x in cone:
            _as_int(x, entry)
        # refused before from_max_cones builds all 2^k faces of the cone
        k = len(set(cone))
        _require(k <= rank,
                 f"max_cones entry {i} lists {k} rays, more than "
                 f"lattice_rank {rank}, so its generators are linearly dependent")
    fan = GFan.from_max_cones(rank, rays, cones, action=action)
    return ToricDatum(name, doc["group"], fan)


def load_datum(path, *, normalize_rays=False, require_valid=True,
               limits=None) -> ToricDatum:
    """Load, expand and validate a datum file.

    limits = (order_limit, rank_limit) refuses a larger group or rank as
    `cohomology` would, before the action is built.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DatumError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise DatumError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (UnicodeError, RecursionError) as exc:  # not UTF-8, too deep
        raise DatumError(f"{path}: {exc}") from None
    except ValueError:
        raise DatumError(f"{path}: {HUGE_INT}") from None
    try:
        datum = _build_datum(doc, normalize_rays=normalize_rays, limits=limits)
    except DatumError as exc:
        raise DatumError(f"{path}: {exc}") from None
    if require_valid:
        report = validate_fan(datum.fan)
        if not report.ok:
            raise DatumError(f"{path}: invalid fan: " + "; ".join(report.problems))
    return datum


def _serialize_group(fan_group, group_spec=None):
    if isinstance(group_spec, str) and group_spec in GROUP_PRESETS:
        return group_spec
    return next((name for name in GROUP_PRESETS if group_preset(name).table == fan_group.table),
                {"order": fan_group.order, "table": [list(row) for row in fan_group.table]})


def serialize_datum(datum: ToricDatum) -> dict:
    """The JSON document describing a datum; inverse of loading."""
    fan = datum.fan
    if all(fan.action.act(g) == IntMatrix.identity(fan.rank)
           for g in fan.group.elements()):
        action = None
    else:
        action = [fan.action.act(g).to_rows() for g in fan.group.elements()]
    return {
        "name": datum.name,
        "group": _serialize_group(fan.group, datum.group_spec),
        "lattice_rank": fan.rank,
        "action": action,
        "rays": [list(r) for r in fan.ray_vectors()],
        "max_cones": [list(c.rays) for c in fan.maximal_cones()],
    }


def datum_from_fan(fan: GFan, name: str = "") -> ToricDatum:
    """Wrap an existing fan as a datum, deriving the group description."""
    return ToricDatum(name, _serialize_group(fan.group), fan)


def dump_datum(datum: ToricDatum) -> str:
    return json.dumps(serialize_datum(datum), indent=2, sort_keys=True)
