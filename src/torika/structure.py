"""Structure maps of equivariant toric varieties.

Everything here is built from a validated GFan: the pure divisorial
truncation (drop all cones of dimension >= 2), the affine structure of
a stable cone, the standard toric variety attached to a list of ray
stabilizers, the comparison morphism rho from the standard variety, the
divisor character map, and the integrality check relating a fan's
support to the support of its standard cover, which holds by the
orbit-stabilizer theorem.
"""

from __future__ import annotations

from .cohomology import (GLattice, GLatticeMap, coset_permutations,
                         permutation_lattice)
from .errors import (IncompatibleModulesError, MalformedSubgroupError,
                     NotDescendableError)
from .fans import GFan, _checked_cone, _valid_subfan, is_smooth_cone, ray_orbits
from .groups import FiniteGroup, Subgroup
from .linalg import IntMatrix, _coords_in_basis, _matmul, _transpose
from .value import Value


class FanMorphism(Value):
    """An equivariant lattice map carrying one fan into another.

    The matrix maps the cocharacter lattice of the source fan to that of
    the target; construction verifies equivariance (as a GLatticeMap of
    the two actions) and that every source cone lands inside some target
    cone.
    """

    __slots__ = _fields = ("source", "target", "matrix")

    def __init__(self, source: GFan, target: GFan, matrix: IntMatrix):
        Value.__init__(self, source, target, matrix)
        GLatticeMap(self.source.action, self.target.action, self.matrix)
        forms = [self.target.cone_form(c) for c in self.target.maximal_cones()]
        for cone in self.source.cones:
            images = [self.matrix.apply(self.source.rays[i].generator)
                      for i in cone.rays]
            if not any(all(map(form.contains, images)) for form in forms):
                raise IncompatibleModulesError(
                    f"source cone {cone.rays} does not map into any target cone")

    def apply(self, point):
        return self.matrix.apply(point)


class AffineStructure(Value):
    """Descent data of the affine patch of a stable cone.

    Fields res_factors, units and divisor_module.  res_factors lists the
    stabilizer of one ray per orbit of the cone's rays (the factors of the
    etale algebra the patch restricts along); units is the character
    lattice of the patch's unit torus; and divisor_module is the
    permutation lattice on the cone's rays.
    """

    __slots__ = _fields = ("res_factors", "units", "divisor_module")


def is_pure_divisorial(fan: GFan) -> bool:
    """Whether every cone has dimension at most one."""
    return all(len(c) <= 1 for c in fan.cones)


def pure_divisorial_truncation(fan: GFan) -> GFan:
    """The subfan of cones of dimension <= 1, with the same rays and action.

    Geometrically this removes the closed strata of codimension >= 2,
    leaving the maximal open subvariety whose orbits all have dimension
    >= rank - 1.  A pure divisorial fan is returned as is; the subfan of
    any other inherits its validation and ray orbits.
    """
    fan.require_valid()
    if is_pure_divisorial(fan):
        return fan
    return _valid_subfan(fan, tuple(c for c in fan.cones if len(c) <= 1))


def affine_structure(fan: GFan, cone) -> AffineStructure:
    """Descent data of the affine patch attached to a stable smooth cone."""
    fan.require_valid()
    cone = _checked_cone(fan, cone)
    perms = fan.ray_permutations()
    for g in fan.group.generating_set:
        image = {perms[g][i] for i in cone.rays}
        if image != set(cone.rays):
            raise NotDescendableError(
                f"cone {cone.rays} is not stable under element {g}")
    if not is_smooth_cone(fan, cone):
        raise ValueError(f"cone {cone.rays} is not smooth")
    # a stable cone is a union of whole ray orbits
    factors = [stab for orbit, stab in ray_orbits(fan) if orbit[0] in cone]
    # units: the dual action on the characters vanishing on the stable cone, in
    # the basis of its normals, adopted: `_coords_in_basis` refuses an image outside
    normals = fan.cone_form(cone).normals
    basis = _transpose(normals, fan.rank)
    dual = fan.action.dual()
    units = GLattice._adopt(fan.group, len(normals), (
        IntMatrix._adopt(_coords_in_basis(basis, _matmul(dual.act(g)._r, basis)), len(normals))
        for g in fan.group.elements()))
    # divisor module: permutation lattice on the cone's rays
    index_of = {ray: pos for pos, ray in enumerate(cone.rays)}
    divisor_module = permutation_lattice(
        fan.group, [tuple(index_of[perm[ray]] for ray in cone.rays) for perm in perms])
    if units.rank + divisor_module.rank != fan.rank:
        raise AssertionError("unit rank plus divisor rank must equal the fan rank")
    return AffineStructure(res_factors=tuple(factors), units=units,
                           divisor_module=divisor_module)


def standard_fan(group: FiniteGroup, stabilizers) -> GFan:
    """The standard toric variety of a list of ray stabilizers.

    The cocharacter lattice is the direct sum of the coset permutation
    modules Z[G/H_i]; the rays are the coset basis vectors and the only
    cones are the zero cone and one ray cone each, so the result is pure
    divisorial and valid by construction.
    """
    stabilizers = tuple(stabilizers)
    for h in stabilizers:
        if not isinstance(h, Subgroup) or h.parent != group:
            raise MalformedSubgroupError(
                "stabilizers must be subgroups of the given group")
    # the direct sum of the Z[G/H_i]: one permutation of all the cosets
    perms = [()] * group.order
    for h in stabilizers:
        offset = len(perms[0])
        perms = [perm + tuple(offset + i for i in block)
                 for perm, block in zip(perms, coset_permutations(group, h))]
    lattice = permutation_lattice(group, perms)
    rank = lattice.rank
    rays = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    cones = [()] + [(i,) for i in range(rank)]
    return GFan(rank=rank, rays=tuple(rays), cones=tuple(cones), action=lattice)


def _coset_rays(fan: GFan):
    """The ray sigma(D_i) of each coset sigma*H_i, as rho's columns are ordered.

    D_i is the least-index ray of orbit i and H_i its stabilizer.
    """
    perms = fan.ray_permutations()
    return [perms[coset[0]][orbit[0]]
            for orbit, stab in ray_orbits(fan) for coset in stab.left_cosets()]


def rho_map(fan: GFan) -> FanMorphism:
    """The comparison morphism from the standard variety onto a fan.

    Builds the standard fan on the stabilizers of the fan's ray orbits
    and sends the basis vector of each coset sigma*H_i to the generator
    of the ray sigma(D_i), D_i being the least-index ray of orbit i.
    """
    fan.require_valid()
    if not is_pure_divisorial(fan):
        raise ValueError("rho is defined for pure divisorial fans only")
    source = standard_fan(fan.group, [stab for _, stab in ray_orbits(fan)])
    columns = [fan.rays[i].generator for i in _coset_rays(fan)]
    matrix = IntMatrix.from_columns(columns, rows=fan.rank)
    return FanMorphism(source=source, target=fan, matrix=matrix)


def character_lattice(fan: GFan) -> GLattice:
    """The character lattice M, dual to the fan's cocharacter action."""
    return fan.action.dual()


def ray_permutation_lattice(fan: GFan) -> GLattice:
    """The permutation G-lattice on the fan's rays."""
    return permutation_lattice(fan.group, fan.require_valid().ray_permutations())


def ray_matrix(fan: GFan) -> IntMatrix:
    """The matrix whose row r is the generator of ray r: the `Ray`s of a
    valid fan (each caller's) hold `fan.rank` ints, so it is adopted."""
    return IntMatrix._adopt([r.generator for r in fan.rays], fan.rank)


def divisor_map(fan: GFan) -> GLatticeMap:
    """The map M -> Z^rays sending a character to its boundary divisor.

    Its matrix is `ray_matrix(fan)`, so the image of m is the vector of
    pairings <m, v_r>.  The map is equivariant for the dual action on M
    and the permutation action on rays.
    """
    fan.require_valid()
    return GLatticeMap(source=character_lattice(fan),
                       target=ray_permutation_lattice(fan),
                       matrix=ray_matrix(fan))


class TropicalCheckResult(Value):
    """Outcome of the support lattice-point comparison: passed, uncovered, unexpected."""

    __slots__ = _fields = ("passed", "uncovered", "unexpected")

    def __bool__(self):
        return self.passed


def pure_divisorial_support(fan: GFan, bound: int):
    """Support lattice points of a pure divisorial fan, enumerated ray-wise.

    The support is the union of the rays, so its integer points are the
    origin plus the multiples c*v, 1 <= c <= bound/||v||.  Agrees with
    the box scan of support_lattice_points but stays linear in bound.
    """
    fan.require_valid()
    if not is_pure_divisorial(fan):
        raise ValueError("ray-wise enumeration needs a pure divisorial fan")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    points = {(0,) * fan.rank}
    for v in fan.ray_vectors():
        top = bound // max(abs(x) for x in v)
        points.update(tuple(c * x for x in v) for c in range(1, top + 1))
    return tuple(sorted(points))


def tropical_int_check(fan: GFan, bound: int) -> TropicalCheckResult:
    """Compare a fan's support points with the image of its standard cover.

    With (V, rho) the standard fan and comparison map, the support points
    of max-norm <= bound must be exactly rho of those of V.  Both sets
    are the origin and the multiples of their rays, and by the
    orbit-stabilizer theorem sigma*H_i -> sigma(D_i) (`_coset_rays`)
    hits every ray exactly once, so they agree at every bound.  Only
    that bijection is checked; neither V nor rho is built.
    """
    fan.require_valid()
    if not is_pure_divisorial(fan):
        raise ValueError("the support comparison needs a pure divisorial fan")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if sorted(_coset_rays(fan)) != list(range(len(fan.rays))):
        raise AssertionError("rho's columns are not the fan's rays, each once")
    return TropicalCheckResult(True, (), ())
