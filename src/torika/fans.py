"""Rational fans with a finite group action on the ambient lattice.

A fan is stored combinatorially: primitive ray generators plus the list
of cones as sets of ray indices.  All geometry is decided exactly from
one Smith form per cone and integer kernels, never with floating point.
The group acts through its generators: their matrices give every ray
permutation, their cone images prove the action, and a clean action lets
validation test one pair of maximal cones per orbit.  Validation reports
every violated condition at once, so malformed input is diagnosed in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from itertools import combinations, product
from operator import index, mul

from .cohomology import GLattice, trivial_lattice
from .errors import FanValidationError, NotInFanError
from .groups import FiniteGroup, Subgroup, trivial_group
from .linalg import _content, _eye, _kernel_array, _smith

import numpy as np


@dataclass(frozen=True)
class Ray(object):
    """A one-dimensional cone, named by its primitive integer generator."""

    generator: tuple

    def __post_init__(self):
        object.__setattr__(self, "generator", tuple(map(index, self.generator)))

    @property
    def max_norm(self):
        return max((abs(x) for x in self.generator), default=0)

    def __repr__(self):
        return f"Ray{self.generator}"


@dataclass(frozen=True)
class Cone:
    """A cone of the fan, as the sorted tuple of its ray indices.

    The empty tuple is the zero cone."""

    rays: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(sorted(set(map(index, self.rays)))))

    def __len__(self):
        return len(self.rays)

    def __iter__(self):
        return iter(self.rays)

    def __contains__(self, i):
        return i in self.rays

    def __repr__(self):
        return f"Cone{self.rays}"


def _as_cone(c):
    return c if isinstance(c, Cone) else Cone(tuple(c))


@dataclass(frozen=True)
class ConeForm:
    """One Smith form u G v = S of a cone's generator matrix G (k x n).

    G is independent iff k d_i are nonzero, smooth iff all are 1.  If it
    is independent, normals are the columns of v[:, k:], orthogonal to
    G's rows, and duals those of L = v[:, :k] diag(d_k/d_i) u: G L = d_k I.
    """

    independent: bool
    smooth: bool
    normals: tuple = ()
    duals: tuple = ()

    @classmethod
    def of(cls, generators, n):
        k = len(generators)
        d, u, v, _ = _smith(np.array(generators, dtype=object).reshape(k, n),
                            left=_eye(k), want_v=True)
        if len(d) < k:
            return cls(False, False)
        dual = v[:, :k] * np.array([d[-1] // x for x in d], dtype=object) @ u
        return cls(True, all(x == 1 for x in d), tuple(map(tuple, v[:, k:].T.tolist())),
                   tuple(map(tuple, dual.T.tolist())))

    def contains(self, points):
        """Which rows p of an object array lie in the cone: those in G's
        span (p v[:, k:] = 0) with nonnegative coordinates d_k c = p L."""
        if not self.independent:
            raise ValueError("membership needs linearly independent generators")
        inside = np.ones(len(points), dtype=bool)
        for vectors, keep in ((self.normals, np.equal), (self.duals, np.greater_equal)):
            if vectors:
                inside &= keep(points.dot(np.array(vectors, dtype=object).T), 0).all(axis=1)
        return inside


def _cached(method):
    """Compute a fan accessor once and keep the result in the fan's _cache."""
    name = method.__name__

    @wraps(method)
    def accessor(self):
        if name not in self._cache:
            self._cache[name] = method(self)
        return self._cache[name]
    return accessor


@dataclass(frozen=True)
class GFan:
    """A fan together with a group acting on the ambient lattice.

    Construction only normalizes the data; every semantic requirement
    (primitivity, face closure, cone intersections, equivariance) is
    checked by validate_fan, which reports all problems at once.
    """

    rank: int
    rays: tuple
    cones: tuple
    action: GLattice
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(
            r if isinstance(r, Ray) else Ray(r) for r in self.rays))
        object.__setattr__(self, "cones", tuple(_as_cone(c) for c in self.cones))

    @classmethod
    def from_max_cones(cls, rank, rays, max_cones, action=None):
        """Build a fan from maximal cones, materializing all faces."""
        if action is None:
            action = trivial_lattice(trivial_group(), rank)
        closed = {()}
        for cone in max_cones:
            idx = tuple(sorted(set(cone)))
            for size in range(1, len(idx) + 1):
                closed.update(combinations(idx, size))
        cones = tuple(Cone(c) for c in sorted(closed, key=lambda c: (len(c), c)))
        return cls(rank, tuple(rays), cones, action)

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    def ray_vectors(self):
        return [r.generator for r in self.rays]

    @_cached
    def cone_set(self):
        return frozenset(c.rays for c in self.cones)

    def has_cone(self, cone) -> bool:
        return _as_cone(cone).rays in self.cone_set()

    @_cached
    def maximal_cones(self):
        """The cones inside no other cone, in listing order.

        Cones are visited largest first, so a cone lies inside another
        cone exactly when it lies inside a maximal cone already found.
        """
        sets = [frozenset(c.rays) for c in self.cones]
        top = []
        for i in sorted(range(len(sets)), key=lambda i: -len(sets[i])):
            if not any(sets[i] < sets[j] for j in top):
                top.append(i)
        return tuple(self.cones[i] for i in sorted(top))

    def cone_form(self, cone):
        """The cone's ConeForm, computed once per cone and kept."""
        forms = self._cache.setdefault("forms", {})
        if cone.rays not in forms:
            forms[cone.rays] = ConeForm.of(
                [self.rays[i].generator for i in cone.rays], self.rank)
        return forms[cone.rays]

    @_cached
    def ray_permutations(self):
        """For each group element, the image of every ray index under it,
        composed from the generators' images along the tree edges of their
        Cayley walk.  If a generator sends a ray off the ray set, every
        element is applied, and an image is None where it leaves the set."""
        lookup = {r.generator: i for i, r in enumerate(self.rays)}

        def images(g):
            return tuple(lookup.get(self.action.act(g).apply(r.generator)) for r in self.rays)
        gens, elements = self.group.generating_set, self.group.elements()
        steps = [images(s) for s in gens]
        if any(None in step for step in steps):
            return tuple(map(images, elements))
        perms = {self.group.identity: tuple(lookup[r.generator] for r in self.rays)}
        for g, j, h, tree in self.group.cayley_walk(gens):
            if tree:
                perms[h] = tuple(perms[g][i] for i in steps[j])
        return tuple(perms[g] for g in elements)

    @_cached
    def ray_orbits(self):
        """Orbits of the group on rays with the stabilizer of each least ray.

        Valid fans only; see the module-level ray_orbits.
        """
        perms = self.ray_permutations()
        out = []
        for start in range(len(self.rays)):
            orbit = tuple(sorted({perm[start] for perm in perms}))
            if orbit[0] == start:  # each orbit once, from its least ray
                stab = [g for g in self.group.elements() if perms[g][start] == start]
                out.append((orbit, Subgroup(self.group, tuple(stab))))
        return tuple(out)

    def max_ray_norm(self):
        return max((r.max_norm for r in self.rays), default=0)

    def require_valid(self):
        report = validate_fan(self)
        if not report.ok:
            raise FanValidationError(report.problems)
        return self

    def __hash__(self):
        return hash((self.rank, self.rays, self.cones, self.action.group.table))


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple

    @property
    def ok(self):
        return not self.problems

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(self.problems)


def _points(rows, rank):
    return np.array(rows, dtype=object).reshape(len(rows), rank)


def cone_contains_point(fan: GFan, cone, point) -> bool:
    """Exact membership of an integer point in a cone of the fan."""
    return bool(fan.cone_form(_as_cone(cone)).contains(_points([point], fan.rank))[0])


def _extreme_directions(b):
    """Extreme rays of {t : b @ t >= 0} for a full-column-rank integer b, by
    brute force over (q-1)-subsets of the constraints: the last resort of
    _meet_in_common_face, for pairs no functional separates."""
    m, q = b.shape
    if q == 0:
        return []
    seen = set()
    out = []
    for subset in combinations(range(m), q - 1):
        sub = b[list(subset), :] if subset else np.empty((0, q), dtype=object)
        null = _kernel_array(sub)
        if null.shape[1] != 1:
            continue
        d = list(primitive_vector(null[:, 0]))
        img = b.dot(np.array(d, dtype=object)).tolist()
        if all(x <= 0 for x in img):  # only -d can then meet b @ t >= 0
            d, img = [-x for x in d], [-x for x in img]
        if all(x >= 0 for x in img) and any(img) and tuple(d) not in seen:
            seen.add(tuple(d))
            out.append((d, img))
    return out


def _separated(fan: GFan, c1: Cone, c2: Cone) -> bool:
    """Whether the duals of one cone's own rays, summed, separate the pair.

    For sigma = c1, then c2, the sum m is >= 0 on sigma and 0 exactly on
    the common face; m w < 0 on the other cone's own rays w then gives
    m <= 0 there (Fulton, Introduction to Toric Varieties, 1.2).
    """
    for sigma, tau in ((c1, c2), (c2, c1)):
        m = [sum(x) for x in zip(*(f for i, f in zip(sigma.rays, fan.cone_form(sigma).duals)
                                   if i not in tau.rays))]
        if all(sum(map(mul, m, fan.rays[i].generator)) < 0
               for i in tau.rays if i not in sigma.rays):
            return True
    return False


def _meet_in_common_face(fan: GFan, c1: Cone, c2: Cone) -> bool:
    """Whether two simplicial cones intersect exactly in their common face.

    Nested cones do.  Two rays do too, as the layout check makes them
    distinct and primitive, and a ray w against a larger cone sigma does
    iff w is not in sigma.  Two larger cones try a separating functional
    (_separated) first.  Without one, write V = [V' | C] and W = [W' | C],
    C the shared rays.  V and W are each independent, so a point V a = W b
    lies in the common face iff a' = 0 and b' = 0, and the shared
    coefficients drop out, as any gamma is alpha - beta with alpha,
    beta >= 0.  So the pair is good iff no nonzero (a', b') >= 0 has
    V' a' - W' b' in span C.  Those (a', b') are B' t, B' the V' and W'
    rows of the kernel of [V' | -W' | C], of full column rank as C is
    independent: good iff B' t >= 0 has no extreme ray.
    """
    s1, s2 = set(c1.rays), set(c2.rays)
    if s1 <= s2 or s2 <= s1 or len(c1) == len(c2) == 1:
        return True
    if min(len(c1), len(c2)) == 1:
        ray, sigma = (c1, c2) if len(c1) == 1 else (c2, c1)
        return not cone_contains_point(fan, sigma, fan.rays[ray.rays[0]].generator)
    if _separated(fan, c1, c2):
        return True
    own1 = [fan.rays[i].generator for i in c1.rays if i not in s2]
    own2 = [tuple(-x for x in fan.rays[i].generator) for i in c2.rays if i not in s1]
    common = [fan.rays[i].generator for i in c1.rays if i in s2]
    system = np.array(own1 + own2 + common, dtype=object).reshape(-1, fan.rank).T
    return not _extreme_directions(_kernel_array(system)[:len(own1) + len(own2), :])


def validate_fan(fan: GFan) -> ValidationReport:
    """Check every fan requirement and report all violations at once."""
    if "report" not in fan._cache:
        problems = _layout_problems(fan)
        # geometry: only meaningful once the combinatorial layer is clean
        if not problems:
            # Faces of independent cones are independent, so the other
            # cones are scanned only when some maximal cone is dependent.
            # A ray is independent once the layout is clean.
            dependent = [c.rays for c in fan.maximal_cones()
                         if len(c) > 1 and not fan.cone_form(c).independent]
            if dependent:
                dependent = [c.rays for c in fan.cones
                             if len(c) > 1 and not fan.cone_form(c).independent]
            problems = [f"cone {rays} has linearly dependent generators"
                        for rays in dependent]
            # Faces of simplicial cones meet along their shared generators,
            # so when all maximal cones meet in common faces, so do all faces.
            good = [c for c in fan.maximal_cones()
                    if c.rays and c.rays not in dependent]
            action = _action_problems(fan)
            problems += [
                f"cones {a.rays} and {b.rays} do not intersect in their common face"
                for a, b in _bad_pairs(fan, good, clean=not action)]
            problems += action
        fan._cache["report"] = ValidationReport(tuple(problems))
    return fan._cache["report"]


def _bad_pairs(fan: GFan, good, clean):
    """The pairs of good cones that do not meet in their common face, in
    combinations(good, 2) order.  With a clean action each g is a lattice
    automorphism of the fan, so (a, b) and (ga, gb) share a verdict: one
    pair per orbit is tested, its orbit closed under the generators.
    Otherwise, or when every good cone is a ray, each orbit is one pair."""
    gens = fan.group.generating_set if clean and any(len(c) > 1 for c in good) else ()
    where = {c.rays: k for k, c in enumerate(good)}
    perms = fan.ray_permutations()
    moves = [[where[tuple(sorted(perms[s][i] for i in c.rays))] for c in good]
             for s in gens]
    verdict = {}
    for a, b in combinations(range(len(good)), 2):
        if (a, b) not in verdict:
            orbit, verdict[a, b] = [(a, b)], _meet_in_common_face(fan, good[a], good[b])
            for x, y in orbit:
                for move in moves:
                    image = (move[x], move[y]) if move[x] < move[y] else (move[y], move[x])
                    if image not in verdict:
                        verdict[image] = verdict[a, b]
                        orbit.append(image)
        if not verdict[a, b]:
            yield good[a], good[b]


def _valid_subfan(fan: GFan, cones) -> GFan:
    """A face-closed, G-stable set of a valid fan's cones, as a fan: valid,
    with the same rays and action, it inherits the report and ray orbits."""
    sub = GFan(fan.rank, fan.rays, cones, fan.action)
    sub._cache.update(report=validate_fan(fan.require_valid()),
                      ray_permutations=fan.ray_permutations(),
                      ray_orbits=fan.ray_orbits())
    return sub


def _layout_problems(fan: GFan):
    """Problems with the ranks, the rays and the face structure of the cones."""
    problems = []
    if fan.rank < 0:
        problems.append("negative lattice rank")
    if fan.action.rank != fan.rank:
        problems.append(
            f"action has rank {fan.action.rank} but the fan has rank {fan.rank}"
        )
    seen_rays = {}
    for i, ray in enumerate(fan.rays):
        vec = ray.generator
        if len(vec) != fan.rank:
            problems.append(f"ray {i} has length {len(vec)}, expected {fan.rank}")
            continue
        if not any(vec):
            problems.append(f"ray {i} is zero")
            continue
        if _content(vec) != 1:
            problems.append(f"ray {i} is not primitive: {vec}")
        if vec in seen_rays:
            problems.append(f"rays {seen_rays[vec]} and {i} coincide")
        else:
            seen_rays[vec] = i
    cone_sets = set()
    for c in fan.cones:
        if c.rays in cone_sets:
            problems.append(f"cone {c.rays} is listed twice")
        cone_sets.add(c.rays)
        for i in c.rays:
            if not 0 <= i < len(fan.rays):
                problems.append(f"cone {c.rays} uses ray index {i}, which does not exist")
    if () not in cone_sets:
        problems.append("the zero cone is missing")
    for c in fan.cones:
        if len(c) >= 1 and all(0 <= i < len(fan.rays) for i in c.rays):
            for facet in combinations(c.rays, len(c) - 1):
                if facet not in cone_sets:
                    problems.append(f"cone {c.rays} is missing its face {facet}")
    for i in range(len(fan.rays)):
        if (i,) not in cone_sets:
            problems.append(f"ray {i} does not appear in any cone")
    return problems


def _action_problems(fan: GFan):
    """Rays the group sends off the ray set, else cones sent off the fan:
    the elements keeping the cone set form a subgroup, so every element
    is scanned only when a generator fails."""
    perms = fan.ray_permutations()
    problems = [
        f"element {g} sends ray {i} to "
        f"{fan.action.act(g).apply(fan.rays[i].generator)}, which is not a ray"
        for g, perm in enumerate(perms) for i, j in enumerate(perm) if j is None]

    def cone_problems(elements):
        return [f"element {g} sends cone {c.rays} to {image}, which is not a cone"
                for g in elements for c in fan.cones
                for image in [tuple(sorted(perms[g][i] for i in c.rays))]
                if image not in fan.cone_set()]
    return problems or (cone_problems(fan.group.generating_set)
                        and cone_problems(fan.group.elements()))


def _checked_cone(fan: GFan, cone) -> Cone:
    cone = _as_cone(cone)
    if not fan.has_cone(cone):
        raise NotInFanError(f"cone {cone.rays} is not in the fan")
    return cone


def is_smooth_cone(fan: GFan, cone) -> bool:
    """Whether the cone's generators extend to a basis of the lattice."""
    fan.require_valid()
    cone = _checked_cone(fan, cone)
    return len(cone) <= 1 or fan.cone_form(cone).smooth  # rays are primitive


def is_smooth(fan: GFan) -> bool:
    fan.require_valid()
    if "is_smooth" not in fan._cache:
        fan._cache["is_smooth"] = all(
            is_smooth_cone(fan, c) for c in fan.maximal_cones())
    return fan._cache["is_smooth"]


def orbit_count(fan: GFan) -> int:
    """Number of torus orbits after base change: one per cone."""
    fan.require_valid()
    return len(fan.cones)


def orbit_dimension(fan: GFan, cone) -> int:
    """Dimension of the torus orbit attached to a cone."""
    fan.require_valid()
    cone = _checked_cone(fan, cone)
    return fan.rank - len(cone)


def ray_orbits(fan: GFan):
    """Orbits of the group on rays, each with the stabilizer of its first ray.

    Returns a tuple of (orbit, stabilizer) pairs; orbits are sorted
    tuples of ray indices, ordered by their smallest member.
    """
    return fan.require_valid().ray_orbits()


def support_lattice_points(fan: GFan, bound: int):
    """All integer points of the fan's support with max-norm at most bound.

    The box is tested against each maximal cone's ConeForm at once.
    """
    fan.require_valid()
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    box = _points(list(product(range(-bound, bound + 1), repeat=fan.rank)), fan.rank)
    inside = np.zeros(len(box), dtype=bool)
    for cone in fan.maximal_cones():
        inside |= fan.cone_form(cone).contains(box)
    return tuple(map(tuple, box[inside].tolist()))  # the box is in sorted order


def primitive_vector(vec):
    """Divide an integer vector by the gcd of its entries."""
    vec = tuple(map(index, vec))
    g = _content(vec)
    if g <= 1:
        return vec
    return tuple(x // g for x in vec)
