"""Rational fans with a finite group action on the ambient lattice.

A fan is stored combinatorially: primitive ray generators plus the list
of cones as sets of ray indices.  All geometry is decided exactly from
one Smith form per cone and integer kernels, never with floating point.
The group acts through its generators: their matrices give every ray
permutation, their cone images prove the action, and a clean action lets
validation visit one maximal cone per orbit against the rest.  Validation reports
every violated condition at once, so malformed input is diagnosed in full.
"""

from __future__ import annotations

from functools import wraps
from itertools import combinations, product
from math import gcd
from operator import index, mul

from .cohomology import GLattice, trivial_lattice
from .errors import FanValidationError, NotInFanError
from .groups import FiniteGroup, Subgroup, trivial_group
from .linalg import _eye, _kernel_array, _matmul, _smith, _transpose
from .value import Value


class Ray(Value):
    """A one-dimensional cone, named by its primitive integer generator."""

    __slots__ = _fields = ("generator",)

    def __init__(self, generator: tuple):
        Value.__init__(self, tuple(map(index, generator)))

    @property
    def max_norm(self):
        return max((abs(x) for x in self.generator), default=0)

    def __repr__(self):
        return f"Ray{self.generator}"


class Cone(Value):
    """A cone of the fan, as the sorted tuple of its ray indices.

    The empty tuple is the zero cone."""

    __slots__ = _fields = ("rays",)

    def __init__(self, rays: tuple = ()):
        Value.__init__(self, tuple(sorted(set(map(index, rays)))))

    @classmethod
    def _adopt(cls, rays):
        """Wrap a sorted tuple of distinct ints without normalizing it."""
        cone = object.__new__(cls)
        Value.__init__(cone, rays)
        return cone

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


class ConeForm(Value):
    """One Smith form u G v = S of a cone's generator matrix G (k x n).

    Fields independent, smooth, and the optional normals and duals.  G is
    independent iff k d_i are nonzero, smooth iff all are 1.  If it is
    independent, normals are the columns of v[:, k:], orthogonal to G's
    rows, and duals those of L = v[:, :k] diag(d_k/d_i) u: G L = d_k I.
    """

    __slots__ = _fields = ("independent", "smooth", "normals", "duals")
    _defaults = {"normals": (), "duals": ()}

    @classmethod
    def of(cls, generators, n):
        k = len(generators)
        d, u, v, _ = _smith(generators, left=_eye(k), cols=n)
        if len(d) < k:
            return cls(False, False)
        dual = _matmul([[x * (d[-1] // y) for x, y in zip(row, d)] for row in v], u)
        return cls(True, all(x == 1 for x in d), tuple(zip(*[row[k:] for row in v])),
                   tuple(zip(*dual)))

    def contains(self, point):
        """Whether the point p lies in the cone: in G's span (p v[:, k:] = 0)
        with nonnegative coordinates d_k c = p L."""
        if not self.independent:
            raise ValueError("membership needs linearly independent generators")
        return (all(not sum(map(mul, point, m)) for m in self.normals)
                and all(sum(map(mul, point, f)) >= 0 for f in self.duals))


def _cached(method):
    """Compute a fan accessor once and keep the result in the fan's _cache."""
    name = method.__name__

    @wraps(method)
    def accessor(self):
        if name not in self._cache:
            self._cache[name] = method(self)
        return self._cache[name]
    return accessor


class GFan(Value):
    """A fan together with a group acting on the ambient lattice.

    Construction only normalizes the data; every semantic requirement
    (primitivity, face closure, cone intersections, equivariance) is
    checked by validate_fan, which reports all problems at once.
    Equality and the repr leave the accessors' `_cache` out.
    """

    _fields = ("rank", "rays", "cones", "action")
    __slots__ = _fields + ("_cache",)

    def __init__(self, rank: int, rays: tuple, cones: tuple, action: GLattice,
                 _cache: dict = None):
        Value.__init__(self, rank, tuple(r if isinstance(r, Ray) else Ray(r) for r in rays),
                       tuple(map(_as_cone, cones)), action, {} if _cache is None else _cache)

    @classmethod
    def from_max_cones(cls, rank, rays, max_cones, action=None):
        """Build a fan from maximal cones, materializing all faces."""
        if action is None:
            action = trivial_lattice(trivial_group(), rank)
        closed = {()}
        for cone in max_cones:
            idx = tuple(sorted(set(map(index, cone))))
            for size in range(1, len(idx) + 1):
                closed.update(combinations(idx, size))
        # each face is a sorted tuple of distinct ints, so it is adopted as is
        cones = tuple(map(Cone._adopt, sorted(closed, key=lambda c: (len(c), c))))
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


class ValidationReport(Value):
    """Field problems: the tuple of validate_fan's messages, empty for a valid fan."""

    __slots__ = _fields = ("problems",)

    @property
    def ok(self):
        return not self.problems

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(self.problems)


def cone_contains_point(fan: GFan, cone, point) -> bool:
    """Exact membership of an integer point in a cone of the fan."""
    if len(point) != fan.rank:
        raise ValueError(f"point of length {len(point)} in a fan of rank {fan.rank}")
    return fan.cone_form(_as_cone(cone)).contains(point)


def _extreme_directions(b):
    """Extreme rays of {t : b @ t >= 0} for a full-column-rank integer row
    list b, by brute force over (q-1)-subsets of the constraints: the last
    resort of _meet_in_common_face, for pairs no functional separates."""
    q = len(b[0])
    if q == 0:
        return []
    seen = set()
    out = []
    for subset in combinations(range(len(b)), q - 1):
        null = _kernel_array([b[i] for i in subset], q)
        if len(null[0]) != 1:
            continue
        d = list(primitive_vector(row[0] for row in null))
        img = [sum(map(mul, row, d)) for row in b]
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

    Nested cones do, and a ray w against another cone sigma does iff w is
    not in sigma.  Two larger cones try a separating functional
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
    if s1 <= s2 or s2 <= s1:
        return True
    if min(len(c1), len(c2)) == 1:
        ray, sigma = (c1, c2) if len(c1) == 1 else (c2, c1)
        return not cone_contains_point(fan, sigma, fan.rays[ray.rays[0]].generator)
    if _separated(fan, c1, c2):
        return True
    own1 = [fan.rays[i].generator for i in c1.rays if i not in s2]
    own2 = [tuple(-x for x in fan.rays[i].generator) for i in c2.rays if i not in s1]
    common = [fan.rays[i].generator for i in c1.rays if i in s2]
    vectors = own1 + own2 + common
    kernel = _kernel_array(_transpose(vectors, fan.rank), len(vectors))
    return not _extreme_directions(kernel[:len(own1) + len(own2)])


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
    combinations(good, 2) order.

    Two rays meet in the zero cone, as the layout check made them distinct
    and primitive, so no pair of rays is visited.  With a clean action each
    g is a lattice automorphism of the fan, so (a, b) and (ga, gb) share a
    verdict, and every orbit of pairs holds a pair that _orbit_pairs
    visits.  A visited (s, t) with t = gs shares its orbit with
    (s, g^-1 s), so only the one with the lesser second cone is tested.
    Only a bad pair's orbit is expanded.  Otherwise each cone is its own
    orbit, and so is each pair.
    """
    if all(len(c) == 1 for c in good):
        return []
    group, perms = fan.group, fan.ray_permutations()
    elements = group.elements() if clean else (group.identity,)
    where = {c.rays: k for k, c in enumerate(good)}

    def image(g, k):
        return where[tuple(sorted(perms[g][i] for i in good[k].rays))]
    # first[k]: the least cone of k's orbit; carry[k]: an element taking it to k
    first, carry = {}, {}
    for k in range(len(good)):
        if k not in first:
            for g in elements:
                y = image(g, k)
                if y not in first:
                    first[y], carry[y] = k, g
    bad = set()
    for s, t in _orbit_pairs(good, first):
        if first[t] == s and image(group.inv(carry[t]), s) < t:
            continue
        if not _meet_in_common_face(fan, good[s], good[t]):
            bad.update(tuple(sorted((image(g, s), image(g, t)))) for g in elements)
    return [(good[a], good[b]) for a, b in sorted(bad)]


def _orbit_pairs(good, first):
    """The pairs (s, t), s < t, of good cones that _bad_pairs visits: s the
    least cone of its orbit, first[s] == s, and t in that orbit or a later
    one, unless both are rays."""
    for s in range(len(good)):
        if first[s] == s:
            for t in range(s + 1, len(good)):
                if first[t] >= s and (len(good[s]) > 1 or len(good[t]) > 1):
                    yield s, t


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
        if gcd(*vec) != 1:
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
    is scanned only when a generator fails.  A ray's image is a ray once
    no ray leaves the set, and the zero cone is fixed, so only cones of
    two or more rays are scanned."""
    perms = fan.ray_permutations()
    problems = [
        f"element {g} sends ray {i} to "
        f"{fan.action.act(g).apply(fan.rays[i].generator)}, which is not a ray"
        for g, perm in enumerate(perms) for i, j in enumerate(perm) if j is None]

    def cone_problems(elements):
        return [f"element {g} sends cone {c.rays} to {image}, which is not a cone"
                for g in elements for c in fan.cones if len(c) > 1
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

    Each point of the box is tested against the maximal cones' ConeForms.
    """
    fan.require_valid()
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    forms = [fan.cone_form(cone) for cone in fan.maximal_cones()]
    box = product(range(-bound, bound + 1), repeat=fan.rank)
    return tuple(p for p in box if any(form.contains(p) for form in forms))  # sorted


def primitive_vector(vec):
    """Divide an integer vector by the gcd of its entries."""
    vec = tuple(map(index, vec))
    g = gcd(*vec)
    if g <= 1:
        return vec
    return tuple(x // g for x in vec)
