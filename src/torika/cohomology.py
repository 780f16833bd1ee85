"""Lattices with a finite group action and their low-degree cohomology.

Cochains come from a presentation of G read off its Cayley graph (Fox,
Free differential calculus I, Ann. Math. 57, 1953; Brown, Cohomology of
Groups, II-III).  S is the group's kept `generating_set`, and a
1-cochain is a vector (f(s))_s in L^S.  The BFS tree of the right
Cayley graph (`FiniteGroup.cayley_walk`) writes each g as a word in S,
so a crossed homomorphism has f(g) = E_g (f(s))_s with E_gs = E_g + g P_s
along the tree.  d^1 has one block row E_g + g P_s - E_gs per edge off the tree,
and d^0 x = (s x - x)_s.  H^0 is ker d^0, and one Smith form
s = u d^1 v, w = v^-1, presents both finite groups.  H^1 is ker d^1,
spanned by the columns of v past the rank r, modulo im d^0, whose
coordinates in that basis are the rows of w d^0 past r.  H^2 needs no
d^2: n = |G| kills H^1 and H^2, so 0 -> L -n-> L -> L/nL -> 0 gives
H^2(G, L) = H^1(G, L/nL) / H^1(G, L) (Brown, III), whose cocycles are
the f in L^S with d^1 f = 0 mod n and whose boundaries are
Z^1 + n L^S: in the coordinates w f both are diagonal conditions.
Every result retains a basis of its cocycle lattice together with the
boundary generators written in that basis, and a degree-2 result keeps
w, so maps induced on H^2 read target coordinates by one product.
A kernel on H^2 is a set of congruences mod n on the source's cocycle
coordinates, read off one more Smith form (`_congruence_quotient`).
The bar resolution survives only as `coboundary_matrix`, an independent
route for checks.  `_walk_action` builds and proves an action on the
same graph: one product per edge implies the group law and unimodularity.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from operator import add, mul, sub

from .errors import IncompatibleModulesError, ResourceLimitError, UnsupportedGroupError
from .groups import FiniteGroup, Subgroup
from .linalg import (
    FinAbGroup,
    IntMatrix,
    _cokernel_array,
    _coords_in_basis,
    _diag,
    _kernel_array,
    _matmul,
    _nonredundant_rows,
    _smith,
)
from .value import Value

# Size guards.  The largest matrix any degree builds is the presentation's
# d^1, of shape rank*(|G|(|S|-1)+1) x rank*|S|.  Each generator at least
# doubles the subgroup generated so far, so |S| <= 3 up to order 12 and
# d^1 is at most 400 x 48 at these limits.
ORDER_LIMIT = 12
RANK_LIMIT = 16


class GLattice(Value):
    """A free Z-module of finite rank with a linear action of a finite group.

    `action[g]` is the matrix of g.  Construction checks that e acts as I and
    proves the rest on the walk over `group.generating_set` (`_walk_action`).
    """

    __slots__ = _fields = ("group", "rank", "action")

    def __init__(self, group: FiniteGroup, rank: int, action: tuple):
        mats = tuple(action)
        Value.__init__(self, group, rank, mats)
        if self.rank < 0:
            raise ValueError("negative rank")
        if len(mats) != self.group.order:
            raise ValueError(f"need one action matrix per element, "
                             f"got {len(mats)} for order {self.group.order}")
        for g, m in enumerate(mats):
            if m.shape != (self.rank, self.rank):
                raise ValueError(f"action of element {g} is not {self.rank}x{self.rank}")
        if mats[self.group.identity] != IntMatrix.identity(self.rank):
            raise ValueError("identity element must act as the identity matrix")
        _walk_action(self.group, mats, self.group.generating_set)

    @classmethod
    def _adopt(cls, group, rank, action):
        """Wrap matrices that internal code derived from checked values, or
        proved by `_walk_action`: outside input goes through `__init__`."""
        lattice = object.__new__(cls)
        Value.__init__(lattice, group, rank, tuple(action))
        return lattice

    def act(self, g) -> IntMatrix:
        return self.action[g]

    def dual(self) -> "GLattice":
        """The dual lattice Hom(L, Z) with the contragredient action.

        g acts by the inverse transpose of its matrix, and the inverse of
        the matrix of g is the matrix of g^-1.  It is an action because
        this one is, so it is not checked again.
        """
        return GLattice._adopt(self.group, self.rank, (
            self.action[self.group.inv(g)].transpose()
            for g in self.group.elements()))

    def direct_sum(self, other: "GLattice") -> "GLattice":
        """Block-diagonal action: an action because both summands are."""
        if self.group != other.group:
            raise IncompatibleModulesError("direct sum needs a common group")
        right, left = (0,) * other.rank, (0,) * self.rank
        return GLattice._adopt(self.group, self.rank + other.rank, (
            IntMatrix._adopt([r + right for r in a._r] + [left + r for r in b._r],
                             self.rank + other.rank)
            for a, b in zip(self.action, other.action)))


def _walk_action(group: FiniteGroup, mats, gens):
    """Build and prove an action on `group.cayley_walk(gens)`, one product
    M(g)M(s) per edge: it is M(gs) where mats[gs] is still None (a tree
    edge), and is compared with M(gs) elsewhere.  If M(e) = I and every
    edge over G holds, M is a homomorphism by induction on word length,
    and M(g)M(g^-1) = I makes it unimodular.  A failed edge stops the
    comparing, not the tree, so that the first failing pair can be named."""
    failed = False
    for g, j, h, _ in group.cayley_walk(gens):
        if mats[h] is None:
            mats[h] = mats[g] @ mats[gens[j]]
        elif not failed:
            failed = mats[g] @ mats[gens[j]] != mats[h]
    missing = [g for g, m in enumerate(mats) if m is None]
    if missing:
        raise ValueError(f"generators do not generate the group; unreached elements {missing}")
    if failed:
        g, h = next((g, h) for g, h in product(range(len(mats)), repeat=2)
                    if mats[g] @ mats[h] != mats[group.mul(g, h)])
        raise ValueError(f"action is not a homomorphism at ({g}, {h})")


def trivial_lattice(group: FiniteGroup, rank: int) -> GLattice:
    """Z^rank with the trivial action, which needs no proof."""
    if rank < 0:
        raise ValueError("negative rank")
    return GLattice._adopt(group, rank, (IntMatrix.identity(rank),) * group.order)


def permutation_lattice(group: FiniteGroup, perms) -> GLattice:
    """Z^k on which g sends basis vector i to perms[g][i], adopted: each caller
    derives `perms` as an action, on the cosets of a checked subgroup or on
    the rays of a valid fan or of its stable cone, so no products prove it."""
    k = len(perms[0])
    eye = IntMatrix.identity(k)._r  # row j of g's matrix is e_i, perms[g][i] = j
    return GLattice._adopt(group, k, [IntMatrix._adopt(
        [eye[i] for i in sorted(range(k), key=perm.__getitem__)], k) for perm in perms])


def coset_permutations(group: FiniteGroup, subgroup: Subgroup):
    """For each element g, the index of g*c for every left coset c of H."""
    if subgroup.parent != group:
        raise IncompatibleModulesError("subgroup belongs to a different group")
    cosets = subgroup.left_cosets()
    where = {x: idx for idx, coset in enumerate(cosets) for x in coset}
    return [tuple(where[group.mul(g, coset[0])] for coset in cosets)
            for g in group.elements()]


def permutation_module(group: FiniteGroup, subgroup: Subgroup) -> GLattice:
    """Z[G/H]: the free module on the left cosets of H, permuted by G."""
    return permutation_lattice(group, coset_permutations(group, subgroup))


class GLatticeMap(Value):
    """An integer matrix commuting with the two group actions (checked on
    `generating_set`, which names the least element that fails)."""

    __slots__ = _fields = ("source", "target", "matrix")

    def __init__(self, source: GLattice, target: GLattice, matrix: IntMatrix):
        Value.__init__(self, source, target, matrix)
        if self.source.group != self.target.group:
            raise IncompatibleModulesError("source and target have different groups")
        if self.matrix.shape != (self.target.rank, self.source.rank):
            raise IncompatibleModulesError(
                f"matrix shape {self.matrix.shape} does not map "
                f"rank {self.source.rank} into rank {self.target.rank}"
            )
        for g in self.source.group.generating_set:
            if self.target.act(g) @ self.matrix != self.matrix @ self.source.act(g):
                raise IncompatibleModulesError(
                    f"matrix does not commute with the action of element {g}"
                )


class CohomologyResult(Value):
    """H^degree of a lattice, with its presentation kept around.

    Fields degree, coefficients, group, cocycles, boundaries and the
    optional _coords.  `cocycles` has the basis of the cocycle lattice
    as columns (inside the cochain space L^S of the Cayley-graph
    presentation); `boundaries` expresses the coboundary generators in
    that basis, so the group is Z^k modulo its column span.  For degree
    2 both live in L^S: the cocycles are the f with d^1 f = 0 mod |G|,
    the boundaries generate Z^1 + |G| L^S, and the boundary matrix is
    diagonal.  Degree 2 also keeps `_coords` = (w, lifts) from the Smith
    form of d^1: a cocycle f has coordinates (w @ f) / lifts in the
    `cocycles` basis.  Equality and the repr leave `_coords` out.
    """

    _fields = ("degree", "coefficients", "group", "cocycles", "boundaries")
    __slots__ = _fields + ("_coords",)
    _defaults = {"_coords": None}


def _check_limits(group, rank, order_limit=ORDER_LIMIT, rank_limit=RANK_LIMIT,
                  raisable=True):
    order = group.order
    for what, flag, value, limit in (("group order", "order", order, order_limit),
                                     ("lattice rank", "rank", rank, rank_limit)):
        if value > limit:
            gens = len(group.generating_set)
            raise ResourceLimitError(
                f"{what} {value} exceeds the limit {limit} (d^1 would be "
                f"{rank * (order * (gens - 1) + 1)}x{rank * gens})",
                flag if raisable else None)


def _cayley_complex(lattice: GLattice):
    """(gens, paths, d1) of the presentation read off the Cayley graph.

    `paths[g]` is E_g, the rank x rank*|S| matrix with f(g) = E_g @ f for
    a crossed homomorphism f = (f(s))_s, built along the tree edges of
    `FiniteGroup.cayley_walk`; `d1` stacks E_g + g P_s - E_gs over the
    edges (g, s) off the tree, one rank-row block each: row lists.
    """
    group = lattice.group
    gens = group.generating_set
    rank = lattice.rank
    acts = [m._r for m in lattice.action]
    paths = [None] * group.order
    paths[group.identity] = [[0] * (rank * len(gens)) for _ in range(rank)]
    d1 = []
    for g, j, h, tree in group.cayley_walk(gens):
        step = [list(row) for row in paths[g]]
        block = slice(j * rank, (j + 1) * rank)
        for row, act in zip(step, acts[g]):
            row[block] = map(add, row[block], act)
        if tree:
            paths[h] = step
        else:
            d1 += [list(map(sub, a, b)) for a, b in zip(step, paths[h])]
    return gens, paths, d1


def _flat(tup, order):
    idx = 0
    for g in tup:
        idx = idx * order + g
    return idx


def _coboundary_array(lattice: GLattice, n: int):
    """The bar coboundary d^n : C^n -> C^(n+1) as a dense integer matrix."""
    order = lattice.group.order
    rank = lattice.rank
    table = lattice.group.table
    acts = [m._r for m in lattice.action]
    d = [[0] * (rank * order ** n) for _ in range(rank * order ** (n + 1))]
    for tup in product(range(order), repeat=n + 1):
        rbase = _flat(tup, order) * rank
        cbase = _flat(tup[1:], order) * rank
        block = slice(cbase, cbase + rank)
        for t, act in enumerate(acts[tup[0]]):
            d[rbase + t][block] = map(add, d[rbase + t][block], act)
        faces = [tup[:i - 1] + (table[tup[i - 1]][tup[i]],) + tup[i + 1:]
                 for i in range(1, n + 1)] + [tup[:-1]]
        for i, face in enumerate(faces, 1):
            cbase = _flat(face, order) * rank
            for t in range(rank):
                d[rbase + t][cbase + t] += (-1) ** i
    return d


def coboundary_matrix(lattice: GLattice, n: int) -> IntMatrix:
    if n < 0:
        raise ValueError("coboundary degree must be nonnegative")
    return IntMatrix._adopt(_coboundary_array(lattice, n),
                            lattice.rank * lattice.group.order ** n)


def _d0(lattice: GLattice, gens):
    """d^0 x = (s x - x)_s over the generators, a rank*|S| x rank row list."""
    acts = [m._r for m in lattice.action]
    return [[x - (i == j) for j, x in enumerate(row)]
            for s in gens for i, row in enumerate(acts[s])]


def _shifted_basis(d1, cols, n):
    """(v, w, rank, lifts, orders) from one Smith form s = u @ d^1 @ v, w = v^-1
    of the row list d1, `cols` wide.

    ker d^1 is spanned by v[:, rank:], in which a cocycle f has
    coordinates (w @ f)[rank:].  In the coordinates y = w @ f, f is a
    cocycle mod n exactly when each y[i] is divisible by lifts[i], and
    lies in Z^1 + n L^S exactly when each y[i] is divisible by
    lifts[i] * orders[i]: H^2 = sum Z/orders[i].
    """
    # d^1 repeats rows; they change the Smith transforms, not the groups
    d, _, v, w = _smith(_nonredundant_rows(d1), cols=cols)
    diag = d + [0] * (cols - len(d))
    lifts = [n // gcd(n, x) if x else 1 for x in diag]
    orders = tuple(gcd(n, x) if x else 1 for x in diag)
    return v, w, len(d), lifts, orders


def _congruence_quotient(images, n, boundaries) -> FinAbGroup:
    """The x with images @ x = 0 mod n, modulo the columns of `boundaries`.

    In the coordinates z = w @ x of `_shifted_basis(images, n)`, x is a
    solution exactly when lifts[i] | z[i]: the solutions are v diag(lifts) Z^k,
    where a boundary b, which must be one, has coordinates (w @ b) / lifts.
    """
    _, w, _, lifts, _ = _shifted_basis(images, len(boundaries), n)
    y = _matmul(w, boundaries)
    if any(x % p for row, p in zip(y, lifts) for x in row):
        raise ValueError("a boundary is not a solution of the congruences")
    return _cokernel_array([[x // p for x in row] for row, p in zip(y, lifts)])


def _h2_result(lattice, d1) -> CohomologyResult:
    """H^2 of the lattice from the d^1 of its presentation."""
    width = lattice.rank * len(lattice.group.generating_set)
    v, w, _, lifts, orders = _shifted_basis(d1, width, lattice.group.order)
    return CohomologyResult(
        degree=2,
        coefficients=lattice,
        group=FinAbGroup(0, tuple(d for d in orders if d > 1)),
        cocycles=IntMatrix._adopt([list(map(mul, row, lifts)) for row in v], width),
        boundaries=IntMatrix._adopt(_diag(orders), width),
        _coords=(tuple(map(tuple, w)), tuple(lifts)),
    )


def cohomology(lattice: GLattice, degree: int, *,
               order_limit: int = ORDER_LIMIT,
               rank_limit: int = RANK_LIMIT) -> CohomologyResult:
    """H^degree(G, L) for degree 0, 1 or 2, with retained presentation.

    H^0 = ker d^0 is the fixed lattice (always free) and builds no d^1,
    so the size limits do not apply to it.  H^1 and H^2 are finite and
    come back in invariant-factor form, both read off one Smith form of
    d^1 as the module docstring describes.
    """
    if degree not in (0, 1, 2):
        raise ValueError("only degrees 0, 1 and 2 are supported")
    if degree == 0:
        inv = _kernel_array(_d0(lattice, lattice.group.generating_set), lattice.rank)
        k = len(inv[0]) if inv else 0
        return CohomologyResult(
            degree=0,
            coefficients=lattice,
            group=FinAbGroup.free(k),
            cocycles=IntMatrix._adopt(inv, k),
            boundaries=IntMatrix.zeros(k, 0),
        )
    _check_limits(lattice.group, lattice.rank, order_limit, rank_limit)
    gens, _, d1 = _cayley_complex(lattice)
    if degree == 2:
        return _h2_result(lattice, d1)
    width = lattice.rank * len(gens)
    v, w, rank, _, _ = _shifted_basis(d1, width, lattice.group.order)
    y = _matmul(w[rank:], _d0(lattice, gens))
    return CohomologyResult(
        degree=1,
        coefficients=lattice,
        group=_cokernel_array(y),
        cocycles=IntMatrix._adopt([row[rank:] for row in v], width - rank),
        boundaries=IntMatrix._adopt(y, lattice.rank),
    )


def tate_cyclic_h2(lattice: GLattice) -> FinAbGroup:
    """H^2(G, L) for cyclic G, evaluated as L^G modulo the norm sublattice.

    Independent of the dimension-shift route: uses only the fixed lattice
    and the norm map, which is how the group is usually computed by hand
    for cyclic groups.
    """
    group = lattice.group
    if not group.is_cyclic():
        raise UnsupportedGroupError("norm-quotient evaluation needs a cyclic group")
    norm = [list(map(sum, zip(*rows))) for rows in zip(*(m._r for m in lattice.action))]
    fixed = _kernel_array(_d0(lattice, group.generating_set), lattice.rank)
    y = _coords_in_basis(fixed, norm)
    return _cokernel_array(y)


def _apply_blockwise(fmap: GLatticeMap, vectors, blocks):
    """Apply the coefficient map to each rank-block of stacked cochain rows."""
    rank = fmap.source.rank
    return [row for b in range(blocks)
            for row in _matmul(fmap.matrix._r, vectors[b * rank:(b + 1) * rank])]


class InducedCohomologyMap(Value):
    """A map H^n -> H^n written between retained presentations.

    Fields source, target (the two CohomologyResults) and matrix, which
    sends cocycle coordinates of the source to cocycle coordinates of the
    target; it is well defined modulo the target's boundary columns.
    """

    __slots__ = _fields = ("source", "target", "matrix")


def _h2_of(lattice, result):
    if result is None:
        _check_limits(lattice.group, lattice.rank, raisable=False)
        return cohomology(lattice, 2)
    if result.degree != 2:
        raise IncompatibleModulesError("expected a degree-2 presentation")
    if result.coefficients != lattice:
        raise IncompatibleModulesError("presentation belongs to a different lattice")
    return result


def induced_h2_map(fmap: GLatticeMap,
                   source_result: CohomologyResult | None = None,
                   target_result: CohomologyResult | None = None) -> InducedCohomologyMap:
    """The map H^2(G, source) -> H^2(G, target) induced by an equivariant map.

    The dimension shift is natural in the lattice, so the map acts on
    the 1-cochains of the presentations, one block per generator.  An
    image f(z) is a cocycle mod n, so its target coordinates
    (w @ f(z)) / lifts are exact (`_shifted_basis`).
    """
    r1 = _h2_of(fmap.source, source_result)
    r2 = _h2_of(fmap.target, target_result)
    fz = _apply_blockwise(fmap, r1.cocycles._r,
                          len(fmap.source.group.generating_set))
    w, lifts = r2._coords
    y = _matmul(w, fz)
    if any(x % p for row, p in zip(y, lifts) for x in row):
        raise ValueError("an image is not a cocycle mod the group order")
    return InducedCohomologyMap(source=r1, target=r2, matrix=IntMatrix._adopt(
        [[x // p for x in row] for row, p in zip(y, lifts)], r1.cocycles.cols))


def kernel_of_h2_map(fmap: GLatticeMap,
                     source_result: CohomologyResult | None = None) -> FinAbGroup:
    """Kernel of the induced H^2 map, by a membership test on 1-cochains.

    A source class z is in the kernel exactly when f(z) lies in the
    target's Z^1 + n L^S: in the target's Smith coordinates y = w @ f(z)
    (`_shifted_basis`, kept by `_h2_of(target)`), y[i] = 0 mod n
    wherever orders[i] > 1 (`_congruence_quotient`).  `brauer_kernel`
    needs no target cohomology at all (`_shapiro_kernel`).
    """
    r1 = _h2_of(fmap.source, source_result)
    r2 = _h2_of(fmap.target, None)
    w = r2._coords[0]
    tested = [w[i] for i, row in enumerate(r2.boundaries._r) if row[i] > 1]
    fz = _apply_blockwise(fmap, r1.cocycles._r,
                          len(fmap.source.group.generating_set))
    return _congruence_quotient(_matmul(tested, fz),
                                fmap.source.group.order, r1.boundaries._r)


def kernel_of_h2_map_via_presentations(
        fmap: GLatticeMap,
        induced: InducedCohomologyMap | None = None) -> FinAbGroup:
    """Kernel of the induced H^2 map, computed from the presentations.

    Take the matrix between the two retained presentations and quotient
    its preimage of the target boundary span by the source boundary span.
    The target's boundaries are diag(o_i) with o_i | n = |G|, so row i
    scaled by n / o_i is a congruence mod n (`_congruence_quotient`).  It
    shares the target's Smith form with `kernel_of_h2_map`, so it checks
    the membership test, not the dimension shift itself.  A given
    `induced` must be `induced_h2_map` of this `fmap`'s two lattices.
    """
    if induced is None:
        induced = induced_h2_map(fmap)
    elif (induced.source.coefficients, induced.target.coefficients) != (fmap.source, fmap.target):
        raise IncompatibleModulesError("induced map belongs to a different lattice map")
    n = induced.source.coefficients.group.order
    scaled = [[n // diagonal[i] * x for x in row] for i, (diagonal, row) in
              enumerate(zip(induced.target.boundaries._r, induced.matrix._r))]
    return _congruence_quotient(scaled, n, induced.source.boundaries._r)


def _shapiro_kernel(lattice: GLattice, rows, orbits) -> FinAbGroup:
    """Kernel of H^2(G, L) -> H^2(G, Z^X) for a map into a permutation lattice.

    `rows` is the matrix of the map, whose equivariance the caller
    vouches for (`validate_fan` proves it for a fan's rays); `orbits`
    lists the G-orbits of X, each with the stabilizer H_i of its first
    member x_i, so Z^X = sum Z[G/H_i].
    H^1(G, Z[G/H_i]) = Hom(H_i, Z) = 0, so H^2(G, Z[G/H_i]) is
    H^1(G, Z/n[G/H_i]), which Shapiro's lemma identifies with
    Hom(H_i, Z/n) by restricting a cocycle to H_i and reading its x_i
    coordinate.  A source cocycle f is therefore in the kernel exactly
    when (row x_i of the matrix) @ E_h @ f = 0 mod n for each h in the
    `generating_set` of each H_i (`_congruence_quotient`): the target
    lattice is never built.
    """
    _check_limits(lattice.group, lattice.rank, raisable=False)
    _, paths, d1 = _cayley_complex(lattice)
    r1 = _h2_result(lattice, d1)
    tests = [test for orbit, stab in orbits for h in stab.generating_set
             for test in _matmul([rows[orbit[0]]], paths[h])]
    return _congruence_quotient(_matmul(tests, r1.cocycles._r),
                                lattice.group.order, r1.boundaries._r)
