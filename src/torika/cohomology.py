"""Lattices with a finite group action and their low-degree cohomology.

Cohomology is computed from the inhomogeneous bar resolution: an
n-cochain is a dense integer vector of dimension rank * |G|^n, indexed
blockwise by tuples (g1, ..., gn), and each coboundary is assembled as
an explicit integer matrix.  H^n is kernel modulo image, and every
result retains a basis of its cocycle lattice together with the
coboundary generators written in that basis, so maps induced on
cohomology can be computed afterwards without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import IncompatibleModulesError, ResourceLimitError, UnsupportedGroupError
from .groups import FiniteGroup, Subgroup
from .linalg import (
    FinAbGroup,
    IntMatrix,
    _cokernel_array,
    _coords_in_basis,
    _eye,
    _is_unimodular,
    _kernel_array,
    _lattice_basis,
    _matmul,
    _unimodular_inverse,
)

# Practical ceiling for the dense bar-resolution model: degree-2 work
# scales with |G|^3 * rank, so these keep matrix sides in the thousands.
ORDER_LIMIT = 12
RANK_LIMIT = 8


@dataclass(frozen=True)
class GLattice:
    """A free Z-module of finite rank with a linear action of a finite group.

    `action[g]` is the unimodular matrix of the element g; the identity
    must act as the identity matrix and the assignment must respect the
    multiplication table.  All of this is verified on construction.
    """

    group: FiniteGroup
    rank: int
    action: tuple

    def __post_init__(self):
        mats = tuple(self.action)
        object.__setattr__(self, "action", mats)
        if self.rank < 0:
            raise ValueError("negative rank")
        if len(mats) != self.group.order:
            raise ValueError(
                f"need one action matrix per element, got {len(mats)} for order {self.group.order}"
            )
        for g, m in enumerate(mats):
            if m.shape != (self.rank, self.rank):
                raise ValueError(f"action of element {g} is not {self.rank}x{self.rank}")
            if not _is_unimodular(m):
                raise ValueError(f"action of element {g} is not unimodular")
        e = self.group.identity
        if mats[e] != IntMatrix.identity(self.rank):
            raise ValueError("identity element must act as the identity matrix")
        for g in self.group.elements():
            for h in self.group.elements():
                if mats[g] @ mats[h] != mats[self.group.mul(g, h)]:
                    raise ValueError(f"action is not a homomorphism at ({g}, {h})")

    def act(self, g) -> IntMatrix:
        return self.action[g]

    def action_arrays(self):
        return [m.to_array() for m in self.action]

    def dual(self) -> "GLattice":
        """The dual lattice Hom(L, Z) with the contragredient action."""
        mats = []
        for m in self.action:
            inv = _unimodular_inverse(m.to_array())
            mats.append(IntMatrix.from_array(inv.T))
        return GLattice(self.group, self.rank, tuple(mats))

    def direct_sum(self, other: "GLattice") -> "GLattice":
        if self.group != other.group:
            raise IncompatibleModulesError("direct sum needs a common group")
        r1, r2 = self.rank, other.rank
        mats = []
        for g in self.group.elements():
            a, b = self.action[g], other.action[g]
            rows = [list(a.row(i)) + [0] * r2 for i in range(r1)]
            rows += [[0] * r1 + list(b.row(i)) for i in range(r2)]
            mats.append(IntMatrix(rows, cols=r1 + r2))
        return GLattice(self.group, r1 + r2, tuple(mats))


def trivial_lattice(group: FiniteGroup, rank: int) -> GLattice:
    eye = IntMatrix.identity(rank)
    return GLattice(group, rank, tuple(eye for _ in group.elements()))


def permutation_lattice(group: FiniteGroup, perms) -> GLattice:
    """Z^k on which element g sends basis vector i to basis vector perms[g][i]."""
    k = len(perms[0])
    mats = []
    for perm in perms:
        m = [[0] * k for _ in range(k)]
        for i, j in enumerate(perm):
            m[j][i] = 1
        mats.append(IntMatrix(m, cols=k))
    return GLattice(group, k, tuple(mats))


def permutation_module(group: FiniteGroup, subgroup: Subgroup) -> GLattice:
    """Z[G/H]: the free module on the left cosets of H, permuted by G."""
    if subgroup.parent != group:
        raise IncompatibleModulesError("subgroup belongs to a different group")
    cosets = subgroup.left_cosets()
    where = {x: idx for idx, coset in enumerate(cosets) for x in coset}
    return permutation_lattice(group, [
        tuple(where[group.mul(g, coset[0])] for coset in cosets)
        for g in group.elements()])


@dataclass(frozen=True)
class GLatticeMap:
    """An integer matrix commuting with the two group actions."""

    source: GLattice
    target: GLattice
    matrix: IntMatrix

    def __post_init__(self):
        if self.source.group != self.target.group:
            raise IncompatibleModulesError("source and target have different groups")
        if self.matrix.shape != (self.target.rank, self.source.rank):
            raise IncompatibleModulesError(
                f"matrix shape {self.matrix.shape} does not map "
                f"rank {self.source.rank} into rank {self.target.rank}"
            )
        for g in self.source.group.elements():
            if self.target.act(g) @ self.matrix != self.matrix @ self.source.act(g):
                raise IncompatibleModulesError(
                    f"matrix does not commute with the action of element {g}"
                )


@dataclass(frozen=True)
class CohomologyResult:
    """H^degree of a lattice, with its presentation kept around.

    `cocycles` has the basis of the cocycle lattice as columns (inside
    the dense cochain space); `boundaries` expresses the coboundary
    generators in that basis, so the group is Z^k modulo its column
    span.
    """

    degree: int
    coefficients: GLattice
    group: FinAbGroup
    cocycles: IntMatrix
    boundaries: IntMatrix


def _check_limits(lattice, order_limit, rank_limit):
    if lattice.group.order > order_limit:
        raise ResourceLimitError(
            f"group order {lattice.group.order} exceeds the limit {order_limit}"
        )
    if lattice.rank > rank_limit:
        raise ResourceLimitError(
            f"lattice rank {lattice.rank} exceeds the limit {rank_limit}"
        )


def _flat(tup, order):
    idx = 0
    for g in tup:
        idx = idx * order + g
    return idx


def _coboundary_array(lattice: GLattice, n: int):
    """The coboundary d^n : C^n -> C^(n+1) as a dense integer matrix."""
    order = lattice.group.order
    rank = lattice.rank
    table = lattice.group.table
    acts = lattice.action_arrays()
    rows = rank * order ** (n + 1)
    cols = rank * order ** n
    d = np.zeros((rows, cols), dtype=object)
    for tup in product(range(order), repeat=n + 1):
        rbase = _flat(tup, order) * rank
        cbase = _flat(tup[1:], order) * rank
        d[rbase:rbase + rank, cbase:cbase + rank] += acts[tup[0]]
        sign = 1
        for i in range(1, n + 1):
            sign = -sign
            merged = tup[:i - 1] + (table[tup[i - 1]][tup[i]],) + tup[i + 1:]
            cbase = _flat(merged, order) * rank
            for t in range(rank):
                d[rbase + t, cbase + t] += sign
        sign = -sign
        cbase = _flat(tup[:-1], order) * rank
        for t in range(rank):
            d[rbase + t, cbase + t] += sign
    return d


def coboundary_matrix(lattice: GLattice, n: int) -> IntMatrix:
    if n < 0:
        raise ValueError("coboundary degree must be nonnegative")
    return IntMatrix.from_array(_coboundary_array(lattice, n))


def _invariants_basis(lattice: GLattice):
    """Basis of the fixed sublattice L^G, as array columns."""
    acts = lattice.action_arrays()
    eye = _eye(lattice.rank)
    stacked = [acts[g] - eye for g in lattice.group.elements() if g != lattice.group.identity]
    if not stacked:
        return _eye(lattice.rank)
    return _kernel_array(np.concatenate(stacked, axis=0))


def cohomology(lattice: GLattice, degree: int, *,
               order_limit: int = ORDER_LIMIT,
               rank_limit: int = RANK_LIMIT) -> CohomologyResult:
    """H^degree(G, L) for degree 0, 1 or 2, with retained presentation.

    H^0 is the fixed lattice (always free); H^1 and H^2 are finite and
    come back in invariant-factor form.
    """
    if degree not in (0, 1, 2):
        raise ValueError("only degrees 0, 1 and 2 are supported")
    _check_limits(lattice, order_limit, rank_limit)
    if degree == 0:
        inv = _invariants_basis(lattice)
        k = inv.shape[1]
        return CohomologyResult(
            degree=0,
            coefficients=lattice,
            group=FinAbGroup.free(k),
            cocycles=IntMatrix.from_array(inv),
            boundaries=IntMatrix.zeros(k, 0),
        )
    d_here = _coboundary_array(lattice, degree)
    d_prev = _coboundary_array(lattice, degree - 1)
    z = _kernel_array(d_here)
    y = _coords_in_basis(z, d_prev)
    return CohomologyResult(
        degree=degree,
        coefficients=lattice,
        group=_cokernel_array(y),
        cocycles=IntMatrix.from_array(z),
        boundaries=IntMatrix.from_array(y),
    )


def tate_cyclic_h2(lattice: GLattice) -> FinAbGroup:
    """H^2(G, L) for cyclic G, evaluated as L^G modulo the norm sublattice.

    Independent of the bar-resolution route: uses only the fixed lattice
    and the norm map, which is how the group is usually computed by hand
    for cyclic groups.
    """
    group = lattice.group
    if not group.is_cyclic():
        raise UnsupportedGroupError("norm-quotient evaluation needs a cyclic group")
    acts = lattice.action_arrays()
    norm = np.zeros((lattice.rank, lattice.rank), dtype=object)
    for g in group.elements():
        norm += acts[g]
    fixed = _invariants_basis(lattice)
    y = _coords_in_basis(fixed, norm)
    return _cokernel_array(y)


def _apply_blockwise(fmap: GLatticeMap, vectors, blocks):
    """Apply the coefficient map to each rank-block of stacked cochains."""
    r_s = fmap.source.rank
    r_t = fmap.target.rank
    cols = vectors.shape[1]
    fmat = fmap.matrix.to_array()
    out = np.zeros((blocks * r_t, cols), dtype=object)
    for b in range(blocks):
        out[b * r_t:(b + 1) * r_t, :] = _matmul(fmat, vectors[b * r_s:(b + 1) * r_s, :])
    return out


@dataclass(frozen=True)
class InducedCohomologyMap:
    """A map H^n -> H^n written between retained presentations.

    `matrix` sends cocycle coordinates of the source to cocycle
    coordinates of the target; it is well defined modulo the target's
    boundary columns.
    """

    source: CohomologyResult
    target: CohomologyResult
    matrix: IntMatrix


def _checked_result(fmap_side, result, degree):
    if result.degree != degree:
        raise IncompatibleModulesError(f"expected a degree-{degree} presentation")
    if result.coefficients != fmap_side:
        raise IncompatibleModulesError("presentation belongs to a different lattice")
    return result


def induced_h2_map(fmap: GLatticeMap,
                   source_result: CohomologyResult | None = None,
                   target_result: CohomologyResult | None = None) -> InducedCohomologyMap:
    """The map H^2(G, source) -> H^2(G, target) induced by an equivariant map."""
    r1 = (_checked_result(fmap.source, source_result, 2)
          if source_result is not None else cohomology(fmap.source, 2))
    r2 = (_checked_result(fmap.target, target_result, 2)
          if target_result is not None else cohomology(fmap.target, 2))
    order = fmap.source.group.order
    fz = _apply_blockwise(fmap, r1.cocycles.to_array(), order ** 2)
    w = _coords_in_basis(r2.cocycles.to_array(), fz)
    return InducedCohomologyMap(source=r1, target=r2, matrix=IntMatrix.from_array(w))


def _relative_quotient(generators, sublattice) -> FinAbGroup:
    """Quotient of the lattice spanned by `generators` by `sublattice` columns."""
    basis = _lattice_basis(generators)
    coords = _coords_in_basis(basis, sublattice)
    return _cokernel_array(coords)


def kernel_of_h2_map(fmap: GLatticeMap,
                     source_result: CohomologyResult | None = None) -> FinAbGroup:
    """Kernel of the induced H^2 map, computed by cochain lifting.

    Works entirely with honest cochains: a source cocycle class lies in
    the kernel exactly when its image cochain is a coboundary of the
    target, so the kernel is the preimage lattice of the target's
    coboundary span, divided by the source's own coboundaries.  No
    presentation of the target cohomology is ever chosen.
    """
    r1 = (_checked_result(fmap.source, source_result, 2)
          if source_result is not None else cohomology(fmap.source, 2))
    _check_limits(fmap.target, ORDER_LIMIT, RANK_LIMIT)
    order = fmap.source.group.order
    k1 = r1.cocycles.cols
    z1 = r1.cocycles.to_array()
    fz = _apply_blockwise(fmap, z1, order ** 2)
    d1_target = _coboundary_array(fmap.target, 1)
    aug = np.concatenate([fz, d1_target], axis=1)
    ker = _kernel_array(aug)
    pre_gens = ker[:k1, :]
    return _relative_quotient(pre_gens, r1.boundaries.to_array())


def kernel_of_h2_map_via_presentations(
        fmap: GLatticeMap,
        induced: InducedCohomologyMap | None = None) -> FinAbGroup:
    """Kernel of the induced H^2 map, computed from the presentations.

    The second, independent route: take the matrix between the two
    retained presentations and quotient its preimage of the target
    boundary span by the source boundary span.  Used to cross-check
    `kernel_of_h2_map`.
    """
    if induced is None:
        induced = induced_h2_map(fmap)
    k1 = induced.source.cocycles.cols
    w = induced.matrix.to_array()
    b2 = induced.target.boundaries.to_array()
    aug = np.concatenate([w, b2], axis=1)
    ker = _kernel_array(aug)
    pre_gens = ker[:k1, :]
    return _relative_quotient(pre_gens, induced.source.boundaries.to_array())
