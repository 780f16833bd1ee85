"""Group cohomology of lattices.

Frozen values were cross-checked against the cyclic norm-quotient
oracle (H^2 = L^G / N.L for cyclic G) and, for degree one, against
direct cocycle/coboundary enumeration done while deriving the tests.
H^1, H^2 and the Brauer-type kernels are also checked against the
bar route (`bar_h1`, `bar_h2`, `bar_kernel`): kernel of d^2 modulo the
image of d^1, with maps lifted on 2-cochains and their kernels read by
the general preimage quotient (`preimage_quotient`), whose kernels are
the column reduction of `linalg_oracles`.  Groups given by
explicit tables (D4, Q8, A4, C2xC4) and relabeled copies of every group
vary the generating set and spanning tree the presentation is read from.
"""

import random
import time
from collections import Counter
from importlib import import_module
from math import gcd

import numpy as np
import pytest

from torika.cohomology import (RANK_LIMIT, GLattice, GLatticeMap,
                               _apply_blockwise, _cayley_complex,
                               _congruence_quotient,
                               coboundary_matrix,
                               cohomology, coset_permutations,
                               induced_h2_map, kernel_of_h2_map,
                               kernel_of_h2_map_via_presentations,
                               permutation_module, tate_cyclic_h2,
                               trivial_lattice)
from torika.errors import (IncompatibleModulesError, ResourceLimitError,
                           UnsupportedGroupError)
from torika.fans import GFan
from torika.groups import (GROUP_PRESETS, FiniteGroup, cyclic_group,
                           group_preset, klein_four_group, symmetric_group_3,
                           trivial_group)
from torika.invariants import brauer_kernel, full_report
from torika.linalg import (FinAbGroup, IntMatrix, _cokernel_array,
                           _coords_in_basis, _eye, _smith)
from torika.structure import (divisor_map, pure_divisorial_truncation,
                              standard_fan)

from conftest import (EXPLICIT_GROUPS, FIXTURE_NAMES, coxeter_b3_fan,
                      cyclic_lattice, load_fixture, rand_unimodular,
                      random_equivariant_map)
from linalg_oracles import (array_matmul, as_array, bareiss_det, column_kernel,
                            eye_array)

C2 = cyclic_group(2)
SIGN = GLattice(C2, 1, (IntMatrix.identity(1), IntMatrix([[-1]])))


def test_glattice_validation():
    with pytest.raises(ValueError):
        GLattice(C2, 1, (IntMatrix.identity(1), IntMatrix([[2]])))
    with pytest.raises(ValueError):
        # involution fails: the matrix has infinite order
        GLattice(C2, 2, (IntMatrix.identity(2), IntMatrix([[1, 1], [0, 1]])))
    with pytest.raises(ValueError):
        GLattice(C2, 1, (IntMatrix([[-1]]), IntMatrix.identity(1)))
    with pytest.raises(ValueError, match="^negative rank$"):
        GLattice(C2, -1, ())
    with pytest.raises(ValueError, match="one action matrix per element, got 1 for order 2"):
        GLattice(C2, 1, (IntMatrix.identity(1),))
    with pytest.raises(ValueError, match="action of element 1 is not 1x1"):
        GLattice(C2, 1, (IntMatrix.identity(1), IntMatrix.identity(2)))
    with pytest.raises(ValueError, match="^negative rank$"):
        trivial_lattice(C2, -1)


def test_dual_and_direct_sum():
    dual = SIGN.dual()
    assert dual.act(1) == IntMatrix([[-1]])
    both = SIGN.direct_sum(trivial_lattice(C2, 1))
    assert both.rank == 2
    assert both.act(1) == IntMatrix([[-1, 0], [0, 1]])


def test_dual_and_direct_sum_inherit_the_proof(monkeypatch):
    rng = random.Random(2626)
    lattices = [random_lattice(rng, group, 3) for group in DIFFERENTIAL_GROUPS + EXPLICIT_GROUPS]

    def unchecked(self, *args):
        raise AssertionError("the action was checked again")
    with monkeypatch.context() as patch:
        patch.setattr(GLattice, "__init__", unchecked)
        built = [(lattice, lattice.dual(), lattice.direct_sum(lattice.dual()))
                 for lattice in lattices]
    for lattice, dual, both in built:
        for result in (dual, both):  # checked now, from the same matrices
            assert GLattice(lattice.group, result.rank, result.action) == result
        assert dual.dual() == lattice and both.rank == 2 * lattice.rank
    with pytest.raises(IncompatibleModulesError):
        SIGN.direct_sum(trivial_lattice(cyclic_group(3), 1))


def test_permutation_module_shapes():
    assert permutation_module(C2, C2.full_subgroup()).rank == 1
    swap = permutation_module(C2, C2.trivial_subgroup())
    assert swap.rank == 2
    assert swap.act(1) == IntMatrix([[0, 1], [1, 0]])
    s3 = symmetric_group_3()
    h = s3.generated_subgroup((1,))
    assert permutation_module(s3, h).rank == 3
    with pytest.raises(IncompatibleModulesError, match="subgroup belongs to a different group"):
        coset_permutations(C2, s3.trivial_subgroup())


def counted_products(monkeypatch, build):
    """(build(), the number of IntMatrix products it made)."""
    products = []
    matmul = IntMatrix.__matmul__
    with monkeypatch.context() as patch:
        patch.setattr(IntMatrix, "__matmul__",
                      lambda a, b: products.append(1) or matmul(a, b))
        built = build()
    return built, len(products)


def assert_proved_the_same(lattice):
    """The proving constructor accepts an adopted lattice and rebuilds it."""
    assert GLattice(lattice.group, lattice.rank, lattice.action) == lattice


@pytest.mark.parametrize("group", [group_preset(name) for name in GROUP_PRESETS]
                         + EXPLICIT_GROUPS + [coxeter_b3_fan().group],
                         ids=lambda group: group.name)
def test_permutation_modules_are_adopted_without_a_product(monkeypatch, group):
    # G permutes the cosets of a checked subgroup, so Z[G/H] needs no proof:
    # the W(B3) regular module alone was 240 dense 48x48 products
    subgroups = [group.trivial_subgroup(), group.full_subgroup()] + group.cyclic_subgroups()
    modules, products = counted_products(
        monkeypatch, lambda: [permutation_module(group, h) for h in subgroups])
    assert products == 0
    for h, module in zip(subgroups, modules):
        assert module.rank == group.order // h.order
        assert_proved_the_same(module)


def test_h0_invariants():
    assert cohomology(trivial_lattice(C2, 3), 0).group == FinAbGroup.free(3)
    assert cohomology(SIGN, 0).group == FinAbGroup.trivial()
    reg = permutation_module(C2, C2.trivial_subgroup())
    assert cohomology(reg, 0).group == FinAbGroup.free(1)  # the diagonal


def test_frozen_c2_values():
    triv = trivial_lattice(C2, 1)
    assert cohomology(triv, 1).group.is_trivial
    assert cohomology(triv, 2).group == FinAbGroup(0, (2,))
    assert cohomology(SIGN, 1).group == FinAbGroup(0, (2,))
    assert cohomology(SIGN, 2).group.is_trivial
    reg = permutation_module(C2, C2.trivial_subgroup())
    assert cohomology(reg, 1).group.is_trivial
    assert cohomology(reg, 2).group.is_trivial


def test_tate_frozen_values():
    c3 = cyclic_group(3)
    assert tate_cyclic_h2(trivial_lattice(c3, 1)) == FinAbGroup(0, (3,))
    assert tate_cyclic_h2(SIGN).is_trivial
    c4 = cyclic_group(4)
    assert tate_cyclic_h2(permutation_module(c4, c4.trivial_subgroup())).is_trivial
    with pytest.raises(UnsupportedGroupError):
        tate_cyclic_h2(trivial_lattice(klein_four_group(), 1))


def test_bar_equals_tate_sample():
    rng = random.Random(20260814)
    for order in (2, 3, 4):
        group = cyclic_group(order)
        for _ in range(5):
            lat = cyclic_lattice(rng, group, rng.randint(1, 3))
            assert cohomology(lat, 2).group == tate_cyclic_h2(lat)


def test_shapiro_sample():
    s3 = symmetric_group_3()
    for h in s3.cyclic_subgroups():
        mod = permutation_module(s3, h)
        assert cohomology(mod, 1).group.is_trivial
        expected = (FinAbGroup.trivial() if h.order == 1
                    else FinAbGroup(0, (h.order,)))
        assert cohomology(mod, 2).group == expected


def test_complexes_compose_to_zero():
    rng = random.Random(5)
    for order in (2, 3):
        group = cyclic_group(order)
        lat = cyclic_lattice(rng, group, 2)
        d0 = coboundary_matrix(lat, 0)
        d1 = coboundary_matrix(lat, 1)
        d2 = coboundary_matrix(lat, 2)
        assert all(x == 0 for x in (d1 @ d0).entries)
        assert all(x == 0 for x in (d2 @ d1).entries)


def test_additivity():
    rng = random.Random(99)
    group = cyclic_group(4)
    for _ in range(5):
        a = cyclic_lattice(rng, group, rng.randint(1, 2))
        b = cyclic_lattice(rng, group, rng.randint(1, 2))
        for degree in (1, 2):
            combined = cohomology(a.direct_sum(b), degree).group
            split = cohomology(a, degree).group.direct_sum(
                cohomology(b, degree).group)
            assert combined == split


def test_degree_guard():
    with pytest.raises(ValueError):
        cohomology(SIGN, 3)
    with pytest.raises(ValueError, match="coboundary degree must be nonnegative"):
        coboundary_matrix(SIGN, -1)


def test_resource_limits():
    with pytest.raises(ResourceLimitError):
        cohomology(trivial_lattice(C2, RANK_LIMIT + 1), 2)
    with pytest.raises(ResourceLimitError):
        cohomology(trivial_lattice(cyclic_group(13), 1), 2)
    # overridable
    assert cohomology(trivial_lattice(cyclic_group(13), 1), 0,
                      order_limit=13).group == FinAbGroup.free(1)


def test_h0_takes_no_size_guard():
    # H^0 = ker d^0 builds no d^1, so the d^1 limits do not apply to it
    assert cohomology(trivial_lattice(cyclic_group(13), 1), 0).group == FinAbGroup.free(1)
    big = permutation_module(C2, C2.trivial_subgroup())
    for _ in range(4):
        big = big.direct_sum(big)
    assert big.rank == 32 > RANK_LIMIT
    assert cohomology(big, 0).group == FinAbGroup.free(16)
    with pytest.raises(ResourceLimitError):
        cohomology(big, 1)


def test_glattice_map_validation():
    triv = trivial_lattice(C2, 1)
    with pytest.raises(IncompatibleModulesError):
        GLatticeMap(source=triv, target=SIGN, matrix=IntMatrix([[1]]))
    with pytest.raises(IncompatibleModulesError):
        GLatticeMap(source=triv, target=trivial_lattice(cyclic_group(3), 1),
                    matrix=IntMatrix([[1]]))
    ok = GLatticeMap(source=triv, target=triv, matrix=IntMatrix([[5]]))
    assert ok.matrix[0, 0] == 5


def test_induced_identity_and_zero():
    triv = trivial_lattice(C2, 1)
    ident = GLatticeMap(source=triv, target=triv, matrix=IntMatrix.identity(1))
    result = cohomology(triv, 2)
    induced = induced_h2_map(ident, result, result)
    assert induced.matrix == IntMatrix.identity(induced.matrix.rows)
    assert kernel_of_h2_map(ident).is_trivial
    zero = GLatticeMap(source=triv, target=triv, matrix=IntMatrix([[0]]))
    assert kernel_of_h2_map(zero) == FinAbGroup(0, (2,))


def test_induced_h2_map_refuses_a_foreign_presentation():
    triv = trivial_lattice(C2, 1)
    ident = GLatticeMap(source=triv, target=triv, matrix=IntMatrix.identity(1))
    with pytest.raises(IncompatibleModulesError, match="expected a degree-2 presentation"):
        induced_h2_map(ident, cohomology(triv, 1))
    with pytest.raises(IncompatibleModulesError,
                       match="presentation belongs to a different lattice"):
        induced_h2_map(ident, cohomology(trivial_lattice(C2, 2), 2))


def test_kernel_example_both_algorithms():
    # Z with trivial action into the regular module, 1 |-> (1, 1)
    triv = trivial_lattice(C2, 1)
    reg = permutation_module(C2, C2.trivial_subgroup())
    f = GLatticeMap(source=triv, target=reg, matrix=IntMatrix([[1], [1]]))
    assert cohomology(reg, 2).group.is_trivial
    assert kernel_of_h2_map(f) == FinAbGroup(0, (2,))
    assert kernel_of_h2_map_via_presentations(f) == FinAbGroup(0, (2,))


def test_kernel_via_presentations_refuses_an_induced_map_of_other_lattices():
    # multiplication by 4 has kernel Z/4 on H^2(C4, Z) = Z/4 but Z/2 over C2
    f4, f2 = (GLatticeMap(source=t, target=t, matrix=IntMatrix([[4]]))
              for t in (trivial_lattice(cyclic_group(4), 1), trivial_lattice(C2, 1)))
    assert kernel_of_h2_map_via_presentations(f4, induced_h2_map(f4)) == FinAbGroup(0, (4,))
    assert kernel_of_h2_map_via_presentations(f2) == FinAbGroup(0, (2,))
    # the regular module shares f2's source but not its target
    reg = permutation_module(C2, C2.trivial_subgroup())
    into_reg = GLatticeMap(source=f2.source, target=reg, matrix=IntMatrix([[1], [1]]))
    for other in (f4, into_reg):
        with pytest.raises(IncompatibleModulesError, match="different lattice map"):
            kernel_of_h2_map_via_presentations(f2, induced_h2_map(other))


def test_kernel_trivial_group_always_zero():
    t = trivial_group()
    a = trivial_lattice(t, 2)
    b = trivial_lattice(t, 3)
    f = GLatticeMap(source=a, target=b,
                    matrix=IntMatrix([[1, 0], [0, 2], [3, 4]]))
    assert kernel_of_h2_map(f).is_trivial


def test_functoriality_composition():
    rng = random.Random(424242)
    group = cyclic_group(3)
    done = 0
    while done < 10:
        a = cyclic_lattice(rng, group, rng.randint(1, 3))
        b = cyclic_lattice(rng, group, rng.randint(1, 3))
        c = cyclic_lattice(rng, group, rng.randint(1, 3))
        f = random_equivariant_map(rng, a, b)
        g = random_equivariant_map(rng, b, c)
        gf = GLatticeMap(source=a, target=c, matrix=g.matrix @ f.matrix)
        ra, rb, rc = (cohomology(x, 2) for x in (a, b, c))
        wf = induced_h2_map(f, ra, rb).matrix
        wg = induced_h2_map(g, rb, rc).matrix
        wgf = induced_h2_map(gf, ra, rc).matrix
        # equal as maps on H^2: the difference lands in the boundaries
        diff = (wg @ wf) - wgf
        for j in range(diff.cols):
            col = IntMatrix.from_columns([diff.column(j)])
            quotient = rc.boundaries
            from torika.linalg import solve_integer
            assert solve_integer(quotient, col.column(0)) is not None
        done += 1


def test_kernel_agreement_random():
    rng = random.Random(31337)
    group = cyclic_group(4)
    for _ in range(8):
        a = cyclic_lattice(rng, group, rng.randint(1, 3))
        b = cyclic_lattice(rng, group, rng.randint(1, 3))
        f = random_equivariant_map(rng, a, b)
        assert kernel_of_h2_map(f) == kernel_of_h2_map_via_presentations(f)


# --- the bar route, kept as an oracle -----------------------------------------

def bar_d(lattice, n):
    """The bar coboundary d^n as an object array."""
    return coboundary_matrix(lattice, n).to_array()


def bar_h2(lattice):
    """H^2 as ker d^2 modulo im d^1: (group, 2-cocycle basis, boundaries)."""
    z = column_kernel(bar_d(lattice, 2))
    d1 = bar_d(lattice, 1)
    y = _coords_in_basis(z.tolist(), d1.tolist())
    return _cokernel_array(y), z, as_array(y, d1.shape[1])


def bar_h1(lattice):
    """H^1 as ker d^1 modulo im d^0 in the bar complex."""
    z = column_kernel(bar_d(lattice, 1))
    return _cokernel_array(_coords_in_basis(z.tolist(), bar_d(lattice, 0).tolist()))


def bar_shift_h2(lattice):
    """H^2 = sum Z/gcd(n, d_i) over the Smith form of the bar d^1.

    The dimension shift on the bar complex: a route for the lattices
    whose bar d^2 is too large to take a kernel of in a test.
    """
    n = lattice.group.order
    orders = [gcd(n, d) for d in _smith(bar_d(lattice, 1).tolist())[0]]
    return FinAbGroup(0, tuple(o for o in orders if o > 1))


def preimage_quotient(images, relations, boundaries):
    """The x with images @ x in the span of `relations`, modulo `boundaries`.

    The general route, by kernels alone: the first k rows P of a kernel
    basis of [images | relations] span the preimage, which is then Z^c
    modulo the first c rows of a kernel basis of [P | -boundaries].
    """
    k = images.shape[1]
    span = column_kernel(np.concatenate([images, relations], axis=1))[:k, :]
    c = span.shape[1]
    return _cokernel_array(
        column_kernel(np.concatenate([span, -boundaries], axis=1))[:c, :].tolist())


def bar_kernel(fmap):
    """Kernel of the induced H^2 map: bar 2-cocycles whose image is a coboundary."""
    _, z, y = bar_h2(fmap.source)
    fz = _apply_blockwise(fmap, z.tolist(), fmap.source.group.order ** 2)
    return preimage_quotient(as_array(fz, z.shape[1]), bar_d(fmap.target, 1), y)


def _random_array(rng, rows, cols, low, high):
    return np.array([[rng.randint(low, high) for _ in range(cols)]
                     for _ in range(rows)], dtype=object).reshape(rows, cols)


def test_congruence_quotient_matches_the_preimage_oracle():
    # boundaries: some n e_j and random combinations of solutions, which
    # the oracle's own kernel of [images | n I] supplies
    rng = random.Random(20261103)
    finite = torsion = 0
    for _ in range(120):
        n, t, k = rng.randint(2, 12), rng.randint(0, 4), rng.randint(0, 5)
        images = _random_array(rng, t, k, -2 * n, 2 * n)
        relations = n * eye_array(t)
        solutions = column_kernel(np.concatenate([images, relations], axis=1))[:k, :]
        scaled = [n * eye_array(k)[:, j:j + 1] for j in range(k) if rng.random() < 0.7]
        mixed = array_matmul(solutions, _random_array(rng, solutions.shape[1],
                                                      rng.randint(0, 2), -3, 3))
        boundaries = np.concatenate(scaled + [mixed], axis=1)
        got = _congruence_quotient(images.tolist(), n, boundaries.tolist())
        assert got == preimage_quotient(images, relations, boundaries), \
            (n, images.tolist(), boundaries.tolist())
        finite += got.is_finite
        torsion += bool(got.torsion)
    assert finite >= 40 and torsion >= 40, (finite, torsion)


def test_congruence_quotient_refuses_a_boundary_off_the_solutions():
    # x + 2y = 0 mod 4: (2, 1) solves it, (1, 0) does not
    images = np.array([[1, 2]], dtype=object)
    assert _congruence_quotient([[1, 2]], 4, [[2], [1]]) == \
        preimage_quotient(images, 4 * eye_array(1), np.array([[2], [1]], dtype=object))
    with pytest.raises(ValueError, match="not a solution of the congruences"):
        _congruence_quotient([[1, 2]], 4, [[2, 1], [1, 0]])


def _in_basis(rng, lattice):
    """The same lattice in a random basis."""
    u = rand_unimodular(rng, lattice.rank)
    u_inv = IntMatrix(_coords_in_basis(u.to_rows(), _eye(u.rows)))
    return GLattice(lattice.group, lattice.rank,
                    tuple(u @ m @ u_inv for m in lattice.action))


def _augmentation_kernel(group, sub):
    """The kernel of Z[G/H] -> Z, on the basis e_i - e_0."""
    perm = permutation_module(group, sub)
    k = perm.rank - 1
    mats = []
    for m in perm.action:
        image = [m.column(i).index(1) for i in range(perm.rank)]
        cols = []
        for i in range(1, perm.rank):
            col = [0] * k
            for j, sign in ((image[i], 1), (image[0], -1)):
                if j:
                    col[j - 1] += sign
            cols.append(col)
        mats.append(IntMatrix.from_columns(cols, rows=k))
    return GLattice(group, k, tuple(mats))


def _pieces(group):
    """Small indecomposable-ish lattices: Z, sign characters, Z[G/H], I_{G/H}."""
    pieces = [trivial_lattice(group, 1)]
    for sub in group.cyclic_subgroups():
        if sub.index == 2:
            pieces.append(GLattice(group, 1, tuple(
                IntMatrix([[1 if g in sub else -1]]) for g in group.elements())))
        if sub.index > 1:
            pieces.append(permutation_module(group, sub))
            pieces.append(_augmentation_kernel(group, sub))
    return pieces


def random_lattice(rng, group, max_rank):
    """A random lattice in a random basis.

    A direct sum of pieces (or a cyclic lattice), dualized at random;
    about a third get a permutation module added.
    """
    pieces = [p for p in _pieces(group) if p.rank <= max_rank]
    lattice = (cyclic_lattice(rng, group, rng.randint(1, 3))
               if group.is_cyclic() and rng.random() < 0.3
               else rng.choice(pieces))
    while rng.random() < 0.5:
        extra = rng.choice(pieces)
        if lattice.rank + extra.rank <= max_rank:
            lattice = lattice.direct_sum(extra)
    if rng.random() < 0.4:
        lattice = lattice.dual()
    if rng.random() < 0.35:
        perms = [permutation_module(group, sub) for sub in group.cyclic_subgroups()
                 if 1 < sub.index <= max_rank + 2 - lattice.rank]
        if perms:
            lattice = lattice.direct_sum(rng.choice(perms))
    return _in_basis(rng, lattice)


DIFFERENTIAL_GROUPS = [cyclic_group(n) for n in (2, 3, 4, 5, 6)] + [
    klein_four_group(), symmetric_group_3()]


def _relabeled(rng, lattice):
    """The same lattice over the same group, its elements relabeled at random.

    The identity moves too, and the generating set and Cayley tree the
    presentation is read from change with the labels.
    """
    group = lattice.group
    label = list(group.elements())
    rng.shuffle(label)
    table = [[0] * group.order for _ in group.elements()]
    action = [None] * group.order
    for a in group.elements():
        action[label[a]] = lattice.act(a)
        for b in group.elements():
            table[label[a]][label[b]] = label[group.mul(a, b)]
    moved = FiniteGroup(group.order, tuple(map(tuple, table)), name=group.name)
    return GLattice(moved, lattice.rank, tuple(action))


def test_explicit_groups_are_the_named_groups():
    orders = {g.name: sorted(g.element_order(x) for x in g.elements())
              for g in EXPLICIT_GROUPS}
    assert orders == {"D4": [1, 2, 2, 2, 2, 2, 4, 4],
                      "Q8": [1, 2, 4, 4, 4, 4, 4, 4],
                      "A4": [1, 2, 2, 2] + [3] * 8,
                      "C2xC4": [1, 2, 2, 2, 4, 4, 4, 4]}


def test_presentation_matches_bar_and_tate_routes():
    rng = random.Random(20261019)
    checked = nontrivial = 0
    for group in DIFFERENTIAL_GROUPS + EXPLICIT_GROUPS:
        for _ in range(6):
            lattice = random_lattice(rng, group, 4)
            h1, h2 = cohomology(lattice, 1).group, cohomology(lattice, 2).group
            assert h1 == bar_h1(lattice), (group.name, lattice.action)
            small = lattice.rank * group.order <= 16
            assert h2 == (bar_h2(lattice)[0] if small else bar_shift_h2(lattice)), \
                (group.name, lattice.action)
            if group.is_cyclic():
                assert h2 == tate_cyclic_h2(lattice)
            moved = _relabeled(rng, lattice)
            assert cohomology(moved, 1).group == h1, group.name
            assert cohomology(moved, 2).group == h2, group.name
            checked += 1
            nontrivial += not (h1.is_trivial and h2.is_trivial)
    assert checked == 66 and nontrivial >= 25


def test_presentation_d1_shape():
    # rank * (|G|(|S|-1)+1) x rank * |S|: one relator block for a cyclic
    # group, 7 for S3 and 9 for D4 on two generators
    for group, blocks, gens in ((cyclic_group(12), 1, 1), (symmetric_group_3(), 7, 2),
                                (EXPLICIT_GROUPS[0], 9, 2), (trivial_group(), 0, 0)):
        lattice = trivial_lattice(group, 3)
        d1 = _cayley_complex(lattice)[2]
        assert len(d1) == 3 * blocks, group.name
        assert all(len(row) == 3 * gens for row in d1), group.name


def test_h2_matches_bar_route():
    rng = random.Random(20261018)
    checked = nontrivial = 0
    for group in DIFFERENTIAL_GROUPS:
        max_rank = 5 if group.order <= 4 else 4
        for _ in range(12):
            lattice = random_lattice(rng, group, max_rank)
            got = cohomology(lattice, 2).group
            assert got == bar_h2(lattice)[0], (group.name, lattice.action)
            checked += 1
            nontrivial += not got.is_trivial
    assert checked >= 80 and nontrivial >= 20


def test_kernel_matches_bar_lift_on_random_maps():
    # a -> a + b, x |-> (k x + t(x), t'(x)) with t, t' group averages:
    # averages induce 0 on H^2, so the kernel is the k-torsion of H^2(a)
    rng = random.Random(77)
    cases = [(random_lattice(rng, group, 3), rng.choice((1, 2, 3, 4, 6)))
             for group in DIFFERENTIAL_GROUPS for _ in range(3)]
    # partial kernels: Z/4 -> Z/2, (Z/6)^2 -> (Z/3)^2, Z/6 -> Z/2
    cases += [(trivial_lattice(cyclic_group(4), 1), 2),
              (trivial_lattice(cyclic_group(6), 2), 3),
              (trivial_lattice(cyclic_group(6), 1), 4)]
    for a, k in cases:
        b = random_lattice(rng, a.group, 3)
        top = random_equivariant_map(rng, a, a).matrix
        bottom = random_equivariant_map(rng, a, b).matrix
        matrix = IntMatrix(
            [[x + (k if i == j else 0) for j, x in enumerate(top.row(i))]
             for i in range(a.rank)] + bottom.to_rows(), cols=a.rank)
        f = GLatticeMap(source=a, target=a.direct_sum(b), matrix=matrix)
        want = bar_kernel(f)
        assert kernel_of_h2_map(f) == want, a.group.name
        assert kernel_of_h2_map_via_presentations(f) == want, a.group.name
        h2 = cohomology(a, 2).group
        assert want == FinAbGroup(0, tuple(
            gcd(k, d) for d in h2.torsion if gcd(k, d) > 1)), (k, h2, want)


def test_kernel_matches_bar_lift_on_fixtures():
    for name in FIXTURE_NAMES:
        fan = pure_divisorial_truncation(load_fixture(name).fan)
        dm = divisor_map(fan)
        want = bar_kernel(dm)
        assert kernel_of_h2_map(dm) == want, name
        assert brauer_kernel(fan) == want, name


ORBIT_FAN_DRAWS = 10_000


def _orbit_fan(rng, lattice, least_rays, most_rays):
    """A pure divisorial fan whose rays are whole orbits of random vectors.

    Draws vectors until the orbits hold least_rays rays, and starts over
    when they hold more than most_rays; gives up after ORBIT_FAN_DRAWS.
    """
    rays = []
    for _ in range(ORBIT_FAN_DRAWS):
        v = tuple(rng.randint(-3, 3) for _ in range(lattice.rank))
        if any(v) and np.gcd.reduce(v) == 1 and v not in rays:
            rays += sorted({lattice.act(g).apply(v) for g in lattice.group.elements()})
        if len(rays) < least_rays:
            continue
        if len(rays) <= most_rays:  # rays is a union of whole orbits
            cones = [()] + [(i,) for i in range(len(rays))]
            return GFan(rank=lattice.rank, rays=tuple(rays), cones=tuple(cones),
                        action=lattice).require_valid()
        rays = []
    raise ValueError(f"no orbit fan with {least_rays} to {most_rays} rays in "
                     f"{ORBIT_FAN_DRAWS} draws from the rank-{lattice.rank} "
                     f"{lattice.group.name} lattice {[m.to_rows() for m in lattice.action]}")


def test_kernel_matches_bar_lift_on_wide_fans():
    s3, c6 = symmetric_group_3(), cyclic_group(6)
    s3_c2, s3_c3 = s3.cyclic_subgroups()[1], s3.cyclic_subgroups()[-1]
    c6_c2, c6_c3 = c6.generated_subgroup((3,)), c6.generated_subgroup((2,))
    fans = [standard_fan(s3, [s3.trivial_subgroup(), s3_c2]),
            standard_fan(c6, [c6.trivial_subgroup(), c6_c2, c6_c3])]
    rng = random.Random(13)
    for group in (s3, c6):
        for _ in range(2):
            fans.append(_orbit_fan(rng, random_lattice(rng, group, 3), 9, 13))
    for fan in fans:
        assert 9 <= len(fan.rays) <= 13
        dm = divisor_map(fan)
        want = bar_kernel(dm)
        assert kernel_of_h2_map(dm) == want, (fan.group.name, fan.rays)
        assert brauer_kernel(fan) == want, (fan.group.name, fan.rays)


def _product_truncation(rng, group):
    """The pure divisorial truncation of `_product_fan`."""
    return pure_divisorial_truncation(_product_fan(rng, group))


def _product_fan(rng, group):
    """A (P^1)^d on which G permutes the factors.

    G permutes the d <= 4 coordinates through the cosets of random
    subgroups, times a sign character when it has one, and the fan is
    put in a random basis.
    """
    subs = [h for h in group.cyclic_subgroups() + [group.full_subgroup()]
            if h.index <= 4]
    lattice = permutation_module(group, rng.choice(subs))
    while rng.random() < 0.6:
        fits = [h for h in subs if lattice.rank + h.index <= 4]
        if not fits:
            break
        lattice = lattice.direct_sum(permutation_module(group, rng.choice(fits)))
    signs = [h for h in group.cyclic_subgroups() if h.index == 2]
    if signs and rng.random() < 0.5:
        sub = rng.choice(signs)
        lattice = GLattice(group, lattice.rank, tuple(
            m if g in sub else -m for g, m in enumerate(lattice.action)))
    d = lattice.rank
    u = rand_unimodular(rng, d)
    u_inv = IntMatrix(_coords_in_basis(u.to_rows(), _eye(u.rows)))
    rays = [u.apply(tuple(s * (j == i) for j in range(d)))
            for i in range(d) for s in (1, -1)]
    cones = [tuple(2 * i + (k >> i & 1) for i in range(d)) for k in range(2 ** d)]
    fan = GFan.from_max_cones(d, rays, cones, action=GLattice(
        group, d, tuple(u @ m @ u_inv for m in lattice.action)))
    return fan.require_valid()


def test_brauer_kernel_matches_both_routes_on_random_truncations():
    rng = random.Random(606)
    checked = nontrivial = 0
    for group in DIFFERENTIAL_GROUPS + EXPLICIT_GROUPS:
        fans = [_product_truncation(rng, group),
                _orbit_fan(rng, random_lattice(rng, group, 3), 2, 8)]
        for fan in fans:
            dm = divisor_map(fan)
            got = brauer_kernel(fan)
            assert got == kernel_of_h2_map(dm), (group.name, fan.rays)
            if dm.source.rank * group.order <= 24:
                assert got == bar_kernel(dm), (group.name, fan.rays)
            checked += 1
            nontrivial += not got.is_trivial
    assert checked == 22 and nontrivial >= 5


def test_kernel_routes_agree_where_target_orders_are_mixed():
    # the presentation route scales row i of the induced matrix by n / o_i;
    # an order strictly between 1 and n is scaled by neither 1 nor n
    rng = random.Random(20261104)
    groups = [cyclic_group(4), cyclic_group(6), cyclic_group(8),
              klein_four_group(), symmetric_group_3()] + EXPLICIT_GROUPS
    checked = strict = nontrivial = 0
    for group in groups:
        for _ in range(4):
            fan = _orbit_fan(rng, random_lattice(rng, group, 3), 2, 12)
            dm = divisor_map(fan)
            boundaries = cohomology(dm.target, 2).boundaries
            orders = {boundaries[i, i] for i in range(boundaries.rows)}
            got = brauer_kernel(fan)
            assert got == kernel_of_h2_map(dm), (group.name, fan.rays)
            assert got == kernel_of_h2_map_via_presentations(dm), (group.name, fan.rays)
            checked += 1
            strict += any(1 < o < group.order for o in orders)
            nontrivial += not got.is_trivial
    assert checked == 36 and strict >= 15 and nontrivial >= 15, (strict, nontrivial)


def test_brauer_kernel_takes_three_smith_forms_and_no_column_reduction(monkeypatch):
    # one Smith form of d^1, one of the Shapiro tests, one for the cokernel
    fans = [pure_divisorial_truncation(load_fixture(name).fan) for name in FIXTURE_NAMES]
    for fan in fans:  # validation, smoothness and ray orbits are cached
        full_report(fan)
    calls = []

    def refuse(a):
        raise AssertionError("the Brauer kernel takes no kernel basis")
    for module in (import_module("torika.cohomology"), import_module("torika.linalg")):
        smith = module._smith
        monkeypatch.setattr(module, "_smith", lambda *args, smith=smith, **kw:
                            calls.append(len(args[0])) or smith(*args, **kw))
        monkeypatch.setattr(module, "_kernel_array", refuse)
    for name, fan in zip(FIXTURE_NAMES, fans):
        calls.clear()
        brauer_kernel(fan)
        assert len(calls) == 3, (name, calls)


def _rotation_fan(vectors, extra=()):
    """C4 rotating the first two coordinates; rays the orbits of the vectors."""
    c4 = cyclic_group(4)
    rank = len(vectors[0])
    rotate = [[0, -1], [1, 0]]
    gen = IntMatrix([[rotate[i][j] if i < 2 and j < 2 else int(i == j)
                      for j in range(rank)] for i in range(rank)])
    action = [IntMatrix.identity(rank)]
    for _ in range(3):
        action.append(gen @ action[-1])
    lattice = GLattice(c4, rank, tuple(action))
    rays = [m.apply(v) for v in vectors for m in action] + list(extra)
    return GFan(rank=rank, rays=tuple(rays),
                cones=tuple([()] + [(i,) for i in range(len(rays))]),
                action=lattice).require_valid()


def test_wide_fans_answer_beyond_the_rank_limit():
    # 20 rays in 5 free orbits: the ray lattice has rank 20 > RANK_LIMIT,
    # but the Shapiro kernel computes no cohomology of it
    orbits = [(1, 0), (1, 1), (2, 1), (1, 2), (3, 1)]
    flat = _rotation_fan(orbits)
    # rotation plus a trivial summand: H^2 = Z/4, which stays in the
    # kernel over free orbits and dies on the fixed ray (0, 0, 1)
    tall = _rotation_fan([v + (1,) for v in orbits])
    fixed = _rotation_fan([v + (1,) for v in orbits], extra=[(0, 0, 1)])
    for fan, want in ((flat, FinAbGroup.trivial()), (tall, FinAbGroup(0, (4,))),
                      (fixed, FinAbGroup.trivial())):
        assert len(fan.rays) > RANK_LIMIT
        assert bar_kernel(divisor_map(fan)) == want
        assert brauer_kernel(fan) == want
        report = full_report(fan)
        assert report.brauer_kernel == want
        assert report.ray_orbit_summary[:5] == ((4, 1),) * 5
    assert len(flat.rays) == 20 and flat.rank == 2


def test_reports_never_build_a_bar_coboundary(monkeypatch):
    def refuse(lattice, n):
        raise AssertionError("the bar complex is a test oracle only")
    monkeypatch.setattr(import_module("torika.cohomology"), "_coboundary_array", refuse)
    for name in FIXTURE_NAMES:
        full_report(load_fixture(name).fan)
    with pytest.raises(AssertionError):
        coboundary_matrix(SIGN, 1)


def test_cohomology_and_induced_maps_take_no_generic_solve(monkeypatch):
    # H^0 is ker d^0; H^1, H^2 and induced H^2 maps read one Smith form of
    # d^1, whose w gives coordinates without solving against a basis
    def refuse(basis, targets):
        raise AssertionError("cohomology reads coordinates off the Smith form")
    monkeypatch.setattr(import_module("torika.cohomology"), "_coords_in_basis", refuse)
    rng = random.Random(20261102)
    groups = [group_preset(name) for name in sorted(GROUP_PRESETS)] + EXPLICIT_GROUPS
    maps = nontrivial = 0
    for group in groups:
        for _ in range(3):
            a, b = random_lattice(rng, group, 3), random_lattice(rng, group, 3)
            h0 = cohomology(a, 0)
            fixed = h0.cocycles
            for m in a.action:
                assert m @ fixed == fixed, group.name
            bar_fixed = column_kernel(bar_d(a, 0))
            assert h0.group == FinAbGroup.free(bar_fixed.shape[1]), group.name
            assert cohomology(a, 1).group == bar_h1(a), group.name
            ra, rb = cohomology(a, 2), cohomology(b, 2)
            assert ra.group == bar_shift_h2(a), group.name
            f = random_equivariant_map(rng, a, b)
            induced = induced_h2_map(f, ra, rb)
            # the matrix holds the exact coordinates of f(z) in b's cocycle basis
            gens = len(_cayley_complex(a)[0])
            assert (rb.cocycles @ induced.matrix).to_rows() == \
                _apply_blockwise(f, ra.cocycles.to_rows(), gens), group.name
            maps += 1
            nontrivial += not (ra.group.is_trivial or rb.group.is_trivial)
    assert maps == 3 * len(groups) and nontrivial >= 10


def test_trivial_group_p1_power_5_has_kernel_zero():
    rays = [tuple(s if j == i else 0 for j in range(5))
            for i in range(5) for s in (1, -1)]
    fan = GFan(rank=5, rays=tuple(rays),
               cones=tuple([()] + [(i,) for i in range(10)]),
               action=trivial_lattice(trivial_group(), 5))
    assert brauer_kernel(fan.require_valid()).is_trivial


def test_broken_action_names_first_failing_pair():
    rng = random.Random(8)
    for group in (cyclic_group(3), cyclic_group(4), klein_four_group(),
                  symmetric_group_3()):
        for _ in range(3):
            mats = list(random_lattice(rng, group, 3).action)
            g, h = rng.sample(range(1, group.order), 2)
            mats[g], mats[h] = mats[h], mats[g]
            first = next(((a, b) for a in group.elements() for b in group.elements()
                          if mats[a] @ mats[b] != mats[group.mul(a, b)]), None)
            if first is None:
                continue
            with pytest.raises(ValueError,
                               match=rf"not a homomorphism at \({first[0]}, {first[1]}\)"):
                GLattice(group, len(mats[0].row(0)), tuple(mats))


def _all_pairs_check(group, rank, mats):
    """The former GLattice check: a determinant per element, then all pairs.

    Returns the message of the first failure, or None for a valid action.
    """
    for g, m in enumerate(mats):
        if m.shape != (rank, rank):
            return f"action of element {g} is not {rank}x{rank}"
        if bareiss_det(m) not in (1, -1):
            return f"action of element {g} is not unimodular"
    if mats[group.identity] != IntMatrix.identity(rank):
        return "identity element must act as the identity matrix"
    for a in group.elements():
        for b in group.elements():
            if mats[a] @ mats[b] != mats[group.mul(a, b)]:
                return f"action is not a homomorphism at ({a}, {b})"
    return None


def _corrupted_actions(rng, lattice):
    """The action itself, then copies with one matrix swapped for another
    unimodular matrix or with one entry changed."""
    mats, rank = list(lattice.action), lattice.rank
    yield mats
    for _ in range(4):
        g = rng.randrange(len(mats))
        other = (mats[rng.randrange(len(mats))] if rng.random() < 0.5
                 else rand_unimodular(rng, rank))
        yield mats[:g] + [other] + mats[g + 1:]
        rows = mats[g].to_rows()
        rows[rng.randrange(rank)][rng.randrange(rank)] += rng.choice((-2, -1, 1, 2))
        yield mats[:g] + [IntMatrix(rows)] + mats[g + 1:]


def test_edge_check_agrees_with_all_pairs_check():
    rng = random.Random(20261020)
    groups = [group_preset(name) for name in sorted(GROUP_PRESETS)] + EXPLICIT_GROUPS
    kinds = {"valid": 0, "pair": 0, "other": 0}
    for group in groups:
        for _ in range(4):
            lattice = random_lattice(rng, group, 3)
            for mats in _corrupted_actions(rng, lattice):
                want = _all_pairs_check(group, lattice.rank, mats)
                if want is None:
                    GLattice(group, lattice.rank, tuple(mats))
                    kinds["valid"] += 1
                    continue
                with pytest.raises(ValueError) as info:
                    GLattice(group, lattice.rank, tuple(mats))
                if "homomorphism" in want:
                    assert str(info.value) == want, group.name
                    kinds["pair"] += 1
                else:
                    kinds["other"] += 1
    assert kinds["valid"] >= 48 and kinds["pair"] >= 100 and kinds["other"] >= 100, kinds


def test_nonunimodular_action_is_refused_at_its_failing_pair():
    rng = random.Random(31)
    checked = 0
    for group in (C2, cyclic_group(4), symmetric_group_3(), EXPLICIT_GROUPS[1]):
        for _ in range(3):
            lattice = random_lattice(rng, group, 3)
            mats = list(lattice.action)
            g = rng.choice([x for x in group.elements() if x != group.identity])
            mats[g] = IntMatrix([[2 * x for x in mats[g].row(0)]]
                                + mats[g].to_rows()[1:])
            assert bareiss_det(mats[g]) not in (1, -1)
            first = next((a, b) for a in group.elements() for b in group.elements()
                         if mats[a] @ mats[b] != mats[group.mul(a, b)])
            with pytest.raises(ValueError,
                               match=rf"not a homomorphism at \({first[0]}, {first[1]}\)"):
                GLattice(group, lattice.rank, tuple(mats))
            checked += 1
    with pytest.raises(ValueError, match=r"not a homomorphism at \(1, 1\)"):
        GLattice(C2, 1, (IntMatrix.identity(1), IntMatrix([[2]])))
    assert checked == 12


def test_valid_actions_take_no_determinant(monkeypatch):
    data = [load_fixture(name).fan for name in FIXTURE_NAMES]

    def refuse(m):
        raise AssertionError("the group law implies unimodularity")
    for module in ("torika.linalg", "torika.datum"):
        monkeypatch.setattr(import_module(module), "_is_unimodular", refuse)
    rng = random.Random(12)
    for group in DIFFERENTIAL_GROUPS + EXPLICIT_GROUPS:
        lattice = random_lattice(rng, group, 4)
        assert GLattice(group, lattice.rank, lattice.action) == lattice
    for fan in data:
        full_report(fan)


def test_resource_limit_message_names_size_and_flag():
    with pytest.raises(ResourceLimitError,
                       match=r"rank 17 exceeds the limit 16 \(d\^1 would be 17x17\); "
                             r"raise it with rank_limit= or torika cohomology --rank-limit"):
        cohomology(trivial_lattice(C2, 17), 2)
    with pytest.raises(ResourceLimitError, match=r"order 13 exceeds the limit 12 .*--order-limit"):
        cohomology(trivial_lattice(cyclic_group(13), 1), 1)
    # the target of a kernel computation has fixed limits: no flag to name
    big = trivial_lattice(C2, 17)
    f = GLatticeMap(source=trivial_lattice(C2, 1), target=big,
                    matrix=IntMatrix([[1]] + [[0]] * 16))
    with pytest.raises(ResourceLimitError) as info:
        kernel_of_h2_map(f)
    assert "17x17" in str(info.value) and "raise" not in str(info.value)
    # nor has its source when the kernel computes it, as brauer_kernel does
    for compute in (kernel_of_h2_map, kernel_of_h2_map_via_presentations):
        with pytest.raises(ResourceLimitError) as info:
            compute(GLatticeMap(source=big, target=big, matrix=IntMatrix.identity(17)))
        assert "17x17" in str(info.value) and "raise" not in str(info.value)
    rays = [tuple(int(i == j) for j in range(17)) for i in range(17)]
    fan = GFan(rank=17, rays=tuple(rays), cones=tuple([()] + [(i,) for i in range(17)]),
               action=trivial_lattice(trivial_group(), 17))
    with pytest.raises(ResourceLimitError) as info:
        brauer_kernel(fan.require_valid())
    assert "rank 17 exceeds the limit 16" in str(info.value)
    assert "raise" not in str(info.value)


def test_dual_is_inverse_transpose():
    rng = random.Random(4242)
    checked = 0
    for group in DIFFERENTIAL_GROUPS:
        for _ in range(8):
            lattice = random_lattice(rng, group, 4)
            dual = lattice.dual()
            for g in group.elements():
                inv = IntMatrix(_coords_in_basis(lattice.act(g).to_rows(), _eye(lattice.rank)))
                assert dual.act(g) == inv.transpose(), (group.name, g)
            assert dual.dual() == lattice
            checked += 1
    assert checked == 8 * len(DIFFERENTIAL_GROUPS)


def test_orbit_fan_gives_up_when_the_lattice_has_too_few_rays():
    # a rank-1 lattice has the two rays +1 and -1 only
    lattice = trivial_lattice(cyclic_group(3), 1)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"no orbit fan with 4 to 12 rays .* rank-1 C3"):
        _orbit_fan(random.Random(5), lattice, 4, 12)
    assert time.perf_counter() - start < 1.0


def test_reports_and_cohomology_take_no_generated_subgroup(monkeypatch):
    # every group and subgroup keeps the generating set it was built with
    rng = random.Random(20261018)
    groups = [group_preset(name) for name in sorted(GROUP_PRESETS)] + EXPLICIT_GROUPS
    lattices = [random_lattice(rng, group, 3) for group in groups for _ in range(2)]
    want = [(cohomology(a, 1).group, cohomology(a, 2).group) for a in lattices]
    reports = [full_report(load_fixture(name).fan) for name in FIXTURE_NAMES]

    def refuse(self, generators):
        raise AssertionError("the generating set is kept, not recomputed")
    monkeypatch.setattr(FiniteGroup, "generated_subgroup", refuse)
    assert [full_report(load_fixture(name).fan) for name in FIXTURE_NAMES] == reports
    assert [(cohomology(a, 1).group, cohomology(a, 2).group) for a in lattices] == want


def _commutation_message(source, target, matrix):
    """The former GLatticeMap check over every element, kept as the oracle."""
    for g in source.group.elements():
        if target.act(g) @ matrix != matrix @ source.act(g):
            return f"matrix does not commute with the action of element {g}"
    return None


def _subgroup_average(rng, source, target, sub):
    """A matrix commuting with the elements of `sub`, perhaps no others."""
    raw = IntMatrix([[rng.randint(-2, 2) for _ in range(source.rank)]
                     for _ in range(target.rank)])
    total = IntMatrix.zeros(target.rank, source.rank)
    for h in sub.elements:
        total = total + target.act(h) @ raw @ source.act(source.group.inv(h))
    return total


def test_generator_commutation_check_agrees_with_all_elements():
    rng = random.Random(20261019)
    kinds = Counter()
    for group in DIFFERENTIAL_GROUPS + EXPLICIT_GROUPS:
        for _ in range(6):
            a, b = random_lattice(rng, group, 3), random_lattice(rng, group, 3)
            valid = random_equivariant_map(rng, a, b).matrix
            rows = valid.to_rows()
            rows[rng.randrange(b.rank)][rng.randrange(a.rank)] += rng.choice((-1, 1))
            sub = rng.choice(group.cyclic_subgroups())
            for matrix in (valid, IntMatrix(rows), _subgroup_average(rng, a, b, sub)):
                want = _commutation_message(a, b, matrix)
                if want is None:
                    GLatticeMap(a, b, matrix)
                    kinds["valid"] += 1
                    continue
                with pytest.raises(IncompatibleModulesError) as info:
                    GLatticeMap(a, b, matrix)
                assert str(info.value) == want, group.name
                kinds["refused"] += 1
                kinds["at a later generator"] += int(want.split()[-1]) != group.generating_set[0]
    print(f"commutation checks: {dict(kinds)}")
    assert kinds["valid"] >= 66 and kinds["refused"] >= 66
    assert kinds["at a later generator"] >= 10
