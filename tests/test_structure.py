"""Truncation, affine structure, standard fans, rho and the divisor map."""

import random
from itertools import combinations_with_replacement

import pytest

from torika.cohomology import (GLattice, permutation_module,
                               trivial_lattice)
from torika.errors import (IncompatibleModulesError, MalformedSubgroupError,
                           NotDescendableError)
from torika.fans import GFan, is_smooth_cone, orbit_count, ray_orbits
from torika.groups import (GROUP_PRESETS, Subgroup, cyclic_group,
                           symmetric_group_3, trivial_group)
from torika.linalg import IntMatrix
from torika.structure import (AffineStructure, FanMorphism, affine_structure,
                              character_lattice, divisor_map,
                              is_pure_divisorial, pure_divisorial_truncation,
                              pure_divisorial_support, ray_matrix,
                              ray_permutation_lattice, rho_map, standard_fan,
                              TropicalCheckResult, tropical_int_check)

from conftest import (EXPLICIT_GROUPS, FIXTURE_NAMES, PURE_DIVISORIAL_FIXTURES,
                      bench_data, coxeter_b3_fan, load_fixture,
                      permutohedral_a3_fan, random_smooth_fan)
from test_brauer_oracle import _character_fan
from test_cohomology import (DIFFERENTIAL_GROUPS, _product_fan,
                             assert_proved_the_same, counted_products)

C2 = cyclic_group(2)
A2 = GFan.from_max_cones(2, [(1, 0), (0, 1)], [(0, 1)])
P2 = GFan.from_max_cones(2, [(1, 0), (0, 1), (-1, -1)],
                         [(0, 1), (1, 2), (0, 2)])
SWAP = GLattice(C2, 2, (IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]])))
A2_SWAP = GFan.from_max_cones(2, [(1, 0), (0, 1)], [(0, 1)], action=SWAP)


def test_truncation_of_a2():
    t = pure_divisorial_truncation(A2)
    assert [c.rays for c in t.cones] == [(), (0,), (1,)]
    assert is_pure_divisorial(t)


def test_truncation_of_p2():
    t = pure_divisorial_truncation(P2)
    assert orbit_count(t) == 4
    assert t.rays == P2.rays
    assert t.action is P2.action
    # maximality: every dropped cone would break pure divisoriality
    dropped = set(c.rays for c in P2.cones) - set(c.rays for c in t.cones)
    assert dropped and all(len(c) >= 2 for c in dropped)


def test_truncation_idempotent():
    t = pure_divisorial_truncation(A2)
    again = pure_divisorial_truncation(t)
    assert again.cones == t.cones and again.rays == t.rays


def test_truncation_preserves_action():
    t = pure_divisorial_truncation(A2_SWAP)
    assert t.action is A2_SWAP.action
    assert t.require_valid()


def test_affine_structure_zero_cone():
    st = affine_structure(A2, ())
    assert st.res_factors == ()
    assert st.units.rank == 2
    assert st.divisor_module.rank == 0
    # units of the zero cone carry the full dual action
    dual = character_lattice(A2_SWAP)
    st2 = affine_structure(A2_SWAP, ())
    assert all(st2.units.act(g) == dual.act(g) for g in C2.elements())


def test_affine_structure_full_cone():
    st = affine_structure(A2, (0, 1))
    assert len(st.res_factors) == 2
    assert all(f.order == 1 for f in st.res_factors)
    assert st.units.rank == 0
    assert st.divisor_module.rank == 2


def test_affine_structure_swap_cone():
    st = affine_structure(A2_SWAP, (0, 1))
    assert len(st.res_factors) == 1
    assert st.res_factors[0].order == 1  # trivial stabilizer: quadratic algebra
    assert st.units.rank == 0
    assert st.divisor_module.rank == 2
    assert st.divisor_module.act(1) == IntMatrix([[0, 1], [1, 0]])


def test_affine_structure_units_pairing():
    # cone on e1 inside rank 2: units = characters vanishing on e1
    fan = GFan.from_max_cones(2, [(1, 0)], [(0,)])
    st = affine_structure(fan, (0,))
    assert st.units.rank == 1
    assert len(st.res_factors) == 1
    assert st.divisor_module.rank == 1


def test_affine_structure_unstable_cone():
    with pytest.raises(NotDescendableError):
        affine_structure(A2_SWAP, (0,))


def test_affine_structure_nonsmooth_cone():
    sing = GFan.from_max_cones(2, [(1, 1), (1, -1)], [(0, 1)])
    with pytest.raises(ValueError):
        affine_structure(sing, (0, 1))


def test_standard_fan_trivial():
    t = trivial_group()
    fan = standard_fan(t, [Subgroup(t, (0,))])
    assert fan.rank == 1
    assert [c.rays for c in fan.cones] == [(), (0,)]
    fan2 = standard_fan(t, [Subgroup(t, (0,)), Subgroup(t, (0,))])
    assert fan2.rank == 2
    assert [c.rays for c in fan2.cones] == [(), (0,), (1,)]


def test_standard_fan_c2():
    fan = standard_fan(C2, [C2.trivial_subgroup()])
    assert fan.rank == 2
    assert fan.ray_vectors() == [(1, 0), (0, 1)]
    assert fan.action.act(1) == IntMatrix([[0, 1], [1, 0]])
    assert is_pure_divisorial(fan)


def test_standard_fan_s3():
    s3 = symmetric_group_3()
    fan = standard_fan(s3, [s3.generated_subgroup((1,))])
    assert fan.rank == 3
    assert len(fan.rays) == 3


def test_standard_fan_bad_subgroup():
    s3 = symmetric_group_3()
    with pytest.raises(MalformedSubgroupError):
        standard_fan(C2, [s3.trivial_subgroup()])


def test_rho_n_family():
    fan = GFan.from_max_cones(2, [(1, 0), (-1, 3)], [(0,), (1,)])
    rho = rho_map(fan)
    assert rho.source.rank == 2
    assert [rho.matrix.column(j) for j in range(2)] == [(1, 0), (-1, 3)]


def test_rho_sign_action():
    fan = load_fixture("sign_rank1").fan
    rho = rho_map(fan)
    assert rho.source.rank == 2
    assert rho.matrix.to_rows() == [[1, -1]]
    assert rho.source.action.act(1) == IntMatrix([[0, 1], [1, 0]])


def test_rho_on_standard_is_identity():
    fan = standard_fan(C2, [C2.trivial_subgroup()])
    rho = rho_map(fan)
    assert rho.matrix == IntMatrix.identity(2)


def test_rho_requires_pure_divisorial():
    with pytest.raises(ValueError):
        rho_map(A2)


def test_fan_morphism_validation():
    a1 = GFan.from_max_cones(1, [(1,)], [(0,)])
    with pytest.raises(IncompatibleModulesError):
        FanMorphism(source=a1, target=a1, matrix=IntMatrix([[-1]]))
    ok = FanMorphism(source=a1, target=a1, matrix=IntMatrix([[3]]))
    assert ok.apply((2,)) == (6,)
    sign = load_fixture("sign_rank1").fan
    with pytest.raises(IncompatibleModulesError):
        FanMorphism(source=sign, target=sign, matrix=IntMatrix.zeros(2, 1))
    # non-equivariant matrix between fans with a real action
    std = standard_fan(C2, [C2.trivial_subgroup()])
    with pytest.raises(IncompatibleModulesError):
        FanMorphism(source=std, target=std, matrix=IntMatrix([[1, 0], [0, 2]]))


def test_divisor_map_values():
    fan = GFan.from_max_cones(2, [(1, 0), (-1, 3)], [(0,), (1,)])
    dm = divisor_map(fan)
    assert dm.matrix.to_rows() == [[1, 0], [-1, 3]]
    assert dm.source.rank == 2 and dm.target.rank == 2
    dm2 = divisor_map(P2)
    assert dm2.matrix.to_rows() == [[1, 0], [0, 1], [-1, -1]]


def test_divisor_map_single_ray():
    fan = GFan.from_max_cones(2, [(1, 0)], [(0,)])
    assert divisor_map(fan).matrix.to_rows() == [[1, 0]]


def test_divisor_map_no_rays():
    from torika.cohomology import trivial_lattice
    from torika.fans import Cone
    bare = GFan(2, (), (Cone(()),), trivial_lattice(trivial_group(), 2))
    dm = divisor_map(bare)
    assert dm.matrix.shape == (0, 2)
    from torika.linalg import kernel_basis
    assert kernel_basis(dm.matrix).cols == 2  # kernel is all of M


def test_ray_permutation_lattice():
    lat = ray_permutation_lattice(load_fixture("sign_rank1").fan)
    assert lat.act(1) == IntMatrix([[0, 1], [1, 0]])


VALID_FANS = dict({name: lambda name=name: load_fixture(name).fan for name in FIXTURE_NAMES},
                      coxeter_b3=coxeter_b3_fan, permutohedral_a3=permutohedral_a3_fan)


@pytest.mark.parametrize("name", sorted(VALID_FANS))
def test_lattices_derived_from_a_valid_fan_are_adopted_without_a_product(monkeypatch, name):
    # G permutes the rays of a valid fan, the cosets of its ray stabilizers
    # and the rays of a stable cone, and acts on the characters vanishing on
    # that cone: every lattice built from them is an action with no proof
    fan = VALID_FANS[name]()
    orbits = ray_orbits(fan)  # validated, with its ray permutations, first
    stable = [c for c in fan.cones if is_smooth_cone(fan, c) and all(
        {perm[i] for i in c.rays} == set(c.rays) for perm in fan.ray_permutations())]
    (rays, standard, patches), products = counted_products(monkeypatch, lambda: (
        ray_permutation_lattice(fan), standard_fan(fan.group, [h for _, h in orbits]),
        [affine_structure(fan, c) for c in stable]))
    assert products == 0
    assert stable and standard.rank == len(fan.rays)
    for lattice in [rays, standard.action] + [
            lattice for patch in patches for lattice in (patch.units, patch.divisor_module)]:
        assert_proved_the_same(lattice)
    assert ray_matrix(fan) == IntMatrix([r.generator for r in fan.rays], cols=fan.rank)


def test_transpose_duality_pairing():
    # <rho*(m), e_sigma> = <m, rho(e_sigma)>: each rho column equals the
    # divisor-matrix row of the ray it maps onto
    for name in PURE_DIVISORIAL_FIXTURES:
        fan = load_fixture(name).fan
        rho = rho_map(fan)
        dm = divisor_map(fan)
        ray_index = {r.generator: i for i, r in enumerate(fan.rays)}
        for j in range(rho.matrix.cols):
            col = rho.matrix.column(j)
            r = ray_index[col]
            assert list(col) == dm.matrix.to_rows()[r]


def test_tropical_check_fixtures():
    for name in ("nfamily_n3", "sign_rank1", "standard_c2"):
        fan = load_fixture(name).fan
        result = tropical_int_check(fan, 4)
        assert result.passed and bool(result)
        assert result.uncovered == () and result.unexpected == ()


def test_pure_divisorial_support_matches_box_scan():
    from torika.fans import support_lattice_points
    from torika.structure import pure_divisorial_support

    for name in ("nfamily_n2", "p1", "a2_minus_origin", "brauer_rank3"):
        fan = load_fixture(name).fan
        for bound in (0, 1, 3):
            assert (pure_divisorial_support(fan, bound)
                    == support_lattice_points(fan, bound))
    with pytest.raises(ValueError):
        pure_divisorial_support(A2, 2)


def test_tropical_check_requires_pure():
    with pytest.raises(ValueError):
        tropical_int_check(A2, 3)


def test_tropical_check_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="^bound must be nonnegative$"):
        tropical_int_check(load_fixture("standard_c2").fan, -1)


def test_pure_divisorial_support_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="^bound must be nonnegative$"):
        pure_divisorial_support(load_fixture("standard_c2").fan, -1)


def test_tropical_check_random_truncations():
    rng = random.Random(31)
    for _ in range(6):
        fan = random_smooth_fan(rng)
        t = pure_divisorial_truncation(fan)
        assert tropical_int_check(t, 3).passed


def test_standard_fan_is_the_chained_direct_sum():
    for name, maker in sorted(GROUP_PRESETS.items()):
        group = maker()
        subgroups = group.cyclic_subgroups() + [group.full_subgroup()]
        for count in range(4):
            for stabs in combinations_with_replacement(subgroups, count):
                chained = trivial_lattice(group, 0)
                for h in stabs:
                    chained = chained.direct_sum(permutation_module(group, h))
                assert standard_fan(group, stabs).action == chained, (name, stabs)


def per_point_tropical_check(fan, bound):
    """The support comparison mapping every upstairs point through rho."""
    rho = rho_map(fan)
    scale = max(fan.max_ray_norm(), 1)
    downstairs = set(pure_divisorial_support(fan, bound))
    image = set()
    for point in pure_divisorial_support(rho.source, bound * scale):
        hit = rho.apply(point)
        if all(abs(x) <= bound for x in hit):
            image.add(hit)
    uncovered = tuple(sorted(downstairs - image))
    unexpected = tuple(sorted(image - downstairs))
    return TropicalCheckResult(passed=not uncovered and not unexpected,
                               uncovered=uncovered, unexpected=unexpected)


def test_tropical_check_matches_per_point_route(tmp_path):
    rng = random.Random(4711)
    fans = [load_fixture(name).fan for name in FIXTURE_NAMES]
    fans += [random_smooth_fan(rng) for _ in range(6)]
    for fan in fans:
        if not is_pure_divisorial(fan):
            fan = pure_divisorial_truncation(fan)
        for bound in range(7):
            assert (tropical_int_check(fan, bound)
                    == per_point_tropical_check(fan, bound)), (fan, bound)
    # groups that act: the orbits have several rays and the stabilizers
    # several elements, so the coset -> ray rule is exercised
    rng = random.Random(20261018)
    acting = [datum.fan for _, datum in bench_data("galois-descent", 1, tmp_path)]
    acting += [_character_fan(rng, group, k)
               for group in DIFFERENTIAL_GROUPS + EXPLICIT_GROUPS for k in (False, True)]
    shapes = {"orbit": 0, "stabilizer": 0}
    for fan in acting:
        fan = pure_divisorial_truncation(fan)
        shapes["orbit"] += any(len(o) > 1 for o, _ in fan.ray_orbits())
        shapes["stabilizer"] += any(1 < s.order < fan.group.order for _, s in fan.ray_orbits())
        for bound in range(4):
            assert (tropical_int_check(fan, bound)
                    == per_point_tropical_check(fan, bound)), (fan, bound)
    print(f"{len(acting)} fans with a group: {shapes['orbit']} with an orbit of "
          f"several rays, {shapes['stabilizer']} with a proper nontrivial stabilizer")
    assert shapes["orbit"] >= 50 and shapes["stabilizer"] >= 20, shapes


def _unstable_element(fan, cone):
    """The former stability check over every element, kept as the oracle."""
    perms = fan.ray_permutations()
    return next((g for g in fan.group.elements()
                 if {perms[g][i] for i in cone.rays} != set(cone.rays)), None)


def test_generator_stability_check_agrees_with_all_elements():
    rng = random.Random(20261021)
    fans = [load_fixture(name).fan for name in FIXTURE_NAMES]
    fans += [_product_fan(rng, group) for group in DIFFERENTIAL_GROUPS + EXPLICIT_GROUPS
             for _ in range(2)]
    stable = unstable = later = 0
    for fan in fans:
        for cone in fan.cones:
            g = _unstable_element(fan, cone)
            if g is None:
                st = affine_structure(fan, cone)
                assert st.units.rank + st.divisor_module.rank == fan.rank
                stable += 1
                continue
            with pytest.raises(NotDescendableError) as info:
                affine_structure(fan, cone)
            assert str(info.value) == f"cone {cone.rays} is not stable under element {g}"
            unstable += 1
            later += g != fan.group.generating_set[0]
    print(f"cones: {stable} stable, {unstable} unstable ({later} at a later generator)")
    assert stable >= 100 and unstable >= 100 and later >= 10
