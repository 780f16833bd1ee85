"""Class groups, Brauer kernels and the aggregated report."""

import random
from importlib import import_module
from itertools import product
from math import gcd

import pytest

from torika.cohomology import (GLattice, cohomology, kernel_of_h2_map,
                               kernel_of_h2_map_via_presentations,
                               trivial_lattice)
from torika.errors import ResourceLimitError, StageError
from torika.fans import Cone, GFan, is_smooth, validate_fan
from torika.groups import cyclic_group, trivial_group
from torika.invariants import brauer_kernel, class_group, full_report
from torika.linalg import FinAbGroup, IntMatrix
from torika.structure import (character_lattice, divisor_map,
                              pure_divisorial_truncation, tropical_int_check)

from conftest import (FIXTURE_NAMES, PURE_DIVISORIAL_FIXTURES,
                      TRIVIAL_GROUP_FIXTURES, load_fixture, rand_unimodular)
from test_cohomology import DIFFERENTIAL_GROUPS, _product_fan

C2 = cyclic_group(2)


def family_fan(n):
    return GFan.from_max_cones(2, [(1, 0), (-1, n)], [(0,), (1,)])


def test_full_report_refuses_a_negative_bound_before_any_stage(monkeypatch):
    def refuse(fan):
        raise AssertionError("a stage ran before the bound was checked")
    monkeypatch.setattr(import_module("torika.invariants"), "brauer_kernel", refuse)
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        full_report(load_fixture("p2").fan, bound=-1)


def test_class_group_n_family():
    assert class_group(family_fan(0)) == FinAbGroup.free(1)
    assert class_group(family_fan(1)).is_trivial
    for n in range(2, 6):
        assert class_group(family_fan(n)) == FinAbGroup(0, (n,))


def test_class_group_p2_and_hexagon():
    p2 = load_fixture("p2").fan
    assert class_group(p2) == FinAbGroup.free(1)
    hexagon = GFan.from_max_cones(
        2, [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    assert class_group(hexagon) == FinAbGroup.free(4)


def test_class_group_requires_smooth():
    sing = GFan.from_max_cones(2, [(1, 1), (1, -1)], [(0, 1)])
    with pytest.raises(ValueError):
        class_group(sing)


def conjugated(fan, u, u_inv):
    rays = [u.apply(r.generator) for r in fan.rays]
    action = GLattice(fan.group, fan.rank,
                      tuple(u @ fan.action.act(g) @ u_inv
                            for g in fan.group.elements()))
    return GFan(fan.rank, tuple(rays), fan.cones, action)


def test_class_group_conjugation_invariance():
    from torika.linalg import _coords_in_basis, _eye

    rng = random.Random(8)
    for name in ("nfamily_n3", "p2", "brauer_rank3"):
        fan = load_fixture(name).fan
        expected = class_group(fan)
        for _ in range(5):
            u = rand_unimodular(rng, fan.rank)
            u_inv = IntMatrix(_coords_in_basis(u.to_rows(), _eye(u.rows)))
            assert class_group(conjugated(fan, u, u_inv)) == expected


def test_brauer_kernel_trivial_group_fixtures():
    for name in TRIVIAL_GROUP_FIXTURES:
        fan = load_fixture(name).fan
        assert brauer_kernel(pure_divisorial_truncation(fan)).is_trivial


def test_brauer_kernel_standard_fixtures():
    for name in ("standard_c2", "standard_s3"):
        assert brauer_kernel(load_fixture(name).fan).is_trivial


def test_brauer_kernel_rank3_example():
    fan = load_fixture("brauer_rank3").fan
    assert brauer_kernel(fan) == FinAbGroup(0, (2,))


def test_brauer_kernel_bare_torus():
    # no rays: the kernel is the whole H^2 of the character lattice
    lat = trivial_lattice(C2, 1)
    bare = GFan(1, (), (Cone(()),), lat)
    assert brauer_kernel(bare) == FinAbGroup(0, (2,))
    assert cohomology(character_lattice(bare), 2).group == FinAbGroup(0, (2,))
    swap = GLattice(C2, 2, (IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]])))
    bare2 = GFan(2, (), (Cone(()),), swap)
    assert brauer_kernel(bare2).is_trivial


def test_brauer_kernel_guards():
    a2 = load_fixture("a2").fan
    with pytest.raises(ValueError):
        brauer_kernel(a2)


def test_a_pure_divisorial_truncation_is_smooth():
    """So brauer_kernel needs no smoothness guard: the truncation's maximal
    cones are primitive rays or the zero cone, even of a singular fan."""
    sing = GFan.from_max_cones(2, [(1, 0), (1, 2)], [(0, 1)])
    assert not is_smooth(sing)
    for fan in [load_fixture(name).fan for name in FIXTURE_NAMES] + [sing]:
        assert is_smooth(pure_divisorial_truncation(fan))


def test_brauer_order_divides_h2():
    for name in ("sign_rank1", "brauer_rank3", "standard_c2", "standard_s3"):
        fan = load_fixture(name).fan
        kernel = brauer_kernel(fan)
        h2 = cohomology(character_lattice(fan), 2).group
        assert h2.order() % kernel.order() == 0


def test_two_kernel_algorithms_agree_on_fixtures():
    for name in PURE_DIVISORIAL_FIXTURES:
        dm = divisor_map(load_fixture(name).fan)
        assert kernel_of_h2_map(dm) == kernel_of_h2_map_via_presentations(dm)


def test_full_report_a2():
    rep = full_report(load_fixture("a2").fan, 5)
    assert rep.smooth is True
    assert rep.pure_divisorial is False
    assert rep.orbit_count == 4
    assert rep.ray_orbit_summary == ((1, 1), (1, 1))
    assert rep.class_group.is_trivial
    assert rep.brauer_kernel.is_trivial
    assert rep.tropical_check is True
    assert rep.splitting_group == "trivial"


def test_full_report_family_n4():
    rep = full_report(family_fan(4), 5)
    assert rep.class_group == FinAbGroup(0, (4,))


def test_full_report_matches_truncation():
    p2 = load_fixture("p2").fan
    rep = full_report(p2, 4)
    trep = full_report(pure_divisorial_truncation(p2), 4)
    assert rep.class_group == trep.class_group
    assert rep.brauer_kernel == trep.brauer_kernel
    assert rep.tropical_check == trep.tropical_check
    assert rep.orbit_count == 7 and trep.orbit_count == 4


def test_full_report_bare_torus():
    lat = trivial_lattice(trivial_group(), 2)
    bare = GFan(2, (), (Cone(()),), lat)
    rep = full_report(bare, 3)
    assert rep.class_group.is_trivial
    assert rep.brauer_kernel.is_trivial
    assert rep.tropical_check is True
    assert rep.orbit_count == 1


def test_stage_error_annotation():
    big = cyclic_group(13)
    bare = GFan(1, (), (Cone(()),), trivial_lattice(big, 1))
    with pytest.raises(StageError) as err:
        full_report(bare, 3)
    assert err.value.stage == "Brauer kernel"
    assert isinstance(err.value.original, ResourceLimitError)


def test_brauer_kernel_builds_no_ray_lattice(monkeypatch):
    # the divisor map's equivariance is what validate_fan proves, so the
    # kernel reads the ray matrix and orbits of the validated fan
    fans = [pure_divisorial_truncation(load_fixture(name).fan)
            for name in FIXTURE_NAMES]
    want = [kernel_of_h2_map(divisor_map(fan)) for fan in fans]

    def refuse(fan):
        raise AssertionError("the Brauer kernel builds no ray permutation lattice")
    for module in ("torika.structure", "torika.invariants"):
        for name in ("divisor_map", "ray_permutation_lattice"):
            if hasattr(import_module(module), name):
                monkeypatch.setattr(import_module(module), name, refuse)
    for name, fan, kernel in zip(FIXTURE_NAMES, fans, want):
        assert brauer_kernel(fan) == kernel, name
        assert full_report(load_fixture(name).fan).brauer_kernel == kernel, name


def test_report_builds_no_standard_fan(monkeypatch):
    # the integrality check is the orbit-stabilizer bijection of cosets
    # onto rays, so it builds neither the standard fan nor rho
    fans = [load_fixture(name).fan for name in FIXTURE_NAMES]
    want = [(full_report(fan), [tropical_int_check(pure_divisorial_truncation(fan), bound)
                                for bound in range(7)]) for fan in fans]

    def refuse(*args, **kwargs):
        raise AssertionError("the integrality check builds no standard fan")
    for name in ("rho_map", "standard_fan", "FanMorphism", "pure_divisorial_support"):
        monkeypatch.setattr(import_module("torika.structure"), name, refuse)
    for name, fan, (report, checks) in zip(FIXTURE_NAMES, fans, want):
        assert full_report(fan) == report, name
        assert [tropical_int_check(pure_divisorial_truncation(fan), bound)
                for bound in range(7)] == checks, name


def test_report_proves_each_fan_once(monkeypatch):
    # the truncation is a face-closed, G-stable subfan of a valid fan with
    # the same rays and action: it inherits the validation and ray orbits
    from torika import fans as fans_module

    rng = random.Random(6161)
    fans = [load_fixture(name).fan for name in FIXTURE_NAMES
            if name not in PURE_DIVISORIAL_FIXTURES]
    fans += [_product_fan(rng, group) for group in DIFFERENTIAL_GROUPS for _ in range(3)]
    calls = []
    for name in ("_layout_problems", "_action_problems"):
        check = getattr(fans_module, name)
        monkeypatch.setattr(fans_module, name,
                            lambda fan, check=check: calls.append(fan) or check(fan))
    for fan in fans:
        full_report(fan)
    assert len(calls) == 0
    truncations = [pure_divisorial_truncation(fan) for fan in fans]
    assert sum(sub is not fan for sub, fan in zip(truncations, fans)) >= 20
    for sub in truncations:
        fresh = GFan(sub.rank, sub.rays, sub.cones, sub.action)
        assert validate_fan(sub) == validate_fan(fresh)
        assert sub.ray_permutations() == fresh.ray_permutations()
        assert sub.ray_orbits() == fresh.ray_orbits()


def _phi12_fan():
    """C12 acting on Z^4 by the companion matrix of x^4 - x^2 + 1.

    No power g^k, 0 < k < 12, fixes a nonzero vector (its eigenvalues are
    primitive 12th roots of unity raised to k), so every orbit is free;
    the rays are 8 orbits of small vectors, 96 in all, and the cones are
    the rays.
    """
    gen = IntMatrix([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    action = [IntMatrix.identity(4)]
    for _ in range(11):
        action.append(gen @ action[-1])
    rays = []
    for v in sorted(product((-1, 0, 1), repeat=4), key=lambda v: (sum(map(abs, v)), v)):
        if len(rays) < 96 and any(v) and gcd(*v) == 1 and v not in rays:
            rays += [m.apply(v) for m in action]
    lattice = GLattice(cyclic_group(12), 4, tuple(action))
    return GFan(rank=4, rays=tuple(rays),
                cones=tuple([()] + [(i,) for i in range(len(rays))]),
                action=lattice).require_valid()


def test_wide_phi12_fan_answers():
    fan = _phi12_fan()
    assert len(fan.rays) == 96
    # trivial stabilizers leave no restriction test: the kernel is all of H^2
    h2 = cohomology(character_lattice(fan), 2).group
    assert brauer_kernel(fan) == h2
    report = full_report(fan)
    assert report.ray_orbit_summary == ((12, 1),) * 8
    assert report.brauer_kernel == h2
    assert report.class_group.free_rank == 92
