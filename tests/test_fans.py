"""Fan validation, smoothness, orbits and support lattice points.

Orbit counts and point counts below were derived by hand from the
orbit-cone correspondence and by direct enumeration of small boxes.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from torika.cohomology import GLattice
from torika.datum import load_datum
from torika.errors import DatumError, FanValidationError, NotInFanError
from torika.fans import (Cone, ConeForm, GFan, Ray, _action_problems,
                         _extreme_directions, _layout_problems,
                         _meet_in_common_face, _separated,
                         cone_contains_point, is_smooth, is_smooth_cone,
                         orbit_count, orbit_dimension, primitive_vector,
                         ray_orbits, support_lattice_points, validate_fan)
from torika.groups import cyclic_group, klein_four_group, symmetric_group_3
from torika.linalg import IntMatrix, _kernel_array
from torika.structure import is_pure_divisorial, pure_divisorial_truncation

from conftest import (EXPLICIT_GROUPS, FIXTURE_DIR, bench_data, coxeter_b3_fan,
                      load_fixture, permutohedral_a3_fan, rand_unimodular,
                      random_smooth_fan)
from linalg_oracles import column_kernel, column_rank, minor_invariant_factors
from test_cohomology import (DIFFERENTIAL_GROUPS, _orbit_fan, _product_fan,
                             random_lattice)

P2 = GFan.from_max_cones(2, [(1, 0), (0, 1), (-1, -1)],
                         [(0, 1), (1, 2), (0, 2)])
A2 = GFan.from_max_cones(2, [(1, 0), (0, 1)], [(0, 1)])
A2M = GFan.from_max_cones(2, [(1, 0), (0, 1)], [(0,), (1,)])


def independent(fan, cone):
    """Oracle for a cone's ConeForm: its generators have full rank."""
    gens = np.array([fan.rays[i].generator for i in cone.rays],
                    dtype=object).reshape(len(cone), fan.rank)
    return column_rank(gens) == len(cone)


def problems_of(fan):
    return "\n".join(validate_fan(fan).problems)


def test_valid_fixtures():
    for fan in (P2, A2, A2M):
        assert validate_fan(fan).ok


def test_face_materialization():
    assert sorted(len(c) for c in A2.cones) == [0, 1, 1, 2]
    assert len(P2.cones) == 7


def test_face_materialization_adopts_each_face(monkeypatch):
    """from_max_cones normalizes each maximal cone once and builds no face
    through Cone.__init__; the fan equals the public constructor's."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    max_cones = [(2, 0, True, 0), [np.int64(3), 0, 1]]

    def refuse(self, rays=()):
        raise AssertionError(f"face {rays} went through Cone.__init__")
    monkeypatch.setattr(Cone, "__init__", refuse)
    fan = GFan.from_max_cones(3, rays, max_cones)
    monkeypatch.undo()
    faces = [(), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
             (0, 1, 2), (0, 1, 3)]
    assert fan == GFan(3, rays, faces, fan.action)
    assert all(type(i) is int for c in fan.cones for i in c.rays)


def test_zero_ray_and_nonprimitive():
    fan = GFan.from_max_cones(2, [(0, 0), (2, 4)], [(0,), (1,)])
    report = validate_fan(fan)
    assert "ray 0 is zero" in "\n".join(report.problems)
    assert "ray 1 is not primitive: (2, 4)" in "\n".join(report.problems)


def test_duplicate_rays():
    fan = GFan.from_max_cones(1, [(1,), (1,)], [(0,), (1,)])
    assert "rays 0 and 1 coincide" in problems_of(fan)


def test_wrong_ray_length():
    fan = GFan.from_max_cones(2, [(1, 0, 0)], [(0,)])
    assert "ray 0 has length 3, expected 2" in problems_of(fan)


def test_missing_face_and_zero_cone():
    fan = GFan(2, ((1, 0), (0, 1)), (Cone((0, 1)), Cone((0,)), Cone((1,))),
               A2.action)
    assert "the zero cone is missing" in problems_of(fan)
    fan2 = GFan(2, ((1, 0), (0, 1)), (Cone(()), Cone((0, 1)), Cone((0,))),
                A2.action)
    assert "missing its face (1,)" in problems_of(fan2)


def test_unused_ray():
    fan = GFan(2, ((1, 0), (0, 1)), (Cone(()), Cone((0,))), A2.action)
    assert "ray 1 does not appear in any cone" in problems_of(fan)


def test_out_of_range_cone_index():
    fan = GFan.from_max_cones(2, [(1, 0)], [(0, 5)])
    assert "ray index 5" in problems_of(fan)


def test_duplicate_cone_listing():
    fan = GFan(1, ((1,),), (Cone(()), Cone((0,)), Cone((0,))),
               GFan.from_max_cones(1, [(1,)], [(0,)]).action)
    assert "listed twice" in problems_of(fan)


def test_dependent_cone():
    fan = GFan.from_max_cones(2, [(1, 0), (-1, 0)], [(0, 1)])
    assert "linearly dependent generators" in problems_of(fan)
    with pytest.raises(ValueError, match="membership needs linearly independent generators"):
        cone_contains_point(fan, (0, 1), (1, 0))


def test_negative_rank_and_rank_mismatch_are_problems():
    c2 = cyclic_group(2)
    fan = GFan(-1, (), (Cone(()),), GLattice(c2, 0, (IntMatrix.zeros(0, 0),) * 2))
    assert validate_fan(fan).problems == (
        "negative lattice rank", "action has rank 0 but the fan has rank -1")


def test_overlapping_cones():
    fan = GFan.from_max_cones(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (2,)])
    assert "do not intersect in their common face" in problems_of(fan)


def test_overlap_with_shared_ray():
    # both 2-cones contain ray 0; they overlap beyond it
    fan = GFan.from_max_cones(2, [(1, 0), (0, 1), (1, -1)],
                              [(0, 1), (0, 2), (1, 2)])
    assert "do not intersect" in problems_of(fan)


def test_action_moves_ray_off_fan():
    c2 = cyclic_group(2)
    neg = GLattice(c2, 2, (IntMatrix.identity(2), IntMatrix([[-1, 0], [0, -1]])))
    fan = GFan.from_max_cones(2, [(1, 0), (0, 1)], [(0, 1)], action=neg)
    assert "is not a ray" in problems_of(fan)


def test_action_cone_image_missing():
    c2 = cyclic_group(2)
    swap = GLattice(c2, 2, (IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]])))
    fan = GFan.from_max_cones(2, [(1, 0), (0, 1), (-1, -1)],
                              [(0, 2), (1,)], action=swap)
    assert "sends cone (0, 2) to (1, 2), which is not a cone" in problems_of(fan)


def test_report_collects_everything():
    fan = GFan.from_max_cones(2, [(0, 0), (2, 0), (1, 1)], [(0,), (1,), (2,)])
    assert len(validate_fan(fan).problems) >= 2
    assert not validate_fan(fan)
    assert str(validate_fan(fan)) == "ray 0 is zero\nray 1 is not primitive: (2, 0)"
    assert validate_fan(A2) and str(validate_fan(A2)) == "valid"


def test_require_valid_raises():
    fan = GFan.from_max_cones(2, [(2, 0)], [(0,)])
    with pytest.raises(FanValidationError) as err:
        fan.require_valid()
    assert "not primitive" in str(err.value)


def test_smoothness():
    assert is_smooth(P2)
    sing = GFan.from_max_cones(2, [(1, 1), (1, -1)], [(0, 1)])
    assert validate_fan(sing).ok
    assert not is_smooth(sing)
    assert is_smooth_cone(sing, (0,))
    assert not is_smooth_cone(sing, (0, 1))
    with pytest.raises(NotInFanError):
        is_smooth_cone(P2, (0, 1, 2))


def test_orbit_counts_frozen():
    assert orbit_count(A2M) == 3
    assert orbit_count(A2) == 4
    assert orbit_count(P2) == 7


def test_orbit_dimensions():
    dims = sorted(orbit_dimension(P2, c) for c in P2.cones)
    assert dims == [0, 0, 0, 1, 1, 1, 2]
    with pytest.raises(NotInFanError):
        orbit_dimension(A2, (0, 5))


def test_ray_orbits_trivial_group():
    orbits = ray_orbits(P2)
    assert [o for o, _ in orbits] == [(0,), (1,), (2,)]
    assert all(s.order == 1 for _, s in orbits)


def test_ray_orbits_s3():
    fixture = load_fixture("standard_s3")
    orbits = ray_orbits(fixture.fan)
    assert len(orbits) == 1
    orbit, stab = orbits[0]
    assert orbit == (0, 1, 2)
    assert stab.order == 2


def test_ray_orbits_sign():
    fixture = load_fixture("sign_rank1")
    orbits = ray_orbits(fixture.fan)
    assert len(orbits) == 1
    assert orbits[0][0] == (0, 1)
    assert orbits[0][1].order == 1


def test_support_points_frozen():
    assert len(support_lattice_points(A2, 2)) == 9
    assert len(support_lattice_points(P2, 2)) == 25
    assert support_lattice_points(A2M, 2) == (
        (0, 0), (0, 1), (0, 2), (1, 0), (2, 0))
    sign = load_fixture("sign_rank1").fan
    assert support_lattice_points(sign, 3) == (
        (-3,), (-2,), (-1,), (0,), (1,), (2,), (3,))


def test_support_points_rank0():
    from torika.cohomology import trivial_lattice
    from torika.groups import trivial_group
    bare = GFan(0, (), (Cone(()),), trivial_lattice(trivial_group(), 0))
    assert support_lattice_points(bare, 3) == ((),)


def test_support_bound_guard():
    with pytest.raises(ValueError):
        support_lattice_points(A2, -1)


def test_cone_membership():
    assert cone_contains_point(A2, (0, 1), (3, 5))
    assert not cone_contains_point(A2, (0, 1), (-1, 2))
    assert cone_contains_point(A2, (), (0, 0))
    assert not cone_contains_point(A2, (), (1, 0))
    # ray membership forces proportionality
    assert cone_contains_point(P2, (2,), (-2, -2))
    assert not cone_contains_point(P2, (2,), (-2, -1))
    with pytest.raises(ValueError, match="point of length 3 in a fan of rank 2"):
        cone_contains_point(A2, (0, 1), (1, 0, 0))


def test_primitive_vector():
    assert primitive_vector((2, 4)) == (1, 2)
    assert primitive_vector((0, 5)) == (0, 1)
    assert primitive_vector((-3,)) == (-1,)


def test_random_smooth_fans_validate():
    rng = random.Random(2024)
    for _ in range(25):
        fan = random_smooth_fan(rng)
        assert validate_fan(fan).ok
        assert is_smooth(fan)


def test_support_points_lie_in_support():
    rng = random.Random(77)
    for _ in range(10):
        fan = random_smooth_fan(rng)
        gens = [[fan.rays[i].generator for i in c.rays] for c in fan.maximal_cones()]
        assert support_lattice_points(fan, 2) == tuple(
            point for point in product(range(-2, 3), repeat=fan.rank)
            if any(_solve_nonneg_rational(g, point) is not None for g in gens))


def _solve_nonneg_rational(generators, point):
    """Coefficients c >= 0 with sum c_i * generators[i] == point, or None.

    The generators must be linearly independent, so the coefficients are
    unique; everything is solved exactly over the rationals.
    """
    k = len(generators)
    if k == 0:
        return () if not any(point) else None
    if k == 1:  # a ray: one division
        gen = generators[0]
        i = next((i for i, x in enumerate(gen) if x), None)
        c = None if i is None else Fraction(point[i], gen[i])
        ok = c is not None and c >= 0 and all(c * x == y for x, y in zip(gen, point))
        return (c,) if ok else None
    n = len(point)
    rows = [[Fraction(generators[j][i]) for j in range(k)] + [Fraction(point[i])]
            for i in range(n)]
    pivot_row = {}
    top = 0
    for col in range(k):
        src = next((r for r in range(top, n) if rows[r][col]), None)
        if src is None:
            return None  # dependent generators; callers prevalidate
        rows[top], rows[src] = rows[src], rows[top]
        inv = 1 / rows[top][col]
        rows[top] = [x * inv for x in rows[top]]
        for r in range(n):
            if r != top and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[top])]
        pivot_row[col] = top
        top += 1
    for r in range(top, n):
        if rows[r][k]:
            return None  # point outside the span
    coeffs = tuple(rows[pivot_row[c]][k] for c in range(k))
    if any(c < 0 for c in coeffs):
        return None
    return coeffs


def full_system_meet(fan, c1, c2):
    """Oracle for _meet_in_common_face: the full system [V | -W].

    Every extreme point V a = W b of the intersection of the two cones
    is solved against the common face, with no reduction modulo the
    shared rays.  It shares _extreme_directions with the program; the
    lattice-witness test below does without it.
    """
    s1, s2 = set(c1.rays), set(c2.rays)
    if s1 <= s2 or s2 <= s1:
        return True
    v1 = [fan.rays[i].generator for i in c1.rays]
    v2 = [fan.rays[i].generator for i in c2.rays]
    k1 = len(v1)
    system = np.array(v1 + [tuple(-x for x in v) for v in v2],
                      dtype=object).reshape(-1, fan.rank).T
    common_gens = [fan.rays[i].generator for i in sorted(s1 & s2)]
    for _, img in _extreme_directions(column_kernel(system).tolist()):
        point = tuple(sum(img[j] * v1[j][i] for j in range(k1))
                      for i in range(fan.rank))
        if _solve_nonneg_rational(common_gens, point) is None:
            return False
    return True


def all_pairs_problems(fan):
    """Oracle: validate_fan's problem list from the all-pairs check.

    Every pair of nonzero cones with independent generators is tested,
    faces included, where validate_fan tests maximal cones only, and
    each pair goes through the full-system test, not the production one.
    """
    problems = _layout_problems(fan)
    if problems:
        return tuple(problems)
    good = []
    for c in fan.cones:
        if not independent(fan, c):
            problems.append(f"cone {c.rays} has linearly dependent generators")
        elif c.rays:
            good.append(c)
    for a in range(len(good)):
        for b in range(a + 1, len(good)):
            if not full_system_meet(fan, good[a], good[b]):
                problems.append(
                    f"cones {good[a].rays} and {good[b].rays} do not intersect "
                    f"in their common face"
                )
    return tuple(problems + _action_problems(fan))


def product_fan(rng, d):
    """(P^1)^d in a random basis."""
    u = rand_unimodular(rng, d)
    rays = [primitive_vector(u.apply(tuple(s if k == i else 0 for k in range(d))))
            for i in range(d) for s in (1, -1)]
    cones = [tuple(2 * i + side for i, side in enumerate(signs))
             for signs in product((0, 1), repeat=d)]
    return GFan.from_max_cones(d, rays, cones)


def broken_fan(rng):
    """A smooth fan with an overlapping maximal cone added or a ray moved."""
    fan = random_smooth_fan(rng) if rng.random() < 0.6 else product_fan(rng, 3)
    rays = [list(r.generator) for r in fan.rays]
    cones = [c.rays for c in fan.maximal_cones()]
    if rng.random() < 0.5:
        # a new ray through a maximal cone, in a new cone with other rays
        inside = rng.choice(cones)
        rays.append(primitive_vector(
            [sum(rng.randint(1, 3) * rays[i][k] for i in inside)
             for k in range(fan.rank)]))
        others = rng.sample(range(len(rays) - 1),
                            rng.randint(0, min(fan.rank, len(rays)) - 1))
        cones.append(tuple([len(rays) - 1] + others))
    else:
        # move one ray by a multiple of another, possibly across a wall
        i, j = rng.sample(range(len(rays)), 2) if len(rays) > 1 else (0, 0)
        c = rng.choice((-2, -1, 1, 2))
        rays[i] = primitive_vector([a + c * b for a, b in zip(rays[i], rays[j])])
    return GFan.from_max_cones(fan.rank, rays, cones)


def test_maximal_pairs_agree_with_all_pairs_on_smooth_fans():
    rng = random.Random(4242)
    fans = [random_smooth_fan(rng) for _ in range(20)]
    fans += [product_fan(rng, d) for d in (2, 3) for _ in range(3)]
    for fan in fans:
        assert validate_fan(fan).ok
        assert all_pairs_problems(fan) == ()


def test_maximal_pairs_agree_with_all_pairs_on_broken_fans():
    rng = random.Random(515)
    verdicts = []
    for _ in range(60):
        fan = broken_fan(rng)
        report = validate_fan(fan)
        oracle = all_pairs_problems(fan)
        assert report.ok == (not oracle), (fan, report.problems, oracle)
        assert set(report.problems) <= set(oracle)
        verdicts.append(report.ok)
    # the generator must produce both outcomes for the check to mean much
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 5


def test_problem_lists_match_all_pairs_oracle_on_files():
    data = Path(__file__).resolve().parent / "data"
    compared = 0
    for path in sorted(data.glob("*.json")) + sorted(FIXTURE_DIR.glob("*.json")):
        try:
            fan = load_datum(str(path), require_valid=False).fan
        except DatumError:
            continue
        assert validate_fan(fan).problems == all_pairs_problems(fan), path.name
        compared += 1
    assert compared == 22


def data_file_fans():
    """The loadable data and fixture files, validated or not."""
    data = Path(__file__).resolve().parent / "data"
    fans = []
    for path in sorted(data.glob("*.json")) + sorted(FIXTURE_DIR.glob("*.json")):
        try:
            fans.append(load_datum(str(path), require_valid=False).fan)
        except DatumError:
            continue
    return fans


def random_cone_pair_fan(rng):
    """Two cones on small random rays in rank 2 or 3, possibly overlapping.

    Only the pair predicate's precondition holds: both cones have
    independent generators.  The rest of the fan may be invalid.
    """
    while True:
        rank = rng.choice((2, 3))
        rays = []
        while len(rays) < 2 * rank:
            ray = primitive_vector([rng.randint(-2, 2) for _ in range(rank)])
            if any(ray) and ray not in rays:
                rays.append(ray)
        shared = rng.randint(0, rank - 1)
        picks = rng.sample(range(len(rays)), 2 * rank - shared)
        c1 = Cone(picks[:rng.randint(max(shared, 1), rank)])
        c2 = Cone(picks[:shared] + picks[rank:][:rng.randint(1, rank - shared)])
        fan = GFan.from_max_cones(rank, rays, [c1.rays, c2.rays])
        if independent(fan, c1) and independent(fan, c2):
            return fan, c1, c2


def independent_maximal_pairs(fan):
    if _layout_problems(fan):
        return []
    good = [c for c in fan.maximal_cones() if c.rays and independent(fan, c)]
    return list(combinations(good, 2))


def pair_cases():
    """1,250 seeded pairs of independent cones, good and bad."""
    rng = random.Random(8080)
    fans = [product_fan(rng, 3) for _ in range(3)]
    fans += [product_fan(rng, 4) for _ in range(2)]
    fans += [broken_fan(rng) for _ in range(40)]
    fans += data_file_fans()
    cases = [(fan, a, b) for fan in fans for a, b in independent_maximal_pairs(fan)]
    cases += [random_cone_pair_fan(rng) for _ in range(300)]
    return cases


def test_pair_predicate_matches_full_system():
    cases = pair_cases()
    verdicts = []
    for fan, a, b in cases:
        verdict = _meet_in_common_face(fan, a, b)
        assert verdict == full_system_meet(fan, a, b), (fan.rays, a, b)
        verdicts.append(verdict)
    assert verdicts.count(False) >= 60 and verdicts.count(True) >= 200


def test_pair_predicate_rejects_lattice_witnesses():
    """A box point in both cones but off their common face means False."""
    rng = random.Random(9090)
    witnessed = 0
    for _ in range(200):
        fan, a, b = random_cone_pair_fan(rng)
        common = Cone(tuple(set(a.rays) & set(b.rays)))
        for point in product(range(-2, 3), repeat=fan.rank):
            if (cone_contains_point(fan, a, point)
                    and cone_contains_point(fan, b, point)
                    and not cone_contains_point(fan, common, point)):
                assert not _meet_in_common_face(fan, a, b), (fan.rays, a, b, point)
                witnessed += 1
                break
    assert witnessed >= 30


def test_product_fans_validate_without_enumeration(monkeypatch):
    """Nesting, the ray rules and the functional decide every good pair."""
    from torika import fans as fans_module

    valid = [fan for fan in data_file_fans() if validate_fan(fan).ok]
    calls = []
    monkeypatch.setattr(fans_module, "_kernel_array",
                        lambda *args: calls.append(args) or _kernel_array(*args))
    rng = random.Random(4242)
    for d in range(2, 7):
        assert validate_fan(product_fan(rng, d)).ok
    pairs = [(fan, a, b) for fan in valid
             for a, b in combinations(fan.maximal_cones(), 2)
             if max(len(a), len(b)) > 1]
    assert all(_meet_in_common_face(fan, a, b) for fan, a, b in pairs)
    assert len(calls) == 0 and len(pairs) >= 3


def test_certificate_never_accepts_a_bad_pair(monkeypatch):
    """With enumeration made to answer bad, nesting, the ray rules and the
    functional say good on good pairs only."""
    from torika import fans as fans_module

    cases = pair_cases()
    truth = [full_system_meet(fan, a, b) for fan, a, b in cases]
    monkeypatch.setattr(fans_module, "_extreme_directions", lambda b: [None])
    certified = [_meet_in_common_face(fan, a, b) for fan, a, b in cases]
    assert all(good for good, cert in zip(truth, certified) if cert)
    assert truth.count(False) >= 60 and certified.count(True) >= 200


def test_pairs_with_a_ray_take_no_kernel(monkeypatch):
    """A ray meets a ray in 0, and a cone iff it lies in it: no kernel."""
    from torika import fans as fans_module

    cases = [(fan, a, b) for fan, a, b in pair_cases() if min(len(a), len(b)) == 1]
    truth = [full_system_meet(fan, a, b) for fan, a, b in cases]
    calls = []
    monkeypatch.setattr(fans_module, "_kernel_array",
                        lambda *args: calls.append(args) or _kernel_array(*args))
    assert [_meet_in_common_face(fan, a, b) for fan, a, b in cases] == truth
    assert len(calls) == 0
    assert truth.count(False) >= 10 and truth.count(True) >= 100


def test_pure_divisorial_fans_validate_without_a_kernel(monkeypatch, tmp_path):
    """Only ray pairs, so the data and truncations take no kernel."""
    from torika import fans as fans_module

    rng = random.Random(5151)
    sources = [datum.fan for _, datum in bench_data("galois-descent", 1, tmp_path)]
    sources += [pure_divisorial_truncation(product_fan(rng, d)) for d in range(1, 6)]
    fans = [GFan(fan.rank, fan.rays, fan.cones, fan.action) for fan in sources]
    assert all(is_pure_divisorial(fan) for fan in fans)
    calls = []
    monkeypatch.setattr(fans_module, "_kernel_array",
                        lambda *args: calls.append(args) or _kernel_array(*args))
    assert all(validate_fan(fan).ok for fan in fans)
    assert len(calls) == 0 and len(fans) >= 100


def test_separating_functional_never_accepts_a_bad_pair():
    cases = pair_cases()
    truth = [full_system_meet(fan, a, b) for fan, a, b in cases]
    separated = [_separated(fan, a, b) for fan, a, b in cases]
    assert not any(sep and not good for good, sep in zip(truth, separated))
    assert len(cases) == 1250 and truth.count(False) >= 60
    assert separated.count(True) >= 1000


def test_cone_form_matches_rank_and_smith_form():
    rng = random.Random(1313)
    seen = {"dependent": 0, "smooth": 0, "not smooth": 0, "not full": 0}
    for _ in range(120):
        rank = rng.randint(1, 4)
        k = rng.randint(0, rank)
        gens = random_cone_generators(rng, rank, k)
        if gens and rng.random() < 0.3:  # a combination makes them dependent
            gens.append(tuple(sum(rng.randint(-2, 2) * g[i] for g in gens)
                              for i in range(rank)))
        k = len(gens)
        g = np.array(gens, dtype=object).reshape(k, rank)
        form = ConeForm.of(gens, rank)
        assert form.independent == (column_rank(g) == k)
        diag = minor_invariant_factors(IntMatrix(gens, cols=rank))
        assert form.smooth == (len(diag) == k and all(d == 1 for d in diag))
        if not form.independent:
            seen["dependent"] += 1
            continue
        seen["smooth" if form.smooth else "not smooth"] += 1
        seen["not full"] += k < rank
        duals = np.array(form.duals, dtype=object).reshape(k, rank).T
        normals = np.array(form.normals, dtype=object).reshape(-1, rank).T
        top = diag[k - 1] if k else 1
        assert (g.dot(duals) == top * np.eye(k, dtype=int)).all()
        assert normals.shape[1] == rank - k and (g.dot(normals) == 0).all()
    assert min(seen.values()) >= 15, seen


def test_dependent_cones_listed_in_cone_order():
    """One dependent maximal cone: every dependent face is still listed."""
    rays = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)]
    listed = GFan.from_max_cones(3, rays, [(0, 1, 2, 3), (0, 4)])
    fan = GFan(3, rays, listed.cones[::-1], listed.action)  # largest first

    def dependent(problems):
        return [p for p in problems if "dependent" in p]

    assert dependent(validate_fan(fan).problems) == [
        f"cone {c} has linearly dependent generators"
        for c in ((0, 1, 2, 3), (0, 1, 2))]
    assert dependent(validate_fan(fan).problems) == dependent(all_pairs_problems(fan))


def test_is_smooth_is_computed_once(monkeypatch):
    from torika import fans as fans_module
    from torika.invariants import full_report

    calls = []
    original = fans_module.is_smooth_cone

    def counting(fan, cone):
        calls.append(cone)
        return original(fan, cone)

    monkeypatch.setattr(fans_module, "is_smooth_cone", counting)
    fan = load_fixture("standard_s3").fan
    full_report(fan)
    assert len(calls) == len(fan.maximal_cones())
    assert is_smooth(fan) and len(calls) == len(fan.maximal_cones())


def random_cone_generators(rng, rank, k):
    """k independent generators: columns of a random basis times a random
    upper triangular matrix with diagonal entries 1 to 3."""
    basis = rand_unimodular(rng, rank)
    tri = IntMatrix([[0 if j < i else rng.randint(1, 3) if j == i
                      else rng.randint(-2, 2) for j in range(rank)]
                     for i in range(rank)])
    return [(basis @ tri).column(j) for j in range(k)]


def test_cone_membership_matches_rational_oracle():
    rng = random.Random(31337)
    seen = {"in": 0, "face": 0, "out": 0, "off span": 0}
    for case in range(60):
        rank = rng.randint(1, 4)
        k = rng.randint(0, rank)
        gens = random_cone_generators(rng, rank, k)
        fan = GFan.from_max_cones(rank, gens, [range(k)])
        cone = Cone(tuple(range(k)))
        radius = 2 if rank <= 3 else 1
        points = list(product(range(-radius, radius + 1), repeat=rank))
        # combinations with some zero coefficients lie on proper faces
        for coeffs in product(range(3), repeat=k):
            point = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                          for i in range(rank))
            points += [point, tuple(-x for x in point)]
        for point in points:
            want = _solve_nonneg_rational(gens, point)
            assert cone_contains_point(fan, cone, point) == (want is not None), \
                (case, gens, point)
            if want is None:
                span = np.array(gens + [point], dtype=object).reshape(-1, rank)
                seen["out" if column_rank(span) == k else "off span"] += 1
            else:
                seen["face" if 0 in want else "in"] += 1
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("bad", [1.7, 0.9, 2.0, "1", Fraction(1)])
def test_rays_and_cones_refuse_inexact_entries(bad):
    with pytest.raises(TypeError):
        Ray((bad, 0))
    with pytest.raises(TypeError):
        Cone((bad, 2))


def test_rays_and_cones_keep_bool_and_numpy_integers_as_python_ints():
    ray = Ray((np.int64(2), True, np.int8(-1)))
    assert ray == Ray((2, 1, -1)) and all(type(x) is int for x in ray.generator)
    cone = Cone((np.int64(2), True, 1))
    assert cone.rays == (1, 2) and all(type(i) is int for i in cone.rays)
    assert tuple(Cone((2, 0))) == (0, 2)


@pytest.mark.parametrize("bad", [1.5, "3", Fraction(3)])
def test_primitive_vector_refuses_inexact_entries(bad):
    with pytest.raises(TypeError):
        primitive_vector((bad, 3))


def test_primitive_vector_keeps_bool_and_numpy_integers_as_python_ints():
    vec = primitive_vector((np.int64(4), True, np.int8(-2)))
    assert vec == (4, 1, -2) and all(type(x) is int for x in vec)
    vec = primitive_vector((np.int64(4), False, -2))
    assert vec == (2, 0, -1) and all(type(x) is int for x in vec)


def every_element_images(fan):
    """Oracle for ray_permutations: every element's matrix on every ray."""
    lookup = {r.generator: i for i, r in enumerate(fan.rays)}
    return tuple(tuple(lookup.get(fan.action.act(g).apply(r.generator)) for r in fan.rays)
                 for g in fan.group.elements())


def test_ray_permutations_compose_the_generators_images():
    rng = random.Random(1717)
    groups = DIFFERENTIAL_GROUPS + EXPLICIT_GROUPS
    orbit_fans = [_orbit_fan(rng, random_lattice(rng, group, 3), 2, 8) for group in groups]
    # the same fans without their last ray: unless that ray is fixed, a generator
    # sends a ray off the ray set
    off = [GFan(fan.rank, fan.rays[:-1],
                [c for c in fan.cones if len(fan.rays) - 1 not in c.rays], fan.action)
           for fan in orbit_fans]
    fans = data_file_fans() + orbit_fans + off + [_product_fan(rng, group) for group in groups]
    fans += [coxeter_b3_fan(), permutohedral_a3_fan()]
    for fan in fans:
        fresh = GFan(fan.rank, fan.rays, fan.cones, fan.action)
        assert fresh.ray_permutations() == every_element_images(fan), fan
    missing = [fan for fan in off if any(None in perm for perm in fan.ray_permutations())]
    assert len(missing) >= len(off) // 2 and sum(fan.group.order > 1 for fan in fans) >= 40


def every_element_action_problems(fan):
    """Oracle for _action_problems: every element is scanned."""
    perms = every_element_images(fan)
    problems = [
        f"element {g} sends ray {i} to "
        f"{fan.action.act(g).apply(fan.rays[i].generator)}, which is not a ray"
        for g, perm in enumerate(perms) for i, j in enumerate(perm) if j is None]
    if problems:
        return problems
    return [f"element {g} sends cone {c.rays} to {image}, which is not a cone"
            for g, perm in enumerate(perms) for c in fan.cones
            for image in [tuple(sorted(perm[i] for i in c.rays))]
            if image not in fan.cone_set()]


def with_cone_orbit(rng, fan):
    """The fan with the G-orbit of a new cone added: a ray through a random
    maximal cone with up to rank - 1 other rays.  The action stays clean,
    and the new cones mostly overlap the old ones."""
    inside = rng.choice(fan.maximal_cones()).rays
    ray = primitive_vector([sum(x) for x in zip(*(fan.rays[i].generator for i in inside))])
    rays = fan.ray_vectors()
    rays += sorted({fan.action.act(g).apply(ray) for g in fan.group.elements()} - set(rays))
    others = rng.sample(range(len(fan.rays)), rng.randint(0, fan.rank - 1))
    orbit = {tuple(sorted([rays.index(fan.action.act(g).apply(ray))]
                          + [perm[i] for i in others]))
             for g, perm in enumerate(fan.ray_permutations())}
    cones = [c.rays for c in fan.maximal_cones()] + sorted(orbit)
    return GFan.from_max_cones(fan.rank, rays, cones, fan.action)


def g_fan_cases():
    """Valid G-fans with nontrivial actions, then broken ones whose action is clean."""
    rng = random.Random(1616)
    groups = [symmetric_group_3(), klein_four_group()]
    valid = [_product_fan(rng, group) for group in groups for _ in range(2)]
    valid += [_orbit_fan(rng, random_lattice(rng, group, 3), 2, 8) for group in groups]
    broken = [with_cone_orbit(rng, fan) for fan in valid if fan.rank <= 3 for _ in range(5)]
    cox = [permutohedral_a3_fan(), coxeter_b3_fan()]
    return valid + cox, broken + [with_cone_orbit(rng, cox[0])]


def test_action_problems_match_every_element_scan():
    valid, broken = g_fan_cases()
    fans = data_file_fans() + valid + broken
    # a generator's cone image is missing: drop the first or last maximal cone
    for fan in valid + broken:
        cones = [c.rays for c in fan.maximal_cones()]
        fans += [GFan.from_max_cones(fan.rank, fan.ray_vectors(), kept, fan.action)
                 for kept in (cones[1:], cones[:-1])]
    flagged = 0
    for fan in [fan for fan in fans if not _layout_problems(fan)]:  # as validate_fan
        want = every_element_action_problems(fan)
        assert _action_problems(GFan(fan.rank, fan.rays, fan.cones, fan.action)) == want
        flagged += bool(want)
    assert flagged >= 15


def test_orbit_pairs_match_all_pairs_oracle_on_g_fans(monkeypatch):
    """One pair per orbit is tested, and bad verdicts reach the whole orbit."""
    from torika import fans as fans_module

    valid, broken = g_fan_cases()
    verdicts = []
    monkeypatch.setattr(fans_module, "_meet_in_common_face",
                        lambda *pair: verdicts.append(_meet_in_common_face(*pair))
                        or verdicts[-1])
    expanded = tested = pairs = 0
    for fan in valid + broken:
        assert not _action_problems(fan)
        verdicts.clear()
        report = validate_fan(fan)
        tested += len(verdicts)
        pairs += len(independent_maximal_pairs(fan))
        oracle = all_pairs_problems(fan)
        if fan in valid:
            assert report.problems == oracle == (), fan
            continue
        assert report.ok == (not oracle) and set(report.problems) <= set(oracle)
        bad = [p for p in report.problems if "do not intersect" in p]
        assert bad == [
            f"cones {a.rays} and {b.rays} do not intersect in their common face"
            for a, b in independent_maximal_pairs(fan) if not full_system_meet(fan, a, b)]
        assert ([p for p in report.problems if p not in bad]
                == [p for p in oracle if "do not intersect" not in p])
        expanded += len(bad) - verdicts.count(False)
    assert sum(not validate_fan(fan).ok for fan in broken) >= 8
    assert expanded >= 100 and 5 * tested < pairs


@pytest.mark.parametrize("build, rays, chambers, orbits", [
    (coxeter_b3_fan, 26, 48, 33), (permutohedral_a3_fan, 14, 24, 16)])
def test_coxeter_fans_test_one_pair_per_orbit(monkeypatch, build, rays, chambers, orbits):
    from torika import fans as fans_module

    fan = build()
    assert (len(fan.rays), len(fan.maximal_cones()), fan.group.order) == (
        rays, chambers, chambers)
    calls = []
    monkeypatch.setattr(fans_module, "_meet_in_common_face",
                        lambda *pair: calls.append(pair) or _meet_in_common_face(*pair))
    assert validate_fan(fan).ok and is_smooth(fan)
    assert len(calls) <= orbits


def visited_pairs(monkeypatch):
    """The pairs the one pair loop of validate_fan enumerates, as it runs."""
    from torika import fans as fans_module

    visited, orbit_pairs = [], fans_module._orbit_pairs
    monkeypatch.setattr(fans_module, "_orbit_pairs", lambda *args: (
        visited.append(pair) or pair for pair in orbit_pairs(*args)))
    return visited


@pytest.mark.parametrize("build, before, most", [
    (coxeter_b3_fan, 1128, 47), (permutohedral_a3_fan, 276, 23)])
def test_coxeter_fans_enumerate_one_chamber_against_the_rest(monkeypatch, build, before, most):
    fan = build()
    chambers = len(fan.maximal_cones())
    assert chambers * (chambers - 1) // 2 == before  # the pairs of combinations(good, 2)
    visited = visited_pairs(monkeypatch)
    assert validate_fan(fan).ok
    assert 0 < len(visited) <= most == chambers - 1


def test_pure_divisorial_fans_enumerate_no_pair(monkeypatch):
    """16 rays +-u e_i of Z^8 under the antipodal C2: two rays are never visited."""
    rng = random.Random(3131)
    u = rand_unimodular(rng, 8)
    rays = [u.apply(tuple(s if k == i else 0 for k in range(8)))
            for i in range(8) for s in (1, -1)]
    minus = IntMatrix([[-x for x in row] for row in IntMatrix.identity(8).to_rows()])
    action = GLattice(cyclic_group(2), 8, (IntMatrix.identity(8), minus))
    fan = GFan.from_max_cones(8, rays, [(i,) for i in range(16)], action)
    assert len(fan.rays) == 16 and is_pure_divisorial(fan)
    assert fan.ray_orbits()[0][0] == (0, 1)  # the action moves rays
    visited = visited_pairs(monkeypatch)
    assert validate_fan(fan).ok and visited == []


def test_bad_pairs_under_a_clean_action_are_listed_in_combinations_order(monkeypatch):
    """Only a bad representative's orbit is expanded, and its pairs fall
    into their combinations places among the all-pairs oracle's problems,
    which also lists the faces' pairs."""
    from torika import fans as fans_module

    rng = random.Random(2727)
    fans = [with_cone_orbit(rng, permutohedral_a3_fan()) for _ in range(2)]
    verdicts = []
    monkeypatch.setattr(fans_module, "_meet_in_common_face",
                        lambda *pair: verdicts.append(_meet_in_common_face(*pair))
                        or verdicts[-1])
    for fan in fans:
        assert not _action_problems(fan)
        verdicts.clear()
        problems = validate_fan(fan).problems
        maximal = {f"cones {a.rays} and {b.rays} do not intersect in their common face"
                   for a, b in combinations(fan.maximal_cones(), 2)}
        assert problems == tuple(p for p in all_pairs_problems(fan)
                                 if "do not intersect" not in p or p in maximal)
        bad = [p for p in problems if "do not intersect" in p]
        assert 0 < verdicts.count(False) < len(bad)
