"""The Brauer kernel against Sansuc's formula Br_1(X)/Br_0 = H^1(G, Pic X).

When the rays span N, 0 -> M -> Z^rays -> Pic -> 0 is exact (Cox, Little
and Schenck, Toric Varieties, 4.1), and H^1(G, Z^rays) = 0 because
Z^rays is a permutation module.  So when Pic is torsion-free,
ker(H^2(G, M) -> H^2(G, Z^rays)) = H^1(G, Pic) (Sansuc, J. reine angew.
Math. 327, 1981).  The oracle takes H^1 of a different lattice, so it
shares no Smith form with the Shapiro route of `brauer_kernel`.  Fans
whose rays do not span N, or whose Pic has torsion, are outside its
scope; every test counts them and prints the count.
"""

import random

from torika.cohomology import (RANK_LIMIT, GLattice, cohomology,
                               permutation_module, trivial_lattice)
from torika.fans import GFan
from torika.groups import cyclic_group, klein_four_group, symmetric_group_3
from torika.invariants import brauer_kernel
from torika.linalg import (IntMatrix, _coords_in_basis, _eye,
                           smith_normal_form)
from torika.structure import divisor_map, pure_divisorial_truncation

from conftest import (EXPLICIT_GROUPS, FIXTURE_NAMES, bench_data, load_fixture,
                      rand_unimodular)
from test_cohomology import (DIFFERENTIAL_GROUPS, _orbit_fan,
                             _product_truncation, random_lattice)


def picard_lattice(fan):
    """(Pic, why): Pic = coker(M -> Z^rays) as a GLattice, or (None, why not).

    With u @ D @ v = [I; 0] for the ray matrix D, the rows of u past the
    rank of M project Z^rays onto Pic with kernel im D, and the matching
    columns of u^-1 are a section, so g acts on Pic by u[r:] P_g u^-1[:, r:].
    """
    dm = divisor_map(fan)
    smith = smith_normal_form(dm.matrix)
    diag = [d for d in smith.diagonal if d]
    if len(diag) < fan.rank:
        return None, "rays do not span N"
    if any(d > 1 for d in diag):
        return None, "Pic has torsion"
    u = smith.u.to_rows()
    project = IntMatrix(u[fan.rank:], cols=len(u))
    section = IntMatrix([row[fan.rank:] for row in _coords_in_basis(u, _eye(len(u)))],
                        cols=len(u) - fan.rank)
    return GLattice(fan.group, len(fan.rays) - fan.rank, tuple(
        project @ p @ section for p in dm.target.action)), None


def sansuc_h1(pic):
    return cohomology(pic, 1, rank_limit=max(RANK_LIMIT, pic.rank)).group


def _character_fan(rng, group, stabilized):
    """A fan in N = Z + Z[G] with H^1(G, Pic) = ker(Hom(G, Q/Z) -> Hom(H, Q/Z)).

    The rays are the free orbits of (0; e_1) and (1; e_1), whose 2|G| rays
    include a basis of N, so Pic is torsion-free; with `stabilized`, also
    the orbit of (1; sum of H) for a random nontrivial cyclic subgroup H,
    which kills the characters that are nonzero on H.  The kernel is
    H^2(G, Z) = Hom(G, Q/Z) without that orbit.  N gets a random basis.
    """
    n = group.order
    lattice = trivial_lattice(group, 1).direct_sum(
        permutation_module(group, group.trivial_subgroup()))
    free = (0, 1) + (0,) * (n - 1)
    vectors = [free, (1,) + free[1:]]
    if stabilized:
        sub = rng.choice([h for h in group.cyclic_subgroups() if h.order > 1])
        vectors.append(tuple(map(sum, zip((1,) + (0,) * n, *(
            lattice.act(h).apply(free) for h in sub.elements)))))
    rays = sorted({lattice.act(g).apply(v) for v in vectors for g in group.elements()})
    u = rand_unimodular(rng, n + 1)
    u_inv = IntMatrix(_coords_in_basis(u.to_rows(), _eye(u.rows)))
    return GFan(rank=n + 1, rays=tuple(u.apply(r) for r in rays),
                cones=tuple([()] + [(i,) for i in range(len(rays))]),
                action=GLattice(group, n + 1, tuple(
                    u @ m @ u_inv for m in lattice.action))).require_valid()


def _compare(fans):
    """Check every fan in the oracle's scope; (checked, nontrivial, outside)."""
    checked = nontrivial = 0
    outside = {}
    for label, fan in fans:
        pic, why = picard_lattice(fan)
        if pic is None:
            outside[why] = outside.get(why, 0) + 1
            continue
        got = brauer_kernel(fan)
        assert got == sansuc_h1(pic), label
        checked += 1
        nontrivial += not got.is_trivial
    print(f"Sansuc oracle: {checked} fans checked ({nontrivial} nontrivial), "
          f"outside its scope: {outside or 'none'}")
    return checked, nontrivial, outside


def test_picard_lattice_scope():
    p2 = pure_divisorial_truncation(load_fixture("p2").fan)
    pic, _ = picard_lattice(p2)
    assert pic.rank == 1 and sansuc_h1(pic).is_trivial
    # two rays that form a basis leave Pic = 0
    assert picard_lattice(load_fixture("a2_minus_origin").fan)[0].rank == 0
    trivial = p2.action
    one_ray = GFan(rank=2, rays=((1, 0),), cones=((), (0,)), action=trivial)
    assert picard_lattice(one_ray.require_valid()) == (None, "rays do not span N")
    index_two = GFan(rank=2, rays=((1, 0), (1, 2)), cones=((), (0,), (1,)),
                     action=trivial)
    assert picard_lattice(index_two.require_valid()) == (None, "Pic has torsion")


def test_brauer_kernel_is_h1_of_picard_on_fixtures_and_truncations():
    fans = [(name, pure_divisorial_truncation(load_fixture(name).fan))
            for name in FIXTURE_NAMES]
    rng = random.Random(20261103)
    for group in DIFFERENTIAL_GROUPS + EXPLICIT_GROUPS:
        for _ in range(2):
            fans.append((group.name, _product_truncation(rng, group)))
            lattice = random_lattice(rng, group, 3)
            fans.append((group.name, _orbit_fan(rng, lattice, lattice.rank + 1, 12)))
        fans += [(group.name, _character_fan(rng, group, k)) for k in (False, True)]
        # over free orbits alone the kernel is all of H^2(G, Z) = Hom(G, Q/Z)
        assert brauer_kernel(fans[-2][1]) == cohomology(trivial_lattice(group, 1), 2).group
    checked, nontrivial, outside = _compare(fans)
    assert checked + sum(outside.values()) == len(fans) == 80
    assert checked >= 55 and nontrivial >= 15, (checked, nontrivial)


def test_brauer_kernel_is_h1_of_picard_on_galois_descent_data(tmp_path):
    fans = [(name, datum.fan) for seed in (1, 2)
            for name, datum in bench_data("galois-descent", seed, tmp_path / str(seed))]
    checked, nontrivial, outside = _compare(fans)
    assert checked + sum(outside.values()) == len(fans) == 202
    assert checked >= 100 and nontrivial >= 8, (checked, nontrivial)


def _surjection(big, small, phi):
    for a in big.elements():
        for b in big.elements():
            assert phi(big.mul(a, b)) == small.mul(phi(a), phi(b))
    assert {phi(g) for g in big.elements()} == set(small.elements())
    return phi


def _inflated(fan, big, phi):
    """The same fan with G' acting through the surjection G' -> G."""
    action = fan.action
    return GFan(rank=fan.rank, rays=fan.rays, cones=fan.cones,
                action=GLattice(big, fan.rank, tuple(
                    action.act(phi(g)) for g in big.elements()))).require_valid()


def test_inflation_keeps_the_kernel_where_the_oracle_applies():
    # the inflation-restriction sequence ends in H^1(K, Pic)^G = Hom(K, Pic),
    # which is 0 for a torsion-free Pic with trivial K-action
    c2, c3, c4, s3 = (cyclic_group(2), cyclic_group(3), cyclic_group(4),
                      symmetric_group_3())
    sign = {g: int(s3.element_order(g) == 2) for g in s3.elements()}
    surjections = [
        (cyclic_group(4), c2, lambda g: g % 2),
        (cyclic_group(6), c2, lambda g: g % 2),
        (cyclic_group(6), c3, lambda g: g % 3),
        (cyclic_group(12), c4, lambda g: g % 4),
        (s3, c2, sign.__getitem__),
        (klein_four_group(), c2, lambda g: g & 1),
    ]
    rng = random.Random(20261104)
    checked = nontrivial = 0
    outside = {}
    for big, small, phi in surjections:
        phi = _surjection(big, small, phi)
        fans = [_product_truncation(rng, small) for _ in range(2)]
        lattices = [random_lattice(rng, small, 3) for _ in range(2)]
        fans += [_orbit_fan(rng, lattice, lattice.rank + 1, 12) for lattice in lattices]
        fans += [_character_fan(rng, small, k) for k in (False, True)]
        if small == c2:
            fans.append(load_fixture("brauer_rank3").fan)
        for fan in fans:
            pic, why = picard_lattice(fan)
            if pic is None:
                outside[why] = outside.get(why, 0) + 1
                continue
            want = brauer_kernel(fan)
            assert sansuc_h1(pic) == want
            lifted = _inflated(fan, big, phi)
            assert brauer_kernel(lifted) == want, (big.name, small.name, fan.rays)
            assert sansuc_h1(picard_lattice(lifted)[0]) == want
            checked += 1
            nontrivial += not want.is_trivial
    print(f"inflation: {checked} fans checked ({nontrivial} nontrivial), "
          f"outside the oracle's scope: {outside or 'none'}")
    assert checked >= 25 and nontrivial >= 6, (checked, nontrivial, outside)
