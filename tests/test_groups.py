"""Finite groups given by multiplication tables, and their subgroups."""

from itertools import combinations

import pytest

from torika.errors import MalformedGroupError, MalformedSubgroupError
from torika.groups import (GROUP_PRESETS, FiniteGroup, Subgroup, cyclic_group,
                           group_preset, klein_four_group, symmetric_group_3,
                           trivial_group)

from conftest import EXPLICIT_GROUPS

ALL_GROUPS = [group_preset(name) for name in sorted(GROUP_PRESETS)] + EXPLICIT_GROUPS


def test_presets():
    orders = {"trivial": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6,
              "C2xC2": 4, "S3": 6}
    assert set(GROUP_PRESETS) == set(orders)
    for name, order in orders.items():
        g = group_preset(name)
        assert g.order == order
        assert g.name == name


def test_unknown_preset():
    with pytest.raises(MalformedGroupError):
        group_preset("C9")


def test_cyclic_structure():
    c4 = cyclic_group(4)
    assert c4.identity == 0
    assert c4.mul(3, 3) == 2
    assert c4.inv(1) == 3
    assert c4.element_order(1) == 4
    assert c4.element_order(2) == 2
    assert c4.is_cyclic() and c4.generator() in (1, 3)


def test_s3_structure():
    s3 = symmetric_group_3()
    assert not s3.is_cyclic()
    assert any(s3.mul(a, b) != s3.mul(b, a)
               for a in s3.elements() for b in s3.elements())
    assert sorted(s3.element_order(g) for g in s3.elements()) == [1, 2, 2, 2, 3, 3]


def test_klein_not_cyclic():
    k = klein_four_group()
    assert not k.is_cyclic()
    assert all(k.mul(g, g) == 0 for g in k.elements())


def test_malformed_table():
    with pytest.raises(MalformedGroupError):
        FiniteGroup(order=2, table=((0, 1), (1, 1)))  # 1 has no inverse
    with pytest.raises(MalformedGroupError):
        FiniteGroup(order=2, table=((0, 1),))  # wrong shape
    # non-associative magma with a two-sided identity
    with pytest.raises(MalformedGroupError):
        FiniteGroup(order=3, table=((0, 1, 2), (1, 0, 0), (2, 0, 0)))


def test_subgroups():
    s3 = symmetric_group_3()
    h = s3.generated_subgroup((1,))
    assert h.order == 2
    cosets = h.left_cosets()
    assert len(cosets) == 3
    assert sorted(min(c) for c in cosets) == [0, 2, 4]
    assert all(len(c) == 2 for c in cosets)
    with pytest.raises(MalformedSubgroupError):
        Subgroup(s3, (1,))  # missing identity
    with pytest.raises(MalformedSubgroupError):
        Subgroup(s3, (0, 1, 2))  # not closed


def test_cyclic_subgroups():
    c4 = cyclic_group(4)
    assert sorted(h.order for h in c4.cyclic_subgroups()) == [1, 2, 4]
    k = klein_four_group()
    assert sorted(h.order for h in k.cyclic_subgroups()) == [1, 2, 2, 2]
    s3 = symmetric_group_3()
    assert sorted(h.order for h in s3.cyclic_subgroups()) == [1, 2, 2, 2, 3]


def test_trivial_and_full_subgroup():
    s3 = symmetric_group_3()
    assert s3.trivial_subgroup().order == 1
    assert s3.full_subgroup().order == 6
    assert s3.full_subgroup().index == 1


def test_subgroup_contains():
    c6 = cyclic_group(6)
    h = c6.generated_subgroup((2,))
    assert h.order == 3
    assert 4 in h and 3 not in h


def test_trivial_group():
    t = trivial_group()
    assert t.order == 1 and t.identity == 0 and t.is_cyclic()


def _two_sided_closure(group, gens):
    """The former generated_subgroup: a search multiplying on both sides."""
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (group.mul(x, g), group.mul(g, x)):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return tuple(sorted(seen))


def test_generated_subgroup_matches_two_sided_closure():
    checked = 0
    for group in ALL_GROUPS:
        for k in range(3):
            for gens in combinations(group.elements(), k):
                assert (group.generated_subgroup(gens).elements
                        == _two_sided_closure(group, gens)), (group.name, gens)
                checked += 1
    assert checked == sum(1 + g.order + g.order * (g.order - 1) // 2 for g in ALL_GROUPS)


def test_cayley_walk_is_breadth_first_with_a_spanning_tree():
    for group in ALL_GROUPS:
        for k in range(3):
            for gens in combinations(group.elements(), k):
                edges = list(group.cayley_walk(gens))
                order = [group.identity] + [h for _, _, h, tree in edges if tree]
                assert len(set(order)) == len(order)
                # every reached element, in order of discovery, has its |S|
                # edges in turn, each ending at g * s
                assert [(g, j) for g, j, _, _ in edges] == [
                    (g, j) for g in order for j in range(k)]
                assert all(h == group.mul(g, gens[j]) for g, j, h, _ in edges)
                assert tuple(sorted(order)) == _two_sided_closure(group, gens)
