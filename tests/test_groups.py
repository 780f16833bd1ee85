"""Finite groups given by multiplication tables, and their subgroups."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
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


def test_presets_are_built_once():
    makers = dict(GROUP_PRESETS)
    for name in sorted(GROUP_PRESETS):
        assert group_preset(name) is group_preset(name)
        assert group_preset(name) == GROUP_PRESETS[name]()
    assert GROUP_PRESETS == makers


def test_tables_and_subgroups_refuse_inexact_entries():
    with pytest.raises(TypeError):
        FiniteGroup(2, ((0.0, 1.9), (1, '0')))
    c4 = cyclic_group(4)
    for bad in (2.0, "2", Fraction(2)):
        with pytest.raises(TypeError):
            Subgroup(c4, (0, bad))
        with pytest.raises(TypeError):
            c4.subgroup([0, bad])


def test_tables_and_subgroups_keep_bool_and_numpy_integers_as_python_ints():
    group = FiniteGroup(2, ((np.int64(0), True), (np.int8(1), False)))
    assert group.table == ((0, 1), (1, 0))
    assert all(type(x) is int for row in group.table for x in row)
    c4 = cyclic_group(4)
    for sub in (Subgroup(c4, (np.int64(2), False)), c4.subgroup([np.int8(2), False])):
        assert sub.elements == (0, 2) and all(type(x) is int for x in sub.elements)


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
    with pytest.raises(MalformedGroupError, match="at least one element"):
        FiniteGroup(0, ())
    with pytest.raises(MalformedGroupError, match="table entry 2 out of range"):
        FiniteGroup(2, ((0, 1), (1, 2)))


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
    with pytest.raises(MalformedSubgroupError, match="element 5 out of range"):
        Subgroup(cyclic_group(2), (0, 5))


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


def _all_triples_verdict(order, table):
    """The former FiniteGroup axiom checks, kept as the oracle: None when
    the table is a group, else the message of the first failure."""
    n = order
    identity = next((e for e in range(n)
                     if all(table[e][x] == x and table[x][e] == x for x in range(n))), None)
    if identity is None:
        return "no two-sided identity element"
    for a in range(n):
        if not any(table[a][b] == identity and table[b][a] == identity for b in range(n)):
            return f"element {a} has no inverse"
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return f"associativity fails at ({a}, {b}, {c})"
    return None


def _same_group_verdict(order, table):
    """Compare FiniteGroup with the oracle; return the oracle's verdict."""
    want = _all_triples_verdict(order, table)
    try:
        FiniteGroup(order, table)
    except MalformedGroupError as exc:
        got = str(exc)
        assert want is not None, (table, got)
        if want.startswith("associativity"):
            # Light's test may name another failing triple
            a, b, c = map(int, got[got.index("(") + 1:-1].split(", "))
            assert table[table[a][b]][c] != table[a][table[b][c]], (table, got)
        else:
            assert got == want, table
    else:
        assert want is None, (table, want)
    return want


def test_light_test_agrees_with_all_triples_on_every_small_table():
    verdicts = []
    for n in (1, 2, 3):
        for flat in product(range(n), repeat=n * n):
            table = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
            verdict = _all_triples_verdict(n, table)
            if verdict is None or verdict.startswith("associativity"):
                verdicts.append(_same_group_verdict(n, table))
    # the tables with an identity and inverses: 1 + 2 * 1 + 3 * 17 of
    # order <= 3 (as many as places for the identity), 1 + 2 + 3 groups
    assert len(verdicts) == 54 and verdicts.count(None) == 6


def test_light_test_agrees_with_all_triples_on_perturbed_tables():
    rng = random.Random(10)
    kinds = Counter()
    for group in [g for g in ALL_GROUPS if g.order > 1]:
        for _ in range(25):
            table = [list(row) for row in group.table]
            a, b = rng.randrange(group.order), rng.randrange(group.order)
            table[a][b] = rng.choice([x for x in group.elements() if x != table[a][b]])
            verdict = _same_group_verdict(group.order, tuple(map(tuple, table)))
            kinds[(verdict or "group").split()[0]] += 1
    assert sum(kinds.values()) == 275 and kinds["associativity"] >= 50, kinds
    print(f"perturbed tables by first failure: {dict(kinds)}")


def _inverse_and_closure_verdict(group, elems):
    """The former Subgroup check, kept as the oracle."""
    for a in elems:
        if group.inv(a) not in elems:
            return False
        if any(group.mul(a, b) not in elems for b in elems):
            return False
    return True


def test_subgroup_walk_agrees_with_inverse_and_closure_check():
    checked = accepted = 0
    for group in ALL_GROUPS:
        others = [x for x in group.elements() if x != group.identity]
        for mask in range(2 ** len(others)):
            elems = {group.identity} | {x for i, x in enumerate(others) if mask >> i & 1}
            want = _inverse_and_closure_verdict(group, elems)
            try:
                sub = Subgroup(group, tuple(elems))
            except MalformedSubgroupError:
                assert not want, (group.name, elems)
            else:
                assert want, (group.name, elems)
                assert group.generated_subgroup(sub.generating_set) == sub
                accepted += 1
            checked += 1
    assert checked == sum(2 ** (g.order - 1) for g in ALL_GROUPS) == 2535
    assert accepted == sum(len(_all_subgroups(g)) for g in ALL_GROUPS)


def _all_subgroups(group):
    return {group.generated_subgroup(gens).elements
            for k in range(3) for gens in combinations(group.elements(), k)}


def test_generating_set_is_greedy_and_kept():
    for group in ALL_GROUPS:
        for sub in [group.full_subgroup()] + group.cyclic_subgroups():
            gens = sub.generating_set
            assert group.generated_subgroup(gens) == sub
            for i, s in enumerate(gens):  # each lies outside those before it
                assert s not in group.generated_subgroup(gens[:i])
                assert all(x in group.generated_subgroup(gens[:i])
                           for x in sub.elements if x < s)
        assert group.generating_set == group.full_subgroup().generating_set
        assert 2 ** len(group.generating_set) <= group.order
