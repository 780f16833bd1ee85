"""Finite groups as explicit multiplication tables.

Elements are the indices 0..order-1; a group is its Cayley table.  This
is all the generality the rest of the package needs, and it keeps every
check (associativity, closure, stabilizers) exact and cheap for the
small groups that occur as splitting groups.  `cayley_walk` is the one
walk from generators; subgroups, presentations and actions all read it.

Each group and subgroup keeps `generating_set`, built once with it: the
elements, in increasing order, outside the subgroup generated by those
before them, so at most log2 of the order; each generator joins by a
new `cayley_walk`.  Every group law is checked on it.  The s with
(ab)s = a(bs) for all a, b are closed under products (Light's test;
Clifford-Preston, Algebraic Theory of Semigroups I), and a finite subset
closed under products is a subgroup.  The elements that commute with a
map or stabilize a set form a subgroup, so the least element that fails
such a law is a generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations, product
from operator import index as _index

import numpy as np

from .errors import MalformedGroupError, MalformedSubgroupError


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    table[a][b] is the product a*b.  The identity is discovered during
    construction and the full group axioms are verified, so an instance
    can always be trusted downstream.
    """

    order: int
    table: tuple
    identity: int = field(default=-1, compare=False)
    name: str = field(default="", compare=False)
    generating_set: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.order
        table = tuple(tuple(map(_index, row)) for row in self.table)
        object.__setattr__(self, "table", table)
        if n < 1:
            raise MalformedGroupError("a group needs at least one element")
        if len(table) != n or any(len(row) != n for row in table):
            raise MalformedGroupError(f"multiplication table must be {n}x{n}")
        t = np.array(table)
        wrong = t[(t < 0) | (t >= n)]
        if wrong.size:
            raise MalformedGroupError(f"table entry {wrong[0]} out of range")
        t, x = t.astype(np.intp), np.arange(n)
        units = np.flatnonzero((t == x).all(axis=1) & (t.T == x).all(axis=1))
        if not units.size:
            raise MalformedGroupError("no two-sided identity element")
        identity = int(units[0])
        both = (t == identity) & (t.T == identity)
        lost = np.flatnonzero(~both.any(axis=1))
        if lost.size:
            raise MalformedGroupError(f"element {lost[0]} has no inverse")
        object.__setattr__(self, "identity", identity)
        gens = _greedy_generators(self, range(n))
        for s in gens:  # Light's test: (ab)s = a(bs)
            wrong = np.argwhere(t[:, s][t] != t[:, t[:, s]])
            if wrong.size:
                raise MalformedGroupError(
                    "associativity fails at ({}, {}, {})".format(*wrong[0], s))
        object.__setattr__(self, "_inverses", tuple(both.argmax(axis=1).tolist()))
        object.__setattr__(self, "generating_set", gens)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inverses[a]

    def elements(self):
        return range(self.order)

    def element_order(self, a):
        k = 1
        x = a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def is_cyclic(self):
        return self.generator() is not None

    def generator(self):
        """Some element of full order, or None when the group is not cyclic."""
        return next((a for a in self.elements()
                     if self.element_order(a) == self.order), None)

    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, tuple(elements))

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup([self.identity])

    def full_subgroup(self) -> "Subgroup":
        return self.subgroup(range(self.order))

    def cayley_walk(self, generators):
        """The edges (g, j, g*generators[j], tree) of the right Cayley graph.

        A breadth-first walk from the identity; `tree` marks the edge that
        first reaches its end, so the tree edges span the generated subgroup.
        """
        gens = tuple(generators)
        queue = [self.identity]
        seen = {self.identity}
        for g in queue:
            for j, s in enumerate(gens):
                h = self.table[g][s]
                tree = h not in seen
                if tree:
                    seen.add(h)
                    queue.append(h)
                yield g, j, h, tree

    def generated_subgroup(self, generators) -> "Subgroup":
        return self.subgroup([self.identity] + [
            h for _, _, h, tree in self.cayley_walk(generators) if tree])

    def cyclic_subgroups(self):
        """All cyclic subgroups, each listed once, smallest first."""
        found = {}
        for a in self.elements():
            sub = self.generated_subgroup([a])
            found[sub.elements] = sub
        return sorted(found.values(), key=lambda s: (s.order, s.elements))

    def __repr__(self):
        label = self.name or f"order {self.order}"
        return f"FiniteGroup({label})"


def _greedy_generators(group, elements):
    """The elements, in increasing order, that the generators before them
    do not reach; each one joins by a new walk from all of them."""
    gens, reached = [], {group.identity}
    for x in sorted(elements):
        if x not in reached:
            gens.append(x)
            reached.update(h for _, _, h, tree in group.cayley_walk(gens) if tree)
    return tuple(gens)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup, stored as the sorted tuple of its element indices."""

    parent: FiniteGroup
    elements: tuple
    generating_set: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        elems = tuple(sorted(set(map(_index, self.elements))))
        object.__setattr__(self, "elements", elems)
        wrong = [x for x in elems if not 0 <= x < self.parent.order]
        if wrong:
            raise MalformedSubgroupError(f"element {wrong[0]} out of range")
        if self.parent.identity not in elems:
            raise MalformedSubgroupError("subgroup must contain the identity")
        gens = _greedy_generators(self.parent, elems)
        member = set(elems)
        for a, b in product(elems, gens):  # the Cayley graph's edges
            if self.parent.mul(a, b) not in member:
                raise MalformedSubgroupError(f"subset not closed: {a}*{b} falls outside")
        object.__setattr__(self, "generating_set", gens)

    @property
    def order(self):
        return len(self.elements)

    @property
    def index(self):
        return self.parent.order // self.order

    def __contains__(self, x):
        return x in self.elements

    def left_cosets(self):
        """Left cosets g*H as sorted tuples, ordered by smallest member."""
        seen = set()
        cosets = []
        for g in self.parent.elements():
            coset = tuple(sorted(self.parent.mul(g, h) for h in self.elements))
            if coset not in seen:
                seen.add(coset)
                cosets.append(coset)
        return sorted(cosets, key=lambda c: c[0])

    def __repr__(self):
        return f"Subgroup({list(self.elements)} of {self.parent!r})"


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with addition; element i is the class of i."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(n, tuple(map(tuple, table)), name=f"C{n}")


def klein_four_group() -> FiniteGroup:
    """C2 x C2; element i is the pair of bits of i."""
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return FiniteGroup(4, tuple(map(tuple, table)), name="C2xC2")


def symmetric_group_3() -> FiniteGroup:
    """S3 acting on {0,1,2}; elements are permutations in lexicographic order.

    Multiplication is composition of mappings, (p*q)(x) = p(q(x)).
    """
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(6, tuple(map(tuple, table)), name="S3")


def trivial_group() -> FiniteGroup:
    return FiniteGroup(1, ((0,),), name="trivial")


GROUP_PRESETS = {
    "trivial": trivial_group,
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "C5": lambda: cyclic_group(5),
    "C6": lambda: cyclic_group(6),
    "C2xC2": klein_four_group,
    "S3": symmetric_group_3,
}


@cache
def group_preset(name: str) -> FiniteGroup:
    """The preset group of that name, built and checked once, then reused."""
    try:
        maker = GROUP_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(GROUP_PRESETS))
        raise MalformedGroupError(f"unknown group preset {name!r} (known: {known})") from None
    return maker()
