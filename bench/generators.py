"""Seeded datum generators for the galois-descent and product-fans workloads.

The generators are self-contained: groups, lattices and fans are built
here in plain integer arithmetic, without importing the package under
test, so a change to the program can never change its inputs.  The same
seed gives byte-identical datum files.

Each generated datum is a dict with the datum document under "doc" and
what the generator knows about it by construction under the other keys:
the workload slot it fills ("label"), its ray-orbit sizes, and the closed
forms that hold for it ("class_group", "brauer_kernel" as
[free_rank, torsion] pairs; None when only the oracle can tell).
"""

from __future__ import annotations

import json
import random
from itertools import permutations

# --- finite groups -----------------------------------------------------------
#
# Element numbering follows the documented datum conventions: in C_n the
# element i is the class of i, in C2xC2 the element i is the bit pair of
# i, and S3 lists the permutations of {0, 1, 2} in lexicographic order,
# multiplied as (p*q)(x) = p(q(x)).  C2 ... C6, C2xC2 and S3 are written
# by preset name; C7 ... C12 carry their multiplication table.

PRESET_NAMES = {"C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "trivial"}


class Group:
    def __init__(self, name, table):
        self.name = name
        self.table = table
        self.order = len(table)

    def mul(self, a, b):
        return self.table[a][b]

    def spec(self):
        if self.name in PRESET_NAMES:
            return self.name
        return {"order": self.order, "table": [list(r) for r in self.table]}

    def generated(self, gens):
        """The subgroup generated by gens, as a sorted tuple."""
        out = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.mul(x, g)
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return tuple(sorted(out))

    def subgroups(self):
        """All subgroups generated by at most two elements (all, here)."""
        found = {self.generated(())}
        for a in range(self.order):
            for b in range(a, self.order):
                found.add(self.generated((a, b)))
        return sorted(found, key=lambda h: (len(h), h))

    def left_cosets(self, sub):
        seen = set()
        cosets = []
        for g in range(self.order):
            if g in seen:
                continue
            coset = tuple(sorted(self.mul(g, h) for h in sub))
            seen.update(coset)
            cosets.append(coset)
        return cosets


def cyclic(n):
    return Group(f"C{n}" if n > 1 else "trivial",
                 [[(i + j) % n for j in range(n)] for i in range(n)])


def klein():
    return Group("C2xC2", [[i ^ j for j in range(4)] for i in range(4)])


def s3():
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return Group("S3", [[index[tuple(p[q[x]] for x in range(3))] for q in perms]
                        for p in perms])


def group_named(name):
    if name == "C2xC2":
        return klein()
    if name == "S3":
        return s3()
    if name == "trivial":
        return cyclic(1)
    return cyclic(int(name[1:]))


# --- integer matrices ---------------------------------------------------------

def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def apply(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m)))


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def random_unimodular(rng, n, steps):
    """A random determinant +-1 matrix and its inverse, from unit shears."""
    u, u_inv = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            break
        c = rng.choice((-1, 1))
        # u <- E u with E = I + c e_ij ; u_inv <- u_inv E^-1
        for k in range(n):
            u[i][k] += c * u[j][k]
        for k in range(n):
            u_inv[k][j] -= c * u_inv[k][i]
    if n and rng.random() < 0.5:
        u[0] = [-x for x in u[0]]
        for row in u_inv:
            row[0] = -row[0]
    return u, u_inv


def _gcd_all(v):
    g = 0
    for x in v:
        a, b = abs(x), g
        while b:
            a, b = b, a % b
        g = a
    return g


def primitive(v):
    g = _gcd_all(v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


# --- G-lattices ---------------------------------------------------------------

_ROTATIONS = {3: [[0, -1], [1, -1]], 4: [[0, -1], [1, 0]], 6: [[0, -1], [1, 1]]}


def permutation_block(group, sub):
    """Matrices of Z[G/H], one per element, on the left cosets of sub."""
    cosets = group.left_cosets(sub)
    where = {x: c for c, coset in enumerate(cosets) for x in coset}
    mats = []
    for g in range(group.order):
        m = [[0] * len(cosets) for _ in cosets]
        for c, coset in enumerate(cosets):
            m[where[group.mul(g, coset[0])]][c] = 1
        mats.append(m)
    return mats


def _power(m, k):
    out = identity(len(m))
    for _ in range(k):
        out = matmul(m, out)
    return out


def _cyclic_blocks(group):
    """Sign and rotation blocks of a cyclic group: g -> B^g."""
    n = group.order
    blocks = []
    if n % 2 == 0:
        blocks.append([[-1]])
    blocks += [_ROTATIONS[k] for k in sorted(_ROTATIONS) if n % k == 0]
    return [[_power(b, g) for g in range(n)] for b in blocks]


def _sign_blocks(group):
    if group.name == "C2xC2":
        return [[[[-1 if (g >> bit) & 1 else 1]] for g in range(4)]
                for bit in (0, 1)] + [[[[(-1) ** bin(g).count("1")]]
                                       for g in range(4)]]
    if group.name == "S3":
        parity = [0, 1, 1, 0, 0, 1]  # lexicographic permutations of 3 points
        return [[[[(-1) ** parity[g]]] for g in range(6)]]
    return _cyclic_blocks(group)


def random_pieces(rng, group, rank):
    """Random summands of a lattice of the given rank.

    Permutation modules Z[G/H] and sign and rotation blocks, each given
    by its action matrices, one per element.
    """
    subs = group.subgroups()
    small = _sign_blocks(group) if group.order > 1 else []
    pieces = []
    size = 0
    while size < rank:
        room = rank - size
        options = [h for h in subs if group.order // len(h) <= room]
        options += [b for b in small if len(b[0]) <= room]
        pick = rng.choice(options)
        pieces.append(permutation_block(group, pick)
                      if isinstance(pick, tuple) else pick)
        size += len(pieces[-1][0])
    return pieces


def conjugated(rng, group, pieces):
    """The direct sum of the pieces in a random basis: (mats, u)."""
    rank = sum(len(p[0]) for p in pieces)
    u, u_inv = random_unimodular(rng, rank, steps=rank + 2)
    mats = [matmul(matmul(u, block_diag([p[g] for p in pieces])), u_inv)
            for g in range(group.order)]
    return mats, u


def orbit(mats, v):
    seen = []
    for m in mats:
        w = apply(m, v)
        if w not in seen:
            seen.append(w)
    return seen


def _fixed_vector(rng, mats, sub, spread):
    """A primitive vector fixed by sub: the sub-norm of a random vector."""
    w = [rng.randint(-spread, spread) for _ in range(len(mats[0]))]
    v = [0] * len(w)
    for h in sub:
        v = [a + b for a, b in zip(v, apply(mats[h], w))]
    return primitive(v) if any(v) else None


def orbit_rays(rng, mats, orbit_plan):
    """Rays made of one orbit per (stabilizer, orbit size) pair.

    Returns None when random vectors do not realise the plan.
    """
    rays = []
    for sub, size in orbit_plan:
        for attempt in range(400):
            v = _fixed_vector(rng, mats, sub, 1 + attempt // 100)
            if v is not None and v not in rays:
                orb = orbit(mats, v)
                if len(orb) == size:
                    rays += orb
                    break
        else:
            return None
    return rays


def _doc(name, group, rank, mats, rays, max_cones):
    trivial_action = all(m == identity(rank) for m in mats)
    return {"name": name, "group": group.spec(), "lattice_rank": rank,
            "action": None if trivial_action else mats,
            "rays": [list(r) for r in rays], "max_cones": max_cones}


# --- galois-descent -------------------------------------------------------------
#
# Three kinds of slot.  "narrow": a random lattice of the given rank, rays
# the orbits of 1-3 random primitive vectors, at most 8 rays in all.
# "wide": the same with more than 8 rays, which the rank limit on the ray
# permutation lattice refuses today.  "standard": the standard fan of the
# given stabilizer orders (the coset basis of a sum of Z[G/H]), whose class
# group and Brauer kernel are 0.  Lattice summands, orbit stabilizers and
# so ray counts are drawn freely, but once, from a fixed plan seed; the
# run seed draws the basis and the ray vectors.  Every seed then has the
# same mix of group orders, ranks, ray counts and refusals, and the
# run-to-run spread stays small.  No timed datum takes much over 0.3 s, so
# that a timed run makes four or more passes and each datum's median
# attempt is taken over the whole run (see run.py).  The heaviest H^2
# work of the timed data sits in regular C6 and the rank-6 C6 and S3
# lattices; for groups of order 7 and more, narrow fans have rank 1 or 2
# and at most 4 rays, so that the oracle's own H^2 of the ray permutation
# lattice stays cheap.  The traced run adds the LADDER standard fans: the
# C_n lattices of the H^2 size ladder, too slow to repeat in every pass.

NARROW = (
    [("trivial", r) for r in (1, 2, 3, 4, 6, 8)]
    + [("C2", r) for r in (1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8)]
    + [("C3", r) for r in (1, 2, 2, 3, 3, 4, 5, 6)]
    + [("C4", r) for r in (1, 2, 2, 3, 3, 4, 5, 6)]
    + [("C5", r) for r in (1, 2, 3, 4, 5)]
    + [("C6", r) for r in (1, 2, 2, 3, 4, 6)]
    + [("C2xC2", r) for r in (1, 2, 3, 4, 4, 6)]
    + [("S3", r) for r in (1, 2, 3, 3, 4, 6)]
    + [("C7", 1), ("C7", 2), ("C8", 1), ("C8", 2), ("C9", 1), ("C9", 2),
       ("C10", 1), ("C11", 1), ("C12", 1), ("C12", 1)]
)
WIDE = (("C3", 4), ("C3", 5), ("C3", 6), ("C4", 3), ("C4", 4), ("C4", 5),
        ("C5", 5), ("C6", 2), ("C6", 3), ("C6", 4), ("C2xC2", 3),
        ("C2xC2", 4), ("S3", 3), ("S3", 4), ("S3", 6), ("C6", 6))
STANDARD = (("trivial", (1, 1, 1)), ("C2", (1,)), ("C2", (1, 2)),
            ("C3", (1,)), ("C3", (1, 3)), ("C4", (1,)), ("C4", (1, 2)),
            ("C5", (1,)), ("C6", (2, 3)), ("C2xC2", (1,)),
            ("C2xC2", (2, 2, 4)), ("S3", (2,)), ("S3", (1,)), ("S3", (2, 3)),
            ("C6", (1,)), ("C10", (5,)), ("C2", (2,)), ("C3", (3,)))

GALOIS_SLOTS = ([(g, r, "narrow") for g, r in NARROW]
                + [(g, r, "standard") for g, r in STANDARD]
                + [(g, r, "wide") for g, r in WIDE])

# Traced run only, with their labels: regular C7, C8 and C10, the
# standard fans C8/C2, C9/C3 and C12/C4, and the trivial rank-8 lattices
# of C8, C10 and C12.  Regular C10 (rank 10) is refused by the rank
# limit; regular C12 would be too, and is left out.
LADDER = (("C7", (1,), "regular C7"), ("C8", (1,), "regular C8"),
          ("C10", (1,), "regular C10"), ("C8", (2,), "C8/2 standard"),
          ("C9", (3,), "C9/3 standard"), ("C12", (4,), "C12/4 standard"),
          *((f"C{n}", (n,) * 8, f"trivial C{n} rank 8") for n in (8, 10, 12)))

MAX_ANSWERED_RAYS = 8
BIG_GROUP_ORDER, BIG_GROUP_MAX_RAYS = 7, 4


def _plan_slot(rng, group, shape, kind):
    """The seed-independent part of a slot: lattice summands and orbits."""
    subs = group.subgroups()
    if kind == "standard":
        pieces = [permutation_block(group, rng.choice(
            [h for h in subs if len(h) == k])) for k in shape]
        return pieces, None
    most = (BIG_GROUP_MAX_RAYS if group.order >= BIG_GROUP_ORDER
            else MAX_ANSWERED_RAYS)
    for _ in range(40):
        pieces = random_pieces(rng, group, shape)
        flat = [block_diag([p[g] for p in pieces]) for g in range(group.order)]
        for _ in range(40):
            plan = []
            for _ in range(rng.randint(1, 3)):
                v = _fixed_vector(rng, flat, rng.choice(subs), 1)
                if v is not None:
                    stab = tuple(g for g in range(group.order)
                                 if apply(flat[g], v) == v)
                    plan.append((stab, len(orbit(flat, v))))
            rays = orbit_rays(rng, flat, plan) if plan else None
            if rays and (len(rays) > most if kind == "wide"
                         else len(rays) <= most):
                return pieces, plan
    raise RuntimeError(f"no {kind} ray set for {group.name} rank {shape}")


def galois_plan(traced=False):
    """Slot plans, drawn once: every seed shares the mix of costs.

    The slots are shuffled (once) so that each cost class is spread over
    the whole pass and its latencies sample the machine at many moments.
    With traced, the LADDER slots follow.
    """
    rng = random.Random("galois-descent/plan")
    plans = [(gname, shape, kind, None)
             + _plan_slot(rng, group_named(gname), shape, kind)
             for gname, shape, kind in GALOIS_SLOTS]
    rng.shuffle(plans)
    if traced:
        plans += [(gname, shape, "standard", label)
                  + _plan_slot(rng, group_named(gname), shape, "standard")
                  for gname, shape, label in LADDER]
    return plans


def galois_descent(seed, traced=False):
    """The timed G-fans; with traced, also the LADDER fans at the end."""
    rng = random.Random(f"galois-descent/{seed}")
    out = []
    for idx, (gname, shape, kind, ladder, pieces, plan) in enumerate(
            galois_plan(traced)):
        group = group_named(gname)
        mats, u = conjugated(rng, group, pieces)
        rank = len(u)
        if kind == "standard":
            tag = "x".join(map(str, shape))
            name = f"gd{idx:03d}-{gname}-std{tag}"
            label = ladder or f"{gname}/{tag} standard"
            rays = [tuple(u[i][j] for i in range(rank)) for j in range(rank)]
            sizes = [len(p[0]) for p in pieces]
        else:
            name = f"gd{idx:03d}-{gname}-r{shape}-{kind}"
            label = f"{gname} rank {shape} {kind}"
            rays = orbit_rays(rng, mats, plan)
            if rays is None:
                raise RuntimeError(f"seed {seed}: cannot realise {name}")
            sizes = [size for _, size in plan]
        out.append({
            "doc": _doc(name, group, rank, mats, rays,
                        [[i] for i in range(len(rays))]),
            "label": label, "orbit_sizes": sorted(sizes),
            "class_group": [0, []] if kind == "standard" else None,
            "brauer_kernel": [0, []] if kind == "standard" else None,
            "traced_only": ladder is not None,
        })
    return out


# --- product-fans ---------------------------------------------------------------
#
# (P^1)^d: rays +-e_i, maximal cones one per sign pattern.  Actions:
# trivial, antipodal C2, C2/C3/C4/S3 permuting the first factors, and
# C2xC2 (swap two factors, antipodal).  The action of each slot is drawn
# once from a fixed plan seed; the run seed draws the random basis.
# The slot list is fixed: a single (P^1)^4, about a second, so that a
# timed run makes about nine passes and the 90th percentile falls inside
# the (P^1)^3 population, and enough (P^1)^2 that the median falls well
# inside theirs.  The traced run adds one (P^1)^5, the slowest validation
# and a rank refusal.

def _factor_perm(d, perm):
    """Matrix permuting the first len(perm) coordinate axes."""
    m = [[0] * d for _ in range(d)]
    for i in range(d):
        m[perm[i] if i < len(perm) else i][i] = 1
    return m


def _product_action(name, d):
    group = group_named({"antipodal": "C2", "swap": "C2"}.get(name, name))
    neg = [[-x for x in row] for row in identity(d)]
    if name == "trivial":
        mats = [identity(d)]
    elif name == "antipodal":
        mats = [identity(d), neg]
    elif name == "swap":
        mats = [identity(d), _factor_perm(d, (1, 0))]
    elif name in ("C3", "C4"):
        k = int(name[1])
        gen = _factor_perm(d, tuple((i + 1) % k for i in range(k)))
        mats = [_power(gen, g) for g in range(k)]
    elif name == "S3":
        mats = [_factor_perm(d, p) for p in permutations(range(3))]
    elif name == "C2xC2":
        swap = _factor_perm(d, (1, 0))
        mats = [identity(d), swap, neg, matmul(neg, swap)]
    else:
        raise ValueError(name)
    return group, mats


PRODUCT_ACTIONS = {2: ("trivial", "antipodal", "swap", "C2xC2"),
                   3: ("trivial", "antipodal", "swap", "C3", "S3", "C2xC2"),
                   4: ("trivial", "antipodal", "swap", "C3", "C4", "S3",
                       "C2xC2"),
                   5: ("trivial", "antipodal", "swap", "C3", "C4", "S3",
                       "C2xC2")}

PRODUCT_DIMS = [4] + [3] * 27 + [2] * 72
TRACED_ONLY_DIMS = [5]


def product_fans(seed, traced=False):
    """The timed (P^1)^d data; with traced, also the (P^1)^5 at the end.

    (P^1)^5 takes 25-40 s to validate here, one datum that would be most
    of a timed run, so it runs in the traced run only (see README.md).
    """
    plan = random.Random("product-fans/plan")
    slots = [(d, plan.choice(PRODUCT_ACTIONS[d])) for d in PRODUCT_DIMS]
    plan.shuffle(slots)  # spread each size over the pass, as for galois
    extra = [(d, plan.choice(PRODUCT_ACTIONS[d])) for d in TRACED_ONLY_DIMS]
    rng = random.Random(f"product-fans/{seed}")
    out = []
    for idx, (d, action) in enumerate(slots + extra):
        group, mats = _product_action(action, d)
        u, u_inv = random_unimodular(rng, d, steps=d + 1)
        moved = [matmul(matmul(u, m), u_inv) for m in mats]
        rays = []
        for i in range(d):
            col = tuple(u[r][i] for r in range(d))
            rays += [col, tuple(-x for x in col)]
        cones = []
        for signs in range(2 ** d):
            cones.append([2 * i + ((signs >> i) & 1) for i in range(d)])
        name = f"pf{idx:03d}-p1x{d}-{action}"
        doc = _doc(name, group, d, moved, rays, cones)
        out.append({
            "doc": doc, "label": f"(P^1)^{d} {action}",
            "orbit_sizes": None,
            "class_group": [d, []],
            "brauer_kernel": None,
            "traced_only": idx >= len(slots),
        })
    return out if traced else out[:len(slots)]


def generate(workload, seed, traced=False):
    if workload == "product-fans":
        return product_fans(seed, traced)
    if workload == "galois-descent":
        return galois_descent(seed, traced)
    raise ValueError(f"no generator for {workload}")


def dump(doc):
    """The exact bytes written for a datum document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_data(workload, seed, directory, traced=False):
    """Write one file per datum; return (path, spec) pairs in slot order."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for spec in generate(workload, seed, traced):
        path = directory / f"{spec['doc']['name']}.json"
        path.write_text(dump(spec["doc"]), encoding="utf-8")
        out.append((path, spec))
    return out
