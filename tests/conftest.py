"""Shared test helpers: fixture loading and random generators.

The random constructions here are the independent source of test
inputs: unimodular matrices as products of shears, cyclic-group
lattices assembled from blocks of the right multiplicative order, and
equivariant maps obtained by averaging an arbitrary matrix over the
group.  D4, Q8, A4 and C2xC4 come as explicit tables that are no preset.
"""

import importlib.util
import random
from itertools import combinations, permutations, product
from pathlib import Path

from torika.cohomology import GLattice, GLatticeMap
from torika.datum import load_datum
from torika.fans import GFan
from torika.groups import FiniteGroup
from torika.linalg import IntMatrix

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
BENCH_GENERATORS = FIXTURE_DIR.parent / "bench" / "generators.py"

FIXTURE_NAMES = [
    "nfamily_n0", "nfamily_n1", "nfamily_n2", "nfamily_n3",
    "nfamily_n4", "nfamily_n5", "p1", "p2", "a2", "a2_minus_origin",
    "sign_rank1", "brauer_rank3", "standard_c2", "standard_s3",
]

PURE_DIVISORIAL_FIXTURES = [
    "nfamily_n0", "nfamily_n1", "nfamily_n2", "nfamily_n3",
    "nfamily_n4", "nfamily_n5", "p1", "a2_minus_origin",
    "sign_rank1", "brauer_rank3", "standard_c2", "standard_s3",
]

TRIVIAL_GROUP_FIXTURES = [
    "nfamily_n0", "nfamily_n1", "nfamily_n2", "nfamily_n3",
    "nfamily_n4", "nfamily_n5", "p1", "p2", "a2", "a2_minus_origin",
]


def _table_group(name, elements, mul):
    index = {x: i for i, x in enumerate(elements)}
    return FiniteGroup(len(elements), tuple(
        tuple(index[mul(x, y)] for y in elements) for x in elements), name=name)


def _compose(p, q):
    return tuple(p[x] for x in q)


def _quaternion(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


# tables that are no preset: each needs two generators, and D4, Q8 and A4
# have non-abelian relators
EXPLICIT_GROUPS = [
    _table_group("D4", [tuple((k + s * x) % 4 for x in range(4))
                        for s in (1, -1) for k in range(4)], _compose),
    _table_group("Q8", [tuple(s * (i == j) for j in range(4))
                        for i in range(4) for s in (1, -1)], _quaternion),
    _table_group("A4", [p for p in permutations(range(4))
                        if sum(p[i] > p[j] for i, j in combinations(range(4), 2)) % 2 == 0],
                 _compose),
    _table_group("C2xC4", [(a, b) for a in range(2) for b in range(4)],
                 lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4)),
]


def _signed_compose(w, v):
    """Signed permutations as images of e_1..e_n: w[i] = +-(j + 1) sends
    e_i to +-e_j, and (w v)(e_i) = w(v(e_i))."""
    return tuple(w[abs(x) - 1] * (1 if x > 0 else -1) for x in v)


def coxeter_b3_fan() -> GFan:
    """The W(B3) Coxeter fan: the chambers of x_i = 0, x_i = +-x_j.

    Its 26 rays are the nonzero vectors of {-1, 0, 1}^3, and its 48
    chambers are the images of x_1 >= x_2 >= x_3 >= 0, spanned by
    (1,0,0), (1,1,0), (1,1,1), under the signed permutations, which act
    by their matrices; the group is given by its explicit table.
    """
    elements = [tuple(s * (p + 1) for s, p in zip(signs, perm))
                for perm in permutations(range(3)) for signs in product((1, -1), repeat=3)]
    group = _table_group("W(B3)", elements, _signed_compose)

    def act(w, x):
        y = [0, 0, 0]
        for i, image in enumerate(w):
            y[abs(image) - 1] += x[i] if image > 0 else -x[i]
        return tuple(y)

    rays = [v for v in product((-1, 0, 1), repeat=3) if any(v)]
    chamber = [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    cones = [[rays.index(act(w, r)) for r in chamber] for w in elements]
    action = GLattice(group, 3, tuple(
        IntMatrix.from_columns([act(w, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
        for w in elements))
    return GFan.from_max_cones(3, rays, cones, action=action)


def permutohedral_a3_fan() -> GFan:
    """The A3 permutohedral fan in Z^4 / Z(1,1,1,1), with basis e_1, e_2, e_3.

    Its 14 rays are the classes of e_S for the nonempty proper subsets S
    of {1, 2, 3, 4}, and its 24 chambers are the flags
    {p(1)} < {p(1), p(2)} < {p(1), p(2), p(3)} for p in S4, which
    permutes the coordinates; the group is given by its explicit table.
    """
    elements = list(permutations(range(4)))
    group = _table_group("S4", elements, _compose)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]

    def e(subset):
        return tuple(sum(basis[i][k] for i in subset) for k in range(3))

    subsets = [s for size in (1, 2, 3) for s in combinations(range(4), size)]
    rays = [e(s) for s in subsets]
    cones = [[subsets.index(tuple(sorted(p[:size]))) for size in (1, 2, 3)]
             for p in elements]
    action = GLattice(group, 3, tuple(
        IntMatrix.from_columns([basis[p[i]] for i in range(3)]) for p in elements))
    return GFan.from_max_cones(3, rays, cones, action=action)


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.json")


def load_fixture(name: str):
    return load_datum(fixture_path(name))


def bench_data(workload: str, seed: int, directory):
    """(file name, datum) for each datum of a benchmark workload, loaded."""
    spec = importlib.util.spec_from_file_location("bench_generators", BENCH_GENERATORS)
    generators = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generators)
    return [(path.name, load_datum(str(path)))
            for path, _ in generators.write_data(workload, seed, directory)]


def rand_unimodular(rng: random.Random, n: int, steps: int = 6) -> IntMatrix:
    """A random determinant +-1 matrix, as a product of shears and swaps."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    if rng.random() < 0.5 and n:
        for k in range(n):
            m[0][k] = -m[0][k]
    return IntMatrix(m)


def _conjugate(matrix: IntMatrix, u: IntMatrix, u_inv: IntMatrix) -> IntMatrix:
    return u @ matrix @ u_inv


_ORDER_BLOCKS = {
    1: [[[1]]],
    2: [[[-1]]],
    3: [[[0, -1], [1, -1]]],
    4: [[[0, -1], [1, 0]]],
    5: [[[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]],
    6: [[[0, -1], [1, 1]]],
}


def cyclic_lattice(rng: random.Random, group: FiniteGroup, rank: int) -> GLattice:
    """A random rank-`rank` lattice for a cyclic group.

    The generator acts by a block-diagonal matrix whose blocks have
    multiplicative order dividing the group order, conjugated by a
    random unimodular matrix so entries are not artificially sparse.
    """
    n = group.order
    allowed = [k for k in _ORDER_BLOCKS if n % k == 0]
    blocks = []
    size = 0
    while size < rank:
        choices = [k for k in allowed
                   if len(_ORDER_BLOCKS[k][0]) <= rank - size]
        k = rng.choice(choices)
        blocks.append(rng.choice(_ORDER_BLOCKS[k]))
        size += len(blocks[-1])
    gen = [[0] * rank for _ in range(rank)]
    at = 0
    for block in blocks:
        b = len(block)
        for i in range(b):
            for j in range(b):
                gen[at + i][at + j] = block[i][j]
        at += b
    u = rand_unimodular(rng, rank)
    from torika.linalg import _coords_in_basis, _eye
    u_inv = IntMatrix(_coords_in_basis(u.to_rows(), _eye(u.rows)))
    gen_m = _conjugate(IntMatrix(gen), u, u_inv)
    action = [IntMatrix.identity(rank)]
    for _ in range(1, n):
        action.append(gen_m @ action[-1])
    return GLattice(group, rank, tuple(action))


def random_equivariant_map(rng: random.Random, source: GLattice,
                           target: GLattice) -> GLatticeMap:
    """An equivariant map obtained by averaging a random matrix."""
    group = source.group
    raw = [[rng.randint(-2, 2) for _ in range(source.rank)]
           for _ in range(target.rank)]
    total = IntMatrix.zeros(target.rank, source.rank)
    for g in group.elements():
        total = total + (target.act(g) @ IntMatrix(raw)
                         @ source.act(group.inv(g)))
    return GLatticeMap(source=source, target=target, matrix=total)


_P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
_P2_CONES = [(0, 1), (1, 2), (0, 2)]
_HEX_RAYS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
_HEX_CONES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
_P1A1_RAYS = [(1, 0), (-1, 0), (0, 1)]
_P1A1_CONES = [(0, 2), (1, 2)]


def random_smooth_fan(rng: random.Random) -> GFan:
    """A random smooth fan: a known smooth model in a random basis."""
    from torika.fans import primitive_vector

    kind = rng.randrange(4)
    if kind == 0:
        rank = rng.randint(1, 3)
        k = rng.randint(1, rank)
        rays = [tuple(1 if i == j else 0 for i in range(rank))
                for j in range(rank)][:k]
        cones = [tuple(range(k))]
    elif kind == 1:
        rank, rays, cones = 2, _P2_RAYS, _P2_CONES
    elif kind == 2:
        rank, rays, cones = 2, _HEX_RAYS, _HEX_CONES
    else:
        rank, rays, cones = 2, _P1A1_RAYS, _P1A1_CONES
    u = rand_unimodular(rng, rank)
    moved = [primitive_vector(u.apply(r)) for r in rays]
    return GFan.from_max_cones(rank, moved, cones).require_valid()


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
