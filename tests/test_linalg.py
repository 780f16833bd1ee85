"""Exact integer linear algebra: Smith forms, kernels, cokernels.

Frozen values below were derived from the gcd-of-minors description of
the invariant factors.  That description, a column reduction for
kernels and ranks, and Bareiss determinants are the independent oracles
of `linalg_oracles`, which share no elimination with the Smith form.
"""

import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torika.cohomology import _cayley_complex, permutation_module
from torika.groups import cyclic_group
from torika.linalg import (FinAbGroup, IntMatrix, cokernel, kernel_basis,
                           smith_normal_form, solve_integer)
from torika.linalg import (_coords_in_basis, _eye, _is_unimodular,
                           _kernel_array, _matmul, _nonredundant_rows,
                           _smith, _xgcd)

from conftest import rand_unimodular
from linalg_oracles import (bareiss_det, column_kernel, column_rank,
                            minor_invariant_factors)


def assert_valid_smith(m: IntMatrix):
    dec = smith_normal_form(m)
    assert dec.u @ m @ dec.v == dec.s
    assert bareiss_det(dec.u) in (1, -1) and bareiss_det(dec.v) in (1, -1)
    diag = list(dec.diagonal)
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    # zeros trail and the divisibility chain holds
    assert diag[:len(nonzero)] == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    for i in range(dec.s.rows):
        for j in range(dec.s.cols):
            if i != j:
                assert dec.s[i, j] == 0
    return dec


def _array_find_pivot(s, k):
    m, n = s.shape
    best = None
    where = None
    for i in range(k, m):
        row = s[i]
        for j in range(k, n):
            x = row[j]
            if x:
                if x < 0:
                    x = -x
                if best is None or x < best:
                    best = x
                    where = (i, j)
                    if x == 1:
                        return where
    return where


def _array_smith(a, left=None, want_v=False):
    """Oracle: the object-array Smith kernel that `_smith` replaced.

    Diagonalize a copy of `a` by unimodular row/column operations.

    Returns (s, ul, v, w) with u @ a @ v == s and w @ v == 1 for a
    unimodular u that is never formed: ul is u @ left, the row operations
    applied to a copy of `left` (m rows; the identity gives u itself),
    and None without it.  v and w are None unless want_v.  The diagonal
    is nonnegative, satisfies the divisibility chain and has its zeros
    trailing.
    """
    m, n = a.shape
    s = a.copy()
    u = None if left is None else np.array(left, dtype=object)
    v = _eye(n) if want_v else None
    w = _eye(n) if want_v else None
    limit = min(m, n)
    k = 0
    while k < limit:
        if _array_find_pivot(s, k) is None:
            break
        while True:
            # re-select the smallest pivot every pass; this is what keeps
            # intermediate entries from exploding
            i, j = _array_find_pivot(s, k)
            if i != k:
                s[[k, i], :] = s[[i, k], :]
                if u is not None:
                    u[[k, i], :] = u[[i, k], :]
            if j != k:
                s[:, [k, j]] = s[:, [j, k]]
                if v is not None:
                    v[:, [k, j]] = v[:, [j, k]]
                    w[[k, j], :] = w[[j, k], :]
            clear = True
            for r in np.flatnonzero(s[k + 1:, k]) + (k + 1):
                q = s[r, k] // s[k, k]
                if q:
                    s[r, k:] -= q * s[k, k:]
                    if u is not None:
                        u[r, :] -= q * u[k, :]
                if s[r, k]:
                    clear = False
            for c in np.flatnonzero(s[k, k + 1:]) + (k + 1):
                q = s[k, c] // s[k, k]
                if q:
                    s[:, c] -= q * s[:, k]
                    if v is not None:
                        v[:, c] -= q * v[:, k]
                        w[k, :] += q * w[c, :]
                if s[k, c]:
                    clear = False
            if clear:
                break
        k += 1
    rank = k
    for i in range(rank):
        if s[i, i] < 0:
            s[i, i] = -s[i, i]
            if v is not None:
                v[:, i] = -v[:, i]
                w[i, :] = -w[i, :]
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            d0, d1 = s[i, i], s[i + 1, i + 1]
            if d1 % d0 == 0:
                continue
            changed = True
            j = i + 1
            g, x, y = _xgcd(d0, d1)
            lcm = d0 // g * d1
            if v is not None:
                v[:, i] += v[:, j]
                v[:, j] -= (y * d1 // g) * v[:, i]
                w[j, :] -= w[i, :]
                w[i, :] += (y * d1 // g) * w[j, :]
            if u is not None:
                ui = u[i, :].copy()
                uj = u[j, :].copy()
                u[i, :] = x * ui + y * uj
                u[j, :] = (-(d1 // g)) * ui + (d0 // g) * uj
            s[i, i] = g
            s[j, j] = lcm
    return s, u, v, w


def _same_entries(x, y):
    """Equal shapes and equal entries of the same Python type, or both None."""
    if x is None or y is None:
        return x is y
    return (x.shape == y.shape and x.dtype == y.dtype == object
            and [type(e) for e in x.ravel()] == [type(e) for e in y.ravel()]
            and x.tolist() == y.tolist())


def _random_entries(rng, m, n, bound):
    a = np.array([[rng.randint(-bound, bound) if rng.random() < 0.6 else 0
                   for _ in range(n)] for _ in range(m)], dtype=object)
    return a.reshape(m, n)


def test_row_kernel_is_bit_identical_to_the_object_array_kernel():
    """d is the oracle's nonzero diagonal, its zeros trailing, and u @ left,
    v and w equal the oracle's on every shape up to 7 x 7, zero rows and
    columns included, with and without `left` and `v`."""
    rng = random.Random(15)
    calls = []
    for m in range(8):
        for n in range(8):
            for bound in (1, 9, 2 ** 70):
                a = _random_entries(rng, m, n, bound)
                if m > 1 and rng.random() < 0.5:
                    a[-1] = 3 * a[0]  # a rank drop
                other = _random_entries(rng, m, rng.randint(0, 3), 5)
                for left in (None, _eye(m), other):
                    for want_v in (False, True):
                        calls.append((a, left, want_v))
    lattice = permutation_module(cyclic_group(12), cyclic_group(12).trivial_subgroup())
    d1 = _cayley_complex(lattice)[2]
    assert d1.shape == (12, 12)
    for a in (d1, _nonredundant_rows(d1)):
        for left in (None, _eye(a.shape[0])):
            calls += [(a, left, False), (a, left, True)]
    for a, left, want_v in calls:
        d, *got = _smith(a, left=left, want_v=want_v)
        s, *want = _array_smith(a, left=left, want_v=want_v)
        diagonal = s.diagonal().tolist()
        assert d == diagonal[:len(d)] and not any(diagonal[len(d):]), (a, left, want_v)
        assert all(type(x) is int for x in d), (a, left, want_v)
        for x, y in zip(got, want):
            assert _same_entries(x, y), (a, left, want_v)
    assert any(abs(x) > 2 ** 63 for a, _, _ in calls for x in a.ravel())


def test_smith_tracks_inverse_column_transform():
    rng = random.Random(4)
    for case in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix([[rng.randint(-12, 12) for _ in range(cols)]
                       for _ in range(rows)])
        d, _, v, w = _smith(m.to_array(), want_v=True)
        assert IntMatrix.from_array(w) @ IntMatrix.from_array(v) == \
            IntMatrix.identity(cols), case
        assert tuple(d) + (0,) * (min(rows, cols) - len(d)) == \
            smith_normal_form(m).diagonal, case


def test_smith_frozen_values():
    assert list(smith_normal_form(IntMatrix([[1, 2], [3, 4]])).diagonal) == [1, 2]
    assert list(smith_normal_form(IntMatrix([[2, 4], [6, 8]])).diagonal) == [2, 4]
    # gcd(2, 3) = 1, so the chain is 1 | 6 even though the input is diagonal
    assert list(smith_normal_form(IntMatrix([[2, 0], [0, 3]])).diagonal) == [1, 6]
    assert list(smith_normal_form(IntMatrix([[0, 0], [0, 0]])).diagonal) == [0, 0]


def test_smith_empty_shapes():
    for shape in [(0, 3), (3, 0), (0, 0)]:
        m = IntMatrix.zeros(*shape)
        dec = smith_normal_form(m)
        assert dec.s.shape == shape
        assert dec.u.shape == (shape[0], shape[0])
        assert dec.v.shape == (shape[1], shape[1])


def test_kernel_frozen():
    k = kernel_basis(IntMatrix([[1, -1]]))
    assert k.shape == (2, 1)
    assert tuple(k.column(0)) in {(1, 1), (-1, -1)}


def test_kernel_is_saturated():
    # the quotient by the kernel sublattice must be torsion free
    m = IntMatrix([[2, 4, 6], [0, 2, 4]])
    k = kernel_basis(m)
    assert all(x == 0 for x in (m @ k).entries)
    assert cokernel(k).torsion == ()


def test_cokernel_frozen():
    assert cokernel(IntMatrix([[3]])) == FinAbGroup(0, (3,))
    assert cokernel(IntMatrix([[2, 0], [0, 4]])) == FinAbGroup(0, (2, 4))
    assert cokernel(IntMatrix([[1, 0], [0, 1]])).is_trivial
    assert cokernel(IntMatrix([[2, 0], [0, 3]])) == FinAbGroup(0, (6,))
    # extra zero rows contribute free rank
    assert cokernel(IntMatrix([[1, 0], [0, 2], [0, 0]])) == FinAbGroup(1, (2,))
    assert cokernel(IntMatrix.zeros(0, 2)).is_trivial


def test_solve_integer():
    m = IntMatrix([[2, 0], [0, 3]])
    assert solve_integer(m, (4, 9)) == (2, 3)
    assert solve_integer(m, (1, 1)) is None
    assert solve_integer(IntMatrix.zeros(2, 0), (0, 0)) == ()
    assert solve_integer(IntMatrix.zeros(2, 0), (1, 0)) is None
    with pytest.raises(ValueError, match=r"right-hand side of length 3 against \(2, 2\)"):
        solve_integer(m, (1, 2, 3))
    with pytest.raises(ValueError, match=r"vector of length 3 against \(2, 2\)"):
        m.apply((1, 2, 3))


def test_finabgroup_canonical():
    assert str(FinAbGroup.trivial()) == "0"
    assert str(FinAbGroup.free(1)) == "Z"
    assert str(FinAbGroup(2, (2, 6))) == "Z^2 x Z/2 x Z/6"
    assert FinAbGroup(0, (2,)).order() == 2
    assert FinAbGroup(1, ()).is_finite is False
    with pytest.raises(ValueError):
        FinAbGroup(0, (3, 2))
    with pytest.raises(ValueError):
        FinAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FinAbGroup(-1, ())


def test_finabgroup_direct_sum():
    assert FinAbGroup(0, (2,)).direct_sum(FinAbGroup(0, (3,))) == FinAbGroup(0, (6,))
    assert FinAbGroup(0, (2, 2)).direct_sum(FinAbGroup(0, (4,))) == FinAbGroup(0, (2, 2, 4))
    assert FinAbGroup(0, (4,)).direct_sum(FinAbGroup(0, (6,))) == FinAbGroup(0, (2, 12))
    assert FinAbGroup(1, ()).direct_sum(FinAbGroup(2, (5,))) == FinAbGroup(3, (5,))


def _regrouped_direct_sum(a, b):
    """The former direct_sum: regroup the prime-power parts of both torsions."""
    def factorize(n):
        out, d = {}, 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1 if d == 2 else 2
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out
    buckets = {}
    for d in a.torsion + b.torsion:
        for p, e in factorize(d).items():
            buckets.setdefault(p, []).append(e)
    depth = max((len(v) for v in buckets.values()), default=0)
    factors = []
    for i in range(depth):
        f = 1
        for p, exps in buckets.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                f *= p ** exps_sorted[i]
        factors.append(f)
    factors.reverse()
    return FinAbGroup(a.free_rank + b.free_rank, tuple(factors))


def _random_finabgroup(rng):
    factors, d = [], 1
    for _ in range(rng.randint(0, 4)):
        d *= rng.choice((1, 2, 2, 3, 4, 5, 6, 7, 9, 12))
        if d > 1:
            factors.append(d)
    return FinAbGroup(rng.randint(0, 2), tuple(factors))


def test_direct_sum_matches_prime_power_regrouping():
    rng = random.Random(20261101)
    merged = 0
    for _ in range(300):
        a, b = _random_finabgroup(rng), _random_finabgroup(rng)
        got = a.direct_sum(b)
        assert got == _regrouped_direct_sum(a, b), (a, b)
        assert got == b.direct_sum(a)
        merged += len(got.torsion) < len(a.torsion) + len(b.torsion)
    assert merged >= 50


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_smith_properties(rows):
    m = IntMatrix(rows)
    dec = assert_valid_smith(m)
    nonzero = [d for d in dec.diagonal if d]
    assert nonzero == minor_invariant_factors(m)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_kernel_property(rows):
    m = IntMatrix(rows)
    k = kernel_basis(m)
    assert all(x == 0 for x in (m @ k).entries)
    # columns are a basis: full column rank
    assert column_rank(k.array) == k.cols


def _kernel_cases(rng):
    """Seeded matrices: every empty shape up to 4, then random ones, a
    third of them products through a narrower middle, so rank-deficient."""
    cases = [np.zeros((m, n), dtype=object) for m in range(5) for n in range(5)
             if not m * n]
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.35:
            r = rng.randint(0, min(m, n) - 1)
            cases.append(_matmul(_random_entries(rng, m, r, 4),
                                 _random_entries(rng, r, n, 4)))
        else:
            cases.append(_random_entries(rng, m, n, rng.choice((1, 6, 2 ** 40))))
    return cases


def test_smith_kernel_is_a_saturated_basis_of_the_oracle_kernel():
    rng = random.Random(20261019)
    deficient = 0
    for a in _kernel_cases(rng):
        k, want = _kernel_array(a), column_kernel(a)
        assert k.shape == want.shape, a
        assert kernel_basis(IntMatrix.from_array(a)).array.tolist() == k.tolist()
        assert not _matmul(a, k).any(), a
        # all Smith diagonal entries of k^T are 1: independent and saturated
        diag = smith_normal_form(IntMatrix.from_array(k).transpose()).diagonal
        assert all(d == 1 for d in diag) and len(diag) == k.shape[1], a
        # each basis has integer coordinates in the other: one lattice
        _coords_in_basis(k, want)
        _coords_in_basis(want, k)
        deficient += 0 < k.shape[1] < a.shape[1] and a.shape[0] >= a.shape[1]
    assert deficient >= 50, deficient


def test_is_unimodular_matches_the_bareiss_determinant():
    rng = random.Random(20261020)
    dets = Counter()
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = rand_unimodular(rng, n).to_rows()
        kind = rng.choice(("unimodular", "singular", "double", "random"))
        if kind == "singular":
            rows[-1] = [rng.randint(-2, 2) * x for x in rows[0]]
        elif kind == "double":
            i = rng.randrange(n)
            rows[i] = [2 * x for x in rows[i]]
        elif kind == "random":
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        m = IntMatrix(rows)
        det = bareiss_det(m)
        assert _is_unimodular(m) == (det in (1, -1)), rows
        dets[det] += 1
    assert all(dets[d] >= 15 for d in (1, -1, 0)), dets
    assert dets[2] + dets[-2] >= 30, dets
    assert _is_unimodular(IntMatrix.zeros(0, 0))
    for shape in ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)):
        eye = IntMatrix([[int(i == j) for j in range(shape[1])]
                         for i in range(shape[0])], cols=shape[1])
        assert not _is_unimodular(eye), shape


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.integers(0, 2 ** 30))
def test_solve_roundtrip(rows, seed):
    import random

    m = IntMatrix(rows)
    rng = random.Random(seed)
    x0 = tuple(rng.randint(-5, 5) for _ in range(m.cols))
    b = m.apply(x0)
    x = solve_integer(m, b)
    assert x is not None
    assert m.apply(x) == b


def test_coords_in_basis():
    basis = IntMatrix([[2, 0], [0, 3]]).to_array()
    target = IntMatrix([[4], [3]]).to_array()
    coords = _coords_in_basis(basis, target)
    assert [int(coords[i, 0]) for i in range(2)] == [2, 1]
    outside = IntMatrix([[1], [0]]).to_array()
    with pytest.raises(ValueError):
        _coords_in_basis(basis, outside)
    with pytest.raises(ValueError, match="basis and targets have different heights"):
        _coords_in_basis(basis, _eye(3))


def test_rand_unimodular_is_unimodular():
    import random

    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            assert bareiss_det(rand_unimodular(rng, n)) in (1, -1)


def kernel_route_coords(basis, targets):
    """Oracle for _coords_in_basis: the kernel of [B | T].

    B independent makes that kernel t-dimensional exactly when every
    target is in the span of B; its rows (-Y; I) up to a unimodular
    change of basis then give Y, provided the bottom block is unimodular,
    which is when every target lies in the integer column lattice.
    Returns None when some target has no integer coordinates.
    """
    k, t = basis.shape[1], targets.shape[1]
    ker = column_kernel(np.concatenate([basis, targets], axis=1))
    if ker.shape[1] != t:
        return None
    try:
        inv = _coords_in_basis(ker[k:, :], _eye(t))
    except ValueError:
        return None
    return -_matmul(ker[:k, :], inv)


def random_independent_basis(rng, m, k):
    while True:
        basis = np.array([[rng.randint(-4, 4) for _ in range(k)]
                          for _ in range(m)], dtype=object).reshape(m, k)
        if column_rank(basis) == k:
            return basis


def test_solvers_match_kernel_route():
    rng = random.Random(20261018)
    inside = outside = 0
    for _ in range(300):
        m = rng.randint(1, 5)
        k = rng.randint(0, m)
        basis = random_independent_basis(rng, m, k)
        y0 = np.array([[rng.randint(-3, 3) for _ in range(2)]
                       for _ in range(k)], dtype=object).reshape(k, 2)
        targets = _matmul(basis, y0)
        if rng.random() < 0.5:  # usually outside the lattice, often the span
            targets[:, 1] = [rng.randint(-3, 3) for _ in range(m)]
        want = kernel_route_coords(basis, targets)
        if want is None:
            outside += 1
            with pytest.raises(ValueError):
                _coords_in_basis(basis, targets)
        else:
            inside += 1
            assert _coords_in_basis(basis, targets).tolist() == want.tolist()
        for j in range(targets.shape[1]):
            col = targets[:, j:j + 1]
            want = kernel_route_coords(basis, col)
            got = solve_integer(IntMatrix.from_array(basis), col[:, 0].tolist())
            assert got == (None if want is None else tuple(want[:, 0].tolist()))
    assert inside >= 50 and outside >= 50


def test_coords_in_basis_refuses_dependent_basis():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(1, 4)
        basis = random_independent_basis(rng, m, rng.randint(1, m))
        extra = _matmul(basis, np.array([[rng.randint(-2, 2)]
                                         for _ in range(basis.shape[1])],
                                        dtype=object))
        dependent = np.concatenate([basis, extra], axis=1)
        with pytest.raises(ValueError):
            _coords_in_basis(dependent, basis)
    with pytest.raises(ValueError):
        _coords_in_basis(np.zeros((2, 1), dtype=object),
                         np.zeros((2, 0), dtype=object))


def test_intmatrix_to_array_is_a_copy():
    m = IntMatrix([[1, 2], [3, 4]])
    a = m.to_array()
    a[0, 0] = 99
    assert a.flags.writeable
    assert m == IntMatrix([[1, 2], [3, 4]]) and m[0, 0] == 1


def test_intmatrix_array_refuses_writes():
    m = IntMatrix([[1, 2], [3, 4]])
    made = [m, m @ m, m + m, -m, m.transpose(), IntMatrix.identity(2),
            IntMatrix.zeros(2, 3), IntMatrix.from_array(m.to_array()),
            IntMatrix.from_columns([(1, 2)]), kernel_basis(IntMatrix([[1, -1]])),
            smith_normal_form(m).u]
    for x in made:
        with pytest.raises(ValueError):
            x.array[0, 0] = 7
    assert m == IntMatrix([[1, 2], [3, 4]])


def test_intmatrix_equal_means_equal_hash():
    pairs = [
        (IntMatrix([[1, 2], [3, 4]]), IntMatrix.from_array(
            np.array([[1, 2], [3, 4]], dtype=np.int64))),
        (IntMatrix([[1, 2], [3, 4]]).transpose(),
         IntMatrix.from_columns([(1, 2), (3, 4)])),
        (IntMatrix.zeros(0, 3), IntMatrix([], cols=3)),
        (IntMatrix.zeros(0, 3), IntMatrix.from_array(np.empty((0, 3)))),
        (IntMatrix.zeros(3, 0), IntMatrix([[], [], []])),
        (IntMatrix.zeros(3, 0), IntMatrix.from_columns([], rows=3)),
        (IntMatrix.zeros(0, 0), IntMatrix([])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), (a, b)
    assert IntMatrix.zeros(0, 3) != IntMatrix.zeros(3, 0)
    assert IntMatrix.zeros(0, 3) != IntMatrix.zeros(0, 2)
    assert IntMatrix([[1, 2]]) != IntMatrix([[1], [2]])
    assert len({IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0),
                IntMatrix([], cols=3)}) == 2


def test_intmatrix_from_int64_array_holds_python_ints():
    m = IntMatrix.from_array(np.array([[1, -2], [3, 2 ** 40]], dtype=np.int64))
    assert m.array.dtype == object
    assert all(type(x) is int for x in m.entries)
    assert type(m[1, 1]) is int
    big = m @ IntMatrix([[2 ** 40, 0], [0, 2 ** 40]])
    assert big[1, 1] == 2 ** 80  # no int64 wrap-around


def test_intmatrix_checks_and_zero_shapes():
    with pytest.raises(ValueError, match="unequal lengths"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="contradicts"):
        IntMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="columns have unequal lengths"):
        IntMatrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ValueError, match="explicit row count"):
        IntMatrix.from_columns([])
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]])
    with pytest.raises(ValueError, match="shape mismatch in addition"):
        IntMatrix([[1, 2]]) - IntMatrix([[1], [2]])
    assert IntMatrix.zeros(2, 0) @ IntMatrix.zeros(0, 3) == IntMatrix.zeros(2, 3)
    assert IntMatrix.zeros(0, 2) @ IntMatrix.zeros(2, 3) == IntMatrix.zeros(0, 3)
    assert IntMatrix.zeros(2, 0).apply(()) == (0, 0)
    assert IntMatrix([[1, 2], [3, 4]]).apply((1, -1)) == (-1, -1)
    assert IntMatrix.from_columns([(1, 2), (3, 4)]).row(0) == (1, 3)
    assert IntMatrix.from_columns([(1, 2), (3, 4)]).column(1) == (3, 4)
    assert repr(IntMatrix.zeros(0, 2)) == "IntMatrix.zeros(0, 2)"


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", Fraction(3), 2.7])
def test_intmatrix_refuses_inexact_entries(bad):
    with pytest.raises(TypeError):
        IntMatrix([[bad, 2]])
    with pytest.raises(TypeError):
        IntMatrix.from_columns([(bad, 2)])
    with pytest.raises(TypeError):
        IntMatrix([[1, 2]]).apply((bad, 0))
    with pytest.raises(TypeError):
        solve_integer(IntMatrix([[1]]), (bad,))
    with pytest.raises(TypeError):
        IntMatrix.from_array(np.array([[bad, 2]]))
    with pytest.raises(TypeError):
        IntMatrix([], cols=bad)
    with pytest.raises(TypeError):
        IntMatrix([[1, 2]], cols=bad)


@pytest.mark.parametrize("shape", [(), (2, 2, 2), (2, 0, 3), (3,)])
def test_from_array_takes_two_dimensional_arrays_only(shape):
    with pytest.raises(ValueError, match=rf"2-D array, got shape {re.escape(str(shape))}"):
        IntMatrix.from_array(np.zeros(shape, dtype=object))


def test_intmatrix_keeps_bool_and_numpy_integers_as_python_ints():
    m = IntMatrix([[True, np.int64(3)], [np.int8(-2), 2 ** 70]])
    assert m.to_rows() == [[1, 3], [-2, 2 ** 70]]
    assert all(type(x) is int for x in m.entries)
    assert IntMatrix.from_columns([(np.int32(1), False)]).column(0) == (1, 0)


@pytest.mark.parametrize("free_rank, torsion", [
    (0, (2.5, 4)), (1.5, ()), ("1", ()), (0, ("2",)), (Fraction(1), ()),
])
def test_finabgroup_refuses_inexact_fields(free_rank, torsion):
    with pytest.raises(TypeError):
        FinAbGroup(free_rank, torsion)


def test_finabgroup_keeps_bool_and_numpy_integers_as_python_ints():
    g = FinAbGroup(np.int64(1), (np.int64(2), 4))
    assert g == FinAbGroup(1, (2, 4)) and hash(g) == hash(FinAbGroup(1, (2, 4)))
    assert type(g.free_rank) is int and all(type(d) is int for d in g.torsion)
    assert FinAbGroup(True) == FinAbGroup(1)
