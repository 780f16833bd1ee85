"""Eliminations kept as test oracles, independent of the Smith form.

The package reads kernels, ranks and unimodularity off one Smith form
(`torika.linalg._smith`).  The routines here share no elimination with
it, so a test that checks the package against them checks two routes:
a unimodular column reduction gives kernels and ranks, fraction-free
(Bareiss) elimination gives determinants, and gcds of minors give the
invariant factors.  They work on numpy object arrays, which the package
itself no longer uses: `as_array`, `eye_array` and `array_matmul` carry
row lists and matrices over.  `_xgcd` gives the Bezout coefficients with
which the old Smith kernel in `test_linalg` mends its divisibility chain.
"""

import math
from itertools import combinations

import numpy as np

from torika.linalg import IntMatrix


def as_array(rows, cols):
    """A row list of Python ints, `cols` wide, as an object array."""
    return np.array(rows, dtype=object).reshape(len(rows), cols)


def eye_array(n):
    return IntMatrix.identity(n).to_array()


def array_matmul(a, b):
    """a @ b for object arrays, with any dimension zero."""
    return (IntMatrix.from_array(a) @ IntMatrix.from_array(b)).to_array()


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def column_kernel(a):
    """Basis of {x : a @ x == 0} as the columns of an (n x k) array.

    A unimodular column reduction, column-major (ct[j] is column j), that
    tracks its transform vt: the columns that reduce to zero give the basis.
    """
    m, n = a.shape
    ct = a.T.copy()
    vt = eye_array(n)
    active = list(range(n))
    for i in range(m):
        while True:
            nz = [j for j in active if ct[j, i] != 0]
            if len(nz) <= 1:
                break
            p = min(nz, key=lambda j: (abs(ct[j, i]), j))
            done = True
            for j in nz:
                if j == p:
                    continue
                q = ct[j, i] // ct[p, i]
                if q:
                    ct[j, i:] -= q * ct[p, i:]
                    vt[j, :] -= q * vt[p, :]
                if ct[j, i]:
                    done = False
            if done:
                break
        if nz:
            active.remove(nz[0] if len(nz) == 1 else p)
    return vt[sorted(active)].T.copy()


def column_rank(a):
    return a.shape[1] - column_kernel(a).shape[1]


def bareiss_det(m: IntMatrix) -> int:
    """Determinant via fraction-free (Bareiss) elimination."""
    n = m.rows
    if n != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_invariant_factors(m: IntMatrix):
    """Invariant factors via gcds of k x k minors."""
    rows, cols = m.shape
    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = IntMatrix([[m[i, j] for j in ci] for i in ri])
                g = math.gcd(g, bareiss_det(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors
