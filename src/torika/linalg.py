"""Exact integer linear algebra over Z.

All arithmetic is done with Python's arbitrary-precision integers, so
fixed-width overflow cannot occur.  numpy arrays with dtype=object are
the container at every boundary: the public IntMatrix wraps one such
array, read-only, and the routines here take and return it without
conversion.  One elimination, the Smith form (`_smith`, on lists of
Python int rows), does every job: invariant factors, exact solves
(`_solve`), unimodularity, and kernels.  With u @ a.T @ v = s in Smith
form, the rows of u past the rank are a basis of ker a, saturated as u
is unimodular (Cohen, GTM 138, section 2.4), so the kernel needs only
the row operations.  The elimination picks the smallest available
pivot, which keeps intermediate entries modest on the structured
matrices produced elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import index, neg

import numpy as np


def _eye(n):
    a = np.zeros((n, n), dtype=object)
    for i in range(n):
        a[i, i] = 1
    return a


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


class IntMatrix:
    """Immutable integer matrix with exact entries.

    The entries are Python ints in one read-only object array, the same
    container every routine of this module works on: `array` lends it
    out as it is and `to_array` returns a writable copy.  Matrices with
    zero rows or zero columns are legal and behave like any other matrix.
    """

    __slots__ = ("_a",)

    def __init__(self, rows, cols=None):
        data = [list(map(index, row)) for row in rows]
        cols = None if cols is None else index(cols)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows have unequal lengths")
            if cols is not None and cols != width:
                raise ValueError("explicit column count contradicts row data")
            a = np.array(data, dtype=object)
        else:
            a = np.empty((0, 0 if cols is None else cols), dtype=object)
        a.flags.writeable = False
        self._a = a

    @classmethod
    def _adopt(cls, a):
        """Wrap an object array of Python ints that nothing will write to."""
        a.flags.writeable = False
        m = object.__new__(cls)
        m._a = a
        return m

    @classmethod
    def identity(cls, n):
        return cls._adopt(_eye(n))

    @classmethod
    def zeros(cls, rows, cols):
        return cls._adopt(np.zeros((rows, cols), dtype=object))

    @classmethod
    def from_columns(cls, columns, rows=None):
        cols = [list(map(index, c)) for c in columns]
        if cols:
            if any(len(c) != len(cols[0]) for c in cols):
                raise ValueError("columns have unequal lengths")
            return cls(cols).transpose()
        if rows is None:
            raise ValueError("empty column list needs an explicit row count")
        return cls.zeros(rows, 0)

    @classmethod
    def from_array(cls, a):
        if not hasattr(a, "shape"):
            return cls(a)
        if len(a.shape) != 2:
            raise ValueError(f"from_array needs a 2-D array, got shape {a.shape}")
        return cls(a.tolist(), cols=a.shape[1])

    @property
    def array(self):
        """The entries as a read-only object array; no copy is made."""
        return self._a

    def to_array(self):
        return self._a.copy()

    @property
    def rows(self):
        return self._a.shape[0]

    @property
    def cols(self):
        return self._a.shape[1]

    @property
    def shape(self):
        return self._a.shape

    @property
    def entries(self):
        """All entries, row-major."""
        return tuple(self._a.ravel().tolist())

    def row(self, i):
        return tuple(self._a[i].tolist())

    def column(self, j):
        return tuple(self._a[:, j].tolist())

    def __getitem__(self, key):
        i, j = key
        return self._a[i, j]

    def to_rows(self):
        return self._a.tolist()

    def transpose(self):
        return IntMatrix._adopt(self._a.T)

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.shape} @ {other.shape}"
            )
        return IntMatrix._adopt(_matmul(self._a, other._a))

    def apply(self, vector):
        """Matrix times column vector, returned as a tuple."""
        vec = np.array([index(x) for x in vector], dtype=object)
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} against {self.shape}")
        return tuple(self._a.dot(vec).tolist())

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        return IntMatrix._adopt(self._a + other._a)

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return IntMatrix._adopt(-self._a)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self._a.shape == other._a.shape
            and self._a.tolist() == other._a.tolist()
        )

    def __hash__(self):
        return hash((self.shape, self.entries))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix.zeros({self.rows}, {self.cols})"
        return f"IntMatrix({self.to_rows()})"


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form S = U @ A @ V with |det U| = |det V| = 1.

    S is diagonal with nonnegative entries, each dividing the next, and
    zeros trailing.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self):
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s[i, i] for i in range(n))


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group in invariant-factor form.

    Z^free_rank x Z/d1 x ... x Z/dk with every di >= 2 and di | d(i+1).
    Equal groups always have equal field values.
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "free_rank", index(self.free_rank))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(map(index, self.torsion)))
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def trivial(cls):
        return cls(0, ())

    @classmethod
    def free(cls, rank):
        return cls(rank, ())

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        """Group order, or None for infinite groups."""
        if self.free_rank:
            return None
        return prod(self.torsion) if self.torsion else 1

    def direct_sum(self, other):
        """Canonical form of the direct sum, recombining invariant factors."""
        torsion = np.diag(np.array(self.torsion + other.torsion, dtype=object))
        return FinAbGroup(self.free_rank + other.free_rank,
                          _cokernel_array(torsion).torsion)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def _find_pivot(s, k):
    """(i, j) of the first entry, in row order, of least absolute value
    among rows and columns k onwards, or None when they are all zero."""
    best = where = None
    for i in range(k, len(s)):
        row = s[i]
        for j in range(k, len(row)):
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


def _smith(a, left=None, want_v=False):
    """Diagonalize a copy of `a` by unimodular row/column operations.

    Returns (s, ul, v, w) with u @ a @ v == s and w @ v == 1 for a
    unimodular u that is never formed: ul is u @ left, the row operations
    applied to a copy of `left` (m rows; the identity gives u itself),
    and None without it.  v and w are None unless want_v.  The diagonal
    is nonnegative, satisfies the divisibility chain and has its zeros
    trailing.  The eliminations run on lists of Python int rows, which
    the small matrices met here reduce faster than object-array slices.
    """
    m, n = a.shape
    s = a.tolist()
    u = None if left is None else np.asarray(left, dtype=object).tolist()
    v = _eye(n).tolist() if want_v else None
    w = _eye(n).tolist() if want_v else None
    limit = min(m, n)
    k = 0
    while k < limit:
        # re-select the smallest pivot every pass; this is what keeps
        # intermediate entries from exploding
        where = _find_pivot(s, k)
        if where is None:
            break
        while True:
            i, j = where
            if i != k:
                s[k], s[i] = s[i], s[k]
                if u is not None:
                    u[k], u[i] = u[i], u[k]
            if j != k:
                for row in s + (v or []):
                    row[k], row[j] = row[j], row[k]
                if v is not None:
                    w[k], w[j] = w[j], w[k]
            top = s[k]
            p = top[k]
            clear = True
            for r in range(k + 1, m):
                q = s[r][k] // p
                if q:
                    s[r][k:] = [x - q * y for x, y in zip(s[r][k:], top[k:])]
                    if u is not None:
                        u[r] = [x - q * y for x, y in zip(u[r], u[k])]
                if s[r][k]:
                    clear = False
            for c in range(k + 1, n):
                q = top[c] // p
                if q:
                    for row in s[k:] + (v or []):
                        row[c] -= q * row[k]
                    if v is not None:
                        w[k] = [x + q * y for x, y in zip(w[k], w[c])]
                if top[c]:
                    clear = False
            if clear:
                break
            where = _find_pivot(s, k)
        k += 1
    rank = k
    for i in range(rank):
        if s[i][i] < 0:
            s[i][i] = -s[i][i]
            if v is not None:
                for row in v:
                    row[i] = -row[i]
                w[i] = [-x for x in w[i]]
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            d0, d1 = s[i][i], s[i + 1][i + 1]
            if d1 % d0 == 0:
                continue
            changed = True
            j = i + 1
            g, x, y = _xgcd(d0, d1)
            lcm = d0 // g * d1
            if v is not None:
                t = y * d1 // g
                for row in v:
                    row[i] += row[j]
                    row[j] -= t * row[i]
                w[j] = [a - b for a, b in zip(w[j], w[i])]
                w[i] = [a + t * b for a, b in zip(w[i], w[j])]
            if u is not None:
                u[i], u[j] = ([x * a + y * b for a, b in zip(u[i], u[j])],
                              [d0 // g * b - d1 // g * a for a, b in zip(u[i], u[j])])
            s[i][i] = g
            s[j][j] = lcm
    return (_rows_array(s, n), None if u is None else _rows_array(u, np.shape(left)[1]),
            None if v is None else _rows_array(v, n), None if w is None else _rows_array(w, n))


def _rows_array(rows, cols):
    """An object array of `rows` (lists of Python ints), `cols` wide."""
    return np.array(rows, dtype=object).reshape(len(rows), cols)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form of m, with both transform matrices.

    Returns SmithDecomposition(u, s, v) satisfying u @ m @ v == s.
    """
    s, u, v, _ = _smith(m.array, left=_eye(m.rows), want_v=True)
    return SmithDecomposition(u=IntMatrix._adopt(u), s=IntMatrix._adopt(s),
                              v=IntMatrix._adopt(v))


def _nonredundant_rows(a):
    """Drop zero rows and rows equal (up to sign) to an earlier row.

    Only safe when the row lattice is what matters, as in kernel and
    Smith-form computations.
    """
    seen = set()
    keep = []
    for i, row in enumerate(a.tolist()):
        t = tuple(row)
        if t in seen or not any(t):
            continue
        seen.add(t)
        seen.add(tuple(map(neg, t)))
        keep.append(i)
    if len(keep) == a.shape[0]:
        return a
    return a[keep, :]


def _kernel_array(a):
    """Basis of {x : a @ x == 0} as the columns of an (n x k) array: the
    rows past the rank of u in u @ a.T @ v = s, v never formed."""
    s, u, _, _ = _smith(a.T, left=_eye(a.shape[1]))
    return u[np.count_nonzero(s.diagonal()):].T


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel of m, as matrix columns.

    The kernel of an integer matrix is automatically saturated, so the
    returned columns extend to a basis of Z^cols.
    """
    return IntMatrix._adopt(_kernel_array(m.array))


def _cokernel_array(a) -> FinAbGroup:
    s = _smith(a)[0]
    diag = [s[i, i] for i in range(min(a.shape))]
    nonzero = [d for d in diag if d]
    return FinAbGroup(
        free_rank=a.shape[0] - len(nonzero),
        torsion=tuple(d for d in nonzero if d > 1),
    )


def cokernel(m: IntMatrix) -> FinAbGroup:
    """Z^rows modulo the column span of m, in invariant-factor form."""
    return _cokernel_array(m.array)


def _solve(a, b):
    """(rank of a, one integer Y with a @ Y == b, or None when there is none).

    With s = u @ a @ v in Smith form, a @ Y == b reads s @ Z == u @ b for
    Y = v @ Z: each row of u @ b must be divisible by its diagonal entry
    of s, and zero past the rank (Cohen, GTM 138, section 2.4).  The row
    operations act on b directly, so the m x m matrix u is never formed.
    """
    s, c, v, _ = _smith(a, left=b, want_v=True)
    d = s.diagonal()
    rank = np.count_nonzero(d)
    d = d[:rank, None]
    if np.count_nonzero(c[rank:]) or np.count_nonzero(c[:rank] % d):
        return rank, None
    z = np.zeros((a.shape[1], b.shape[1]), dtype=object)
    z[:rank] = c[:rank] // d
    return rank, _matmul(v, z)


def solve_integer(m: IntMatrix, b):
    """One integer solution x of m @ x == b, or None when there is none."""
    vec = [index(x) for x in b]
    if len(vec) != m.rows:
        raise ValueError(f"right-hand side of length {len(vec)} against {m.shape}")
    _, y = _solve(m.array, np.array(vec, dtype=object).reshape(-1, 1))
    return None if y is None else tuple(y[:, 0].tolist())


def _matmul(a, b):
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=object)
    return a @ b


def _unimodular_inverse(a):
    """Exact inverse of a unimodular integer matrix, as an object array."""
    m, n = a.shape
    if m != n:
        raise ValueError("only square matrices can be unimodular")
    _, inv = _solve(a, _eye(n))
    if inv is None:
        raise ValueError("matrix is not unimodular")
    return inv


def _coords_in_basis(basis, targets):
    """Solve basis @ Y == targets over Z, columnwise.

    `basis` (m x k) must have independent columns and every column of
    `targets` (m x t) must lie in the integer column lattice of `basis`;
    both conditions are verified.  Returns Y as a (k x t) array.
    """
    if basis.shape[0] != targets.shape[0]:
        raise ValueError("basis and targets have different heights")
    rank, y = _solve(basis, targets)
    if rank < basis.shape[1]:
        raise ValueError("the basis columns are linearly dependent")
    if y is None:
        raise ValueError("a target lies outside the integer column lattice")
    return y


def _is_unimodular(m: IntMatrix) -> bool:
    """Square, with every Smith diagonal entry 1."""
    return m.rows == m.cols and all(d == 1 for d in _smith(m.array)[0].diagonal())


def _content(vector) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in vector:
        g = gcd(g, abs(int(x)))
    return g
