"""Exact integer linear algebra over Z.

All arithmetic is done with Python's arbitrary-precision integers, so
fixed-width overflow cannot occur, and only the standard library is
used: IntMatrix wraps one tuple of row tuples, and the routines here
take and return lists of Python int rows, told the width of any that
may have no rows.  numpy is needed only by `IntMatrix.to_array`.  One
elimination, the Smith form (`_smith`), does every job: invariant
factors, exact solves (`_solve`), unimodularity, and kernels.  It
returns the invariant factors, not the reduced matrix S, which only
`smith_normal_form` builds.  With u @ a.T @ v = S in Smith form, the
rows of u past the rank are a basis of ker a, saturated as u is
unimodular (Cohen, GTM 138, section 2.4), so the kernel needs only the
row operations.  The elimination is one loop that picks the smallest
available pivot, which keeps entries modest on the package's structured
matrices, negates a negative pivot's row, and mends a break in the
divisibility chain by a row addition and eliminating again.
"""

from __future__ import annotations

from math import prod
from operator import add, index, mul, neg

from .value import Value


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _diag(entries):
    """The square diagonal matrix of `entries`, as a row list."""
    return [[x if i == j else 0 for j in range(len(entries))]
            for i, x in enumerate(entries)]


def _transpose(a, cols):
    """The transpose of the row list `a`, which is `cols` wide."""
    return list(zip(*a)) if a else [()] * cols


def _matmul(a, b):
    """a @ b on row lists; b has a row unless a's rows are empty."""
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


class IntMatrix:
    """Immutable integer matrix with exact entries.

    The entries are Python ints in one tuple of row tuples, with the
    column count beside it, so matrices with zero rows or zero columns
    behave like any other.  `to_array` returns a numpy object array.
    """

    __slots__ = ("_r", "_n")

    def __init__(self, rows, cols=None):
        self._r = tuple(tuple(map(index, row)) for row in rows)
        self._n = index(0 if cols is None else cols)
        if self._r:
            width = len(self._r[0])
            if any(len(row) != width for row in self._r):
                raise ValueError("rows have unequal lengths")
            if cols is not None and self._n != width:
                raise ValueError("explicit column count contradicts row data")
            self._n = width

    @classmethod
    def _adopt(cls, rows, cols):
        """Wrap rows of Python ints, `cols` wide, without checking them."""
        m = object.__new__(cls)
        m._r = tuple(map(tuple, rows))
        m._n = cols
        return m

    @classmethod
    def identity(cls, n):
        return cls._adopt(_eye(n), n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls._adopt([[0] * cols for _ in range(rows)], cols)

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

    def to_array(self):
        import numpy as np
        return np.array(self._r, dtype=object).reshape(self.shape)

    @property
    def rows(self):
        return len(self._r)

    @property
    def cols(self):
        return self._n

    @property
    def shape(self):
        return len(self._r), self._n

    @property
    def entries(self):
        """All entries, row-major."""
        return tuple(x for row in self._r for x in row)

    def row(self, i):
        return self._r[i]

    def column(self, j):
        return tuple(row[j] for row in self._r)

    def __getitem__(self, key):
        i, j = key
        return self._r[i][j]

    def to_rows(self):
        return [list(row) for row in self._r]

    def transpose(self):
        return IntMatrix._adopt(_transpose(self._r, self._n), self.rows)

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        if not other.rows:
            return IntMatrix.zeros(self.rows, other.cols)
        return IntMatrix._adopt(_matmul(self._r, other._r), other.cols)

    def apply(self, vector):
        """Matrix times column vector, returned as a tuple."""
        vec = [index(x) for x in vector]
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} against {self.shape}")
        return tuple(sum(map(mul, row, vec)) for row in self._r)

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        return IntMatrix._adopt([map(add, a, b) for a, b in zip(self._r, other._r)],
                                self._n)

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return IntMatrix._adopt([map(neg, row) for row in self._r], self._n)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and (self._r, self._n) == (other._r, other._n)

    def __hash__(self):
        return hash((self._r, self._n))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix.zeros({self.rows}, {self.cols})"
        return f"IntMatrix({self.to_rows()})"


class SmithDecomposition(Value):
    """Smith normal form S = U @ A @ V with |det U| = |det V| = 1.

    Fields u, s, v: the IntMatrix U, S and V.  S is diagonal with
    nonnegative entries, each dividing the next, and zeros trailing.
    """

    __slots__ = _fields = ("u", "s", "v")

    @property
    def diagonal(self):
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s[i, i] for i in range(n))


class FinAbGroup(Value):
    """A finitely generated abelian group in invariant-factor form.

    Z^free_rank x Z/d1 x ... x Z/dk with every di >= 2 and di | d(i+1).
    Equal groups always have equal field values.
    """

    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple = ()):
        free_rank = index(free_rank)
        if free_rank < 0:
            raise ValueError("negative free rank")
        torsion = tuple(map(index, torsion))
        for d in torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        Value.__init__(self, free_rank, torsion)

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
        return FinAbGroup(self.free_rank + other.free_rank,
                          _cokernel_array(_diag(self.torsion + other.torsion)).torsion)

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


def _smith(a, left=None, cols=None):
    """Diagonalize a copy of the row list `a` by unimodular row/column operations.

    Returns (d, ul, v, w) with u @ a @ v == S and w @ v == 1 for a
    unimodular u that is never formed: d lists the nonzero diagonal
    entries of S, the invariant factors, positive and each dividing the
    next, so len(d) is the rank.  ul is u @ left, the row operations
    applied to a copy of `left` (m rows; the identity gives u itself),
    and None without it.  v and w are None unless `cols`, the width of
    `a` (which may have no rows), is given.  All are Python int row lists.

    One loop does it all.  A negative pivot, once its row and column are
    clear, has its row negated.  At the diagonal, the first d_i that does
    not divide d_(i+1) gets row i+1 added to row i, and the loop eliminates
    again from i: the new d_i is smaller, as d_(i+1) mod d_i is not zero,
    and the entries before i stay put, so the loop ends.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    s = [list(row) for row in a]
    u = None if left is None else [list(row) for row in left]
    v = None if cols is None else _eye(cols)
    w = None if cols is None else _eye(cols)
    k = 0
    while True:
        # re-select the smallest pivot every pass; this is what keeps
        # intermediate entries from exploding
        where = _find_pivot(s, k)
        if where is None:
            i = next((i for i in range(k - 1) if s[i + 1][i + 1] % s[i][i]), None)
            if i is None:
                return [s[i][i] for i in range(k)], u, v, w
            s[i][i + 1] = s[i + 1][i + 1]
            if u is not None:
                u[i] = [x + y for x, y in zip(u[i], u[i + 1])]
            k = i
            continue
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
        if top[k] < 0:
            top[k] = -top[k]
            if u is not None:
                u[k] = [-x for x in u[k]]
        k += 1


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form of m, with both transform matrices.

    Returns SmithDecomposition(u, s, v) satisfying u @ m @ v == s.
    """
    d, u, v, _ = _smith(m._r, left=_eye(m.rows), cols=m.cols)
    s = [[0] * m.cols for _ in range(m.rows)]
    for i, x in enumerate(d):
        s[i][i] = x
    return SmithDecomposition(u=IntMatrix._adopt(u, m.rows), s=IntMatrix._adopt(s, m.cols),
                              v=IntMatrix._adopt(v, m.cols))


def _kernel_array(a, cols):
    """Basis of {x : a @ x == 0}, `a` `cols` wide, as the columns of a row
    list: the rows past the rank of u in u @ a.T @ v = S, v never formed."""
    d, u, _, _ = _smith(_transpose(a, cols), left=_eye(cols))
    return _transpose(u[len(d):], cols)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel of m, as matrix columns.

    The kernel of an integer matrix is automatically saturated, so the
    returned columns extend to a basis of Z^cols.
    """
    k = _kernel_array(m._r, m.cols)
    return IntMatrix._adopt(k, len(k[0]) if k else 0)


def _cokernel_array(a) -> FinAbGroup:
    d = _smith(a)[0]
    return FinAbGroup(free_rank=len(a) - len(d), torsion=tuple(x for x in d if x > 1))


def cokernel(m: IntMatrix) -> FinAbGroup:
    """Z^rows modulo the column span of m, in invariant-factor form."""
    return _cokernel_array(m._r)


def _solve(a, b, cols):
    """(rank of a, one integer Y with a @ Y == b, or None when there is none).

    With S = u @ a @ v in Smith form (a `cols` wide), a @ Y == b reads
    S @ Z == u @ b for Y = v @ Z: each row of u @ b must be divisible by
    its diagonal entry of S, and zero past the rank (Cohen, GTM 138,
    section 2.4).  The row operations act on b, so u is never formed.
    """
    d, c, v, _ = _smith(a, left=b, cols=cols)
    rank = len(d)
    if any(any(row) for row in c[rank:]) or any(
            x % p for row, p in zip(c, d) for x in row):
        return rank, None
    width = len(b[0]) if b else 0
    z = [[x // p for x in row] for row, p in zip(c, d)]
    return rank, _matmul(v, z + [[0] * width] * (cols - rank))


def solve_integer(m: IntMatrix, b):
    """One integer solution x of m @ x == b, or None when there is none."""
    vec = [index(x) for x in b]
    if len(vec) != m.rows:
        raise ValueError(f"right-hand side of length {len(vec)} against {m.shape}")
    if not vec:  # no equations: the zero vector solves them
        return (0,) * m.cols
    _, y = _solve(m._r, [[x] for x in vec], m.cols)
    return None if y is None else tuple(row[0] for row in y)


def _coords_in_basis(basis, targets):
    """Solve basis @ Y == targets over Z, columnwise.

    `basis` (m x k) must have independent columns and every column of
    `targets` (m x t) must lie in the integer column lattice of `basis`;
    both conditions are verified.  Returns Y as a row list; a basis with
    no rows has no columns either.
    """
    if len(basis) != len(targets):
        raise ValueError("basis and targets have different heights")
    k = len(basis[0]) if basis else 0
    rank, y = _solve(basis, targets, k)
    if rank < k:
        raise ValueError("the basis columns are linearly dependent")
    if y is None:
        raise ValueError("a target lies outside the integer column lattice")
    return y


def _is_unimodular(m: IntMatrix) -> bool:
    """Square, with every Smith diagonal entry 1."""
    return m.rows == m.cols and _smith(m._r)[0] == [1] * m.rows

