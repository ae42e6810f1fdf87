"""Dense exact linear algebra over one coefficient field.

Matrices are immutable.  All index-taking APIs are 1-based, matching the
1..q row and column conventions used everywhere else in the library, so
entry(i, j) of a Gram matrix really is the pairing of the i-th and j-th
vectors.  Internal storage is plain 0-based tuples.
"""

from __future__ import annotations

from functools import reduce

from .errors import (
    BadIndices,
    FieldMismatch,
    ParseError,
    ShapeMismatch,
    NotSquare,
    Singular,
)
from .fields import Field, Scalar, as_scalars, parse_scalar


def _cleared(ring, rows):
    """(the L_i, the rows times their L_i as lists): each row of canonical
    scalars cleared by its own L_i, the lcm of its denominators, into
    `ring`, the ring of their field."""
    cleared = [ring.clear([[x.value for x in row]]) for row in rows]
    return [scale for scale, _ in cleared], [row for _, (row,) in cleared]


def _products(field: Field, rows, cols):
    """[[sum_k r[k] c[k] for c in cols] for r in rows] on rows and columns
    of canonical scalars of `field`.  Both factors are cleared by
    `_cleared`, each row and each column by its own L into the ring R of
    `field.ring()`, so entry (i, j) is one dot product in R over L_i L_j,
    reduced once."""
    ring = field.ring()
    dot, mul, to_scalar = ring.dot, ring.mul, ring.to_scalar
    right = list(zip(*_cleared(ring, cols)))
    return [[to_scalar(dot(r, c), mul(lr, lc), 1) for lc, c in right]
            for lr, r in zip(*_cleared(ring, rows))]


def _bareiss(ring, m, cols: int, upward: bool):
    """The elimination of `Matrix._eliminate` on the rows m of ring
    elements, in place, with pivots in the first `cols` columns: (pivot
    columns 0-based, sign of the row swaps)."""
    neg = ring.neg
    # the columns that hold no pivot yet, in order
    live = list(range(len(m[0]) if m else 0))
    pivots, sign, prev = [], 1, ring.one
    for c in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        found = next((i for i in range(r, len(m)) if m[i][c]), None)
        if found is None:
            continue
        if found != r:
            m[r], m[found] = m[found], m[r]
            sign = -sign
        pivot, row_r = m[r][c], m[r]
        pivots.append(c)
        live.remove(c)
        step = ring.row_step(prev)
        for i in range(0 if upward else r + 1, len(m)):
            if i != r:
                row = m[i]
                step(row, live, ((pivot, row), (neg(row[c]), row_r)))
        prev = pivot
    return pivots, sign


def ring_rank(ring, rows) -> int:
    """The rank of the rows of elements of `ring` (a `Field.ring()`),
    which stay as they are.  Scaling a row by a nonzero element, as
    clearing does, keeps the rank."""
    m = [list(row) for row in rows]
    return len(_bareiss(ring, m, len(m[0]) if m else 0, upward=False)[0])


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data):
        # each row is read once: `as_scalars` reads its argument twice
        self._set(field, tuple(as_scalars(field, tuple(row)) for row in data))
        if any(len(row) != self.cols for row in self.data):
            raise ShapeMismatch("ragged rows")

    def _set(self, field, data, cols=0):
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else cols

    @classmethod
    def _of(cls, field: Field, rows, cols: int = 0) -> "Matrix":
        """The matrix on equal-length rows of canonical scalars of `field`,
        taken as they are: no coercion and no shape check.  `cols` is the
        column count of a matrix without rows."""
        m = cls.__new__(cls)
        m._set(field, tuple(map(tuple, rows)), cols)
        return m

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        zero, one = field.zero(), field.one()
        return cls._of(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        zero = field.zero()
        return cls._of(field, [[zero] * cols for _ in range(rows)], cols)

    @classmethod
    def from_columns(cls, field: Field, columns) -> "Matrix":
        columns = [tuple(c) for c in columns]
        n = len(columns[0]) if columns else 0
        if any(len(c) != n for c in columns):
            raise ShapeMismatch("columns of unequal length")
        if n == 0:
            return cls.zeros(field, 0, len(columns))
        return cls(field, zip(*columns))

    @classmethod
    def column(cls, field: Field, entries) -> "Matrix":
        return cls(field, [[x] for x in entries])

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise BadIndices(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return self.data[i - 1][j - 1]

    def row(self, i: int):
        return self.data[i - 1]

    def col(self, j: int):
        return tuple(row[j - 1] for row in self.data)

    def columns(self):
        return list(zip(*self.data)) if self.data else [()] * self.cols

    def is_square(self) -> bool:
        return self.rows == self.cols

    def submatrix(self, keep_rows, keep_cols) -> "Matrix":
        """Submatrix on the given 1-based row and column index lists."""
        return Matrix._of(self.field,
                          [[self.data[i - 1][j - 1] for j in keep_cols] for i in keep_rows],
                          len(keep_cols))

    # -- algebra -------------------------------------------------------

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition of different shapes")
        return Matrix._of(self.field,
                          [[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.data, other.data)], self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.field, [[-a for a in row] for row in self.data], self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_field(other)
            if self.cols != other.rows:
                raise ShapeMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            return Matrix._of(self.field, _products(self.field, self.data, other.columns()),
                              other.cols)
        scalar = self.field.scalar(other)
        return Matrix._of(self.field, [[a * scalar for a in row] for row in self.data],
                          self.cols)

    def __rmul__(self, other):
        return self * other

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, self.columns(), self.rows)

    def apply_vector(self, v):
        """Matrix times a plain tuple vector, returned as a tuple."""
        if len(v) != self.cols:
            raise ShapeMismatch("vector length does not match column count")
        return tuple(x for (x,) in _products(self.field, self.data, [as_scalars(self.field, v)]))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(x.literal() for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- the elimination kernel -----------------------------------------

    def _eliminate(self, augment=None, upward=True):
        """Fraction-free elimination of self, or of [self | augment].

        Each row is scaled by its own L_i, the lcm of its denominators,
        into the ring R whose fraction field is the scalar field (Z for Q,
        F_p[t] for F_p(t), F_p itself for F_p); row scaling changes
        neither the pivots nor the solutions.  Pivots are the first
        nonzero entries of the columns of self, left to right, with zero
        columns skipped and rows swapped into place.  With pivot p on row
        r, every updated entry becomes (p m_ij - m_ic m_rj) / prev, prev
        the previous pivot (1 at the start): a minor of the scaled matrix,
        so every division is exact in R (Bareiss, Math. Comp. 22, 1968),
        and each one is checked.  Each pivot step makes one
        `ring.row_step(prev)` and calls it once per updated row, with the
        terms (p, row i) and (-m_ic, row r); over F_p[t] it packs the row
        into a few big-int products.  Pivot columns are never read again,
        so they are not updated.  The forward pass (upward=False) updates the
        rows below r only; rank and pivot_columns read its pivots, and det
        runs it on the same cleared rows in the kernel ring of `ring.lift`.
        The full pass updates the rows above too (Nakos, Turner &
        Williams, SIGSAM Bull. 31(3), 1997), so the last pivot D is the
        common denominator: off the pivot columns, the reduced echelon form
        is the rows over D.

        Returns (ring, the L_i, rows, pivot columns 0-based, sign of the
        row swaps).
        """
        rows = self.data if augment is None else \
            [a + b for a, b in zip(self.data, augment.data)]
        ring = self.field.ring()
        scales, m = _cleared(ring, rows)
        pivots, sign = _bareiss(ring, m, self.cols, upward)
        return ring, scales, m, pivots, sign

    def det(self) -> Scalar:
        """Exact determinant: on the rows cleared as `_eliminate` clears
        them, the forward pass's last pivot, det(L A), over the product of
        the row scales, with the sign of the row swaps.  The pass runs in
        the kernel ring of `ring.lift`: over F_p(t), up to a measured size,
        in Z on the entries evaluated at t = 2^w, whose pivots need not be
        those of F_p[t], with the last pivot read back into F_p[t]."""
        if not self.is_square():
            raise NotSquare("determinant of a non-square matrix")
        if self.rows == 0:
            return self.field.one()
        ring = self.field.ring()
        scales, m = _cleared(ring, self.data)
        kernel, m, read = ring.lift(m)
        pivots, sign = _bareiss(kernel, m, self.cols, upward=False)
        if len(pivots) < self.rows:
            return self.field.zero()
        d = ring.to_scalar(read(m[-1][-1]), reduce(ring.mul, scales), 1)
        return d if sign == 1 else -d

    def rank(self) -> int:
        return len(self.pivot_columns())

    def pivot_columns(self):
        """0-based indices of the first independent columns, left to right."""
        return self._eliminate(upward=False)[3]

    def _reduced(self, augment=None):
        """The full pass: (ring, rows, pivot columns, to_scalar), where
        to_scalar(x) is x over the common denominator D as a scalar."""
        ring, _, m, pivots, _ = self._eliminate(augment)
        d = m[len(pivots) - 1][pivots[-1]] if pivots else ring.one
        return ring, m, pivots, lambda x: ring.to_scalar(x, d, 1)

    def _solve_invertible(self, b: "Matrix") -> "Matrix":
        _, m, pivots, to_scalar = self._reduced(b)
        if len(pivots) != self.rows:
            raise Singular("matrix is not invertible")
        return Matrix._of(self.field, [[to_scalar(x) for x in row[self.cols:]] for row in m])

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        return self._solve_invertible(Matrix.identity(self.field, self.rows))

    def solve(self, b: "Matrix") -> "Matrix":
        """Unique solution of A x = b for invertible A."""
        if not self.is_square():
            raise NotSquare("solve needs a square matrix")
        if b.rows != self.rows:
            raise ShapeMismatch("right-hand side has wrong row count")
        self._check_field(b)
        return self._solve_invertible(b)

    def solve_any(self, b: "Matrix") -> "Matrix":
        """A particular solution of A x = b for any A of full row rank
        on the consistent system; raises Singular if inconsistent."""
        self._check_field(b)
        if b.rows != self.rows:
            raise ShapeMismatch("right-hand side has wrong row count")
        _, m, pivots, to_scalar = self._reduced(b)
        if any(x for row in m[len(pivots):] for x in row[self.cols:]):
            raise Singular("inconsistent linear system")
        zero = self.field.zero()
        sol = [[zero] * b.cols for _ in range(self.cols)]
        for row, c in zip(m, pivots):
            sol[c] = [to_scalar(x) for x in row[self.cols:]]
        return Matrix._of(self.field, sol)

    def nullspace(self):
        """Basis of the kernel, as a list of plain tuple vectors."""
        ring, m, pivots, to_scalar = self._reduced()
        basis = []
        zero, one = self.field.zero(), self.field.one()
        for f in (c for c in range(self.cols) if c not in pivots):
            vec = [zero] * self.cols
            vec[f] = one
            for row, c in zip(m, pivots):
                vec[c] = to_scalar(ring.neg(row[f]))
            basis.append(tuple(vec))
        return basis

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.field.descriptor(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[x.literal() for x in row] for row in self.data],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Matrix":
        field = Field.from_descriptor(obj["field"])
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        # a JSON true is an int to Python, but not a size
        if (type(rows) is not int or type(cols) is not int
                or len(entries) != rows or any(len(r) != cols for r in entries)):
            raise ParseError("entry grid does not match declared integer shape")
        return cls(field, [[parse_scalar(x, field) for x in row] for row in entries])


class PermutationMap:
    """A bijection of {1..q}, stored by its tuple of images."""

    __slots__ = ("size", "images")

    def __init__(self, images):
        self.images = tuple(int(i) for i in images)
        self.size = len(self.images)
        if sorted(self.images) != list(range(1, self.size + 1)):
            raise BadIndices(f"{self.images} is not a permutation of 1..{self.size}")

    @classmethod
    def identity(cls, size: int) -> "PermutationMap":
        return cls(range(1, size + 1))

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.size:
            raise BadIndices(f"index {i} outside 1..{self.size}")
        return self.images[i - 1]

    def inverse(self) -> "PermutationMap":
        images = [0] * self.size
        for i, img in enumerate(self.images, start=1):
            images[img - 1] = i
        return PermutationMap(images)

    def __eq__(self, other):
        return isinstance(other, PermutationMap) and self.images == other.images

    def __repr__(self):
        return f"PermutationMap({self.images})"
