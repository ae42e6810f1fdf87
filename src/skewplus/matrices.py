"""Dense exact linear algebra over one coefficient field.

Matrices are immutable.  All index-taking APIs are 1-based, matching the
1..q row and column conventions used everywhere else in the library, so
entry(i, j) of a Gram matrix really is the pairing of the i-th and j-th
vectors.  Internal storage is plain 0-based tuples.
"""

from __future__ import annotations

from .errors import (
    BadIndices,
    FieldMismatch,
    ParseError,
    ShapeMismatch,
    NotSquare,
    Singular,
)
from .fields import Field, Scalar, parse_scalar


class Matrix:
    __slots__ = ("field", "rows", "cols", "data", "_hash")

    def __init__(self, field: Field, data):
        self.field = field
        self._hash = None
        self.data = tuple(tuple(field.scalar(x) for x in row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.data):
            raise ShapeMismatch("ragged rows")

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, [[0] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, field: Field, columns) -> "Matrix":
        columns = [tuple(c) for c in columns]
        if not columns:
            return cls.zeros(field, 0, 0)
        n = len(columns[0])
        if any(len(c) != n for c in columns):
            raise ShapeMismatch("columns of unequal length")
        return cls(field, [[columns[j][i] for j in range(len(columns))] for i in range(n)])

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
        return [self.col(j) for j in range(1, self.cols + 1)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def submatrix(self, keep_rows, keep_cols) -> "Matrix":
        """Submatrix on the given 1-based row and column index lists."""
        return Matrix(self.field,
                      [[self.data[i - 1][j - 1] for j in keep_cols] for i in keep_rows])

    # -- algebra -------------------------------------------------------

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition of different shapes")
        return Matrix(self.field,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-a for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_field(other)
            if self.cols != other.rows:
                raise ShapeMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            cols = list(zip(*other.data)) if other.data else []
            zero = self.field.zero()
            out = []
            for r in self.data:
                out_row = []
                for c in cols:
                    acc = zero
                    for a, b in zip(r, c):
                        acc = acc + a * b
                    out_row.append(acc)
                out.append(out_row)
            return Matrix(self.field, out)
        scalar = self.field.scalar(other)
        return Matrix(self.field, [[a * scalar for a in row] for row in self.data])

    def __rmul__(self, other):
        return self * other

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.data)) if self.data else [])

    def apply_vector(self, v):
        """Matrix times a plain tuple vector, returned as a tuple."""
        if len(v) != self.cols:
            raise ShapeMismatch("vector length does not match column count")
        v = [self.field.scalar(x) for x in v]
        out = []
        for row in self.data:
            acc = self.field.zero()
            for a, b in zip(row, v):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data == other.data)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.data))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(x.literal() for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- elimination kernels --------------------------------------------

    def det(self) -> Scalar:
        """Exact determinant by fraction-free (division-delayed) elimination.

        Over the rationals the Bareiss scheme keeps intermediate entries as
        quotients of minors, which avoids the blow-up of naive elimination.
        """
        if not self.is_square():
            raise NotSquare("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return self.field.one()
        m = [list(row) for row in self.data]
        sign = 1
        prev = self.field.one()
        for k in range(n - 1):
            if m[k][k].is_zero():
                for r in range(k + 1, n):
                    if not m[r][k].is_zero():
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return self.field.zero()
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
                m[i][k] = self.field.zero()
            prev = m[k][k]
        d = m[n - 1][n - 1]
        return d if sign == 1 else -d

    def _echelon(self, augment=None):
        """Row reduce self (optionally with an augmented block); returns
        (reduced rows, augmented rows, pivot column 0-based indices)."""
        m = [list(row) for row in self.data]
        aug = [list(row) for row in augment.data] if augment is not None else None
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot = None
            for i in range(r, self.rows):
                if not m[i][c].is_zero():
                    pivot = i
                    break
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            if aug is not None:
                aug[r], aug[pivot] = aug[pivot], aug[r]
            inv = m[r][c].inv()
            m[r] = [x * inv for x in m[r]]
            if aug is not None:
                aug[r] = [x * inv for x in aug[r]]
            for i in range(self.rows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                    if aug is not None:
                        aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, aug, pivots

    def rank(self) -> int:
        return len(self.pivot_columns())

    def pivot_columns(self):
        """0-based indices of the first independent columns, left to right."""
        return self._echelon()[2]

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        m, aug, pivots = self._echelon(Matrix.identity(self.field, self.rows))
        if len(pivots) != self.rows:
            raise Singular("matrix is not invertible")
        return Matrix(self.field, aug)

    def solve(self, b: "Matrix") -> "Matrix":
        """Unique solution of A x = b for invertible A."""
        if not self.is_square():
            raise NotSquare("solve needs a square matrix")
        if b.rows != self.rows:
            raise ShapeMismatch("right-hand side has wrong row count")
        self._check_field(b)
        m, aug, pivots = self._echelon(b)
        if len(pivots) != self.rows:
            raise Singular("matrix is not invertible")
        return Matrix(self.field, aug)

    def solve_any(self, b: "Matrix") -> "Matrix":
        """A particular solution of A x = b for any A of full row rank
        on the consistent system; raises Singular if inconsistent."""
        self._check_field(b)
        if b.rows != self.rows:
            raise ShapeMismatch("right-hand side has wrong row count")
        m, aug, pivots = self._echelon(b)
        zero = self.field.zero()
        for i in range(len(pivots), self.rows):
            if any(not x.is_zero() for x in aug[i]):
                raise Singular("inconsistent linear system")
        sol = [[zero] * b.cols for _ in range(self.cols)]
        for r, c in enumerate(pivots):
            sol[c] = aug[r]
        return Matrix(self.field, sol)

    def nullspace(self):
        """Basis of the kernel, as a list of plain tuple vectors."""
        m, _, pivots = self._echelon()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        zero, one = self.field.zero(), self.field.one()
        for f in free:
            vec = [zero] * self.cols
            vec[f] = one
            for r, c in enumerate(pivots):
                vec[c] = -m[r][f]
            basis.append(tuple(vec))
        return basis

    # -- permutations ----------------------------------------------------

    def apply_permutation(self, perm: "PermutationMap", side: str = "both") -> "Matrix":
        """Permute rows and/or columns: output (i, j) entry is taken from
        (perm(i), j), (i, perm(j)), or (perm(i), perm(j))."""
        if side not in ("rows", "cols", "both"):
            raise BadIndices(f"side must be rows, cols, or both, not {side!r}")
        if side in ("rows", "both") and perm.size != self.rows:
            raise ShapeMismatch("permutation size does not match row count")
        if side in ("cols", "both") and perm.size != self.cols:
            raise ShapeMismatch("permutation size does not match column count")
        rows = range(1, self.rows + 1)
        cols = range(1, self.cols + 1)
        ri = (lambda i: perm(i)) if side in ("rows", "both") else (lambda i: i)
        ci = (lambda j: perm(j)) if side in ("cols", "both") else (lambda j: j)
        return Matrix(self.field,
                      [[self.data[ri(i) - 1][ci(j) - 1] for j in cols] for i in rows])

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
        entries = obj["entries"]
        if len(entries) != obj["rows"] or any(len(r) != obj["cols"] for r in entries):
            raise ParseError("entry grid does not match declared shape")
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

    @classmethod
    def transposition(cls, size: int, a: int, b: int) -> "PermutationMap":
        images = list(range(1, size + 1))
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
        return cls(images)

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
