"""Skew-symmetric matrices and two exact Pfaffian algorithms.

A skew matrix here has zero diagonal and a_ij = -a_ji; only the strict
upper triangle is stored.  The Pfaffian of an even-sized skew matrix is
the canonical square root of its determinant, defined by expansion along
the last column:

    Pf(A) = sum_{i=1}^{q-1} (-1)^{i+1} a_{i,q} Pf(A with rows/cols i,q removed)

with Pf of the 0x0 matrix equal to 1.

The certified subclass of skew matrices consists of those whose nonempty
even-sized principal submatrices are all invertible, or equivalently all
have nonzero Pfaffian.  These are exactly the Gram matrices of the
non-degenerate vector sequences the rest of the library works with, and
the certificate is inherited by principal submatrices.  It keeps its
witness, the table of all even principal Pfaffians, so later questions
about principal or bordered Pfaffians are lookups against the table.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    IndexOutOfRange,
    NotSkewPlus,
    OddSize,
    ParseError,
    SamplerExhausted,
    ShapeMismatch,
)
from .fields import Field, Scalar
from .matrices import Matrix


class SkewMatrix:
    """Immutable q x q skew-symmetric matrix, upper triangle stored.

    The size is explicit because sizes 0 and 1 both have an empty upper
    triangle.
    """

    __slots__ = ("field", "size", "upper", "_hash")

    def __init__(self, field: Field, size: int, upper_rows):
        # upper_rows[i] holds (a_{i+1,i+2}, ..., a_{i+1,q}), 0-based lists
        self.field = field
        self.size = size
        self._hash = None
        self.upper = tuple(tuple(field.scalar(x) for x in row) for row in upper_rows)
        if len(self.upper) != max(size - 1, 0):
            raise ShapeMismatch(f"size {size} needs {max(size - 1, 0)} upper rows")
        for i, row in enumerate(self.upper):
            if len(row) != self.size - 1 - i:
                raise ShapeMismatch("upper triangle rows have wrong lengths")

    @classmethod
    def zero(cls, field: Field, q: int) -> "SkewMatrix":
        return cls(field, q, [[0] * (q - 1 - i) for i in range(max(q - 1, 0))])

    @classmethod
    def from_upper(cls, field: Field, q: int, entries) -> "SkewMatrix":
        """Build from a flat list of upper entries in row-major order."""
        entries = list(entries)
        if len(entries) != q * (q - 1) // 2:
            raise ShapeMismatch(f"expected {q*(q-1)//2} upper entries, got {len(entries)}")
        rows, k = [], 0
        for i in range(q - 1):
            rows.append(entries[k:k + q - 1 - i])
            k += q - 1 - i
        return cls(field, q, rows)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "SkewMatrix":
        if not m.is_square():
            raise ShapeMismatch("skew matrix must be square")
        for i in range(1, m.rows + 1):
            if not m.entry(i, i).is_zero():
                raise ParseError("diagonal entry is nonzero")
            for j in range(i + 1, m.cols + 1):
                if m.entry(i, j) != -m.entry(j, i):
                    raise ParseError(f"entries ({i},{j}) and ({j},{i}) are not opposite")
        return cls(m.field, m.rows,
                   [[m.entry(i, j) for j in range(i + 1, m.rows + 1)]
                    for i in range(1, m.rows)])

    def entry(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise IndexOutOfRange(f"entry ({i},{j}) outside size {self.size}")
        if i == j:
            return self.field.zero()
        if i < j:
            return self.upper[i - 1][j - i - 1]
        return -self.upper[j - 1][i - j - 1]

    def full_matrix(self) -> Matrix:
        q = self.size
        return Matrix(self.field,
                      [[self.entry(i, j) for j in range(1, q + 1)] for i in range(1, q + 1)])

    def principal(self, indices) -> "SkewMatrix":
        """Submatrix on the given sorted 1-based indices (rows and columns)."""
        idx = sorted(indices)
        if idx and not (1 <= idx[0] and idx[-1] <= self.size):
            raise IndexOutOfRange(f"indices {idx} outside 1..{self.size}")
        if len(set(idx)) != len(idx):
            raise IndexOutOfRange("repeated index")
        return SkewMatrix(self.field, len(idx),
                          [[self.entry(idx[i], idx[j]) for j in range(i + 1, len(idx))]
                           for i in range(len(idx) - 1)])

    def remove_indices(self, indices) -> "SkewMatrix":
        """Drop the given 1-based rows and columns."""
        drop = set(indices)
        if any(not 1 <= i <= self.size for i in drop):
            raise IndexOutOfRange(f"indices {sorted(drop)} outside 1..{self.size}")
        return self.principal([i for i in range(1, self.size + 1) if i not in drop])

    def star_extend(self, v) -> "SkewMatrix":
        """The (q+1) x (q+1) bordered matrix with last column v."""
        v = [self.field.scalar(x) for x in v]
        if len(v) != self.size:
            raise ShapeMismatch(f"border vector has length {len(v)}, matrix size {self.size}")
        rows = [list(row) + [v[i]] for i, row in enumerate(self.upper)]
        if self.size:
            rows.append([v[self.size - 1]])
        return SkewMatrix(self.field, self.size + 1, rows)

    def scale(self, c) -> "SkewMatrix":
        c = self.field.scalar(c)
        return SkewMatrix(self.field, self.size,
                          [[c * x for x in row] for row in self.upper])

    def permuted(self, perm) -> "SkewMatrix":
        """Simultaneous row/column relabeling: entry (i, j) of the output
        is entry (perm(i), perm(j)) of self."""
        q = self.size
        return SkewMatrix(self.field, q,
                          [[self.entry(perm(i), perm(j)) for j in range(i + 1, q + 1)]
                           for i in range(1, q)])

    def __eq__(self, other):
        return (isinstance(other, SkewMatrix) and self.field == other.field
                and self.upper == other.upper)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.size, self.upper))
        return self._hash

    def __repr__(self):
        return f"SkewMatrix({self.size}: {[[x.literal() for x in r] for r in self.upper]})"

    def to_json(self) -> dict:
        obj = self.full_matrix().to_json()
        obj["skew"] = True
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SkewMatrix":
        field = Field.from_descriptor(obj["field"])
        q = obj["rows"]
        entries = obj["entries"]
        if obj.get("cols") != q or len(entries) != q or any(len(r) != q for r in entries):
            raise ParseError("entry grid does not match a square declared shape")
        # only the strict upper triangle is trusted; the rest is reconstructed
        from .fields import parse_scalar
        rows = [[parse_scalar(entries[i][j], field) for j in range(i + 1, q)]
                for i in range(q - 1)]
        return cls(field, q, rows)


# ---------------------------------------------------------------------------
# Pfaffians
# ---------------------------------------------------------------------------

def pf_recursive(a: "SkewMatrix | SkewPlusMatrix") -> Scalar:
    """Pfaffian by last-column expansion.

    Shared subproblems are cached, keyed by the set of surviving indices;
    the reachable index sets grow like a Fibonacci number of the size
    rather than the double factorial of the naive term expansion, which
    keeps sizes up to about 30 practical.  Still exponential; use
    pf_eliminate for anything large.
    """
    a = _unwrap(a)
    if a.size % 2 != 0:
        raise OddSize(f"Pfaffian of odd size {a.size}")
    one = a.field.one()
    zero = a.field.zero()
    memo: dict[tuple, Scalar] = {(): one}

    def pf(indices: tuple) -> Scalar:
        cached = memo.get(indices)
        if cached is not None:
            return cached
        last = indices[-1]
        total = zero
        sign = 1
        for pos, i in enumerate(indices[:-1]):
            coeff = a.entry(i, last)
            if not coeff.is_zero():
                rest = indices[:pos] + indices[pos + 1:-1]
                term = coeff * pf(rest)
                total = total + term if sign > 0 else total - term
            sign = -sign
        memo[indices] = total
        return total

    return pf(tuple(range(1, a.size + 1)))


def pf_eliminate(a: "SkewMatrix | SkewPlusMatrix") -> Scalar:
    """Pfaffian by skew-symmetric elimination, cubic time.

    Congruence row+column updates clear the working column below the
    pivot pair; the Pfaffian is the signed product of the pivot entries.
    Pivots take the largest-index nonzero entry of the current column and
    are moved into place by a paired row/column swap, which flips the sign.
    """
    a = _unwrap(a)
    q = a.size
    if q % 2 != 0:
        raise OddSize(f"Pfaffian of odd size {q}")
    if q == 0:
        return a.field.one()
    m = [list(row) for row in a.full_matrix().data]
    sign = 1
    result = a.field.one()
    for k in range(0, q, 2):
        pivot = None
        for r in range(q - 1, k, -1):
            if not m[r][k].is_zero():
                pivot = r
                break
        if pivot is None:
            return a.field.zero()
        if pivot != k + 1:
            m[pivot], m[k + 1] = m[k + 1], m[pivot]
            for row in m:
                row[pivot], row[k + 1] = row[k + 1], row[pivot]
            sign = -sign
        base = m[k + 1][k]
        for r in range(k + 2, q):
            if m[r][k].is_zero():
                continue
            f = m[r][k] / base
            m[r] = [x - f * y for x, y in zip(m[r], m[k + 1])]
            for row in m:
                row[r] = row[r] - f * row[k + 1]
        result = result * m[k][k + 1]
    return result if sign == 1 else -result


def even_principal_pfaffians(a: "SkewMatrix | SkewPlusMatrix", max_size=None) -> dict:
    """Pfaffians of all even-sized principal submatrices (up to `max_size`,
    if given), keyed by the sorted index tuple.  One bottom-up sweep over
    index subsets, each expanded along its last column against the
    smaller entries of the table."""
    a = _unwrap(a)
    q = a.size
    top = q if max_size is None else min(q, max_size)
    columns = [[a.entry(i, j) for i in range(1, j)] for j in range(1, q + 1)]
    zero = a.field.zero()
    out = {(): a.field.one()}
    for size in range(2, top + 1, 2):
        for s in combinations(range(1, q + 1), size):
            out[s] = _bordered_pf(out, columns[s[-1] - 1], s[:-1], zero)
    return out


def _bordered_pf(table, column, s, zero) -> Scalar:
    """Pf of the principal submatrix on the odd index tuple s, bordered by
    a last index whose entry against i is column[i-1]:
    sum_pos (-1)^pos column[s[pos]] table[s minus s[pos]]."""
    total = zero
    for pos, i in enumerate(s):
        coeff = column[i - 1]
        if not coeff.is_zero():
            term = coeff * table[s[:pos] + s[pos + 1:]]
            total = total + term if pos % 2 == 0 else total - term
    return total


def bordered_pfaffians_nonzero(table: dict, border, max_size: int) -> bool:
    """Whether every Pfaffian through the border stays nonzero.

    `table` holds the even principal Pfaffians of a skew matrix A of size
    q = len(border) up to size max_size - 1.  Each odd I in 1..q with
    |I| <= max_size must give A bordered by the last column `border` a
    nonzero Pfaffian on I plus the border index.
    """
    q = len(border)
    zero = border[0].field.zero() if q else None
    return all(not _bordered_pf(table, border, s, zero).is_zero()
               for size in range(1, min(q, max_size) + 1, 2)
               for s in combinations(range(1, q + 1), size))


def pfaffian(a) -> Scalar:
    """Default Pfaffian: elimination, the cubic-time algorithm."""
    return pf_eliminate(a)


def random_skew(field: Field, q: int, rng, bound: int = 9) -> SkewMatrix:
    return SkewMatrix.from_upper(
        field, q, [field.sample(rng, bound) for _ in range(q * (q - 1) // 2)])


def random_skew_plus(field: Field, q: int, rng, bound: int = 9,
                     max_attempts: int = 512) -> SkewPlusMatrix:
    """Rejection-sample a certified matrix; entries from a growing pool.

    Certificates fail rarely over an infinite field, but over F_p the
    certified set can be tiny or empty, hence the attempt cap.
    """
    for attempt in range(max_attempts):
        if attempt and attempt % 64 == 0:
            bound *= 2
        m = SkewMatrix.from_upper(
            field, q, [field.sample_nonzero(rng, bound)
                       for _ in range(q * (q - 1) // 2)])
        try:
            return SkewPlusMatrix.certify(m)
        except NotSkewPlus:
            continue
    raise SamplerExhausted(f"no certified size-{q} matrix in {max_attempts} attempts")


def is_skew_plus(a: "SkewMatrix") -> bool:
    """Whether every nonempty even principal submatrix is invertible.

    Exhaustive over all even index subsets, so exponential in the size;
    fine for the sizes (q <= 12 or so) this library works at.
    """
    return not any(v.is_zero() for v in even_principal_pfaffians(a).values())


class SkewPlusMatrix:
    """A skew matrix with its certificate: the table of its even principal
    Pfaffians, all nonzero.  Certification keeps the table it computes;
    trusted constructions (faces, relabelings) fill it on first use."""

    __slots__ = ("inner", "_table", "_hash")

    def __init__(self, inner: SkewMatrix, _trusted: bool = False, _table=None):
        if not _trusted:
            _table = even_principal_pfaffians(inner)
            if any(v.is_zero() for v in _table.values()):
                raise NotSkewPlus("a nonempty even principal submatrix is singular")
        self.inner = inner
        self._table = _table
        self._hash = None

    @classmethod
    def certify(cls, inner: SkewMatrix) -> "SkewPlusMatrix":
        return cls(inner)

    @property
    def table(self) -> dict:
        """Pf of every even principal submatrix, keyed by sorted index tuple."""
        if self._table is None:
            self._table = even_principal_pfaffians(self.inner)
        return self._table

    def pf_without(self, *drop) -> Scalar:
        """Pf(A with the indices `drop` removed), read from the table."""
        return self.table[tuple(i for i in range(1, self.size + 1) if i not in drop)]

    # faces of a certified matrix stay certified: their even principal
    # submatrices are among the original ones
    def remove_indices(self, indices) -> "SkewPlusMatrix":
        return SkewPlusMatrix(self.inner.remove_indices(indices), _trusted=True)

    def principal(self, indices) -> "SkewPlusMatrix":
        return SkewPlusMatrix(self.inner.principal(indices), _trusted=True)

    def face(self, i: int) -> "SkewPlusMatrix":
        return self.remove_indices([i])

    def permuted(self, perm) -> "SkewPlusMatrix":
        return SkewPlusMatrix(self.inner.permuted(perm), _trusted=True)

    @property
    def field(self):
        return self.inner.field

    @property
    def size(self):
        return self.inner.size

    def entry(self, i, j):
        return self.inner.entry(i, j)

    def full_matrix(self):
        return self.inner.full_matrix()

    def __eq__(self, other):
        return isinstance(other, SkewPlusMatrix) and self.inner == other.inner

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("skew+", self.inner))
        return self._hash

    def __repr__(self):
        return f"SkewPlus({self.inner!r})"

    def to_json(self):
        return self.inner.to_json()


def _as_certified(a) -> SkewPlusMatrix:
    if isinstance(a, SkewPlusMatrix):
        return a
    if isinstance(a, SkewMatrix):
        return SkewPlusMatrix.certify(a)
    raise NotSkewPlus(f"expected a skew matrix, got {type(a).__name__}")


def _unwrap(a):
    return a.inner if isinstance(a, SkewPlusMatrix) else a
