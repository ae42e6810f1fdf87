"""Skew-symmetric matrices and two exact Pfaffian algorithms.

A skew matrix here has zero diagonal and a_ij = -a_ji; only the strict
upper triangle is stored.  The Pfaffian of an even-sized skew matrix is
the canonical square root of its determinant, defined by expansion along
the last column:

    Pf(A) = sum_{i=1}^{q-1} (-1)^{i+1} a_{i,q} Pf(A with rows/cols i,q removed)

with Pf of the 0x0 matrix equal to 1.

The certified skew matrices are those whose nonempty even-sized
principal submatrices are all invertible, or equivalently all have
nonzero Pfaffian.  These are exactly the Gram matrices of the
non-degenerate vector sequences the rest of the library works with, and
the certificate is inherited by principal submatrices.  `SkewPlusMatrix`
is the subclass of `SkewMatrix` that holds one: its witness is the table
of all even principal Pfaffians in the ring, which a face restricts from
its parent's on first use, and every constructor it inherits certifies.
One coding of the last-column expansion above, `_expand`, works
fraction-free in the ring of `Field.ring()`: it builds that table, names
the first vanishing subset of every bordered test, and runs pf_recursive,
the reference Pfaffian, whose final value alone is reduced to a scalar.
pf_eliminate, the other algorithm, is skew elimination: the ring kernel
`_pf_ring` and one reduction.  Over F_p(t), unless the matrix is large,
the kernel runs in Z on the entries evaluated at t = 2^w, and its result
is read back into F_p[t] (`PolynomialRing.lift`).  The gamma oracle runs
the kernel's pivot-pair step without its search (`_pf_lead`), and reads
six Pfaffians off one pass.  A skew matrix clears its upper triangle into
the ring once, on first use, and keeps it (`SkewMatrix.ring_form`) for the
table sweep, pf_eliminate and the gamma oracle; pf_recursive clears on its
own, so the two Pfaffians stay independent.

A skew matrix stores its upper triangle flat, as the canonical values of
its entries (`Scalar.value`), which the ring clears directly: hashing and
equality run in C on ints and tuples, and a face or principal part is one
cached `operator.itemgetter` pick of the flat tuple.  Scalars are made at
the edge only, by the constructors and by `upper`, `entry`,
`full_matrix`, repr and JSON.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from .errors import (
    IndexOutOfRange,
    InternalInvariant,
    NotSkewPlus,
    OddSize,
    ParseError,
    ShapeMismatch,
)
from .fields import Field, Scalar, sample_until
from .matrices import Matrix


class SkewMatrix:
    """Immutable q x q skew-symmetric matrix.

    Only the strict upper triangle is stored: `flat`, row by row, holds the
    canonical values of its entries (`Scalar.value`: an int over F_p, a
    reduced (num, den) int pair over Q, a pair of coefficient tuples over
    F_p(t)), so hashing and equality run in C on ints and tuples, and a
    face or principal part is one cached `operator.itemgetter` pick of
    `flat`.  Scalars are made at the edge: the constructors take ints,
    pairs, Fractions or scalars, and `upper`, `entry`, `full_matrix`, repr
    and JSON hand out scalars.

    The size is explicit because sizes 0 and 1 both have an empty upper
    triangle.
    """

    __slots__ = ("field", "size", "flat", "_hash", "_form")

    def __init__(self, field: Field, size: int, upper_rows):
        # upper_rows[i] holds (a_{i+1,i+2}, ..., a_{i+1,q}), 0-based lists
        if size < 0:
            raise ShapeMismatch(f"size {size} is negative")
        rows = [[field.scalar(x).value for x in row] for row in upper_rows]
        if len(rows) != max(size - 1, 0):
            raise ShapeMismatch(f"size {size} needs {max(size - 1, 0)} upper rows")
        if any(len(row) != size - 1 - i for i, row in enumerate(rows)):
            raise ShapeMismatch("upper triangle rows have wrong lengths")
        self._set(field, size, tuple(x for row in rows for x in row))

    def _set(self, field, size, flat):
        self.field = field
        self.size = size
        self.flat = flat
        self._hash = self._form = None

    @classmethod
    def _of(cls, field: Field, size: int, flat) -> "SkewMatrix":
        """The size-`size` skew matrix whose flat upper triangle is the tuple
        `flat` of canonical values of `field`, taken as it is: no coercion
        and no shape check."""
        a = cls.__new__(cls)
        a._set(field, size, flat)
        return a

    @classmethod
    def zero(cls, field: Field, q: int) -> "SkewMatrix":
        return cls.from_upper(field, q, [0] * (q * (q - 1) // 2))

    @classmethod
    def from_upper(cls, field: Field, q: int, entries) -> "SkewMatrix":
        """Build from a flat list of upper entries in row-major order."""
        entries = list(entries)
        if q < 0:
            raise ShapeMismatch(f"size {q} is negative")
        if len(entries) != q * (q - 1) // 2:
            raise ShapeMismatch(f"expected {q*(q-1)//2} upper entries, got {len(entries)}")
        return cls._of(field, q, tuple(field.scalar(x).value for x in entries))

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
        return cls.from_upper(m.field, m.rows, [m.entry(i, j) for i in range(1, m.rows)
                                                for j in range(i + 1, m.rows + 1)])

    def entry(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise IndexOutOfRange(f"entry ({i},{j}) outside size {self.size}")
        if i == j:
            return self.field.zero()
        if i < j:
            return Scalar(self.field, self.flat[_start(self.size, i) + j - i - 1])
        return -Scalar(self.field, self.flat[_start(self.size, j) + i - j - 1])

    def value_rows(self):
        """The upper rows as tuples of canonical values: rows[i] holds
        a_{i+1,i+2}, ..., a_{i+1,q}."""
        return _split(self.flat, self.size)

    @property
    def upper(self):
        """The upper rows as tuples of scalars."""
        field = self.field
        return tuple(tuple(Scalar(field, x) for x in row) for row in self.value_rows())

    def ring_form(self):
        """(L, rows): the upper triangle cleared into the ring of
        `Field.ring()` by one L, rows[i] = (L a_{i+1,i+2}, ..., L a_{i+1,q});
        made once, from one clear of `flat`, and tuples, so that no reader
        can change it."""
        if self._form is None:
            scale, (flat,) = self.field.ring().clear([self.flat])
            self._form = scale, _split(tuple(flat), self.size)
        return self._form

    def full_matrix(self) -> Matrix:
        q, field = self.size, self.field
        zero = field.zero()
        rows = [[zero] * q for _ in range(q)]
        for i, row in enumerate(self.value_rows()):
            for j, x in enumerate(row, start=i + 1):
                x = Scalar(field, x)
                rows[i][j], rows[j][i] = x, -x
        return Matrix._of(field, rows)

    def principal(self, indices) -> "SkewMatrix":
        """Submatrix on the given 1-based indices (rows and columns), sorted."""
        return self._on(_indices(self.size, indices))

    def _on(self, idx) -> "SkewMatrix":
        """`principal` on sorted, distinct indices in range."""
        idx = tuple(idx)
        return SkewMatrix._of(self.field, len(idx), _picker(self.size, idx)(self.flat))

    def remove_indices(self, indices) -> "SkewMatrix":
        """Drop the given 1-based rows and columns."""
        return self._on(_kept(self.size, indices))

    def star_extend(self, v) -> "SkewMatrix":
        """The (q+1) x (q+1) bordered matrix with last column v."""
        v = tuple(self.field.scalar(x).value for x in v)
        if len(v) != self.size:
            raise ShapeMismatch(f"border vector has length {len(v)}, matrix size {self.size}")
        return SkewMatrix._of(self.field, self.size + 1,
                              tuple(x for row, b in zip(self.value_rows() + ((),), v)
                                    for x in (*row, b)))

    def scale(self, c) -> "SkewMatrix":
        field = self.field
        c = field.scalar(c)
        return SkewMatrix._of(field, self.size,
                              tuple((c * Scalar(field, x)).value for x in self.flat))

    def permuted(self, perm) -> "SkewMatrix":
        """Simultaneous row/column relabeling: entry (i, j) of the output
        is entry (perm(i), perm(j)) of self."""
        q = self.size
        return SkewMatrix._of(self.field, q,
                              tuple(self.entry(perm(i), perm(j)).value
                                    for i in range(1, q) for j in range(i + 1, q + 1)))

    def __eq__(self, other):
        # a certified matrix equals only certified ones
        return (type(other) is type(self) and self.size == other.size
                and self.flat == other.flat
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.size, self.flat))
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
        q, cols, entries = obj["rows"], obj.get("cols"), obj["entries"]
        if (type(q) is not int or type(cols) is not int or cols != q
                or len(entries) != q or any(len(r) != q for r in entries)):
            raise ParseError("entry grid does not match a square declared integer shape")
        # only the strict upper triangle is trusted; the rest is reconstructed
        from .fields import parse_scalar
        return cls.from_upper(field, q, [parse_scalar(entries[i][j], field)
                                         for i in range(q - 1) for j in range(i + 1, q)])


def _start(size: int, i: int) -> int:
    """Where row i (1-based) of a size-`size` upper triangle starts in its
    flat tuple."""
    return (i - 1) * (2 * size - i) // 2


def _split(flat, size: int):
    """The flat upper triangle of a size-`size` matrix as a tuple of rows."""
    return tuple(flat[_start(size, i):_start(size, i + 1)] for i in range(1, size))


def _getter(positions):
    """The function taking a tuple to the tuple of its entries at `positions`
    (itemgetter returns a single entry bare)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda flat: tuple(flat[k] for k in positions)


@lru_cache(maxsize=4096)
def _picker(size: int, keep: tuple):
    """The pick of the flat upper triangle of the principal part on the
    sorted index tuple `keep` out of a size-`size` flat triangle."""
    return _getter([_start(size, i) + j - i - 1
                    for k, i in enumerate(keep) for j in keep[k + 1:]])


@lru_cache(maxsize=4096)
def _face_keep(size: int, i: int):
    """1..size without i, as a tuple."""
    return (*range(1, i), *range(i + 1, size + 1))


# ---------------------------------------------------------------------------
# Pfaffians
# ---------------------------------------------------------------------------

def pf_recursive(a: SkewMatrix) -> Scalar:
    """Pfaffian by last-column expansion, top down in the ring of
    `Field.ring()` on the upper triangle cleared by one L.

    Each reachable index set is expanded by `_expand`, the expansion that
    builds every PfaffianTable, and cached; it recurses only into the
    sets whose coefficient is nonzero, and only the final L^(q/2) Pf is
    reduced.  The reachable sets grow like a Fibonacci number of the size
    rather than the double factorial of the naive term expansion.  Still
    exponential; use pf_eliminate for anything large.
    """
    q = a.size
    if q % 2 != 0:
        raise OddSize(f"Pfaffian of odd size {q}")
    ring = a.field.ring()
    scale, upper = ring.clear(a.value_rows())
    signed = [_signed(ring, c) for c in _columns(upper, q)]
    # a set skipped for its zero coefficient is read only against that zero
    memo = _ZeroDefault(ring.zero)
    memo[()] = ring.one

    def pf(s):
        if s not in memo:
            column, rest = signed[s[-1] - 1], s[:-1]
            for pos, i in enumerate(rest):
                if column[i - 1][0]:
                    pf(rest[:pos] + rest[pos + 1:])
            memo[s] = _expand(ring, column, rest, memo)

    full = tuple(range(1, q + 1))
    pf(full)
    # pf refers to itself: unbinding it frees the memo now, not at the
    # next cyclic garbage collection
    del pf
    return ring.to_scalar(memo[full], scale, q // 2)


class _ZeroDefault(dict):
    """A dict that reads a missing key as `zero` without storing it."""

    __slots__ = ("zero",)

    def __init__(self, zero):
        self.zero = zero

    def __missing__(self, key):
        return self.zero


def pf_eliminate(a: SkewMatrix) -> Scalar:
    """Pfaffian by fraction-free skew elimination, cubic time.

    The strict upper triangle scaled by L, the lcm of its denominators,
    into the ring R whose fraction field is the scalar field (Z for Q,
    F_p[t] for F_p(t), F_p itself for F_p) is the matrix's ring form;
    `_pf_ring` eliminates a copy of it to Pf(L A), which is reduced once
    to Pf(A) = Pf(L A) / L^(q/2).  `ring.lift` picks the kernel's ring:
    over F_p(t), below a size threshold, Z on the form evaluated at
    t = 2^w, whose Pfaffian is read back into F_p[t] exactly.
    """
    q = a.size
    if q % 2 != 0:
        raise OddSize(f"Pfaffian of odd size {q}")
    ring = a.field.ring()
    scale, upper = a.ring_form()
    kernel, upper, read = ring.lift(upper, skew=True)
    pivot, sign = _pf_ring(kernel, upper)
    result = ring.to_scalar(read(pivot), scale, q // 2)
    return result if sign == 1 else -result


def _pf_ring(ring, upper):
    """(p, sign) with sign * p the Pfaffian of the even-sized skew matrix
    over the ring R whose strict upper rows are `upper` (sequences of ring
    elements, copied and left as they are), by skew Bareiss elimination,
    one `_pivot_pair` per pair of indices; p is the last pivot, or zero.
    Pivots take the largest-index nonzero entry of row k and are moved into
    place by a paired row/column swap, which flips the sign."""
    m = _padded(upper)
    q, neg, sign, prev = len(m), ring.neg, 1, ring.one
    for k in range(0, q, 2):
        row_k = m[k]
        pivot = next((r for r in range(q - 1, k, -1) if row_k[r]), None)
        if pivot is None:
            return ring.zero, 1
        if pivot != k + 1:
            # relabel k+1 <-> pivot on the active indices k..q-1
            b, row_b = k + 1, m[k + 1]
            row_k[b], row_k[pivot] = row_k[pivot], row_k[b]
            for x in range(b + 1, pivot):
                row_b[x], m[x][pivot] = neg(m[x][pivot]), neg(row_b[x])
            row_b[pivot] = neg(row_b[pivot])
            for x in range(pivot + 1, q):
                row_b[x], m[pivot][x] = m[pivot][x], row_b[x]
            sign = -sign
        prev = _pivot_pair(ring, m, k, prev)
    return prev, sign


def _pf_lead(ring, upper, lead: int):
    """The padded rows m of `_pf_ring`'s triangle after `_pivot_pair` on
    the fixed pairs (0, 1), ..., (lead-2, lead-1), with no search: for
    lead <= i < j, m[i][j] is the Pfaffian of the principal block on
    0..lead-1, i, j.  A zero pivot raises `InternalInvariant`."""
    m = _padded(upper)
    prev = ring.one
    for k in range(0, lead, 2):
        if not m[k][k + 1]:
            raise InternalInvariant(f"the leading block on 0..{k + 1} has Pfaffian zero")
        prev = _pivot_pair(ring, m, k, prev)
    return m


def _padded(upper):
    """Strict upper rows as full-length rows m, m[i][j] = entry (i, j), i < j."""
    m = [[None] * (i + 1) + list(row) for i, row in enumerate(upper)]
    return m + [[None] * (len(m) + 1)] if m else m


def _pivot_pair(ring, m, k: int, prev):
    """Skew Bareiss elimination on the pivot pair (k, k+1) of the padded
    triangle m, in place, after the pair with pivot prev (1 at the start);
    returns this pivot m[k][k+1].  Entry (i, j), k+2 <= i < j, becomes

        (m[k][k+1] m[i][j] - m[k][i] m[k+1][j] + m[k][j] m[k+1][i]) / prev.

    The numerator is the Pfaffian of the principal block on {k, k+1, i, j};
    by the Pfaffian analogue of Sylvester's identity (the Dress-Wenzel
    identity), each entry is then the Pfaffian of the leading eliminated
    block bordered by i and j, so every division is exact in R, and each
    one is checked: one `ring.row_step(prev)` per row i."""
    q, neg = len(m), ring.neg
    row_k, row_k1 = m[k], m[k + 1]
    base = row_k[k + 1]
    step = ring.row_step(prev)
    for i in range(k + 2, q - 1):
        row_i = m[i]
        step(row_i, range(i + 1, q),
             ((base, row_i), (neg(row_k[i]), row_k1), (row_k1[i], row_k)))
    return base


def even_principal_pfaffians(a: SkewMatrix, max_size=None) -> "PfaffianTable":
    """Pfaffians of all even-sized principal submatrices (up to `max_size`,
    if given), swept by `pfaffian_table` from the matrix's ring form."""
    scale, upper = a.ring_form()
    return pfaffian_table(a.field.ring(), scale, _columns(upper, a.size), max_size)


def pfaffian_table(ring, scale, columns, max_size=None) -> "PfaffianTable":
    """The PfaffianTable of the skew matrix A given in `ring` by its
    cleared columns above the diagonal, columns[j-1] = (L a_1j, ...,
    L a_{j-1,j}) with L = scale, up to size `max_size` if given.  One
    bottom-up sweep over index subsets: each set is expanded along its
    last column against the smaller entries, so the entry for an index
    set of size 2k is L^k Pf."""
    q = len(columns)
    top = q if max_size is None else min(q, max_size)
    signed = [_signed(ring, c) for c in columns]
    raw = {(): ring.one}
    for size in range(2, top + 1, 2):
        for s in combinations(range(1, q + 1), size):
            raw[s] = _expand(ring, signed[s[-1] - 1], s[:-1], raw)
    return PfaffianTable(ring, scale, raw)


def _columns(upper, q: int):
    """The columns above the diagonal of the size-q triangle whose rows
    are `upper`: columns[j-1] = (a_1j, ..., a_{j-1,j})."""
    return [[upper[i][j - i - 1] for i in range(j)] for j in range(q)]


def _signed(ring, column):
    """(c_i, -c_i) for each entry of a column: the sign of a term of the
    expansion follows its position."""
    return [(x, ring.neg(x)) for x in column]


def _expand(ring, signed, s, raw):
    """The Pfaffian on the odd index tuple s plus a last index with column
    c, signed[i-1] = (c_i, -c_i): sum_pos (-1)^pos c_{s[pos]} raw[s minus
    s[pos]] in the ring.  The table sweep, every bordered test and
    pf_recursive run it."""
    return ring.dot([signed[i - 1][pos & 1] for pos, i in enumerate(s)],
                    [raw[s[:pos] + s[pos + 1:]] for pos in range(len(s))])


class PfaffianTable:
    """Even principal Pfaffians of a skew matrix A as the ring sweep leaves
    them: raw[s] = L^k Pf(A on s) for a sorted index tuple s of size 2k,
    L = scale a nonzero ring element that clears A's upper triangle (L^2
    for a Gram matrix of vectors cleared by L).  Zero tests read raw; only
    an entry read as a scalar is reduced."""

    __slots__ = ("ring", "scale", "raw")

    def __init__(self, ring, scale, raw: dict):
        self.ring, self.scale, self.raw = ring, scale, raw

    def __getitem__(self, s) -> Scalar:
        """Pf of the principal submatrix on the sorted index tuple s."""
        return self.ring.to_scalar(self.raw[s], self.scale, len(s) // 2)

    def all_nonzero(self) -> bool:
        return all(self.raw.values())

    def bordered_zero(self, border, max_size: int):
        """The first odd I in 1..q with |I| <= max_size, by size and then
        in `combinations` order, on which A bordered by a last column of q
        scalars has Pfaffian zero on I plus the border index; None if there
        is none.  The table must reach size max_size - 1.  The border is
        given in the ring as L_b times the scalars, for any nonzero L_b:
        every term on I, |I| = 2k+1, carries the same nonzero L_b L^k, so
        the ring value vanishes exactly when the Pfaffian does."""
        ring, q, raw = self.ring, len(border), self.raw
        signed = _signed(ring, border)
        return next((s for size in range(1, min(q, max_size) + 1, 2)
                     for s in combinations(range(1, q + 1), size)
                     if not _expand(ring, signed, s, raw)), None)

    def restrict(self, keep) -> "PfaffianTable":
        """The table of A's principal submatrix on the sorted indices `keep`,
        with the same ring and L: the entries on subsets of keep, relabelled
        to 1..len(keep), picked out with no ring arithmetic."""
        # a table holds every subset of each even size up to its cap;
        # the subsets of keep come in the order of their positions
        raw, n = self.raw, len(keep)
        return PfaffianTable(self.ring, self.scale,
                             {s: raw[kept] for size in range(0, n + 1, 2)
                              if tuple(keep[:size]) in raw
                              for s, kept in zip(combinations(range(1, n + 1), size),
                                                 combinations(keep, size))})


def random_skew(field: Field, q: int, rng, bound: int = 9) -> SkewMatrix:
    return SkewMatrix.from_upper(
        field, q, [field.sample(rng, bound) for _ in range(q * (q - 1) // 2)])


def random_skew_plus(field: Field, q: int, rng,
                     max_attempts: int = 512) -> SkewPlusMatrix:
    """Rejection-sample a certified matrix with nonzero entries.

    Certificates fail rarely over an infinite field, but over F_p the
    certified set can be tiny or empty, hence the attempt cap.
    """
    def draw(bound):
        m = SkewMatrix.from_upper(
            field, q, [field.sample_nonzero(rng, bound)
                       for _ in range(q * (q - 1) // 2)])
        try:
            return SkewPlusMatrix.certify(m)
        except NotSkewPlus:
            return None

    return sample_until(lambda a: a is not None, draw, max_attempts,
                        f"certified size-{q} matrix")


def is_skew_plus(a: "SkewMatrix") -> bool:
    """Whether every nonempty even principal submatrix is invertible.

    Exhaustive over all even index subsets, so exponential in the size;
    fine for the sizes (q <= 12 or so) this library works at.
    """
    return even_principal_pfaffians(a).all_nonzero()


class SkewPlusMatrix(SkewMatrix):
    """A skew matrix with its certificate: its PfaffianTable of even
    principal Pfaffians, all nonzero.  Certification keeps the table it
    computes.  A face or principal submatrix holds its parent and its kept
    indices, and on the first read of its table restricts the parent's:
    most faces that `chains.boundary` makes are only hashed, and the faces
    of one matrix share its single sweep.  Other trusted constructions
    (relabelings, borders) sweep their own table on first use.  Every
    constructor inherited from SkewMatrix certifies, through `_of`;
    borders and scalings (`star_extend`, `scale`) are plain skew matrices."""

    __slots__ = ("_table", "_parent")

    def __init__(self, inner: SkewMatrix, _trusted: bool = False, _table=None):
        if not _trusted:
            _table = even_principal_pfaffians(inner)
            if not _table.all_nonzero():
                raise NotSkewPlus("a nonempty even principal submatrix is singular")
        self._set(inner.field, inner.size, inner.flat)
        self._form, self._table, self._parent = inner._form, _table, None

    @classmethod
    def certify(cls, inner: SkewMatrix) -> "SkewPlusMatrix":
        return cls(inner)

    @classmethod
    def _of(cls, field: Field, size: int, flat) -> "SkewPlusMatrix":
        return cls(SkewMatrix._of(field, size, flat))

    @property
    def inner(self) -> SkewMatrix:
        """The plain skew matrix, sharing `flat` and any cleared ring form."""
        plain = SkewMatrix._of(self.field, self.size, self.flat)
        plain._form = self._form
        return plain

    @property
    def table(self) -> PfaffianTable:
        """Pf of every even principal submatrix, keyed by sorted index tuple."""
        if self._table is None:
            if self._parent is None:
                self._table = even_principal_pfaffians(self)
            else:
                (parent, keep), self._parent = self._parent, None
                self._table = parent.table.restrict(keep)
        return self._table

    def pf_without(self, *drop) -> Scalar:
        """Pf(A with the indices `drop` removed), read from the table."""
        return self.table[tuple(i for i in range(1, self.size + 1) if i not in drop)]

    def _on(self, keep) -> "SkewPlusMatrix":
        """`principal` on sorted, distinct indices in range: faces of a
        certified matrix stay certified, their even principal submatrices
        being among the original ones."""
        keep = tuple(keep)
        face = SkewPlusMatrix.__new__(SkewPlusMatrix)
        face._set(self.field, len(keep), _picker(self.size, keep)(self.flat))
        face._table, face._parent = None, (self, keep)
        return face

    def face(self, i: int) -> "SkewPlusMatrix":
        if not 0 < i <= self.size:
            raise IndexOutOfRange(f"indices [{i}] outside 1..{self.size}")
        return self._on(_face_keep(self.size, i))

    def permuted(self, perm) -> "SkewPlusMatrix":
        return SkewPlusMatrix(SkewMatrix.permuted(self, perm), _trusted=True)

    def __repr__(self):
        return f"SkewPlus({SkewMatrix.__repr__(self)})"


def _as_certified(a) -> SkewPlusMatrix:
    if isinstance(a, SkewPlusMatrix):
        return a
    if isinstance(a, SkewMatrix):
        return SkewPlusMatrix.certify(a)
    raise NotSkewPlus(f"expected a skew matrix, got {type(a).__name__}")


def _indices(size: int, indices, error=IndexOutOfRange):
    """`indices` sorted, checked to be distinct and in 1..size."""
    idx = sorted(indices)
    if idx and not 1 <= idx[0] <= idx[-1] <= size:
        raise error(f"indices {idx} outside 1..{size}")
    if len(set(idx)) != len(idx):
        raise error("repeated index")
    return idx


def _kept(size: int, drop, error=IndexOutOfRange):
    """The indices 1..size not in `drop`, all of which must lie in 1..size."""
    drop = set(drop)
    if drop and not 1 <= min(drop) <= max(drop) <= size:
        raise error(f"indices {sorted(drop)} outside 1..{size}")
    return [i for i in range(1, size + 1) if i not in drop]

