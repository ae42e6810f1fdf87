"""Canonical sections of the Gram map.

For a certified skew matrix A of size q <= 2n+1 there is exactly one
sequence in U_q(R^{2n}), up to nothing at all, satisfying the recursion
implemented here; it maps to A under the Gram matrix and is compatible
with dropping the last index and with enlarging the ambient space.

The construction builds the sequence in the smallest possible number of
coordinates: v_k lies in span(e_1..e_k) with a nonzero k-th coordinate,
so the pairings <v_i, w> = A_ik (i < k) are triangular in u = psi w,
solved by one fraction-free forward substitution in the ring of the
field, and w = -psi u = (-u_2, u_1, -u_4, u_3, ...) with u padded by a
zero to even length.  For odd length 2r+1 there are two variants: the "snug"
one, whose last vector is that w in R^{2r}, and the "roomy" one, which
adds e_{2r+1} to w so the sequence can keep growing.  The snug variant
is what a maximal-length section (q = 2n+1) returns; the roomy v_{k-1}
ends in 1, so at even k the substitution ends in
v_k = w + (A_{k-1,k} - <v_{k-1}, w>) e_k, w solving against v_1..v_{k-2}.
All the vectors come from one substitution with every column of A as a
right-hand side: each v_k is cleared into the ring once, with its
entries A_{k,k+1..q}, as a row of every later vector's system.

`_det1_vectors` post-composes the snug odd section with a determinant
correction along e_q, producing an upper triangular matrix of columns
with determinant exactly 1 and unchanged Gram matrix; it checks nothing.
`_det1_checked` is its one checker, in the ring against a ring form of
the matrix; `section_v_det1` and the gamma oracle both go through it.
The coordinates pass from the ring to the sequence, and from a vector to
the next vector's system, as canonical values (`Scalar.value`).
"""

from __future__ import annotations

from functools import reduce

from .errors import BadRange, EvenSize, InternalInvariant
from .fields import Scalar
from .pfaffian import _as_certified
from .symplectic import SymplecticSpace, apply_psi
from .unimod import NonDegSeq


def _substitute(ring, den, nums, row, rhs):
    """One row of a fraction-free forward substitution in the ring R with
    several right-hand sides: for each column c, nums[c] holds u^c_1..
    u^c_{i-1} times den, the product of the pivots so far, and the row
    (m_1..m_i) and rhs[c] = b^c are the ring elements of the equation
    m_1 u^c_1 + ... + m_i u^c_i = b^c.  Appends u^c_i to each nums[c],
    rescaling the others by the pivot m_i, and returns the new den."""
    mul = ring.mul
    *m, pivot = row
    if not pivot:
        raise InternalInvariant("prefix Gram matrix is singular despite the certificate")
    for col, b in zip(nums, rhs):
        col[:] = [mul(x, pivot) for x in col] + [ring.sub(mul(den, b), ring.dot(m, col))]
    return mul(den, pivot)


def _section(a, roomy: bool):
    """Vectors of the section of `a`, each in its minimal coordinates and
    given by the canonical values of its coordinates, by one forward
    substitution with every column of `a` as a right-hand side: v_k
    solves the rows of v_1..v_{k-1}, and its own row, cleared once with
    the entries a_{k,k+1..q}, then enters the columns after k.  Every odd
    vector but a snug last one is roomy."""
    field = a.field
    q = a.size
    ring = field.ring()
    one, upper = field.one().value, a.value_rows()
    den, nums = ring.one, [[] for _ in range(q)]
    vectors = []
    for k in range(1, q + 1):
        u = nums[k - 1] + [ring.zero] * ((k - 1) % 2)
        # w = -psi u, so psi w = u and <v_i, w> = v_i . u
        minus_den = ring.neg(den)
        w = tuple(ring.to_value(x, minus_den, 1) for x in apply_psi(u, ring.neg))
        if k % 2 == 1 and (k < q or roomy):
            w += (one,)
        vectors.append(w)
        if k < q:
            # upper[k - 1] is (a_{k,k+1}, ..., a_{k,q})
            _, (row,) = ring.clear([w[:k] + upper[k - 1]])
            den = _substitute(ring, den, nums[k:], row[:k], row[k:])
    return vectors


def section_V(q: int, two_n: int, a) -> NonDegSeq:
    """The canonical length-q sequence in R^{two_n} with Gram matrix `a`.

    Defined for 0 <= q <= two_n + 1.  The result is deterministic, stable
    under enlarging the ambient space, and drops its last vector onto the
    section of the reduced matrix.
    """
    if two_n < 0 or two_n % 2 != 0 or not 0 <= q <= two_n + 1:
        raise BadRange(f"need 0 <= q <= 2n+1, got q={q}, 2n={two_n}")
    a = _as_certified(a)
    if a.size != q:
        raise BadRange(f"matrix size {a.size} does not match q={q}")
    space = SymplecticSpace(a.field, two_n // 2)
    seq = NonDegSeq._padded(space, _section(a.inner, roomy=(q % 2 == 1 and q < two_n + 1)))
    if seq.gram() != a.inner:
        raise InternalInvariant("section does not invert the Gram map")
    return seq


def _det1_vectors(a):
    """The vectors of `section_v_det1` for the odd-size skew matrix `a`, as
    tuples of canonical values, taken as certified and not checked: the
    snug section, v_k in its first k coordinates, with 1 / (the product of
    the first q - 1 diagonal entries) added to the zero q-th coordinate of
    the last vector."""
    vectors = _section(a, roomy=False)
    field = a.field
    # the first q - 1 vectors are upper triangular: the determinant of
    # their block is the product of the diagonal
    det_block = field.one()
    for i, v in enumerate(vectors[:-1]):
        det_block = det_block * Scalar(field, v[i])
    return vectors[:-1] + [vectors[-1] + (det_block.inv().value,)]


def _det1_checked(a, scale, upper):
    """(vectors, l, rows): `_det1_vectors(a)` for the odd-size `a`, with
    rows[k] = l v_k padded to q + 1, checked against the ring form (L,
    upper) of `a`: v_k in span(e_1..e_k), dot(l v_x, l psi v_y) L =
    (L a_xy) l^2, and the diagonal multiplies to l^q (det = 1)."""
    q, ring = a.size, a.field.ring()
    mul, equal = ring.mul, ring.equal
    vectors = _det1_vectors(a)
    ell, rows = ring.clear(vectors)
    rows = [row + [ring.zero] * (q + 1 - len(row)) for row in rows]
    if any(any(row[x + 1:]) for x, row in enumerate(rows)):
        raise InternalInvariant("corner section is not triangular")
    psi, ell_2 = [apply_psi(v, ring.neg) for v in rows], mul(ell, ell)
    if any(not equal(mul(ring.dot(rows[x], psi[y]), scale), mul(value, ell_2))
           for x, entries in enumerate(upper) for y, value in enumerate(entries, start=x + 1)):
        raise InternalInvariant("corner Gram does not match the matrix")
    if not equal(reduce(mul, (row[x] for x, row in enumerate(rows))), reduce(mul, [ell] * q)):
        raise InternalInvariant("corner section has determinant != 1")
    return vectors, ell, rows


def section_v_det1(a) -> NonDegSeq:
    """Upper triangular section with determinant 1, for odd-size matrices.

    The columns v_1..v_q satisfy v_i in span(e_1..e_i), det(v_1..v_q) = 1,
    and Gram = a.  They are returned padded into R^{q+1}, with the last
    coordinate of every vector zero, and checked by `_det1_checked`.
    """
    a = _as_certified(a)
    q = a.size
    if q % 2 == 0:
        raise EvenSize(f"this section needs odd size, got {q}")
    vectors, _, _ = _det1_checked(a.inner, *a.inner.ring_form())
    return NonDegSeq._padded(SymplecticSpace(a.field, (q + 1) // 2), vectors)
