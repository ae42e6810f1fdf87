"""Canonical sections of the Gram map.

For a certified skew matrix A of size q <= 2n+1 there is exactly one
sequence in U_q(R^{2n}), up to nothing at all, satisfying the recursion
implemented here; it maps to A under the Gram matrix and is compatible
with dropping the last index and with enlarging the ambient space.

The construction builds the sequence in the smallest possible number of
coordinates.  For odd length 2r+1 there are two variants: the "snug"
one, whose last vector is the unique w in R^{2r} with prescribed
pairings against the previously built basis of R^{2r}, and the "roomy"
one, which adds e_{2r+1} to w so the sequence can keep growing.  The
snug variant is what a maximal-length section (q = 2n+1) returns; the
roomy one feeds the even step, which appends

    v_q = w_q + (A_{q-1,q} - <v_{q-1}, w_q>) e_q.

`section_v_det1` post-composes the snug odd section with a determinant
correction along e_q, producing an upper triangular matrix of columns
with determinant exactly 1 and unchanged Gram matrix.
"""

from __future__ import annotations

from .errors import BadRange, EvenSize, InternalInvariant, Singular
from .matrices import Matrix
from .pfaffian import _as_certified
from .symplectic import SymplecticSpace, pad_vector, pairing, psi_matrix
from .unimod import NonDegSeq


def _pairing_padded(x, y, field):
    n = max(len(x), len(y))
    if n % 2 == 1:
        n += 1
    return pairing(pad_vector(x, n, field), pad_vector(y, n, field))


def _solve_last(prefix, a_col, field):
    """The unique w in R^{2r} with <v_i, w> = a_i against the basis prefix."""
    r2 = len(prefix)
    if r2 == 0:
        return ()
    p = Matrix.from_columns(field, [pad_vector(v, r2, field) for v in prefix])
    lhs = p.transpose() * psi_matrix(field, r2)
    rhs = Matrix.column(field, a_col)
    try:
        return tuple(lhs.solve(rhs).col(1))
    except Singular as exc:
        raise InternalInvariant(
            "prefix Gram matrix is singular despite the certificate") from exc


def _section(a, roomy: bool):
    """Vectors of the section of `a`, each in its minimal coordinates,
    built in one pass: every odd vector but a snug last one is roomy."""
    field = a.field
    q = a.size
    vectors = []
    for k in range(1, q + 1):
        if k % 2 == 1:
            w = _solve_last(vectors, [a.entry(i, k) for i in range(1, k)], field)
            extra = field.one() if k < q or roomy else None
        else:
            w = _solve_last(vectors[:-1], [a.entry(i, k) for i in range(1, k - 1)], field)
            extra = a.entry(k - 1, k) - _pairing_padded(vectors[-1], w, field)
        if extra is not None:
            w = pad_vector(w, k, field)
            w = w[:-1] + (w[-1] + extra,)
        vectors.append(w)
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
    vectors = _section(a.inner, roomy=(q % 2 == 1 and q < two_n + 1))
    seq = NonDegSeq(space, [pad_vector(v, two_n, a.field) for v in vectors],
                    _trusted=True)
    if seq.gram() != a.inner:
        raise InternalInvariant("section does not invert the Gram map")
    return seq


def section_v_det1(a) -> NonDegSeq:
    """Upper triangular section with determinant 1, for odd-size matrices.

    The columns v_1..v_q satisfy v_i in span(e_1..e_i), det(v_1..v_q) = 1,
    and Gram = a.  They are returned padded into R^{q+1}, with the last
    coordinate of every vector zero.
    """
    a = _as_certified(a)
    q = a.size
    if q % 2 == 0:
        raise EvenSize(f"this section needs odd size, got {q}")
    vectors = _section(a.inner, roomy=False)
    field = a.field
    if q > 1:
        block = Matrix.from_columns(
            field, [pad_vector(v, q - 1, field) for v in vectors[:-1]])
        det_block = block.det()
    else:
        det_block = field.one()
    last = pad_vector(vectors[-1], q, field)
    last = last[:-1] + (last[-1] + det_block.inv(),)
    vectors = vectors[:-1] + [last]
    space = SymplecticSpace(field, (q + 1) // 2)
    seq = NonDegSeq(space, [pad_vector(v, q + 1, field) for v in vectors],
                    _trusted=True)
    if seq.gram() != a.inner:
        raise InternalInvariant("triangular section does not invert the Gram map")
    full = Matrix.from_columns(field, [v[:q] for v in seq.vectors])
    if full.det() != field.one():
        raise InternalInvariant("triangular section has determinant != 1")
    return seq
