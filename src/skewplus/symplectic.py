"""The standard symplectic space, its isometry groups, and Witt extension.

R^{2n} carries the block form psi_{2n}, a direct sum of n copies of
[[0,1],[-1,0]]; basis vector e_{2k-1} pairs to 1 with e_{2k}.  The even
group Sp_{2n} consists of the 2n x 2n matrices preserving the form.  The
odd group of rank 2n+1 is the subgroup of Sp_{2n+2} fixing e_1; its
elements are stored as their (2n+2) x (2n+2) matrices and have the block
shape

    [ 1  c  u^t psi M ]
    [ 0  1      0     ]
    [ 0  u      M     ]        with M in Sp_{2n}, u in R^{2n}, c in R.

Vectors are plain tuples of scalars; `ring_form` takes them as tuples of
their canonical values (`Scalar.value`), as sequences store them.
Odd-length tuples are allowed in pairings; the missing last coordinate
pairs with nothing, which matches viewing R^{2n-1} inside R^{2n}.

The rotation psi is written once, in `apply_psi`.  A `Subspace` checks
its basis once, by its rank in the ring; what Witt extension adjoins to
a checked basis is independent by construction and is not checked.
"""

from __future__ import annotations

import operator

from .errors import (
    BadIndices,
    BadParity,
    Degenerate,
    NotIsometry,
    NotNonDegenerate,
    RankMismatch,
    ShapeMismatch,
)
from .fields import Field, Scalar, as_scalars, as_values
from .matrices import Matrix, ring_rank
from .pfaffian import SkewMatrix


def psi_matrix(field: Field, dim: int) -> Matrix:
    """Gram matrix of the standard form on R^dim (dim even)."""
    if dim % 2 != 0:
        raise BadParity("the standard form lives on even-dimensional space")
    zero, one = field.zero(), field.one()
    rows = [[zero] * dim for _ in range(dim)]
    for k in range(0, dim, 2):
        rows[k][k + 1] = one
        rows[k + 1][k] = -one
    return Matrix._of(field, rows)


# Pairings run in the ring R of `field.ring()`: a sequence of vectors is
# cleared once by one common L, and <x, y> = sum_k x_k (psi y)_k with
# psi y = (y_2, -y_1, y_4, -y_3, ...) is one dot product in R over L^2,
# reduced once.  psi y stops at the last even coordinate, so an odd last
# coordinate of x pairs with nothing.

def apply_psi(v, neg):
    """psi v, as above, for a row v of ring elements and the ring's neg."""
    return [x for k in range(0, len(v) - 1, 2) for x in (v[k + 1], neg(v[k]))]


def ring_form(field: Field, vectors):
    """(L, [L v_i], [L psi v_i]) in the ring of `field`, for one common L
    that clears every v_i, each given by the canonical values of its
    coordinates: <v_i, v_j> = dot(L v_i, L psi v_j) / L^2."""
    ring = field.ring()
    scale, rows = ring.clear(vectors)
    return scale, rows, [apply_psi(c, ring.neg) for c in rows]


def pairing(x, y) -> Scalar:
    """Standard symplectic pairing of two equal-length tuple vectors."""
    if len(x) != len(y):
        raise ShapeMismatch("pairing of vectors of different lengths")
    if not x:
        raise ShapeMismatch("pairing needs at least one coordinate")
    field = x[0].field
    scale, (cx, _), (_, psi_y) = ring_form(field, [as_values(field, x), as_values(field, y)])
    ring = field.ring()
    return ring.to_scalar(ring.dot(cx, psi_y), scale, 2)


def gram(vectors, field: Field | None = None) -> SkewMatrix:
    """Gram matrix of a sequence of vectors under the standard form."""
    vectors = [tuple(v) for v in vectors]
    if field is None:
        if not vectors or not vectors[0]:
            raise ShapeMismatch("a sequence without coordinates needs an explicit field")
        field = vectors[0][0].field
    q = len(vectors)
    if q > 1 and any(len(v) != len(vectors[0]) for v in vectors):
        raise ShapeMismatch("pairing of vectors of different lengths")
    if q > 1 and not vectors[0]:
        raise ShapeMismatch("pairing needs at least one coordinate")
    return form_gram(field, ring_form(field, [as_values(field, v) for v in vectors]))


def form_gram(field: Field, form) -> SkewMatrix:
    """The Gram matrix of the vectors whose `ring_form` is `form`."""
    scale, rows, psi = form
    ring = field.ring()
    dot, to_value = ring.dot, ring.to_value
    return SkewMatrix._of(field, len(rows),
                          tuple(to_value(dot(ci, psi_j), scale, 2)
                                for i, ci in enumerate(rows) for psi_j in psi[i + 1:]))


def pad_vector(v, dim: int, field: Field):
    v = tuple(v)
    if len(v) > dim:
        if any(not x.is_zero() for x in v[dim:]):
            raise ShapeMismatch("cannot truncate nonzero coordinates")
        return v[:dim]
    return v + tuple(field.zero() for _ in range(dim - len(v)))


class SymplecticSpace:
    """The standard symplectic space R^{2n} over a fixed field."""

    __slots__ = ("field", "half_rank")

    def __init__(self, field: Field, half_rank: int):
        if half_rank < 0:
            raise BadIndices("half rank must be nonnegative")
        self.field = field
        self.half_rank = half_rank

    @property
    def dim(self) -> int:
        return 2 * self.half_rank

    def basis_vector(self, i: int):
        if not 1 <= i <= self.dim:
            raise BadIndices(f"e_{i} outside dimension {self.dim}")
        zero = self.field.zero()
        return tuple(self.field.one() if k == i - 1 else zero for k in range(self.dim))

    def random_vector(self, rng, bound: int):
        return tuple(self.field.sample(rng, bound) for _ in range(self.dim))

    def __eq__(self, other):
        return (isinstance(other, SymplecticSpace) and self.field == other.field
                and self.half_rank == other.half_rank)

    def __hash__(self):
        return hash((self.field, self.half_rank))

    def __repr__(self):
        return f"SymplecticSpace(2n={self.dim}, {self.field!r})"


# ---------------------------------------------------------------------------
# group membership and standard elements
# ---------------------------------------------------------------------------

def realized_dim(size: int) -> int:
    """Matrix dimension realizing rank `size`: 2n for even, 2n+2 for odd."""
    if size < 0:
        raise BadIndices("rank must be nonnegative")
    return size if size % 2 == 0 else size + 1


def is_sp_member(m: Matrix, size: int) -> bool:
    """m^t psi m = psi, read as the Gram matrix of the columns, plus m e_1 =
    e_1 for odd rank, which gives the rest of the block shape: row 2 is
    e_2^t as <e_1, m x> = <e_1, x>, and the top-right block is u^t psi M
    as <m e_2, m e_j> = 0 for j >= 3."""
    dim = realized_dim(size)
    if m.rows != dim or m.cols != dim:
        raise ShapeMismatch(f"rank {size} needs a {dim}x{dim} matrix")
    if dim == 0:
        return True
    field = m.field
    zero, one = field.zero(), field.one()
    psi = SkewMatrix._of(field, dim, tuple(one.value if j == i + 1 and i % 2 == 0 else zero.value
                                           for i in range(dim) for j in range(i + 1, dim)))
    if gram(zip(*m.data), field) != psi:
        return False
    return size % 2 == 0 or m.col(1) == (one,) + (zero,) * (dim - 1)


class SpMatrix:
    """A validated element of the rank-`size` symplectic group."""

    __slots__ = ("size", "matrix")

    def __init__(self, matrix: Matrix, size: int):
        if not is_sp_member(matrix, size):
            raise NotIsometry(f"matrix is not in the rank-{size} symplectic group")
        self.size = size
        self.matrix = matrix

    @property
    def field(self):
        return self.matrix.field

    def __mul__(self, other: "SpMatrix") -> "SpMatrix":
        if self.size != other.size:
            raise ShapeMismatch("product of group elements of different rank")
        return SpMatrix(self.matrix * other.matrix, self.size)

    def inverse(self) -> "SpMatrix":
        return SpMatrix(self.matrix.inverse(), self.size)

    def apply(self, v):
        return self.matrix.apply_vector(v)

    def __eq__(self, other):
        return (isinstance(other, SpMatrix) and self.size == other.size
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.size, self.matrix))

    def __repr__(self):
        return f"SpMatrix(rank {self.size}, {self.matrix!r})"


def elementary(field: Field, i: int, j: int, a, dim: int) -> Matrix:
    """Identity plus `a` at the (i, j) spot, i != j."""
    if i == j:
        raise BadIndices("elementary matrix needs i != j")
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise BadIndices(f"spot ({i},{j}) outside dimension {dim}")
    rows = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
    rows[i - 1][j - 1] = a
    return Matrix(field, rows)


def transvection(space: SymplecticSpace, v, a) -> Matrix:
    """The symplectic transvection x -> x + a <x, v> v, in closed form:
    <x, v> = x . psi v, so its matrix is I + a v (psi v)^t."""
    field = space.field
    v = as_scalars(field, v)
    if len(v) != space.dim:
        raise ShapeMismatch(f"transvection vector of length {len(v)} in R^{space.dim}")
    a = field.scalar(a)
    zero, one = field.zero(), field.one()
    coeffs = [a * x for x in apply_psi(v, operator.neg)]
    return Matrix._of(field, [[(one if i == j else zero) + c * x for j, c in enumerate(coeffs)]
                              for i, x in enumerate(v)], space.dim)


def random_sp(space: SymplecticSpace, rng, steps: int = 6, bound: int = 5) -> SpMatrix:
    """A pseudorandom even group element: a product of transvections."""
    m = Matrix.identity(space.field, space.dim)
    for _ in range(steps):
        v = space.random_vector(rng, bound)
        if all(x.is_zero() for x in v):
            continue
        m = m * transvection(space, v, space.field.sample(rng, bound))
    return SpMatrix(m, space.dim)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of R^{2n} given by an independent basis, checked by the
    rank of the basis cleared into the ring of the field."""

    __slots__ = ("space", "basis")

    def __init__(self, space: SymplecticSpace, basis):
        field = space.field
        basis = tuple(pad_vector(as_scalars(field, v), space.dim, field) for v in basis)
        ring = field.ring()
        if ring_rank(ring, ring.clear([[x.value for x in v] for v in basis])[1]) != len(basis):
            raise ShapeMismatch("basis vectors are dependent")
        self.space = space
        self.basis = basis

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> SkewMatrix:
        return gram(self.basis, self.space.field)

    def __repr__(self):
        return f"Subspace(rank {self.rank} of R^{self.space.dim})"


def _pairing_matrix(space: SymplecticSpace, vectors) -> Matrix:
    """Rows are the functionals <., v_i> = psi v_i on R^{2n}, for vectors
    v_i of R^{2n} given as scalars."""
    return Matrix._of(space.field, [apply_psi(v, operator.neg) for v in vectors], space.dim)


def _radical(v: Subspace):
    """(c, x): the kernel vector c of V's Gram matrix, and x = sum c_i v_i."""
    g = v.gram().full_matrix()
    kernel = g.nullspace()
    if len(kernel) != 1:
        raise NotNonDegenerate(
            f"restricted form has radical of rank {len(kernel)}, expected 1")
    coeffs = kernel[0]
    return coeffs, Matrix.from_columns(v.space.field, v.basis).apply_vector(coeffs)


def _corank1_piece(basis, coeffs):
    """The basis without its last vector whose radical coefficient is nonzero.

    The kernel of an odd Gram matrix of corank 1 is spanned by
    ((-1)^i Pf(Gram without i))_i, so dropping vector i leaves an
    invertible Gram matrix exactly when c_i is nonzero; the last such i
    gives the first such (rank-1)-subset in lexicographic order."""
    drop = max(i for i, c in enumerate(coeffs) if not c.is_zero())
    return list(basis[:drop]) + list(basis[drop + 1:])


def _partner(space: SymplecticSpace, v0, x):
    """A y orthogonal to every vector of v0 with <x, y> = 1, solved as
    <y, v> = 0 for v in v0 and <y, x> = -1 in the functionals of
    `_pairing_matrix`."""
    rows = _pairing_matrix(space, list(v0) + [x])
    rhs = Matrix.column(space.field, [0] * len(v0) + [-1])
    return tuple(rows.solve_any(rhs).col(1))


def symplectic_basis(vectors):
    """A basis of the non-degenerate even-rank span of the independent
    `vectors`, whose Gram matrix is psi; the independence is not checked.

    Pairs are peeled off greedily: take the first remaining vector, find
    the first partner it pairs with, scale the partner to pairing 1, and
    project the rest onto the orthogonal complement of the pair.
    """
    if len(vectors) % 2 != 0:
        raise Degenerate("odd rank subspace has no symplectic basis")
    work = list(vectors)
    out = []
    while work:
        a = work.pop(0)
        for idx, u in enumerate(work):
            ab = pairing(a, u)
            if not ab.is_zero():
                break
        else:
            raise Degenerate("restricted form is degenerate")
        b = tuple(x / ab for x in work.pop(idx))
        out.extend([a, b])
        reduced = []
        for w in work:
            ca = pairing(a, w)
            cb = pairing(b, w)
            # w + <b,w> a - <a,w> b is orthogonal to both a and b
            reduced.append(tuple(x + cb * ya - ca * yb
                                 for x, ya, yb in zip(w, a, b)))
        work = reduced
    return tuple(out)


def orthogonal_complement(space: SymplecticSpace, basis):
    """A basis of V^perp, for V spanned by `basis` (scalar vectors of
    R^{2n}): the nullspace basis of the functionals <., v_i>, independent
    by construction; the standard basis for empty V."""
    return _pairing_matrix(space, basis).nullspace()


def witt_extend(space: SymplecticSpace, v_basis, w_basis) -> SpMatrix:
    """Extend the basis map v_i -> w_i between non-degenerate subspaces
    with equal Gram matrices to an isometry of the whole space.

    Odd rank: adjoin hyperbolic partners of the two radical generators
    (images matching under the given map), which leaves the even case.
    Even rank: complete both sides by symplectic bases of the orthogonal
    complements and map one full basis to the other.  The inputs are
    checked once; the vectors adjoined to them are independent of them
    by construction.
    """
    field = space.field
    v_basis = [pad_vector(v, space.dim, field) for v in v_basis]
    w_basis = [pad_vector(w, space.dim, field) for w in w_basis]
    if len(v_basis) != len(w_basis):
        raise RankMismatch(f"{len(v_basis)} vectors against {len(w_basis)}")
    V = Subspace(space, v_basis)
    W = Subspace(space, w_basis)
    if V.gram() != W.gram():
        raise NotIsometry("the prescribed map does not preserve the form")

    v_basis, w_basis = list(V.basis), list(W.basis)
    if V.rank % 2 == 1:
        # x = sum c_i v_i generates the radical of V; Gram(W) = Gram(V),
        # so y = sum c_i w_i generates that of W, and the map sends x to y
        coeffs, x = _radical(V)
        y = Matrix.from_columns(field, w_basis).apply_vector(coeffs)
        # one even non-degenerate corank-1 piece serves both sides
        v_basis.append(_partner(space, _corank1_piece(v_basis, coeffs), x))
        w_basis.append(_partner(space, _corank1_piece(w_basis, coeffs), y))
    if len(v_basis) < space.dim:
        v_basis += symplectic_basis(orthogonal_complement(space, v_basis))
        w_basis += symplectic_basis(orthogonal_complement(space, w_basis))
    g = Matrix.from_columns(field, w_basis) * Matrix.from_columns(field, v_basis).inverse()
    return SpMatrix(g, space.dim)
