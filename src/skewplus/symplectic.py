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
"""

from __future__ import annotations

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
from .matrices import Matrix, _products
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
        if not vectors:
            raise ShapeMismatch("empty sequence needs an explicit field")
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


def standard_basis_vector(field: Field, dim: int, i: int):
    if not 1 <= i <= dim:
        raise BadIndices(f"e_{i} outside dimension {dim}")
    return tuple(field.one() if k == i - 1 else field.zero() for k in range(dim))


def pad_vector(v, dim: int, field: Field):
    v = tuple(v)
    if len(v) > dim:
        if any(not x.is_zero() for x in v[dim:]):
            raise ShapeMismatch("cannot truncate nonzero coordinates")
        return v[:dim]
    return v + tuple(field.zero() for _ in range(dim - len(v)))


class SymplecticSpace:
    """The standard symplectic space R^{2n} over a fixed field."""

    __slots__ = ("field", "half_rank", "_hash")

    def __init__(self, field: Field, half_rank: int):
        if half_rank < 0:
            raise BadIndices("half rank must be nonnegative")
        self.field = field
        self.half_rank = half_rank
        self._hash = None

    @property
    def dim(self) -> int:
        return 2 * self.half_rank

    def psi(self) -> Matrix:
        return psi_matrix(self.field, self.dim)

    def basis_vector(self, i: int):
        return standard_basis_vector(self.field, self.dim, i)

    def random_vector(self, rng, bound: int):
        return tuple(self.field.sample(rng, bound) for _ in range(self.dim))

    def __eq__(self, other):
        return (isinstance(other, SymplecticSpace) and self.field == other.field
                and self.half_rank == other.half_rank)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.half_rank))
        return self._hash

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
    """The symplectic transvection x -> x + a <x, v> v."""
    field = space.field
    dim = space.dim
    a = field.scalar(a)
    cols = []
    for i in range(1, dim + 1):
        e = space.basis_vector(i)
        coeff = a * pairing(e, v)
        cols.append(tuple(x + coeff * y for x, y in zip(e, v)))
    return Matrix.from_columns(field, cols)


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
    """A subspace of R^{2n} given by an independent basis."""

    __slots__ = ("space", "basis")

    def __init__(self, space: SymplecticSpace, basis):
        basis = tuple(pad_vector(as_scalars(space.field, v), space.dim, space.field)
                      for v in basis)
        if basis:
            m = Matrix.from_columns(space.field, basis)
            if m.rank() != len(basis):
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
    """Rows are the functionals <v_i, .> = (-v_2, v_1, -v_4, v_3, ...) on
    R^{2n}, for vectors v_i of R^{2n}."""
    rows = []
    for v in vectors:
        v = as_scalars(space.field, v)
        rows.append([x for k in range(0, space.dim, 2) for x in (-v[k + 1], v[k])])
    return Matrix._of(space.field, rows)


def _radical(v: Subspace):
    """(c, x): the kernel vector c of V's Gram matrix, and x = sum c_i v_i."""
    g = v.gram().full_matrix()
    kernel = g.nullspace()
    if len(kernel) != 1:
        raise NotNonDegenerate(
            f"restricted form has radical of rank {len(kernel)}, expected 1")
    coeffs = kernel[0]
    return coeffs, _combination(v.space.field, coeffs, v.basis)


def _combination(field: Field, coeffs, basis):
    """sum_i coeffs[i] basis[i], for scalars and vectors of `field`."""
    return tuple(x for (x,) in _products(field, zip(*basis), [coeffs]))


def _corank1_piece(basis, coeffs):
    """The basis without its last vector whose radical coefficient is nonzero.

    The kernel of an odd Gram matrix of corank 1 is spanned by
    ((-1)^i Pf(Gram without i))_i, so dropping vector i leaves an
    invertible Gram matrix exactly when c_i is nonzero; the last such i
    gives the first such (rank-1)-subset in lexicographic order."""
    drop = max(i for i, c in enumerate(coeffs) if not c.is_zero())
    return list(basis[:drop]) + list(basis[drop + 1:])


def _partner(space: SymplecticSpace, v0, x):
    """A y orthogonal to every vector of v0 with <x, y> = 1."""
    rows = _pairing_matrix(space, list(v0) + [x])
    rhs = Matrix.column(space.field, [0] * len(v0) + [1])
    return tuple(rows.solve_any(rhs).col(1))


def symplectic_basis(v: Subspace):
    """A basis of non-degenerate even-rank V whose Gram matrix is psi.

    Pairs are peeled off greedily: take the first remaining vector, find
    the first partner it pairs with, scale the partner to pairing 1, and
    project the rest onto the orthogonal complement of the pair.
    """
    if v.rank % 2 != 0:
        raise Degenerate("odd rank subspace has no symplectic basis")
    work = list(v.basis)
    out = []
    while work:
        a = work.pop(0)
        partner = None
        for idx, u in enumerate(work):
            if not pairing(a, u).is_zero():
                partner = idx
                break
        if partner is None:
            raise Degenerate("restricted form is degenerate")
        b = work.pop(partner)
        b = tuple(x / pairing(a, b) for x in b)
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


def orthogonal_complement(v: Subspace) -> Subspace:
    """V^perp inside the ambient space."""
    if v.rank == 0:
        return Subspace(v.space, [v.space.basis_vector(i)
                                  for i in range(1, v.space.dim + 1)])
    rows = _pairing_matrix(v.space, v.basis)
    return Subspace(v.space, rows.nullspace())


def witt_extend(space: SymplecticSpace, v_basis, w_basis) -> SpMatrix:
    """Extend the basis map v_i -> w_i between non-degenerate subspaces
    with equal Gram matrices to an isometry of the whole space.

    Even rank: complete both sides by symplectic bases of the orthogonal
    complements and map one full basis to the other.  Odd rank: adjoin
    hyperbolic partners of the two radical generators (images matching
    under the given map) and reduce to the even case.
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

    if V.rank % 2 == 1:
        # x = sum c_i v_i generates the radical of V; Gram(W) = Gram(V),
        # so y = sum c_i w_i generates that of W, and the map sends x to y
        coeffs, x = _radical(V)
        y = _combination(field, coeffs, W.basis)
        # one even non-degenerate corank-1 piece serves both sides
        return witt_extend(
            space,
            v_basis + [_partner(space, _corank1_piece(v_basis, coeffs), x)],
            w_basis + [_partner(space, _corank1_piece(w_basis, coeffs), y)])

    ext_v = symplectic_basis(orthogonal_complement(V)) if V.rank < space.dim else ()
    ext_w = symplectic_basis(orthogonal_complement(W)) if W.rank < space.dim else ()
    p = Matrix.from_columns(field, list(v_basis) + list(ext_v))
    q = Matrix.from_columns(field, list(w_basis) + list(ext_w))
    g = q * p.inverse()
    return SpMatrix(g, space.dim)
