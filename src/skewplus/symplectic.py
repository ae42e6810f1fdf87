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

Vectors are plain tuples of scalars.  Odd-length tuples are allowed in
pairings; the missing last coordinate pairs with nothing, which matches
viewing R^{2n-1} inside R^{2n}.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    BadIndices,
    BadParity,
    Degenerate,
    NotIsometry,
    NotNonDegenerate,
    RankMismatch,
    ShapeMismatch,
    ZeroUnit,
)
from .fields import Field, Scalar
from .matrices import Matrix
from .pfaffian import SkewMatrix, pf_eliminate


def psi_matrix(field: Field, dim: int) -> Matrix:
    """Gram matrix of the standard form on R^dim (dim even)."""
    if dim % 2 != 0:
        raise BadParity("the standard form lives on even-dimensional space")
    rows = [[0] * dim for _ in range(dim)]
    for k in range(0, dim, 2):
        rows[k][k + 1] = 1
        rows[k + 1][k] = -1
    return Matrix(field, rows)


def pairing(x, y) -> Scalar:
    """Standard symplectic pairing of two equal-length tuple vectors."""
    if len(x) != len(y):
        raise ShapeMismatch("pairing of vectors of different lengths")
    if not x:
        raise ShapeMismatch("pairing needs at least one coordinate")
    field = x[0].field
    acc = field.zero()
    for k in range(0, len(x) - 1, 2):
        acc = acc + x[k] * y[k + 1] - x[k + 1] * y[k]
    return acc


def gram(vectors, field: Field | None = None) -> SkewMatrix:
    """Gram matrix of a sequence of vectors under the standard form."""
    vectors = [tuple(v) for v in vectors]
    if field is None:
        if not vectors:
            raise ShapeMismatch("empty sequence needs an explicit field")
        field = vectors[0][0].field
    q = len(vectors)
    return SkewMatrix(field, q,
                      [[pairing(vectors[i], vectors[j]) for j in range(i + 1, q)]
                       for i in range(q - 1)])


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

    __slots__ = ("field", "half_rank")

    def __init__(self, field: Field, half_rank: int):
        if half_rank < 0:
            raise BadIndices("half rank must be nonnegative")
        self.field = field
        self.half_rank = half_rank

    @property
    def dim(self) -> int:
        return 2 * self.half_rank

    def psi(self) -> Matrix:
        return psi_matrix(self.field, self.dim)

    def basis_vector(self, i: int):
        return standard_basis_vector(self.field, self.dim, i)

    def zero_vector(self):
        return tuple(self.field.zero() for _ in range(self.dim))

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
    """Form preservation, plus the fixed-vector block shape for odd rank."""
    dim = realized_dim(size)
    if m.rows != dim or m.cols != dim:
        raise ShapeMismatch(f"rank {size} needs a {dim}x{dim} matrix")
    if dim == 0:
        return True
    psi = psi_matrix(m.field, dim)
    if m.transpose() * psi * m != psi:
        return False
    if size % 2 == 0:
        return True
    field = m.field
    one, zero = field.one(), field.zero()
    # first column e_1 and second row e_2^t
    for i in range(1, dim + 1):
        if m.entry(i, 1) != (one if i == 1 else zero):
            return False
        if m.entry(2, i) != (one if i == 2 else zero):
            return False
    # top-right block must be u^t psi M with u the second column tail
    u = [m.entry(i, 2) for i in range(3, dim + 1)]
    inner = m.submatrix(range(3, dim + 1), range(3, dim + 1))
    expected = (Matrix(field, [u]) * psi_matrix(field, dim - 2) * inner).row(1)
    for j in range(3, dim + 1):
        if m.entry(1, j) != expected[j - 3]:
            return False
    return True


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

    @property
    def parity(self) -> str:
        return "even" if self.size % 2 == 0 else "odd"

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
    m = Matrix(field, rows)
    data = [list(row) for row in m.data]
    data[i - 1][j - 1] = field.scalar(a)
    return Matrix(field, data)


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
        basis = tuple(pad_vector(v, space.dim, space.field) for v in basis)
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
    """Rows are the functionals <v_i, .> on R^{2n}."""
    field = space.field
    return Matrix(field, [[pairing(v, space.basis_vector(j))
                           for j in range(1, space.dim + 1)] for v in vectors])


def radical_line(v: Subspace):
    """Generator of V cap V^perp for non-degenerate V of odd rank."""
    g = v.gram().full_matrix()
    kernel = g.nullspace()
    if len(kernel) != 1:
        raise NotNonDegenerate(
            f"restricted form has radical of rank {len(kernel)}, expected 1")
    coeffs = kernel[0]
    field = v.space.field
    out = tuple(field.zero() for _ in range(v.space.dim))
    for c, b in zip(coeffs, v.basis):
        out = tuple(x + c * y for x, y in zip(out, b))
    return out


def split_odd_space(v: Subspace):
    """Split odd non-degenerate V as V0 perp Rx, with a partner y for x.

    Returns (V0, x, y): V0 non-degenerate of even rank inside V, x a
    generator of V cap V^perp, and y orthogonal to V0 with <x, y> = 1.
    """
    if v.rank % 2 == 0:
        raise NotNonDegenerate("subspace has even rank")
    x = radical_line(v)
    v0 = [v.basis[i - 1] for i in _corank1_subset(v)]
    return Subspace(v.space, v0), x, _partner(v.space, v0, x)


def _corank1_subset(v: Subspace):
    """The first (rank-1)-subset of the basis with invertible Gram matrix."""
    g = v.gram()
    for subset in combinations(range(1, v.rank + 1), v.rank - 1):
        if not pf_eliminate(g.principal(subset)).is_zero():
            return subset
    raise NotNonDegenerate("no non-degenerate corank-1 subspace found")


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
        x = radical_line(V)
        # express x in the v-basis; the same coefficients give the radical
        # generator of W, which is where the map must send x
        coords = Matrix.from_columns(field, v_basis).solve_any(
            Matrix.column(field, x)).col(1)
        y = tuple(sum((c * wi for c, wi in zip(coords, col)), field.zero())
                  for col in zip(*w_basis))
        # one even non-degenerate corank-1 piece serves both sides
        subset = _corank1_subset(V)
        return witt_extend(
            space,
            v_basis + [_partner(space, [v_basis[i - 1] for i in subset], x)],
            w_basis + [_partner(space, [w_basis[i - 1] for i in subset], y)])

    ext_v = symplectic_basis(orthogonal_complement(V)) if V.rank < space.dim else ()
    ext_w = symplectic_basis(orthogonal_complement(W)) if W.rank < space.dim else ()
    p = Matrix.from_columns(field, list(v_basis) + list(ext_v))
    q = Matrix.from_columns(field, list(w_basis) + list(ext_w))
    g = q * p.inverse()
    return SpMatrix(g, space.dim)


# ---------------------------------------------------------------------------
# embeddings, conjugation, retraction
# ---------------------------------------------------------------------------

def _pad_front(m: Matrix, extra: int) -> Matrix:
    field = m.field
    n = m.rows
    rows = []
    for i in range(extra):
        rows.append([1 if j == i else 0 for j in range(extra)] + [0] * n)
    for r in m.data:
        rows.append([field.zero()] * extra + list(r))
    return Matrix(field, rows)


def embed(a: SpMatrix, target_size: int) -> SpMatrix:
    """Include a group element into a higher-rank group.

    New hyperbolic coordinates are prepended, so the image acts as the
    identity on the added leading block.  Odd rank 2k+1 realizes inside
    rank 2k+2, hence cannot embed into even rank below 2k+2.
    """
    if target_size < a.size:
        raise BadParity("cannot embed into lower rank")
    target_dim = realized_dim(target_size)
    source_dim = realized_dim(a.size)
    if target_dim < source_dim:
        raise BadParity(
            f"rank {a.size} realizes in dimension {source_dim}, "
            f"which does not fit in rank {target_size}")
    return SpMatrix(_pad_front(a.matrix, target_dim - source_dim), target_size)


def t_conjugator(field: Field, b, dim: int) -> Matrix:
    """diag(b, 1/b, identity), the unit acting on the leading plane."""
    b = field.scalar(b)
    if b.is_zero():
        raise ZeroUnit("conjugation unit must be nonzero")
    rows = [[0] * dim for _ in range(dim)]
    m = Matrix(field, rows)
    data = [list(r) for r in m.data]
    data[0][0] = b
    data[1][1] = b.inv()
    for i in range(2, dim):
        data[i][i] = field.one()
    return Matrix(field, data)


def conjugate_Tb(a: SpMatrix, b) -> SpMatrix:
    """Conjugate by diag(b, 1/b, 1).  Fixes even elements pointwise; on
    odd elements it scales the c slot by b^2 and the u slot by b."""
    b = a.field.scalar(b)
    if b.is_zero():
        raise ZeroUnit("conjugation unit must be nonzero")
    if a.size % 2 == 0:
        return a
    dim = realized_dim(a.size)
    t = t_conjugator(a.field, b, dim)
    return SpMatrix(t * a.matrix * t.inverse(), a.size)


def retract_rho(a: SpMatrix) -> SpMatrix:
    """Project an odd element onto its even corner block M."""
    if a.size % 2 == 0:
        raise BadParity("retraction is defined on odd-rank elements")
    dim = realized_dim(a.size)
    block = a.matrix.submatrix(range(3, dim + 1), range(3, dim + 1))
    return SpMatrix(block, a.size - 1)


def odd_parts(a: SpMatrix):
    """The (c, u, M) block data of an odd element."""
    if a.size % 2 == 0:
        raise BadParity("only odd-rank elements have (c, u, M) blocks")
    dim = realized_dim(a.size)
    c = a.matrix.entry(1, 2)
    u = tuple(a.matrix.entry(i, 2) for i in range(3, dim + 1))
    m = a.matrix.submatrix(range(3, dim + 1), range(3, dim + 1))
    return c, u, m
