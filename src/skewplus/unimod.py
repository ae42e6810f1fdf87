"""Non-degenerate unimodular sequences: membership, search, homotopies.

A sequence of q vectors in R^{2n} is unimodular when every subsequence of
length at most min(q, 2n) is linearly independent, and non-degenerate
when additionally every even-sized sub-Gram matrix in that range is
invertible.  Both are read off one table, the even principal Pfaffians
of the whole sequence's Gram matrix up to size min(q, 2n): an even
subsequence with invertible Gram is independent, and so is every part of
it, which leaves only the whole sequence for q odd and below 2n to a rank
check.  One more vector or border adds bordered Pfaffians, each a signed
dot product against the same table.

A vector x is in good position with respect to a sequence v when (v, x)
is again non-degenerate unimodular.  Over an infinite field the bad set
is a finite union of proper subspaces, so random sampling from a growing
coordinate pool succeeds with probability approaching 1; the samplers
here double their pool after every batch of failures and give up with
SamplerExhausted after a caller-set number of attempts (over a finite
prime field exhaustion can be a genuine obstruction).

The two contracting homotopies witness acyclicity of the sequence and
skew complexes: each sends a cycle xi to an eta with d(eta) = xi, built
from one common witness (a good-position vector, respectively a border
vector) serving every generator of xi at once.
"""

from __future__ import annotations

from .chains import FormalSum, boundary
from .errors import (
    NotACycle,
    NotNonDegenerate,
    NotSkewPlus,
    SamplerExhausted,
    ShapeMismatch,
)
from .fields import Field
from .matrices import Matrix
from .pfaffian import (
    SkewMatrix,
    SkewPlusMatrix,
    bordered_pfaffians_nonzero,
    even_principal_pfaffians,
    pf_eliminate,  # noqa: F401  (perfbench's tracer test patches it here)
)
from .symplectic import SymplecticSpace, gram, pad_vector, pairing


class NonDegSeq:
    """A certified non-degenerate unimodular sequence in R^{2n}.

    Faces (and more generally subsequences) inherit the certificate.
    """

    __slots__ = ("space", "vectors", "_hash", "_gram_table")

    def __init__(self, space: SymplecticSpace, vectors, _trusted: bool = False):
        vectors = tuple(pad_vector(v, space.dim, space.field) for v in vectors)
        if not _trusted and not is_nondeg_unimodular(vectors, space):
            raise NotNonDegenerate("sequence fails the membership conditions")
        self.space = space
        self.vectors = vectors
        self._hash = None
        self._gram_table = None

    @classmethod
    def empty(cls, space: SymplecticSpace) -> "NonDegSeq":
        return cls(space, (), _trusted=True)

    @property
    def length(self) -> int:
        return len(self.vectors)

    # FormalSum generators expose their length as `size`
    @property
    def size(self) -> int:
        return self.length

    def face(self, i: int) -> "NonDegSeq":
        """Drop the i-th vector (1-based); certification is inherited."""
        if not 1 <= i <= self.length:
            raise ShapeMismatch(f"face index {i} outside 1..{self.length}")
        return NonDegSeq(self.space,
                         self.vectors[:i - 1] + self.vectors[i:], _trusted=True)

    def subsequence(self, indices) -> "NonDegSeq":
        return NonDegSeq(self.space,
                         tuple(self.vectors[i - 1] for i in indices), _trusted=True)

    def prepend(self, x, _trusted: bool = False) -> "NonDegSeq":
        return NonDegSeq(self.space, (tuple(x),) + self.vectors, _trusted=_trusted)

    def append(self, x, _trusted: bool = False) -> "NonDegSeq":
        return NonDegSeq(self.space, self.vectors + (tuple(x),), _trusted=_trusted)

    def gram(self) -> SkewMatrix:
        return gram(self.vectors, self.space.field)

    def gram_table(self) -> dict:
        """Even principal Pfaffians of the Gram matrix up to size
        min(q, 2n), all nonzero by membership; computed once."""
        if self._gram_table is None:
            self._gram_table = _gram_table(self.vectors, self.space)
        return self._gram_table

    def gram_certified(self) -> SkewPlusMatrix:
        """The Gram matrix with its certificate; valid whenever q <= 2n+1,
        where every even subsequence has length at most 2n."""
        if self.length > self.space.dim + 1:
            raise NotSkewPlus("more than 2n+1 vectors have singular even sub-Grams")
        return SkewPlusMatrix(self.gram(), _trusted=True, _table=self.gram_table())

    def transform(self, g) -> "NonDegSeq":
        """Apply an isometry; membership is preserved."""
        return NonDegSeq(self.space,
                         tuple(g.apply(v) for v in self.vectors), _trusted=True)

    def __eq__(self, other):
        return (isinstance(other, NonDegSeq) and self.space == other.space
                and self.vectors == other.vectors)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.space, self.vectors))
        return self._hash

    def __repr__(self):
        cols = [[x.literal() for x in v] for v in self.vectors]
        return f"NonDegSeq(len {self.length} in R^{self.space.dim}: {cols})"

    def to_json(self) -> dict:
        return {
            "kind": "sequence",
            "field": self.space.field.descriptor(),
            "half_rank": self.space.half_rank,
            "vectors": [[x.literal() for x in v] for v in self.vectors],
        }


def is_nondeg_unimodular(vectors, space: SymplecticSpace) -> bool:
    """Membership test: every even principal Pfaffian of the Gram matrix
    up to size min(q, 2n) is nonzero, and, when q is odd and below 2n,
    the whole sequence has rank q."""
    vectors = [pad_vector(v, space.dim, space.field) for v in vectors]
    if any(v.is_zero() for v in _gram_table(vectors, space).values()):
        return False
    return _full_rank_if_odd(vectors, space)


def _gram_table(vectors, space) -> dict:
    """Even principal Pfaffians of the Gram matrix up to size min(q, 2n)."""
    bound = min(len(vectors), space.dim)
    if bound < 2:
        return {(): space.field.one()}
    return even_principal_pfaffians(gram(vectors, space.field), bound)


def _full_rank_if_odd(vectors, space) -> bool:
    """The one independence condition an even-subset table leaves open."""
    q = len(vectors)
    if q % 2 == 0 or q >= space.dim:
        return True
    return Matrix.from_columns(space.field, vectors).rank() == q


def is_good_position(seq: NonDegSeq, x) -> bool:
    """Whether appending x keeps the sequence non-degenerate unimodular.

    Only the subsets involving x are tested; the rest are covered by the
    certificate of `seq`.  Each even one is a Pfaffian of the Gram matrix
    of seq bordered by the pairings <v_i, x>.
    """
    space = seq.space
    x = pad_vector(x, space.dim, space.field)
    max_size = min(seq.length + 1, space.dim) - 1
    border = [pairing(v, x) for v in seq.vectors] if max_size > 0 else []
    if not bordered_pfaffians_nonzero(seq.gram_table(), border, max_size):
        return False
    return _full_rank_if_odd(seq.vectors + (x,), space)


def _sampler_loop(test, draw, max_attempts, what):
    bound = 8
    attempts = 0
    while attempts < max_attempts:
        for _ in range(16):
            if attempts >= max_attempts:
                break
            attempts += 1
            candidate = draw(bound)
            if test(candidate):
                return candidate
        bound *= 2
    raise SamplerExhausted(f"no {what} found in {max_attempts} attempts "
                           "(pool too small, or the field is too small)")


def good_position_sample(seq: NonDegSeq, rng, max_attempts: int = 256):
    """A random vector in good position with respect to `seq`."""
    space = seq.space
    return _sampler_loop(lambda x: is_good_position(seq, x),
                         lambda bound: space.random_vector(rng, bound),
                         max_attempts, "good-position vector")


def good_position_linear_form(vectors, space: SymplecticSpace):
    """The vector u with Pf(Gram(v_I, x)) = <u, x> for an odd subsequence.

    Expanding the bordered Gram matrix along its last column gives
    u = sum_i (-1)^{i+1} Pf(Gram(v_I minus i-th)) v_i; the complement of
    its orthogonal hyperplane is exactly the good set for the even-Gram
    condition on I plus the new vector.
    """
    vectors = [pad_vector(v, space.dim, space.field) for v in vectors]
    if len(vectors) % 2 != 1:
        raise ShapeMismatch("the linear form is attached to odd subsequences")
    field = space.field
    table = even_principal_pfaffians(gram(vectors, field))
    everything = tuple(range(1, len(vectors) + 1))
    out = tuple(field.zero() for _ in range(space.dim))
    for i, v in enumerate(vectors):
        coeff = table[everything[:i] + everything[i + 1:]]
        if i % 2 == 1:
            coeff = -coeff
        out = tuple(o + coeff * c for o, c in zip(out, v))
    return out


def random_nondeg_seq(space: SymplecticSpace, q: int, rng,
                      max_attempts: int = 256) -> NonDegSeq:
    """A random member of U_q(R^{2n}), grown one good-position step at a time."""
    seq = NonDegSeq.empty(space)
    for _ in range(q):
        x = good_position_sample(seq, rng, max_attempts)
        seq = seq.append(x, _trusted=True)
    return seq


# ---------------------------------------------------------------------------
# star extension of certified skew matrices
# ---------------------------------------------------------------------------

def star_is_certified(a: SkewPlusMatrix, v) -> bool:
    """Whether bordering the certified matrix `a` by v stays certified.

    Only the new even principal submatrices (those through the border
    row) need testing: for every odd subset I of 1..q the bordered
    principal matrix on I plus the new index must have nonzero Pfaffian.
    """
    v = [a.field.scalar(x) for x in v]
    if len(v) != a.size:
        raise ShapeMismatch("border vector has the wrong length")
    return bordered_pfaffians_nonzero(a.table, v, a.size)


def skew_plus_extend(a: SkewPlusMatrix, rng, max_attempts: int = 256):
    """A border vector v with the extension of `a` by v certified."""
    field = a.field
    q = a.size

    def draw(bound):
        return tuple(field.sample(rng, bound) for _ in range(q))

    return _sampler_loop(lambda v: star_is_certified(a, v), draw,
                         max_attempts, "certified border vector")


def star_extend_certified(a: SkewPlusMatrix, v) -> SkewPlusMatrix:
    if not star_is_certified(a, v):
        raise ShapeMismatch("border vector does not certify")
    return SkewPlusMatrix(a.inner.star_extend(v), _trusted=True)


# ---------------------------------------------------------------------------
# contracting homotopies
# ---------------------------------------------------------------------------

def contract_cycle_seq(xi: FormalSum, rng, max_attempts: int = 512) -> FormalSum:
    """For a cycle of sequences, an eta with d(eta) = xi.

    One vector x in good position with respect to every generator is
    prepended throughout: d(x, xi) = xi - (x, d xi) = xi.
    """
    if xi.is_zero():
        return FormalSum.zero()
    if not boundary(xi).is_zero():
        raise NotACycle("input has nonzero boundary")
    gens = xi.generators()
    space = gens[0].space

    def good_for_all(x):
        return all(is_good_position(g, x) for g in gens)

    x = _sampler_loop(good_for_all,
                      lambda bound: space.random_vector(rng, bound),
                      max_attempts, "common good-position vector")
    return xi.map_generators(lambda g: g.prepend(x, _trusted=True))


def constant_border_obstructed(a: SkewPlusMatrix) -> bool:
    """Whether no constant border vector can certify the extension of `a`.

    The bordered Pfaffian on an odd subset I is linear in the border, so
    a constant border c gives c times the alternating sum of the
    corner Pfaffians of I; certification by constants holds for every
    nonzero c exactly when the all-ones border certifies.
    """
    return not star_is_certified(a, [a.field.one()] * a.size)


def _constant_contraction(xi: FormalSum, q: int, field) -> FormalSum:
    ones = tuple(field.one() for _ in range(q))
    eta = xi.map_generators(lambda g: star_extend_certified(g, ones))
    return eta if q % 2 == 0 else -eta


def contract_cycle_skew(xi: FormalSum, rng, max_attempts: int = 16) -> FormalSum:
    """For a cycle of certified skew matrices, an eta with d(eta) = xi.

    Bordering every generator by one common vector v gives

        d(xi * v) = (-1)^q xi + sum of terms [face * (v minus one coordinate)].

    The face terms inherit the cancellation of d(xi) = 0 only when the
    restricted borders do not depend on which coordinate was dropped, so
    the common witness must be constant; the all-ones vector certifies
    whenever none of the generators' alternating corner-Pfaffian sums
    vanishes, and then eta = (-1)^q (xi * v) is an exact preimage.

    When a generator is obstructed (some alternating sum is zero, so no
    constant certifies), a surgery round reduces toward the constant
    case: border each generator by its own generic certified vector,
    which peels off (-1)^q xi plus a remainder cycle whose generators
    are the bordered faces; the remainder is contracted recursively and
    is generically unobstructed at the first level.  Obstructions buried
    deep in the face lattice of the input can survive every round, in
    which case the search exhausts; such cycles are outside the reach of
    this witness family.
    """
    return _contract_skew(xi, rng, max_attempts, depth=4)


def _contract_skew(xi, rng, max_attempts, depth):
    if xi.is_zero():
        return FormalSum.zero()
    if not boundary(xi).is_zero():
        raise NotACycle("input has nonzero boundary")
    gens = xi.generators()
    q = xi.degree()
    field = gens[0].field

    if not any(constant_border_obstructed(g) for g in gens):
        return _constant_contraction(xi, q, field)
    if depth == 0:
        raise SamplerExhausted("cycle obstructs the constant witness at every depth")

    for _ in range(max_attempts):
        eta0 = FormalSum.zero()
        for gen, coeff in xi.items():
            w = skew_plus_extend(gen, rng)
            bordered = star_extend_certified(gen, w)
            eta0 = eta0 + FormalSum.generator(
                bordered, coeff if q % 2 == 0 else -coeff)
        remainder = xi - boundary(eta0)
        if remainder.is_zero():
            return eta0
        try:
            return eta0 + _contract_skew(remainder, rng, max_attempts, depth - 1)
        except SamplerExhausted:
            continue
    raise SamplerExhausted(
        f"no unobstructed surgery found in {max_attempts} rounds")


# ---------------------------------------------------------------------------
# specialization t -> t0 (function field to its prime field)
# ---------------------------------------------------------------------------

def membership_witnesses(seq: NonDegSeq):
    """The scalars whose nonvanishing certifies membership of `seq`: the
    Gram table (every even sub-Gram Pfaffian up to size min(q, 2n)) plus
    one maximal minor of the whole sequence.  If none of them vanishes
    under a specialization, membership is preserved."""
    m = Matrix.from_columns(seq.space.field, seq.vectors)
    rows = [i + 1 for i in m.transpose().pivot_columns()]
    cols = [j + 1 for j in m.pivot_columns()]
    return list(seq.gram_table().values()) + [m.submatrix(rows, cols).det()]


def specialize_seq(seq: NonDegSeq, t0):
    """Reduce a sequence over F_p(t) to F_p at t = t0; returns the plain
    vector list and the residue space."""
    from .fields import specialize

    field = seq.space.field
    fp = Field.prime(field.p)
    vectors = [tuple(specialize(x, t0) for x in v) for v in seq.vectors]
    return vectors, SymplecticSpace(fp, seq.space.half_rank)
