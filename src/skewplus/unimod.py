"""Non-degenerate unimodular sequences: membership, search, homotopies.

A sequence of q vectors in R^{2n} is unimodular when every subsequence of
length at most min(q, 2n) is linearly independent, and non-degenerate
when additionally every even-sized sub-Gram matrix in that range is
invertible.  Both are read off one table, the even principal Pfaffians
of the whole sequence's Gram matrix up to size min(q, 2n): an even
subsequence with invertible Gram is independent, and so is every part of
it, which leaves only the whole sequence for q odd and below 2n to a rank
check, made in the ring on the cleared vectors.  The table stays in the
ring and a checked sequence keeps it, together with its ring form: the
vectors cleared once by one common L, with their psi-rotations, from
whose products the table is swept.  A sequence stores its vectors as
tuples of canonical values (`Scalar.value`), which the ring clears
directly and which hash and compare in C; scalars are made only for the
`vectors` view, repr and JSON.  A face is a tuple slice of them that
holds its parent, whose ring form it slices and whose table it restricts
on the first read of either; an isometric image keeps the table; one
more vector or border adds bordered Pfaffians, by the table's expansion,
on a border read off the ring form.

A vector x is in good position with respect to a sequence v when (v, x)
is again non-degenerate unimodular.  Over an infinite field the bad set
is a finite union of proper subspaces, so random sampling from a growing
coordinate pool succeeds with probability approaching 1; the searches
here run through `fields.sample_until` with a caller-set number of
attempts (over a finite prime field exhaustion can be a genuine
obstruction).

The two contracting homotopies witness acyclicity of the sequence and
skew complexes: each sends a cycle xi to an eta with d(eta) = xi, built
from one common witness (a good-position vector, respectively the
all-ones border) serving every generator of xi at once, after one
surgery round when a generator obstructs the constant border.
"""

from __future__ import annotations

from contextlib import suppress

from .chains import FormalSum, boundary
from .errors import (
    InternalInvariant,
    NotACycle,
    NotNonDegenerate,
    NotSkewPlus,
    SamplerExhausted,
    ShapeMismatch,
)
from .fields import Scalar, as_scalars, as_values
from .fields import sample_until as _sampler_loop  # perfbench's tracer wraps it here
from .matrices import ring_rank
from .pfaffian import (
    PfaffianTable,
    SkewMatrix,
    SkewPlusMatrix,
    pf_eliminate,  # noqa: F401  (perfbench's tracer test patches it here)
    _face_keep,
    _indices,
    pfaffian_table,
)
from .symplectic import SymplecticSpace, form_gram, pad_vector, ring_form


class NonDegSeq:
    """A certified non-degenerate unimodular sequence in R^{2n}.

    The vectors are stored as `values`: per vector, the tuple of the
    canonical values of its coordinates (`Scalar.value`), padded to
    length 2n, so hashing and equality run in C on ints and tuples.
    `vectors` is their view as scalars, kept when the sequence was built
    from scalars and made on first read otherwise.  Faces (and more
    generally subsequences) inherit the certificate.  A face is a slice of
    `values` that holds its parent and its kept indices: the first read of
    its ring form slices the parent's, and the first read of its table
    restricts the parent's, each made for the parent if it has none.  Most
    faces that `chains.boundary` makes are only hashed.
    """

    __slots__ = ("space", "values", "_vectors", "_hash", "_form", "_gram_table", "_parent")

    def __init__(self, space: SymplecticSpace, vectors, _trusted: bool = False):
        field = space.field
        vectors = tuple(pad_vector(as_scalars(field, v), space.dim, field) for v in vectors)
        self._set(space, tuple(tuple(x.value for x in v) for v in vectors))
        self._vectors = vectors
        if not _trusted:
            self._certify()

    def _set(self, space, values, form=None, table=None, parent=None):
        self.space = space
        self.values = values
        self._vectors = self._hash = None
        self._form = form
        self._gram_table = table
        # (parent, kept indices) of a face or subsequence
        self._parent = parent

    @classmethod
    def _of(cls, space, values, form=None, table=None, parent=None) -> "NonDegSeq":
        """A trusted sequence on padded vectors of canonical values, with
        what is known of it."""
        seq = cls.__new__(cls)
        seq._set(space, values, form, table, parent)
        return seq

    @classmethod
    def _padded(cls, space, values) -> "NonDegSeq":
        """A trusted sequence on vectors of canonical values, each padded
        with zeros to length 2n."""
        zero, dim = space.field.zero().value, space.dim
        return cls._of(space, tuple(v + (zero,) * (dim - len(v)) for v in values))

    def _certify(self) -> "NonDegSeq":
        self._gram_table = _member_table(self.space, self.ring_form())
        if self._gram_table is None:
            raise NotNonDegenerate("sequence fails the membership conditions")
        return self

    @classmethod
    def empty(cls, space: SymplecticSpace) -> "NonDegSeq":
        return cls(space, (), _trusted=True)

    @property
    def vectors(self):
        """The vectors as tuples of scalars."""
        if self._vectors is None:
            field = self.space.field
            self._vectors = tuple(tuple(Scalar(field, x) for x in v) for v in self.values)
        return self._vectors

    @property
    def length(self) -> int:
        return len(self.values)

    # FormalSum generators expose their length as `size`
    @property
    def size(self) -> int:
        return len(self.values)

    def face(self, i: int) -> "NonDegSeq":
        """Drop the i-th vector (1-based); certification is inherited."""
        values = self.values
        if not 0 < i <= len(values):
            raise ShapeMismatch(f"indices [{i}] outside 1..{len(values)}")
        return NonDegSeq._of(self.space, values[:i - 1] + values[i:],
                             parent=(self, _face_keep(len(values), i)))

    def subsequence(self, indices) -> "NonDegSeq":
        """The vectors at the given distinct 1-based indices, in order."""
        keep = _indices(self.length, indices, ShapeMismatch)
        return NonDegSeq._of(self.space, tuple([self.values[i - 1] for i in keep]),
                             parent=(self, keep))

    def prepend(self, x, _trusted: bool = False) -> "NonDegSeq":
        return self._grown((self._vector_values(x),) + self.values, _trusted)

    def append(self, x, _trusted: bool = False) -> "NonDegSeq":
        return self._grown(self.values + (self._vector_values(x),), _trusted)

    def _vector_values(self, x):
        field = self.space.field
        return as_values(field, pad_vector(x, self.space.dim, field))

    def _grown(self, values, trusted) -> "NonDegSeq":
        seq = NonDegSeq._of(self.space, values)
        return seq if trusted else seq._certify()

    def ring_form(self):
        """`symplectic.ring_form` of the vectors, made once; a part slices its parent's."""
        if self._form is None:
            if self._parent is None:
                self._form = ring_form(self.space.field, self.values)
            else:
                parent, keep = self._parent
                scale, rows, psi = parent.ring_form()
                self._form = scale, [rows[i - 1] for i in keep], [psi[i - 1] for i in keep]
        return self._form

    def gram(self) -> SkewMatrix:
        return form_gram(self.space.field, self.ring_form())

    def gram_table(self) -> PfaffianTable:
        """Even principal Pfaffians of the Gram matrix up to size
        min(q, 2n), all nonzero by membership; computed once, and for a
        part restricted from its parent's."""
        if self._gram_table is None:
            if self._parent is None:
                self._gram_table = _gram_table(self.space, self.ring_form())
            else:
                parent, keep = self._parent
                self._gram_table = parent.gram_table().restrict(keep)
        return self._gram_table

    def gram_certified(self) -> SkewPlusMatrix:
        """The Gram matrix with its certificate; valid whenever q <= 2n+1,
        where every even subsequence has length at most 2n."""
        if self.length > self.space.dim + 1:
            raise NotSkewPlus("more than 2n+1 vectors have singular even sub-Grams")
        return SkewPlusMatrix(self.gram(), _trusted=True, _table=self.gram_table())

    def transform(self, g) -> "NonDegSeq":
        """Apply an isometry; membership is preserved, and so is every
        pairing, hence the Gram table: the one it has, or a part's."""
        table = self._gram_table if self._parent is None else self.gram_table()
        vectors = tuple(g.apply(v) for v in self.vectors)
        seq = NonDegSeq._of(self.space, tuple(tuple(x.value for x in v) for v in vectors),
                            None, table)
        seq._vectors = vectors
        return seq

    def __eq__(self, other):
        return (isinstance(other, NonDegSeq) and self.values == other.values
                and (self.space is other.space or self.space == other.space))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.values)
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
    field = space.field
    rows = [as_values(field, pad_vector(v, space.dim, field)) for v in vectors]
    return _member_table(space, ring_form(field, rows)) is not None


def _member_table(space, form) -> PfaffianTable | None:
    """The Gram table of the padded vectors whose ring form is `form`, if
    they are members, else None."""
    table = _gram_table(space, form)
    return table if table.all_nonzero() and _full_rank_if_odd(space, form[1]) else None


def _gram_table(space, form) -> PfaffianTable:
    """Even principal Pfaffians of the Gram matrix up to size min(q, 2n),
    swept from the ring products dot(L v_i, L psi v_j) = L^2 <v_i, v_j>."""
    scale, rows, psi = form
    ring = space.field.ring()
    dot = ring.dot
    return pfaffian_table(ring, ring.mul(scale, scale),
                          [[dot(rows[i], psi_j) for i in range(j)] for j, psi_j in enumerate(psi)],
                          min(len(rows), space.dim))


def _full_rank_if_odd(space, rows) -> bool:
    """The one independence condition an even-subset table leaves open,
    on the vectors cleared into the ring, one row each."""
    q = len(rows)
    if q % 2 == 0 or q >= space.dim:
        return True
    return ring_rank(space.field.ring(), rows) == q


def is_good_position(seq: NonDegSeq, x) -> bool:
    """Whether appending x keeps the sequence non-degenerate unimodular.

    Only the subsets involving x are tested; the rest are covered by the
    certificate of `seq`.  Each even one is a Pfaffian of the Gram matrix
    of seq bordered by the pairings <v_i, x>, read in the ring from seq's
    ring form and x cleared once by its own L_x: the border
    dot(L v_i, psi(L_x x)) shares the denominator L L_x.
    """
    space = seq.space
    _, (row_x,), (psi_x,) = ring_form(space.field, [seq._vector_values(x)])
    _, rows, _ = seq.ring_form()
    max_size = min(seq.length + 1, space.dim) - 1
    if max_size > 0:
        dot = space.field.ring().dot
        if seq.gram_table().bordered_zero([dot(r, psi_x) for r in rows], max_size) is not None:
            return False
    return _full_rank_if_odd(space, [*rows, row_x])


def good_position_sample(seq: NonDegSeq, rng, max_attempts: int = 256):
    """A random vector in good position with respect to `seq`."""
    space = seq.space
    return _sampler_loop(lambda x: is_good_position(seq, x),
                         lambda bound: space.random_vector(rng, bound),
                         max_attempts, "good-position vector")


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
    v = as_values(a.field, v)
    if len(v) != a.size:
        raise ShapeMismatch("border vector has the wrong length")
    return a.table.bordered_zero(a.table.ring.clear([v])[1][0], a.size) is None


def skew_plus_extend(a: SkewPlusMatrix, rng, max_attempts: int = 256):
    """A border vector v with a * v certified and no face (a * v).face(i),
    i <= q, obstructed: a surgery round's border for an obstructed a."""
    field = a.field
    q = a.size

    def draw(bound):
        return tuple(field.sample(rng, bound) for _ in range(q))

    def faces_clear(v):
        if not star_is_certified(a, v):
            return False
        b = SkewPlusMatrix(a.star_extend(v), _trusted=True)
        return not any(constant_border_obstructed(b.face(i)) for i in range(1, q + 1))

    return _sampler_loop(faces_clear, draw, max_attempts,
                         "certified border vector with unobstructed faces")


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


def _bordered_sum(xi: FormalSum, q: int, border) -> FormalSum:
    # (-1)^q sum c [g * border(g)]; every border(g) must certify g * border(g)
    eta = FormalSum({SkewPlusMatrix(g.star_extend(border(g)), _trusted=True): c
                     for g, c in xi.items()})
    return eta if q % 2 == 0 else -eta


def contract_cycle_skew(xi: FormalSum, rng, max_attempts: int = 16) -> FormalSum:
    """For a cycle of certified skew matrices, an eta with d(eta) = xi.

    Bordering a size-q generator g by w gives

        d[g * w] = (-1)^q [g] + sum_{i<=q} (-1)^{i+1} [g.face(i) * (w minus w_i)].

    If no generator is obstructed, the all-ones border certifies each, the
    face terms cancel as in d(xi) = 0, and eta = (-1)^q (xi * 1).
    Otherwise one surgery round borders each obstructed g by a searched w
    (`skew_plus_extend`) and every other generator by ones, giving eta0;
    the remainder xi - d(eta0) is a cycle of bordered faces, contracted by
    ones.  It has no obstructed generator: a face F = g.face(j) * 1 of an
    unobstructed g, bordered by ones again, passes on an odd I through F's
    border index a, since subtracting column a from the new column (a
    det-1 congruence) leaves +-Pf(F on I minus a) != 0, and every other I
    is one of g's own tests.

    Reach: a bordered face restricts to g.face(i), so the search succeeds
    exactly when g is obstructed on its full index set alone: always for
    q <= 3 (odd subsets of size 1 never are), never for even q >= 4, where
    every odd subset misses an index.  A generator obstructed on a proper
    odd subset is therefore refused before any draw: `SamplerExhausted`
    names its size and the subset.  max_attempts bounds the rounds; a
    round repeats only the border searches that exhausted.
    """
    return _contract_skew(xi, rng, max_attempts)


def _contract_skew(xi, rng, max_attempts):
    if xi.is_zero():
        return FormalSum.zero()
    if not boundary(xi).is_zero():
        raise NotACycle("input has nonzero boundary")
    gens = xi.generators()
    q = xi.degree()
    ones = tuple(gens[0].field.one() for _ in range(q))
    obstructed = [g for g in gens if constant_border_obstructed(g)]
    if not obstructed:  # exactly: the all-ones border certifies every generator
        return _bordered_sum(xi, q, lambda g: ones)
    for g in obstructed:
        # the proper odd subsets are those of g's faces, and (g * w).face(i)
        # keeps g.face(i)'s tests for every w: no border clears these
        s = g.table.bordered_zero([g.table.ring.one] * q, q - 1)
        if s is not None:
            raise SamplerExhausted(
                f"size-{q} generator obstructed on the proper odd subset "
                f"{s}: no border clears it")
    borders = {}
    for _ in range(max_attempts):
        for g in obstructed:
            if g not in borders:
                with suppress(SamplerExhausted):
                    borders[g] = skew_plus_extend(g, rng)
    if len(borders) < len(obstructed):
        raise SamplerExhausted(
            f"no border with unobstructed faces found in {max_attempts} rounds")
    eta0 = _bordered_sum(xi, q, lambda g: borders.get(g, ones))
    remainder = xi - boundary(eta0)
    if any(constant_border_obstructed(g) for g in remainder.generators()):
        raise InternalInvariant("surgery left an obstructed remainder")
    return eta0 + _bordered_sum(remainder, q, lambda g: ones)

