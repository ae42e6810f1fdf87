"""Skew matrices and sequences store canonical values: equal objects must
compare equal and hash equal whatever built them, and objects of other
sizes, fields or spaces must compare unequal."""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from skewplus.errors import NotSkewPlus
from skewplus.fields import RATIONALS, Field
from skewplus.matrices import Matrix
from skewplus.pfaffian import SkewMatrix, SkewPlusMatrix
from skewplus.symplectic import SpMatrix, SymplecticSpace, gram, pairing

Q = Field.rationals()


def same(x, y):
    assert x == y and y == x
    assert hash(x) == hash(y)


def differ(x, y):
    assert x != y and y != x


def test_sizes_zero_and_one_differ():
    """Both have an empty upper triangle; only the size tells them apart."""
    for field in (Q, Field.prime(5), Field.function_field(3)):
        zero, one = SkewMatrix.zero(field, 0), SkewMatrix.zero(field, 1)
        differ(zero, one)
        differ(SkewPlusMatrix(zero, _trusted=True), SkewPlusMatrix(one, _trusted=True))
        differ(SkewPlusMatrix.certify(SkewMatrix.from_upper(field, 2, [1])).face(1),
               SkewPlusMatrix.certify(zero))
        same(SkewMatrix.zero(field, 1), SkewMatrix.from_upper(field, 1, []))


def _inputs(field, x):
    """The ways a constructor accepts the scalar x: itself, its canonical
    value, and over Q a Fraction."""
    ways = [x, x.value]
    if field.kind == RATIONALS:
        ways.append(Fraction(*x.value))
    return ways


def _other_field(field):
    return Field.prime(5) if field != Field.prime(5) else Field.prime(7)


def _certified_or_trusted(a):
    try:
        return SkewPlusMatrix.certify(a)
    except NotSkewPlus:
        return SkewPlusMatrix(a, _trusted=True)


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 6), st.integers(0, 10 ** 6))
def test_skew_matrices_equal_and_hash_equal_across_constructions(sparse_field, q, seed):
    field, entry = sparse_field
    rng = random.Random(seed)
    entries = [entry(rng) for _ in range(q * (q - 1) // 2)]
    a = SkewMatrix.from_upper(field, q, entries)
    for k in range(len(_inputs(field, field.one()))):
        same(a, SkewMatrix.from_upper(field, q, [_inputs(field, x)[k] for x in entries]))
    same(a, SkewMatrix(field, q, [[a.entry(i, j) for j in range(i + 1, q + 1)]
                                  for i in range(1, q)]))
    ints = [rng.randint(-3, 3) for _ in entries]
    same(SkewMatrix.from_upper(field, q, ints),
         SkewMatrix.from_upper(field, q, [field.scalar(n) for n in ints]))
    same(a, SkewMatrix.from_json(a.to_json()))
    same(a, SkewMatrix.from_matrix(a.full_matrix()))
    same(a, a.star_extend([entry(rng) for _ in range(q)]).remove_indices([q + 1]))
    same(a, a.principal(range(1, q + 1)))
    plus = _certified_or_trusted(a)
    same(plus, SkewPlusMatrix(SkewMatrix.from_json(a.to_json()), _trusted=True))
    if q >= 2:
        i, j = sorted(rng.sample(range(1, q + 1), 2))
        kept = [k for k in range(1, q + 1) if k not in (i, j)]
        by_entries = SkewMatrix(field, len(kept), [[a.entry(r, s) for s in kept[n + 1:]]
                                                   for n, r in enumerate(kept[:-1])])
        for part in (a.principal(kept), a.remove_indices([i, j]),
                     a.remove_indices([j]).remove_indices([i]), plus.face(j).face(i).inner,
                     plus.principal(kept).inner, plus.remove_indices([i, j]).inner):
            same(part, by_entries)
        same(plus.face(j).face(i), plus.face(i).face(j - 1))
        same(plus.face(j).face(i), plus.principal(kept))
        bent = list(entries)
        bent[0] = bent[0] + 1
        differ(a, SkewMatrix.from_upper(field, q, bent))
    differ(a, SkewMatrix.zero(field, q + 1))
    if q >= 1:
        differ(a.principal(range(1, q)), SkewMatrix.zero(field, q))
    other = _other_field(field)
    differ(SkewMatrix.from_upper(field, q, ints), SkewMatrix.from_upper(other, q, ints))
    differ(plus, a)


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 5), st.integers(0, 10 ** 6))
def test_sequences_equal_and_hash_equal_across_constructions(sparse_field, q, seed):
    from skewplus.unimod import NonDegSeq

    field, entry = sparse_field
    rng = random.Random(seed)
    space = SymplecticSpace(field, 2)
    vectors = [tuple(entry(rng) for _ in range(space.dim)) for _ in range(q)]
    seq = NonDegSeq(space, vectors, _trusted=True)
    for k in range(len(_inputs(field, field.one()))):
        same(seq, NonDegSeq(space, [[_inputs(field, x)[k] for x in v] for v in vectors],
                            _trusted=True))
    # short vectors are padded with zeros
    same(NonDegSeq(space, [v[:2] for v in vectors], _trusted=True),
         NonDegSeq(space, [v[:2] + (field.zero(),) * 2 for v in vectors], _trusted=True))
    x = tuple(entry(rng) for _ in range(space.dim))
    same(seq, seq.prepend(x, _trusted=True).face(1))
    same(seq, seq.append(x, _trusted=True).face(q + 1))
    same(seq, seq.transform(SpMatrix(Matrix.identity(field, space.dim), space.dim)))
    assert seq.vectors == tuple(vectors)
    want = gram(vectors, field)
    same(seq.gram(), want)
    same(seq.gram(), SkewMatrix(field, q, [[pairing(v, w) for w in vectors[k + 1:]]
                                           for k, v in enumerate(vectors[:-1])]))
    if q >= 2:
        i, j = sorted(rng.sample(range(1, q + 1), 2))
        kept = [k for k in range(1, q + 1) if k not in (i, j)]
        by_vectors = NonDegSeq(space, [vectors[k - 1] for k in kept], _trusted=True)
        seq.ring_form()                        # a parent with a form, and one without
        for parent in (seq, NonDegSeq(space, vectors, _trusted=True)):
            for part in (parent.face(j).face(i), parent.face(i).face(j - 1),
                         parent.subsequence(kept), parent.subsequence(kept + [i]).face(i)):
                same(part, by_vectors)
                same(part.gram(), want.principal(kept))
        differ(seq, seq.face(i))
    differ(NonDegSeq.empty(space), NonDegSeq.empty(SymplecticSpace(field, 1)))
    other = SymplecticSpace(_other_field(field), 2)
    ints = [[rng.randint(-3, 3) for _ in range(space.dim)] for _ in range(q)]
    differ(NonDegSeq(space, ints, _trusted=True), NonDegSeq(other, ints, _trusted=True))
