import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from skewplus import unimod
from skewplus.chains import FormalSum, diff_seq, diff_skew
from skewplus.errors import (
    IndexOutOfRange,
    NotACycle,
    NotNonDegenerate,
    SamplerExhausted,
    ShapeMismatch,
)
from skewplus.fields import Field, as_values as values
from skewplus.matrices import Matrix
from skewplus.pfaffian import (
    SkewMatrix,
    SkewPlusMatrix,
    even_principal_pfaffians,
    is_skew_plus,
    pf_eliminate,
    random_skew_plus,
)
from skewplus.symplectic import SymplecticSpace, gram, pad_vector, random_sp, ring_form
from skewplus.unimod import (
    NonDegSeq,
    constant_border_obstructed,
    contract_cycle_seq,
    contract_cycle_skew,
    good_position_sample,
    is_good_position,
    is_nondeg_unimodular,
    random_nondeg_seq,
    skew_plus_extend,
    star_is_certified,
)

Q = Field.rationals()
FP = Field.prime(1000003)
F3T = Field.function_field(3)


def test_membership_basics():
    r2 = SymplecticSpace(Q, 1)
    r4 = SymplecticSpace(Q, 2)
    assert is_nondeg_unimodular([], r2)
    assert is_nondeg_unimodular([r2.basis_vector(1)], r2)
    assert not is_nondeg_unimodular([(Q.zero(),) * r2.dim], r2)
    # two orthogonal vectors have singular Gram
    assert not is_nondeg_unimodular([r4.basis_vector(1), r4.basis_vector(3)], r4)
    assert is_nondeg_unimodular([r4.basis_vector(1), r4.basis_vector(2)], r4)


def test_membership_checks_all_subsets():
    r4 = SymplecticSpace(Q, 2)
    e = r4.basis_vector
    # (e1, e2, e1+e2): every pair has invertible Gram but the triple is
    # dependent, which the length-3 subsequence test must catch
    dep = tuple(a + b for a, b in zip(e(1), e(2)))
    assert not is_nondeg_unimodular([e(1), e(2), dep], r4)


def test_nondeg_seq_faces_inherit():
    rng = random.Random(1)
    space = SymplecticSpace(Q, 2)
    seq = random_nondeg_seq(space, 4, rng)
    face = seq.face(2)
    assert face.length == 3
    assert is_nondeg_unimodular(face.vectors, space)
    with pytest.raises(NotNonDegenerate):
        NonDegSeq(space, [(Q.zero(),) * space.dim])


def test_faces_reject_bad_indices():
    seq = random_nondeg_seq(SymplecticSpace(Q, 2), 4, random.Random(1))
    a = random_skew_plus(Q, 4, random.Random(1))
    for bad in ([0, 2], [2, 5], [3, 3]):
        with pytest.raises(ShapeMismatch):
            seq.subsequence(bad)
        with pytest.raises(IndexOutOfRange):
            a.principal(bad)
    for i in (0, 5):
        with pytest.raises(ShapeMismatch):
            seq.face(i)
        with pytest.raises(IndexOutOfRange):
            a.face(i)
    assert seq.subsequence([3, 1]).vectors == (seq.vectors[0], seq.vectors[2])


def test_good_position_examples():
    rng = random.Random(2)
    r2 = SymplecticSpace(Q, 1)
    empty = NonDegSeq.empty(r2)
    assert is_good_position(empty, r2.basis_vector(1))
    assert not is_good_position(empty, (Q.zero(),) * r2.dim)
    one = empty.append(r2.basis_vector(1), _trusted=True)
    assert is_good_position(one, r2.basis_vector(2))
    assert not is_good_position(one, r2.basis_vector(1))  # dependent


def test_good_position_sample_postcondition():
    rng = random.Random(3)
    space = SymplecticSpace(Q, 2)
    for _ in range(20):
        seq = random_nondeg_seq(space, 3, rng)
        x = good_position_sample(seq, rng)
        assert is_nondeg_unimodular(seq.vectors + (x,), space)


def test_sampler_deterministic():
    space = SymplecticSpace(Q, 2)
    seq = random_nondeg_seq(space, 2, random.Random(7))
    a = good_position_sample(seq, random.Random(8))
    b = good_position_sample(seq, random.Random(8))
    assert a == b


def test_gram_certifies_in_range():
    rng = random.Random(5)
    space = SymplecticSpace(Q, 2)
    for q in range(1, 5):
        seq = random_nondeg_seq(space, q, rng)
        cert = seq.gram_certified()
        assert isinstance(cert, SkewPlusMatrix)


def test_skew_plus_extend():
    rng = random.Random(6)
    empty = SkewPlusMatrix.certify(random_skew_plus(Q, 0, rng).inner)
    v = skew_plus_extend(empty, rng)
    assert v == ()
    for q in range(1, 6):
        a = random_skew_plus(Q, q, rng)
        v = skew_plus_extend(a, rng, max_attempts=50)
        assert star_is_certified(a, v)


def test_skew_plus_extend_2x2():
    rng = random.Random(7)
    a = SkewPlusMatrix.certify(random_skew_plus(Q, 2, rng).inner)
    v = skew_plus_extend(a, rng)
    # both border coordinates must be nonzero (the two new 2x2 minors)
    assert not v[0].is_zero() and not v[1].is_zero()


def test_contract_cycle_seq():
    rng = random.Random(8)
    space = SymplecticSpace(Q, 2)
    assert contract_cycle_seq(FormalSum.zero(), rng).is_zero()
    for _ in range(15):
        q = rng.randint(1, 3)
        chain = FormalSum.zero()
        for _ in range(rng.randint(1, 3)):
            chain = chain + FormalSum.generator(
                random_nondeg_seq(space, q + 1, rng), rng.randint(-3, 3))
        xi = diff_seq(chain)
        eta = contract_cycle_seq(xi, rng)
        assert diff_seq(eta) == xi
    with pytest.raises(NotACycle):
        contract_cycle_seq(FormalSum.generator(random_nondeg_seq(space, 2, rng)), rng)


def test_contract_cycle_skew():
    rng = random.Random(9)
    assert contract_cycle_skew(FormalSum.zero(), rng).is_zero()
    for _ in range(15):
        q = rng.randint(1, 3)
        chain = FormalSum.zero()
        for _ in range(rng.randint(1, 3)):
            chain = chain + FormalSum.generator(
                random_skew_plus(Q, q + 1, rng), rng.randint(-3, 3))
        xi = diff_skew(chain)
        eta = contract_cycle_skew(xi, rng)
        assert diff_skew(eta) == xi
    # a single size-3 generator has three distinct faces, hence is not a cycle
    from skewplus.pfaffian import SkewMatrix
    three = SkewPlusMatrix.certify(SkewMatrix.from_upper(Q, 3, [1, 2, 3]))
    with pytest.raises(NotACycle):
        contract_cycle_skew(FormalSum.generator(three), rng)


def test_sampler_exhausts_over_prime_field():
    # over F_2 in R^2 the sequence (e1, e2, e1+e2) admits no extension:
    # a fourth vector would need nonzero pairing with all three, forcing
    # both coordinates to 1, but (1,1) pairs to zero with itself
    f2 = Field.prime(2)
    space = SymplecticSpace(f2, 1)
    one = f2.one()
    seq = NonDegSeq(space, [space.basis_vector(1), space.basis_vector(2),
                            (one, one)])
    with pytest.raises(SamplerExhausted):
        good_position_sample(seq, random.Random(0), max_attempts=64)


def test_checked_sequence_keeps_its_table(monkeypatch):
    """A checked NonDegSeq hands the table of its membership test on to
    gram_table and good-position tests.  The Gram
    table is swept by `pfaffian_table` from the ring form."""
    import skewplus.unimod as unimod
    calls = []
    real = unimod.pfaffian_table
    monkeypatch.setattr(unimod, "pfaffian_table",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(12)
    space = SymplecticSpace(Q, 2)
    vectors = random_nondeg_seq(space, 3, rng).vectors
    calls.clear()
    seq = NonDegSeq(space, vectors)
    assert len(calls) == 1
    seq.gram_table()
    is_good_position(seq, space.random_vector(rng, 5))
    assert len(calls) == 1


def _scalars(table):
    return {s: table[s] for s in table.raw}


def _fresh_gram_table(seq):
    """The Gram table of seq's vectors built from nothing: the Scalar Gram
    matrix, swept up to size min(q, 2n)."""
    bound = min(seq.length, seq.space.dim)
    return _scalars(even_principal_pfaffians(gram(seq.vectors, seq.space.field), bound))


def _count_sweeps(monkeypatch):
    """Count every table sweep, Gram or skew: both go through pfaffian_table."""
    import skewplus.pfaffian as pfaffian
    calls = []
    real = pfaffian.pfaffian_table
    counted = lambda *args: calls.append(args) or real(*args)  # noqa: E731
    monkeypatch.setattr(pfaffian, "pfaffian_table", counted)
    monkeypatch.setattr(unimod, "pfaffian_table", counted)
    return calls


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
def test_faces_of_a_checked_sequence_restrict_its_table(field, monkeypatch):
    """A face or subsequence of a checked NonDegSeq, and a face of that,
    builds no table: it restricts the parent's, and the result equals a
    fresh table at every key.  Lengths run past 2n, where the table stops
    at size 2n."""
    rng = random.Random(f"faces:{field!r}")
    space = SymplecticSpace(field, 2)
    calls = _count_sweeps(monkeypatch)
    lengths = set()
    for q in range(1, 7):
        vectors = (random_nondeg_seq(space, min(q, 4), rng).vectors
                   + tuple(space.random_vector(rng, 5) for _ in range(q - 4)))
        if not is_nondeg_unimodular(vectors, space):
            continue
        lengths.add(q)
        seq = NonDegSeq(space, vectors)
        calls.clear()
        parts = [seq.face(i) for i in range(1, q + 1)]
        parts += [seq.subsequence(rng.sample(range(1, q + 1), rng.randint(0, q)))]
        parts += [part.face(1) for part in parts if part.length]
        tables = [_scalars(part.gram_table()) for part in parts]
        assert calls == []
        for part, table in zip(parts, tables):
            assert table == _fresh_gram_table(part)
            assert part.gram() == gram(part.vectors, field)
    assert max(lengths) > 4


def test_face_of_an_untabled_sequence_sweeps_its_own_table(monkeypatch):
    space = SymplecticSpace(Q, 2)
    seq = NonDegSeq(space, random_nondeg_seq(space, 4, random.Random(3)).vectors, _trusted=True)
    calls = _count_sweeps(monkeypatch)
    face = seq.face(2)
    table = _scalars(face.gram_table())
    assert len(calls) == 1
    assert table == _fresh_gram_table(face)


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
def test_transform_keeps_the_gram_table(field, monkeypatch):
    """An isometry preserves every pairing: the image keeps the table of
    the sequence, or of its face, and it equals a fresh table."""
    rng = random.Random(f"transform:{field!r}")
    space = SymplecticSpace(field, 2)
    calls = _count_sweeps(monkeypatch)
    for q in range(1, 5):
        seq = NonDegSeq(space, random_nondeg_seq(space, q, rng).vectors)
        g = random_sp(space, rng)
        calls.clear()
        moved = [seq.transform(g), seq.face(1).transform(g)]
        tables = [_scalars(m.gram_table()) for m in moved]
        assert calls == []
        for m, table in zip(moved, tables):
            assert table == _fresh_gram_table(m)
            assert is_nondeg_unimodular(m.vectors, space)


def _scalar_pairing(x, y):
    return sum((x[k] * y[k + 1] - x[k + 1] * y[k] for k in range(0, len(x), 2)),
               x[0].field.zero())


def good_position_oracle(seq, x) -> bool:
    """is_good_position on Scalar pairings: the border <v_i, x> summed in
    the field, bordered against the table of the Scalar Gram matrix, and
    the rank of the Scalar matrix of columns."""
    space = seq.space
    x = pad_vector(x, space.dim, space.field)
    max_size = min(seq.length + 1, space.dim) - 1
    border = [_scalar_pairing(v, x) for v in seq.vectors] if max_size > 0 else []
    table = even_principal_pfaffians(gram(seq.vectors, space.field),
                                     min(seq.length, space.dim))
    if not table.bordered_nonzero(table.ring.clear([[x.value for x in border]])[1][0],
                                  max_size):
        return False
    return full_rank_if_odd_oracle(seq.vectors + (x,), space)


def _good_position_case(field, rng):
    """A checked sequence in R^2 or R^4 drawn from vectors that may be
    shorter than 2n, and an x that is random, short, or built to be in bad
    position (a multiple of some v_i, or a sum of two of them)."""
    space = SymplecticSpace(field, rng.choice([1, 2]))
    while True:
        vectors = [tuple(field.sample(rng, 3) for _ in range(rng.randint(1, space.dim)))
                   for _ in range(rng.randint(0, space.dim + 1))]
        if is_nondeg_unimodular(vectors, space):
            break
    seq = NonDegSeq(space, vectors)
    kind = rng.randrange(4) if seq.length >= 2 else rng.randrange(3)
    if kind == 0:
        x = space.random_vector(rng, 3)
    elif kind == 1:
        x = tuple(field.sample(rng, 3) for _ in range(rng.randint(1, space.dim)))
    elif kind == 2 and seq.length:
        c = field.sample_nonzero(rng, 3)
        x = tuple(c * y for y in rng.choice(seq.vectors))
    else:
        zero = (field.zero(),) * space.dim
        u, w = rng.sample(seq.vectors, 2) if seq.length >= 2 else (zero, zero)
        x = tuple(a + b for a, b in zip(u, w))
    return seq, x


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
def test_good_position_ring_path_matches_scalar_oracle(field):
    rng = random.Random(f"good:{field!r}")
    seen = set()
    for _ in range(60 if field is F3T else 150):
        seq, x = _good_position_case(field, rng)
        got = is_good_position(seq, x)
        assert got == good_position_oracle(seq, x)
        seen.add(got)
    assert seen == {True, False}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([Q, FP, F3T]), st.integers(0, 10 ** 6))
def test_good_position_property(field, seed):
    seq, x = _good_position_case(field, random.Random(seed))
    assert is_good_position(seq, x) == good_position_oracle(seq, x)


def _oracle_nondeg(vectors, space):
    """The per-subset definition: every subsequence of length at most
    min(q, 2n) is independent, and every even one has invertible Gram."""
    field = space.field
    bound = min(len(vectors), space.dim)
    for r in range(1, bound + 1):
        for subset in combinations(range(len(vectors)), r):
            chosen = [vectors[i] for i in subset]
            if Matrix.from_columns(field, chosen).rank() != r:
                return False
            if r % 2 == 0 and pf_eliminate(gram(chosen, field)).is_zero():
                return False
    return True


def _oracle_star(a, v):
    """Every even principal submatrix through the border index of the
    bordered matrix, eliminated one by one."""
    bordered = a.inner.star_extend(v)
    q = a.size
    return all(not pf_eliminate(bordered.principal(subset + (q + 1,))).is_zero()
               for r in range(1, q + 1, 2)
               for subset in combinations(range(1, q + 1), r))


@pytest.mark.parametrize("field", [Q, Field.prime(5), Field.function_field(3)],
                         ids=["q", "f5", "f3t"])
def test_table_path_matches_per_subset_oracle(field):
    rng = random.Random(11)
    seen = {name: set() for name in ("nondeg", "good", "star", "obstructed")}
    for _ in range(40):
        space = SymplecticSpace(field, rng.choice([1, 2]))
        q = rng.randint(0, space.dim + 2)
        vectors = [space.random_vector(rng, 2) for _ in range(q)]
        got = is_nondeg_unimodular(vectors, space)
        assert got == _oracle_nondeg(vectors, space)
        seen["nondeg"].add(got)
        if got:
            seq = NonDegSeq(space, vectors, _trusted=True)
            for _ in range(3):
                x = space.random_vector(rng, 2)
                got = is_good_position(seq, x)
                assert got == _oracle_nondeg(list(vectors) + [x], space)
                seen["good"].add(got)
        size = rng.randint(0, 5)
        m = SkewMatrix.from_upper(field, size, [field.sample(rng, 2)
                                                for _ in range(size * (size - 1) // 2)])
        if not is_skew_plus(m):
            continue
        a = SkewPlusMatrix.certify(m)
        got = constant_border_obstructed(a)
        assert got == (not _oracle_star(a, [field.one()] * size))
        seen["obstructed"].add(got)
        for _ in range(3):
            v = [field.sample(rng, 2) for _ in range(size)]
            got = star_is_certified(a, v)
            assert got == _oracle_star(a, v)
            seen["star"].add(got)
    # both outcomes occur, so agreement is not vacuous
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


def test_contract_cycle_skew_one_surgery_round_clears_obstruction():
    """The cycle of perfbench `cycles-q` seed 14, operation 1421, some of
    whose size-3 generators obstruct the constant border: one surgery round
    contracts it whatever the draws, with a single round allowed."""
    uppers = [["5/6", "-2/5", "2/3", -1, "3/4", -2], [1, 1, "-3/4", -2, -3, "1/6"],
              ["1/4", 5, 1, -1, "-1/2", "1/2"]]
    chain = FormalSum.zero()
    for upper, c in zip(uppers, [1, -3, 3]):
        chain = chain + FormalSum.generator(
            SkewPlusMatrix.certify(SkewMatrix.from_upper(Q, 4, upper)), c)
    xi = diff_skew(chain)
    assert any(constant_border_obstructed(g) for g in xi.generators())
    for s in range(100):
        eta = contract_cycle_skew(xi, random.Random(s), max_attempts=1)
        assert diff_skew(eta) == xi


def _with_obstructed_face(field, rng):
    """A certified 4x4 matrix whose face on {1, 2, 3} is obstructed:
    a12 - a13 + a23 = 0, the ones-bordered Pfaffian of that face."""
    while True:
        a12, a13 = field.sample_nonzero(rng, 5), field.sample_nonzero(rng, 5)
        if a12 == a13:
            continue
        rest = [field.sample_nonzero(rng, 5) for _ in range(3)]
        m = SkewMatrix.from_upper(field, 4, [a12, a13, rest[0], a13 - a12, rest[1], rest[2]])
        if is_skew_plus(m):
            return SkewPlusMatrix.certify(m)


def _check_obstructed_cycle(field, rng):
    chain = FormalSum.generator(_with_obstructed_face(field, rng), rng.randint(1, 3))
    for _ in range(rng.randint(0, 2)):
        chain = chain + FormalSum.generator(random_skew_plus(field, 4, rng),
                                            rng.randint(-3, 3))
    xi = diff_skew(chain)
    assert any(constant_border_obstructed(g) for g in xi.generators())
    assert diff_skew(contract_cycle_skew(xi, rng)) == xi


def _check_faces_of_ones_border_clear(field, rng, q):
    """The lemma behind one round: every face of an unobstructed g
    bordered by ones is unobstructed again."""
    g = random_skew_plus(field, q, rng)
    if constant_border_obstructed(g):
        return False
    b = SkewPlusMatrix(g.inner.star_extend([field.one()] * q), _trusted=True)
    assert not any(constant_border_obstructed(b.face(i)) for i in range(1, q + 1))
    return True


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
def test_surgery_contracts_obstructed_cycles(field):
    rng = random.Random(14)
    for _ in range(4 if field is F3T else 10):
        _check_obstructed_cycle(field, rng)
    checked = sum(_check_faces_of_ones_border_clear(field, rng, q)
                  for q in range(1, 7) for _ in range(2 if field is F3T else 5))
    assert checked > 0


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from([Q, FP]), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_surgery_property(field, q, seed):
    rng = random.Random(seed)
    _check_obstructed_cycle(field, rng)
    _check_faces_of_ones_border_clear(field, rng, q)


def test_surgery_reach_ends_at_obstructions_off_the_full_index_set():
    """A 4x4 generator obstructed on {1, 2, 3} alone: every border leaves
    that obstruction in a face, so the contraction raises, well within
    the time bound."""
    a = SkewPlusMatrix.certify(SkewMatrix.from_upper(Q, 4, [1, 2, 3, 1, 5, 8]))
    assert pf_eliminate(a) == Q.one()
    assert constant_border_obstructed(a.principal([1, 2, 3]))
    assert not constant_border_obstructed(a.principal([1, 2, 4]))
    b = SkewPlusMatrix.certify(a.inner.star_extend([1, 2, 4, 8]))
    xi = diff_skew(FormalSum.generator(b))
    start = time.perf_counter()
    with pytest.raises(SamplerExhausted):
        contract_cycle_skew(xi, random.Random(0))
    assert time.perf_counter() - start < 30


def test_f3_degree_3_homology_class_is_never_contracted():
    """Over F_3 the skew complex has H_3 = 1, computed exactly; this cycle,
    written by upper entries, represents the class.  It is no boundary,
    so the contraction must raise rather than return."""
    f3 = Field.prime(3)

    def gen(upper):
        return SkewPlusMatrix.certify(SkewMatrix.from_upper(f3, 3, upper))

    xi = FormalSum({gen([1, 1, 1]): -2, gen([1, 1, 2]): 1, gen([1, 2, 1]): 1})
    assert diff_skew(xi).is_zero()
    with pytest.raises(SamplerExhausted):
        contract_cycle_skew(xi, random.Random(0))


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
def test_surgery_refuses_proper_obstructions_before_any_draw(field, monkeypatch):
    """A size-4 generator obstructed on {1, 2, 3} is refused at once, with
    its size and that subset named, and no border search starts."""
    rng = random.Random(21)
    a = _with_obstructed_face(field, rng)
    while True:
        w = [field.sample(rng, 5) for _ in range(4)]
        if star_is_certified(a, w):
            break
    xi = diff_skew(FormalSum.generator(SkewPlusMatrix.certify(a.inner.star_extend(w))))

    def no_search(*args, **kwargs):
        raise AssertionError("border search started")

    monkeypatch.setattr(unimod, "skew_plus_extend", no_search)
    with pytest.raises(SamplerExhausted, match=r"size-4 .* subset \(1, 2, 3\)"):
        contract_cycle_skew(xi, rng)


# -- the odd-length rank check in the ring ----------------------------------

def full_rank_if_odd_oracle(vectors, space) -> bool:
    """`unimod._full_rank_if_odd` as it was: the rank of the Scalar matrix
    of columns."""
    q = len(vectors)
    if q % 2 == 0 or q >= space.dim:
        return True
    return Matrix.from_columns(space.field, vectors).rank() == q


def _rank_case(field, rng):
    """Up to 2n+1 vectors in R^4 or R^6, possibly with a zero vector, a
    repeated or scaled vector, or a sum of two others."""
    space = SymplecticSpace(field, rng.choice([2, 3]))
    vectors = [space.random_vector(rng, 4) for _ in range(rng.randint(0, space.dim + 1))]
    kind = rng.randrange(4)
    if vectors and kind == 1:
        vectors[rng.randrange(len(vectors))] = (field.zero(),) * space.dim
    elif len(vectors) >= 2 and kind == 2:
        c = field.sample_nonzero(rng, 4)
        vectors[-1] = tuple(c * x for x in rng.choice(vectors[:-1]))
    elif len(vectors) >= 3 and kind == 3:
        u, w = rng.sample(vectors[:-1], 2)
        vectors[-1] = tuple(x + y for x, y in zip(u, w))
    return space, vectors


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
def test_full_rank_if_odd_in_the_ring_matches_scalar_rank(field):
    rng = random.Random(f"ring rank:{field!r}")
    outcomes = set()
    for _ in range(120):
        space, vectors = _rank_case(field, rng)
        form = ring_form(field, [values(field, v) for v in vectors])
        got = unimod._full_rank_if_odd(space, form[1])
        assert got == full_rank_if_odd_oracle(vectors, space)
        if len(vectors) % 2 and len(vectors) < space.dim:
            outcomes.add(got)
    assert outcomes == {True, False}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([Q, FP, F3T]), st.integers(0, 10 ** 6))
def test_full_rank_if_odd_property(field, seed):
    space, vectors = _rank_case(field, random.Random(seed))
    form = ring_form(field, [values(field, v) for v in vectors])
    rows = [list(r) for r in form[1]]
    assert unimod._full_rank_if_odd(space, form[1]) == full_rank_if_odd_oracle(vectors, space)
    assert form[1] == rows  # the ranked rows are left as they were


def test_faces_equal_the_general_removal():
    rng = random.Random(26)
    seq = random_nondeg_seq(SymplecticSpace(Q, 2), 5, rng)
    a = random_skew_plus(Q, 5, rng)
    for i in range(1, 6):
        kept = [k for k in range(1, 6) if k != i]
        assert seq.face(i) == seq.subsequence(kept)
        assert a.face(i) == a.remove_indices([i]) == a.principal(kept)
        assert a.face(i).table.raw == a.principal(kept).table.raw
