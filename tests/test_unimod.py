import random
from itertools import combinations

import pytest

from skewplus.chains import FormalSum, diff_seq, diff_skew
from skewplus.errors import NotACycle, NotNonDegenerate, SamplerExhausted
from skewplus.fields import Field, specialize
from skewplus.matrices import Matrix
from skewplus.pfaffian import (
    SkewMatrix,
    SkewPlusMatrix,
    is_skew_plus,
    pf_eliminate,
    random_skew_plus,
)
from skewplus.symplectic import SymplecticSpace, gram, pairing
from skewplus.unimod import (
    NonDegSeq,
    constant_border_obstructed,
    contract_cycle_seq,
    contract_cycle_skew,
    good_position_linear_form,
    good_position_sample,
    is_good_position,
    is_nondeg_unimodular,
    membership_witnesses,
    random_nondeg_seq,
    skew_plus_extend,
    specialize_seq,
    star_is_certified,
)

Q = Field.rationals()


def test_membership_basics():
    r2 = SymplecticSpace(Q, 1)
    r4 = SymplecticSpace(Q, 2)
    assert is_nondeg_unimodular([], r2)
    assert is_nondeg_unimodular([r2.basis_vector(1)], r2)
    assert not is_nondeg_unimodular([r2.zero_vector()], r2)
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
        NonDegSeq(space, [space.zero_vector()])


def test_good_position_examples():
    rng = random.Random(2)
    r2 = SymplecticSpace(Q, 1)
    empty = NonDegSeq.empty(r2)
    assert is_good_position(empty, r2.basis_vector(1))
    assert not is_good_position(empty, r2.zero_vector())
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


def test_good_position_linear_form_single():
    space = SymplecticSpace(Q, 2)
    w = (Q.scalar(2), Q.scalar(-1), Q.zero(), Q.scalar(3))
    assert good_position_linear_form([w], space) == w


def test_good_position_linear_form_identity():
    rng = random.Random(4)
    space = SymplecticSpace(Q, 2)
    for _ in range(25):
        r = rng.choice([1, 3])
        seq = random_nondeg_seq(space, r, rng)
        u = good_position_linear_form(seq.vectors, space)
        x = space.random_vector(rng, 6)
        bordered = gram(list(seq.vectors) + [x], Q)
        assert pf_eliminate(bordered) == pairing(u, x)


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
        a = random_skew_plus(Q, q, rng, bound=6)
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
                random_skew_plus(Q, q + 1, rng, bound=6), rng.randint(-3, 3))
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


def test_specialization_preserves_membership():
    rng = random.Random(10)
    f2t = Field.function_field(2)
    f2 = Field.prime(2)
    space = SymplecticSpace(f2t, 1)
    t = f2t.t()
    one = f2t.one()
    # (e1, t*e1 + e2) is non-degenerate over F_2(t)
    seq = NonDegSeq(space, [(one, f2t.zero()), (t, one)])
    witnesses = membership_witnesses(seq)
    for t0 in (f2.scalar(0), f2.scalar(1)):
        if any(specialize(w, t0).is_zero() for w in witnesses):
            continue
        vectors, res_space = specialize_seq(seq, t0)
        assert is_nondeg_unimodular(vectors, res_space)
    # a sequence whose witness vanishes at t0 = 0 degenerates there
    seq2 = NonDegSeq(space, [(one, f2t.zero()), (f2t.zero(), t)])
    witnesses = membership_witnesses(seq2)
    assert any(specialize(w, f2.scalar(0)).is_zero() for w in witnesses)
    vectors, res_space = specialize_seq(seq2, f2.scalar(0))
    assert not is_nondeg_unimodular(vectors, res_space)


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
