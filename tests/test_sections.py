import random

import pytest

from skewplus.errors import BadRange, EvenSize
from skewplus.fields import Field
from skewplus.matrices import Matrix
from skewplus.pfaffian import SkewMatrix, SkewPlusMatrix, random_skew_plus
from skewplus.sections import section_V, section_v_det1
from skewplus.symplectic import SymplecticSpace
from skewplus.unimod import is_nondeg_unimodular

Q = Field.rationals()


def upper3(a, b, c):
    return SkewPlusMatrix.certify(SkewMatrix.from_upper(Q, 3, [a, b, c]))


def test_empty_section():
    empty = SkewPlusMatrix.certify(SkewMatrix.zero(Q, 0))
    assert section_V(0, 4, empty).vectors == ()


def test_length_one_sections():
    one = SkewPlusMatrix.certify(SkewMatrix.zero(Q, 1))
    # snug: the single zero vector of R^0
    assert section_V(1, 0, one).vectors == ((),)
    # roomy: e_1
    seq = section_V(1, 2, one)
    assert seq.vectors == ((Q.one(), Q.zero()),)


def test_length_two_section():
    for a in (2, -5):
        m = SkewPlusMatrix.certify(SkewMatrix.from_upper(Q, 2, [a]))
        seq = section_V(2, 2, m)
        e1 = (Q.one(), Q.zero())
        ae2 = (Q.zero(), Q.scalar(a))
        assert seq.vectors == (e1, ae2)


def test_round_trip_all_sizes():
    rng = random.Random(1)
    for two_n in (2, 4, 6, 8):
        for q in range(0, two_n + 2):
            for _ in range(5):
                a = random_skew_plus(Q, q, rng)
                seq = section_V(q, two_n, a)
                assert seq.gram() == a.inner


def test_section_output_is_member():
    rng = random.Random(2)
    for two_n in (2, 4, 6):
        space = SymplecticSpace(Q, two_n // 2)
        for q in range(0, two_n + 2):
            a = random_skew_plus(Q, q, rng)
            seq = section_V(q, two_n, a)
            assert is_nondeg_unimodular(seq.vectors, space)


def test_stability():
    rng = random.Random(3)
    for _ in range(20):
        two_n = 2 * rng.randint(1, 3)
        two_m = two_n + 2 * rng.randint(1, 2)
        q = rng.randint(0, two_n)
        a = random_skew_plus(Q, q, rng)
        small = section_V(q, two_n, a)
        big = section_V(q, two_m, a)
        assert all(x.is_zero() for v in big.vectors for x in v[two_n:])
        assert tuple(v[:two_n] for v in big.vectors) == small.vectors


def test_face_compatibility():
    rng = random.Random(4)
    for _ in range(20):
        two_n = 2 * rng.randint(1, 3)
        q = rng.randint(1, two_n + 1)
        a = random_skew_plus(Q, q, rng)
        seq = section_V(q, two_n, a)
        dropped = section_V(q - 1, two_n, a.remove_indices([q]))
        assert seq.vectors[:-1] == dropped.vectors


def test_deterministic():
    rng = random.Random(5)
    a = random_skew_plus(Q, 5, rng)
    assert section_V(5, 6, a).vectors == section_V(5, 6, a).vectors


def test_bad_range():
    rng = random.Random(6)
    a = random_skew_plus(Q, 4, rng)
    with pytest.raises(BadRange):
        section_V(4, 2, a)  # q > 2n+1
    with pytest.raises(BadRange):
        section_V(3, 4, a)  # size mismatch


def test_det1_size_one():
    one = SkewPlusMatrix.certify(SkewMatrix.zero(Q, 1))
    seq = section_v_det1(one)
    assert seq.vectors == ((Q.one(), Q.zero()),)


def test_det1_properties():
    rng = random.Random(7)
    for _ in range(15):
        q = rng.choice([1, 3, 5])
        a = random_skew_plus(Q, q, rng)
        seq = section_v_det1(a)
        assert seq.gram() == a.inner
        # column i lies in span(e_1..e_i)
        for col, v in enumerate(seq.vectors, start=1):
            assert all(x.is_zero() for x in v[col:])
        mat = Matrix.from_columns(Q, [v[:q] for v in seq.vectors])
        assert mat.det() == Q.one()


def test_det1_random_3x3():
    rng = random.Random(8)
    a = upper3(rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9))
    seq = section_v_det1(a)
    assert seq.gram() == a.inner
    space = SymplecticSpace(Q, 2)
    assert is_nondeg_unimodular(seq.vectors, space)


def test_det1_rejects_even():
    rng = random.Random(9)
    with pytest.raises(EvenSize):
        section_v_det1(random_skew_plus(Q, 4, rng))
