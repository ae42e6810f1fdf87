import random

import pytest

from skewplus.errors import NotSkewPlus, OddSize, ShapeMismatch
from skewplus.fields import Field
from skewplus.matrices import Matrix
from skewplus.pfaffian import (
    SkewMatrix,
    SkewPlusMatrix,
    even_principal_pfaffians,
    is_skew_plus,
    pf_eliminate,
    pf_recursive,
    random_skew,
    random_skew_plus,
)
from skewplus.symplectic import psi_matrix

Q = Field.rationals()


def rows_family(a, b, c, d, e):
    """Six-by-six with constant rows a, b, c, d, e above the diagonal."""
    return SkewMatrix.from_upper(Q, 6, [a, a, a, a, a, b, b, b, b, c, c, c, d, d, e])


def test_pf_2x2():
    a = Q.scalar(7)
    assert pf_recursive(SkewMatrix.from_upper(Q, 2, [a])) == a


def test_pf_4x4_closed_form():
    rng = random.Random(1)
    for _ in range(20):
        a, b, c, d, e, f = (Q.scalar(rng.randint(-9, 9)) for _ in range(6))
        m = SkewMatrix.from_upper(Q, 4, [a, b, c, d, e, f])
        assert pf_recursive(m) == a * f - b * e + c * d


def test_pf_empty_is_one():
    empty = SkewMatrix.zero(Q, 0)
    assert pf_recursive(empty) == Q.one()
    assert pf_eliminate(empty) == Q.one()


def test_pf_psi():
    for n in range(1, 21):
        psi = SkewMatrix.from_matrix(psi_matrix(Q, 2 * n))
        assert pf_eliminate(psi) == Q.one()
    for n in range(1, 7):
        psi = SkewMatrix.from_matrix(psi_matrix(Q, 2 * n))
        assert pf_recursive(psi) == Q.one()


def test_odd_size_rejected():
    with pytest.raises(OddSize):
        pf_recursive(SkewMatrix.zero(Q, 3))
    with pytest.raises(OddSize):
        pf_eliminate(SkewMatrix.zero(Q, 5))


def test_algorithms_agree_500_random():
    rng = random.Random(2)
    for _ in range(500):
        q = 2 * rng.randint(0, 5)
        a = random_skew(Q, q, rng, bound=7)
        assert pf_recursive(a) == pf_eliminate(a)


def test_pf_identities():
    rng = random.Random(3)
    for _ in range(120):
        q = 2 * rng.randint(1, 4)
        a = random_skew(Q, q, rng, bound=6)
        pf = pf_eliminate(a)
        assert pf * pf == a.full_matrix().det()
        u = Matrix(Q, [[rng.randint(-4, 4) for _ in range(q)] for _ in range(q)])
        congr = SkewMatrix.from_matrix(u.transpose() * a.full_matrix() * u)
        assert pf_eliminate(congr) == u.det() * pf
        c = Q.scalar(rng.randint(-5, 5))
        assert pf_eliminate(a.scale(c)) == c ** (q // 2) * pf


def test_remove_indices():
    rng = random.Random(4)
    a = random_skew(Q, 6, rng)
    assert a.remove_indices([]) == a
    psi4 = SkewMatrix.from_matrix(psi_matrix(Q, 4))
    psi2 = SkewMatrix.from_matrix(psi_matrix(Q, 2))
    assert psi4.remove_indices([1, 2]) == psi2
    # constant-rows family: dropping 1,2,3 leaves rows d, d, e
    d, e = Q.scalar(4), Q.scalar(5)
    fam = rows_family(Q.scalar(1), Q.scalar(2), Q.scalar(3), d, e)
    assert fam.remove_indices([1, 2, 3]) == SkewMatrix.from_upper(Q, 3, [d, d, e])


def test_is_skew_plus_small():
    a = Q.scalar(3)
    assert is_skew_plus(SkewMatrix.from_upper(Q, 2, [a]))
    assert not is_skew_plus(SkewMatrix.zero(Q, 2))
    assert is_skew_plus(SkewMatrix.from_upper(Q, 3, [a, a, a]))
    assert is_skew_plus(SkewMatrix.zero(Q, 0))
    assert is_skew_plus(SkewMatrix.zero(Q, 1))


def test_is_skew_plus_matches_exhaustive():
    from itertools import combinations
    rng = random.Random(5)
    fam = rows_family(1, 2, 3, 4, 5)
    expected = True
    for size in (2, 4, 6):
        for s in combinations(range(1, 7), size):
            if pf_eliminate(fam.principal(s)).is_zero():
                expected = False
    assert is_skew_plus(fam) == expected
    # the even-subset sweep agrees with per-subset elimination
    a = random_skew(Q, 6, rng)
    sweep = even_principal_pfaffians(a)
    for s, value in sweep.items():
        assert value == pf_eliminate(a.principal(s))


def test_certificate_inherited_by_faces():
    rng = random.Random(6)
    a = random_skew_plus(Q, 5, rng)
    face = a.face(2)
    assert isinstance(face, SkewPlusMatrix)
    assert is_skew_plus(face.inner)


def test_not_skew_plus_raises():
    with pytest.raises(NotSkewPlus):
        SkewPlusMatrix.certify(SkewMatrix.zero(Q, 2))


def test_star_extend_shapes():
    psi2 = SkewMatrix.from_matrix(psi_matrix(Q, 2))
    padded = psi2.star_extend([0, 0])
    assert padded.size == 3
    assert padded.entry(1, 2) == Q.one()
    assert padded.entry(1, 3).is_zero() and padded.entry(2, 3).is_zero()
    empty = SkewMatrix.zero(Q, 0)
    assert empty.star_extend([]).size == 1
    with pytest.raises(ShapeMismatch):
        psi2.star_extend([1])


def test_star_extend_pfaffian_linear_in_border():
    """Pf of a bordered odd principal block is the expected linear form."""
    from itertools import combinations
    rng = random.Random(7)
    for _ in range(20):
        q = rng.randint(1, 5)
        a = random_skew(Q, q, rng)
        v = [Q.scalar(rng.randint(-6, 6)) for _ in range(q)]
        for r in range(1, q + 1, 2):
            for subset in combinations(range(1, q + 1), r):
                bordered = a.principal(subset).star_extend([v[i - 1] for i in subset])
                expected = Q.zero()
                for pos, i in enumerate(subset):
                    coeff = pf_eliminate(a.principal([x for x in subset if x != i]))
                    term = coeff * v[i - 1]
                    expected = expected + term if pos % 2 == 0 else expected - term
                assert pf_eliminate(bordered) == expected


def test_dress_wenzel_three_term():
    from skewplus.cli import dress_wenzel_holds
    rng = random.Random(8)
    for _ in range(30):
        n = rng.choice([2, 3])
        a = random_skew_plus(Q, 2 * n + 2, rng, bound=6)
        p = 2 * n - 1
        others = [x for x in range(1, 2 * n + 3) if x != p]
        triple = sorted(rng.sample(others, 3))
        assert dress_wenzel_holds(a, p, triple)


def test_skew_json_round_trip():
    rng = random.Random(9)
    a = random_skew(Q, 5, rng)
    obj = a.to_json()
    assert obj["skew"] is True
    assert SkewMatrix.from_json(obj) == a
    # only the strict upper triangle is read; garbage below is ignored
    obj["entries"][3][0] = "999"
    assert SkewMatrix.from_json(obj) == a


def test_from_matrix_validates():
    with pytest.raises(Exception):
        SkewMatrix.from_matrix(Matrix(Q, [[0, 1], [1, 0]]))
    with pytest.raises(Exception):
        SkewMatrix.from_matrix(Matrix(Q, [[1, 1], [-1, 0]]))


def test_permuted_faces_match():
    rng = random.Random(10)
    from skewplus.matrices import PermutationMap
    a = random_skew(Q, 5, rng)
    perm = PermutationMap.transposition(5, 2, 3)
    b = a.permuted(perm)
    for i in range(1, 6):
        for j in range(1, 6):
            assert b.entry(i, j) == a.entry(perm(i), perm(j))
