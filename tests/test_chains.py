import random

import pytest

from skewplus.chains import (
    FormalSum,
    GroupRingElt,
    boundary,
    build_sm,
    diff_seq,
    diff_skew,
    partial_sums,
)
from skewplus.errors import SamplerExhausted, ShapeMismatch, ZeroUnit
from skewplus.fields import Field
from skewplus.pfaffian import SkewMatrix, SkewPlusMatrix, random_skew_plus
from skewplus.symplectic import SymplecticSpace
from skewplus.unimod import NonDegSeq, random_nondeg_seq, star_is_certified

Q = Field.rationals()


def test_formal_sum_basics():
    space = SymplecticSpace(Q, 1)
    g = random_nondeg_seq(space, 1, random.Random(0))
    s = FormalSum.generator(g, 2) + FormalSum.generator(g, -2)
    assert s.is_zero()
    s = FormalSum.generator(g, 3) - FormalSum.generator(g, 1)
    assert s.coefficient(g) == 2
    assert (-s).coefficient(g) == -2
    assert s.scale(3).coefficient(g) == 6


@pytest.mark.parametrize("coefficients", ["int", "scalar"])
def test_collect_equals_repeated_addition(coefficients):
    """FormalSum.collect adds like terms in one dict and drops the ones
    that cancel, as a chain of + does term by term."""
    rng = random.Random(f"collect:{coefficients}")
    gens = [random_skew_plus(Q, 3, rng) for _ in range(4)]
    raw = [(rng.choice(gens), rng.randint(-2, 2)) for _ in range(40)]
    # one generator's terms cancel exactly, another's sum to a nonzero
    raw += [(gens[0], 5), (gens[0], -5), (gens[1], 3)]
    raw += [(gens[0], -c) for g, c in raw[:40] if g == gens[0]]
    conv = int if coefficients == "int" else (lambda c: Q.fraction(c, 3))
    pairs = [(g, conv(c)) for g, c in raw]
    by_addition = FormalSum.zero()
    for gen, coeff in pairs:
        by_addition = by_addition + FormalSum.generator(gen, coeff)
    totals = {g: sum(c for h, c in raw if h == g) for g in gens}
    collected = FormalSum.collect(pairs)
    assert collected == by_addition
    assert collected.terms == {g: conv(t) for g, t in totals.items() if t}
    assert gens[0] not in collected.terms and gens[1] in collected.terms
    assert FormalSum.collect([]) == FormalSum.zero()


def test_mixed_degree_rejected():
    rng = random.Random(1)
    a = FormalSum.generator(random_skew_plus(Q, 2, rng))
    b = FormalSum.generator(random_skew_plus(Q, 3, rng))
    with pytest.raises(ShapeMismatch):
        (a + b).degree()


def test_diff_length_one_sequence():
    space = SymplecticSpace(Q, 1)
    g = random_nondeg_seq(space, 1, random.Random(2))
    d = diff_seq(FormalSum.generator(g))
    empty = NonDegSeq.empty(space)
    assert d == FormalSum.generator(empty, 1)


def test_dd_zero_sequences():
    rng = random.Random(3)
    space = SymplecticSpace(Q, 2)
    for _ in range(60):
        q = rng.randint(1, 5)
        gen = random_nondeg_seq(space, q, rng)
        assert diff_seq(diff_seq(FormalSum.generator(gen))).is_zero()


def test_dd_zero_skew():
    rng = random.Random(4)
    for _ in range(60):
        q = rng.randint(1, 5)
        gen = random_skew_plus(Q, q, rng)
        assert diff_skew(diff_skew(FormalSum.generator(gen))).is_zero()


def test_prepend_identity():
    """d(x, xi) = xi - (x, d xi) with one common x."""
    rng = random.Random(5)
    space = SymplecticSpace(Q, 2)
    for _ in range(10):
        q = rng.randint(1, 3)
        xi = FormalSum.zero()
        for _ in range(2):
            xi = xi + FormalSum.generator(random_nondeg_seq(space, q, rng),
                                          rng.randint(-2, 2))
        if xi.is_zero():
            continue
        all_gens = list(xi.generators()) + list(diff_seq(xi).generators())
        x = None
        from skewplus.unimod import is_good_position
        for _ in range(200):
            cand = space.random_vector(rng, 8)
            if all(is_good_position(g, cand) for g in all_gens):
                x = cand
                break
        assert x is not None
        prepended = xi.map_generators(lambda g: g.prepend(x, _trusted=True))
        tail = diff_seq(xi).map_generators(lambda g: g.prepend(x, _trusted=True))
        assert diff_seq(prepended) == xi - tail


def test_skew_degree_two_diff_is_zero():
    rng = random.Random(6)
    gen = random_skew_plus(Q, 2, rng)
    assert diff_skew(FormalSum.generator(gen)).is_zero()


def test_six_face_terms():
    rng = random.Random(7)
    gen = random_skew_plus(Q, 6, rng)
    d = diff_skew(FormalSum.generator(gen))
    # six faces with alternating signs, generically distinct
    total = sum(abs(c) for _, c in d.items())
    assert total == 6


def star_extend_certified(a, v):
    """The extension of the certified matrix `a` by the border v, which
    must certify."""
    if not star_is_certified(a, v):
        raise ShapeMismatch("border vector does not certify")
    return SkewPlusMatrix(a.inner.star_extend(v), _trusted=True)


def test_border_identity_low_degrees():
    """d(xi * v) = (-1)^q xi + face-bordered d(xi), checked termwise."""
    rng = random.Random(8)
    # q = 0: the unique empty generator borders to the 1x1 zero matrix
    empty = SkewPlusMatrix.certify(SkewMatrix.zero(Q, 0))
    xi = FormalSum.generator(empty)
    eta = FormalSum.generator(star_extend_certified(empty, ()))
    assert boundary(eta) == xi
    # q = 1: d(A * v) = -[A] + [face * ()]
    one = SkewPlusMatrix.certify(SkewMatrix.zero(Q, 1))
    v = (Q.scalar(3),)
    ext = star_extend_certified(one, v)
    d = boundary(FormalSum.generator(ext))
    expected = -FormalSum.generator(one) + FormalSum.generator(
        star_extend_certified(empty, ()))
    assert d == expected


def test_group_ring_ops():
    rng = random.Random(9)
    for _ in range(40):
        a = Q.sample_nonzero(rng, 9)
        b = Q.sample_nonzero(rng, 9)
        ga = GroupRingElt.bracket(Q, a)
        gb = GroupRingElt.bracket(Q, b)
        assert ga * gb == GroupRingElt.bracket(Q, a * b)
        assert (ga + gb).augmentation() == 2
        assert (ga * gb).augmentation() == ga.augmentation() * gb.augmentation()
    with pytest.raises(ZeroUnit):
        GroupRingElt.bracket(Q, Q.zero())


def test_group_ring_augmentation_multiplicative():
    rng = random.Random(10)
    for _ in range(30):
        x = GroupRingElt(Q, {Q.sample_nonzero(rng, 6): rng.randint(-3, 3)
                             for _ in range(3)})
        y = GroupRingElt(Q, {Q.sample_nonzero(rng, 6): rng.randint(-3, 3)
                             for _ in range(3)})
        assert (x * y).augmentation() == x.augmentation() * y.augmentation()


def test_build_sm_small():
    rng = random.Random(11)
    units, s1 = build_sm(1, Q, rng)
    assert s1 == GroupRingElt.bracket(Q, units[0])
    assert s1.augmentation() == 1
    units, s2 = build_sm(2, Q, rng)
    # first candidate family is (1, 2): s_2 = <1> + <2> - <3>
    assert units == (Q.one(), Q.scalar(2))
    expected = (GroupRingElt.bracket(Q, Q.one())
                + GroupRingElt.bracket(Q, Q.scalar(2))
                - GroupRingElt.bracket(Q, Q.scalar(3)))
    assert s2 == expected
    assert s2.augmentation() == 1


def test_build_sm_function_field():
    rng = random.Random(12)
    f2t = Field.function_field(2)
    units, sm = build_sm(6, f2t, rng)
    assert sm.augmentation() == 1


def test_build_sm_augmentation_up_to_12():
    rng = random.Random(13)
    for m in range(1, 13):
        units, sm = build_sm(m, Q, rng)
        assert len(units) == m
        assert sm.augmentation() == 1


def test_partial_sums():
    assert partial_sums((Q.one(), -Q.one())) is None
    for m in range(1, 7):
        sums = partial_sums([Q.scalar(2) ** i for i in range(m)])
        assert len(sums) == 2 ** m - 1
    assert partial_sums([Q.one(), Q.scalar(2), Q.scalar(4)])[(0, 2)] == Q.scalar(5)


def test_build_sm_random_fallback_over_prime_field():
    f7 = Field.prime(7)
    units, sm = build_sm(3, f7, random.Random(15))
    assert partial_sums(units) is not None
    assert sm.augmentation() == 1
    # over F_2 the only unit is 1, and 1 + 1 = 0
    with pytest.raises(SamplerExhausted, match="in 5 attempts"):
        build_sm(2, Field.prime(2), random.Random(15), max_attempts=5)


def test_formal_sum_json():
    from skewplus.chains import formal_sum_to_json
    rng = random.Random(14)
    gen = random_skew_plus(Q, 3, rng)
    xi = FormalSum.generator(gen, 2) + FormalSum.generator(gen.face(1), -1)
    out = formal_sum_to_json(xi)
    assert len(out) == 2
    assert {entry["coefficient"] for entry in out} == {2, -1}
    assert all(entry["generator"]["skew"] for entry in out)
    space = SymplecticSpace(Q, 1)
    seq = random_nondeg_seq(space, 1, rng)
    out = formal_sum_to_json(FormalSum.generator(seq, Q.fraction(1, 2)))
    assert out[0]["coefficient"] == "1/2"
    assert out[0]["generator"]["kind"] == "sequence"
