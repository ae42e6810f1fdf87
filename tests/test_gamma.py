import random
from itertools import combinations

import pytest

from skewplus.chains import FormalSum
from skewplus.errors import BadRange, DegenerateBrace, SamplerExhausted, ZeroUnit
from skewplus.fields import Field
from skewplus.gamma import (
    FAMILIES,
    brace,
    brace1,
    bracket_to_skew3,
    check_certificate,
    family_matrix,
    find_inverse_triple,
    find_w_units,
    gamma_map,
    gamma_oracle_c,
    gamma_terms,
    pfaffian_ratio,
    sample_family_values,
    seven_term_certificate,
    seven_term_relation,
    skew3,
    square_bracket,
    swap_adjacent,
    unit_bracket,
    verify_appendix,
    zlinear_extension,
)
from skewplus.pfaffian import pf_eliminate, random_skew_plus

Q = Field.rationals()


def test_gamma_term_count_and_degree():
    rng = random.Random(1)
    a = random_skew_plus(Q, 6, rng)
    terms = gamma_terms(a, 2)
    assert len(terms) == 20
    for triple, coeff, gen in terms:
        assert gen.size == 3
    with pytest.raises(BadRange):
        gamma_terms(a, 3)


def test_gamma_rows_family_spot_rows():
    rng = random.Random(2)
    values = sample_family_values("rows", Q, rng)
    a = family_matrix("rows", values)
    terms = {t: (c, g) for t, c, g in gamma_terms(a, 2)}
    b, d, e = values["b"], values["d"], values["e"]
    coeff, gen = terms[(1, 2, 3)]
    assert coeff == 1 / (b * e ** 2)
    assert gen == skew3(Q, d, d, e)


def test_gamma_corner_family_spot_row():
    rng = random.Random(3)
    values = sample_family_values("corner", Q, rng)
    a = family_matrix("corner", values)
    terms = {t: (c, g) for t, c, g in gamma_terms(a, 2)}
    coeff, gen = terms[(4, 5, 6)]
    av, bv, cv, dv = (values[k] for k in "abcd")
    assert coeff == (-av + bv - cv) / dv ** 4
    assert gen == skew3(Q, dv, dv, dv)


def test_gamma_woven_family_spot_row():
    rng = random.Random(4)
    values = sample_family_values("woven", Q, rng)
    a = family_matrix("woven", values)
    terms = {t: (c, g) for t, c, g in gamma_terms(a, 2)}
    av, bv, dv, ev, fv = (values[k] for k in "abdef")
    coeff, gen = terms[(1, 2, 3)]
    assert coeff == (bv * dv - bv * ev + av * fv) / (av ** 2 * dv * ev * fv)
    assert gen == skew3(Q, av, bv, bv)


def test_family_pfaffians():
    rng = random.Random(5)
    for name in FAMILIES:
        values = sample_family_values(name, Q, rng)
        a = family_matrix(name, values)
        assert pf_eliminate(a) == FAMILIES[name].pfaffian(values)


def test_verify_appendix_all_families():
    rng = random.Random(6)
    reports = verify_appendix(["rows", "corner", "woven"], 3, rng)
    assert all(r.passed for r in reports)
    schema = reports[0].to_json()
    assert set(schema) == {"check", "field", "trials", "failures", "elapsed_ms"}


def test_oracle_equals_ratio_canonical():
    rng = random.Random(7)
    a = random_skew_plus(Q, 6, rng)
    assert gamma_oracle_c(a, (4, 5, 6)) == pfaffian_ratio(a, (4, 5, 6))


def test_oracle_equals_ratio_all_triples():
    rng = random.Random(8)
    for _ in range(3):
        a = random_skew_plus(Q, 6, rng)
        for triple in combinations(range(1, 7), 3):
            assert gamma_oracle_c(a, triple) == pfaffian_ratio(a, triple)


def test_oracle_independent_of_free_parameters():
    rng = random.Random(9)
    a = random_skew_plus(Q, 6, rng)
    for triple in [(1, 2, 3), (2, 4, 6), (4, 5, 6)]:
        base = gamma_oracle_c(a, triple)
        betas = [Q.sample(rng, 9) for _ in range(3)]
        assert gamma_oracle_c(a, triple, betas=betas) == base


def test_swap_invariance():
    rng = random.Random(10)
    a = random_skew_plus(Q, 6, rng)
    b = swap_adjacent(a, 5)
    assert pfaffian_ratio(a, (2, 3, 5)) == pfaffian_ratio(b, (2, 3, 6))
    assert gamma_oracle_c(a, (2, 3, 5)) == gamma_oracle_c(b, (2, 3, 6))
    c = swap_adjacent(a, 2)
    assert pfaffian_ratio(a, (2, 4, 6)) == pfaffian_ratio(c, (3, 4, 6))


def test_oracle_sum_reconstructs_gamma():
    rng = random.Random(11)
    a = random_skew_plus(Q, 6, rng)
    rebuilt = FormalSum.zero()
    for triple in combinations(range(1, 7), 3):
        i, j, k = triple
        coeff = gamma_oracle_c(a, triple)
        if (i + j + k) % 2 == 1:
            coeff = -coeff
        rebuilt = rebuilt + FormalSum.generator(a.remove_indices(triple), coeff)
    assert rebuilt == gamma_map(a, 2)


def test_check_certificate_trivial():
    rng = random.Random(12)
    a = random_skew_plus(Q, 6, rng)
    target = gamma_map(a, 2)
    assert check_certificate(target, [(1, a)], 2)
    assert check_certificate(FormalSum.zero(), [], 2)
    assert not check_certificate(target, [(2, a)], 2)


def test_seven_term_certificate():
    rng = random.Random(13)
    for _ in range(5):
        values = sample_family_values("rows", Q, rng)
        target = seven_term_relation(values, Q)
        cert = seven_term_certificate(values, Q)
        assert check_certificate(target, cert, 2)


def test_brackets():
    x, a, c = Q.scalar(3), Q.scalar(2), Q.scalar(5)
    # x {a a; c} = x c^2 [1/a 1/a; 1/c]
    coeff, gen = bracket_to_skew3(brace(x, a, a, c), Q)
    assert coeff == x * c * c
    assert gen == skew3(Q, a.inv(), a.inv(), c.inv())
    # 1 {1} = [1]
    coeff, gen = bracket_to_skew3(brace1(Q.one(), Q.one()), Q)
    assert coeff == Q.one() and gen == skew3(Q, 1, 1, 1)
    # 3 {2} = 12 [1/2]
    coeff, gen = bracket_to_skew3(brace1(x, a), Q)
    assert coeff == Q.scalar(12)
    assert gen == skew3(Q, Q.fraction(1, 2), Q.fraction(1, 2), Q.fraction(1, 2))
    coeff, gen = bracket_to_skew3(square_bracket(1, 2, 3), Q)
    assert coeff == Q.one() and gen == skew3(Q, 1, 2, 3)
    coeff, gen = bracket_to_skew3(unit_bracket(a), Q)
    assert gen == skew3(Q, a, a, a)
    with pytest.raises(DegenerateBrace):
        # 1/1 - 1/2 + 1/(-2) vanishes
        bracket_to_skew3(brace(Q.one(), Q.one(), Q.scalar(2), Q.scalar(-2)), Q)
    with pytest.raises(ZeroUnit):
        bracket_to_skew3(square_bracket(0, 1, 1), Q)


def test_find_inverse_triple():
    rng = random.Random(14)
    for field in (Q, Field.function_field(2)):
        u1, u2, u3 = find_inverse_triple(field, rng, max_attempts=100)
        assert (u1 + u2 + u3).is_zero()
        assert not u1.is_zero() and not u2.is_zero() and not u3.is_zero()
        assert not (u1.inv() + u2.inv() + u3.inv()).is_zero()
    # the classical witness over Q
    one, two, minus3 = Q.one(), Q.scalar(2), Q.scalar(-3)
    assert one.inv() + two.inv() + minus3.inv() == Q.fraction(7, 6)


def test_find_w_units():
    rng = random.Random(15)
    for field in (Q, Field.function_field(3)):
        for variant in ("linear", "square"):
            b = field.sample_nonzero(rng, 8)
            u1, u2, u3, w = find_w_units(b, variant, field, rng, max_attempts=100)
            sums = [u1, u2, u3, u1 + u2, u1 + u3, u2 + u3, u1 + u2 + u3]
            assert all(not s.is_zero() for s in sums)
            assert not w.is_zero()
    with pytest.raises(SamplerExhausted):
        find_w_units(Q.one(), "linear", Field.prime(5), rng)


def test_zlinear_extension():
    calls = []

    def f(x):
        calls.append(x)
        return x  # the identity is additive on units

    g = zlinear_extension(f, Q)
    assert g(Q.scalar(5)) == Q.scalar(5)
    assert g(Q.zero()) == Q.zero()
