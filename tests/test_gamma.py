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
    reduce_to_canonical,
    sample_family_values,
    seven_term_certificate,
    seven_term_relation,
    skew3,
    square_bracket,
    unit_bracket,
    verify_appendix,
    zlinear_extension,
)
from skewplus.matrices import Matrix, PermutationMap
from skewplus.pfaffian import pf_eliminate, random_skew_plus
from skewplus.sections import section_v_det1
from skewplus.symplectic import gram, pairing, psi_matrix

Q = Field.rationals()


def swap_adjacent(a, k):
    """Relabel by exchanging indices k and k+1 (rows and columns together)."""
    return a.permuted(PermutationMap.transposition(a.size, k, k + 1))


def reduce_oracle(a, triple):
    """reduce_to_canonical by a chain of adjacent swaps: push k, then j,
    then i to the end, relabeling the matrix at every step."""
    q = a.size
    i, j, k = triple
    while k < q:
        a = swap_adjacent(a, k)
        k += 1
    while j < q - 1:
        a = swap_adjacent(a, j)
        j += 1
    while i < q - 2:
        a = swap_adjacent(a, i)
        i += 1
    return a


def oracle_reference(a, triple, betas=None):
    """gamma_oracle_c with generic linear algebra: the first two
    coordinates of each face vector by a Matrix solve against the corner,
    and each c by inverting one basis matrix and checking that the basis
    change is e_{3,4}(c)."""
    a = reduce_oracle(a, triple)
    field = a.field
    idx = (4, 5, 6)
    betas = [field.zero()] * 3 if betas is None else [field.scalar(b) for b in betas]
    betas = dict(zip(idx, betas))
    pf = {(u, v): pf_eliminate(a.remove_indices([u, v])) for u, v in combinations(idx, 2)}

    def pf_key(u, v):
        return pf[(u, v)] if u < v else pf[(v, u)]

    v1, v2, v3 = section_v_det1(a.remove_indices(idx)).vectors
    wt_psi = Matrix.from_columns(field, [v1[:2], v2[:2]]).transpose() * psi_matrix(field, 2)
    u_vecs = {}
    for r in idx:
        s, t = sorted(set(idx) - {r})
        built = {}
        for col in (s, t):
            x = wt_psi.solve(Matrix.column(field, [a.entry(1, col), a.entry(2, col)])).col(1)
            z = (a.entry(3, col) - pairing(v3[:2], x)) / v3[2]
            built[col] = (x, z)
        (x_s, z_s), (x_t, z_t) = built[s], built[t]
        assert (z_s, z_t) == (pf_key(r, t), pf_key(r, s))
        d_t = betas[r]
        d_s = (a.entry(s, t) - pairing(x_s, x_t) + z_s * d_t) / z_t
        u_vecs[r] = {s: x_s + (d_s, z_s), t: x_t + (d_t, z_t)}
        assert gram([v1, v2, v3, u_vecs[r][s], u_vecs[r][t]], field) == \
            a.remove_indices([r]).inner

    def c_of(r, s):
        t = (set(idx) - {r, s}).pop()
        m_r = Matrix.from_columns(field, [v1, v2, v3, u_vecs[r][t]])
        m_s = Matrix.from_columns(field, [v1, v2, v3, u_vecs[s][t]])
        g = m_r * m_s.inverse()
        for p in range(1, 5):
            for q in range(1, 5):
                if (p, q) != (3, 4):
                    assert g.entry(p, q) == (field.one() if p == q else field.zero())
        return g.entry(3, 4)

    i, j, k = idx
    return c_of(i, k) + c_of(k, j) + c_of(j, i)


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


@pytest.mark.parametrize("field", [Q, Field.function_field(3)], ids=["q", "f3t"])
def test_oracle_against_generic_reference(field):
    rng = random.Random(f"oracle:{field!r}")
    a = random_skew_plus(field, 6, rng)
    betas = [field.sample(rng, 5) for _ in range(3)]
    for triple in combinations(range(1, 7), 3):
        assert gamma_oracle_c(a, triple) == oracle_reference(a, triple)
        assert gamma_oracle_c(a, triple, betas) == oracle_reference(a, triple, betas)


@pytest.mark.parametrize("q", [3, 6, 8])
def test_reduce_to_canonical_matches_swap_chain(q):
    a = random_skew_plus(Q, q, random.Random(f"reduce:{q}"))
    for triple in combinations(range(1, q + 1), 3):
        assert reduce_to_canonical(a, triple) == reduce_oracle(a, triple)


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
