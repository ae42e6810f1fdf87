import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from skewplus.chains import FormalSum, boundary
from skewplus.errors import (
    BadIndices,
    BadRange,
    DegenerateBrace,
    DivisionByZero,
    SamplerExhausted,
    ZeroUnit,
)
from skewplus.fields import Field, Scalar
from skewplus.gamma import (
    FAMILIES,
    Bracket3,
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
    verify_appendix,
)
from skewplus import gamma, pfaffian, sections
from skewplus.errors import InternalInvariant
from skewplus.matrices import Matrix, PermutationMap
from skewplus.pfaffian import (
    SkewMatrix,
    SkewPlusMatrix,
    _pf_lead,
    _pf_ring,
    pf_eliminate,
    random_skew_plus,
)
from skewplus.sections import section_v_det1
from skewplus.symplectic import SymplecticSpace, gram, pairing, psi_matrix
from skewplus.unimod import NonDegSeq, random_nondeg_seq

Q = Field.rationals()
FP = Field.prime(1000003)      # random_skew_plus can exhaust over F_5 from size 7
F3T = Field.function_field(3)


def swap_adjacent(a, k):
    """Relabel by exchanging indices k and k+1 (rows and columns together)."""
    images = list(range(1, a.size + 1))
    images[k - 1], images[k] = k + 1, k
    return a.permuted(PermutationMap(images))


def reduce_to_canonical(a, triple):
    """Relabel the matrix so that the triple becomes (2n, 2n+1, 2n+2) and
    the other indices keep their order: the relabeling of the oracle."""
    return a.permuted(PermutationMap(gamma._canonical_order(a.size, triple)))


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


def pf_without_oracle(ring, b, drop):
    """The Pfaffian of the skew ring matrix b (full rows) without the
    0-based indices in `drop`, by one `_pf_ring` elimination of its
    sub-triangle: the oracle's six Pfaffians as it computed them, one
    elimination each, before they came from one leading pass."""
    keep = [x for x in range(len(b)) if x not in drop]
    p, sign = _pf_ring(ring, [[b[x][y] for y in keep[i + 1:]] for i, x in enumerate(keep[:-1])])
    return p if sign == 1 else ring.neg(p)


def full_rows(ring, upper):
    """The full skew rows of the ring triangle with strict upper rows `upper`."""
    q = len(upper) + 1
    b = [[ring.zero] * q for _ in range(q)]
    for x, row in enumerate(upper):
        for y, value in enumerate(row, start=x + 1):
            b[x][y], b[y][x] = value, ring.neg(value)
    return b


def pf_lead_oracle(ring, upper, lead):
    """`_pf_lead` with each trailing entry (i, j) read by `pf_without_oracle`
    as the Pfaffian without the other trailing indices."""
    b = full_rows(ring, upper)
    q = len(b)
    m = [[None] * q for _ in range(q)]
    for i, j in combinations(range(lead, q), 2):
        m[i][j] = pf_without_oracle(ring, b, [x for x in range(lead, q) if x not in (i, j)])
    return m


def pfaffian_ratio_scalar(a, triple):
    """pfaffian_ratio as it was computed in Scalar arithmetic: four table
    entries reduced to scalars, three products and a division."""
    i, j, k = triple
    return a.pf_without() / (a.pf_without(i, j) * a.pf_without(i, k) * a.pf_without(j, k))


RATIO_KINDS = ("certified", "face", "permuted", "gram")


def ratio_input(kind, field, q, rng):
    """A certified size-q matrix whose table is made one of four ways: by
    certification, restricted from a parent's (a face), swept on first
    use (a relabelled matrix, with no table), or the Gram table of a
    sequence, whose scale is L^2."""
    if kind == "certified":
        return random_skew_plus(field, q, rng)
    if kind == "face":
        face = random_skew_plus(field, q + 1, rng).face(rng.randint(1, q + 1))
        assert face._table is None and face._parent is not None
        return face
    if kind == "permuted":
        perm = list(range(1, q + 1))
        rng.shuffle(perm)
        relabelled = random_skew_plus(field, q, rng).permuted(PermutationMap(perm))
        assert relabelled._table is None
        return relabelled
    seq = random_nondeg_seq(SymplecticSpace(field, (q + 1) // 2), q, rng)
    return seq.gram_certified()


def solve_pairings_scalar(vectors, values, field):
    """The w with <v_i, w> = values[i] for v_i in span(e_1..e_i), by the
    forward substitution u_i = (a_i - sum_{j<i} v_i[j] u_j) / v_i[i] in
    Scalar arithmetic, then w = (-u_2, u_1, -u_4, u_3, ...)."""
    u = []
    for i, (v, a) in enumerate(zip(vectors, values)):
        if v[i].is_zero():
            raise InternalInvariant("prefix Gram matrix is singular despite the certificate")
        for x, y in zip(v, u):
            a = a - x * y
        u.append(a / v[i])
    if len(u) % 2 == 1:
        u.append(field.zero())
    return tuple(x for k in range(0, len(u), 2) for x in (-u[k + 1], u[k]))


def gamma_oracle_c_scalar(a, triple, betas=None):
    """gamma_oracle_c as it was built in Scalar arithmetic: a relabelled
    SkewPlusMatrix, every Pfaffian by pf_eliminate on a face matrix, the
    face vectors solved one column at a time, and the checks by `gram`
    and `pairing` on Scalar vectors."""
    q = a.size
    a = reduce_to_canonical(a, triple)
    field = a.field
    idx = (q - 2, q - 1, q)
    betas = [field.zero()] * 3 if betas is None else [field.scalar(b) for b in betas]
    betas = dict(zip(idx, betas))

    pf = {}
    for u, v in combinations(idx, 2):
        pf[u, v] = pf[v, u] = pf_eliminate(a.remove_indices([u, v]))
    tri = section_v_det1(a.remove_indices(idx)).vectors
    last_pivot = tri[-1][q - 4]
    built = {col: solve_pairings_scalar(tri, [a.entry(i, col) for i in range(1, q - 2)], field)
             for col in idx}
    if any(built[col][-1] != pf[tuple(set(idx) - {col})] for col in idx):
        raise InternalInvariant("last coordinate does not match its Pfaffian")
    u_vecs = {}
    for r in idx:
        s, t = (col for col in idx if col != r)
        z_s, z_t = built[s][-1], built[t][-1]
        d_t = betas[r]
        d_s = (a.entry(s, t) - pairing(built[s], built[t]) + z_s * d_t) / z_t
        u_vecs[r] = {col: built[col][:-2] + (d, built[col][-1])
                     for col, d in ((s, d_s), (t, d_t))}
        if gram([*tri, u_vecs[r][s], u_vecs[r][t]], field) != a.remove_indices([r]).inner:
            raise InternalInvariant("sequence Gram does not match the face")
        lhs = pf_eliminate(a.remove_indices([q - 3, r])) * last_pivot
        if lhs != d_s * pf[r, s] - d_t * pf[r, t]:
            raise InternalInvariant("determinant identity fails")

    def c_of(r, s):
        t = (set(idx) - {r, s}).pop()
        x, y = u_vecs[r][t], u_vecs[s][t]
        return (x[-2] - y[-2]) / y[-1]

    i, j, k = idx
    return c_of(i, k) + c_of(k, j) + c_of(j, i)


def oracle_reference(a, triple, betas=None):
    """gamma_oracle_c with generic linear algebra: the first 2n-2
    coordinates of each face vector by a Matrix solve against the corner,
    and each c by inverting one basis matrix and checking that the basis
    change is e_{2n-1,2n}(c)."""
    a = reduce_oracle(a, triple)
    field = a.field
    q = a.size
    m = q - 4                      # 2n - 2
    idx = (q - 2, q - 1, q)
    betas = [field.zero()] * 3 if betas is None else [field.scalar(b) for b in betas]
    betas = dict(zip(idx, betas))
    pf = {(u, v): pf_eliminate(a.remove_indices([u, v])) for u, v in combinations(idx, 2)}

    def pf_key(u, v):
        return pf[(u, v)] if u < v else pf[(v, u)]

    corner = section_v_det1(a.remove_indices(idx)).vectors
    *lead, last = corner
    if m:
        wt_psi = Matrix.from_columns(field, [v[:m] for v in lead]).transpose() * \
            psi_matrix(field, m)
    u_vecs = {}
    for r in idx:
        s, t = sorted(set(idx) - {r})
        built = {}
        for col in (s, t):
            rhs = [a.entry(i, col) for i in range(1, m + 1)]
            x = wt_psi.solve(Matrix.column(field, rhs)).col(1) if m else ()
            z = (a.entry(m + 1, col) - pairing(last, x + (field.zero(),) * 2)) / last[m]
            built[col] = (x, z)
        (x_s, z_s), (x_t, z_t) = built[s], built[t]
        assert (z_s, z_t) == (pf_key(r, t), pf_key(r, s))
        d_t = betas[r]
        d_s = (a.entry(s, t) - (pairing(x_s, x_t) if m else 0) + z_s * d_t) / z_t
        u_vecs[r] = {s: x_s + (d_s, z_s), t: x_t + (d_t, z_t)}
        assert gram([*corner, u_vecs[r][s], u_vecs[r][t]], field) == \
            a.remove_indices([r]).inner

    def c_of(r, s):
        t = (set(idx) - {r, s}).pop()
        m_r = Matrix.from_columns(field, [*corner, u_vecs[r][t]])
        m_s = Matrix.from_columns(field, [*corner, u_vecs[s][t]])
        g = m_r * m_s.inverse()
        for p in range(1, m + 3):
            for k in range(1, m + 3):
                if (p, k) != (m + 1, m + 2):
                    assert g.entry(p, k) == (field.one() if p == k else field.zero())
        return g.entry(m + 1, m + 2)

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


@pytest.mark.parametrize("field, q", [(Q, 4), (Q, 8), (Q, 10), (FP, 4), (FP, 8),
                                      (F3T, 4), (F3T, 8)],
                         ids=["q-4", "q-8", "q-10", "fp-4", "fp-8", "f3t-4", "f3t-8"])
def test_oracle_equals_ratio_every_size(field, q):
    a = random_skew_plus(field, q, random.Random(f"every size:{field!r}:{q}"))
    for triple in combinations(range(1, q + 1), 3):
        assert gamma_oracle_c(a, triple) == pfaffian_ratio(a, triple)


def test_oracle_independent_of_free_parameters_at_size_8():
    rng = random.Random(16)
    a = random_skew_plus(Q, 8, rng)
    for triple in combinations(range(1, 9), 3):
        betas = [Q.sample(rng, 9) for _ in range(3)]
        assert gamma_oracle_c(a, triple, betas=betas) == gamma_oracle_c(a, triple)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([Q, FP, F3T]), st.sampled_from([4, 6, 8]), st.integers(0, 10 ** 6),
       st.data())
def test_oracle_property_sizes_4_to_8(field, q, seed, data):
    rng = random.Random(seed)
    a = random_skew_plus(field, q, rng)
    triple = tuple(sorted(data.draw(st.sets(st.integers(1, q), min_size=3, max_size=3))))
    betas = [field.sample(rng, 9) for _ in range(3)]
    assert gamma_oracle_c(a, triple) == pfaffian_ratio(a, triple)
    assert gamma_oracle_c(a, triple, betas=betas) == pfaffian_ratio(a, triple)


def test_oracle_rejects_odd_sizes_small_sizes_and_bad_triples():
    rng = random.Random(17)
    for q in (2, 5, 7):
        with pytest.raises(BadRange):
            gamma_oracle_c(random_skew_plus(Q, q, rng), (1, 2, 3))
    a = random_skew_plus(Q, 6, rng)
    for triple in ((3, 2, 1), (4, 5, 7), (0, 1, 2), (2, 2, 3)):
        with pytest.raises(BadIndices):
            gamma_oracle_c(a, triple)


def test_oracle_and_ratio_reject_bad_argument_lengths():
    a = random_skew_plus(Q, 6, random.Random(18))
    for triple in ((4, 5), (1, 2, 3, 4), ()):
        with pytest.raises(BadIndices):
            gamma_oracle_c(a, triple)
        with pytest.raises(BadIndices):
            pfaffian_ratio(a, triple)
        with pytest.raises(BadIndices):
            reduce_to_canonical(a, triple)
    for betas in ([1, 2], [1, 2, 3, 4], []):
        with pytest.raises(BadRange):
            gamma_oracle_c(a, (1, 2, 3), betas=betas)


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
@pytest.mark.parametrize("q", [4, 6, 8])
def test_oracle_against_scalar_body_reference_and_ratio(field, q):
    rng = random.Random(f"scalar body:{field!r}:{q}")
    a = random_skew_plus(field, q, rng)
    triples = list(combinations(range(1, q + 1), 3))
    if q == 8:
        # oracle_reference inverts two basis matrices per term: every
        # fifth triple, counted from the canonical one
        triples = triples[::-5]
    for triple in triples:
        betas = [field.sample(rng, 9) for _ in range(3)]
        ratio = pfaffian_ratio(a, triple)
        assert gamma_oracle_c_scalar(a, triple) == ratio
        for bs in (None, betas):
            c = gamma_oracle_c(a, triple, bs)
            assert c == gamma_oracle_c_scalar(a, triple, bs) == ratio
            assert c == oracle_reference(a, triple, bs)


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
@pytest.mark.parametrize("q", [3, 4, 5, 6, 7, 8])
def test_ratio_from_ring_entries_equals_scalar_oracle(field, q):
    """pfaffian_ratio, one reduction of the table's ring entries, equals
    the Scalar quotient of its Pfaffians, on tables of every origin; an
    odd matrix has no Pfaffian in its table, so both raise: the library
    BadRange, the Scalar body a bare KeyError."""
    rng = random.Random(f"ratio:{field!r}:{q}")
    for kind in RATIO_KINDS:
        a = ratio_input(kind, field, q, rng)
        for triple in combinations(range(1, q + 1), 3):
            if q % 2:
                with pytest.raises(BadRange):
                    pfaffian_ratio(a, triple)
                with pytest.raises(KeyError):
                    pfaffian_ratio_scalar(a, triple)
            else:
                assert pfaffian_ratio(a, triple) == pfaffian_ratio_scalar(a, triple), kind


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([Q, FP, F3T]), st.sampled_from([4, 6, 8]), st.sampled_from(RATIO_KINDS),
       st.integers(0, 10 ** 6), st.data())
def test_ratio_from_ring_entries_property(field, q, kind, seed, data):
    a = ratio_input(kind, field, q, random.Random(seed))
    triple = tuple(sorted(data.draw(st.sets(st.integers(1, q), min_size=3, max_size=3))))
    assert pfaffian_ratio(a, triple) == pfaffian_ratio_scalar(a, triple)


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
def test_oracle_uses_no_table_ratio_or_expansion(field, monkeypatch):
    """The oracle stays independent of the certificate's table, of
    pfaffian_ratio and of the last-column expansion, and checks its corner
    in the ring: no public section, Scalar determinant or Gram matrix."""
    a = random_skew_plus(field, 6, random.Random(f"independent:{field!r}"))
    triples = list(combinations(range(1, 7), 3))
    want = [pfaffian_ratio(a, triple) for triple in triples]
    fresh = SkewPlusMatrix(a.inner, _trusted=True)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached a Pfaffian-table or Scalar-check path")

    monkeypatch.setattr(SkewPlusMatrix, "table", property(refuse))
    monkeypatch.setattr(gamma, "pfaffian_ratio", refuse)
    monkeypatch.setattr(pfaffian, "_expand", refuse)
    monkeypatch.setattr(pfaffian, "pf_recursive", refuse)
    monkeypatch.setattr(sections, "section_v_det1", refuse)
    monkeypatch.setattr(Matrix, "det", refuse)
    monkeypatch.setattr(NonDegSeq, "gram", refuse)
    with pytest.raises(AssertionError):
        pfaffian.even_principal_pfaffians(a)
    with pytest.raises(AssertionError):
        fresh.pf_without()
    for matrix in (a, fresh):
        assert [gamma_oracle_c(matrix, triple) for triple in triples] == want


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
def test_oracle_checks_fire_on_a_bent_input(field, monkeypatch):
    """Each check of the oracle raises, with its own message, when the
    input it checks is bent: a corner vector doubled, a nonzero entry past
    a corner vector's diagonal, the corner's det-1 correction dropped, the
    last unknown of the first column moved by one, the leading pass's
    three pair Pfaffians doubled, its three Pfaffians of the determinant
    identity doubled.  The corner checks are `sections._det1_checked`, so
    its section is bent in `sections`.  The dropped
    correction keeps the corner's Gram entries: it sits on e_3, which
    pairs only with e_4, zero in every corner vector."""
    a = random_skew_plus(field, 6, random.Random(f"bent:{field!r}"))
    ring = field.ring()
    real_section, real_substitute, real_lead = (sections._det1_vectors, gamma._substitute,
                                                gamma._pf_lead)

    # the corner vectors are tuples of canonical values
    def bent_corner(corner):
        v = real_section(corner)
        return [tuple((Scalar(field, x) + Scalar(field, x)).value for x in v[0])] + v[1:]

    def past_diagonal(corner):
        v = real_section(corner)
        return [v[0] + (field.one().value,)] + v[1:]

    def no_correction(corner):
        v = real_section(corner)
        return v[:-1] + [v[-1][:-1]]

    def bent_last_unknown(ring, den, nums, row, rhs):
        den = real_substitute(ring, den, nums, row, rhs)
        if len(nums[0]) == 3:          # the corner of size 6 has 3 rows
            nums[0][-1] = ring.add(nums[0][-1], den)
        return den

    def bent_pfaffians(entries):
        def pf_lead(ring, upper, lead):
            m = real_lead(ring, upper, lead)
            for x, y in entries:
                m[x][y] = ring.add(m[x][y], m[x][y])
            return m
        return pf_lead

    # the last four indices are 2..5: the pair Pfaffians sit in row 2, the
    # identity's among 3, 4, 5
    for module, name, bent, message in [
            (sections, "_det1_vectors", bent_corner, "corner Gram"),
            (sections, "_det1_vectors", past_diagonal, "not triangular"),
            (sections, "_det1_vectors", no_correction, "has determinant"),
            (gamma, "_substitute", bent_last_unknown, "face pairing with the corner"),
            (gamma, "_pf_lead", bent_pfaffians([(2, 3), (2, 4), (2, 5)]), "last coordinate"),
            (gamma, "_pf_lead", bent_pfaffians([(3, 4), (3, 5), (4, 5)]), "determinant identity")]:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, bent)
            with pytest.raises(InternalInvariant, match=message):
                gamma_oracle_c(a, (1, 3, 5))
    assert gamma_oracle_c(a, (1, 3, 5)) == pfaffian_ratio(a, (1, 3, 5))


def check_lead_pass(a, lead):
    """Every trailing entry (i, j) of the leading pass on the ring form of
    a equals its Pfaffian by `pf_without_oracle`, and, reduced, by
    pf_eliminate and pf_recursive on the leading indices plus i and j."""
    ring = a.field.ring()
    scale, upper = a.inner.ring_form()
    m = _pf_lead(ring, upper, lead)
    b = full_rows(ring, upper)
    for i, j in combinations(range(lead, a.size), 2):
        assert ring.equal(m[i][j], pf_without_oracle(
            ring, b, [x for x in range(lead, a.size) if x not in (i, j)]))
        block = a.principal([*range(1, lead + 1), i + 1, j + 1])
        assert ring.to_scalar(m[i][j], scale, lead // 2 + 1) == pf_eliminate(block) \
            == pfaffian.pf_recursive(block)


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
@pytest.mark.parametrize("q", [4, 5, 6, 8, 10])
def test_lead_pass_trailing_block_is_bordered_pfaffians(field, q):
    a = random_skew_plus(field, q, random.Random(f"lead:{field!r}:{q}"))
    for lead in range(0, q - 1, 2):
        check_lead_pass(a, lead)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from([Q, FP, F3T]), st.integers(4, 10), st.integers(0, 10 ** 6), st.data())
def test_lead_pass_property(field, q, seed, data):
    a = random_skew_plus(field, q, random.Random(seed))
    check_lead_pass(a, data.draw(st.sampled_from(range(0, q - 1, 2))))


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
def test_lead_pass_raises_on_a_zero_pivot(field):
    """A zero pivot, a leading block of Pfaffian zero, raises, and the pass
    leaves its input as it is: first entry (1, 2) zeroed, then entry (3, 4)
    set to (a13 a24 - a14 a23) / a12, so that Pf on 1..4 vanishes."""
    e = [x for row in random_skew_plus(field, 6, random.Random(f"pivot:{field!r}")).inner.upper
         for x in row]
    first = [field.zero()] + e[1:]
    # entries 0..4 are row 1, 5..8 row 2, 9 is (3, 4)
    second = e[:9] + [(e[1] * e[6] - e[2] * e[5]) / e[0]] + e[10:]
    ring = field.ring()
    for bent, pivot in ((first, 1), (second, 3)):
        upper = [list(row) for row in SkewMatrix.from_upper(field, 6, bent).ring_form()[1]]
        before = [list(row) for row in upper]
        _pf_lead(ring, upper, pivot - 1)
        with pytest.raises(InternalInvariant, match=f"0..{pivot} has Pfaffian zero"):
            _pf_lead(ring, upper, pivot + 1)
        assert upper == before


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
def test_oracle_with_a_zero_entry_matches_six_eliminations(field, monkeypatch):
    """On trusted 6x6 matrices with one upper entry zeroed, which need not
    be certified, the oracle gives the value it gives with its six
    Pfaffians from `pf_without_oracle`, or both raise the same error type:
    InternalInvariant where a leading pivot is zero (the leading Pfaffian
    of the corner is zero, so its section fails), DivisionByZero where a
    pair Pfaffian is zero and c has no denominator."""
    rng = random.Random(f"zero entry:{field!r}")
    entries = [x for row in random_skew_plus(field, 6, rng).inner.upper for x in row]

    def outcome(matrix, triple):
        try:
            return gamma_oracle_c(matrix, triple)
        except (InternalInvariant, DivisionByZero) as error:
            return type(error)

    seen = []
    for pos in range(len(entries)):
        bent = entries[:pos] + [field.zero()] + entries[pos + 1:]
        z = SkewPlusMatrix(SkewMatrix.from_upper(field, 6, bent), _trusted=True)
        for triple in combinations(range(1, 7), 3):
            new = outcome(z, triple)
            with monkeypatch.context() as patch:
                patch.setattr(gamma, "_pf_lead", pf_lead_oracle)
                assert outcome(z, triple) == new, (pos, triple)
            seen.append(new)
    assert InternalInvariant in seen and any(isinstance(x, Scalar) for x in seen)


# the size-6 cases keep their ids
@pytest.mark.parametrize("field, q", [(Q, 6), (Q, 4), (Q, 8),
                                      (F3T, 6), (F3T, 4), (F3T, 8)],
                         ids=["q", "q-4", "q-8", "f3t", "f3t-4", "f3t-8"])
def test_oracle_against_generic_reference(field, q):
    rng = random.Random(f"oracle:{field!r}" + (f":{q}" if q != 6 else ""))
    a = random_skew_plus(field, q, rng)
    betas = [field.sample(rng, 5) for _ in range(3)]
    triples = list(combinations(range(1, q + 1), 3))
    if field is F3T and q == 8:
        # the reference's inverses take about 0.3 s a triple here: every
        # seventh triple, counted from the canonical one
        triples = triples[::-7]
    for triple in triples:
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


def gamma_of_boundary_vanishes(b) -> bool:
    faces = boundary(FormalSum.generator(b))
    return check_certificate(FormalSum.zero(), [(c, g) for g, c in faces.items()],
                             (b.size - 3) // 2)


@pytest.mark.parametrize("field", [Q, FP, F3T], ids=["q", "fp", "f3t"])
@pytest.mark.parametrize("size", [5, 7, 9])
def test_gamma_vanishes_on_boundaries(field, size):
    b = random_skew_plus(field, size, random.Random(f"boundary:{field!r}:{size}"))
    assert gamma_of_boundary_vanishes(b)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from([Q, FP]), st.sampled_from([5, 7, 9]), st.integers(0, 10 ** 6))
def test_gamma_vanishes_on_boundaries_property(field, size, seed):
    assert gamma_of_boundary_vanishes(random_skew_plus(field, size, random.Random(seed)))


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
    coeff, gen = bracket_to_skew3(Bracket3("square", (1, 2, 3)), Q)
    assert coeff == Q.one() and gen == skew3(Q, 1, 2, 3)
    coeff, gen = bracket_to_skew3(Bracket3("unit", (a,)), Q)
    assert gen == skew3(Q, a, a, a)
    with pytest.raises(DegenerateBrace):
        # 1/1 - 1/2 + 1/(-2) vanishes
        bracket_to_skew3(brace(Q.one(), Q.one(), Q.scalar(2), Q.scalar(-2)), Q)
    with pytest.raises(ZeroUnit):
        bracket_to_skew3(Bracket3("square", (0, 1, 1)), Q)


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

