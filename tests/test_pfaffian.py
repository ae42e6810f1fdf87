import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from skewplus import pfaffian
from skewplus.errors import NotSkewPlus, OddSize, ShapeMismatch
from skewplus.fields import PRIME, Field, IntegerRing, PolynomialRing, ResidueRing, Scalar
from skewplus.matrices import Matrix, PermutationMap
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
    for n in range(1, 9):
        psi = SkewMatrix.from_matrix(psi_matrix(Q, 2 * n))
        assert pf_recursive(psi) == Q.one() == pf_recursive_scalar(psi)


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


def test_eliminate_matches_recursive_all_fields(sparse_field):
    field, entry = sparse_field
    rng = random.Random(f"pf:{field!r}")
    zero_first_pivot = 0
    for q in [0, 2, 2] + [2 * rng.randint(2, 4) for _ in range(40)]:
        a = SkewMatrix.from_upper(field, q, [entry(rng) for _ in range(q * (q - 1) // 2)])
        pf = pf_eliminate(a)
        assert pf == pf_recursive(a)
        assert pf * pf == a.full_matrix().det()
        zero_first_pivot += q > 0 and a.entry(1, 2).is_zero() and not pf.is_zero()
    assert pf_eliminate(SkewMatrix.zero(field, 6)) == field.zero()
    assert zero_first_pivot, "no case started on a zero pivot"


def test_pf_scaling_by_function_field_element():
    f3t = Field.function_field(3)
    t = f3t.t()
    c = (t * t + 1) / (t + 2)
    rng = random.Random(11)
    for q in (0, 2, 4, 6, 8):
        a = random_skew(f3t, q, rng, bound=5)
        assert pf_eliminate(a.scale(c)) == c ** (q // 2) * pf_eliminate(a)


PROPERTY_FIELDS = [Q, Field.prime(5), Field.prime(1000003), Field.function_field(3)]


@st.composite
def skew_matrices(draw, sizes=(0, 2, 4, 6, 8), fields=PROPERTY_FIELDS):
    field = draw(st.sampled_from(fields))
    q = draw(st.sampled_from(sizes))
    if field == Q:
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    elif field.kind == PRIME:
        entry = st.integers(0, field.p - 1)
    else:
        coeffs = st.lists(st.integers(0, field.p - 1), max_size=3)
        # numerator of degree < 3 over a monic denominator of degree <= 2
        entry = st.tuples(coeffs.map(tuple), coeffs.map(lambda c: tuple(c[:2]) + (1,)))
    values = draw(st.lists(entry, min_size=q * (q - 1) // 2, max_size=q * (q - 1) // 2))
    return SkewMatrix.from_upper(field, q, [field.scalar(x) for x in values])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(skew_matrices())
def test_eliminate_property_all_fields(a):
    pf = pf_eliminate(a)
    assert pf * pf == a.full_matrix().det()
    assert pf == pf_recursive(a)


# -- pf_recursive against the Scalar expansion it replaced ----------------

def pf_recursive_scalar(a) -> Scalar:
    """pf_recursive in Scalar arithmetic: the memoised last-column
    expansion, one Scalar multiply-add per nonzero term, every set keyed
    by its surviving indices."""
    if isinstance(a, SkewPlusMatrix):
        a = a.inner
    if a.size % 2 != 0:
        raise OddSize(f"Pfaffian of odd size {a.size}")
    zero = a.field.zero()
    memo = {(): a.field.one()}

    def pf(indices):
        cached = memo.get(indices)
        if cached is not None:
            return cached
        last = indices[-1]
        total = zero
        for pos, i in enumerate(indices[:-1]):
            coeff = a.entry(i, last)
            if not coeff.is_zero():
                term = coeff * pf(indices[:pos] + indices[pos + 1:-1])
                total = total + term if pos % 2 == 0 else total - term
        memo[indices] = total
        return total

    return pf(tuple(range(1, a.size + 1)))


ORACLE_FIELDS = [Q, Field.prime(2), Field.prime(3), Field.prime(1000003),
                 Field.function_field(3)]


def seeded_skew(field, q, rng, zeros):
    """A size-q skew matrix whose entries are zero with probability
    `zeros` and otherwise drawn by `Field.sample` at bound 5."""
    return SkewMatrix.from_upper(field, q, [
        field.zero() if rng.random() < zeros else field.sample(rng, 5)
        for _ in range(q * (q - 1) // 2)])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.flag())
def test_recursive_matches_scalar_oracle(field):
    """Exact agreement at every size 0-12, dense and with zero entries;
    odd sizes raise OddSize on both."""
    rng = random.Random(f"oracle:{field!r}")
    for q in range(13):
        for zeros in (0.0, 0.3, 0.6):
            a = seeded_skew(field, q, rng, zeros)
            if q % 2:
                with pytest.raises(OddSize):
                    pf_recursive(a)
                with pytest.raises(OddSize):
                    pf_recursive_scalar(a)
            else:
                pf = pf_recursive(a)
                assert type(pf) is Scalar and pf.field == field
                assert pf == pf_recursive_scalar(a)
    assert pf_recursive(SkewMatrix.zero(field, 8)) == field.zero()


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.flag())
def test_recursive_on_certified_matrices(field):
    rng = random.Random(f"oracle+:{field!r}")
    for q in (0, 2, 4, 6, 8):
        a = random_skew_plus(field, q, rng)
        pf = pf_recursive(a)
        assert pf == pf_recursive(a.inner) == pf_recursive_scalar(a)
        assert pf == a.table[tuple(range(1, q + 1))]
        assert not pf.is_zero()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(skew_matrices(sizes=range(0, 11), fields=ORACLE_FIELDS))
def test_recursive_property_against_scalar_oracle(a):
    if a.size % 2:
        with pytest.raises(OddSize):
            pf_recursive(a)
    else:
        assert pf_recursive(a) == pf_recursive_scalar(a)


def test_recursive_is_an_expansion(monkeypatch):
    """pf_recursive stays independent of elimination, so comparing it with
    pf_eliminate compares two algorithms: it calls no pf_eliminate, no
    Matrix elimination, no Bareiss row step and no exact division beyond
    its one ring.clear.  The Scalar oracle runs outside the counted window,
    so its own divisions are not counted."""
    def refuse(*args, **kwargs):
        raise AssertionError("pf_recursive eliminated")

    monkeypatch.setattr(pfaffian, "pf_eliminate", refuse)
    monkeypatch.setattr(Matrix, "_eliminate", refuse)
    for ring in (IntegerRing, ResidueRing, PolynomialRing):
        monkeypatch.setattr(ring, "row_step", refuse)
    divisions = []
    real = PolynomialRing.quo
    monkeypatch.setattr(PolynomialRing, "quo",
                        lambda ring, x, d: divisions.append(d) or real(ring, x, d))
    rng = random.Random(12)
    for field in ORACLE_FIELDS:
        a = seeded_skew(field, 10, rng, 0.2)
        want = pf_recursive_scalar(a)
        divisions.clear()
        field.ring().clear([[x.value for x in row] for row in a.upper])
        by_clear = len(divisions)
        divisions.clear()
        assert pf_recursive(a) == want
        assert len(divisions) == by_clear
        divisions.clear()
    with pytest.raises(AssertionError, match="eliminated"):
        pf_eliminate(seeded_skew(Q, 4, rng, 0))


# -- the certificate table against the Scalar sweep it replaced ------------

def _bordered_pf(table, column, s, zero) -> Scalar:
    """Pf of the principal submatrix on the odd index tuple s, bordered by
    a last index whose entry against i is column[i-1], in Scalar
    arithmetic: sum_pos (-1)^pos column[s[pos]] table[s minus s[pos]]."""
    total = zero
    for pos, i in enumerate(s):
        coeff = column[i - 1]
        if not coeff.is_zero():
            term = coeff * table[s[:pos] + s[pos + 1:]]
            total = total + term if pos % 2 == 0 else total - term
    return total


def scalars(table) -> dict:
    """The Scalar view of a PfaffianTable, keyed by sorted index tuple."""
    return {s: table[s] for s in table.raw}


def table_oracle(a, max_size=None):
    """even_principal_pfaffians in Scalar arithmetic: each even index set
    expanded along its last column against the smaller entries, one
    Scalar multiply-add per term."""
    q = a.size
    top = q if max_size is None else min(q, max_size)
    columns = [[a.entry(i, j) for i in range(1, j)] for j in range(1, q + 1)]
    zero = a.field.zero()
    out = {(): a.field.one()}
    for size in range(2, top + 1, 2):
        for s in combinations(range(1, q + 1), size):
            out[s] = _bordered_pf(out, columns[s[-1] - 1], s[:-1], zero)
    return out


def check_table(a, max_size=None):
    table = even_principal_pfaffians(a, max_size)
    oracle = table_oracle(a, max_size)
    assert scalars(table) == oracle
    assert all(type(v) is Scalar and v.field == a.field for v in scalars(table).values())
    assert table.all_nonzero() == all(not v.is_zero() for v in oracle.values())


def test_table_matches_oracle(sparse_field):
    field, entry = sparse_field
    rng = random.Random(f"table:{field!r}")
    for q in range(0, 9):
        for _ in range(3):
            a = SkewMatrix.from_upper(field, q, [entry(rng) for _ in range(q * (q - 1) // 2)])
            for max_size in (None, 0, 1, 2, rng.randint(0, q)):
                check_table(a, max_size)
            assert is_skew_plus(a) == all(not v.is_zero() for v in table_oracle(a).values())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(skew_matrices(sizes=range(0, 9)), st.one_of(st.none(), st.integers(0, 9)))
def test_table_property_against_oracle(a, max_size):
    check_table(a, max_size)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(skew_matrices(sizes=range(0, 8)), st.data())
def test_faces_and_relabelings_inherit_the_table(a, data):
    """A face's table is the parent's restricted and re-keyed; a
    relabeling's is the parent's times the sign of the sorting permutation."""
    q = a.size
    table = scalars(even_principal_pfaffians(a))
    mask = data.draw(st.lists(st.booleans(), min_size=q, max_size=q))
    keep = [i for i, kept in enumerate(mask, start=1) if kept]
    face = a.remove_indices([i for i in range(1, q + 1) if i not in keep])
    assert scalars(even_principal_pfaffians(face)) == {
        tuple(keep.index(i) + 1 for i in s): v for s, v in table.items() if set(s) <= set(keep)}
    perm = PermutationMap(data.draw(st.permutations(range(1, q + 1))))
    relabeled = scalars(even_principal_pfaffians(a.permuted(perm)))
    for s, v in relabeled.items():
        images = [perm(i) for i in s]
        inversions = sum(x > y for x, y in combinations(images, 2))
        want = table[tuple(sorted(images))]
        assert v == (-want if inversions % 2 else want)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(skew_matrices(sizes=range(0, 8)), st.one_of(st.none(), st.integers(0, 8)), st.data())
def test_restricted_table_equals_a_fresh_one(a, max_size, data):
    """PfaffianTable.restrict on any index set, of a full or a capped
    table, and again on the result, read or not, is the table of the
    principal submatrix at every key, with the parent's ring and L."""
    q = a.size
    table = even_principal_pfaffians(a, max_size)
    keep = sorted(data.draw(st.sets(st.integers(1, q), max_size=q))) if q else []
    part = table.restrict(keep)
    inner = sorted(data.draw(st.sets(st.integers(1, len(keep)), max_size=len(keep)))) if keep else []
    if data.draw(st.booleans()):
        part.raw  # noqa: B018  (read before restricting again)
    twice = part.restrict(inner)
    assert part.scale is table.scale and twice.scale is table.scale
    sub = a.principal(keep)
    assert scalars(part) == scalars(even_principal_pfaffians(sub, max_size))
    assert scalars(twice) == scalars(even_principal_pfaffians(sub.principal(inner), max_size))


def restricted_raw_oracle(table, keep):
    """PfaffianTable.restrict(keep).raw as it was read: every entry of the
    source table scanned, those on subsets of keep relabelled."""
    label = {i: k for k, i in enumerate(keep, start=1)}
    return {tuple(label[i] for i in s): v for s, v in table.raw.items()
            if all(i in label for i in s)}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(skew_matrices(sizes=range(0, 8)), st.one_of(st.none(), st.integers(0, 8)), st.data())
def test_restricted_raw_picks_the_scanned_entries(a, max_size, data):
    """A restricted table's raw dict, picked by combinations of the kept
    indices, equals the scan of its source's entries, for full and capped
    tables, and for a restriction of a read or an unread restriction."""
    q = a.size
    table = even_principal_pfaffians(a, max_size)
    keep = sorted(data.draw(st.sets(st.integers(1, q), max_size=q))) if q else []
    inner = sorted(data.draw(st.sets(st.integers(1, len(keep)), max_size=len(keep)))) if keep else []
    part = table.restrict(keep)
    if data.draw(st.booleans()):
        assert part.raw == restricted_raw_oracle(table, keep)
    twice = part.restrict(inner)
    assert twice.raw == restricted_raw_oracle(part, inner)
    assert list(part.raw) == list(restricted_raw_oracle(table, keep))


def _count_sweeps(monkeypatch):
    calls = []
    real = pfaffian.pfaffian_table
    monkeypatch.setattr(pfaffian, "pfaffian_table",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_faces_of_a_certificate_restrict_its_table(sparse_field, monkeypatch):
    """Faces, principal submatrices and faces of faces of a certified
    matrix read its table, restricted on first use; no sweep runs, and
    each equals a fresh table at every key."""
    field, _ = sparse_field
    rng = random.Random(f"face tables:{field!r}")
    calls = _count_sweeps(monkeypatch)
    for q in range(1, 7):
        a = random_skew_plus(field, q, rng)
        calls.clear()
        first = [a.face(i) for i in range(1, q + 1)]
        first += [a.principal(rng.sample(range(1, q + 1), rng.randint(0, q))),
                  a.remove_indices([q])]
        second = [part.face(1) for part in first if part.size]
        third = [part.face(part.size) for part in second if part.size]
        parts = first + second + third
        tables = [scalars(part.table) for part in parts]
        assert calls == []
        for part, table in zip(parts, tables):
            assert table == scalars(even_principal_pfaffians(part.inner))


def test_face_of_an_untabled_matrix_sweeps_its_own_table(monkeypatch):
    a = random_skew_plus(Q, 5, random.Random(8))
    calls = _count_sweeps(monkeypatch)
    face = SkewPlusMatrix(a.inner, _trusted=True).face(2)
    table = scalars(face.table)
    assert len(calls) == 1
    assert table == scalars(a.table.restrict([1, 3, 4, 5]))


BORDER_FIELDS = [Q, Field.prime(5), Field.function_field(3)]


@st.composite
def bordered_skew(draw):
    """A skew matrix of size 0-7 over Q, F_5 or F_3(t) and a border of its
    size, entries drawn from one small pool with zeros and shared
    denominators, so borders can share factors with the table's L."""
    field = draw(st.sampled_from(BORDER_FIELDS))
    q = draw(st.integers(0, 7))
    if field == Q:
        entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6]))
    elif field.kind == PRIME:
        entry = st.integers(0, field.p - 1)
    else:
        entry = st.tuples(st.lists(st.integers(0, 2), max_size=2).map(tuple),
                          st.sampled_from([(1,), (1, 1), (2, 1), (1, 0, 1)]))
    entries = st.lists(entry.map(field.scalar), min_size=q, max_size=q)
    upper = draw(st.lists(entry, min_size=q * (q - 1) // 2, max_size=q * (q - 1) // 2))
    return SkewMatrix.from_upper(field, q, [field.scalar(x) for x in upper]), draw(entries)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(bordered_skew())
def test_bordered_ring_test_matches_scalar_oracle(case):
    """The ring bordered test against `_bordered_pf` on the Scalar table,
    for every max_size up to the size, on tables built only that far."""
    a, border = case
    q, zero = a.size, a.field.zero()
    for max_size in range(q + 1):
        table = even_principal_pfaffians(a, max_size - 1)
        oracle = scalars(table)
        want = all(not _bordered_pf(oracle, border, s, zero).is_zero()
                   for size in range(1, max_size + 1, 2)
                   for s in combinations(range(1, q + 1), size))
        ring_border = table.ring.clear([[x.value for x in border]])[1][0]
        assert table.bordered_nonzero(ring_border, max_size) == want


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
    sweep = scalars(even_principal_pfaffians(a))
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
        a = random_skew_plus(Q, 2 * n + 2, rng)
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
    perm = PermutationMap([1, 3, 2, 4, 5])
    b = a.permuted(perm)
    for i in range(1, 6):
        for j in range(1, 6):
            assert b.entry(i, j) == a.entry(perm(i), perm(j))


def test_trusted_views_match_public_constructors(sparse_field):
    from skewplus.matrices import PermutationMap
    field, entry = sparse_field
    rng = random.Random(f"views:{field!r}")
    for q in range(0, 7):
        a = SkewMatrix.from_upper(field, q, [entry(rng) for _ in range(q * (q - 1) // 2)])
        full = a.full_matrix()
        assert full == Matrix(field, [[a.entry(i, j) for j in range(1, q + 1)]
                                      for i in range(1, q + 1)])
        assert SkewMatrix.from_matrix(full) == a
        keep = sorted(rng.sample(range(1, q + 1), rng.randint(0, q)))
        sub = a.principal(keep)
        assert sub == SkewMatrix(field, len(keep),
                                 [[a.entry(i, j) for j in keep[k + 1:]]
                                  for k, i in enumerate(keep[:-1])])
        assert a.remove_indices([i for i in range(1, q + 1) if i not in keep]) == sub
        assert full.submatrix(keep, keep) == sub.full_matrix()
        images = list(range(1, q + 1))
        rng.shuffle(images)
        perm = PermutationMap(images)
        assert a.permuted(perm).full_matrix() == full.submatrix(images, images)


# -- the ring form a skew matrix keeps --------------------------------------

RING_FORM_FIELDS = [Q, Field.prime(1000003), Field.function_field(3)]


def fresh_form(a):
    """A ring.clear of the matrix's entries, read as scalars."""
    scale, rows = a.field.ring().clear([[x.value for x in row] for row in a.upper])
    return scale, tuple(map(tuple, rows))


@pytest.mark.parametrize("field", RING_FORM_FIELDS, ids=lambda f: f.flag())
def test_ring_form_is_one_cached_clear(field):
    """The kept form equals a fresh ring.clear at every size 0-8, and two
    pf_eliminate calls agree and leave it as it was."""
    rng = random.Random(f"ring form:{field!r}")
    for q in range(9):
        a = seeded_skew(field, q, rng, 0.2)
        form = a.ring_form()
        assert a.ring_form() is form
        assert form == fresh_form(a)
        if q % 2 == 0:
            first = pf_eliminate(a)
            assert pf_eliminate(a) == first == pf_recursive_scalar(a)
            assert a.ring_form() is form and form == fresh_form(a)
        table = even_principal_pfaffians(a)
        assert a.ring_form() is form and scalars(table) == table_oracle(a)


@pytest.mark.parametrize("field", RING_FORM_FIELDS, ids=lambda f: f.flag())
def test_ring_form_readers_share_it_and_pf_recursive_clears_its_own(field, monkeypatch):
    """Certification, pf_eliminate and the gamma oracle read the form;
    pf_recursive does not, so it still runs with the form refused."""
    from skewplus.gamma import gamma_oracle_c, pfaffian_ratio

    a = random_skew_plus(field, 6, random.Random(f"form readers:{field!r}"))
    want = pf_eliminate(a)
    ratio = pfaffian_ratio(a, (1, 3, 5))
    clears = []
    real = type(field.ring()).clear
    monkeypatch.setattr(type(field.ring()), "clear",
                        lambda ring, rows: clears.append(rows) or real(ring, rows))
    assert pf_eliminate(a) == want
    assert even_principal_pfaffians(a).raw == a.table.raw
    assert gamma_oracle_c(a, (1, 3, 5)) == ratio
    # the oracle clears its corner section, never the matrix, whose form
    # is the one clear of its stored triangle
    def cleared_the_matrix():
        return any(row is a.inner.flat for rows in clears for row in rows)

    assert clears and not cleared_the_matrix()
    SkewMatrix._of(field, a.size, a.inner.flat).ring_form()
    assert cleared_the_matrix()

    def refuse(self):
        raise AssertionError("pf_recursive read the kept ring form")

    monkeypatch.setattr(SkewMatrix, "ring_form", refuse)
    assert pf_recursive(a) == want
    with pytest.raises(AssertionError, match="kept ring form"):
        pf_eliminate(a)
