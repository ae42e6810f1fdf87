import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewplus import sections
from skewplus.errors import BadRange, EvenSize, InternalInvariant, Singular
from skewplus.fields import PRIME, Field, Scalar
from skewplus.matrices import Matrix
from skewplus.pfaffian import SkewMatrix, SkewPlusMatrix, is_skew_plus, random_skew_plus
from skewplus.sections import _section, _substitute, section_V, section_v_det1
from skewplus.symplectic import SymplecticSpace, pad_vector, pairing, psi_matrix
from skewplus.unimod import NonDegSeq, is_nondeg_unimodular

Q = Field.rationals()


# -- the sections by one generic solve per step, as reference --------------

def _pairing_padded(x, y, field):
    n = max(len(x), len(y))
    if n % 2 == 1:
        n += 1
    return pairing(pad_vector(x, n, field), pad_vector(y, n, field))


def _solve_last(prefix, a_col, field):
    """The unique w in R^{2r} with <v_i, w> = a_i against the basis prefix."""
    r2 = len(prefix)
    if r2 == 0:
        return ()
    p = Matrix.from_columns(field, [pad_vector(v, r2, field) for v in prefix])
    lhs = p.transpose() * psi_matrix(field, r2)
    rhs = Matrix.column(field, a_col)
    try:
        return tuple(lhs.solve(rhs).col(1))
    except Singular as exc:
        raise InternalInvariant(
            "prefix Gram matrix is singular despite the certificate") from exc


def section_oracle(a, roomy: bool):
    """The section vectors of skew matrix `a` in minimal coordinates: odd
    steps solve the pairings against all earlier vectors with a Matrix
    solve, even steps against all but the last and then set the last
    coordinate from the remaining pairing."""
    field = a.field
    q = a.size
    vectors = []
    for k in range(1, q + 1):
        if k % 2 == 1:
            w = _solve_last(vectors, [a.entry(i, k) for i in range(1, k)], field)
            extra = field.one() if k < q or roomy else None
        else:
            w = _solve_last(vectors[:-1], [a.entry(i, k) for i in range(1, k - 1)], field)
            extra = a.entry(k - 1, k) - _pairing_padded(vectors[-1], w, field)
        if extra is not None:
            w = pad_vector(w, k, field)
            w = w[:-1] + (w[-1] + extra,)
        vectors.append(w)
    return vectors


def det1_oracle(a):
    """The vectors of section_v_det1, with the block determinant by
    elimination."""
    field, q = a.field, a.size
    vectors = section_oracle(a.inner, roomy=False)
    det_block = field.one()
    if q > 1:
        det_block = Matrix.from_columns(
            field, [pad_vector(v, q - 1, field) for v in vectors[:-1]]).det()
    last = pad_vector(vectors[-1], q, field)
    last = last[:-1] + (last[-1] + det_block.inv(),)
    return tuple(pad_vector(v, q + 1, field) for v in vectors[:-1] + [last])


def check_against_oracle(a, two_n):
    field, q = a.field, a.size
    roomy = q % 2 == 1 and q < two_n + 1
    want = tuple(pad_vector(v, two_n, field) for v in section_oracle(a.inner, roomy))
    assert section_V(q, two_n, a).vectors == want
    if q % 2 == 1:
        assert section_v_det1(a).vectors == det1_oracle(a)


def test_sections_against_oracle(sparse_field):
    field, _ = sparse_field
    rng = random.Random(f"sections:{field!r}")
    # over F_5 the sampler finds size 7 only some of the time, and no larger
    max_q = 6 if field == Field.prime(5) else 9
    for two_n in (0, 2, 4, 6, 8):
        for q in range(0, min(two_n + 1, max_q) + 1):
            check_against_oracle(random_skew_plus(field, q, rng), two_n)


PROPERTY_FIELDS = [Q, Field.prime(5), Field.prime(1000003), Field.function_field(3)]


@st.composite
def certified(draw):
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    q = draw(st.integers(0, 4 if field == Field.prime(5) else 7))
    if field == Q:
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    elif field.kind == PRIME:
        entry = st.integers(1, field.p - 1)
    else:
        coeffs = st.lists(st.integers(0, field.p - 1), max_size=3)
        # numerator of degree < 3 over a monic denominator of degree <= 1
        entry = st.tuples(coeffs.map(tuple), coeffs.map(lambda c: tuple(c[:1]) + (1,)))
    entry = entry.map(field.scalar).filter(lambda x: not x.is_zero())
    values = draw(st.lists(entry, min_size=q * (q - 1) // 2, max_size=q * (q - 1) // 2))
    a = SkewMatrix.from_upper(field, q, values)
    assume(is_skew_plus(a))
    # the smallest ambient space, or one size up
    return SkewPlusMatrix.certify(a), q - q % 2 + 2 * draw(st.integers(0, 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(certified())
def test_sections_property_against_oracle(case):
    check_against_oracle(*case)


# -- the one-pass section against the per-column solves it replaced ------

def _solve_pairings(vectors, values, field):
    """The w with <v_i, w> = values[i] for every i, of even length
    2 ceil(len(vectors) / 2), for vectors v_i in span(e_1..e_i) with
    nonzero i-th coordinate (coordinates past the i-th are not read).
    In the ring of `field.ring()`, each row (v_i[1..i], values[i]) is
    cleared once to (m_i1..m_ii, b_i), and num_j = u_j D is kept over the
    product D of the pivots m_ii so far, so each u_j is reduced once."""
    ring = field.ring()
    mul = ring.mul
    den, nums = ring.one, []
    for i, (v, a) in enumerate(zip(vectors, values)):
        if v[i].is_zero():
            raise InternalInvariant(
                "prefix Gram matrix is singular despite the certificate")
        _, ((*m, pivot, b),) = ring.clear([[x.value for x in (*v[:i + 1], a)]])
        s = ring.sub(mul(den, b), ring.dot(m, nums))
        nums = [mul(x, pivot) for x in nums] + [s]
        den = mul(den, pivot)
    if len(nums) % 2 == 1:
        nums.append(ring.zero)
    return tuple(ring.to_scalar(x, den, 1) for k in range(0, len(nums), 2)
                 for x in (ring.neg(nums[k + 1]), nums[k]))


def section_per_call(a, roomy: bool):
    """sections._section with one `_solve_pairings` call per vector, which
    clears every earlier vector again: q(q-1)/2 cleared rows."""
    field = a.field
    q = a.size
    vectors = []
    for k in range(1, q + 1):
        w = _solve_pairings(vectors, [a.entry(i, k) for i in range(1, k)], field)
        if k % 2 == 1 and (k < q or roomy):
            w += (field.one(),)
        vectors.append(w)
    return vectors


def solve_by_substitution(vectors, values, field):
    """_solve_pairings through `_substitute` with one right-hand side."""
    ring = field.ring()
    den, nums = ring.one, [[]]
    for i, (v, a) in enumerate(zip(vectors, values)):
        _, (row,) = ring.clear([[x.value for x in (*v[:i + 1], a)]])
        den = _substitute(ring, den, nums, row[:-1], row[-1:])
    u = nums[0] + [ring.zero] * (len(nums[0]) % 2)
    return tuple(ring.to_scalar(x, den, 1) for k in range(0, len(u), 2)
                 for x in (ring.neg(u[k + 1]), u[k]))


def values(vectors):
    """Scalar vectors as the canonical values `_section` returns."""
    return [tuple(x.value for x in v) for v in vectors]


ONE_PASS_FIELDS = [Q, Field.prime(1000003), Field.function_field(3)]


@pytest.mark.parametrize("field", ONE_PASS_FIELDS, ids=["q", "f1000003", "f3t"])
def test_one_pass_section_against_per_call(field):
    rng = random.Random(f"one pass:{field!r}")
    for q in range(10):
        for _ in range(2):
            a = random_skew_plus(field, q, rng).inner
            for roomy in (False, True):
                assert _section(a, roomy) == values(section_per_call(a, roomy))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(ONE_PASS_FIELDS), st.integers(0, 9), st.booleans(),
       st.integers(0, 10 ** 6))
def test_one_pass_section_property(field, q, roomy, seed):
    a = random_skew_plus(field, q, random.Random(seed)).inner
    assert _section(a, roomy) == values(section_per_call(a, roomy))


# -- the substitution against the Scalar loop it replaced -----------------

def solve_pairings_oracle(vectors, values, field):
    """sections._solve_pairings in Scalar arithmetic: the forward
    substitution u_i = (a_i - sum_{j<i} v_i[j] u_j) / v_i[i], one Scalar
    multiply-add per term, then w = (-u_2, u_1, -u_4, u_3, ...)."""
    u = []
    for i, (v, a) in enumerate(zip(vectors, values)):
        if v[i].is_zero():
            raise InternalInvariant(
                "prefix Gram matrix is singular despite the certificate")
        for x, y in zip(v, u):
            a = a - x * y
        u.append(a / v[i])
    if len(u) % 2 == 1:
        u.append(field.zero())
    return tuple(x for k in range(0, len(u), 2) for x in (-u[k + 1], u[k]))


def entries(field):
    """Scalars of `field`, zero among them."""
    if field == Q:
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    elif field.kind == PRIME:
        entry = st.integers(0, field.p - 1)
    else:
        coeffs = st.lists(st.integers(0, field.p - 1), max_size=3)
        entry = st.tuples(coeffs.map(tuple), coeffs.map(lambda c: tuple(c[:1]) + (1,)))
    return entry.map(field.scalar)


@st.composite
def triangular_systems(draw):
    """(field, vectors, values): v_i in span(e_1..e_i) with a nonzero i-th
    coordinate, followed by up to two coordinates the solve does not read."""
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    count = draw(st.integers(0, 9))
    entry = entries(field)
    vectors = [tuple(draw(st.lists(entry, min_size=i, max_size=i)))
               + (draw(entry.filter(lambda x: not x.is_zero())),)
               + tuple(draw(st.lists(entry, max_size=2)))
               for i in range(count)]
    return field, vectors, draw(st.lists(entry, min_size=count, max_size=count))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(triangular_systems())
def test_solve_pairings_property_against_oracle(system):
    field, vectors, values = system
    w = _solve_pairings(vectors, values, field)
    assert w == solve_pairings_oracle(vectors, values, field)
    assert len(w) == len(vectors) + len(vectors) % 2
    assert solve_by_substitution(vectors, values, field) == w


def test_solve_pairings_rejects_a_zero_pivot():
    one, zero = Q.one(), Q.zero()
    with pytest.raises(InternalInvariant):
        _solve_pairings([(one,), (one, zero)], [one, one], Q)
    with pytest.raises(InternalInvariant):
        solve_by_substitution([(one,), (one, zero)], [one, one], Q)


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


# -- the det-1 checks against the Scalar checks they replaced -------------

def section_v_det1_oracle(a):
    """`section_v_det1` as it was: the vectors of `sections._det1_vectors`
    padded into a `NonDegSeq`, checked by its Scalar Gram matrix and by a
    full Scalar determinant of the q x q block."""
    q, field = a.size, a.field
    if q % 2 == 0:
        raise EvenSize(f"this section needs odd size, got {q}")
    space = SymplecticSpace(field, (q + 1) // 2)
    seq = NonDegSeq._padded(space, sections._det1_vectors(a.inner))
    if seq.gram() != a.inner:
        raise InternalInvariant("triangular section does not invert the Gram map")
    full = Matrix.from_columns(field, [v[:q] for v in seq.vectors])
    if full.det() != field.one():
        raise InternalInvariant("triangular section has determinant != 1")
    return seq


def bent_section(field, kind, k, i):
    """`sections._det1_vectors` with its output bent: "none"; "double",
    v_k doubled; "bump", 1 added to coordinate i <= k of v_k; "drop", the
    det-1 correction dropped; "past", a coordinate 1 appended to v_k past
    its diagonal (k is 0-based and reduced modulo q, i modulo k + 1)."""
    real = sections._det1_vectors

    def bent(a):
        vectors = real(a)
        x = k % len(vectors)
        v = [Scalar(field, c) for c in vectors[x]]
        if kind == "double":
            v = [c + c for c in v]
        elif kind == "bump":
            j = i % (x + 1)
            v = v + [field.zero()] * (j + 1 - len(v))
            v[j] = v[j] + field.one()
        elif kind == "drop":
            x, v = len(vectors) - 1, [Scalar(field, c) for c in vectors[-1][:-1]]
        elif kind == "past":
            v = v + [field.zero()] * (x + 1 - len(v)) + [field.one()]
        return vectors[:x] + [tuple(c.value for c in v)] + vectors[x + 1:]
    return bent


def det1_outcome(check, a, bent):
    """check(a) with `sections._det1_vectors` bent: its vectors, or
    "rejected" when a check raised `InternalInvariant`."""
    with mock.patch.object(sections, "_det1_vectors", bent):
        try:
            return check(a).vectors
        except InternalInvariant:
            return "rejected"


BENDS = ["none", "double", "bump", "drop", "past"]


def check_det1_against_oracle(a, kind, k, i):
    """Equal vectors and equal accept/reject decisions.  A coordinate past
    the diagonal of the last vector lands in the padding slot e_{q+1},
    which neither Scalar check reads: it pairs only with e_q, zero in every
    other vector, and the determinant is of the q x q block.  The ring
    check refuses it, as it refuses every non-triangular section."""
    q = a.size
    bent = bent_section(a.field, kind, k, i)
    got = det1_outcome(section_v_det1, a, bent)
    if kind == "past":
        assert got == "rejected"
    if kind != "past" or k % q < q - 1:
        assert got == det1_outcome(section_v_det1_oracle, a, bent)
    if kind == "none":
        assert got == section_v_det1_oracle(a).vectors


DET1_FIELDS = [Q, Field.prime(2), Field.prime(1000003), Field.function_field(3)]


@pytest.mark.parametrize("field", DET1_FIELDS, ids=["q", "f2", "f1000003", "f3t"])
def test_det1_checks_against_scalar_oracle(field):
    rng = random.Random(f"det1 checks:{field!r}")
    decisions = set()
    for q in (1, 3, 5, 7):
        for _ in range(2):
            a = random_skew_plus(field, q, rng)
            for kind in BENDS:
                k, i = rng.randrange(q), rng.randrange(q)
                check_det1_against_oracle(a, kind, k, i)
                decisions.add(det1_outcome(section_v_det1, a, bent_section(field, kind, k, i))
                              == "rejected")
    assert decisions == {True, False}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(DET1_FIELDS), st.sampled_from([1, 3, 5, 7]), st.sampled_from(BENDS),
       st.integers(0, 6), st.integers(0, 6), st.integers(0, 10 ** 6))
def test_det1_checks_property_against_scalar_oracle(field, q, kind, k, i, seed):
    check_det1_against_oracle(random_skew_plus(field, q, random.Random(seed)), kind, k, i)


@pytest.mark.parametrize("field", [Q, Field.prime(1000003), Field.function_field(3)],
                         ids=["q", "f1000003", "f3t"])
def test_det1_checks_fire_on_a_bent_section(field):
    """Each check of `section_v_det1` raises with its own message: v_1
    doubled changes a Gram entry, a coordinate past v_1's diagonal breaks
    the triangle, and the dropped correction, on e_q, which pairs only
    with e_{q+1}, keeps the Gram entries and leaves determinant 0."""
    a = random_skew_plus(field, 5, random.Random(f"bent det1:{field!r}"))
    for kind, message in [("double", "corner Gram"), ("past", "not triangular"),
                          ("drop", "has determinant")]:
        with mock.patch.object(sections, "_det1_vectors", bent_section(field, kind, 0, 0)):
            with pytest.raises(InternalInvariant, match=message):
                section_v_det1(a)
    assert section_v_det1(a).vectors == section_v_det1_oracle(a).vectors
