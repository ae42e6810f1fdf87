import random

import pytest
from hypothesis import given, settings, strategies as st

from skewplus import symplectic
from skewplus.errors import (
    Degenerate,
    NotIsometry,
    NotNonDegenerate,
    RankMismatch,
    ShapeMismatch,
)
from skewplus.fields import Field, as_scalars
from skewplus.matrices import Matrix, _products
from skewplus.pfaffian import SkewMatrix
from skewplus.symplectic import (
    SpMatrix,
    Subspace,
    SymplecticSpace,
    elementary,
    gram,
    is_sp_member,
    orthogonal_complement,
    pairing,
    psi_matrix,
    random_sp,
    symplectic_basis,
    transvection,
    witt_extend,
    _pairing_matrix,
    _partner,
)
from skewplus.unimod import random_nondeg_seq

Q = Field.rationals()


def sp_member_oracle(m, size):
    """Membership by m^t psi m = psi as two matrix products, plus the odd
    block shape checked entry by entry."""
    dim = size if size % 2 == 0 else size + 1
    if dim == 0:
        return True
    field = m.field
    psi = psi_matrix(field, dim)
    if m.transpose() * psi * m != psi:
        return False
    if size % 2 == 0:
        return True
    one, zero = field.one(), field.zero()
    for i in range(1, dim + 1):
        if m.entry(i, 1) != (one if i == 1 else zero):
            return False
        if m.entry(2, i) != (one if i == 2 else zero):
            return False
    u = [m.entry(i, 2) for i in range(3, dim + 1)]
    inner = m.submatrix(range(3, dim + 1), range(3, dim + 1))
    expected = (Matrix(field, [u]) * psi_matrix(field, dim - 2) * inner).row(1)
    return all(m.entry(1, j) == expected[j - 3] for j in range(3, dim + 1))


def test_equal_spaces_hash_equal_before_and_after_caching():
    first, second = SymplecticSpace(Field.rationals(), 2), SymplecticSpace(Field.rationals(), 2)
    assert hash(first) == hash((Field.rationals(), 2)) == hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert first != SymplecticSpace(Field.rationals(), 1)
    assert first != SymplecticSpace(Field.prime(5), 2)


def test_gram_of_standard_basis():
    space = SymplecticSpace(Q, 3)
    basis = [space.basis_vector(i) for i in range(1, 7)]
    assert gram(basis, Q) == SkewMatrix.from_matrix(psi_matrix(Q, 6))


def test_gram_bilinearity():
    space = SymplecticSpace(Q, 1)
    a = Q.scalar(5)
    e1, e2 = space.basis_vector(1), space.basis_vector(2)
    scaled = tuple(a * x for x in e2)
    g = gram([e1, scaled], Q)
    assert g.entry(1, 2) == a


def test_gram_isometry_invariant():
    rng = random.Random(1)
    space = SymplecticSpace(Q, 2)
    for _ in range(20):
        vs = [space.random_vector(rng, 5) for _ in range(3)]
        g = random_sp(space, rng)
        assert gram(vs, Q) == gram([g.apply(v) for v in vs], Q)


def test_membership_even():
    assert is_sp_member(Matrix.identity(Q, 4), 4)
    assert is_sp_member(psi_matrix(Q, 2), 2)  # rank 2 group is SL_2
    for c in (-3, 0, 7):
        assert is_sp_member(elementary(Q, 1, 2, c, 2), 2)
    bad = Matrix(Q, [[1, 1], [1, 1]])
    assert not is_sp_member(bad, 2)


def test_membership_group_law():
    rng = random.Random(2)
    for two_n in (2, 4):
        space = SymplecticSpace(Q, two_n // 2)
        for _ in range(100):
            g, h = random_sp(space, rng), random_sp(space, rng)
            assert is_sp_member((g * h).matrix, two_n)
            assert is_sp_member(g.inverse().matrix, two_n)


def test_elementary():
    assert elementary(Q, 3, 4, 0, 4) == Matrix.identity(Q, 4)
    a, b = Q.scalar(2), Q.scalar(5)
    prod = elementary(Q, 3, 4, a, 4) * elementary(Q, 3, 4, b, 4)
    assert prod == elementary(Q, 3, 4, a + b, 4)
    # the last-plane upper elementary is a group member of every even rank
    for two_n in (2, 4, 6):
        m = elementary(Q, two_n - 1, two_n, 7, two_n)
        assert is_sp_member(m, two_n)


def _split(v):
    """(V0, x, y) for an odd-rank V: V0 the even corank-1 piece of V, x the
    radical generator (both by the oracles below), and y the partner that
    witt_extend's odd branch adjoins."""
    d, coeffs, x = _with_last_one(*radical_oracle(v))
    v0 = corank1_piece_oracle(v.basis, coeffs)
    return Subspace(v.space, v0), x, _partner(v.space, v.basis, d)


def test_radical_line():
    space = SymplecticSpace(Q, 2)
    e = space.basis_vector
    v = Subspace(space, [e(1), e(2), e(3)])
    _, x = radical_oracle(v)
    assert x[0].is_zero() and x[1].is_zero() and x[3].is_zero()
    assert not x[2].is_zero()
    with pytest.raises(NotNonDegenerate):
        radical_oracle(Subspace(space, [e(1), e(2)]))  # even rank, radical 0
    # witt_extend refuses an odd rank whose radical is not a line
    big = SymplecticSpace(Q, 3)
    zero_form = [big.basis_vector(i) for i in (1, 3, 5)]
    with pytest.raises(NotNonDegenerate):
        witt_extend(big, zero_form, zero_form)


def test_radical_equivariance():
    rng = random.Random(3)
    space = SymplecticSpace(Q, 2)
    for _ in range(10):
        seq = random_nondeg_seq(space, 3, rng)
        v = Subspace(space, seq.vectors)
        g = random_sp(space, rng)
        _, x = radical_oracle(v)
        gx = g.apply(x)
        moved = Subspace(space, [g.apply(b) for b in v.basis])
        _, y = radical_oracle(moved)
        # gx and y span the same line
        assert Matrix.from_columns(Q, [gx, y]).rank() == 1


def test_split_odd_space():
    space = SymplecticSpace(Q, 2)
    e = space.basis_vector
    v = Subspace(space, [e(1), e(2), e(3)])
    v0, x, y = _split(v)
    assert v0.rank == 2
    assert pairing(x, y) == Q.one()
    assert all(pairing(b, y).is_zero() for b in v0.basis)


def test_split_odd_space_keeps_first_nondegenerate_pair():
    # Pf(Gram(e1, e3)) = 0, so the piece is (e1, e2), not the leading pair
    space = SymplecticSpace(Q, 2)
    e = space.basis_vector
    v0, x, _ = _split(Subspace(space, [e(1), e(3), e(2)]))
    assert v0.basis == (e(1), e(2))
    assert Matrix.from_columns(Q, [x, e(3)]).rank() == 1


def test_split_odd_space_random():
    rng = random.Random(4)
    space = SymplecticSpace(Q, 3)
    for _ in range(25):
        r = rng.choice([1, 3, 5])
        seq = random_nondeg_seq(space, r, rng)
        v = Subspace(space, seq.vectors)
        v0, x, y = _split(v)
        assert v0.rank == r - 1
        assert pairing(x, y) == Q.one()
        assert all(pairing(b, y).is_zero() for b in v0.basis)
        assert all(pairing(b, x).is_zero() for b in v0.basis)


def test_symplectic_basis():
    rng = random.Random(5)
    space = SymplecticSpace(Q, 2)
    e = space.basis_vector
    two = Q.scalar(2)
    sb = symplectic_basis(Subspace(space, [e(1), tuple(two * c for c in e(2))]).basis)
    assert gram(sb, Q) == SkewMatrix.from_matrix(psi_matrix(Q, 2))
    for _ in range(20):
        r = rng.choice([2, 4])
        seq = random_nondeg_seq(space, r, rng)
        sb = symplectic_basis(Subspace(space, seq.vectors).basis)
        assert gram(sb, Q) == SkewMatrix.from_matrix(psi_matrix(Q, r))
    with pytest.raises(Degenerate):
        symplectic_basis(Subspace(space, [e(1), e(3)]).basis)



def test_symplectic_basis_pairs_each_partner_once(monkeypatch):
    """The partner is scaled by the pairing found in the search: one
    pairing for two vectors, not one more per coordinate."""
    calls = []
    real = symplectic.pairing

    def counting(x, y):
        calls.append((x, y))
        return real(x, y)
    space = SymplecticSpace(Q, 3)
    e1, e2 = space.basis_vector(1), space.basis_vector(2)
    monkeypatch.setattr(symplectic, "pairing", counting)
    a, b = symplectic_basis([e1, tuple(3 * x for x in e2)])
    assert len(calls) == 1
    assert (a, b) == (e1, e2)

def test_witt_extend_identity_and_planes():
    space = SymplecticSpace(Q, 2)
    e = space.basis_vector
    g = witt_extend(space, [e(1), e(2)], [e(1), e(2)])
    assert all(g.apply(e(i)) == e(i) for i in (1, 2))
    g = witt_extend(space, [e(1), e(2)], [e(3), e(4)])
    assert is_sp_member(g.matrix, 4)
    assert g.apply(e(1)) == e(3) and g.apply(e(2)) == e(4)


def test_witt_extend_errors():
    space = SymplecticSpace(Q, 2)
    e = space.basis_vector
    with pytest.raises(RankMismatch):
        witt_extend(space, [e(1)], [e(1), e(2)])
    with pytest.raises(NotIsometry):
        witt_extend(space, [e(1), e(2)], [e(1), e(3)])


def test_witt_extend_random():
    rng = random.Random(6)
    for _ in range(25):
        two_n = 2 * rng.randint(1, 4)
        space = SymplecticSpace(Q, two_n // 2)
        r = rng.randint(1, two_n)
        v = random_nondeg_seq(space, r, rng)
        h = random_sp(space, rng)
        w = v.transform(h)
        g = witt_extend(space, list(v.vectors), list(w.vectors))
        assert is_sp_member(g.matrix, two_n)
        assert all(g.apply(x) == y for x, y in zip(v.vectors, w.vectors))


@pytest.mark.parametrize("field", [Q, Field.prime(1000003), Field.function_field(3)],
                         ids=["q", "f1000003", "f3t"])
def test_witt_extend_odd_all_fields(field):
    rng = random.Random(f"witt:{field!r}")
    for two_n, r in [(2, 1), (4, 1), (4, 3), (6, 3), (6, 5)]:
        space = SymplecticSpace(field, two_n // 2)
        v = random_nondeg_seq(space, r, rng)
        # the radical's kernel coefficients are the coordinates of its
        # generator in the v basis, which witt_extend sends to the w basis
        coeffs, x = radical_oracle(Subspace(space, v.vectors))
        coords = Matrix.from_columns(field, v.vectors).solve_any(Matrix.column(field, x))
        assert coords.col(1) == coeffs
        w = v.transform(random_sp(space, rng, steps=2, bound=3))
        g = witt_extend(space, list(v.vectors), list(w.vectors))
        assert is_sp_member(g.matrix, two_n)
        assert all(g.apply(a) == b for a, b in zip(v.vectors, w.vectors))


def _odd_element(c, u, m2):
    """Assemble an odd rank-3 element from its block data."""
    one, zero = Q.one(), Q.zero()
    psi2 = psi_matrix(Q, 2)
    top = (Matrix(Q, [list(u)]) * psi2 * m2).row(1)
    rows = [
        [one, c, top[0], top[1]],
        [zero, one, zero, zero],
        [zero, u[0], m2.entry(1, 1), m2.entry(1, 2)],
        [zero, u[1], m2.entry(2, 1), m2.entry(2, 2)],
    ]
    return SpMatrix(Matrix(Q, rows), 3)


def test_odd_membership_block_shape():
    rng = random.Random(10)
    m2 = random_sp(SymplecticSpace(Q, 1), rng)
    odd = _odd_element(Q.scalar(-2), (Q.scalar(4), Q.zero()), m2.matrix)
    assert is_sp_member(odd.matrix, 3)
    # an even rank-4 member that moves e1 is not an odd rank-3 member
    space = SymplecticSpace(Q, 2)
    while True:
        g = random_sp(space, rng)
        if g.apply(space.basis_vector(1)) != space.basis_vector(1):
            break
    assert not is_sp_member(g.matrix, 3)


def test_split_gram_block_shape():
    """Gram of (V0 basis, x) is the V0 Gram padded by a zero row/column."""
    rng = random.Random(11)
    space = SymplecticSpace(Q, 3)
    for _ in range(10):
        r = rng.choice([1, 3, 5])
        seq = random_nondeg_seq(space, r, rng)
        v = Subspace(space, seq.vectors)
        v0, x, _ = _split(v)
        g = gram(list(v0.basis) + [x], Q)
        assert g.remove_indices([r]) == v0.gram()
        for i in range(1, r):
            assert g.entry(i, r).is_zero()


def test_odd_rank_one_membership():
    """[[1, c], [0, 1]] is the whole rank-1 group."""
    for c in (-4, 0, 9):
        assert is_sp_member(elementary(Q, 1, 2, c, 2), 1)
    assert not is_sp_member(psi_matrix(Q, 2), 1)  # moves e1


def _lift_to_odd(m):
    """diag(1, 1, m): an even-group matrix m as an odd element one rank up."""
    field, dim = m.field, m.rows + 2
    return Matrix(field, [[1 if j == i else 0 for j in range(dim)] for i in range(2)]
                  + [[0, 0] + list(r) for r in m.data])


def _diagonal(field, entries):
    n = len(entries)
    return Matrix(field, [[entries[i] if j == i else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("field", [Q, Field.prime(5), Field.function_field(3)],
                         ids=["q", "f5", "f3t"])
def test_membership_against_oracle(field):
    rng = random.Random(f"membership:{field!r}")
    seen = set()
    for two_n in (0, 2, 4, 6):
        space, big = SymplecticSpace(field, two_n // 2), SymplecticSpace(field, two_n // 2 + 1)
        # psi preserves the form but moves e_1
        cases = [(psi_matrix(field, two_n + 2), two_n + 1)]
        for _ in range(3):
            g = random_sp(space, rng)
            # a transvection along v with v_2 = 0 fixes e_1, giving odd
            # elements with nonzero c and u
            v = list(big.random_vector(rng, 5))
            v[1] = field.zero()
            odd = _lift_to_odd(g.matrix) * transvection(big, v, field.sample(rng, 5))
            b = field.sample_nonzero(rng, 5)
            # conjugating by diag(b, 1/b, 1) scales c by b^2 and u by b
            t = _diagonal(field, [b, b.inv()] + [field.one()] * two_n)
            cases += [(g.matrix, two_n), (odd, two_n + 1),
                      (t * odd * t.inverse(), two_n + 1)]
        for m, size in list(cases):
            if m.rows:
                rows = [list(r) for r in m.data]
                i, j = rng.randrange(m.rows), rng.randrange(m.cols)
                rows[i][j] += field.one()
                cases.append((Matrix(field, rows), size))
        for m, size in cases:
            got = is_sp_member(m, size)
            assert got == sp_member_oracle(m, size)
            seen.add((size % 2, got))
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


# -- the Scalar paths the ring paths replaced, kept as oracles ---------------

def pairing_matrix_oracle(space, vectors):
    """`_pairing_matrix` as it was: the rows <v_i, .> = (-v_2, v_1, -v_4,
    v_3, ...) on Scalars, the negation of today's rows <., v_i>."""
    rows = []
    for v in vectors:
        v = as_scalars(space.field, v)
        rows.append([x for k in range(0, space.dim, 2) for x in (-v[k + 1], v[k])])
    return Matrix._of(space.field, rows)


def partner_oracle(space, v0, x):
    """`_partner` as it was: <v, y> = 0 for v in v0 and <x, y> = 1 in the
    rows of `pairing_matrix_oracle`."""
    rows = pairing_matrix_oracle(space, list(v0) + [x])
    rhs = Matrix.column(space.field, [0] * len(v0) + [1])
    return tuple(rows.solve_any(rhs).col(1))


def radical_oracle(v):
    """`symplectic._radical` as it was: (c, x), the kernel vector c of V's
    Gram matrix, and x = sum c_i v_i."""
    g = v.gram().full_matrix()
    kernel = g.nullspace()
    if len(kernel) != 1:
        raise NotNonDegenerate(
            f"restricted form has radical of rank {len(kernel)}, expected 1")
    coeffs = kernel[0]
    return coeffs, Matrix.from_columns(v.space.field, v.basis).apply_vector(coeffs)


def corank1_piece_oracle(basis, coeffs):
    """`symplectic._corank1_piece` as it was: the basis without its last
    vector whose radical coefficient is nonzero."""
    drop = _last_nonzero(coeffs)
    return list(basis[:drop]) + list(basis[drop + 1:])


def _last_nonzero(coeffs):
    return max(i for i, c in enumerate(coeffs) if not c.is_zero())


def _with_last_one(coeffs, x):
    """(d, c, x) for a radical (c, x) scaled by 1 / c_d, c_d its last
    nonzero coefficient: the radical generator `_partner` pairs to 1."""
    d = _last_nonzero(coeffs)
    inv = coeffs[d].inv()
    return d, [inv * c for c in coeffs], tuple(inv * y for y in x)


def independent_oracle(space, basis) -> bool:
    """`Subspace`'s independence check as it was: the rank of the Scalar
    matrix of columns."""
    return not basis or Matrix.from_columns(space.field, basis).rank() == len(basis)


def combination_oracle(field, coeffs, basis):
    """`symplectic._combination` as it was: sum_i coeffs[i] basis[i]."""
    return tuple(x for (x,) in _products(field, zip(*basis), [coeffs]))


def transvection_oracle(space, v, a):
    """`transvection` as it was: column i is e_i + a <e_i, v> v."""
    field = space.field
    a = field.scalar(a)
    cols = []
    for i in range(1, space.dim + 1):
        e = space.basis_vector(i)
        coeff = a * pairing(e, v)
        cols.append(tuple(x + coeff * y for x, y in zip(e, v)))
    return Matrix.from_columns(field, cols)


def _outcome(f, *args):
    """f(*args), or the type of the library error it raised."""
    try:
        return f(*args)
    except (ShapeMismatch, NotNonDegenerate) as exc:
        return type(exc)


ORACLE_FIELDS = [Q, Field.prime(2), Field.prime(1000003), Field.function_field(3)]


def _against_oracles(field, rng):
    """One seeded case of up to 2n + 1 vectors of R^2, R^4 or R^6, some
    zero, repeated, scaled or summed: every replaced path against its
    oracle.  Returns (accepted, whether a radical was compared)."""
    space = SymplecticSpace(field, rng.choice([1, 2, 3]))
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
    rows = _pairing_matrix(space, vectors)
    if vectors:
        oracle = pairing_matrix_oracle(space, vectors)
        assert rows == -oracle
        assert rows.nullspace() == oracle.nullspace() == orthogonal_complement(space, vectors)
    else:
        assert orthogonal_complement(space, vectors) == [space.basis_vector(i)
                                                         for i in range(1, space.dim + 1)]
    t = space.random_vector(rng, 4) if rng.randrange(3) else (field.zero(),) * space.dim
    a = field.sample(rng, 4)
    assert transvection(space, t, a) == transvection_oracle(space, t, a)
    accepted = not isinstance(_outcome(Subspace, space, vectors), type)
    assert accepted == independent_oracle(space, vectors)
    if not accepted or len(vectors) % 2 == 0:
        return accepted, False
    v = Subspace(space, vectors)
    radical = _outcome(radical_oracle, v)
    if isinstance(radical, type):
        return accepted, False
    coeffs, x = radical
    assert x == combination_oracle(field, coeffs, v.basis)
    d, coeffs, x = _with_last_one(coeffs, x)
    v0 = corank1_piece_oracle(v.basis, coeffs)
    assert (_outcome(_partner, space, v.basis, d)
            == _outcome(partner_oracle, space, v0, x))
    return accepted, True


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["q", "f2", "f1000003", "f3t"])
def test_replaced_paths_match_their_oracles(field):
    rng = random.Random(f"symplectic oracles:{field!r}")
    seen = {_against_oracles(field, rng) for _ in range(150)}
    assert {accepted for accepted, _ in seen} == {True, False}
    assert (True, True) in seen


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(0, 10 ** 6))
def test_replaced_paths_match_their_oracles_property(field, seed):
    _against_oracles(field, random.Random(seed))


def _partner_against_oracle(field, rng) -> bool:
    """One seeded odd-rank basis of R^2, R^4 or R^6: the partner that
    witt_extend adjoins, one solve on the whole basis, against
    `partner_oracle` on the corank-1 piece and the radical generator.
    Returns whether the basis had a radical line to compare on."""
    space = SymplecticSpace(field, rng.choice([1, 2, 3]))
    vectors = [space.random_vector(rng, 4) for _ in range(rng.randrange(1, space.dim, 2))]
    if isinstance(_outcome(Subspace, space, vectors), type):
        return False
    v = Subspace(space, vectors)
    radical = _outcome(radical_oracle, v)
    if isinstance(radical, type):
        return False
    d, coeffs, x = _with_last_one(*radical)
    y = _partner(space, v.basis, d)
    assert y == partner_oracle(space, corank1_piece_oracle(v.basis, coeffs), x)
    assert pairing(x, y) == field.one()
    assert all(pairing(b, y).is_zero() for i, b in enumerate(v.basis) if i != d)
    return True


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["q", "f2", "f1000003", "f3t"])
def test_partner_matches_its_oracle(field):
    rng = random.Random(f"symplectic partner:{field!r}")
    assert sum(_partner_against_oracle(field, rng) for _ in range(60)) >= 20


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(0, 10 ** 6))
def test_partner_matches_its_oracle_property(field, seed):
    _partner_against_oracle(field, random.Random(seed))


def test_transvection_rejects_a_wrong_length_vector():
    space = SymplecticSpace(Q, 2)
    with pytest.raises(ShapeMismatch):
        transvection(space, (Q.one(),) * 3, 2)
    with pytest.raises(ShapeMismatch):
        transvection(space, (Q.one(),) * 5, 2)
