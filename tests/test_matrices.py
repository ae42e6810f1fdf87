import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewplus import fields
from skewplus.errors import (
    FieldMismatch,
    InternalInvariant,
    NotSquare,
    ShapeMismatch,
    Singular,
    SkewplusError,
)
from skewplus.fields import FUNCTION_FIELD, PRIME, Field
from skewplus.matrices import Matrix
from skewplus.symplectic import psi_matrix

Q = Field.rationals()


def rand_matrix(rng, n, m=None, bound=6):
    m = n if m is None else m
    return Matrix(Q, [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)])


def det_cofactor(m):
    """Independent determinant oracle: first-row cofactor expansion."""
    n = m.rows
    if n == 0:
        return m.field.one()
    if n == 1:
        return m.entry(1, 1)
    total = m.field.zero()
    for j in range(1, n + 1):
        minor = m.submatrix(range(2, n + 1), [c for c in range(1, n + 1) if c != j])
        term = m.entry(1, j) * det_cofactor(minor)
        total = total + term if j % 2 == 1 else total - term
    return total


def echelon_oracle(a, augment=None):
    """Reference Gauss-Jordan over the field itself, one Scalar operation at
    a time: (reduced rows, reduced augmented rows, 0-based pivot columns)."""
    m = [list(row) for row in a.data]
    aug = [list(row) for row in augment.data] if augment is not None else None
    pivots = []
    r = 0
    for c in range(a.cols):
        pivot = next((i for i in range(r, a.rows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if aug is not None:
            aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        if aug is not None:
            aug[r] = [x * inv for x in aug[r]]
        for i in range(a.rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
                if aug is not None:
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return m, aug, pivots


def check_against_oracle(a, b):
    """Every elimination-backed method of `a` (with right-hand side `b`)
    against echelon_oracle and det_cofactor; returns (rank, consistent)."""
    field = a.field
    m, aug, pivots = echelon_oracle(a, b)
    rank = len(pivots)
    assert a.pivot_columns() == pivots
    assert a.rank() == rank
    kernel = []
    for f in (c for c in range(a.cols) if c not in pivots):
        vec = [field.zero()] * a.cols
        vec[f] = field.one()
        for r, c in enumerate(pivots):
            vec[c] = -m[r][f]
        kernel.append(tuple(vec))
    assert a.nullspace() == kernel
    consistent = all(x.is_zero() for row in aug[rank:] for x in row)
    if consistent:
        sol = [[field.zero()] * b.cols for _ in range(a.cols)]
        for r, c in enumerate(pivots):
            sol[c] = aug[r]
        assert a.solve_any(b) == Matrix(field, sol)
    else:
        with pytest.raises(Singular):
            a.solve_any(b)
    if a.is_square():
        assert a.det() == det_cofactor(a)
        if rank == a.rows:
            assert a.solve(b) == Matrix(field, aug)
            identity = Matrix.identity(field, a.rows)
            assert a.inverse() == Matrix(field, echelon_oracle(a, identity)[1])
        else:
            with pytest.raises(Singular):
                a.solve(b)
            with pytest.raises(Singular):
                a.inverse()
    return rank, consistent


def test_kernel_against_echelon_oracle(sparse_field):
    field, entry = sparse_field
    rng = random.Random(f"kernel:{field!r}")
    seen = set()
    for case in range(80):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        if case % 3 == 0 and rows and cols:
            # a product through k inner columns has rank at most k
            k = rng.randint(1, min(rows, cols))
            left = Matrix(field, [[entry(rng) for _ in range(k)] for _ in range(rows)])
            right = Matrix(field, [[entry(rng) for _ in range(cols)] for _ in range(k)])
            a = left * right
        else:
            a = Matrix(field, [[entry(rng) for _ in range(cols)] for _ in range(rows)])
        rhs = rng.randint(1, 3)
        b = Matrix(field, [[entry(rng) for _ in range(rhs)] for _ in range(rows)])
        if case % 4 == 1 and rows and cols:
            b = a * Matrix(field, [[entry(rng) for _ in range(2)] for _ in range(cols)])
        rank, consistent = check_against_oracle(a, b)
        seen.add(("deficient" if rank < min(rows, cols) else "full", consistent))
        seen.add(("square", rank == rows) if rows == cols else ("rectangular",))
        if cols and rows > 1 and a.entry(1, 1).is_zero() and any(a.col(1)):
            seen.add(("swap",))
    assert seen >= {("deficient", True), ("deficient", False), ("full", True),
                    ("square", True), ("square", False), ("rectangular",), ("swap",)}


PROPERTY_FIELDS = [Q, Field.prime(5), Field.prime(1000003), Field.function_field(3)]


@st.composite
def systems(draw):
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    rows, cols, rhs = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 2))
    if field == Q:
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=5)
    elif field.kind == PRIME:
        entry = st.integers(0, field.p - 1)
    else:
        coeffs = st.lists(st.integers(0, field.p - 1), max_size=3)
        # numerator of degree < 3 over a monic denominator of degree <= 1
        entry = st.tuples(coeffs.map(tuple), coeffs.map(lambda c: tuple(c[:1]) + (1,)))
    entry = st.one_of(st.just(0), entry)

    def grid(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    a = grid(rows, cols)
    if rows > 1 and draw(st.booleans()):
        a[-1] = a[0]  # a repeated row
    return Matrix(field, a), Matrix(field, grid(rows, rhs))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(systems())
def test_kernel_property_against_echelon_oracle(system):
    check_against_oracle(*system)


def test_det_against_cofactor_oracle():
    rng = random.Random(5)
    for n in range(0, 6):
        for _ in range(20):
            m = rand_matrix(rng, n)
            assert m.det() == det_cofactor(m)


def test_det_against_cofactor_oracle_all_fields(sparse_field):
    field, entry = sparse_field
    rng = random.Random(f"det:{field!r}")
    swaps = 0
    for n in [0, 1, 2, 2] + [rng.randint(3, 5) for _ in range(30)]:
        m = Matrix(field, [[entry(rng) for _ in range(n)] for _ in range(n)])
        d = m.det()
        assert d == det_cofactor(m)
        swaps += n > 0 and m.entry(1, 1).is_zero() and not d.is_zero()
    assert Matrix.zeros(field, 4, 4).det() == field.zero()
    assert swaps, "no case needed a row swap"


def test_ring_exact_division_raises_when_inexact(monkeypatch):
    """The row step's exact division by prev: exact quotients come back and
    a remainder raises, over Z, over F_3(t) with the packed rows and over
    F_{2^61-1}(t), where no slot is wide enough and it goes entry by entry."""
    step, row = Q.ring().row_step(3), [None, None]
    step(row, [0, 1], ((1, [12, 9]), (2, [0, -3])))
    assert row == [4, 1]
    with pytest.raises(InternalInvariant):
        step(row, [0, 1], ((1, [12, 10]), (2, [0, 0])))
    with pytest.raises(InternalInvariant):
        step(row, [1], ((1, [0, 10]), (2, [0, 1]), (-1, [0, 5])))
    packed = []
    real = fields._packed_quotients
    monkeypatch.setattr(fields, "_packed_quotients",
                        lambda *args: packed.append(1) or real(*args))
    t_plus_1 = (1, 1)
    for p, runs in ((3, True), (2**61 - 1, False)):
        step = Field.function_field(p).ring().row_step(t_plus_1)
        row = [(), (), ()]
        # the numerators (t+1)^2, 0 and (t+1) t
        step(row, [0, 1, 2], ((t_plus_1, [t_plus_1, (), (0, 1)]), ((1,), [(), (), ()])))
        assert row == [t_plus_1, (), (0, 1)]
        with pytest.raises(InternalInvariant):
            step(row, [0], (((1,), [(1, 0, 1)]),))  # t^2 + 1 has no root in F_p
        with pytest.raises(InternalInvariant):
            step(row, [0, 1], (((1,), [(1, 1), (2,)]),))  # a constant, not 0
        with pytest.raises(InternalInvariant):
            step(row, [0], (((1,), [(0, 1)]), ((1,), [(0, 0, 1)]), ((1,), [(1,)])))
        assert bool(packed) == runs
        packed.clear()
    assert fields._slot((2**61 - 2) ** 2) is None


def test_det_identity_and_psi():
    assert Matrix.identity(Q, 4).det() == Q.one()
    assert psi_matrix(Q, 2).det() == Q.one()


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        assert (a * b).det() == a.det() * b.det()


def test_solve_identity_and_psi():
    b = Matrix.column(Q, [3, -5])
    assert Matrix.identity(Q, 2).solve(b) == b
    # psi_2 x = e1 has solution e2: psi_2 e2 = e1
    psi = psi_matrix(Q, 2)
    x = psi.solve(Matrix.column(Q, [1, 0]))
    assert x == Matrix.column(Q, [0, 1])
    assert psi * x == Matrix.column(Q, [1, 0])


def test_solve_round_trip():
    rng = random.Random(7)
    done = 0
    while done < 30:
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n)
        if a.det().is_zero():
            continue
        b = rand_matrix(rng, n, 1)
        assert a * a.solve(b) == b
        done += 1


def test_inverse():
    psi = psi_matrix(Q, 2)
    assert psi.inverse() == -psi
    assert psi * psi.inverse() == Matrix.identity(Q, 2)
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n)
        if a.det().is_zero():
            with pytest.raises(Singular):
                a.inverse()
        else:
            assert a * a.inverse() == Matrix.identity(Q, n)


def test_rank():
    cols = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    assert Matrix.from_columns(Q, cols).rank() == 3
    assert Matrix.zeros(Q, 3, 4).rank() == 0


def test_rank_permutation_invariant():
    rng = random.Random(9)
    for _ in range(30):
        m = rand_matrix(rng, 4, 5)
        rp = list(range(1, 5))
        rng.shuffle(rp)
        cp = list(range(1, 6))
        rng.shuffle(cp)
        permuted = m.submatrix(rp, cp)
        assert permuted.rank() == m.rank()


def test_nullspace():
    m = Matrix(Q, [[1, 2, 3], [2, 4, 6]])
    basis = m.nullspace()
    assert len(basis) == 2
    zero = Matrix.zeros(Q, 2, 1)
    for v in basis:
        assert m * Matrix.column(Q, v) == zero


def test_solve_any_underdetermined():
    m = Matrix(Q, [[1, 2, 3], [0, 1, 1]])
    b = Matrix.column(Q, [6, 2])
    x = m.solve_any(b)
    assert m * x == b
    inconsistent = Matrix(Q, [[1, 1], [2, 2]])
    with pytest.raises(Singular):
        inconsistent.solve_any(Matrix.column(Q, [1, 3]))


def test_shape_errors():
    with pytest.raises(NotSquare):
        Matrix.zeros(Q, 2, 3).det()
    with pytest.raises(ShapeMismatch):
        Matrix.zeros(Q, 2, 3) * Matrix.zeros(Q, 2, 3)


def test_json_round_trip():
    rng = random.Random(11)
    for field in (Q, Field.prime(7), Field.function_field(2)):
        m = Matrix(field, [[field.sample(rng, 5) for _ in range(3)] for _ in range(2)])
        assert Matrix.from_json(m.to_json()) == m


def test_one_based_entry():
    m = Matrix(Q, [[1, 2], [3, 4]])
    assert m.entry(1, 2) == Q.scalar(2)
    assert m.entry(2, 1) == Q.scalar(3)


# -- one coercion rule, against the coercing constructors it replaced ------

def matrix_oracle(field, data):
    """`Matrix(field, data)` as it was: every entry through `field.scalar`,
    scalars of the field too."""
    rows = tuple(tuple(field.scalar(x) for x in row) for row in data)
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ShapeMismatch("ragged rows")
    return Matrix._of(field, rows, cols)


def from_columns_oracle(field, columns):
    """`Matrix.from_columns` as it was: the transposed grid through the
    coercing constructor."""
    columns = [tuple(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ShapeMismatch("columns of unequal length")
    if n == 0:
        return Matrix.zeros(field, 0, len(columns))
    return matrix_oracle(field, [[columns[j][i] for j in range(len(columns))] for i in range(n)])


RAW_KINDS = ["scalar", "int", "fraction", "pair", "other"]


def raw_entry(field, kind, n, d):
    """An input entry of the given kind built from the ints n and d: a
    scalar of `field`, an int, a Fraction, a pair (ints over Q, coefficient
    tuples over F_p(t); a zero denominator is possible), or a scalar of
    another field."""
    p = field.p
    if kind == "scalar":
        if field == Q:
            return field.scalar((n, d or 1))
        return field.scalar(((n % p, d % p), (d % p, 1)) if field.kind == FUNCTION_FIELD else n)
    if kind == "int":
        return n
    if kind == "fraction":
        return Fraction(n, d or 1)
    if kind == "pair":
        return ((n % p,), (d % p,)) if field.kind == FUNCTION_FIELD else (n, d)
    return (Q if field != Q else Field.prime(5)).scalar(n)


def outcome(f, *args):
    """f(*args), or the type of the library error it raised."""
    try:
        return f(*args)
    except SkewplusError as exc:
        return type(exc)


def check_coercion_against_oracle(field, grid, ragged, as_generators):
    """Matrix(...) and from_columns against the coercing constructors:
    equal matrices and equal errors, on the grid of raw entries as rows
    and as columns (the last one shortened when `ragged`), given as lists
    or as generators."""
    lines = [list(line) for line in grid]
    if ragged and lines and lines[-1]:
        lines[-1].pop()

    def data():
        return [iter(line) for line in lines] if as_generators else [list(line) for line in lines]
    assert outcome(Matrix, field, data()) == outcome(matrix_oracle, field, data())
    assert outcome(Matrix.from_columns, field, data()) == outcome(from_columns_oracle, field, data())


COERCION_FIELDS = [Q, Field.prime(2), Field.prime(1000003), Field.function_field(3)]


@pytest.mark.parametrize("field", COERCION_FIELDS, ids=["q", "f2", "f1000003", "f3t"])
def test_coercion_against_oracle(field):
    rng = random.Random(f"coercion:{field!r}")
    for case in range(60):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        # mostly scalars of the field, so most grids are accepted
        kinds = RAW_KINDS if case % 3 == 0 else ["scalar"] * 6 + RAW_KINDS[1:]
        grid = [[raw_entry(field, rng.choice(kinds), rng.randint(-9, 9), rng.randint(-2, 9))
                 for _ in range(cols)] for _ in range(rows)]
        check_coercion_against_oracle(field, grid, case % 5 == 4, case % 2 == 1)


@st.composite
def raw_grids(draw):
    field = draw(st.sampled_from(COERCION_FIELDS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.builds(raw_entry, st.just(field), st.sampled_from(RAW_KINDS),
                      st.integers(-9, 9), st.integers(-2, 9))
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return field, grid, draw(st.booleans()), draw(st.booleans())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(raw_grids())
def test_coercion_property_against_oracle(case):
    check_coercion_against_oracle(*case)


def test_constructors_take_scalars_of_the_field_as_they_are(monkeypatch):
    """Matrix(...) and from_columns call `Field.scalar` for no scalar of the
    field; ints, Fractions and pairs are still coerced, generator rows
    accepted, and another field's scalars refused."""
    calls = []
    real = Field.scalar

    def counting(self, value):
        calls.append(value)
        return real(self, value)
    f3t = Field.function_field(3)
    for field in (Q, Field.prime(2), Field.prime(1000003), f3t):
        x, y = field.one(), field.zero()
        monkeypatch.setattr(Field, "scalar", counting)
        m = Matrix(field, [[x, y], (y, x)])
        cols = Matrix.from_columns(field, [(x, y), iter((y, x))])
        gen = Matrix(field, (iter(row) for row in [[x, y], [y, x]]))
        monkeypatch.setattr(Field, "scalar", real)
        assert calls == []
        assert m == cols == gen == Matrix.identity(field, 2)
        with pytest.raises(FieldMismatch):
            Matrix(field, [[x, (Q if field != Q else f3t).one()]])
        with pytest.raises(FieldMismatch):
            Matrix.from_columns(field, [[x], [(Q if field != Q else f3t).one()]])
    half = Q.scalar(1) / 2
    assert Matrix(Q, [[1, Fraction(1, 2)], [(1, 2), half]]) == \
        Matrix.from_columns(Q, [(1, (1, 2)), iter([half, half])]) == \
        Matrix(Q, [[Q.one(), half], [half, half]])
    over_t = f3t.scalar(((0, 1), (1,)))
    assert Matrix(f3t, [[((0, 1), (1,)), 2]]) == Matrix(f3t, [[over_t, f3t.scalar(2)]])
