"""Matrix products, matrix-vector products, pairings and Gram matrices
against their one-Scalar-operation-at-a-time references, over all three
fields."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from skewplus.errors import FieldMismatch, ShapeMismatch
from skewplus.fields import PRIME, Field
from skewplus.matrices import Matrix, _products
from skewplus.pfaffian import SkewMatrix
from skewplus.symplectic import gram, pairing

Q = Field.rationals()


def product_oracle(a, b):
    """Reference product, one Scalar multiply-add at a time."""
    zero = a.field.zero()
    out = []
    for r in a.data:
        out_row = []
        for c in b.columns():
            acc = zero
            for x, y in zip(r, c):
                acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return Matrix(a.field, out) if out else Matrix.zeros(a.field, 0, b.cols)


def apply_vector_oracle(a, v):
    """Reference matrix-vector product."""
    v = [a.field.scalar(x) for x in v]
    out = []
    for row in a.data:
        acc = a.field.zero()
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return tuple(out)


def pairing_oracle(x, y):
    """Reference symplectic pairing; an odd last coordinate pairs with
    nothing."""
    acc = x[0].field.zero()
    for k in range(0, len(x) - 1, 2):
        acc = acc + x[k] * y[k + 1] - x[k + 1] * y[k]
    return acc


def gram_oracle(vectors, field):
    q = len(vectors)
    return SkewMatrix(field, q, [[pairing_oracle(vectors[i], vectors[j])
                                  for j in range(i + 1, q)] for i in range(q - 1)])


def check_products(a, b, v, vectors):
    """Every ring-native product of the library against its oracle."""
    field = a.field
    ab = a * b
    assert ab == product_oracle(a, b)
    assert (ab.rows, ab.cols) == ((a.rows, b.cols) if a.rows else (0, 0))
    assert hash(ab) == hash(product_oracle(a, b))
    assert a.apply_vector(v) == apply_vector_oracle(a, v)
    for x in vectors:
        for y in vectors:
            assert pairing(x, y) == pairing_oracle(x, y)
    g = gram(vectors, field)
    assert g == gram_oracle(vectors, field)
    # the Gram matrix is the table of pairwise pairings
    q = len(vectors)
    assert all(g.entry(i, j) == pairing(vectors[i - 1], vectors[j - 1])
               for i in range(1, q + 1) for j in range(1, q + 1) if i != j)


def test_products_against_oracles(sparse_field):
    field, entry = sparse_field
    rng = random.Random(f"products:{field!r}")
    seen = set()
    for case in range(60):
        rows, inner, cols = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = Matrix(field, [[entry(rng) for _ in range(inner)] for _ in range(rows)])
        # without rows a has no columns either
        b = Matrix(field, [[entry(rng) for _ in range(cols)] for _ in range(a.cols)])
        v = [entry(rng) for _ in range(a.cols)]
        dim = rng.randint(1, 7)
        vectors = [tuple(entry(rng) for _ in range(dim)) for _ in range(rng.randint(0, 4))]
        if case % 5 == 0 and vectors:
            vectors[0] = tuple(field.zero() for _ in range(dim))
        check_products(a, b, v, vectors)
        seen.add("odd" if dim % 2 else "even")
        seen.add("rectangular" if rows != cols else "square")
        if any(not any(x) for x in vectors):
            seen.add("zero vector")
    assert seen >= {"odd", "even", "rectangular", "square", "zero vector"}


def test_empty_shapes(sparse_field):
    field, _ = sparse_field
    # r x 0 times 0 x c is the r x c zero matrix
    for r, c in [(0, 0), (3, 0), (0, 3), (2, 4)]:
        a, b = Matrix.zeros(field, r, 0), Matrix.zeros(field, 0, c)
        assert (b.rows, b.cols) == (0, c)
        assert a * b == product_oracle(a, b) == Matrix.zeros(field, r, c)
        assert ((a * b).rows, (a * b).cols) == (r, c)
        assert (a.transpose().rows, a.transpose().cols) == (0, r)
        assert (b.transpose().rows, b.transpose().cols) == (c, 0)
    assert Matrix.zeros(field, 0, 3) != Matrix.zeros(field, 0, 0)
    assert Matrix.from_columns(field, [(), (), ()]) == Matrix.zeros(field, 0, 3)
    assert Matrix.zeros(field, 2, 3).submatrix([], [1, 3]) == Matrix.zeros(field, 0, 2)
    assert -Matrix.zeros(field, 0, 3) == Matrix.zeros(field, 0, 3) * 2 == Matrix.zeros(field, 0, 3)
    a = Matrix(field, [[1, 2], [3, 4], [5, 6]])
    empty_cols = Matrix(field, [[], []])
    assert a * empty_cols == product_oracle(a, empty_cols) == Matrix(field, [[], [], []])
    assert Matrix.zeros(field, 3, 0).apply_vector(()) == (field.zero(),) * 3
    assert Matrix.zeros(field, 0, 0).apply_vector(()) == ()
    assert gram([], field) == SkewMatrix.zero(field, 0)
    x = (field.scalar(2),)
    assert pairing(x, x) == field.zero()
    assert gram([x], field) == SkewMatrix.zero(field, 1)
    assert gram([x, x, x], field) == SkewMatrix.zero(field, 3)


def test_products_coerce_public_inputs():
    m = Matrix(Q, [[1, 2], [3, 4]])
    assert m.apply_vector([1, 0]) == (Q.one(), Q.scalar(3))
    assert m * 2 == 2 * m == Matrix(Q, [[2, 4], [6, 8]])
    half = Q.scalar(1) / 2
    assert pairing((Q.one(), 0), (0, half)) == half
    assert gram([(1, 0), (0, half)], Q) == SkewMatrix(Q, 2, [[half]])


def test_shape_and_field_errors():
    f5 = Field.prime(5)
    a, b = Matrix(Q, [[1, 2]]), Matrix(Q, [[1, 2]])
    with pytest.raises(ShapeMismatch):
        a * b
    with pytest.raises(ShapeMismatch):
        a.apply_vector([1])
    with pytest.raises(FieldMismatch):
        a * Matrix(f5, [[1], [2]])
    with pytest.raises(FieldMismatch):
        a.apply_vector([f5.one(), f5.one()])
    x, y = (Q.one(), Q.zero()), (Q.zero(), Q.one(), Q.zero())
    with pytest.raises(ShapeMismatch):
        pairing(x, y)
    with pytest.raises(ShapeMismatch):
        pairing((), ())
    with pytest.raises(ShapeMismatch):
        gram([x, y], Q)
    with pytest.raises(ShapeMismatch):
        gram([(), ()], Q)
    with pytest.raises(FieldMismatch):
        pairing(x, (f5.one(), f5.one()))
    with pytest.raises(FieldMismatch):
        pairing((Q.one(), f5.one()), x)
    with pytest.raises(FieldMismatch):
        gram([x, (f5.one(), f5.one())], Q)
    with pytest.raises(FieldMismatch):
        gram([x, x], f5)


PROPERTY_FIELDS = [Q, Field.prime(5), Field.prime(1000003), Field.function_field(3)]


def entries(field):
    if field == Q:
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=5)
    elif field.kind == PRIME:
        entry = st.integers(0, field.p - 1)
    else:
        coeffs = st.lists(st.integers(0, field.p - 1), max_size=3)
        # numerator of degree < 3 over a monic denominator of degree <= 1
        entry = st.tuples(coeffs.map(tuple), coeffs.map(lambda c: tuple(c[:1]) + (1,)))
    return st.one_of(st.just(0), entry).map(field.scalar)


@st.composite
def product_cases(draw):
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    entry = entries(field)
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    dim, q = draw(st.integers(1, 6)), draw(st.integers(0, 4))

    def grid(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    a = Matrix(field, grid(rows, inner))
    b = Matrix(field, grid(a.cols, cols))
    v = draw(st.lists(entry, min_size=a.cols, max_size=a.cols))
    return a, b, v, [tuple(x) for x in grid(q, dim)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(product_cases())
def test_products_property_against_oracles(case):
    check_products(*case)


# -- `_products` on the shared row clearing, against its own loop -----------

def products_loop_oracle(field, rows, cols):
    """`_products` as it was, with its own clearing loop: each column
    cleared once, each row cleared as it is reached."""
    ring = field.ring()
    right = [ring.clear([[x.value for x in c]]) for c in cols]
    dot, mul, to_scalar = ring.dot, ring.mul, ring.to_scalar
    out = []
    for r in rows:
        lr, (r,) = ring.clear([[x.value for x in r]])
        out.append([to_scalar(dot(r, c), mul(lr, lc), 1) for lc, (c,) in right])
    return out


LOOP_FIELDS = [Q, Field.prime(2), Field.prime(1000003), Field.function_field(3)]


@pytest.mark.parametrize("field", LOOP_FIELDS, ids=["q", "f2", "f1000003", "f3t"])
def test_products_against_loop_oracle(field):
    rng = random.Random(f"products loop:{field!r}")
    for _ in range(40):
        rows, inner, cols = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = [[field.zero() if rng.random() < 0.3 else field.sample(rng, 5)
              for _ in range(inner)] for _ in range(rows)]
        b = [[field.sample(rng, 5) for _ in range(inner)] for _ in range(cols)]
        assert _products(field, a, b) == products_loop_oracle(field, a, b)
        # rows given once, as an iterator
        assert _products(field, iter(a), b) == products_loop_oracle(field, a, b)


@st.composite
def factor_rows(draw):
    field = draw(st.sampled_from(LOOP_FIELDS))
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))

    def grid(r):
        return draw(st.lists(st.lists(entries(field), min_size=inner, max_size=inner),
                             min_size=r, max_size=r))
    return field, grid(rows), grid(cols)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(factor_rows())
def test_products_property_against_loop_oracle(case):
    field, rows, cols = case
    assert _products(field, rows, cols) == products_loop_oracle(field, rows, cols)


def test_impossible_shapes_raise_shape_mismatch():
    """A Gram matrix of vectors without coordinates has no field to be in,
    and a skew matrix has no negative size."""
    for vectors in ([()], [(), ()]):
        with pytest.raises(ShapeMismatch):
            gram(vectors)
    with pytest.raises(ShapeMismatch):
        SkewMatrix(Q, -1, [])
    with pytest.raises(ShapeMismatch):
        SkewMatrix.from_upper(Q, -1, [1])
    with pytest.raises(ShapeMismatch):
        SkewMatrix.zero(Q, -2)
