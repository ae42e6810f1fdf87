"""The Bareiss row step of each ring against the per-entry update it replaced.

Both elimination kernels, `Matrix._eliminate` (det, rank, inverse, solve,
nullspace) and `pf_eliminate`, make one `ring.row_step(prev)` per pivot step
and call it once per row; over F_p(t), det and pf_eliminate may run theirs
in Z (`PolynomialRing.lift`), whose row step the oracle replaces too.  The oracle here is the update they made before,
entry by entry: each numerator by the ring's mul and add, then one exact
division by prev, checked.  With the oracle swapped in for every ring, every
result must stay equal, the eliminated rows included.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from skewplus import fields
from skewplus.errors import InternalInvariant, Singular
from skewplus.fields import Field, IntegerRing, PolynomialRing, ResidueRing, poly_divmod
from skewplus.matrices import Matrix
from skewplus.pfaffian import SkewMatrix, _pf_ring, pf_eliminate

# F_3(t), F_7(t) and F_1000003(t) take the packed rows at every slot width;
# F_{2^61-1}(t) takes none and goes entry by entry
FIELDS = [Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(1000003),
          Field.function_field(3), Field.function_field(7), Field.function_field(1000003),
          Field.function_field(2 ** 61 - 1)]
RINGS = (IntegerRing, ResidueRing, PolynomialRing)


def per_entry_row_step(ring, prev):
    """The row step as the kernels made it before: per entry, the
    numerator by the ring's mul and add, then an exact division by prev
    (in F_p, a product with its inverse)."""
    if isinstance(ring, PolynomialRing):
        p = ring.field.p

        def div(x):
            quo, rem = poly_divmod(x, prev, p)
            if rem:
                raise InternalInvariant("inexact")
            return quo
    elif isinstance(ring, ResidueRing):
        p, inv = ring.field.p, pow(prev, -1, ring.field.p)

        def div(x):
            return x * inv % p
    else:
        def div(x):
            quo, rem = divmod(x, prev)
            if rem:
                raise InternalInvariant("inexact")
            return quo

    def step(row, cols, terms):
        for j in cols:
            num = ring.zero
            for c, x in terms:
                num = ring.add(num, ring.mul(c, x[j]))
            row[j] = div(num)
    return step


def same_under_oracle(monkeypatch, compute):
    """compute() with the row step, and again with the oracle; equal."""
    got = compute()
    with monkeypatch.context() as patch:
        for ring in RINGS:
            patch.setattr(ring, "row_step", per_entry_row_step)
        want = compute()
    assert got == want
    return got


def kernel_results(a, b):
    """Everything the Matrix kernel gives for A and the right-hand side b:
    both passes' scales, rows, pivots and signs, and every public result."""
    def attempt(method, *args):
        try:
            return method(*args)
        except Singular:
            return Singular
    out = {"forward": a._eliminate(upward=False)[1:], "full": a._eliminate(b)[1:],
           "rank": a.rank(), "nullspace": a.nullspace(), "solve_any": attempt(a.solve_any, b)}
    if a.is_square():
        out.update(det=a.det(), inverse=attempt(a.inverse), solve=attempt(a.solve, b))
    return out


def entry_sampler(field, rng, zeros):
    return lambda: field.zero() if rng.random() < zeros else field.sample(rng, 5)


def random_system(field, rng):
    """(A, b, the features it has): zero entries, rank deficiency by a
    product through fewer columns, zero columns, a row swap at the first
    pivot, a right-hand side in A's column space."""
    rows, cols = rng.randint(0, 6), rng.randint(0, 6)
    entry = entry_sampler(field, rng, rng.choice([0, 0.3, 0.6]))
    if rows and cols and rng.random() < 0.3:
        k = rng.randint(1, min(rows, cols))
        a = Matrix(field, [[entry() for _ in range(k)] for _ in range(rows)]) \
            * Matrix(field, [[entry() for _ in range(cols)] for _ in range(k)])
    else:
        a = Matrix(field, [[entry() for _ in range(cols)] for _ in range(rows)])
    if cols > 1 and rng.random() < 0.2:
        zero_col = rng.randrange(cols)
        a = Matrix(field, [[x if j != zero_col else field.zero() for j, x in enumerate(row)]
                           for row in a.data])
    rhs = rng.randint(1, 3)
    b = Matrix(field, [[entry() for _ in range(rhs)] for _ in range(rows)])
    if rows and cols and rng.random() < 0.3:
        b = a * Matrix(field, [[entry() for _ in range(2)] for _ in range(cols)])
    features = set()
    if rows and cols:
        pivots = a.pivot_columns()
        features.add("deficient" if len(pivots) < min(rows, cols) else "full")
        if pivots and pivots[-1] + 1 > len(pivots):
            features.add("skipped column")
        if a.entry(1, pivots[0] + 1).is_zero() if pivots else False:
            features.add("swap")
        if len(pivots) > 1:
            features.add("upward")
    return a, b, features


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.flag())
def test_kernel_matches_per_entry_oracle(field, monkeypatch):
    packed = []
    real = fields._packed_quotients
    monkeypatch.setattr(fields, "_packed_quotients",
                        lambda *args: packed.append(1) or real(*args))
    rng = random.Random(f"row step:{field!r}")
    seen = set()
    for _ in range(40):
        a, b, features = random_system(field, rng)
        seen |= features
        same_under_oracle(monkeypatch, lambda: kernel_results(a, b))
    assert seen == {"deficient", "full", "skipped column", "swap", "upward"}
    assert bool(packed) == (field.kind == fields.FUNCTION_FIELD and field.p < 2 ** 32)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.flag())
def test_pf_eliminate_matches_per_entry_oracle(field, monkeypatch):
    """pf_eliminate, and the skew kernel on the ring form in the field's
    own ring: over F_p(t) pf_eliminate may run over Z, and the kernel on
    F_p[t] is the packed step's."""
    packed = []
    real = fields._packed_quotients
    monkeypatch.setattr(fields, "_packed_quotients",
                        lambda *args: packed.append(1) or real(*args))
    rng = random.Random(f"pf row step:{field!r}")
    swaps = 0
    for q in range(0, 11, 2):
        for zeros in (0, 0.3, 0.6):
            entry = entry_sampler(field, rng, zeros)
            a = SkewMatrix.from_upper(field, q, [entry() for _ in range(q * (q - 1) // 2)])
            same_under_oracle(monkeypatch, lambda: (pf_eliminate(a),
                                                    _pf_ring(field.ring(), a.ring_form()[1])))
            swaps += q > 2 and a.upper[0][0].is_zero()
    assert swaps, "no case needed a pivot swap"
    assert bool(packed) == (field.kind == fields.FUNCTION_FIELD and field.p < 2 ** 32)


@st.composite
def systems(draw):
    field = draw(st.sampled_from(FIELDS))
    p = field.p
    if field.kind == fields.RATIONALS:
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    elif field.kind == fields.PRIME:
        entry = st.integers(0, p - 1)
    else:
        coeffs = st.lists(st.one_of(st.integers(0, p - 1), st.just(p - 1)), max_size=4)
        entry = st.tuples(coeffs.map(tuple), coeffs.map(lambda c: tuple(c[:2]) + (1,)))
    entry = st.one_of(st.just(0), entry)
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))

    def grid(r, c):
        return Matrix(field, draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                           min_size=r, max_size=r)))
    return grid(rows, cols), grid(rows, draw(st.integers(1, 2)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(systems())
def test_kernel_property_against_per_entry_oracle(system):
    a, b = system
    with pytest.MonkeyPatch.context() as monkeypatch:
        same_under_oracle(monkeypatch, lambda: kernel_results(a, b))
        if a.is_square() and a.rows % 2 == 0:
            skew = SkewMatrix.from_matrix(a - a.transpose())
            same_under_oracle(monkeypatch, lambda: pf_eliminate(skew))


@pytest.mark.parametrize("slot", [0, -1])
def test_a_corrupted_quotient_slot_raises(slot, monkeypatch):
    """Add 1 to one coefficient of one packed quotient, the lowest or the
    top: the check q * prev = numerator must see it, in the Matrix kernel
    (an inverse) and in the skew kernel on F_p[t] itself.  Over F_p(t),
    det and pf_eliminate of a matrix this small run over Z and never reach
    the packed step."""
    real = fields._packed_quotients

    def corrupt(nums, prev, inverse, width, code, p):
        quos = real(nums, prev, inverse, width, code, p)
        quo = next(q for q in quos if q)
        quo[slot] = (quo[slot] + 1) % p
        return quos

    field = Field.function_field(3)
    rng = random.Random(5)
    a = SkewMatrix.from_upper(field, 6, [field.sample_nonzero(rng, 5) for _ in range(15)])
    full = a.full_matrix()
    ring, (_, upper) = field.ring(), a.ring_form()
    assert pf_eliminate(a) ** 2 == full.det()
    assert full * full.inverse() == Matrix.identity(field, 6)
    assert _pf_ring(ring, upper)[0]
    monkeypatch.setattr(fields, "_packed_quotients", corrupt)
    with pytest.raises(InternalInvariant):
        full.inverse()
    with pytest.raises(InternalInvariant):
        _pf_ring(ring, upper)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.flag())
def test_kernel_steps_the_columns_that_hold_no_pivot(field, monkeypatch):
    """Each pivot step of the Matrix kernel passes its row step the
    columns that hold none of the pivots so far, pivot included, in
    increasing order: the list it rebuilt at every pivot before it kept
    one list and removed each pivot column from it."""
    rng = random.Random(f"live columns:{field!r}")
    ring = field.ring()
    real, steps = ring.row_step, []

    def row_step(prev):
        calls, step = [], real(prev)
        steps.append(calls)
        return lambda row, cols, terms: calls.append(list(cols)) or step(row, cols, terms)
    monkeypatch.setattr(ring, "row_step", row_step)
    for _ in range(30):
        a, b, _ = random_system(field, rng)
        for upward, augment in ((False, None), (True, b)):
            steps.clear()
            pivots = a._eliminate(augment, upward=upward)[3]
            width = a.cols + (augment.cols if augment is not None else 0)
            assert len(steps) == len(pivots)
            for t, calls in enumerate(steps):
                live = [j for j in range(width) if j not in pivots[:t + 1]]
                assert all(cols == live for cols in calls)
