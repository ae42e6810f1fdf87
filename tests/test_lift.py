"""F_p(t) determinants and Pfaffians over Z, by the Kronecker lift.

Below a size estimate, `Matrix.det` and `pf_eliminate` over F_p(t) run the
integer kernels on the cleared entries evaluated at t = 2^w
(`PolynomialRing.lift`) and read the result back as signed base-2^w digits
mod p; above it they run the packed F_p[t] kernel.  The oracles are that
packed kernel, run with the threshold set so that nothing lifts, and
pf_recursive and closed forms for Pfaffians.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from skewplus import fields
from skewplus.fields import Field, IntegerRing, PolynomialRing
from skewplus.matrices import Matrix
from skewplus.pfaffian import SkewMatrix, pf_eliminate, pf_recursive

PRIMES = (2, 3, 7, 1000003, 2 ** 61 - 1)
EVERYTHING = 10 ** 12


def kernels(monkeypatch):
    """The kernel ring of every `PolynomialRing.lift` call from now on, in
    order: "lifted" for Z, "packed" for F_p[t]."""
    ran = []
    real = PolynomialRing.lift

    def lift(ring, rows, skew=False):
        out = real(ring, rows, skew)
        ran.append("lifted" if type(out[0]) is IntegerRing else "packed")
        return out
    monkeypatch.setattr(PolynomialRing, "lift", lift)
    return ran


def both(monkeypatch, compute):
    """compute() with every F_p(t) kernel lifted, and again with none;
    equal, and each run took the kernel it was meant to (a 0 x 0 matrix
    takes none)."""
    ran = kernels(monkeypatch)
    results = []
    for threshold, kind in ((EVERYTHING, "lifted"), (-1, "packed")):
        with monkeypatch.context() as patch:
            patch.setattr(fields, "_LIFT_MAX_BITS", (threshold, threshold))
            ran.clear()
            results.append(compute())
            assert set(ran) <= {kind}
    assert results[0] == results[1]
    return results[0]


def poly_entry(field, rng, zeros=0.0, length=4):
    """A random element of F_p(t): zero with probability `zeros`, else
    coefficients in 0..p-1, often p-1, over a monic denominator."""
    p = field.p
    if rng.random() < zeros:
        return field.zero()

    def coeff():
        return p - 1 if rng.random() < 0.3 else rng.randrange(p)
    num = tuple(coeff() for _ in range(rng.randint(1, length)))
    den = tuple(coeff() for _ in range(rng.randint(0, 2))) + (1,)
    return field.scalar((num, den))


def random_square(field, n, rng, zeros):
    """An n x n matrix with random entries, then maybe a zero row, a zero
    column, and a zero first entry, so the first pivot needs a swap."""
    rows = [[poly_entry(field, rng, zeros) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        rows[rng.randrange(n)] = [field.zero()] * n
    if n > 1 and rng.random() < 0.2:
        col = rng.randrange(n)
        for row in rows:
            row[col] = field.zero()
    if n > 1 and rng.random() < 0.5:
        rows[0][0] = field.zero()
    return Matrix(field, rows)


def random_skew(field, q, rng, zeros):
    """A q x q skew matrix with random entries, then maybe a zero index and
    a zero entry (1, 2), so the first pivot is found by a swap."""
    upper = [[poly_entry(field, rng, zeros) for _ in range(q - 1 - i)] for i in range(q - 1)]
    if q > 2 and rng.random() < 0.2:
        k = rng.randrange(q)
        for i in range(k):
            upper[i][k - i - 1] = field.zero()
        if k < q - 1:
            upper[k] = [field.zero()] * (q - 1 - k)
    if q > 2 and rng.random() < 0.5:
        upper[0][0] = field.zero()
    return SkewMatrix(field, q, upper)


def laplace_det(rows, field):
    """The determinant by expansion along the first row, in scalars."""
    if not rows:
        return field.one()
    total = field.zero()
    for j, x in enumerate(rows[0]):
        if x:
            minor = laplace_det([row[:j] + row[j + 1:] for row in rows[1:]], field)
            total = total + (x * minor if j % 2 == 0 else -(x * minor))
    return total


@pytest.mark.parametrize("p", PRIMES)
def test_lifted_det_equals_the_packed_kernel(p, monkeypatch):
    """Sizes 0-12 (sparse only from 9 on: over F_{2^61-1}(t) a dense 12 x 12
    takes seconds), with zero entries, zero rows and columns, and row swaps;
    a swap at the first pivot, over Z and over F_p[t] alike, is seen, and
    a matrix singular over F_p(t).  Up to 5 x 5, Laplace expansion agrees."""
    field = Field.function_field(p)
    rng = random.Random(f"lifted det:{p}")
    swapped = singular = 0
    for n in range(13):
        for zeros in (0, 0.3, 0.6) if n < 9 else (0.6,):
            a = random_square(field, n, rng, zeros)
            det = both(monkeypatch, a.det)
            if n <= 5:
                assert det == laplace_det(a.data, field)
            swapped += n > 1 and a.entry(1, 1).is_zero() and not det.is_zero()
            singular += det.is_zero()
    assert swapped and singular


@pytest.mark.parametrize("p", PRIMES)
def test_lifted_pfaffian_equals_the_packed_kernel_and_the_expansion(p, monkeypatch):
    field = Field.function_field(p)
    rng = random.Random(f"lifted pf:{p}")
    swapped = 0
    for q in range(0, 13, 2):
        for zeros in (0, 0.3, 0.6):
            a = random_skew(field, q, rng, zeros)
            pf = both(monkeypatch, lambda: pf_eliminate(SkewMatrix._of(field, q, a.flat)))
            assert pf == pf_recursive(a)
            swapped += q > 2 and a.entry(1, 2).is_zero() and not pf.is_zero()
    assert swapped


def test_singular_over_fp_t_though_the_lift_is_not(monkeypatch):
    """The lifted matrices are nonsingular over Z, with determinant or
    Pfaffian a multiple of p; in the 3 x 3 case Z takes a pivot (the
    leading 2 x 2 minor, 3) that is zero over F_3.  The F_7(t) Pfaffian's
    coefficients over Z pass p."""
    f3, t = Field.function_field(3), Field.function_field(3).t()
    assert both(monkeypatch, Matrix(f3, [[2, 1], [1, 2]]).det) == 0
    assert both(monkeypatch, Matrix(f3, [[2 * t, t], [1, 2]]).det) == 0
    assert both(monkeypatch, Matrix(f3, [[2, 1, 0], [1, 2, 1], [0, 1, 1]]).det) == 1
    # Pf = a12 a34 - a13 a24 + a14 a23 = 4 - 1 + 0 over Z
    skew = SkewMatrix.from_upper(f3, 4, [2, 1, 0, 1, 1, 2])
    assert both(monkeypatch, lambda: pf_eliminate(SkewMatrix._of(f3, 4, skew.flat))) == 0
    assert pf_recursive(skew) == 0
    f7 = Field.function_field(7)
    t = f7.t()
    # Pf = (6 + 6t)(6 + t) - (1 + t) t + 0 = 36 + 41 t + 5 t^2 = 1 + 6t + 5t^2 mod 7
    skew = SkewMatrix.from_upper(f7, 4, [6 + 6 * t, 1 + t, 0, 1, t, 6 + t])
    assert both(monkeypatch, lambda: pf_eliminate(SkewMatrix._of(f7, 4, skew.flat))) \
        == pf_recursive(skew) == 1 + 6 * t + 5 * t * t


def constant_run(field, length):
    """The element whose coefficients are all p-1, `length` of them."""
    return field.scalar(((field.p - 1,) * length, (1,)))


def just_below_the_crossover(monkeypatch, make, sizes):
    """The largest of `sizes` whose matrix make(n) is lifted, and its
    matrix; the next size must not be lifted."""
    ran = kernels(monkeypatch)
    last = None
    for n in sizes:
        ran.clear()
        a = make(n)
        pf_eliminate(a) if isinstance(a, SkewMatrix) else a.det()
        if ran != ["lifted"]:
            assert ran == ["packed"] and last is not None
            return last
        last = n, a
    raise AssertionError("every size lifted")


@pytest.mark.parametrize("p", PRIMES)
def test_full_length_p_minus_one_just_below_the_crossover(p, monkeypatch):
    """Every coefficient p-1 at full length, at the largest size that still
    lifts: for c = (p-1)(1 + t + ... + t^4), det c(J - I) = (-1)^(n-1)
    (n-1) c^n and the all-c skew matrix has Pf = c^(q/2)."""
    field = Field.function_field(p)
    c = constant_run(field, 5)
    zero = field.zero()
    n, a = just_below_the_crossover(
        monkeypatch, lambda n: Matrix(field, [[zero if i == j else c for j in range(n)]
                                              for i in range(n)]), range(2, 40))
    assert both(monkeypatch, a.det) == (-1) ** (n - 1) * (n - 1) * c ** n
    q, a = just_below_the_crossover(
        monkeypatch, lambda q: SkewMatrix.from_upper(field, q, [c] * (q * (q - 1) // 2)),
        range(2, 80, 2))
    assert both(monkeypatch, lambda: pf_eliminate(SkewMatrix._of(field, q, a.flat))) \
        == c ** (q // 2)


@pytest.mark.parametrize("p", (3, 1000003, 2 ** 61 - 1))
def test_width_meets_a_tight_bound(p, monkeypatch):
    """Where Hadamard's bound is attained, by diagonal and block-diagonal
    matrices of constants p-1, the result's one coefficient is the bound
    itself: a width one bit short reads it wrong."""
    field = Field.function_field(p)
    c, zero = constant_run(field, 1), field.zero()
    for n in range(1, 12):
        a = Matrix(field, [[c if i == j else zero for j in range(n)] for i in range(n)])
        assert both(monkeypatch, a.det) == c ** n
        blocks = SkewMatrix.from_upper(field, 2 * n, [
            c if i % 2 == 0 and j == i + 1 else zero
            for i in range(2 * n) for j in range(i + 1, 2 * n)])
        assert both(monkeypatch, lambda: pf_eliminate(blocks)) == c ** n


@st.composite
def lifted_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    field = Field.function_field(p)
    coeff = st.one_of(st.integers(0, p - 1), st.just(p - 1))
    entry = st.one_of(st.just(0), st.tuples(st.lists(coeff, max_size=5).map(tuple),
                                            st.lists(coeff, max_size=2).map(lambda c: (*c, 1))))
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        return Matrix(field, draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                           min_size=n, max_size=n)))
    q = n - n % 2
    return SkewMatrix.from_upper(field, q, draw(st.lists(entry, min_size=q * (q - 1) // 2,
                                                         max_size=q * (q - 1) // 2)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lifted_cases())
def test_lift_property_against_the_packed_kernel(a):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if isinstance(a, Matrix):
            both(monkeypatch, a.det)
        else:
            pf = both(monkeypatch, lambda: pf_eliminate(SkewMatrix._of(a.field, a.size, a.flat)))
            assert pf == pf_recursive(a)


def kernel_3field_entry(field, rng):
    """An entry of perfbench's kernel-3field F_p(t) inputs: a numerator of
    degree 2 over a monic linear denominator."""
    p = field.p
    return field.scalar(((rng.randrange(p), rng.randrange(p), rng.randrange(1, p)),
                         (rng.randrange(p), 1)))


def sampler_entry(field, rng):
    """An entry as bench pfaffian draws it: the field's sampler, bound 9."""
    return field.sample(rng, 9)


@pytest.mark.parametrize("field, entry, q, kernels_ran", [
    (Field.function_field(3), kernel_3field_entry, 8, ["lifted", "lifted"]),
    (Field.function_field(3), kernel_3field_entry, 10, ["lifted", "lifted"]),
    (Field.function_field(3), kernel_3field_entry, 12, ["lifted", "lifted"]),
    (Field.function_field(3), sampler_entry, 14, ["lifted", "packed"]),
    (Field.function_field(3), sampler_entry, 18, ["packed", "packed"]),
    (Field.function_field(1000003), kernel_3field_entry, 12, ["packed", "packed"]),
], ids=["f3t-kernel-8", "f3t-kernel-10", "f3t-kernel-12", "f3t-sampler-14", "f3t-sampler-18",
        "f1000003t-kernel-12"])
def test_the_kernel_each_side_of_the_crossover_takes(field, entry, q, kernels_ran, monkeypatch):
    """The kernels of pf_eliminate and of det on the full matrix:
    kernel-3field's F_3(t) classes lift both; the entries of bench
    pfaffian's sampler at size 14 lift the Pfaffian only, whose integers
    are about half as long, and at size 18 neither; nor does F_1000003(t)
    at 12."""
    rng = random.Random(f"selection:{q}")
    a = SkewMatrix.from_upper(field, q, [entry(field, rng) for _ in range(q * (q - 1) // 2)])
    ran = kernels(monkeypatch)
    pf = pf_eliminate(a)
    assert pf * pf == a.full_matrix().det()
    assert ran == kernels_ran
