import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from skewplus.errors import DivisionByZero, FieldMismatch, ParseError, SamplerExhausted
from skewplus.fields import (_KRONECKER_MIN, PRIME, RATIONALS, Field, Scalar, parse_scalar, poly_add,
                             poly_divmod, poly_gcd, poly_mul, poly_neg, poly_to_str, poly_trim,
                             sample_until)

FIELDS = [Field.rationals(), Field.prime(5), Field.function_field(2),
          Field.function_field(3)]


def test_equal_fields_hash_equal_before_and_after_caching():
    for make in (Field.rationals, lambda: Field.prime(5), lambda: Field.function_field(3)):
        first, second = make(), make()
        want = hash((first.kind, first.p))
        assert hash(first) == want == hash(first) == hash(second)
        assert {first: 1}[second] == 1
        assert hash(first.scalar(2)) == hash(second.scalar(2))
    assert hash(Field.prime(5)) != hash(Field.prime(7))


def test_fraction_arithmetic():
    Q = Field.rationals()
    assert Q.fraction(1, 2) + Q.fraction(1, 3) == Q.fraction(5, 6)
    assert Q.scalar(2) * Q.fraction(1, 2) == Q.one()


def test_function_field_inverse():
    F2t = Field.function_field(2)
    t = F2t.t()
    x = t + 1
    assert x.inv() * x == F2t.one()
    assert x.inv().literal() == "(1)/(1+1*t) over F_2[t]"


def test_inverse_of_random_nonzero():
    rng = random.Random(1)
    for field in FIELDS:
        for _ in range(50):
            a = field.sample_nonzero(rng, 12)
            assert a * a.inv() == field.one()


def test_field_axioms_thousand_triples():
    rng = random.Random(2)
    for field in FIELDS:
        for _ in range(1000):
            a, b, c = (field.sample(rng, 10) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == field.zero()
            if not a.is_zero():
                assert a * a.inv() == field.one()


PROPERTY_FIELDS = [Field.rationals(), Field.prime(5), Field.prime(1000003),
                   Field.function_field(3)]


@st.composite
def triples(draw):
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    if field.kind == PRIME:
        entry = st.integers(-2 * field.p, 2 * field.p)
    elif field.characteristic == 0:
        entry = st.fractions(max_denominator=50).filter(lambda x: abs(x) < 10 ** 6)
    else:
        coeffs = st.lists(st.integers(0, field.p - 1), max_size=4).map(tuple)
        # numerator over a monic denominator of degree <= 2
        entry = st.tuples(coeffs, coeffs.map(lambda c: c[:2] + (1,)))
    return field, [field.scalar(x) for x in draw(st.lists(entry, min_size=3, max_size=3))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(triples())
def test_field_axioms_property(case):
    field, (a, b, c) = case
    zero, one = field.zero(), field.one()
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    if not b.is_zero():
        assert (a / b) * b == a and b * b.inv() == one
    for x in (a, b, c):
        assert parse_scalar(x.literal(), field) == x
        assert parse_scalar(x.literal()) == x


def test_canonical_form_idempotent():
    Q = Field.rationals()
    s = Q.scalar(Fraction(6, 4))
    assert Q.scalar(s.value) == s
    F5 = Field.prime(5)
    assert F5.scalar(12) == F5.scalar(2)
    F3t = Field.function_field(3)
    # (t^2 - 1)/(t - 1) reduces to t + 1 with monic denominator
    t = F3t.t()
    x = (t * t - 1) / (t - 1)
    assert x == t + 1
    assert F3t.scalar(x.value) == x


def test_division_by_zero():
    Q = Field.rationals()
    with pytest.raises(DivisionByZero):
        Q.one() / Q.zero()
    with pytest.raises(DivisionByZero):
        Q.zero().inv()


def test_rational_scalar_refuses_a_float():
    with pytest.raises(ParseError):
        Field.rationals().scalar(0.1)


def test_rational_scalar_refuses_a_non_numeric_string():
    with pytest.raises(ParseError):
        Field.rationals().scalar("x")


def test_rational_scalar_refuses_none():
    with pytest.raises(ParseError):
        Field.rationals().scalar(None)


def test_rational_scalar_refuses_nan():
    with pytest.raises(ParseError):
        Field.rationals().scalar(float("nan"))


def test_rational_scalar_refuses_infinity():
    with pytest.raises(ParseError):
        Field.rationals().scalar(float("inf"))


def test_rational_scalar_of_a_zero_denominator_string():
    with pytest.raises(DivisionByZero):
        Field.rationals().scalar("1/0")


def test_rational_scalar_keeps_its_exact_inputs():
    Q = Field.rationals()
    assert Q.scalar(-3).value == (-3, 1)
    assert Q.scalar((4, -6)).value == (-2, 3)
    assert Q.scalar(Fraction(5, 10)).value == (1, 2)
    assert Q.scalar("0.25").value == (1, 4)
    assert Q.scalar("-7/3").value == (-7, 3)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Field.rationals().one() + Field.prime(5).one()


def test_sampling_deterministic_and_bounded():
    Q = Field.rationals()
    a = [Q.sample(random.Random(7), 10) for _ in range(20)]
    b = [Q.sample(random.Random(7), 10) for _ in range(20)]
    assert a == b
    for s in a:
        assert abs(s.value[0]) <= 10 * 10  # reduced from p<=10, q<=10
        assert 1 <= s.value[1] <= 10
    F5 = Field.prime(5)
    for _ in range(20):
        assert F5.sample(random.Random(_), 100).value in range(5)


def test_literals_round_trip():
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(40):
            s = field.sample(rng, 8)
            assert parse_scalar(s.literal(), field) == s


def test_literal_syntax():
    assert parse_scalar("-3/4").value == (-3, 4)
    assert parse_scalar("7").value == (7, 1)
    s = parse_scalar("3 mod 5")
    assert s.field == Field.prime(5) and s.value == 3
    s = parse_scalar("(1+1*t)/(1+1*t+1*t^2) over F_2[t]")
    assert s.field == Field.function_field(2)
    t = s.field.t()
    assert s == (1 + t) / (1 + t + t * t)
    for bad in ("not a scalar", 1, None,
                "(1+t^4611686018427387904)/(1) over F_3[t]",
                "(t^99999999999999999999) over F_3[t]"):
        with pytest.raises(ParseError):
            parse_scalar(bad)


def test_integer_literal_coerces_into_any_field():
    F5 = Field.prime(5)
    assert parse_scalar("7", F5) == F5.scalar(2)
    F2t = Field.function_field(2)
    assert parse_scalar("1", F2t) == F2t.one()


def test_descriptors():
    for field in FIELDS:
        assert Field.from_descriptor(field.descriptor()) == field
        assert Field.from_flag(field.flag()) == field
    assert Field.from_flag("fp:11") == Field.prime(11)
    with pytest.raises(ParseError):
        Field.from_flag("fp:4")  # not prime
    for p in ("5", 5.5, True, None):
        with pytest.raises(ParseError):
            Field.from_descriptor({"kind": "prime", "p": p})


def test_is_infinite_flag():
    assert Field.rationals().is_infinite
    assert Field.function_field(2).is_infinite
    assert not Field.prime(5).is_infinite
    assert Field.rationals().characteristic == 0
    assert Field.function_field(3).characteristic == 3


def test_powers():
    Q = Field.rationals()
    a = Q.fraction(2, 3)
    assert a ** 3 == Q.fraction(8, 27)
    assert a ** 0 == Q.one()
    assert a ** -2 == Q.fraction(9, 4)


def test_sample_until_doubles_the_pool_every_16_attempts():
    bounds = []

    def draw(bound):
        bounds.append(bound)
        return len(bounds)

    assert sample_until(lambda x: x == 40, draw, 100, "fortieth draw") == 40
    assert bounds == [8] * 16 + [16] * 16 + [32] * 8


def test_sample_until_exhausts_after_max_attempts():
    draws = []
    with pytest.raises(SamplerExhausted, match="no lucky draw found in 21 attempts"):
        sample_until(lambda x: False, draws.append, 21, "lucky draw")
    assert len(draws) == 21


# ---------------------------------------------------------------------------
# F_p(t) arithmetic against the routines it replaced
# ---------------------------------------------------------------------------

def poly_mul_oracle(a, b, p):
    """The schoolbook product."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out, p)


def dot_oracle(x, y, p):
    """sum_k x[k] y[k], the coefficient products summed as plain ints."""
    out = []
    for a, b in zip(x, y):
        if not a or not b:
            continue
        if len(out) < len(a) + len(b) - 1:
            out.extend([0] * (len(a) + len(b) - 1 - len(out)))
        for i, u in enumerate(a):
            for k, v in enumerate(b, start=i):
                out[k] += u * v
    return poly_trim(out, p)


def gcd_oracle(a, b, p):
    """The monic gcd by Euclid on poly_divmod."""
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if a:
        inv_lead = pow(a[-1], -1, p)
        a = tuple(x * inv_lead % p for x in a)
    return a


def scalar_oracle(op, x, y):
    """x + y or x * y over F_p(t): the full cross products, reduced by one
    gcd to a monic denominator."""
    p = x.field.p
    (n1, d1), (n2, d2) = x.value, y.value
    num = dot_oracle([n1, n2], [d2, d1], p) if op == "add" else poly_mul_oracle(n1, n2, p)
    den = poly_mul_oracle(d1, d2, p)
    if not num:
        return Scalar(x.field, ((), (1,)))
    g = gcd_oracle(num, den, p)
    num, den = poly_divmod(num, g, p)[0], poly_divmod(den, g, p)[0]
    inv_lead = pow(den[-1], -1, p)
    return Scalar(x.field, (tuple(c * inv_lead % p for c in num),
                            tuple(c * inv_lead % p for c in den)))


# the last prime needs more than an 8-byte slot, so its long products fall
# back to the schoolbook loop
ORACLE_PRIMES = [2, 3, 7, 1000003, 2 ** 61 - 1]


@st.composite
def polys(draw, p, max_len=80, min_len=0):
    """Trimmed polynomials, heavy in zeros and in the top coefficient p - 1,
    the one that fills a slot."""
    coeff = st.one_of(st.integers(0, p - 1), st.sampled_from([0, p - 1]))
    return poly_trim(draw(st.lists(coeff, min_size=min_len, max_size=max_len)), p)


@st.composite
def poly_pairs(draw, max_len=80):
    p = draw(st.sampled_from(ORACLE_PRIMES))
    return p, draw(polys(p, max_len)), draw(polys(p, max_len))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(poly_pairs())
def test_poly_mul_matches_schoolbook(case):
    p, a, b = case
    assert poly_mul(a, b, p) == poly_mul_oracle(a, b, p)


@pytest.mark.parametrize("p, c, length", [
    (3, 2, 63), (3, 2, 64), (3, 2, 65),                # 1 | 2 bytes at 4 * 64 = 256
    (1000003, 31, 64), (1000003, 32, 64),            # 2 | 4 bytes at 2^16
    (1000003, 8191, 64), (1000003, 8192, 64),        # 4 | 8 bytes at 2^32
    (2 ** 61 - 1, 2 ** 29 - 1, 64), (2 ** 61 - 1, 2 ** 29, 64),  # 8 bytes | schoolbook
    (7, 6, 5), (7, 6, 6),                            # below | at the threshold
])
def test_poly_mul_on_both_sides_of_every_slot_boundary(p, c, length):
    """The middle coefficient of (c + ... + c t^(L-1))^2 is L c^2, exactly
    the slot bound, so a slot one byte too narrow loses its top bits."""
    a = (c,) * length
    assert poly_mul(a, a, p) == poly_mul_oracle(a, a, p)
    assert poly_mul(a, a[:-1] + (1,), p) == poly_mul_oracle(a, a[:-1] + (1,), p)


def test_poly_mul_rejects_a_negative_coefficient():
    with pytest.raises(OverflowError):
        poly_mul((1,) * 5 + (-1,), (1,) * 6, 3)


@st.composite
def dot_cases(draw):
    """Up to 6 pairs, all of them past the threshold in about half the cases."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    poly = polys(p, 40, min_len=draw(st.sampled_from([0, _KRONECKER_MIN])))
    return p, draw(st.lists(st.tuples(poly, poly), max_size=6))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(dot_cases())
def test_dot_matches_oracle(case):
    p, pairs = case
    x, y = [a for a, _ in pairs], [b for _, b in pairs]
    assert Field.function_field(p).ring().dot(x, y) == dot_oracle(x, y, p)


@pytest.mark.parametrize("c", [31, 32, 8191, 8192])
def test_dot_slot_holds_the_sum_of_the_pair_bounds(c):
    """Two products of length-32 constants sum to 64 c^2 in the middle,
    across 2^16 between c = 31 and 32 and across 2^32 between c = 8191 and
    8192, where one product alone, 32 c^2, still fits the narrower slot."""
    p = 1000003
    x = [(c,) * 32] * 2
    assert Field.function_field(p).ring().dot(x, x) == dot_oracle(x, x, p)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(ORACLE_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), polys(p, 12), polys(p, 12), polys(p, 6))))
def test_gcd_matches_oracle(case):
    """a g and b g share at least the factor g, zeros included."""
    p, a, b, g = case
    a, b = poly_mul_oracle(a, g, p), poly_mul_oracle(b, g, p)
    for x, y in ((a, b), (b, a), (a, ()), ((), b), ((), ())):
        assert poly_gcd(x, y, p) == gcd_oracle(x, y, p)


FPT_FIELDS = [Field.function_field(p) for p in ORACLE_PRIMES]
PAIR_KINDS = ("product", "sum", "cancel")


def shared_factor_pair(field, kind, n1, n2, z, d1, d2, c1, c2):
    """x = n1 c1 / (d1 c2) and a y sharing factors with it: for "product",
    y = n2 c2 / (d2 c1), so x y cancels c1 and c2 (g1, g2 != 1); for "sum",
    y = n2 / (d2 c2), so the denominators share c2 (g != 1); for "cancel",
    y = z / d2 - x, so x + y cancels part of x's denominator (g2 != 1)."""
    p = field.p
    d1, d2, c1, c2 = (d or (1,) for d in (d1, d2, c1, c2))
    x = field.scalar((poly_mul_oracle(n1, c1, p), poly_mul_oracle(d1, c2, p)))
    if kind == "product":
        return x, field.scalar((poly_mul_oracle(n2, c2, p), poly_mul_oracle(d2, c1, p)))
    if kind == "sum":
        return x, field.scalar((n2, poly_mul_oracle(d2, c2, p)))
    return x, scalar_oracle("add", field.scalar((z, d2)), -x)


@st.composite
def fpt_pairs(draw):
    field = draw(st.sampled_from(FPT_FIELDS))
    parts = [draw(polys(field.p, 5)) for _ in range(7)]
    return shared_factor_pair(field, draw(st.sampled_from(PAIR_KINDS)), *parts)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(fpt_pairs())
def test_scalar_add_and_mul_match_oracle(case):
    x, y = case
    for a, b in ((x, y), (y, x), (x, x), (x, -x), (x, x.field.zero())):
        for op, got in (("add", a + b), ("mul", a * b)):
            want = scalar_oracle(op, a, b)
            assert got == want and got.value == want.value
            num, den = got.value
            assert den[-1] == 1 and gcd_oracle(num, den, x.field.p) == (1,)


def test_shared_factor_pairs_reach_every_cancellation():
    """Seeded pairs over F_3(t) reach g1 != 1 and g2 != 1 in products, and
    g = gcd(d1, d2) != 1 in sums both with g2 = gcd(t, g) = 1 and != 1."""
    rng = random.Random(7)
    F, p, seen = Field.function_field(3), 3, set()
    for kind in PAIR_KINDS * 30:
        parts = [F.sample(rng, 6).value[0] for _ in range(7)]
        x, y = shared_factor_pair(F, kind, *parts)
        (n1, d1), (n2, d2) = x.value, y.value
        if n1 and n2:
            seen.add(("g1", gcd_oracle(n1, d2, p) != (1,)))
            seen.add(("g2 of a product", gcd_oracle(n2, d1, p) != (1,)))
            g = gcd_oracle(d1, d2, p)
            if g != (1,):
                s, u = poly_divmod(d1, g, p)[0], poly_divmod(d2, g, p)[0]
                seen.add(("g2 of a sum", gcd_oracle(dot_oracle([n1, n2], [u, s], p), g, p) != (1,)))
        assert x + y == scalar_oracle("add", x, y) and x * y == scalar_oracle("mul", x, y)
    assert seen == {(name, hit) for name in ("g1", "g2 of a product", "g2 of a sum")
                    for hit in (False, True)}


# -- to_scalar against the body it replaced --------------------------------

def to_scalar_oracle(field, num, scale, e):
    """num / scale^e as PolynomialRing.to_scalar made it before: scale^e
    by repeated products, then one full gcd against it
    (canonical_ratio_oracle)."""
    p = field.p
    den = (1,)
    for _ in range(e):
        den = poly_mul_oracle(den, scale, p)
    return Scalar(field, canonical_ratio_oracle(num, den, p))


@st.composite
def to_scalar_cases(draw):
    """num = r a^i b^j over scale = c a b, so num shares each of scale's
    factors a and b at a multiplicity below, at or above e (r zero,
    constant or of any degree); scale need not be monic."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    a, b, c = (draw(polys(p, 4)) or (1,) for _ in range(3))
    scale = poly_mul_oracle(poly_mul_oracle(a, b, p), c, p)
    num = draw(st.one_of(st.just(()), polys(p, 1), polys(p, 5)))
    for factor in (a, b):
        for _ in range(draw(st.integers(0, 5))):
            num = poly_mul_oracle(num, factor, p)
    return Field.function_field(p), num, scale, draw(st.integers(0, 4))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(to_scalar_cases())
def test_to_scalar_matches_oracle(case):
    field, num, scale, e = case
    got, want = field.ring().to_scalar(num, scale, e), to_scalar_oracle(field, num, scale, e)
    assert got == want and got.value == want.value


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_to_scalar_zero_constant_and_shared_numerators(p):
    """Over scale = 2 t (t+1) (2 = 0 for p = 2): zero and constant
    numerators, and numerators with t or t+1 to every multiplicity 0-4
    against every power e 0-3."""
    field = Field.function_field(p)
    scale = poly_trim((0, 2, 2), p) or (0, 1, 1)
    t, t1 = (0, 1), (1, 1)
    nums = [(), (1,), (p - 1,)]
    for i in range(5):
        for j in range(5):
            num = (p - 1,)
            for factor in [t] * i + [t1] * j:
                num = poly_mul_oracle(num, factor, p)
            nums.append(num)
    cancelled = 0
    for num in nums:
        for e in range(4):
            got = field.ring().to_scalar(num, scale, e)
            assert got.value == to_scalar_oracle(field, num, scale, e).value
            cancelled += len(got.value[1]) < 2 * e + 1
    assert cancelled


def test_ring_equal_compares_field_elements():
    """`equal` on unreduced ring values: over F_p, add, sub and mul leave
    their results unreduced, so equal residues can be different ints."""
    p = 1000003
    fp = Field.prime(p).ring()
    x, y = 123456, 654321
    assert fp.mul(x, y) != fp.mul(x, y) % p
    assert fp.equal(fp.mul(x, y), fp.mul(x, y) % p)
    assert fp.equal(fp.sub(x, x + p), 0)
    assert not fp.equal(fp.mul(x, y), fp.mul(x, y) + 1)
    z = Field.rationals().ring()
    assert z.equal(z.mul(6, 7), 42) and not z.equal(42, 42 + p)
    f3t = Field.function_field(3).ring()
    assert f3t.equal(f3t.mul((1, 1), (2, 1)), (2, 0, 1))
    assert not f3t.equal((1, 1), (1, 2))


# -- Q as int pairs against the Fraction bodies they replaced ---------------

def q_scalar_oracle(value) -> Fraction:
    """The Q branch of `Field.scalar`, as it was."""
    return Fraction(value)


def q_add_oracle(x: Fraction, y: Fraction) -> Fraction:
    return x + y


def q_mul_oracle(x: Fraction, y: Fraction) -> Fraction:
    return x * y


def q_inv_oracle(x: Fraction) -> Fraction:
    return 1 / x


def q_clear_oracle(rows):
    """`IntegerRing.clear` on rows of Fractions, as it was."""
    scale = math.lcm(*[x.denominator for row in rows for x in row])
    if scale == 1:
        return 1, [[x.numerator for x in row] for row in rows]
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def q_to_scalar_oracle(num, scale, e) -> Fraction:
    """`IntegerRing.to_scalar`, as it was."""
    return Fraction(num, scale ** e)


BIG = 2 ** 70
q_ints = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-BIG, BIG))
q_values = st.one_of(
    q_ints,
    st.builds(Fraction, q_ints, st.integers(1, BIG)),
    st.tuples(q_ints, q_ints.filter(bool)),
)


def check_q(got: Scalar, want: Fraction):
    """The same value as the Fraction body's, the same literal, and a
    parse_scalar round trip."""
    Q = Field.rationals()
    assert got.value == (want.numerator, want.denominator)
    assert type(got.value[0]) is int and type(got.value[1]) is int
    assert got.literal() == str(want)
    assert got == want and hash(got) == hash(Q.scalar(want))
    assert parse_scalar(got.literal(), Q) == got == parse_scalar(got.literal())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(q_values, q_values, st.lists(st.lists(q_values, max_size=4), max_size=3),
       q_ints, q_ints.filter(bool), st.integers(0, 3))
def test_q_pairs_match_fraction_oracles(x, y, rows, num, scale, e):
    Q = Field.rationals()
    ring = Q.ring()

    def frac(v):
        return Fraction(*v) if isinstance(v, tuple) else Fraction(v)

    fx, fy = frac(x), frac(y)
    a, b = Q.scalar(x), Q.scalar(y)
    check_q(a, fx if isinstance(x, tuple) else q_scalar_oracle(x))
    check_q(b, fy)
    check_q(Q.fraction(fx.numerator, -fx.denominator), -fx)
    check_q(a + b, q_add_oracle(fx, fy))
    check_q(a - b, q_add_oracle(fx, -fy))
    check_q(-a, -fx)
    check_q(a * b, q_mul_oracle(fx, fy))
    check_q(a * b + a, q_add_oracle(q_mul_oracle(fx, fy), fx))
    if fy:
        check_q(b.inv(), q_inv_oracle(fy))
        check_q(a / b, q_mul_oracle(fx, q_inv_oracle(fy)))
    else:
        with pytest.raises(DivisionByZero):
            b.inv()
    check_q(ring.to_scalar(num, scale, e), q_to_scalar_oracle(num, scale, e))
    got_scale, got_rows = ring.clear([[Q.scalar(v).value for v in row] for row in rows])
    assert (got_scale, got_rows) == q_clear_oracle([[frac(v) for v in row] for row in rows])


def test_q_pairs_at_the_edges():
    Q = Field.rationals()
    assert Q.scalar((6, -4)).value == (-3, 2) == Q.fraction(-6, 4).value
    assert Q.scalar((0, -7)).value == (0, 1) == Q.scalar(Fraction(0)).value
    assert Q.scalar("-6/4").value == (-3, 2) and Q.scalar(True).value == (1, 1)
    assert (Q.fraction(1, 2) + Q.fraction(-1, 2)).value == (0, 1)
    assert (Q.fraction(1, 6) + Q.fraction(1, 3)).value == (1, 2)
    for zero_den in (lambda: Q.scalar((1, 0)), lambda: Q.fraction(1, 0),
                     lambda: Q.ring().to_scalar(1, 0, 1), lambda: parse_scalar("1/0")):
        with pytest.raises(DivisionByZero):
            zero_den()
    for bad in ((1, 2, 3), (1.0, 2), None):
        with pytest.raises(ParseError):
            Q.scalar(bad)


def test_q_paths_make_no_fraction(monkeypatch):
    """Over Q on int inputs, certification, sections, Witt extension, the
    gamma map and its oracle construct no Fraction."""
    from skewplus import fields
    from skewplus.errors import NotSkewPlus
    from skewplus.gamma import gamma_map, gamma_oracle_c, pfaffian_ratio
    from skewplus.pfaffian import SkewMatrix, SkewPlusMatrix, pf_eliminate, pf_recursive
    from skewplus.sections import section_V, section_v_det1
    from skewplus.symplectic import SymplecticSpace, random_sp, witt_extend

    def refuse(*args, **kwargs):
        raise AssertionError("a Q path made a Fraction")

    monkeypatch.setattr(fields, "Fraction", refuse)
    Q = Field.rationals()
    rng = random.Random(26)
    while True:
        try:
            a = SkewPlusMatrix.certify(SkewMatrix.from_upper(
                Q, 6, [rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(15)]))
            break
        except NotSkewPlus:
            continue
    assert pf_eliminate(a) == pf_recursive(a) == a.pf_without()
    seq = section_V(6, 6, a)
    assert seq.gram() == a.inner
    corner = a.principal([1, 2, 3, 4, 5])
    assert section_v_det1(corner).gram() == corner.inner
    space = SymplecticSpace(Q, 3)
    v = list(section_V(4, 6, a.principal([1, 2, 3, 4])).vectors)
    g = random_sp(space, rng)
    w = [g.apply(x) for x in v]
    h = witt_extend(space, v, w)
    assert all(h.apply(x) == y for x, y in zip(v, w))
    image = gamma_map(a, 2)
    assert not image.is_zero()
    for triple in combinations(range(1, 7), 3):
        assert gamma_oracle_c(a, triple) == pfaffian_ratio(a, triple)
        assert gamma_oracle_c(a, triple, [1, -2, 3]) == pfaffian_ratio(a, triple)


# ---------------------------------------------------------------------------
# Scalar arithmetic against the per-kind bodies it replaced
# ---------------------------------------------------------------------------
#
# Scalar's +, *, negation, inverse and zero test are now the value
# operations of the field's ring view.  Before, each branched on the
# field's kind, and two helpers reduced a fraction to canonical form.
# Those bodies follow, as they were, on canonical values.

def ratio_oracle(num, den):
    """`_ratio`: num / den as a canonical rational."""
    if not den:
        raise DivisionByZero("zero denominator")
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def canonical_ratio_oracle(num, den, p):
    """`_canonical_ratio`: num / den over F_p(t), canonical."""
    num = poly_trim(num, p)
    den = poly_trim(den, p)
    if not den:
        raise DivisionByZero("zero denominator in function field element")
    if not num:
        return ((), (1,))
    # the gcd times den's leading coefficient leaves a monic denominator
    g = tuple(x * den[-1] % p for x in poly_gcd(num, den, p))
    return (poly_divmod(num, g, p)[0], poly_divmod(den, g, p)[0])


def add_body(field, x, y):
    """The value of x + y by `Scalar.__add__`."""
    if field.kind == RATIONALS:
        (n1, d1), (n2, d2) = x, y
        g = math.gcd(d1, d2)
        if g == 1:
            return (n1 * d2 + n2 * d1, d1 * d2)
        s = d1 // g
        t = n1 * (d2 // g) + n2 * s
        g2 = math.gcd(t, g)
        return (t // g2, s * (d2 // g2))
    if field.kind == PRIME:
        return (x + y) % field.p
    (n1, d1), (n2, d2), p = x, y, field.p
    if not n1 or not n2:
        return x if n1 else y
    g = d1 if d1 == d2 else poly_gcd(d1, d2, p)
    if g == (1,):
        return (poly_add(poly_mul(n1, d2, p), poly_mul(n2, d1, p), p), poly_mul(d1, d2, p))
    s, u = poly_divmod(d1, g, p)[0], poly_divmod(d2, g, p)[0]
    t = poly_add(poly_mul(n1, u, p), poly_mul(n2, s, p), p)
    g2 = poly_gcd(t, g, p)
    if g2 != (1,):
        t, d2 = poly_divmod(t, g2, p)[0], poly_divmod(d2, g2, p)[0]
    return (t, poly_mul(s, d2, p))


def mul_body(field, x, y):
    """The value of x * y by `Scalar.__mul__`."""
    if field.kind == RATIONALS:
        (n1, d1), (n2, d2) = x, y
        g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
        return ((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))
    if field.kind == PRIME:
        return (x * y) % field.p
    (n1, d1), (n2, d2), p = x, y, field.p
    if not n1 or not n2:
        return y if n1 else x
    g1, g2 = poly_gcd(n1, d2, p), poly_gcd(n2, d1, p)
    if g1 != (1,):
        n1, d2 = poly_divmod(n1, g1, p)[0], poly_divmod(d2, g1, p)[0]
    if g2 != (1,):
        n2, d1 = poly_divmod(n2, g2, p)[0], poly_divmod(d1, g2, p)[0]
    return (poly_mul(n1, n2, p), poly_mul(d1, d2, p))


def neg_body(field, x):
    """The value of -x by `Scalar.__neg__`."""
    if field.kind == RATIONALS:
        return (-x[0], x[1])
    if field.kind == PRIME:
        return (-x) % field.p
    return (poly_neg(x[0], field.p), x[1])


def inv_body(field, x):
    """The value of x.inv() by `Scalar.inv`, for nonzero x."""
    if field.kind == RATIONALS:
        num, den = x
        return (den, num) if num > 0 else (-den, -num)
    if field.kind == PRIME:
        return pow(x, -1, field.p)
    return canonical_ratio_oracle(x[1], x[0], field.p)


def is_zero_body(field, x):
    """`Scalar.is_zero`."""
    return x == 0 if field.kind == PRIME else not x[0]


def int_body(field, n):
    """The value of `Field.scalar(n)` for an int n."""
    if field.kind == RATIONALS:
        return (n, 1)
    if field.kind == PRIME:
        return n % field.p
    return (poly_trim((n,), field.p), (1,))


def fraction_body(field, num, den):
    """The value of `Field.fraction(num, den)`: `_ratio` over Q, else
    scalar(num) / scalar(den)."""
    if field.kind == RATIONALS:
        return ratio_oracle(num, den)
    d = int_body(field, den)
    if is_zero_body(field, d):
        raise DivisionByZero("inverse of zero")
    return mul_body(field, int_body(field, num), inv_body(field, d))


BODY_FIELDS = [Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(1000003),
               Field.prime(2 ** 61 - 1), Field.function_field(2), Field.function_field(3),
               Field.function_field(2 ** 61 - 1)]
BODY_CASES = ("random", "zero", "equal denominators", "shared factors")


@st.composite
def body_pairs(draw):
    """(x, y) in one field of BODY_FIELDS: random (negative numerators over
    Q included), one of them zero, y = x + r over x's denominator for a
    ring element r, or sharing factors as `shared_factor_pair` makes them
    (over Q, the same three shapes in Z).  The oracles build every value
    but those of `shared_factor_pair`."""
    field = draw(st.sampled_from(BODY_FIELDS))
    case = draw(st.sampled_from(BODY_CASES))
    if field.kind == PRIME:
        residue = st.one_of(st.integers(0, field.p - 1), st.sampled_from([0, 1, field.p - 1]))
        x, y = (Scalar(field, v) for v in (draw(residue), draw(residue)))
    elif field.kind == RATIONALS:
        small = st.integers(-30, 30).filter(bool)
        if case == "shared factors":
            n1, n2, z = (draw(q_ints) for _ in range(3))
            d1, d2, c1, c2 = (draw(small) for _ in range(4))
            x = Scalar(field, ratio_oracle(n1 * c1, d1 * c2))
            kind = draw(st.sampled_from(PAIR_KINDS))
            y = Scalar(field, ratio_oracle(n2 * c2, d2 * c1) if kind == "product"
                       else ratio_oracle(n2, d2 * c2) if kind == "sum"
                       else add_body(field, ratio_oracle(z, d2), neg_body(field, x.value)))
        else:
            x, y = (Scalar(field, ratio_oracle(draw(q_ints), draw(st.one_of(small, q_ints.filter(bool)))))
                    for _ in range(2))
    else:
        p = field.p
        if case == "shared factors":
            parts = [draw(polys(p, 5)) for _ in range(7)]
            x, y = shared_factor_pair(field, draw(st.sampled_from(PAIR_KINDS)), *parts)
        else:
            x, y = (Scalar(field, canonical_ratio_oracle(draw(polys(p, 5)), draw(polys(p, 5)) or (1,), p))
                    for _ in range(2))
    if case == "zero":
        x = Scalar(field, int_body(field, 0))
    elif case == "equal denominators" and field.kind != PRIME:
        r = draw(q_ints) if field.kind == RATIONALS else draw(polys(field.p, 4))
        y = Scalar(field, add_body(field, x.value, int_body(field, r) if field.kind == RATIONALS
                                   else (r, (1,))))
        assert y.value[1] == x.value[1]
    return x, y


@settings(derandomize=True, max_examples=500, deadline=None)
@given(body_pairs())
def test_scalar_arithmetic_matches_per_kind_bodies(case):
    x, y = case
    field = x.field

    def check(got, want):
        assert type(got) is Scalar and got.field == field and got.value == want

    for a, b in ((x, y), (y, x), (x, x)):
        check(a + b, add_body(field, a.value, b.value))
        check(a - b, add_body(field, a.value, neg_body(field, b.value)))
        check(a * b, mul_body(field, a.value, b.value))
        check(-a, neg_body(field, a.value))
        assert a.is_zero() == is_zero_body(field, a.value) == (not a)
        if is_zero_body(field, b.value):
            for divide in (b.inv, lambda: a / b):
                with pytest.raises(DivisionByZero):
                    divide()
        else:
            check(b.inv(), inv_body(field, b.value))
            check(a / b, mul_body(field, a.value, inv_body(field, b.value)))


def outcome(fn, *args):
    """fn(*args), or DivisionByZero if it raised that."""
    try:
        return fn(*args)
    except DivisionByZero:
        return DivisionByZero


@st.composite
def edge_parts(draw):
    """A field of BODY_FIELDS, ints num and den (den zero in some cases)
    and, over Q and F_p(t), a raw pair for `Field.scalar`: ints over Q,
    untrimmed coefficient tuples with entries in [-p, 2p) over F_p(t)."""
    field = draw(st.sampled_from(BODY_FIELDS))
    ints = st.one_of(st.just(0), st.integers(-9, 9), q_ints)
    num, den = draw(ints), draw(st.one_of(ints, st.sampled_from([field.p, -2 * field.p])))
    if field.kind == RATIONALS:
        pair = (draw(ints), draw(ints))
    elif field.kind == PRIME:
        pair = None
    else:
        p = field.p
        coeff = st.one_of(st.integers(-p, 2 * p - 1), st.sampled_from([0, p, p - 1]))
        pair = tuple(tuple(draw(st.lists(coeff, max_size=5))) for _ in range(2))
    return field, num, den, pair


@settings(derandomize=True, max_examples=500, deadline=None)
@given(edge_parts())
def test_edge_constructors_match_per_kind_bodies(case):
    """`Field.scalar` on pairs, `Field.fraction` and `parse_scalar`, zero
    denominators raising DivisionByZero on both sides."""
    field, num, den, pair = case

    def value(fn, *args):
        got = outcome(fn, *args)
        return got if got is DivisionByZero else got.value

    want = outcome(fraction_body, field, num, den)
    assert value(field.fraction, num, den) == want
    # an integer literal lands in any field; without a field it is rational
    text = f"{num if den >= 0 else -num}/{abs(den)}"
    assert value(parse_scalar, text, field) == want
    assert value(parse_scalar, text) == outcome(ratio_oracle, num, den)
    if field.kind == RATIONALS:
        assert value(field.scalar, pair) == outcome(ratio_oracle, *pair)
    elif field.kind == PRIME:
        text = f"{num} mod {field.p}"
        assert value(parse_scalar, text) == value(parse_scalar, text, field) == num % field.p
    else:
        p = field.p
        assert value(field.scalar, pair) == outcome(canonical_ratio_oracle, *pair, p)
        trimmed = [poly_trim(x, p) for x in pair]
        text = f"({poly_to_str(trimmed[0])})/({poly_to_str(trimmed[1])}) over F_{p}[t]"
        assert (value(parse_scalar, text) == value(parse_scalar, text, field)
                == outcome(canonical_ratio_oracle, *trimmed, p))


def sample_body(field, rng, size_bound):
    """The value of `Field.sample(rng, size_bound)`."""
    if field.kind == RATIONALS:
        return ratio_oracle(rng.randint(-size_bound, size_bound), rng.randint(1, size_bound))
    if field.kind == PRIME:
        return rng.randrange(field.p)
    deg_bound = min(size_bound, 1 + size_bound // 4)
    num = [rng.randrange(field.p) for _ in range(rng.randint(0, deg_bound) + 1)]
    den = [rng.randrange(field.p) for _ in range(rng.randint(0, deg_bound) + 1)]
    if not poly_trim(den, field.p):
        den = [1]
    return canonical_ratio_oracle(tuple(num), tuple(den), field.p)


@pytest.mark.parametrize("field", BODY_FIELDS, ids=Field.flag)
def test_sample_matches_per_kind_body(field):
    """The same draws from the same rng state, reduced the same way."""
    got_rng, want_rng = random.Random(31), random.Random(31)
    for bound in (1, 2, 5, 9, 40) * 20:
        assert field.sample(got_rng, bound).value == sample_body(field, want_rng, bound)


def sub_oracle(self, other):
    """`Scalar.__sub__` as it was: its own coercion, then self + (-other)."""
    other = self._coerce(other)
    if other is NotImplemented:
        return NotImplemented
    return self + (-other)


def rsub_oracle(self, other):
    """`Scalar.__rsub__` as it was: its own coercion, then other + (-self)."""
    other = self._coerce(other)
    if other is NotImplemented:
        return NotImplemented
    return other + (-self)


def _differences(pairs):
    """x - y for each pair (x, y): a scalar as (field, value), any other
    result as it is, and an error as its type."""
    out = []
    for x, y in pairs:
        try:
            z = x - y
        except Exception as exc:  # noqa: BLE001  (the error's type is the outcome)
            out.append(type(exc))
        else:
            out.append((z.field, z.value) if isinstance(z, Scalar) else z)
    return out


def test_subtraction_matches_the_bodies_that_coerced_for_themselves():
    """Scalar - and its reflection, which coerce once through __add__,
    against the bodies that coerced for themselves, on every pair from a
    grid of ints, bools, a Fraction, a float, a string, None, a Decimal and
    scalars of Q, F_5 and F_3(t), zero among them, on either side: the
    same result, or the same type of error."""
    from decimal import Decimal
    from unittest import mock

    q, f5, f3t = Field.rationals(), Field.prime(5), Field.function_field(3)
    scalars = [q.zero(), q.one(), q.scalar(Fraction(-7, 4)), f5.zero(), f5.scalar(3),
               f3t.zero(), f3t.one(), f3t.t(), f3t.scalar(2) / (f3t.t() + 1)]
    others = [0, 1, -4, 12, True, False, Fraction(2, 3), 1.5, "x", None, Decimal("2.5")]
    pairs = [pair for x in scalars for y in scalars + others for pair in ((x, y), (y, x))]
    got = _differences(pairs)
    with mock.patch.object(Scalar, "__sub__", sub_oracle), \
            mock.patch.object(Scalar, "__rsub__", rsub_oracle):
        want = _differences(pairs)
    assert got == want
    assert {type(w) for w in want} == {tuple, type}
    assert {w for w in want if isinstance(w, type)} == {TypeError, FieldMismatch, ParseError}
