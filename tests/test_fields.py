import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewplus.errors import DivisionByZero, FieldMismatch, ParseError, SamplerExhausted
from skewplus.fields import PRIME, Field, parse_scalar, sample_until, specialize

FIELDS = [Field.rationals(), Field.prime(5), Field.function_field(2),
          Field.function_field(3)]


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


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Field.rationals().one() + Field.prime(5).one()


def test_sampling_deterministic_and_bounded():
    Q = Field.rationals()
    a = [Q.sample(random.Random(7), 10) for _ in range(20)]
    b = [Q.sample(random.Random(7), 10) for _ in range(20)]
    assert a == b
    for s in a:
        assert abs(s.value.numerator) <= 10 * 10  # reduced from p<=10, q<=10
        assert 1 <= s.value.denominator <= 10
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
    assert parse_scalar("-3/4").value == Fraction(-3, 4)
    assert parse_scalar("7").value == Fraction(7)
    s = parse_scalar("3 mod 5")
    assert s.field == Field.prime(5) and s.value == 3
    s = parse_scalar("(1+1*t)/(1+1*t+1*t^2) over F_2[t]")
    assert s.field == Field.function_field(2)
    t = s.field.t()
    assert s == (1 + t) / (1 + t + t * t)
    for bad in ("not a scalar", 1, None):
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


def test_specialize():
    F2t = Field.function_field(2)
    t = F2t.t()
    F2 = Field.prime(2)
    x = (1 + t) / (1 + t + t * t)
    assert specialize(x, F2.scalar(0)) == F2.one()
    with pytest.raises(DivisionByZero):
        specialize(1 / (t + 1), F2.scalar(1))


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
