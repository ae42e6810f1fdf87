"""Exact arithmetic in the three supported coefficient fields.

The library computes over the rationals, over a prime field F_p, or over
the rational function field F_p(t).  The function field is the stand-in
for an infinite field of positive characteristic: several constructions
need to pick elements avoiding finitely many bad values, which is
impossible over F_p itself for large enough instances.

Every value is canonical, so equality of scalars is plain structural
equality and scalars can be used as dictionary keys: a rational is the int
pair (num, den), gcd-reduced with den > 0; a residue is an int in 0..p-1;
a function-field element is a pair of coefficient tuples, reduced with
monic denominator.  Hashes and comparisons then run on ints and tuples.
Skew matrices and sequences store these values (`Scalar.value`) rather
than scalars, and the ring views below clear rows of them.

Sums and products over Q and F_p(t) follow Henrici's rule (J. ACM 3, 1956,
as in CPython's Fraction), once for both in the ring views below: gcds are
taken of the canonical operands' parts, none of the full products.
Polynomial gcds run Euclid's remainder sequence in place.  Two polynomials
of at least 6 coefficients each multiply by Kronecker substitution (Harvey,
J. Symb. Comp. 44, 2009): each is packed in byte slots into one int, and
one big-int product gives all coefficients.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from array import array
from fractions import Fraction  # only to accept Fraction-like inputs at the edge
from functools import partial

from .errors import DivisionByZero, FieldMismatch, InternalInvariant, ParseError, SamplerExhausted

RATIONALS = "rationals"
PRIME = "prime"
FUNCTION_FIELD = "function_field"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond 64 bits of practical use
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense polynomials over F_p, as tuples of coefficients (low degree first)
# ---------------------------------------------------------------------------

def poly_trim(coeffs, p):
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    return poly_trim([*map(operator.add, a, b), *a[len(b):]], p)


def poly_neg(a, p):
    return tuple((-x) % p for x in a)


def poly_sub(a, b, p):
    return poly_add(a, poly_neg(b, p), p)


# Kronecker products against the schoolbook loop (2 CPUs, Python 3.11, equal
# lengths, p = 3 and 1000003): 0.7x at length 5, 1.1-1.2x at 6, 3x at 12, 4x
# at 20, 13x at 80.  Slots are little-endian, as int.from_bytes reads them.
_KRONECKER_MIN = 6
_SLOTS = tuple((array(c).itemsize, c) for c in "BHIQ") if sys.byteorder == "little" else ()

# Determinants and Pfaffians over F_p[t] lifted to Z (PolynomialRing.lift)
# against the packed row step, by the estimate w * the rows' summed lengths
# (halved for a Pfaffian): lifted / packed time, 2 CPUs, Python 3.11, sizes
# 4-20, p = 2, 3, 7, 1000003, kernel-3field's entries and the sampler's:
#
#     estimate (bits)     det          Pfaffian
#     up to 5,000         0.21-0.62    0.22-0.92
#     5,000-7,000         0.55-0.88    0.64-0.85
#     7,000-14,000        0.96-2.44    0.70-0.90
#     14,000-28,000       1.66-5.63    0.99-2.43
#     above 28,000        2.40-47.9    1.51-16.7
#
# so the lift is taken up to 7,000 bits for a determinant (lifted at 6,768,
# 0.81; packed at 7,380, 1.12) and 14,000 for a Pfaffian (12,376, 0.88;
# 16,430, 1.6).  A Pfaffian's integers are half as long for its estimate.
_LIFT_MAX_BITS = (7000, 14000)


def _slot(bound):
    """(width, code) of the narrowest slot holding every int up to bound,
    or None if none does."""
    for width, code in _SLOTS:
        if bound < 1 << 8 * width:
            return width, code
    return None


def _pack(polys, block, width, code):
    """The polynomials as one int in slots of type code, polys[k] from
    slot k * block on."""
    pad = bytes(block * width)
    return int.from_bytes(b"".join([array(code, a).tobytes() + pad[len(a) * width:]
                                    for a in polys]), "little")


def _slots(n, count, width, code):
    """The first count slots of the int n, as a list of ints."""
    return memoryview(n.to_bytes(count * width, "little")).cast(code).tolist()


def _kronecker(pairs, p):
    """sum a*b over pairs of nonzero polynomials, or None if no slot fits."""
    slot = _slot(sum(min(len(a), len(b)) * max(a) * max(b) for a, b in pairs))
    if slot is None:
        return None
    width, code = slot
    total = sum(int.from_bytes(array(code, a), "little") * int.from_bytes(array(code, b), "little")
                for a, b in pairs)
    return poly_trim(_slots(total, max(len(a) + len(b) for a, b in pairs) - 1, width, code), p)


def _schoolbook(out, a, b):
    """Add the coefficient products of a*b into out, unreduced."""
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, start=i):
                out[k] += x * y
    return out


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    if min(len(a), len(b)) >= _KRONECKER_MIN:
        out = _kronecker(((a, b),), p)
        if out is not None:
            return out
    return poly_trim(_schoolbook([0] * (len(a) + len(b) - 1), a, b), p)


def poly_divmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        coef = r[i + len(b) - 1] % p
        if coef == 0:
            continue
        coef = coef * inv_lead % p
        q[i] = coef
        for j, y in enumerate(b):
            r[i + j] -= coef * y
    return poly_trim(q, p), poly_trim(r, p)


def poly_gcd(a, b, p):
    """The monic gcd, by Euclid's remainder sequence in place on lists."""
    r, s = (list(a), list(b)) if len(a) >= len(b) else (list(b), list(a))
    while len(s) > 1:
        inv, m = pow(s[-1], -1, p), len(s) - 1
        for i in range(len(r) - 1, m - 1, -1):
            c = r[i] * inv % p
            if c:
                for j, y in enumerate(s, i - m):
                    r[j] -= c * y
        r, s = s, list(poly_trim(r[:m], p))
    if s:
        return (1,)
    inv = pow(r[-1], -1, p) if r else 0
    return tuple(x * inv % p for x in r)


def poly_to_str(a):
    """Sparse "c0+c1*t+c3*t^3" rendering; the zero polynomial is "0"."""
    if not a:
        return "0"
    terms = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append(f"{c}*t")
        else:
            terms.append(f"{c}*t^{k}")
    return "+".join(terms)


def _int(digits: str) -> int:
    """int(digits) for outside input, past Python's digit limit a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long") from None


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(t(?:\^(\d+))?)?$")


def poly_from_str(text, p):
    text = text.replace(" ", "")
    if text in ("", "0"):
        return ()
    coeffs = {}
    for term in text.split("+"):
        m = _TERM_RE.match(term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ParseError(f"bad polynomial term {term!r}")
        c = _int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            k = 0
        elif m.group(3) is None:
            k = 1
        else:
            k = _int(m.group(3))
        coeffs[k] = coeffs.get(k, 0) + c
    try:
        out = [0] * (max(coeffs) + 1)
    except (MemoryError, OverflowError):
        raise ParseError(f"polynomial degree {max(coeffs)} is too large") from None
    for k, c in coeffs.items():
        out[k] = c
    return poly_trim(out, p)


# ---------------------------------------------------------------------------
# fields and scalars
# ---------------------------------------------------------------------------

class Field:
    """Descriptor of a coefficient field: Q, F_p, or F_p(t)."""

    __slots__ = ("kind", "p", "_ring", "_hash")

    def __init__(self, kind, p=0):
        if kind not in (RATIONALS, PRIME, FUNCTION_FIELD):
            raise ParseError(f"unknown field kind {kind!r}")
        if kind != RATIONALS and not _is_prime(p):
            raise ParseError(f"{p} is not prime")
        self.kind = kind
        self.p = 0 if kind == RATIONALS else p
        self._ring = self._hash = None

    @classmethod
    def rationals(cls) -> "Field":
        return cls(RATIONALS)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(PRIME, p)

    @classmethod
    def function_field(cls, p: int) -> "Field":
        return cls(FUNCTION_FIELD, p)

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONALS else self.p

    @property
    def is_infinite(self) -> bool:
        return self.kind != PRIME

    def __eq__(self, other):
        return isinstance(other, Field) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        # every hash of a scalar, a vector or a matrix hashes its field
        if self._hash is None:
            self._hash = hash((self.kind, self.p))
        return self._hash

    def __repr__(self):
        if self.kind == RATIONALS:
            return "Field(Q)"
        if self.kind == PRIME:
            return f"Field(F_{self.p})"
        return f"Field(F_{self.p}(t))"

    # -- construction of elements ------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Scalar, or pair: (num, den) ints over Q,
        coefficient tuples over F_p(t).  Over Q, anything else that
        `Fraction` accepts (a Fraction, a decimal string) is converted once
        here, but a float, which is not exact, is refused; every refusal
        raises `ParseError`, and a zero denominator `DivisionByZero`."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"{value!r} is not in {self!r}")
            return value
        if self.kind == RATIONALS:
            if type(value) is int:
                return Scalar(self, (value, 1))
            if type(value) is tuple and len(value) == 2 and all(type(x) is int for x in value):
                return Scalar(self, self.ring().to_value(*value, 1))
            if type(value) is not Fraction:
                if isinstance(value, float):
                    raise ParseError(f"cannot coerce the float {value!r} into {self!r} exactly")
                try:
                    value = Fraction(value)
                except ZeroDivisionError:
                    raise DivisionByZero(f"{value!r} has a zero denominator") from None
                except (TypeError, ValueError, OverflowError):
                    raise ParseError(f"cannot coerce {value!r} into {self!r}") from None
            return Scalar(self, (value.numerator, value.denominator))
        if self.kind == PRIME:
            if not isinstance(value, int):
                raise ParseError(f"cannot coerce {value!r} into {self!r}")
            return Scalar(self, value % self.p)
        if isinstance(value, int):
            num = poly_trim((value,), self.p)
            return Scalar(self, (num, (1,)))
        if isinstance(value, tuple) and len(value) == 2:
            num, den = (poly_trim(x, self.p) for x in value)
            return Scalar(self, self.ring().to_value(num, den, 1))
        raise ParseError(f"cannot coerce {value!r} into {self!r}")

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def t(self) -> "Scalar":
        if self.kind != FUNCTION_FIELD:
            raise ParseError("t only exists in a function field")
        return Scalar(self, ((0, 1), (1,)))

    def fraction(self, num: int, den: int) -> "Scalar":
        if self.kind == FUNCTION_FIELD:
            num, den = poly_trim((num,), self.p), poly_trim((den,), self.p)
        return Scalar(self, self.ring().to_value(num, den, 1))

    # -- sampling ------------------------------------------------------

    def sample(self, rng, size_bound: int) -> "Scalar":
        """Draw from a finite pool growing with size_bound, rng-deterministic."""
        if size_bound < 1:
            raise ParseError("size_bound must be >= 1")
        if self.kind == RATIONALS:
            return Scalar(self, self.ring().to_value(rng.randint(-size_bound, size_bound),
                                                     rng.randint(1, size_bound), 1))
        if self.kind == PRIME:
            return Scalar(self, rng.randrange(self.p))
        deg_bound = min(size_bound, 1 + size_bound // 4)
        num = [rng.randrange(self.p) for _ in range(rng.randint(0, deg_bound) + 1)]
        den = [rng.randrange(self.p) for _ in range(rng.randint(0, deg_bound) + 1)]
        return Scalar(self, self.ring().to_value(poly_trim(num, self.p),
                                                 poly_trim(den, self.p) or (1,), 1))

    def sample_nonzero(self, rng, size_bound: int) -> "Scalar":
        while True:
            s = self.sample(rng, size_bound)
            if not s.is_zero():
                return s

    # -- serialization -------------------------------------------------

    def descriptor(self) -> dict:
        if self.kind == RATIONALS:
            return {"kind": RATIONALS}
        return {"kind": self.kind, "p": self.p}

    @classmethod
    def from_descriptor(cls, d: dict) -> "Field":
        if not isinstance(d, dict):
            raise ParseError(f"a field descriptor is a JSON object, got {d!r}")
        kind = d.get("kind")
        if kind == RATIONALS:
            return cls.rationals()
        if kind in (PRIME, FUNCTION_FIELD):
            p = d.get("p")
            if type(p) is not int:
                raise ParseError(f"field characteristic must be an integer, got {p!r}")
            return cls(kind, p)
        raise ParseError(f"bad field descriptor {d!r}")

    @classmethod
    def from_flag(cls, flag: str) -> "Field":
        """Parse the CLI field flag: "q", "fp:P", or "fpt:P"."""
        if flag == "q":
            return cls.rationals()
        kind, _, p = flag.partition(":")
        kinds = {"fp": PRIME, "fpt": FUNCTION_FIELD}
        if kind in kinds and p.isascii() and p.isdigit():
            return cls(kinds[kind], _int(p))
        raise ParseError(f"bad field flag {flag!r} (expected q, fp:P, or fpt:P)")

    def flag(self) -> str:
        if self.kind == RATIONALS:
            return "q"
        return ("fp:" if self.kind == PRIME else "fpt:") + str(self.p)

    def ring(self):
        """The ring whose fraction field this is, as the elimination
        kernels use it: Z for Q, F_p[t] for F_p(t), F_p itself for F_p."""
        if self._ring is None:
            self._ring = {RATIONALS: IntegerRing, PRIME: ResidueRing,
                          FUNCTION_FIELD: PolynomialRing}[self.kind](self)
        return self._ring


def as_scalars(field: Field, values):
    """`values` as a tuple of scalars of `field`.  Scalars of `field` are
    taken as they are, anything else goes through `field.scalar`, which
    raises FieldMismatch on a scalar of another field."""
    if all(type(x) is Scalar and (x.field is field or x.field == field) for x in values):
        return tuple(values)
    return tuple(map(field.scalar, values))


def as_values(field: Field, values):
    """The canonical values (`Scalar.value`) of `as_scalars(field, values)`."""
    return tuple(x.value for x in as_scalars(field, values))


def sample_until(test, draw, max_attempts, what):
    """The first draw(bound) that passes test.  The pool bound starts at 8
    and doubles after every 16 attempts, so over an infinite field a finite
    union of proper subvarieties is eventually avoided; after max_attempts
    draws the search raises SamplerExhausted naming `what`."""
    bound = 8
    attempts = 0
    while attempts < max_attempts:
        for _ in range(16):
            if attempts >= max_attempts:
                break
            attempts += 1
            candidate = draw(bound)
            if test(candidate):
                return candidate
        bound *= 2
    raise SamplerExhausted(f"no {what} found in {max_attempts} attempts "
                           "(pool too small, or the field is too small)")


class Scalar:
    """An element of Q, F_p, or F_p(t), always in canonical form: `value`
    is a reduced (num, den) int pair with den > 0 over Q, an int in 0..p-1
    over F_p, and a pair of coefficient tuples with monic denominator over
    F_p(t).  Arithmetic is the value arithmetic of `field.ring()`.

    Arithmetic accepts plain ints on either side, so formulas read
    naturally: 1 / (b * e**2), a - b + c, and so on.
    """

    __slots__ = ("field", "value", "_hash")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value
        self._hash = None

    # -- helpers -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.field.ring().value_is_zero(self.value)

    def __bool__(self):
        return not self.is_zero()

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.ring().value_add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field.ring().value_neg(self.value))

    # coercion happens once, in __add__
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.ring().value_mul(self.value, other.value))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return Scalar(self.field, self.field.ring().value_inv(self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison and hashing ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            try:
                other = self.field.scalar(other)
            except (ParseError, FieldMismatch):
                return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.value))
        return self._hash

    # -- rendering -----------------------------------------------------

    def literal(self) -> str:
        """Canonical literal, the syntax used by all file formats."""
        k = self.field.kind
        if k == RATIONALS:
            num, den = self.value
            return str(num) if den == 1 else f"{num}/{den}"
        if k == PRIME:
            return f"{self.value} mod {self.field.p}"
        num, den = self.value
        return f"({poly_to_str(num)})/({poly_to_str(den)}) over F_{self.field.p}[t]"

    def __str__(self):
        return self.literal()

    def __repr__(self):
        return f"Scalar({self.literal()})"


# ---------------------------------------------------------------------------
# ring views for fraction-free elimination
# ---------------------------------------------------------------------------
#
# A kernel clears the denominators of its entries with one common L (or
# one per row, vector or column), so it works on L*x in a ring R whose
# fraction field is the field; `clear` reads rows of canonical values
# (`Scalar.value`), as containers store them.  The kernel computes with
# add, sub, mul, neg, dot and the Bareiss row step only, and turns each
# result num back into the canonical value (`to_value`) or scalar
# (`to_scalar`) num / L^e once, at the end.  In every R the zero element
# is the only falsy one, and `equal` tests two elements for equality (over
# F_p, add, sub and mul leave their results unreduced).  The value
# operations `value_add`, `value_mul`, `value_neg`, `value_inv` and
# `value_is_zero`, which `Scalar` wraps, take and return canonical values;
# IntegerRing writes them once for Q and F_p(t), ResidueRing mod p.
#
# The row step is the one division a fraction-free elimination makes.
# `ring.row_step(prev)` is called once per pivot step, with prev the
# previous pivot; the function it returns is called once per row as
# step(row, cols, terms) and sets, for every j in cols,
#
#     row[j] = (sum of c * x[j] over the pairs (c, x) in terms) / prev,
#
# an exact division in R that is checked: a remainder raises
# InternalInvariant.  `row` may itself be one of the x: every x[j] is read
# before row[j] is written.
#
# A determinant or a Pfaffian decides no pivot in R: only its last pivot
# is read.  So `ring.lift(rows)` may move its kernel to another ring; it
# returns the kernel ring, the rows in it, and the map reading the result
# back into R.  Over Z and F_p that is R itself.  Over F_p[t] it is Z
# (Kronecker substitution): each entry, with coefficients in [0, p), is
# evaluated at t = 2^w, the integer kernel runs on those ints, and its
# result is read back as signed base-2^w digits mod p.  Evaluation and
# reduction mod p are ring maps and integer Bareiss is exact, so the result
# is exact whatever pivots Z picks, every division still a checked divmod.
# The read is exact because w is wide enough: Hadamard's bound at |t| = 1
# on the entries' coefficient 1-norms, B^2 = prod_i max(1, sum_j
# |a_ij|_1^2), bounds every coefficient of the determinant over Z[t], and
# sqrt(B) every coefficient of the Pfaffian (Pf^2 = det); w is the least
# width with 2^(w-1) above that bound (von zur Gathen & Gerhard, Modern
# Computer Algebra, 8.4 and 16.6).  The lift loses to the packed F_p[t]
# row step on long results, so it is taken only where w times the summed
# row lengths, about the bit size of the lifted result, is at most
# _LIFT_MAX_BITS.  Every elimination that decides pivots in R (rank, solve,
# inverse, nullspace, `_pf_lead`, `ring_rank`) runs the packed step.

def _identity(x):
    return x


class IntegerRing:
    """Z, for Q.  The value operations take and return canonical values,
    coprime pairs (num, den) with den unit-normal, and use only gcd, the
    exact quotient quo, add, mul, neg and unit_normal: PolynomialRing
    inherits them."""

    zero, one = 0, 1
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg
    gcd, quo = math.gcd, operator.floordiv
    equal = staticmethod(operator.eq)

    @staticmethod
    def dot(x, y):
        """sum_k x[k] y[k]."""
        return sum(map(operator.mul, x, y))

    def __init__(self, field: Field):
        self.field = field

    def clear(self, rows):
        """(L, the rows times L as lists of ring elements), for rows of
        canonical values (`Scalar.value`) of the field."""
        scale = math.lcm(*[den for row in rows for _, den in row])
        if scale == 1:
            return 1, [[num for num, _ in row] for row in rows]
        return scale, [[num * (scale // den) for num, den in row] for row in rows]

    @staticmethod
    def row_step(prev):
        """The Bareiss row step dividing by prev, entry by entry, with one
        loop per number of terms: a zero third term made the 40x40 F_p
        det about a third slower."""
        def step(row, cols, terms):
            if len(terms) == 2:
                (a, x), (b, y) = terms
                for j in cols:
                    num = a * x[j] + b * y[j]
                    quo, rem = divmod(num, prev)
                    if rem:
                        raise InternalInvariant(f"{prev} does not divide {num}")
                    row[j] = quo
            else:
                (a, x), (b, y), (c, z) = terms
                for j in cols:
                    num = a * x[j] + b * y[j] + c * z[j]
                    quo, rem = divmod(num, prev)
                    if rem:
                        raise InternalInvariant(f"{prev} does not divide {num}")
                    row[j] = quo
        return step

    def lift(self, rows, skew=False):
        """(kernel ring, kernel rows, read) for a determinant or Pfaffian
        kernel on the rows: this ring, the rows as they are, and read the
        identity (`PolynomialRing.lift` may move them to Z)."""
        return self, rows, _identity

    def to_value(self, num, scale, e: int):
        """num / scale^e as a canonical value, or DivisionByZero."""
        den = scale ** e
        if not den:
            raise DivisionByZero("zero denominator")
        g = math.gcd(num, den)
        return self.unit_normal(num // g, den // g)

    def to_scalar(self, num, scale, e: int) -> Scalar:
        """num / scale^e as a canonical scalar."""
        return Scalar(self.field, self.to_value(num, scale, e))

    @staticmethod
    def unit_normal(num, den):
        """(num, den) divided by the unit that makes den normal: den > 0."""
        return (num, den) if den > 0 else (-num, -den)

    def value_add(self, x, y):
        """x + y: with g = gcd(d1, d2), s = d1/g, u = d2/g and
        t = n1 u + n2 s, only g2 = gcd(t, g) cancels from t / (g s u), so
        the sum is (t/g2, s (d2/g2)); for g = 1 it is the plain cross sum."""
        (n1, d1), (n2, d2) = x, y
        add, mul, quo, one = self.add, self.mul, self.quo, self.one
        g = d1 if d1 == d2 else self.gcd(d1, d2)
        if g == one:
            return add(mul(n1, d2), mul(n2, d1)), mul(d1, d2)
        s = quo(d1, g)
        t = add(mul(n1, quo(d2, g)), mul(n2, s))
        g2 = self.gcd(t, g)
        if g2 != one:
            t, d2 = quo(t, g2), quo(d2, g2)
        return t, mul(s, d2)

    def value_mul(self, x, y):
        """x y: with g1 = gcd(n1, d2) and g2 = gcd(n2, d1), the product
        ((n1/g1)(n2/g2), (d1/g2)(d2/g1)) is already canonical."""
        (n1, d1), (n2, d2) = x, y
        gcd, quo, one = self.gcd, self.quo, self.one
        g1, g2 = gcd(n1, d2), gcd(n2, d1)
        if g1 != one:
            n1, d2 = quo(n1, g1), quo(d2, g1)
        if g2 != one:
            n2, d1 = quo(n2, g2), quo(d1, g2)
        return self.mul(n1, n2), self.mul(d1, d2)

    def value_neg(self, x):
        return self.neg(x[0]), x[1]

    def value_inv(self, x):
        """1 / x for nonzero x: coprime parts swapped, then unit-normalised."""
        return self.unit_normal(x[1], x[0])

    @staticmethod
    def value_is_zero(x):
        return not x[0]


class ResidueRing(IntegerRing):
    """F_p itself, with the integer operations on plain ints.  Clearing
    scales by 1.  The row step, dot, to_scalar and value operations reduce
    mod p (`value_neg` does, `neg` does not), and the row step reduces every
    entry it updates, so the entries a kernel keeps stay in (-p, p), where a
    falsy int is exactly a zero residue.  In a field a division by nonzero
    prev leaves no remainder: the row step folds 1/prev into the
    coefficients once per row; prev = 0 raises."""

    def dot(self, x, y):
        return sum(map(operator.mul, x, y)) % self.field.p

    def equal(self, x, y):
        """Whether x and y are the same residue: add, sub and mul do not
        reduce."""
        return (x - y) % self.field.p == 0

    def clear(self, rows):
        return 1, [list(row) for row in rows]

    def row_step(self, prev):
        p = self.field.p
        inv = pow(prev, -1, p)

        def step(row, cols, terms):
            if len(terms) == 2:
                (a, x), (b, y) = terms
                a, b = a * inv % p, b * inv % p
                for j in cols:
                    row[j] = (a * x[j] + b * y[j]) % p
            else:
                (a, x), (b, y), (c, z) = terms
                a, b, c = a * inv % p, b * inv % p, c * inv % p
                for j in cols:
                    row[j] = (a * x[j] + b * y[j] + c * z[j]) % p
        return step

    def to_value(self, num, scale, e: int):
        p = self.field.p
        if scale != 1:
            if not scale % p:
                raise DivisionByZero("zero denominator")
            num *= pow(scale, -e, p)
        return num % p

    def value_add(self, x, y):
        return (x + y) % self.field.p

    def value_mul(self, x, y):
        return x * y % self.field.p

    def value_neg(self, x):
        return -x % self.field.p

    def value_inv(self, x):
        return pow(x, -1, self.field.p)

    value_is_zero = staticmethod(operator.not_)


def _series_inverse(f, n, p, g=()):
    """[g_0, ..., g_{n-1}] with f g = 1 mod t^n, for f[0] != 0, by Newton
    iteration g <- g + g (1 - f g), which doubles the precision of g; it
    starts from the inverse g to a lower precision, if one is given."""
    g = list(g) or [pow(f[0], -1, p)]
    while len(g) < n:
        k = len(g)
        k2 = min(2 * k, n)
        # f g = 1 + t^k h mod t^k2, and g (1 - f g) = -t^k g h
        h = poly_mul(f[:k2], g, p)[k:k2]
        gh = poly_mul(g[:k2 - k], h, p)[:k2 - k]
        g += [-x % p for x in gh] + [0] * (k2 - k - len(gh))
    return g


def _packed_quotients(nums, prev, inverse, width, code, p):
    """The quotients nums[k] / prev, as coefficient lists, from their top
    coefficients only: with m = deg prev, rev(num / prev) is rev(num[m:])
    times 1 / rev(prev) mod t^(len(num) - m), for every num in one
    product.  No remainder is checked; a num shorter than prev (not 0)
    gives garbage."""
    m = len(prev) - 1
    block = 2 * len(inverse) - 1
    slots = _slots(_pack([num[:m - 1:-1] if m else num[::-1] for num in nums], block, width, code)
                   * int.from_bytes(array(code, inverse), "little"),
                   len(nums) * block, width, code)
    quos = []
    for s, num in zip(range(0, len(slots), block), nums):
        quos.append([x % p for x in reversed(slots[s:s + len(num) - m])] if num else [])
    return quos


class PolynomialRing(IntegerRing):
    """F_p[t], for F_p(t), with IntegerRing's value operations; elements
    are trimmed coefficient tuples.  Long products and dot products go by
    Kronecker substitution, _KRONECKER_MIN = 6 coefficients in each factor.

    The row step packs a whole row by two-level Kronecker substitution:
    coefficient slots, the widths _kronecker uses, inside one block per
    entry.  One big-int product per term gives every numerator of the row,
    one product with the power-series inverse of rev(prev) (by Newton
    iteration, once per pivot step) every quotient, and one product of the
    quotients with prev, compared slot by slot with the numerators, checks
    every division (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 8-9).  When no slot is wide enough (p near 2^32 or above), it
    works entry by entry.  Determinants and Pfaffians up to a measured
    size run over Z instead (`lift`, and the ring comment above)."""

    zero, one = (), (1,)

    def __init__(self, field: Field):
        super().__init__(field)
        p = field.p
        self.add = partial(poly_add, p=p)
        self.sub = partial(poly_sub, p=p)
        self.mul = partial(poly_mul, p=p)
        self.neg = partial(poly_neg, p=p)
        self.gcd = partial(poly_gcd, p=p)
        self._integers = IntegerRing(field)

    def quo(self, x, d):
        """x / d, raising InternalInvariant if d does not divide x."""
        quo, rem = poly_divmod(x, d, self.field.p)
        if rem:
            raise InternalInvariant(f"{poly_to_str(d)} does not divide {poly_to_str(x)} "
                                    f"over F_{self.field.p}")
        return quo

    def dot(self, x, y):
        """sum_k x[k] y[k], reduced mod p once: by Kronecker substitution
        when every nonzero pair has both factors at least _KRONECKER_MIN
        long, else the coefficient products summed as plain ints."""
        pairs = [(a, b) for a, b in zip(x, y) if a and b]
        if not pairs:
            return ()
        if min(min(len(a), len(b)) for a, b in pairs) >= _KRONECKER_MIN:
            out = _kronecker(pairs, self.field.p)
            if out is not None:
                return out
        out = [0] * (max(len(a) + len(b) for a, b in pairs) - 1)
        for a, b in pairs:
            _schoolbook(out, a, b)
        return poly_trim(out, self.field.p)

    def clear(self, rows):
        p = self.field.p
        dens = {den for row in rows for _, den in row}
        scale = (1,)
        for den in dens:
            scale = poly_mul(scale, self.quo(den, poly_gcd(scale, den, p)), p)
        cofactor = {den: self.quo(scale, den) for den in dens}
        return scale, [[poly_mul(num, cofactor[den], p) for num, den in row]
                       for row in rows]

    def row_step(self, prev):
        p = self.field.p
        sq = (p - 1) ** 2
        m = len(prev) - 1
        rev = prev[::-1]
        inverse = []  # 1 / rev(prev) mod t^len(inverse), grown as rows need

        def step(row, cols, terms):
            terms = [(c, [x[j] for j in cols]) for c, x in terms if c]
            longest = [max(map(len, xs), default=0) for _, xs in terms]
            block = max([len(c) + n - 1 for (c, _), n in zip(terms, longest) if n], default=0)
            if not block:
                for j in cols:
                    row[j] = ()
                return
            slot = _slot(max(sum(min(len(c), n) for (c, _), n in zip(terms, longest)), block) * sq)
            if slot is None:
                for k, j in enumerate(cols):
                    row[j] = self.quo(self.dot([c for c, _ in terms],
                                               [xs[k] for _, xs in terms]), prev)
                return
            width, code = slot
            slots = [x % p for x in _slots(
                sum(int.from_bytes(array(code, c), "little") * _pack(xs, block, width, code)
                    for c, xs in terms), len(cols) * block, width, code)]
            nums = []
            for s in range(0, len(slots), block):
                num = slots[s:s + block]
                while num and not num[-1]:
                    num.pop()
                nums.append(num)
            longest = max(map(len, nums))
            if prev != (1,) and longest:
                if any(0 < len(num) <= m for num in nums):
                    raise InternalInvariant(f"{poly_to_str(prev)} does not divide a "
                                            "nonzero numerator of lower degree")
                if len(inverse) < longest - m:
                    inverse[:] = _series_inverse(rev, longest - m, p, inverse)
                quos = _packed_quotients(nums, prev, inverse[:longest - m], width, code, p)
                slots = _slots(_pack(quos, longest, width, code)
                               * int.from_bytes(array(code, prev), "little"),
                               len(cols) * longest, width, code)
                for s, num in zip(range(0, len(slots), longest), nums):
                    if [x % p for x in slots[s:s + len(num)]] != num:
                        raise InternalInvariant(
                            f"{poly_to_str(prev)} does not divide {poly_to_str(num)} over F_{p}")
                nums = quos
            for j, num in zip(cols, nums):
                row[j] = tuple(num)
        return step

    def lift(self, rows, skew=False):
        """`IntegerRing.lift` over F_p[t]: Z, the entries evaluated at
        t = 2^w, and read taking the signed base-2^w digits mod p, when w
        times the rows' summed lengths (halved for a Pfaffian, whose
        degree is half the determinant's) is at most _LIFT_MAX_BITS[skew];
        else this ring.  `rows` are a matrix's rows, or with skew the
        strict upper rows of a skew matrix, and read is exact on its
        determinant, or with skew its Pfaffian, and on no other value."""
        p = self.field.p
        # per row of the matrix: the squared 1-norms of the coefficients
        # summed, and the longest entry
        if skew:
            sums, lens = [0] * (len(rows) + 1), [0] * (len(rows) + 1)
            for i, row in enumerate(rows):
                for j, x in enumerate(row, i + 1):
                    s, n = sum(x) ** 2, len(x)
                    sums[i] += s
                    sums[j] += s
                    lens[i], lens[j] = max(lens[i], n), max(lens[j], n)
            root, length = 4, sum(lens) // 2
        else:
            sums = [sum(sum(x) ** 2 for x in row) for row in rows]
            root, length = 2, sum(max(map(len, row), default=0) for row in rows)
        # bound = B^2 for Hadamard's bound B on the determinant's
        # coefficients, and the Pfaffian's are at most sqrt(B) (Pf^2 = det):
        # w is the least with 2^(w-1) > bound^(1/root)
        bound = math.prod(max(1, s) for s in sums)
        w = 1 - (-bound.bit_length() // root)
        if w * length > _LIFT_MAX_BITS[skew]:
            return self, rows, _identity
        lifted = []
        for row in rows:
            out = []
            for x in row:
                v = 0
                for c in reversed(x):
                    v = v << w | c
                out.append(v)
            lifted.append(out)
        mask, half = (1 << w) - 1, 1 << (w - 1)

        def read(n):
            # n has at most bit_length // w + 2 digits in [-2^(w-1), 2^(w-1)):
            # a top digit c != 0 leaves |n| > 2^(w deg) / 3
            digits = []
            for _ in range(n.bit_length() // w + 2):
                d = n & mask
                if d >= half:
                    d -= 1 << w
                digits.append(d)
                n = (n - d) >> w
            if n:
                raise InternalInvariant(f"the lifted result has too many base-2^{w} digits")
            return poly_trim(digits, p)
        return self._integers, lifted, read

    def to_value(self, num, scale, e: int):
        """num / scale^e as a canonical value.  A factor num shares with
        scale^e is a factor of scale, so the gcds are taken against scale
        itself: at most e of them, each cancelling one copy of scale."""
        if not scale:
            raise DivisionByZero("zero denominator")
        if not num:
            return (), (1,)
        p = self.field.p
        den = (1,)
        for i in range(e):
            g = poly_gcd(num, scale, p)
            if g == (1,):
                for _ in range(e - i):
                    den = poly_mul(den, scale, p)
                break
            num = poly_divmod(num, g, p)[0]
            den = poly_mul(den, poly_divmod(scale, g, p)[0], p)
        return self.unit_normal(num, den)

    def unit_normal(self, num, den):
        """(num, den) divided by the unit that makes den monic."""
        if den[-1] == 1:
            return num, den
        p = self.field.p
        inv = pow(den[-1], -1, p)
        return tuple(x * inv % p for x in num), tuple(x * inv % p for x in den)


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_PRIME_RE = re.compile(r"^(-?\d+)\s*mod\s*(\d+)$")
_FPT_RE = re.compile(r"^\(([^()]*)\)(?:/\(([^()]*)\))?\s*over\s*F_(\d+)\[t\]$")


def parse_scalar(text: str, field: Field | None = None) -> Scalar:
    """Parse a scalar literal, optionally checking it lands in `field`.

    Syntax: rationals "p/q" or "n"; prime-field "k mod p"; function-field
    "(num)/(den) over F_p[t]" with polynomials like "c0+c1*t+c3*t^3".
    """
    if not isinstance(text, str):
        raise ParseError(f"a scalar literal is a string, got {text!r}")
    text = text.strip()
    m = _FPT_RE.match(text)
    if m:
        p = _int(m.group(3))
        f = Field.function_field(p)
        num = poly_from_str(m.group(1), p)
        den = poly_from_str(m.group(2), p) if m.group(2) is not None else (1,)
        s = Scalar(f, f.ring().to_value(num, den, 1))
    else:
        m = _PRIME_RE.match(text)
        if m:
            f = Field.prime(_int(m.group(2)))
            s = f.scalar(_int(m.group(1)))
        else:
            m = _RATIONAL_RE.match(text)
            if not m:
                raise ParseError(f"bad scalar literal {text!r}")
            num = _int(m.group(1))
            den = _int(m.group(2)) if m.group(2) else 1
            # integer literals are allowed in any field
            s = (field or Field.rationals()).fraction(num, den)
    if field is not None and s.field != field:
        raise FieldMismatch(f"literal {text!r} is not in {field!r}")
    return s

