"""Formal sums, the two chain complexes, and the group ring of units.

Generators of formal sums are either certified non-degenerate vector
sequences or certified skew matrices; both carry a `face(i)` method
dropping the i-th entry (respectively the i-th row and column), and both
inherit their certificates under faces, so the differential

    d [g] = sum_{i=1}^{q} (-1)^{i+1} [g.face(i)]

never re-runs an exponential certification.

The group ring Z[R*] stores finite integer combinations of units; its
augmentation sums the coefficients.  `build_sm` constructs the classical
localization element from m units all of whose nonempty partial sums are
again units.
"""

from __future__ import annotations

from itertools import combinations

from .errors import ShapeMismatch, ZeroUnit
from .fields import Field, sample_until


class FormalSum:
    """A finite formal linear combination of hashable generators.

    Coefficients are ints or field scalars; zero coefficients are never
    stored, so structural equality is equality of formal sums.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # a scalar is falsy exactly when it is zero
        self.terms = {gen: coeff for gen, coeff in (terms or {}).items() if coeff}

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def generator(cls, gen, coeff=1) -> "FormalSum":
        return cls({gen: coeff})

    @classmethod
    def collect(cls, pairs) -> "FormalSum":
        """The sum of coeff [gen] over the (gen, coeff) pairs: like terms
        added in one dict, zero coefficients dropped at the end."""
        return cls(_accumulate({}, pairs))

    def items(self):
        return self.terms.items()

    def generators(self):
        return list(self.terms)

    def coefficient(self, gen):
        return self.terms.get(gen, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(_accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "FormalSum":
        return FormalSum({g: -c for g, c in self.terms.items()})

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def scale(self, c) -> "FormalSum":
        return FormalSum({g: c * coeff for g, coeff in self.terms.items()})

    def map_generators(self, fn) -> "FormalSum":
        return FormalSum.collect((fn(gen), coeff) for gen, coeff in self.terms.items())

    def degree(self) -> int:
        """Common generator length; mixed-degree sums are rejected."""
        sizes = {_generator_length(g) for g in self.terms}
        if len(sizes) > 1:
            raise ShapeMismatch(f"mixed generator lengths {sorted(sizes)}")
        return sizes.pop() if sizes else -1

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "FormalSum(0)"
        body = " + ".join(f"({c})*{g!r}" for g, c in self.terms.items())
        return f"FormalSum({body})"


def _accumulate(out: dict, pairs) -> dict:
    """Add each coeff of the (gen, coeff) pairs into out[gen]; returns out."""
    for gen, coeff in pairs:
        if gen in out:
            out[gen] = out[gen] + coeff
        else:
            out[gen] = coeff
    return out


def _generator_length(gen) -> int:
    if hasattr(gen, "size"):
        return gen.size
    return len(gen)


def boundary(xi: FormalSum) -> FormalSum:
    """Alternating sum of faces, extended linearly."""
    out = {}
    for gen, coeff in xi.items():
        q = _generator_length(gen)
        for i in range(1, q + 1):
            face = gen.face(i)
            c = coeff if i % 2 == 1 else -coeff
            total = out.get(face)
            out[face] = c if total is None else total + c
    return FormalSum(out)


def diff_seq(xi: FormalSum) -> FormalSum:
    """Differential of the complex of non-degenerate sequences."""
    from .unimod import NonDegSeq
    for gen in xi.generators():
        if not isinstance(gen, NonDegSeq):
            raise ShapeMismatch(f"expected sequence generators, got {type(gen).__name__}")
    return boundary(xi)


def diff_skew(xi: FormalSum) -> FormalSum:
    """Differential of the complex of certified skew matrices."""
    from .pfaffian import SkewPlusMatrix
    for gen in xi.generators():
        if not isinstance(gen, SkewPlusMatrix):
            raise ShapeMismatch(f"expected skew generators, got {type(gen).__name__}")
    return boundary(xi)


def formal_sum_to_json(xi: FormalSum) -> list:
    """Serialize as a JSON array of {coefficient, generator} pairs.

    Coefficients render as ints or scalar literals; generators use their
    own JSON forms (vector sequences, or skew matrices with the skew
    flag).  The order is a stable sort on the generator rendering.
    """
    out = []
    for gen, coeff in sorted(xi.items(), key=lambda item: repr(item[0])):
        rendered = coeff if isinstance(coeff, int) else coeff.literal()
        out.append({"coefficient": rendered, "generator": gen.to_json()})
    return out


# ---------------------------------------------------------------------------
# the group ring of units
# ---------------------------------------------------------------------------

class GroupRingElt:
    """A finite integer combination of units of the coefficient field."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        self.field = field
        clean = {}
        for unit, coeff in (terms or {}).items():
            unit = field.scalar(unit)
            if unit.is_zero():
                raise ZeroUnit("group ring keys must be units")
            if coeff != 0:
                clean[unit] = clean.get(unit, 0) + coeff
        self.terms = {u: c for u, c in clean.items() if c != 0}

    @classmethod
    def zero(cls, field: Field) -> "GroupRingElt":
        return cls(field)

    @classmethod
    def one(cls, field: Field) -> "GroupRingElt":
        return cls(field, {field.one(): 1})

    @classmethod
    def bracket(cls, field: Field, a) -> "GroupRingElt":
        """The basis element <a> for a unit a."""
        return cls(field, {field.scalar(a): 1})

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        out = dict(self.terms)
        for u, c in other.terms.items():
            out[u] = out.get(u, 0) + c
        return GroupRingElt(self.field, out)

    def __neg__(self) -> "GroupRingElt":
        return GroupRingElt(self.field, {u: -c for u, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElt(self.field, {u: other * c for u, c in self.terms.items()})
        out = {}
        for u1, c1 in self.terms.items():
            for u2, c2 in other.terms.items():
                u = u1 * u2
                out[u] = out.get(u, 0) + c1 * c2
        return GroupRingElt(self.field, out)

    __rmul__ = __mul__

    def augmentation(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other):
        return (isinstance(other, GroupRingElt) and self.field == other.field
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "GroupRingElt(0)"
        body = " + ".join(f"{c}<{u.literal()}>" for u, c in self.terms.items())
        return f"GroupRingElt({body})"


def partial_sums(units):
    """Every nonempty partial sum a_I of `units`, keyed by the 0-based index
    tuple I (by size, then lexicographically), or None if one is zero."""
    sums = {}
    for size in range(1, len(units) + 1):
        for subset in combinations(range(len(units)), size):
            s = units[subset[-1]]
            if size > 1:
                s = sums[subset[:-1]] + s
            if s.is_zero():
                return None
            sums[subset] = s
    return sums


def build_sm(m: int, field: Field, rng, max_attempts: int = 200):
    """Units a_1..a_m with every nonempty partial sum a_I a unit, and the
    alternating group-ring element they define.

    The element is - sum over nonempty I of (-1)^{|I|} <a_I>; its
    augmentation is exactly 1.  Powers of a fixed base element are tried
    first (distinct-power sums never vanish over Q or F_p(t)); a random
    search through `sample_until` is the fallback, which over a finite
    prime field may exhaust.
    """
    if m < 1:
        raise ShapeMismatch("m must be at least 1")

    def draw(bound):
        units = [field.sample_nonzero(rng, bound) for _ in range(m)]
        return units, partial_sums(units)

    sums = None
    if field.is_infinite:
        base = field.t() if field.kind == "function_field" else field.scalar(2)
        units = [base ** i for i in range(m)]
        sums = partial_sums(units)
    if sums is None:
        units, sums = sample_until(lambda found: found[1] is not None, draw,
                                   max_attempts, "unit family with all partial sums nonzero")
    terms = {}
    for subset, s in sums.items():
        terms[s] = terms.get(s, 0) + (1 if len(subset) % 2 else -1)
    return tuple(units), GroupRingElt(field, terms)
