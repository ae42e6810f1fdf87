"""The gamma differential, its independent oracle, and bracket calculus.

For a certified skew matrix A of size 2n+2, the gamma map sends [A] to

    sum over triples i<j<k of
        (-1)^{i+j+k} Pf(A) / (Pf(A^ij) Pf(A^ik) Pf(A^jk)) * [A with i,j,k removed]

where A^uv drops rows and columns u and v.  All denominators are nonzero
by the certificate.  The output is a formal sum with field coefficients
over certified generators of size 2n-1.

`gamma_oracle_c` recomputes a single coefficient by an entirely different
route, at every size 2n+2 >= 4.  Working at the canonical triple
(2n, 2n+1, 2n+2), it builds three length-(2n+1) sequences in R^{2n} that
share the unit determinant triangular section of the common (2n-1)-corner,
each realizing one face Gram matrix, its last two vectors solved by the
sections' triangular substitution; the change-of-basis maps between them
fix a hyperplane pointwise and are therefore elementary matrices
e_{2n-1,2n}(c), c read in closed form, and the alternating sum of the c
values is the coefficient.
Agreement with the Pfaffian ratio is mathematically forced, not built
in: the oracle never evaluates the ratio.  Non-canonical triples
are reduced to the canonical one by one relabeling, the composite of
adjacent swaps, under which both the oracle value and the ratio are
invariant.  The face vectors are solved once per column of the triple,
in the ring, by the sections' substitution.

The bracket calculus provides the compact generators of size-3 sums:
square brackets [a b; c] are plain generators, braces x{a b; c} rescale
the inverted generator, and the built-in six-by-six families with their
published 20-row coefficient tables give exact test vectors for the map.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .chains import FormalSum, partial_sums
from .errors import (
    BadIndices,
    BadRange,
    DegenerateBrace,
    InternalInvariant,
    NotSkewPlus,
    SamplerExhausted,
    ZeroUnit,
)
from .fields import Field, Scalar, sample_until
from .matrices import PermutationMap
from .pfaffian import SkewMatrix, SkewPlusMatrix, _as_certified, pf_eliminate
from .sections import _solve_pairings, section_v_det1
from .symplectic import gram, pairing


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

def pfaffian_ratio(a, triple) -> Scalar:
    """Pf(A) / (Pf(A^ij) Pf(A^ik) Pf(A^jk)), without the sign, read from
    the certificate's table."""
    a = _as_certified(a)
    i, j, k = triple
    if not 1 <= i < j < k <= a.size:
        raise BadIndices(f"triple {triple} is not increasing inside 1..{a.size}")
    return a.pf_without() / (a.pf_without(i, j) * a.pf_without(i, k) * a.pf_without(j, k))


def gamma_terms(a, n: int):
    """All (triple, signed coefficient, generator) terms of gamma."""
    a = _as_certified(a)
    if n < 1 or a.size != 2 * n + 2:
        raise BadRange(f"size {a.size} does not match 2n+2 for n={n}")
    out = []
    for i, j, k in combinations(range(1, a.size + 1), 3):
        coeff = pfaffian_ratio(a, (i, j, k))
        if (i + j + k) % 2 == 1:
            coeff = -coeff
        out.append(((i, j, k), coeff, a.remove_indices([i, j, k])))
    return out


def gamma_map(a, n: int) -> FormalSum:
    """The differential on one generator, like terms collected."""
    out = FormalSum.zero()
    for _, coeff, gen in gamma_terms(a, n):
        out = out + FormalSum.generator(gen, coeff)
    return out


def check_certificate(target: FormalSum, certificate, n: int) -> bool:
    """Whether target equals the integer combination of gamma images
    described by the certificate, as exact formal sums."""
    total = FormalSum.zero()
    for coeff, a in certificate:
        total = total + gamma_map(a, n).scale(coeff)
    return total == target


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def reduce_to_canonical(a: SkewPlusMatrix, triple):
    """Relabel the matrix so that the triple becomes (2n, 2n+1, 2n+2) and
    the other indices keep their order: one permutation, the composite of
    the adjacent swaps that push k, then j, then i to the end.  Returns
    the transformed matrix."""
    q = a.size
    i, j, k = triple
    if not 1 <= i < j < k <= q:
        raise BadIndices(f"triple {triple} is not increasing inside 1..{q}")
    rest = [x for x in range(1, q + 1) if x not in (i, j, k)]
    return a.permuted(PermutationMap(rest + [i, j, k]))


def gamma_oracle_c(a, triple, betas=None) -> Scalar:
    """One gamma coefficient of a certified matrix of even size
    2n+2 >= 4, recomputed group-theoretically at the canonical triple
    (2n, 2n+1, 2n+2); odd sizes and sizes below 4 raise `BadRange`.

    `betas` optionally fixes the three free parameters of the sequence
    constructions; the returned value is provably independent of them,
    which the tests exercise by rerunning with random choices.
    """
    a = _as_certified(a)
    q = a.size
    if q < 4 or q % 2:
        raise BadRange(f"the oracle needs even size >= 4, got {q}")
    a = reduce_to_canonical(a, triple)
    field = a.field
    idx = (q - 2, q - 1, q)
    betas = [field.zero()] * 3 if betas is None else [field.scalar(b) for b in betas]
    betas = dict(zip(idx, betas))

    pf = {}
    for u, v in combinations(idx, 2):
        pf[u, v] = pf[v, u] = pf_eliminate(a.remove_indices([u, v]))

    # shared corner: det-1 triangular section of the (2n-1)-block, in R^{2n}
    tri = section_v_det1(a.remove_indices(idx)).vectors
    # Pf of the leading (2n-2)-block, the Gram matrix of the first 2n-2
    # corner vectors, is their diagonal's product, 1 / last_pivot by det = 1
    last_pivot = tri[-1][q - 4]

    # for each r, the two remaining vectors of the sequence with Gram equal
    # to the r-th face of a are (x, d, z): (x, 0, z) has the pairings
    # a_{1..2n-1,col} against the corner, z is Pf(a without the other two)
    built = {col: _solve_pairings(tri, [a.entry(i, col) for i in range(1, q - 2)], field)
             for col in idx}
    if any(built[col][-1] != pf[tuple(set(idx) - {col})] for col in idx):
        raise InternalInvariant("last coordinate does not match its Pfaffian")
    u_vecs = {}
    for r in idx:
        s, t = (col for col in idx if col != r)
        z_s, z_t = built[s][-1], built[t][-1]
        d_t = betas[r]
        # slot 2n-1 of both is 0, so this pairs the x parts alone
        d_s = (a.entry(s, t) - pairing(built[s], built[t]) + z_s * d_t) / z_t
        u_vecs[r] = {col: built[col][:-2] + (d, built[col][-1])
                     for col, d in ((s, d_s), (t, d_t))}
        # the assembled sequence must realize the face Gram matrix exactly
        if gram([*tri, u_vecs[r][s], u_vecs[r][t]], field) != a.remove_indices([r]).inner:
            raise InternalInvariant("sequence Gram does not match the face")
        # determinant identity tying the free parameters to Pfaffians,
        # Pf(a without 2n-1, r) = Pf(leading) (d_s Pf^{rs} - d_t Pf^{rt}),
        # checked multiplied by last_pivot
        lhs = pf_eliminate(a.remove_indices([q - 3, r])) * last_pivot
        if lhs != d_s * pf[r, s] - d_t * pf[r, t]:
            raise InternalInvariant("determinant identity fails")

    def c_of(r, s):
        """The c with basis-change map e_{2n-1,2n}(c) between the r and s
        sequences restricted away from positions r and s.  The corner
        spans e_1..e_{2n-1}, so the map fixes it and sends y = u_s[t] to
        x = u_r[t]; both are built[t] outside slot 2n-1, so the map is
        e_{2n-1,2n}(c) with c = (x_{2n-1} - y_{2n-1}) / y_{2n}."""
        t = (set(idx) - {r, s}).pop()
        x, y = u_vecs[r][t], u_vecs[s][t]
        return (x[-2] - y[-2]) / y[-1]

    i, j, k = idx
    return c_of(i, k) + c_of(k, j) + c_of(j, i)


# ---------------------------------------------------------------------------
# bracket calculus for size-3 generators
# ---------------------------------------------------------------------------

def skew3(field: Field, a, b, c) -> SkewPlusMatrix:
    """The certified 3x3 generator with upper entries (a, b, c)."""
    m = SkewMatrix.from_upper(field, 3, [field.scalar(a), field.scalar(b),
                                         field.scalar(c)])
    for x in (m.entry(1, 2), m.entry(1, 3), m.entry(2, 3)):
        if x.is_zero():
            raise NotSkewPlus("size-3 generators need all entries nonzero")
    return SkewPlusMatrix(m, _trusted=True)


@dataclass(frozen=True)
class Bracket3:
    """A compact expression denoting a scalar multiple of a 3x3 generator.

    kind "square":  [a b; c], coefficient 1
    kind "brace":   x {a b; c} = x / (1/a - 1/b + 1/c)^2 * [1/a 1/b; 1/c]
    kind "brace1":  x {a} = x {a a; a} = a^2 x [1/a]
    kind "unit":    [a] = [a a; a]
    """

    kind: str
    entries: tuple
    coefficient: object = 1


def square_bracket(a, b, c) -> Bracket3:
    return Bracket3("square", (a, b, c))


def unit_bracket(a) -> Bracket3:
    return Bracket3("unit", (a,))


def brace(x, a, b, c) -> Bracket3:
    return Bracket3("brace", (a, b, c), x)


def brace1(x, a) -> Bracket3:
    return Bracket3("brace1", (a,), x)


def bracket_to_skew3(b: Bracket3, field: Field):
    """Normalize a bracket expression to (coefficient, generator)."""
    ent = [field.scalar(e) for e in b.entries]
    if any(e.is_zero() for e in ent):
        raise ZeroUnit("bracket entries must be units")
    if b.kind == "square":
        return field.one(), skew3(field, *ent)
    if b.kind == "unit":
        return field.one(), skew3(field, ent[0], ent[0], ent[0])
    x = field.scalar(b.coefficient)
    if b.kind == "brace1":
        a = ent[0]
        return a * a * x, skew3(field, a.inv(), a.inv(), a.inv())
    if b.kind == "brace":
        a, bb, c = ent
        norm = a.inv() - bb.inv() + c.inv()
        if norm.is_zero():
            raise DegenerateBrace("1/a - 1/b + 1/c vanishes")
        return x / (norm * norm), skew3(field, a.inv(), bb.inv(), c.inv())
    raise BadIndices(f"unknown bracket kind {b.kind!r}")


def brackets_to_sum(brackets, field: Field) -> FormalSum:
    out = FormalSum.zero()
    for b in brackets:
        coeff, gen = bracket_to_skew3(b, field)
        out = out + FormalSum.generator(gen, coeff)
    return out


# ---------------------------------------------------------------------------
# unit searches
# ---------------------------------------------------------------------------

def _require_infinite(field: Field):
    if not field.is_infinite:
        raise SamplerExhausted(
            "this search needs an infinite field; F_p is excluded")


def find_inverse_triple(field: Field, rng, max_attempts: int = 256):
    """Units u1, u2, u3 with u1+u2+u3 = 0 and 1/u1 + 1/u2 + 1/u3 != 0."""
    _require_infinite(field)

    def draw(bound):
        u1 = field.sample_nonzero(rng, bound)
        u2 = field.sample_nonzero(rng, bound)
        return u1, u2, -(u1 + u2)

    def good(triple):
        u1, u2, u3 = triple
        return not u3.is_zero() and not (u1.inv() + u2.inv() + u3.inv()).is_zero()

    return sample_until(good, draw, max_attempts, "inverse triple")


def find_w_units(b, variant: str, field: Field, rng, max_attempts: int = 256):
    """Units u1, u2, u3 with all seven partial sums nonzero and the
    alternating sum w of their reciprocals (variant "linear") or squared
    reciprocals (variant "square") nonzero.

    The companion alternating sum of squared partial sums is the zero
    polynomial and is asserted at the found witness; for the linear
    variant the surjectivity identity involving b is also asserted at a
    random point: the alternating sum of (c^2/b^3 + 1/c) over scaled
    partial sums c = t a_I collapses to w/t.
    """
    if variant not in ("linear", "square"):
        raise BadIndices(f"variant must be linear or square, not {variant!r}")
    _require_infinite(field)
    b = field.scalar(b)
    if b.is_zero():
        raise ZeroUnit("b must be a unit")

    def draw(bound):
        u1 = field.sample_nonzero(rng, bound)
        u2 = field.sample_nonzero(rng, bound)
        u3 = field.sample_nonzero(rng, bound)
        sums = partial_sums((u1, u2, u3))
        if sums is None:
            return None
        w = field.zero()
        s_companion = field.zero()
        for subset, val in sums.items():
            sq = val * val
            rec = val.inv() if variant == "linear" else sq.inv()
            if len(subset) % 2 == 0:
                rec, sq = -rec, -sq
            w, s_companion = w + rec, s_companion + sq
        if not s_companion.is_zero():
            raise InternalInvariant("alternating sum of squares is not zero")
        if w.is_zero():
            return None
        if variant == "linear":
            t = field.sample_nonzero(rng, bound)
            total = field.zero()
            for subset, val in sums.items():
                c = t * val
                term = c * c / (b ** 3) + c.inv()
                total = total + term if len(subset) % 2 else total - term
            if total != w / t:
                raise InternalInvariant("surjectivity identity fails")
        return u1, u2, u3, w

    return sample_until(lambda found: found is not None, draw, max_attempts,
                        "unit witness")


def zlinear_extension(f, field: Field):
    """Extend a function additive on units to the whole field.

    Over a field the only non-unit is 0, where the recipe g(0) =
    f(a + 0) - f(a) applies; the value is checked independent of the
    auxiliary unit a.
    """
    one = field.one()
    other = one + one
    if other.is_zero():
        other = field.t() if field.kind == "function_field" else one

    def g(x):
        x = field.scalar(x)
        if not x.is_zero():
            return f(x)
        value = f(one + x) - f(one)
        if other != one and f(other + x) - f(other) != value:
            raise InternalInvariant("extension depends on the auxiliary unit")
        return value

    return g


# ---------------------------------------------------------------------------
# built-in six-by-six families and their published coefficient tables
# ---------------------------------------------------------------------------

@dataclass
class Family:
    name: str
    letters: tuple
    build_upper: object          # letters dict -> 15 upper entries
    pfaffian: object             # letters dict -> Scalar
    extra_units: object          # letters dict -> list of scalars that must be nonzero
    table: dict                  # triple -> (coeff fn, generator letter triple)
    collected: object = None     # letters dict -> {gen letters: coeff} or None


def _rows_upper(v):
    a, b, c, d, e = v["a"], v["b"], v["c"], v["d"], v["e"]
    return [a, a, a, a, a,
            b, b, b, b,
            c, c, c,
            d, d,
            e]


def _corner_upper(v):
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    return [d, d, d, d, d,
            d, d, d, d,
            d, d, d,
            a, b,
            c]


def _woven_upper(v):
    a, b, d, e, f = v["a"], v["b"], v["d"], v["e"], v["f"]
    return [a, b, d, d, d,
            b, e, e, e,
            f, f, f,
            a, b,
            b]


ROWS_TABLE = {
    (1, 2, 3): (lambda v: 1 / (v["b"] * v["e"] ** 2), ("d", "d", "e")),
    (1, 2, 4): (lambda v: -1 / (v["b"] * v["e"] ** 2), ("c", "c", "e")),
    (1, 3, 4): (lambda v: v["c"] / (v["b"] ** 2 * v["e"] ** 2), ("b", "b", "e")),
    (2, 3, 4): (lambda v: -v["c"] / (v["a"] ** 2 * v["e"] ** 2), ("a", "a", "e")),
    (1, 2, 5): (lambda v: 1 / (v["b"] * v["d"] ** 2), ("c", "c", "d")),
    (1, 3, 5): (lambda v: -v["c"] / (v["b"] ** 2 * v["d"] ** 2), ("b", "b", "d")),
    (2, 3, 5): (lambda v: v["c"] / (v["a"] ** 2 * v["d"] ** 2), ("a", "a", "d")),
    (1, 4, 5): (lambda v: 1 / (v["b"] ** 2 * v["d"]), ("b", "b", "c")),
    (2, 4, 5): (lambda v: -1 / (v["a"] ** 2 * v["d"]), ("a", "a", "c")),
    (3, 4, 5): (lambda v: 1 / (v["a"] ** 2 * v["d"]), ("a", "a", "b")),
    (1, 2, 6): (lambda v: -1 / (v["b"] * v["d"] ** 2), ("c", "c", "d")),
    (1, 3, 6): (lambda v: v["c"] / (v["b"] ** 2 * v["d"] ** 2), ("b", "b", "d")),
    (2, 3, 6): (lambda v: -v["c"] / (v["a"] ** 2 * v["d"] ** 2), ("a", "a", "d")),
    (1, 4, 6): (lambda v: -1 / (v["b"] ** 2 * v["d"]), ("b", "b", "c")),
    (2, 4, 6): (lambda v: 1 / (v["a"] ** 2 * v["d"]), ("a", "a", "c")),
    (3, 4, 6): (lambda v: -1 / (v["a"] ** 2 * v["d"]), ("a", "a", "b")),
    (1, 5, 6): (lambda v: v["e"] / (v["b"] ** 2 * v["d"] ** 2), ("b", "b", "c")),
    (2, 5, 6): (lambda v: -v["e"] / (v["a"] ** 2 * v["d"] ** 2), ("a", "a", "c")),
    (3, 5, 6): (lambda v: v["e"] / (v["a"] ** 2 * v["d"] ** 2), ("a", "a", "b")),
    (4, 5, 6): (lambda v: -v["e"] / (v["a"] ** 2 * v["c"] ** 2), ("a", "a", "b")),
}


def _rows_collected(v):
    a, b, c, d, e = v["a"], v["b"], v["c"], v["d"], v["e"]
    return {
        ("a", "a", "b"): e / (a ** 2 * d ** 2) - e / (a ** 2 * c ** 2),
        ("a", "a", "c"): -e / (a ** 2 * d ** 2),
        ("a", "a", "e"): -c / (a ** 2 * e ** 2),
        ("b", "b", "c"): e / (b ** 2 * d ** 2),
        ("b", "b", "e"): c / (b ** 2 * e ** 2),
        ("d", "d", "e"): 1 / (b * e ** 2),
        ("c", "c", "e"): -1 / (b * e ** 2),
    }


CORNER_TABLE = {
    (1, 2, 3): (lambda v: 1 / (v["d"] * (v["a"] - v["b"] + v["c"]) ** 2), ("a", "b", "c")),
    (1, 2, 4): (lambda v: -1 / (v["c"] ** 2 * v["d"]), ("d", "d", "c")),
    (1, 3, 4): (lambda v: 1 / (v["c"] ** 2 * v["d"]), ("d", "d", "c")),
    (2, 3, 4): (lambda v: -1 / (v["c"] ** 2 * v["d"]), ("d", "d", "c")),
    (1, 2, 5): (lambda v: 1 / (v["b"] ** 2 * v["d"]), ("d", "d", "b")),
    (1, 3, 5): (lambda v: -1 / (v["b"] ** 2 * v["d"]), ("d", "d", "b")),
    (2, 3, 5): (lambda v: 1 / (v["b"] ** 2 * v["d"]), ("d", "d", "b")),
    (1, 4, 5): (lambda v: (v["a"] - v["b"] + v["c"]) / (v["b"] * v["c"] * v["d"] ** 2), ("d", "d", "d")),
    (2, 4, 5): (lambda v: -(v["a"] - v["b"] + v["c"]) / (v["b"] * v["c"] * v["d"] ** 2), ("d", "d", "d")),
    (3, 4, 5): (lambda v: (v["a"] - v["b"] + v["c"]) / (v["b"] * v["c"] * v["d"] ** 2), ("d", "d", "d")),
    (1, 2, 6): (lambda v: -1 / (v["a"] ** 2 * v["d"]), ("d", "d", "a")),
    (1, 3, 6): (lambda v: 1 / (v["a"] ** 2 * v["d"]), ("d", "d", "a")),
    (2, 3, 6): (lambda v: -1 / (v["a"] ** 2 * v["d"]), ("d", "d", "a")),
    (1, 4, 6): (lambda v: -(v["a"] - v["b"] + v["c"]) / (v["a"] * v["c"] * v["d"] ** 2), ("d", "d", "d")),
    (2, 4, 6): (lambda v: (v["a"] - v["b"] + v["c"]) / (v["a"] * v["c"] * v["d"] ** 2), ("d", "d", "d")),
    (3, 4, 6): (lambda v: -(v["a"] - v["b"] + v["c"]) / (v["a"] * v["c"] * v["d"] ** 2), ("d", "d", "d")),
    (1, 5, 6): (lambda v: (v["a"] - v["b"] + v["c"]) / (v["a"] * v["b"] * v["d"] ** 2), ("d", "d", "d")),
    (2, 5, 6): (lambda v: -(v["a"] - v["b"] + v["c"]) / (v["a"] * v["b"] * v["d"] ** 2), ("d", "d", "d")),
    (3, 5, 6): (lambda v: (v["a"] - v["b"] + v["c"]) / (v["a"] * v["b"] * v["d"] ** 2), ("d", "d", "d")),
    (4, 5, 6): (lambda v: -(v["a"] - v["b"] + v["c"]) / v["d"] ** 4, ("d", "d", "d")),
}

WOVEN_TABLE = {
    (1, 2, 3): (lambda v: _wp(v) / (v["a"] ** 2 * v["d"] * v["e"] * v["f"]), ("a", "b", "b")),
    (1, 2, 4): (lambda v: -_wp(v) / (v["b"] ** 4 * v["f"]), ("f", "f", "b")),
    (1, 3, 4): (lambda v: _wp(v) / (v["a"] * v["b"] ** 3 * v["e"]), ("e", "e", "b")),
    (2, 3, 4): (lambda v: -_wp(v) / (v["a"] * v["b"] ** 3 * v["d"]), ("d", "d", "b")),
    (1, 2, 5): (lambda v: _wp(v) / (v["b"] ** 4 * v["f"]), ("f", "f", "b")),
    (1, 3, 5): (lambda v: -_wp(v) / (v["a"] * v["b"] ** 3 * v["e"]), ("e", "e", "b")),
    (2, 3, 5): (lambda v: _wp(v) / (v["a"] * v["b"] ** 3 * v["d"]), ("d", "d", "b")),
    (1, 4, 5): (lambda v: v["a"] / v["b"] ** 4, ("b", "e", "f")),
    (2, 4, 5): (lambda v: -v["a"] / v["b"] ** 4, ("b", "d", "f")),
    (3, 4, 5): (lambda v: 1 / (v["a"] * v["b"] ** 2), ("a", "d", "e")),
    (1, 2, 6): (lambda v: -_wp(v) / (v["a"] ** 2 * v["b"] ** 2 * v["f"]), ("f", "f", "a")),
    (1, 3, 6): (lambda v: _wp(v) / (v["a"] ** 3 * v["b"] * v["e"]), ("e", "e", "a")),
    (2, 3, 6): (lambda v: -_wp(v) / (v["a"] ** 3 * v["b"] * v["d"]), ("d", "d", "a")),
    (1, 4, 6): (lambda v: -1 / v["b"] ** 3, ("b", "e", "f")),
    (2, 4, 6): (lambda v: 1 / v["b"] ** 3, ("b", "d", "f")),
    (3, 4, 6): (lambda v: -1 / (v["a"] ** 2 * v["b"]), ("a", "d", "e")),
    (1, 5, 6): (lambda v: 1 / v["b"] ** 3, ("b", "e", "f")),
    (2, 5, 6): (lambda v: -1 / v["b"] ** 3, ("b", "d", "f")),
    (3, 5, 6): (lambda v: 1 / (v["a"] ** 2 * v["b"]), ("a", "d", "e")),
    (4, 5, 6): (lambda v: -v["a"] / _wp(v) ** 2, ("a", "b", "b")),
}


def _wp(v):
    """The woven family's Pfaffian cofactor bd - be + af."""
    return v["b"] * v["d"] - v["b"] * v["e"] + v["a"] * v["f"]


FAMILIES = {
    "rows": Family(
        name="rows",
        letters=("a", "b", "c", "d", "e"),
        build_upper=_rows_upper,
        pfaffian=lambda v: v["a"] * v["c"] * v["e"],
        extra_units=lambda v: [],
        table=ROWS_TABLE,
        collected=_rows_collected,
    ),
    "corner": Family(
        name="corner",
        letters=("a", "b", "c", "d"),
        build_upper=_corner_upper,
        pfaffian=lambda v: (v["a"] - v["b"] + v["c"]) * v["d"] ** 2,
        extra_units=lambda v: [v["a"] - v["b"] + v["c"]],
        table=CORNER_TABLE,
    ),
    "woven": Family(
        name="woven",
        letters=("a", "b", "d", "e", "f"),
        build_upper=_woven_upper,
        pfaffian=lambda v: v["a"] * _wp(v),
        extra_units=lambda v: [_wp(v)],
        table=WOVEN_TABLE,
    ),
}


def family_matrix(name: str, values: dict) -> SkewPlusMatrix:
    fam = FAMILIES[name]
    field = next(iter(values.values())).field
    upper = [field.scalar(x) for x in fam.build_upper(values)]
    return SkewPlusMatrix.certify(SkewMatrix.from_upper(field, 6, upper))


def sample_family_values(name: str, field: Field, rng) -> dict:
    """Letter values with all required units nonzero."""
    fam = FAMILIES[name]
    return sample_until(
        lambda values: all(not u.is_zero() for u in fam.extra_units(values)),
        lambda bound: {letter: field.sample_nonzero(rng, bound) for letter in fam.letters},
        256, f"{name} family values")


# ---------------------------------------------------------------------------
# reports and the table verifier
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """Outcome of one verification check, JSON-serializable.  Its clock
    starts when it is made; `stop` sets elapsed_ms."""

    check: str
    field: str
    trials: int
    failures: list = dc_field(default_factory=list)
    elapsed_ms: int = 0
    _start: float = dc_field(default_factory=time.monotonic, init=False, repr=False, compare=False)

    def stop(self):
        self.elapsed_ms = int((time.monotonic() - self._start) * 1000)

    @property
    def passed(self) -> bool:
        """A check that ran no trials has shown nothing, so it fails."""
        return self.trials > 0 and not self.failures

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "field": self.field,
            "trials": self.trials,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
        }


def verify_appendix(families, trials: int, rng, field: Field | None = None) -> list:
    """Check the published 20-row tables of the built-in families at
    random specializations; returns one Report per family.

    For every trial the matrix Pfaffian must equal its closed form and
    each table row must match the corresponding gamma term exactly.  The
    rows family additionally collapses, after collection, to its
    seven-term closed form.
    """
    field = field or Field.rationals()
    if isinstance(families, str):
        families = [families]
    reports = []
    for name in families:
        fam = FAMILIES[name]
        report = Report(check=f"appendix:{name}", field=field.flag(), trials=trials)
        for _ in range(trials):
            values = sample_family_values(name, field, rng)
            spec_lit = {k: v.literal() for k, v in values.items()}
            try:
                a = family_matrix(name, values)
            except NotSkewPlus:
                report.failures.append({
                    "triple": None, "specialization": spec_lit,
                    "expected": "certified matrix", "got": "certificate failure"})
                continue
            pf = a.pf_without()
            expected_pf = fam.pfaffian(values)
            if pf != expected_pf:
                report.failures.append({
                    "triple": None, "specialization": spec_lit,
                    "expected": expected_pf.literal(), "got": pf.literal()})
                continue
            terms = {t: (coeff, gen) for t, coeff, gen in gamma_terms(a, 2)}
            for triple, (coeff_fn, gen_letters) in fam.table.items():
                want_coeff = field.scalar(coeff_fn(values))
                want_gen = skew3(field, *(values[l] for l in gen_letters))
                got_coeff, got_gen = terms[triple]
                if got_coeff != want_coeff or got_gen != want_gen:
                    report.failures.append({
                        "triple": list(triple), "specialization": spec_lit,
                        "expected": f"{want_coeff.literal()} * {want_gen!r}",
                        "got": f"{got_coeff.literal()} * {got_gen!r}"})
            if fam.collected is not None:
                want = FormalSum.zero()
                for gen_letters, coeff in fam.collected(values).items():
                    gen = skew3(field, *(values[l] for l in gen_letters))
                    want = want + FormalSum.generator(gen, field.scalar(coeff))
                if gamma_map(a, 2) != want:
                    report.failures.append({
                        "triple": None, "specialization": spec_lit,
                        "expected": "collected seven-term sum", "got": "mismatch"})
        report.stop()
        reports.append(report)
    return reports


def seven_term_relation(values: dict, field: Field) -> FormalSum:
    """The seven-brace combination whose gamma certificate is the rows
    family at inverted letters: evaluating the braces gives exactly
    gamma of that matrix."""
    a, b, c, d, e = (values[k] for k in ("a", "b", "c", "d", "e"))
    terms = [
        brace((a ** 2 / b ** 2) * ((d ** 2 - c ** 2) / e), a, a, b),
        brace(-(a ** 2 * d ** 2) / (c ** 2 * e), a, a, c),
        brace(-(a ** 2) / c, a, a, e),
        brace((b ** 2 * d ** 2) / (c ** 2 * e), b, b, c),
        brace((b ** 2) / c, b, b, e),
        brace(b, d, d, e),
        brace(-b, c, c, e),
    ]
    return brackets_to_sum(terms, field)


def seven_term_certificate(values: dict, field: Field):
    """The one-generator certificate for the seven-term relation."""
    inverted = {k: v.inv() for k, v in values.items()}
    return [(1, family_matrix("rows", inverted))]
