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
in: the oracle never evaluates the ratio, nor reads the certificate's
table.  Non-canonical triples are reduced to the canonical one by one
relabeling, the composite of adjacent swaps, under which both the oracle
value and the ratio are invariant.  The oracle runs in the ring of the
field from the matrix's ring form, relabelled, to c: its six Pfaffians,
each the leading (2n-2)-block bordered by two of the last four indices,
by one skew elimination of that block, the face vectors of all three
columns by one substitution, its checks by cross-multiplication.  The
corner's section is cleared once and checked in the ring, against the
corner rows of the relabelled ring matrix, by `sections._det1_checked`,
the checker of the public `section_v_det1` too.

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
from .pfaffian import SkewMatrix, SkewPlusMatrix, _as_certified, _pf_lead
from .sections import _det1_checked, _substitute
from .symplectic import apply_psi


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

def _increasing_triple(triple, q: int):
    """The triple as (i, j, k), which must satisfy 1 <= i < j < k <= q."""
    if len(triple) != 3 or not 1 <= triple[0] < triple[1] < triple[2] <= q:
        raise BadIndices(f"triple {triple} is not increasing inside 1..{q}")
    return tuple(triple)


def pfaffian_ratio(a, triple) -> Scalar:
    """Pf(A) / (Pf(A^ij) Pf(A^ik) Pf(A^jk)), without the sign, read from
    the ring entries of the certificate's table: with raw[s] = L^{|s|/2}
    Pf(A on s), it is raw[1..q] L^(q-3) / (raw^ij raw^ik raw^jk), reduced
    to a scalar once.  An odd size has no Pfaffian and raises `BadRange`."""
    a = _as_certified(a)
    q = a.size
    i, j, k = _increasing_triple(triple, q)
    if q % 2:
        raise BadRange(f"the Pfaffian ratio needs an even size, got {q}")
    table = a.table
    ring, raw = table.ring, table.raw

    def without(u, v):
        return raw[tuple(x for x in range(1, q + 1) if x != u and x != v)]

    num = raw[tuple(range(1, q + 1))]
    for _ in range(q - 3):
        num = ring.mul(num, table.scale)
    return ring.to_scalar(num, ring.mul(ring.mul(without(i, j), without(i, k)), without(j, k)), 1)


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
    return FormalSum.collect((gen, coeff) for _, coeff, gen in gamma_terms(a, n))


def check_certificate(target: FormalSum, certificate, n: int) -> bool:
    """Whether target equals the integer combination of gamma images
    described by the certificate, as exact formal sums."""
    return FormalSum.collect((gen, c * coeff) for c, a in certificate
                             for _, coeff, gen in gamma_terms(a, n)) == target


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def _canonical_order(q: int, triple):
    """The labels 1..q with the triple moved to the end, the others in
    order: the composite of the adjacent swaps that push k, then j, then
    i to the end."""
    i, j, k = _increasing_triple(triple, q)
    return [x for x in range(1, q + 1) if x not in (i, j, k)] + [i, j, k]


def gamma_oracle_c(a, triple, betas=None) -> Scalar:
    """One gamma coefficient of a certified matrix of even size
    2n+2 >= 4, recomputed group-theoretically at the canonical triple
    (2n, 2n+1, 2n+2); odd sizes and sizes below 4 raise `BadRange`, as do
    betas that are not three values, and a triple that is not increasing
    inside 1..2n+2 raises `BadIndices`.

    `betas` optionally fixes the three free parameters of the sequence
    constructions; the returned value is provably independent of them,
    which the tests exercise by rerunning with random choices.

    The whole computation runs in the ring R of `field.ring()`: the
    relabelled matrix A' is B = L A', read from the matrix's ring form
    (cleared once per matrix, not per call).  Its six Pfaffians of size 2n
    are Pf(A' without u, v) for u, v among the last four indices, each the
    leading (2n-2)-block bordered by the other two; one skew elimination
    of that block (`_pf_lead`, no pivot search: a certified matrix has
    every leading Pfaffian nonzero) leaves L^n times all six in the
    trailing 4x4 block.  The face vectors are one forward substitution
    against the corner section, and every value is kept as a numerator
    over a ring denominator.  The corner is the det-1 section of A' on its
    first 2n-1 indices, with no table, cleared once by l and checked by
    `sections._det1_checked` against the corner rows of B: triangular,
    with the corner's Gram entries, and with det = 1 (its diagonal
    multiplies to l^(2n-1)).  The checks compare by cross-multiplication,
    and only c becomes a scalar.  The oracle reads neither the
    certificate's table nor `pfaffian_ratio`.
    """
    a = _as_certified(a)
    q = a.size
    if q < 4 or q % 2:
        raise BadRange(f"the oracle needs even size >= 4, got {q}")
    order = _canonical_order(q, triple)
    if betas is not None and len(betas) != 3:
        raise BadRange(f"the oracle takes 3 betas, got {len(betas)}")
    field = a.field
    ring = field.ring()
    add, sub, mul, neg, dot, equal = ring.add, ring.sub, ring.mul, ring.neg, ring.dot, ring.equal

    # b[x][y] = L A'_{x+1,y+1}, A' the matrix relabelled by `order`
    scale, upper = a.ring_form()
    full = [[ring.zero] * q for _ in range(q)]
    for x, row in enumerate(upper):
        for y, value in enumerate(row, start=x + 1):
            full[x][y], full[y][x] = value, neg(value)
    b = [[full[x - 1][y - 1] for y in order] for x in order]

    m = q - 3                                  # the corner is 0..m-1, size 2n-1
    idx = (m, m + 1, m + 2)                    # the triple, 0-based
    # lead[x][y] = L^n Pf(A' on 0..m-2, x, y) for m-1 <= x < y: for the
    # triple (r, s, t), pf[r] is L^n Pf(A' without s, t), and lead[s][t]
    # is L^n Pf(A' without m-1, r)
    lead = _pf_lead(ring, [row[x + 1:] for x, row in enumerate(b[:-1])], m - 1)
    pf = lead[m - 1]
    l_n1 = ring.one                            # L^(n-1)
    for _ in range(q // 2 - 2):
        l_n1 = mul(l_n1, scale)

    # shared corner: the det-1 triangular section of the (2n-1)-block,
    # checked against b's corner rows, cleared once to cor = l corner and
    # padded into R^{2n}; the Pf of the leading (2n-2)-block, the product
    # of its diagonal, is 1 / last_pivot
    _, ell, cor = _det1_checked(a._on(order[:m]), scale,
                                [row[x + 1:m] for x, row in enumerate(b[:m])])
    last_pivot = cor[m - 1][m - 1]             # l last_pivot

    # for each column col of the triple, u solves <corner_x, w> = A'_{x,col}
    # with w = (-u_2, u_1, ..., -u_2n, u_2n-1), u_2n = 0, as L u = u[col] / den
    den, nums = ring.one, [[], [], []]
    for x in range(m):
        den = _substitute(ring, den, nums, cor[x][:x + 1], [mul(ell, b[x][col]) for col in idx])
    u = dict(zip(idx, nums))
    big_e = mul(den, scale)                    # the true u is u[col] / E
    z = {col: u[col][-1] for col in idx}       # z_col = u_2n-1 = z[col] / E
    for col in idx:
        # the pairings with the corner, <corner_x, w> = cor_x . u / (l E);
        # the d coordinate of a face vector pairs only with slot 2n, zero in
        # every corner vector, so these entries are the same in both faces
        if any(not equal(dot(cor[x], u[col]), mul(b[x][col], mul(ell, den))) for x in range(m)):
            raise InternalInvariant("face pairing with the corner does not match")
        # z_col = Pf(A' without the other two), times E L^n
        if not equal(mul(z[col], l_n1), mul(pf[col], den)):
            raise InternalInvariant("last coordinate does not match its Pfaffian")

    # the free parameters beta_r = beta[r] / l_b
    if betas is None:
        l_b, beta = ring.one, dict.fromkeys(idx, ring.zero)
    else:
        l_b, (cleared,) = ring.clear([[field.scalar(x).value for x in betas]])
        beta = dict(zip(idx, cleared))

    # for each r, the two remaining vectors of the sequence with Gram equal
    # to the r-th face of A' are (x, d, z) for its columns s < t: x the
    # first 2n-2 coordinates of w, d_t = beta_r and d_s = X_r / Y_r
    x_num = {}
    for r in idx:
        s, t = (col for col in idx if col != r)
        # <x_s, x_t> = pair / E^2, since <w_s, w_t> = u_s . psi u_t
        pair = dot(u[s][:m - 1], apply_psi(u[t][:m - 1], neg))
        # d_s = (A'_st - <x_s, x_t> + z_s d_t) / z_t
        x_r = add(mul(sub(mul(b[s][t], mul(mul(den, den), scale)), pair), l_b),
                  mul(mul(z[s], beta[r]), big_e))
        y_r = mul(mul(big_e, l_b), z[t])
        # the face Gram entry (s, t): <x_s, x_t> + d_s z_t - z_s d_t = A'_st,
        # times E^2 l_b L (d_s z_t = X_r / (E^2 l_b))
        if not equal(mul(sub(add(mul(pair, l_b), x_r), mul(mul(z[s], beta[r]), big_e)), scale),
                     mul(b[s][t], mul(mul(big_e, big_e), l_b))):
            raise InternalInvariant("sequence Gram does not match the face")
        # determinant identity tying the free parameters to Pfaffians,
        # Pf(A' without 2n-1, r) = Pf(leading) (d_s Pf^{rs} - d_t Pf^{rt}),
        # Pf^{rs} = pf[t] and Pf^{rt} = pf[s], checked multiplied by
        # last_pivot, l, Y_r, l_b and L^n
        lhs = mul(mul(lead[s][t], last_pivot), mul(y_r, l_b))
        rhs = mul(sub(mul(mul(x_r, pf[t]), l_b), mul(mul(beta[r], pf[s]), y_r)), ell)
        if not equal(lhs, rhs):
            raise InternalInvariant("determinant identity fails")
        x_num[r] = x_r

    # c_of(r, s) = (d^r_t - d^s_t) / z_t for the third index t: the basis
    # change e_{2n-1,2n}(c) fixes the corner and sends the s sequence's
    # t-th vector to the r sequence's, which differ only in d.  In face r,
    # d is X_r / Y_r on its first column and beta_r on its second, so for
    # (i, j, k), with Y_i = Y_j = E l_b z_k and Y_k = E l_b z_j,
    #   c_of(i, k) = (X_i - beta_k E z_k) / (l_b z_j z_k),
    #   c_of(k, j) = (X_k z_k - X_j z_j) / (l_b z_i z_j z_k),
    #   c_of(j, i) = (beta_j - beta_i) E / (l_b z_k),
    # and c is their sum over l_b z_i z_j z_k
    i, j, k = idx
    num = add(add(mul(sub(x_num[i], mul(mul(beta[k], big_e), z[k])), z[i]),
                  sub(mul(x_num[k], z[k]), mul(x_num[j], z[j]))),
              mul(mul(sub(beta[j], beta[i]), big_e), mul(z[i], z[j])))
    return ring.to_scalar(num, mul(mul(l_b, z[i]), mul(z[j], z[k])), 1)


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
    return FormalSum.collect((gen, coeff) for coeff, gen in
                             (bracket_to_skew3(b, field) for b in brackets))


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
                want = FormalSum.collect(
                    (skew3(field, *(values[l] for l in gen_letters)), field.scalar(coeff))
                    for gen_letters, coeff in fam.collected(values).items())
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
