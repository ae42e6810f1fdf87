"""Workloads of the benchmark: seeded raw inputs and checked operations.

Inputs are plain JSON values (ints and lists) drawn from the benchmark's
own `random.Random`; library objects are built from them inside each
operation through public constructors, so no library object outlives the
operation that built it.  Generation accepts or rejects a candidate only
by a mathematical predicate (`is_skew_plus`, `is_nondeg_unimodular`), so
every correct library yields the same inputs for the same seed.

Each workload has a fixed schedule of input classes (field, size, kind);
operation i uses class i mod len(schedule), so every run covers the same
mix and the seed only changes the entries.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from skewplus import (
    Field,
    FormalSum,
    Matrix,
    NonDegSeq,
    SkewMatrix,
    SkewPlusMatrix,
    SymplecticSpace,
    diff_seq,
    diff_skew,
    gamma_map,
    gamma_oracle_c,
    is_nondeg_unimodular,
    is_skew_plus,
    pf_eliminate,
    pf_recursive,
    section_V,
    section_v_det1,
    witt_extend,
)
from skewplus.gamma import pfaffian_ratio
from skewplus.symplectic import is_sp_member
from skewplus.unimod import contract_cycle_seq, contract_cycle_skew

Q = Field.rationals()
FIELDS = {"q": Q, "fp": Field.prime(1000003), "fpt": Field.function_field(3)}
ENTRY_BOUND = 6
MAX_TRIES = 1000


class CheckFailed(Exception):
    """An operation's output failed its exact check."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# raw entries: Q as an int or [num, den], F_p as an int, F_p(t) as [num, den]
# coefficient lists (low degree first)
# ---------------------------------------------------------------------------

def raw_q(rng):
    return [rng.choice((-1, 1)) * rng.randint(1, ENTRY_BOUND), rng.randint(1, ENTRY_BOUND)]


def raw_entry(rng, field_key):
    if field_key == "q":
        return rng.randint(-9, 9)
    p = FIELDS[field_key].p
    if field_key == "fp":
        return rng.randrange(p)
    # numerator of degree exactly 2 over a monic linear denominator: the
    # cost of F_p(t) arithmetic follows the degrees, so fixing them keeps
    # the cost of one operation close to that of the next
    return [[rng.randrange(p), rng.randrange(p), rng.randrange(1, p)], [rng.randrange(p), 1]]


def scalar(field_key, x):
    field = FIELDS[field_key]
    if field_key == "q":
        return field.scalar(Fraction(*x) if isinstance(x, list) else x)
    if field_key == "fp":
        return field.scalar(x)
    return field.scalar((tuple(x[0]), tuple(x[1])))


def skew_from_raw(upper, q, field_key="q") -> SkewMatrix:
    return SkewMatrix.from_upper(FIELDS[field_key], q, [scalar(field_key, x) for x in upper])


def vectors_from_raw(vectors):
    return [tuple(scalar("q", x) for x in v) for v in vectors]


def raw_skew_plus(rng, q):
    """Upper entries of a q x q rational matrix that is_skew_plus accepts."""
    for _ in range(MAX_TRIES):
        upper = [raw_q(rng) for _ in range(q * (q - 1) // 2)]
        if is_skew_plus(skew_from_raw(upper, q)):
            return upper
    raise RuntimeError(f"no certified {q}x{q} matrix in {MAX_TRIES} draws")


def raw_nondeg_seq(rng, length, two_n):
    """A length-`length` rational sequence in R^{two_n} in U_q."""
    space = SymplecticSpace(Q, two_n // 2)
    for _ in range(MAX_TRIES):
        vectors = [[raw_q(rng) for _ in range(two_n)] for _ in range(length)]
        if is_nondeg_unimodular(vectors_from_raw(vectors), space):
            return vectors
    raise RuntimeError(f"no length-{length} sequence in R^{two_n} in {MAX_TRIES} draws")


def raw_coefficients(rng, m):
    return [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(m)]


# ---------------------------------------------------------------------------
# complexes: d o d = 0 and contraction of boundary-built cycles, 2n = 4
# ---------------------------------------------------------------------------

COMPLEX_TWO_N = 4
COMPLEX_SCHEDULE = [(q, m) for q in (1, 2, 3) for m in (1, 2, 3)]


def make_complex(cls, rng):
    q, m = cls
    return {
        "dd_seq": raw_nondeg_seq(rng, q + 2, COMPLEX_TWO_N),
        "dd_skew": raw_skew_plus(rng, q + 2),
        "seq_chain": [raw_nondeg_seq(rng, q + 1, COMPLEX_TWO_N) for _ in range(m)],
        "skew_chain": [raw_skew_plus(rng, q + 1) for _ in range(m)],
        "coefficients": raw_coefficients(rng, m),
    }


def _seq(space, raw):
    return NonDegSeq(space, vectors_from_raw(raw))


def _skew_plus(raw, q):
    return SkewPlusMatrix.certify(skew_from_raw(raw, q))


def _chains(cls, raw):
    """Certify every generator, check d d = 0 on the two spare ones, and
    return the sequence chain and the skew chain."""
    q, _ = cls
    space = SymplecticSpace(Q, COMPLEX_TWO_N // 2)
    for diff, gen in ((diff_seq, _seq(space, raw["dd_seq"])),
                      (diff_skew, _skew_plus(raw["dd_skew"], q + 2))):
        check(diff(diff(FormalSum.generator(gen))).is_zero(), "d d = 0")
    seq_chain = FormalSum.zero()
    skew_chain = FormalSum.zero()
    for vs, up, c in zip(raw["seq_chain"], raw["skew_chain"], raw["coefficients"]):
        seq_chain = seq_chain + FormalSum.generator(_seq(space, vs), c)
        skew_chain = skew_chain + FormalSum.generator(_skew_plus(up, q + 1), c)
    return seq_chain, skew_chain


# surgery rounds per level of contract_cycle_skew's depth-4 search: two
# allow at most 2 + 4 + 8 + 16 rounds, where the library default of 16
# lets about one cycle in a thousand run for 10-65 s; one round per level
# exhausts the search on about one skew cycle in 300
SURGERY_ATTEMPTS = 2


def op_cycles(cls, raw, rng):
    """Contract a boundary-built cycle of each complex, checking d(eta) = xi."""
    seq_chain, skew_chain = _chains(cls, raw)
    xi = diff_seq(seq_chain)
    check(diff_seq(xi).is_zero(), "d d = 0 on a sequence chain")
    check(diff_seq(contract_cycle_seq(xi, rng)) == xi, "d(eta) = xi, sequence complex")
    xi = diff_skew(skew_chain)
    check(diff_skew(xi).is_zero(), "d d = 0 on a skew chain")
    eta = contract_cycle_skew(xi, rng, max_attempts=SURGERY_ATTEMPTS)
    check(diff_skew(eta) == xi, "d(eta) = xi, skew complex")


# ---------------------------------------------------------------------------
# one-shot compute path: certify a fresh matrix, then use it once
# ---------------------------------------------------------------------------

# 18 classes: eight cost less than the doubled det1 7, which holds the
# median, and eight more, three of them gamma, which holds the 90th percentile
ONESHOT_SCHEDULE = (
    [("section", 2, 3), ("section", 4, 4), ("section", 4, 5), ("section", 6, 6),
     ("section", 6, 7), ("section", 8, 8), ("section", 8, 9)]
    + [("det1", 5), ("det1", 7), ("det1", 7)]
    + [("witt", 4, 2), ("witt", 4, 3), ("witt", 6, 3), ("witt", 6, 4), ("witt", 8, 5)]
    + [("gamma",)] * 3
)
WITT_STEPS = 3


def _pair(x, y):
    return sum(x[k] * y[k + 1] - x[k + 1] * y[k] for k in range(0, len(x), 2))


def make_oneshot(cls, rng):
    kind = cls[0]
    if kind == "section":
        return raw_skew_plus(rng, cls[2])
    if kind == "det1":
        return raw_skew_plus(rng, cls[1])
    if kind == "gamma":
        return raw_skew_plus(rng, 6)
    _, two_n, r = cls
    v = raw_nondeg_seq(rng, r, two_n)
    # w is the image of v under a product of transvections x -> x + a<x,u>u,
    # so (v, w) is a Gram-matching pair by construction
    w = [[Fraction(*x) for x in vec] for vec in v]
    for _ in range(WITT_STEPS):
        u = [Fraction(*raw_q(rng)) for _ in range(two_n)]
        a = Fraction(*raw_q(rng))
        w = [[x + a * _pair(vec, u) * y for x, y in zip(vec, u)] for vec in w]
    return {"v": v, "w": [[[x.numerator, x.denominator] for x in vec] for vec in w]}


def op_oneshot(cls, raw, rng):
    kind = cls[0]
    if kind == "section":
        _, two_n, q = cls
        a = SkewPlusMatrix.certify(skew_from_raw(raw, q))
        seq = section_V(q, two_n, a)
        check(seq.length == q and all(len(v) == two_n for v in seq.vectors), "section shape")
        check(seq.gram() == a.inner, "Gram round trip")
    elif kind == "det1":
        q = cls[1]
        a = SkewPlusMatrix.certify(skew_from_raw(raw, q))
        seq = section_v_det1(a)
        check(Matrix.from_columns(Q, [v[:q] for v in seq.vectors]).det() == Q.one(), "det 1")
        check(all(x.is_zero() for col, v in enumerate(seq.vectors, start=1) for x in v[col:]),
              "upper triangular")
        check(seq.gram() == a.inner, "Gram round trip")
    elif kind == "witt":
        _, two_n, _ = cls
        space = SymplecticSpace(Q, two_n // 2)
        v = NonDegSeq(space, vectors_from_raw(raw["v"])).vectors
        w = vectors_from_raw(raw["w"])
        g = witt_extend(space, list(v), w)
        check(is_sp_member(g.matrix, two_n), "group membership")
        check(all(g.apply(x) == y for x, y in zip(v, w)), "exact restriction")
    else:
        a = SkewPlusMatrix.certify(skew_from_raw(raw, 6))
        image = gamma_map(a, 2)
        expected = FormalSum.zero()
        for triple in combinations(range(1, 7), 3):
            ratio = pfaffian_ratio(a, triple)
            check(gamma_oracle_c(a, triple) == ratio, f"oracle = ratio at {triple}")
            sign = -1 if sum(triple) % 2 else 1
            expected = expected + FormalSum.generator(a.remove_indices(triple), sign * ratio)
        check(image == expected, "gamma map terms")


# ---------------------------------------------------------------------------
# Pfaffian kernels over the three fields
# ---------------------------------------------------------------------------

# 15 classes put the 90th percentile in the middle of F_p 40, away from
# the jump up to F_3(t) 12, the one class above it
KERNEL_SCHEDULE = ([("q", n) for n in (12, 16, 20, 24)]
                   + [("fp", n) for n in (16, 18, 20, 24, 28, 32, 36, 40)]
                   + [("fpt", n) for n in (8, 10, 12)])
RECURSIVE_MAX = 12


def make_kernel(cls, rng):
    field_key, q = cls
    return [raw_entry(rng, field_key) for _ in range(q * (q - 1) // 2)]


def op_kernel(cls, raw, rng):
    field_key, q = cls
    a = skew_from_raw(raw, q, field_key)
    pf = pf_eliminate(a)
    check(pf * pf == a.full_matrix().det(), "pf^2 = det")
    if q <= RECURSIVE_MAX:
        check(pf_recursive(a) == pf, "elimination = expansion")


# trace_rounds_per_s: schedule rounds per second of --seconds in a traced
# run, about a quarter of the untraced rate, so that the untraced and the
# traced pass together take about --seconds
Workload = namedtuple("Workload", "schedule make op trace_rounds_per_s")


WORKLOADS = {
    "cycles-q": Workload(COMPLEX_SCHEDULE, make_complex, op_cycles, 1.5),
    "oneshot-q": Workload(ONESHOT_SCHEDULE, make_oneshot, op_oneshot, 0.5),
    "kernel-3field": Workload(KERNEL_SCHEDULE, make_kernel, op_kernel, 0.2),
}
