"""Command line interface: batch verification, one-shot evaluation, benchmark.

    skewplus verify pfaffian|sections|witt|complexes|appendix|gamma-oracle|units|sm|all
    skewplus compute pf|gamma|section --input FILE
    skewplus bench pfaffian --max-n N [--field q|fp:P|fpt:P]

Every verification run is reproducible from (--seed, --trials, --field),
and the emitted JSON report embeds that configuration.  Exit code 0 means
all checks passed, 1 means some assertion failed, 2 means a usage or
input error.  The verification suites sample their data from complements
of finitely many proper subvarieties, which needs an infinite field;
plain F_p is therefore refused for `verify` (the library itself computes
over F_p without restriction).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from itertools import combinations

from . import chains, gamma, sections, symplectic, unimod
from .errors import DivisionByZero, FieldMismatch, ParseError, ShapeMismatch, SkewplusError
from .fields import FUNCTION_FIELD, RATIONALS, Field
from .matrices import Matrix
from .pfaffian import (
    SkewMatrix,
    SkewPlusMatrix,
    pf_eliminate,
    pf_recursive,
    random_skew,
    random_skew_plus,
)
from .gamma import Report

DEFAULT_SEED = 2024
SEED_ENV = "SKEWPLUS_SEED"


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _fail(report, case, expected, got):
    report.failures.append({"case": case, "expected": str(expected), "got": str(got)})


def suite_pfaffian(field: Field, rng, trials: int = 500, dw_trials: int = 200):
    """Pfaffian identities on random skew matrices, plus the three-term
    minor identity on certified ones."""
    rep = Report(check="pfaffian:identities", field=field.flag(), trials=trials)
    for n in range(1, 21):
        psi = SkewMatrix.from_matrix(symplectic.psi_matrix(field, 2 * n))
        if pf_eliminate(psi) != field.one():
            _fail(rep, f"pf(psi_{2*n})", 1, pf_eliminate(psi).literal())
    for i in range(trials):
        q = 2 * rng.randint(1, 4)
        a = random_skew(field, q, rng, bound=6)
        pf = pf_recursive(a)
        if pf != pf_eliminate(a):
            _fail(rep, f"trial {i}: recursive vs eliminate", pf.literal(), "mismatch")
        if pf * pf != a.full_matrix().det():
            _fail(rep, f"trial {i}: pf^2 = det", "equal", "mismatch")
        u = Matrix(field, [[field.sample(rng, 4) for _ in range(q)] for _ in range(q)])
        congr = SkewMatrix.from_matrix(u.transpose() * a.full_matrix() * u)
        if pf_eliminate(congr) != u.det() * pf:
            _fail(rep, f"trial {i}: congruence", "equal", "mismatch")
        c = field.sample(rng, 6)
        if pf_eliminate(a.scale(c)) != c ** (q // 2) * pf:
            _fail(rep, f"trial {i}: scaling", "equal", "mismatch")
    rep.stop()

    dw = Report(check="pfaffian:dress-wenzel", field=field.flag(), trials=dw_trials)
    for i in range(dw_trials):
        n = rng.choice([2, 3])
        a = random_skew_plus(field, 2 * n + 2, rng)
        p = 2 * n - 1
        others = [x for x in range(1, 2 * n + 3) if x != p]
        triple = sorted(rng.sample(others, 3))
        if not dress_wenzel_holds(a, p, triple):
            _fail(dw, f"trial {i}: n={n} triple={triple}", "identity", "mismatch")
    dw.stop()
    # a part asked for zero trials is left out rather than reported as failed
    return [r for r in (rep, dw) if r.trials]


def dress_wenzel_holds(a, p: int, triple) -> bool:
    """The three-term Pfaffian minor identity for the index p against an
    increasing triple, evaluated through the sorted four-index form

        Pf(A^wx) Pf(A^yz) - Pf(A^wy) Pf(A^xz) + Pf(A^wz) Pf(A^xy)
            = Pf(A) Pf(A^wxyz),   w < x < y < z,

    which matches the p-first arrangement whenever p precedes the triple
    (the only configuration the oracle's derivation uses)."""
    w, x, y, z = sorted([p, *triple])
    lhs = (pf_eliminate(a.remove_indices([w, x])) * pf_eliminate(a.remove_indices([y, z]))
           - pf_eliminate(a.remove_indices([w, y])) * pf_eliminate(a.remove_indices([x, z]))
           + pf_eliminate(a.remove_indices([w, z])) * pf_eliminate(a.remove_indices([x, y])))
    rhs = pf_eliminate(a) * pf_eliminate(a.remove_indices([w, x, y, z]))
    return lhs == rhs


def suite_sections(field: Field, rng, trials: int = 100, spot: int = 50):
    """Gram round trips plus stability, face compatibility, and the
    determinant-1 triangular variant."""
    rep = Report(check="sections:roundtrip", field=field.flag(), trials=trials)
    for two_n in (2, 4, 6, 8):
        for q in range(0, two_n + 2):
            for i in range(trials):
                a = random_skew_plus(field, q, rng)
                seq = sections.section_V(q, two_n, a)
                if seq.gram() != a.inner:
                    _fail(rep, f"2n={two_n} q={q} trial {i}", "Gram round trip", "mismatch")
    rep.stop()

    stab = Report(check="sections:stability", field=field.flag(), trials=spot)
    for i in range(spot):
        two_n = 2 * rng.randint(1, 3)
        two_m = two_n + 2 * rng.randint(1, 2)
        # stability holds in the range q <= 2n; at q = 2n+1 the smaller
        # space takes the snug variant and the larger the roomy one
        q = rng.randint(0, two_n)
        a = random_skew_plus(field, q, rng)
        small = sections.section_V(q, two_n, a)
        big = sections.section_V(q, two_m, a)
        trunc = [v[:two_n] for v in big.vectors]
        if any(not x.is_zero() for v in big.vectors for x in v[two_n:]):
            _fail(stab, f"spot {i}", "zero padding", "nonzero tail")
        elif tuple(trunc) != small.vectors:
            _fail(stab, f"spot {i}", "stability", "mismatch")
        # face compatibility: dropping the last vector (full range of q)
        q = rng.randint(1, two_n + 1)
        a = random_skew_plus(field, q, rng)
        seq = sections.section_V(q, two_n, a)
        dropped = sections.section_V(q - 1, two_n, a.remove_indices([q]))
        if seq.vectors[:-1] != dropped.vectors:
            _fail(stab, f"spot {i}", "face compatibility", "mismatch")
    stab.stop()

    det1 = Report(check="sections:det1", field=field.flag(), trials=spot)
    for i in range(spot):
        q = rng.choice([1, 3, 5, 7])
        a = random_skew_plus(field, q, rng)
        seq = sections.section_v_det1(a)
        mat = Matrix.from_columns(field, [v[:q] for v in seq.vectors])
        if mat.det() != field.one():
            _fail(det1, f"spot {i}", "det 1", mat.det().literal())
        for col, v in enumerate(seq.vectors, start=1):
            if any(not x.is_zero() for x in v[col:]):
                _fail(det1, f"spot {i}", f"column {col} in span(e1..e{col})", "violated")
        if seq.gram() != a.inner:
            _fail(det1, f"spot {i}", "Gram round trip", "mismatch")
    det1.stop()
    return [rep, stab, det1]


def suite_witt(field: Field, rng, trials: int = 100):
    """Random Gram-matching pairs extend to group elements restricting
    exactly to the prescribed map."""
    rep = Report(check="witt:extension", field=field.flag(), trials=trials)
    for i in range(trials):
        two_n = 2 * rng.randint(1, 4)
        space = symplectic.SymplecticSpace(field, two_n // 2)
        r = rng.randint(1, two_n)
        v = unimod.random_nondeg_seq(space, r, rng)
        if rng.random() < 0.5:
            w = v.transform(symplectic.random_sp(space, rng))
        else:
            w = sections.section_V(r, two_n, v.gram_certified())
            w = w.transform(symplectic.random_sp(space, rng))
        try:
            g = symplectic.witt_extend(space, list(v.vectors), list(w.vectors))
        except SkewplusError as exc:
            _fail(rep, f"trial {i} (2n={two_n}, r={r})", "extension", repr(exc))
            continue
        if not symplectic.is_sp_member(g.matrix, two_n):
            _fail(rep, f"trial {i}", "group membership", "violated")
        for x, y in zip(v.vectors, w.vectors):
            if g.apply(x) != y:
                _fail(rep, f"trial {i}", "exact restriction", "violated")
                break
    rep.stop()
    return [rep]


def suite_complexes(field: Field, rng, trials: int = 200, cycles: int = 100):
    """d o d = 0 on random generators and both contracting homotopies."""
    rep = Report(check="complexes:dd-zero", field=field.flag(), trials=trials)
    for i in range(trials):
        two_n = rng.choice([2, 4])
        space = symplectic.SymplecticSpace(field, two_n // 2)
        q = rng.randint(1, min(two_n + 1, 5))
        gen = unimod.random_nondeg_seq(space, q, rng)
        if not chains.boundary(chains.boundary(chains.FormalSum.generator(gen))).is_zero():
            _fail(rep, f"seq trial {i}", "d d = 0", "violated")
        qs = rng.randint(1, 5)
        sk = random_skew_plus(field, qs, rng)
        if not chains.boundary(chains.boundary(chains.FormalSum.generator(sk))).is_zero():
            _fail(rep, f"skew trial {i}", "d d = 0", "violated")
    rep.stop()

    hom = Report(check="complexes:contractions", field=field.flag(), trials=cycles)
    for i in range(cycles):
        # sequence complex: a cycle built as a boundary of a random chain
        two_n = 4
        space = symplectic.SymplecticSpace(field, 2)
        q = rng.randint(1, 3)
        chain = chains.FormalSum.collect(
            (unimod.random_nondeg_seq(space, q + 1, rng), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3)))
        xi = chains.diff_seq(chain)
        eta = unimod.contract_cycle_seq(xi, rng)
        if chains.diff_seq(eta) != xi:
            _fail(hom, f"seq cycle {i}", "d(eta) = xi", "violated")
        # skew complex
        q = rng.randint(1, 3)
        chain = chains.FormalSum.collect(
            (random_skew_plus(field, q + 1, rng), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3)))
        xi = chains.diff_skew(chain)
        eta = unimod.contract_cycle_skew(xi, rng)
        if chains.diff_skew(eta) != xi:
            _fail(hom, f"skew cycle {i}", "d(eta) = xi", "violated")
    hom.stop()
    return [rep, hom]


def suite_appendix(field: Field, rng, trials: int = 100):
    """The three published 20-row tables plus the seven-term certificate."""
    reports = gamma.verify_appendix(["rows", "corner", "woven"], trials, rng, field)
    cert = Report(check="appendix:seven-term-certificate", field=field.flag(),
                  trials=trials)
    for i in range(trials):
        values = gamma.sample_family_values("rows", field, rng)
        target = gamma.seven_term_relation(values, field)
        certificate = gamma.seven_term_certificate(values, field)
        if not gamma.check_certificate(target, certificate, 2):
            cert.failures.append({
                "triple": None,
                "specialization": {k: v.literal() for k, v in values.items()},
                "expected": "certificate match", "got": "mismatch"})
    cert.stop()
    return reports + [cert]


def _oracle_report(check: str, field: Field, rng, size: int, matrices: int):
    """Oracle against ratio on every triple of random certified matrices
    of one size, plus independence from the free parameters."""
    triples = list(combinations(range(1, size + 1), 3))
    rep = Report(check=check, field=field.flag(), trials=matrices * len(triples))
    for _ in range(matrices):
        a = random_skew_plus(field, size, rng)
        for triple in triples:
            c = gamma.gamma_oracle_c(a, triple)
            r = gamma.pfaffian_ratio(a, triple)
            if c != r:
                rep.failures.append({
                    "triple": list(triple),
                    "specialization": {"matrix": repr(a)},
                    "expected": r.literal(), "got": c.literal()})
        triple = tuple(sorted(rng.sample(range(1, size + 1), 3)))
        betas = [field.sample(rng, 6) for _ in range(3)]
        if gamma.gamma_oracle_c(a, triple, betas=betas) != \
                gamma.gamma_oracle_c(a, triple):
            rep.failures.append({
                "triple": list(triple), "specialization": {"betas": "random"},
                "expected": "independence", "got": "dependence"})
    rep.stop()
    return rep


def suite_gamma_oracle(field: Field, rng, matrices: int = 50):
    """Oracle against ratio on every triple of `matrices` random certified
    6x6 matrices, then of a few 8x8 ones, each with one independence
    check of the free parameters; then gamma of the boundary of a few
    certified matrices of sizes 7 and 9, which must vanish."""
    few = max(matrices // 25, 1)
    reports = [_oracle_report("gamma:oracle-vs-ratio", field, rng, 6, matrices),
               _oracle_report("gamma:oracle-vs-ratio-8", field, rng, 8, few)]
    bd = Report(check="gamma:boundaries", field=field.flag(), trials=2 * few)
    for size in (7, 9):
        for _ in range(few):
            b = random_skew_plus(field, size, rng)
            faces = chains.boundary(chains.FormalSum.generator(b))
            if not gamma.check_certificate(chains.FormalSum.zero(),
                                           [(c, g) for g, c in faces.items()],
                                           (size - 3) // 2):
                bd.failures.append({
                    "triple": None, "specialization": {"matrix": repr(b)},
                    "expected": "gamma(d b) = 0", "got": "nonzero"})
    bd.stop()
    return reports + [bd]


def suite_units(field: Field, rng, searches: int = 10):
    """Unit searches: inverse triples and both w-witness variants."""
    rep = Report(check="units:searches", field=field.flag(), trials=searches)
    for i in range(searches):
        try:
            u1, u2, u3 = gamma.find_inverse_triple(field, rng, 100)
            if not (u1 + u2 + u3).is_zero() or \
                    (u1.inv() + u2.inv() + u3.inv()).is_zero():
                _fail(rep, f"triple {i}", "constraints", "violated")
            for variant in ("linear", "square"):
                b = field.sample_nonzero(rng, 8)
                w1, w2, w3, w = gamma.find_w_units(b, variant, field, rng, 100)
                sums = [w1, w2, w3, w1 + w2, w1 + w3, w2 + w3, w1 + w2 + w3]
                if any(s.is_zero() for s in sums) or w.is_zero():
                    _fail(rep, f"{variant} {i}", "constraints", "violated")
        except SkewplusError as exc:
            _fail(rep, f"search {i}", "success", repr(exc))
    rep.stop()
    return [rep]


def suite_sm(field: Field, rng, max_m: int = 12):
    """The alternating partial-sum elements for m = 1..max_m."""
    rep = Report(check="sm:construction", field=field.flag(), trials=max_m)
    for m in range(1, max_m + 1):
        try:
            units, sm = chains.build_sm(m, field, rng)
        except SkewplusError as exc:
            _fail(rep, f"m={m}", "construction", repr(exc))
            continue
        for size in range(1, m + 1):
            for subset in combinations(units, size):
                total = subset[0]
                for u in subset[1:]:
                    total = total + u
                if total.is_zero():
                    _fail(rep, f"m={m}", "nonzero partial sums", "zero sum")
        if sm.augmentation() != 1:
            _fail(rep, f"m={m}", "augmentation 1", sm.augmentation())
    rep.stop()
    return [rep]


# suite name -> (default trials, runner taking the trial count)
SUITES = {
    "pfaffian": (500, lambda field, rng, t: suite_pfaffian(field, rng, trials=t,
                                                           dw_trials=max(t * 2 // 5, 10))),
    "sections": (100, lambda field, rng, t: suite_sections(field, rng, trials=t,
                                                           spot=max(t // 2, 5))),
    "witt": (100, lambda field, rng, t: suite_witt(field, rng, trials=t)),
    "complexes": (200, lambda field, rng, t: suite_complexes(field, rng, trials=t,
                                                             cycles=max(t // 2, 5))),
    "appendix": (100, lambda field, rng, t: suite_appendix(field, rng, trials=t)),
    "gamma-oracle": (50, lambda field, rng, t: suite_gamma_oracle(field, rng, matrices=t)),
    "units": (10, lambda field, rng, t: suite_units(field, rng, searches=t)),
    "sm": (12, lambda field, rng, t: suite_sm(field, rng, max_m=t)),
}


# ---------------------------------------------------------------------------
# one-shot computations
# ---------------------------------------------------------------------------

def _load_matrix(path: str):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        # ValueError: not UTF-8, not JSON, or an integer past the digit limit
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"unreadable JSON in {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("a matrix file holds one JSON object")
    try:
        if obj.get("skew"):
            return SkewMatrix.from_json(obj)
        return SkewMatrix.from_matrix(Matrix.from_json(obj))
    except (KeyError, TypeError, FieldMismatch, DivisionByZero, ShapeMismatch) as exc:
        raise ParseError(f"malformed matrix object: {exc!r}") from None


def compute_pf(path: str) -> str:
    a = _load_matrix(path)
    if a.size % 2 != 0:
        raise ParseError(f"pf needs even size, got {a.size}")
    return pf_eliminate(a).literal()


def compute_gamma(path: str) -> list:
    a = _load_matrix(path)
    if a.size % 2 != 0 or a.size < 4:
        raise ParseError(f"gamma needs even size >= 4, got {a.size}")
    n = (a.size - 2) // 2
    return chains.formal_sum_to_json(gamma.gamma_map(SkewPlusMatrix.certify(a), n))


def compute_section(path: str, ambient: int | None) -> dict:
    a = _load_matrix(path)
    if ambient is None:
        ambient = a.size if a.size % 2 == 0 else a.size - 1
    if ambient < 0 or ambient % 2 or a.size > ambient + 1:
        raise ParseError(f"--ambient must be even with size <= ambient + 1, "
                         f"got {ambient} for size {a.size}")
    seq = sections.section_V(a.size, ambient, SkewPlusMatrix.certify(a))
    return seq.to_json()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def bench_pfaffian(max_n: int, rng, recursive_max: int = 13,
                   field: Field | None = None) -> dict:
    """Time both Pfaffian algorithms on random matrices over `field`
    (default Q): integer entries in -9..9 over Q, the field's own
    sampler with pool bound 9 otherwise.

    The recursive algorithm's cached state count grows exponentially, so
    it is skipped above `recursive_max` half-size; agreement is recorded
    wherever both ran.  The crossover is the first n where elimination
    is strictly faster."""
    field = Field.rationals() if field is None else field

    def entry():
        if field.kind == RATIONALS:
            return field.scalar(rng.randint(-9, 9))
        return field.sample(rng, 9)

    table = []
    crossover = None
    for n in range(1, max_n + 1):
        q = 2 * n
        a = SkewMatrix.from_upper(field, q, [entry() for _ in range(q * (q - 1) // 2)])
        t0 = time.perf_counter()
        pe = pf_eliminate(a)
        te = time.perf_counter() - t0
        row = {"n": n, "size": q, "eliminate_ms": round(te * 1000, 3)}
        if n <= recursive_max:
            t0 = time.perf_counter()
            pr = pf_recursive(a)
            tr = time.perf_counter() - t0
            row["recursive_ms"] = round(tr * 1000, 3)
            row["agree"] = pr == pe
            if crossover is None and te < tr:
                crossover = n
        table.append(row)
    return {"rows": table, "crossover_n": crossover}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewplus",
        description="exact verification suites for the skewplus library")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a property suite and emit a JSON report")
    pv.add_argument("suite", choices=sorted(SUITES) + ["all"])
    pv.add_argument("--trials", type=int, default=None,
                    help="main loop count of the suite (suite-specific default)")
    pv.add_argument("--seed", default=None,
                    help="integer seed or 'random' (default: fixed constant, "
                         f"overridable via ${SEED_ENV})")
    pv.add_argument("--field", default="q", help="q | fp:P | fpt:P (default q)")
    pv.add_argument("--output", default=None, help="also write the report here")

    pc = sub.add_parser("compute", help="one-shot evaluation of a serialized matrix")
    pc.add_argument("what", choices=["pf", "gamma", "section"])
    pc.add_argument("--input", required=True)
    pc.add_argument("--ambient", type=int, default=None,
                    help="ambient dimension 2n for section (default: smallest legal)")

    pb = sub.add_parser("bench", help="benchmark the Pfaffian algorithms")
    pb.add_argument("target", choices=["pfaffian"])
    pb.add_argument("--max-n", type=int, default=12)
    pb.add_argument("--recursive-max", type=int, default=None,
                    help="skip the recursive algorithm above this half-size "
                         "(default 13, or 7 over fpt:P)")
    pb.add_argument("--seed", default=None)
    pb.add_argument("--field", default="q", help="q | fp:P | fpt:P (default q)")
    pb.add_argument("--output", default=None)
    return parser


def _resolve_seed(arg) -> int:
    if arg is None:
        arg = os.environ.get(SEED_ENV) or DEFAULT_SEED
    elif arg == "random":
        return random.SystemRandom().randrange(2 ** 32)
    try:
        return int(arg)
    except ValueError:
        raise ParseError(f"seed must be an integer or 'random', got {arg!r}") from None


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "compute":
            return _run_compute(args)
        if args.command == "bench":
            return _run_bench(args)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkewplusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def _emit(payload: dict, output):
    text = json.dumps(payload, indent=2)
    print(text)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")


def _run_verify(args) -> int:
    field = Field.from_flag(args.field)
    if not field.is_infinite:
        raise ParseError("the verification suites sample from complements of "
                         "finitely many proper subspaces, which requires an infinite "
                         "field (the underlying results assume an infinite residue "
                         "field); use --field q or fpt:P")
    if args.trials is not None and args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    seed = _resolve_seed(args.seed)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        rng = random.Random(f"{seed}:{name}")
        default, suite = SUITES[name]
        reports.extend(suite(field, rng, default if args.trials is None else args.trials))
    passed = all(r.passed for r in reports)
    _emit({
        "command": f"verify {args.suite}",
        "config": {"seed": seed, "trials": args.trials, "field": args.field},
        "reports": [r.to_json() for r in reports],
        "passed": passed,
    }, args.output)
    return 0 if passed else 1


def _run_compute(args) -> int:
    if args.what == "pf":
        print(compute_pf(args.input))
    elif args.what == "gamma":
        print(json.dumps(compute_gamma(args.input), indent=2))
    else:
        print(json.dumps(compute_section(args.input, args.ambient), indent=2))
    return 0


def _run_bench(args) -> int:
    field = Field.from_flag(args.field)
    # pf_recursive's time grows about 3x per step of n on every field,
    # and an F_p(t) expansion costs about 5x a Q one of the same size
    if args.recursive_max is None:
        args.recursive_max = 7 if field.kind == FUNCTION_FIELD else 13
    # a run that timed no matrix, or compared none, checked nothing
    for flag, value in (("--max-n", args.max_n), ("--recursive-max", args.recursive_max)):
        if value < 1:
            raise ParseError(f"{flag} must be at least 1, got {value}")
    rng = random.Random(_resolve_seed(args.seed))
    result = bench_pfaffian(args.max_n, rng, recursive_max=args.recursive_max, field=field)
    agree = all(row.get("agree", True) for row in result["rows"])
    _emit({
        "command": "bench pfaffian",
        "config": {"max_n": args.max_n, "recursive_max": args.recursive_max,
                   "field": args.field},
        "result": result,
        "passed": agree,
    }, args.output)
    return 0 if agree else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
