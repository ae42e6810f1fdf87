"""Acceptance suite: every check runs at its full advertised scale.

Each test prints one pass/fail line with its elapsed time; all equality
assertions are exact (integer or field-element equality, never floats).
"""

import random
import time
from itertools import combinations

import pytest

from skewplus.chains import build_sm
from skewplus.cli import (
    bench_pfaffian,
    suite_appendix,
    suite_complexes,
    suite_gamma_oracle,
    suite_pfaffian,
    suite_sections,
    suite_units,
    suite_witt,
)
from skewplus.fields import Field
from skewplus.gamma import verify_appendix
from skewplus.pfaffian import SkewMatrix, pf_eliminate

Q = Field.rationals()

pytestmark = pytest.mark.acceptance


def _finish(name, budget_s, start, reports=None, extra_ok=True):
    elapsed = time.monotonic() - start
    ok = extra_ok and all(r.passed for r in (reports or []))
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"{status} - {name} ({elapsed:.1f}s, budget {budget_s}s)")
    for r in reports or []:
        assert r.passed, f"{r.check}: {r.failures[:3]}"
    assert extra_ok
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"


def test_c01_rows_table_and_collapse():
    """Row-constant family: Pfaffian closed form, all 20 table rows, and
    the seven-term collected sum, at 100 exact rational specializations."""
    start = time.monotonic()
    rng = random.Random(101)
    reports = verify_appendix(["rows"], 100, rng)
    _finish("rows family table, 100 specializations, 20 rows + collapse",
            5, start, reports)


def test_c02_corner_and_woven_tables():
    """The other two families: closed-form Pfaffians and 20 rows each."""
    start = time.monotonic()
    rng = random.Random(102)
    reports = verify_appendix(["corner", "woven"], 100, rng)
    _finish("corner and woven family tables, 100 specializations each",
            10, start, reports)


def test_c03_oracle_equivalence():
    """50 random certified 6x6 matrices, all 20 triples each: the
    group-theoretic oracle equals the Pfaffian ratio (1000 equalities);
    then 2 8x8 matrices, all 56 triples each, and gamma of the boundary
    of 2 certified matrices each of sizes 7 and 9 vanishes."""
    start = time.monotonic()
    rng = random.Random(103)
    reports = suite_gamma_oracle(Q, rng, matrices=50)
    _finish("oracle vs ratio, 50 matrices x 20 triples, 2 x 56 at size 8; "
            "gamma of 4 boundaries", 60, start, reports)


def test_c04_pfaffian_suite():
    """500 random skew matrices of size up to 8: square root of the
    determinant, congruence covariance, scaling, psi, and agreement of
    the two algorithms."""
    start = time.monotonic()
    rng = random.Random(104)
    reports = suite_pfaffian(Q, rng, trials=500, dw_trials=0)
    _finish("pfaffian identities, 500 random matrices", 30, start, reports)


def test_c05_three_term_minor_identity():
    """200 random certified matrices of sizes 8 and 10, random triples:
    the three-term Pfaffian minor identity holds exactly."""
    start = time.monotonic()
    rng = random.Random(105)
    reports = suite_pfaffian(Q, rng, trials=0, dw_trials=200)
    _finish("three-term minor identity, 200 random matrices", 30, start,
            [r for r in reports if r.check.endswith("dress-wenzel")])


def test_c06_sections():
    """Gram round trips for 2n <= 8 and 0 <= q <= 2n+1 at 100 random
    matrices each, 50 stability and face-compatibility spot checks, and
    unit-determinant triangular sections."""
    start = time.monotonic()
    rng = random.Random(106)
    reports = suite_sections(Q, rng, trials=100, spot=50)
    _finish("sections: round trip, stability, faces, det-1", 60, start, reports)


def test_c07_witt_extension():
    """100 random Gram-matching pairs of ranks up to 2n <= 8 extend to
    group elements restricting exactly."""
    start = time.monotonic()
    rng = random.Random(107)
    reports = suite_witt(Q, rng, trials=100)
    _finish("isometry extension, 100 random pairs", 30, start, reports)


def test_c08_complexes():
    """d o d = 0 on 200 random generators of each complex; both
    contracting homotopies invert the differential on 100 boundary-built
    cycles each."""
    start = time.monotonic()
    rng = random.Random(108)
    reports = suite_complexes(Q, rng, trials=200, cycles=100)
    _finish("complex differentials and contracting homotopies", 60, start,
            reports)


def test_c09_partial_sum_elements():
    """For m = 1..12 over Q the alternating unit element exists, all
    2^m - 1 partial sums are nonzero, and the augmentation is exactly 1."""
    start = time.monotonic()
    rng = random.Random(109)
    ok = True
    for m in range(1, 13):
        units, sm = build_sm(m, Q, rng)
        assert len(units) == m
        for size in range(1, m + 1):
            for subset in combinations(units, size):
                total = subset[0]
                for u in subset[1:]:
                    total = total + u
                assert not total.is_zero()
        assert sm.augmentation() == 1
    _finish("partial-sum unit elements m = 1..12", 30, start, extra_ok=ok)


def test_c10_seven_term_certificate():
    """100 random parameter tuples: the seven-brace relation equals the
    gamma image of the inverted-parameter matrix, as exact formal sums."""
    start = time.monotonic()
    rng = random.Random(110)
    reports = [r for r in suite_appendix(Q, rng, trials=100)
               if r.check == "appendix:seven-term-certificate"]
    _finish("seven-term certificate, 100 specializations", 10, start, reports)


def test_c11_unit_searches():
    """Inverse triples and both w-witness variants succeed over Q and
    over F_p(t) for p in {2, 3, 5} within 100 attempts; every witness
    satisfies its unit constraints and the companion alternating sum of
    squares vanishes (asserted inside the search)."""
    start = time.monotonic()
    ok = True
    reports = []
    for field in (Q, Field.function_field(2), Field.function_field(3),
                  Field.function_field(5)):
        rng = random.Random(111)
        reports.extend(suite_units(field, rng, searches=5))
    _finish("unit searches over Q and F_p(t), p in {2,3,5}", 60, start,
            reports, extra_ok=ok)


def test_c12_benchmark():
    """The two Pfaffian algorithms agree up to size 24; elimination
    finishes a 40x40 rational Pfaffian under a second; the crossover is
    recorded."""
    start = time.monotonic()
    rng = random.Random(112)
    result = bench_pfaffian(12, rng, recursive_max=12)
    assert all(row["agree"] for row in result["rows"] if "agree" in row)
    assert result["crossover_n"] is not None
    # elimination must be the faster algorithm by the top of the range
    last = result["rows"][-1]
    assert last["eliminate_ms"] < last["recursive_ms"]
    big = SkewMatrix.from_upper(
        Q, 40, [Q.scalar(rng.randint(-9, 9)) for _ in range(40 * 39 // 2)])
    t0 = time.perf_counter()
    pf_eliminate(big)
    elim_s = time.perf_counter() - t0
    assert elim_s < 1.0, f"40x40 elimination took {elim_s:.2f}s"
    _finish(f"benchmark: agreement to 24x24, 40x40 in {elim_s*1000:.0f}ms, "
            f"crossover n={result['crossover_n']}", 120, start)
