"""Outside-in tracing of the skewplus layers.

`Tracer.install` replaces the listed public functions with wrappers that
record one span each (name, start, end, parent span, operation id, size),
in the defining module and in every module that imported the function,
and wraps the `Scalar` arithmetic and `Field.scalar` methods with plain
counters: spans on millions of scalar operations would distort the run.
`uninstall` puts every original back.  Spans stay in memory until the
benchmark writes them out at the end.

Two private hooks are wrapped as well, because the quantities they carry
have no public boundary: `unimod._sampler_loop` (sampler attempts and
successes) and `unimod._contract_skew` (one span per surgery level, where
the search exhausts).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, name, what is recorded): a span, a span with the
# size of the first argument, or only a call count
SPAN, SIZED, COUNT = "span", "sized", "count"
TARGETS = [
    ("skewplus.matrices", "Matrix.det", "matrices.det", SPAN),
    ("skewplus.matrices", "Matrix.rank", "matrices.rank", SPAN),
    ("skewplus.matrices", "Matrix.inverse", "matrices.inverse", SPAN),
    ("skewplus.matrices", "Matrix.solve", "matrices.solve", SPAN),
    ("skewplus.matrices", "Matrix.solve_any", "matrices.solve_any", SPAN),
    ("skewplus.matrices", "Matrix.nullspace", "matrices.nullspace", SPAN),
    ("skewplus.matrices", "Matrix.__mul__", "matrices.mul", SPAN),
    ("skewplus.matrices", "Matrix.transpose", "matrices.transpose", SPAN),
    ("skewplus.matrices", "Matrix.apply_vector", "matrices.apply_vector", SPAN),
    ("skewplus.pfaffian", "pf_eliminate", "pfaffian.pf_eliminate", SIZED),
    ("skewplus.pfaffian", "pf_recursive", "pfaffian.pf_recursive", SIZED),
    ("skewplus.pfaffian", "is_skew_plus", "pfaffian.is_skew_plus", SPAN),
    # the table is the work of certification: counted, its time left to is_skew_plus
    ("skewplus.pfaffian", "even_principal_pfaffians", "pfaffian.even_principal_pfaffians", COUNT),
    ("skewplus.unimod", "is_nondeg_unimodular", "unimod.is_nondeg_unimodular", SPAN),
    ("skewplus.unimod", "is_good_position", "unimod.is_good_position", SPAN),
    ("skewplus.unimod", "good_position_sample", "unimod.good_position_sample", SPAN),
    ("skewplus.unimod", "star_is_certified", "unimod.star_is_certified", SPAN),
    ("skewplus.unimod", "skew_plus_extend", "unimod.skew_plus_extend", SPAN),
    ("skewplus.unimod", "constant_border_obstructed", "unimod.constant_border_obstructed", SPAN),
    ("skewplus.unimod", "contract_cycle_seq", "unimod.contract_cycle_seq", SPAN),
    ("skewplus.unimod", "contract_cycle_skew", "unimod.contract_cycle_skew", SPAN),
    ("skewplus.unimod", "_contract_skew", "unimod._contract_skew", SPAN),
    ("skewplus.symplectic", "witt_extend", "symplectic.witt_extend", SPAN),
    ("skewplus.symplectic", "is_sp_member", "symplectic.is_sp_member", SPAN),
    ("skewplus.sections", "section_V", "sections.section_V", SPAN),
    ("skewplus.sections", "section_v_det1", "sections.section_v_det1", SPAN),
    ("skewplus.gamma", "gamma_map", "gamma.gamma_map", SPAN),
    ("skewplus.gamma", "gamma_terms", "gamma.gamma_terms", SPAN),
    ("skewplus.gamma", "pfaffian_ratio", "gamma.pfaffian_ratio", SPAN),
    ("skewplus.gamma", "gamma_oracle_c", "gamma.gamma_oracle_c", SPAN),
    ("skewplus.chains", "boundary", "chains.boundary", SPAN),
]

SCALAR_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__neg__", "inv", "__pow__")

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    def __init__(self, extra_modules=()):
        self.spans = []
        self.op_id = -1
        self.scalar_ops = Counter()
        self.counts = Counter()
        self.coerce_calls = 0
        self.sampler_tests = 0
        self.sampler_hits = 0
        self._exhausted = {}
        self._stack = []
        self._undo = []
        self._extra_modules = tuple(extra_modules)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        from skewplus.errors import SamplerExhausted
        from skewplus.fields import Field, Scalar

        self._exhaustion_type = SamplerExhausted
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "skewplus" or n.startswith("skewplus.")]
        modules += list(self._extra_modules)
        for module_name, path, name, kind in TARGETS:
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = (self._count(name, original) if kind == COUNT
                       else self._span(name, original, kind == SIZED))
            if classes:
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapped)
        unimod = sys.modules["skewplus.unimod"]
        self._set(unimod, "_sampler_loop", self._sampler(unimod._sampler_loop))
        for name in SCALAR_METHODS:
            self._set(Scalar, name, self._counted(Scalar.__dict__[name]))
        self._set(Field, "scalar", self._coerce(Field.__dict__["scalar"]))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, sized):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        exhaustion = self._exhaustion_type

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except exhaustion as exc:
                self._exhausted.setdefault(id(exc), exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id,
                              args[0].size if sized else 0)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _sampler(self, fn):
        @functools.wraps(fn)
        def wrapper(test, draw, max_attempts, what):
            def counted_test(candidate):
                self.sampler_tests += 1
                return test(candidate)
            try:
                found = fn(counted_test, draw, max_attempts, what)
            except self._exhaustion_type as exc:
                self._exhausted.setdefault(id(exc), exc)
                raise
            self.sampler_hits += 1
            return found
        return wrapper

    def _counted(self, fn):
        counts = self.scalar_ops

        @functools.wraps(fn)
        def wrapper(scalar, *args):
            counts[scalar.field.kind] += 1
            return fn(scalar, *args)
        return wrapper

    def _coerce(self, fn):
        @functools.wraps(fn)
        def wrapper(field, value):
            self.coerce_calls += 1
            return fn(field, value)
        return wrapper

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric, from the spans and counters recorded."""
        calls = Counter(self.counts)
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        eliminate_sizes = 0
        for span, own in zip(self.spans, self_times(self.spans)):
            name = span[NAME]
            calls[name] += 1
            self_ns[name] += own
            total_ns[name] += span[END] - span[START]
            if name == "pfaffian.pf_eliminate":
                eliminate_sizes += span[SIZE]

        def self_s(*names):
            return sum(self_ns[n] for n in names) / 1e9

        matrices = [n for n in calls if n.startswith("matrices.")]
        eliminations = calls["pfaffian.pf_eliminate"]
        return {
            "fields.scalar_ops.q": self.scalar_ops["rationals"],
            "fields.scalar_ops.fp": self.scalar_ops["prime"],
            "fields.scalar_ops.fpt": self.scalar_ops["function_field"],
            "fields.coerce_calls": self.coerce_calls,
            "matrices.calls": sum(calls[n] for n in matrices),
            "matrices.det_calls": calls["matrices.det"],
            "matrices.self_s": self_s(*matrices),
            "pfaffian.eliminate_calls": eliminations,
            "pfaffian.eliminate_mean_size": eliminate_sizes / eliminations if eliminations else 0.0,
            "pfaffian.eliminate_self_s": self_s("pfaffian.pf_eliminate"),
            "pfaffian.recursive_self_s": self_s("pfaffian.pf_recursive"),
            "pfaffian.certify_calls": calls["pfaffian.is_skew_plus"],
            "pfaffian.certify_self_s": self_s("pfaffian.is_skew_plus"),
            "pfaffian.table_calls": calls["pfaffian.even_principal_pfaffians"],
            "unimod.star_is_certified_calls": calls["unimod.star_is_certified"],
            "unimod.star_is_certified_self_s": self_s("unimod.star_is_certified"),
            "unimod.border_obstructed_calls": calls["unimod.constant_border_obstructed"],
            "unimod.border_obstructed_self_s": self_s("unimod.constant_border_obstructed"),
            "unimod.good_position_calls": calls["unimod.is_good_position"],
            "unimod.good_position_self_s": self_s("unimod.is_good_position"),
            "unimod.surgery_extends": calls["unimod.skew_plus_extend"],
            "unimod.sampler_exhausted": len(self._exhausted),
            "unimod.sampler_yield": (self.sampler_hits / self.sampler_tests
                                     if self.sampler_tests else 0.0),
            "unimod.contract_skew_s": total_ns["unimod.contract_cycle_skew"] / 1e9,
            "unimod.contract_seq_s": total_ns["unimod.contract_cycle_seq"] / 1e9,
            "symplectic.witt_extend_calls": calls["symplectic.witt_extend"],
            "symplectic.witt_extend_self_s": self_s("symplectic.witt_extend"),
            "symplectic.is_sp_member_self_s": self_s("symplectic.is_sp_member"),
            "sections.section_calls": calls["sections.section_V"] + calls["sections.section_v_det1"],
            "sections.section_self_s": self_s("sections.section_V", "sections.section_v_det1"),
            "gamma.terms_self_s": self_s("gamma.gamma_terms"),
            "gamma.ratio_calls": calls["gamma.pfaffian_ratio"],
            "gamma.ratio_self_s": self_s("gamma.pfaffian_ratio"),
            "gamma.oracle_self_s": self_s("gamma.gamma_oracle_c"),
            "chains.boundary_calls": calls["chains.boundary"],
            "chains.boundary_self_s": self_s("chains.boundary"),
        }

    def spans_json(self) -> dict:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"fields": ["name", "start_ns", "end_ns", "parent", "op", "size"],
                "names": names,
                "spans": [[index[s[NAME]], *s[START:]] for s in self.spans]}


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover.

    Children are the spans whose parent index points at the span; their
    intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        run_start = run_end = None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out
