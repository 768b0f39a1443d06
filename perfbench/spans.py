"""Spans around the calls into darbouxlab's layers, taken from outside.

`Tracer.install()` replaces module and class attributes of the imported
program with timing wrappers; `restore()` puts the originals back.  The
program itself is not changed.  A function that modules bound with
`from .x import f` is replaced in every darbouxlab module that holds it, so
calls through the importing module's name are timed too.  A seam the program
no longer has is recorded as absent and skipped.

A span is `[name, start, end, parent, job, calls, busy, counts]`.  Ordinary
spans have calls == 1 and busy == end - start.  Calls made many thousand
times (the compiled right-hand side, exact RREF, Lie derivatives) are folded
into one aggregate span per (parent, name), whose busy time is the sum of
its calls.  A layer's self time is its busy time minus its children's.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

NAME, START, END, PARENT, JOB, CALLS, BUSY, COUNTS = range(8)


def _rank_counts(args, result, counts):
    mats = args[0]
    counts["tests"] = counts.get("tests", 0) + int(mats.shape[0])
    if mats.ndim == 3:
        rejected = int((result == mats.shape[2]).sum())
        counts["rejected"] = counts.get("rejected", 0) + rejected


def _rref_counts(args, result, counts):
    counts["cells"] = counts.get("cells", 0) + args[0].rows * args[0].cols


def _len_counts(key):
    def note(args, result, counts):
        counts[key] = counts.get(key, 0) + len(result)
    return note


# (module, attribute, span name, aggregate?, counts hook).  A dotted
# attribute names a method on a class of that module.
SEAMS = (
    ("darbouxlab.cli", "main", "cli.main", False, None),
    ("darbouxlab.field", "load_field", "field.load", False, None),
    ("darbouxlab.field", "lie_derivative", "field.lie_derivative", True, None),
    ("darbouxlab.darboux", "search_darboux", "darboux.search", False,
     _len_counts("certs")),
    ("darbouxlab.darboux", "rational_obstruction", "darboux.obstruction",
     False, None),
    ("darbouxlab.darboux", "search_exp_factors", "darboux.expfactors",
     False, None),
    ("darbouxlab.darboux", "assemble_darboux_integrals", "darboux.assemble",
     False, None),
    ("darbouxlab.darboux", "_candidate_cofactors", "darboux.screen", False,
     _len_counts("candidates")),
    ("darbouxlab.darboux", "enumerate_cofactors", "darboux.enumerate",
     False, None),
    ("darbouxlab.darboux", "_LatticeBoxes.sections", "darboux.sections",
     False, None),
    ("darbouxlab.darboux", "search_darboux_fixed_cofactor",
     "darboux.fixed_solve", False, None),
    ("darbouxlab.darboux", "divides", "darboux.divides", True, None),
    ("darbouxlab._modp", "batched_rank", "modp.rank", False, _rank_counts),
    ("darbouxlab._modp", "batched_combination", "modp.combine", False, None),
    ("darbouxlab._modp", "fraction_rows_to_modp", "modp.convert", True, None),
    ("darbouxlab.exactcore", "RatMatrix.rref", "exactcore.rref", True,
     _rref_counts),
    ("darbouxlab.series", "formal_integral_space", "series.formal", False,
     None),
    ("darbouxlab.numerics", "simulate", "numerics.simulate", False, None),
    ("darbouxlab.numerics", "lyapunov_max", "numerics.lyapunov", False, None),
    ("darbouxlab.numerics", "conservation_drift", "numerics.drift", False,
     None),
    ("darbouxlab.numerics", "_DormandPrince.advance", "numerics.advance",
     False, None),
)
# factories whose returned closures are timed as aggregate spans
CLOSURE_FACTORIES = (
    ("darbouxlab.numerics", "compile_rhs", "numerics.rhs"),
    ("darbouxlab.numerics", "compile_jacobian", "numerics.jacobian"),
)


class Tracer:
    """In-memory span recorder for one job process."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self.stack: list[int] = []        # indices of open spans
        self.aggregates: dict[tuple, int] = {}
        self.patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording ------------------------------------------------------------

    def _parent(self) -> int:
        return self.stack[-1] if self.stack else -1

    def span(self, name: str, fn, note=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, _clock(), None, self._parent(), self.job, 1, 0.0, {}]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(args, result, record[COUNTS])
                return result
            finally:
                stack.pop()
                record[END] = _clock()
                record[BUSY] = record[END] - record[START]
        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self, name: str, fn, note=None):
        spans, aggregates = self.spans, self.aggregates

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                key = (self._parent(), name)
                index = aggregates.get(key)
                if index is None:
                    index = aggregates[key] = len(spans)
                    spans.append([name, start, end, key[0], self.job, 0, 0.0, {}])
                record = spans[index]
                record[END] = end
                record[CALLS] += 1
                record[BUSY] += end - start
            if note is not None:
                note(args, result, record[COUNTS])
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _advance(self, fn):
        """Stepper spans also count accepted and rejected steps."""
        timed = self.span("numerics.advance", fn)
        spans = self.spans

        def advance(stepper, *args, **kwargs):
            accepted, rejected = stepper.n_accepted, stepper.n_rejected
            index = len(spans)
            try:
                return timed(stepper, *args, **kwargs)
            finally:
                counts = spans[index][COUNTS]
                counts["accepted"] = stepper.n_accepted - accepted
                counts["rejected"] = stepper.n_rejected - rejected
        advance.__wrapped__ = fn
        return advance

    def _factory(self, name: str, fn):
        def factory(*args, **kwargs):
            return self.aggregate(name, fn(*args, **kwargs))
        factory.__wrapped__ = fn
        return factory

    # -- patching ---------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module: str, attr: str, make) -> None:
        """Replace `attr` in its module and wherever else it was imported."""
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None)
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for name, other in sorted(sys.modules.items()):
            if (name == "darbouxlab" or name.startswith("darbouxlab.")) \
                    and other is not None \
                    and other.__dict__.get(attr) is original:
                self._replace(other, attr, wrapper)

    def install(self) -> "Tracer":
        for module, attr, name, agg, note in SEAMS:
            wrap = self.aggregate if agg else self.span
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(sys.modules.get(module), cls_name, None)
                if cls is None or method not in cls.__dict__:
                    self.absent.append(f"{module}.{attr}")
                    continue
                original = cls.__dict__[method]
                new = (self._advance(original) if name == "numerics.advance"
                       else wrap(name, original, note))
                self._replace(cls, method, new)
            else:
                self._patch_function(module, attr,
                                     lambda fn, w=wrap, n=name, h=note: w(n, fn, h))
        for module, attr, name in CLOSURE_FACTORIES:
            self._patch_function(module, attr,
                                 lambda fn, n=name: self._factory(n, fn))
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


# -- per-layer metrics from spans ------------------------------------------------

PER_LAYER = (
    ("darboux.sections_s", "s"), ("darboux.sections_calls", "count"),
    ("darboux.screen_self_s", "s"), ("darboux.enumerate_s", "s"),
    ("darboux.candidates", "count"), ("darboux.fixed_solves", "count"),
    ("darboux.fixed_solve_s", "s"), ("darboux.certs_per_solve", "ratio"),
    ("darboux.search_s", "s"), ("darboux.obstruction_s", "s"),
    ("darboux.expfactors_s", "s"), ("darboux.assemble_s", "s"),
    ("darboux.product_filter_s", "s"),
    ("modp.rank_s", "s"), ("modp.rank_tests", "count"),
    ("modp.rank_reject_ratio", "ratio"), ("modp.combine_s", "s"),
    ("modp.convert_s", "s"),
    ("exactcore.rref_s", "s"), ("exactcore.rref_calls", "count"),
    ("exactcore.rref_cells", "count"),
    ("field.load_s", "s"), ("field.lie_derivative_calls", "count"),
    ("field.lie_derivative_s", "s"),
    ("series.formal_s", "s"), ("cli.self_s", "s"),
    ("numerics.simulate_s", "s"), ("numerics.lyapunov_s", "s"),
    ("numerics.drift_s", "s"), ("numerics.rhs_evals", "count"),
    ("numerics.rhs_s", "s"), ("numerics.rhs_evals_per_step", "ratio"),
    ("numerics.stepper_self_s", "s"), ("numerics.jacobian_evals", "count"),
    ("numerics.steps_accepted", "count"), ("numerics.steps_rejected", "count"),
)


def self_times(spans: list[list]) -> list[float]:
    """Busy time of each span minus the busy time of its direct children.

    Parent indices are local to one job, so `spans` must hold one job's spans
    in recording order.
    """
    own = [s[BUSY] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[BUSY]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(jobs: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics summed over the given jobs' span lists."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    counts = defaultdict(int)
    product_filter = 0.0
    for spans in jobs:
        for s, self_s in zip(spans, self_times(spans)):
            name = s[NAME]
            busy[name] += s[BUSY]
            calls[name] += s[CALLS]
            own[name] += self_s
            for key, value in s[COUNTS].items():
                counts[f"{name}.{key}"] += value
            if name == "darboux.divides" and s[PARENT] >= 0 \
                    and spans[s[PARENT]][NAME] == "darboux.search":
                product_filter += s[BUSY]
    accepted = counts["numerics.advance.accepted"]
    return {
        "darboux.sections_s": busy["darboux.sections"],
        "darboux.sections_calls": calls["darboux.sections"],
        "darboux.screen_self_s": own["darboux.screen"],
        "darboux.enumerate_s": busy["darboux.enumerate"],
        "darboux.candidates": counts["darboux.screen.candidates"],
        "darboux.fixed_solves": calls["darboux.fixed_solve"],
        "darboux.fixed_solve_s": busy["darboux.fixed_solve"],
        "darboux.certs_per_solve": _ratio(counts["darboux.search.certs"],
                                          calls["darboux.fixed_solve"]),
        "darboux.search_s": busy["darboux.search"],
        "darboux.obstruction_s": busy["darboux.obstruction"],
        "darboux.expfactors_s": busy["darboux.expfactors"],
        "darboux.assemble_s": busy["darboux.assemble"],
        "darboux.product_filter_s": product_filter,
        "modp.rank_s": busy["modp.rank"],
        "modp.rank_tests": counts["modp.rank.tests"],
        "modp.rank_reject_ratio": _ratio(counts["modp.rank.rejected"],
                                         counts["modp.rank.tests"]),
        "modp.combine_s": busy["modp.combine"],
        "modp.convert_s": busy["modp.convert"],
        "exactcore.rref_s": busy["exactcore.rref"],
        "exactcore.rref_calls": calls["exactcore.rref"],
        "exactcore.rref_cells": counts["exactcore.rref.cells"],
        "field.load_s": busy["field.load"],
        "field.lie_derivative_calls": calls["field.lie_derivative"],
        "field.lie_derivative_s": busy["field.lie_derivative"],
        "series.formal_s": busy["series.formal"],
        "cli.self_s": own["cli.main"],
        "numerics.simulate_s": busy["numerics.simulate"],
        "numerics.lyapunov_s": busy["numerics.lyapunov"],
        "numerics.drift_s": busy["numerics.drift"],
        "numerics.rhs_evals": calls["numerics.rhs"],
        "numerics.rhs_s": busy["numerics.rhs"],
        "numerics.rhs_evals_per_step": _ratio(calls["numerics.rhs"], accepted),
        "numerics.stepper_self_s": own["numerics.advance"],
        "numerics.jacobian_evals": calls["numerics.jacobian"],
        "numerics.steps_accepted": accepted,
        "numerics.steps_rejected": counts["numerics.advance.rejected"],
    }


def top_self(spans: list[list], n: int = 4) -> list[tuple[str, float]]:
    """The n layers with the largest self time in one job."""
    own = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        own[s[NAME]] += self_s
    return sorted(own.items(), key=lambda kv: -kv[1])[:n]


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
