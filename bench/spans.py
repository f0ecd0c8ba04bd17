"""Span tracing at the layer boundaries of catlog, installed from outside.

The tracer replaces module attributes (the names a module imports from the
layer below, plus a few module globals that calls inside one module go
through) with wrappers.  Nothing under src/ is edited; `restore` puts the
originals back.  Each wrapper records one span (name, start, end, parent)
per outermost call.  A call whose parent span carries the same name is a
recursive call and runs without a span of its own, so `calls` counts
outermost entries.  Spans are kept in flat arrays until `summary` runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

# metric name -> (targets "module:attribute", optional hit predicate).
# A hit predicate turns the metric's results into a ratio of hits to calls.
BOUNDARIES = {
    "formulas.substitute": ([
        "catlog.kleisli:substitute", "catlog.consequence:substitute",
        "catlog.logic_cat:substitute", "catlog.quotient:substitute"], None),
    "formulas.enumerate": ([
        "catlog.kleisli:enumerate_slice", "catlog.consequence:enumerate_formulas",
        "catlog.quotient:enumerate_formulas", "catlog.quotient:enumerate_slice"], None),
    "formulas.fmt": ([
        "catlog.kleisli:fmt", "catlog.consequence:fmt", "catlog.logic_cat:fmt",
        "catlog.quotient:fmt", "catlog.cli:fmt"], None),
    "formulas.match": (["catlog.consequence:match"], lambda r: r is not None),
    "formulas.parse": ([
        "catlog.formulas:parse", "catlog.cli:parse", "catlog.dsl:parse"], None),
    "signatures.strict_extension": ([
        "catlog.kleisli:strict_extension", "catlog.logic_cat:strict_extension"], None),
    "kleisli.compose": ([
        "catlog.kleisli:kleisli_compose", "catlog.logic_cat:kleisli_compose",
        "catlog.quotient:kleisli_compose"], None),
    "kleisli.extension": ([
        "catlog.kleisli:flexible_extension", "catlog.logic_cat:flexible_extension",
        "catlog.quotient:flexible_extension"], None),
    "kleisli.morphism_enum": ([
        "catlog.kleisli:all_flexible_morphisms",
        "catlog.quotient:all_flexible_morphisms"], None),
    "kleisli.flatten": (["catlog.kleisli:flatten"], None),
    "kleisli.truncate": (["catlog.kleisli:truncate_slices"], None),
    "consequence.derives": ([
        "catlog.consequence:derives", "catlog.logic_cat:derives",
        "catlog.quotient:derives", "catlog.cli:derives"], lambda v: not v.is_unknown),
    "consequence.interderivable": ([
        "catlog.consequence:interderivable", "catlog.quotient:interderivable"], None),
    "consequence.search": (["catlog.consequence:search_proof"], None),
    "consequence.matrix": ([
        "catlog.consequence:matrix_consequence",
        "catlog.consequence:matrix_interderivable",
        "catlog.quotient:matrix_interderivable", "catlog.quotient:truth_function",
        "catlog.quotient:designation_function"], None),
    "consequence.verify": ([
        "catlog.consequence:verify_proof", "catlog.logic_cat:verify_proof"], None),
    "logic_cat.check_translation": ([
        "catlog.quotient:check_translation", "catlog.cli:check_translation"],
        lambda t: t.verified),
    "logic_cat.construct": ([
        "catlog.cli:fibring_unconstrained", "catlog.cli:fibring_constrained",
        "catlog.cli:product_logic", "catlog.cli:directed_colimit_logics",
        "catlog.dsl:bottom", "catlog.dsl:top"], None),
    "quotient.rigidity": (["catlog.cli:rigidity_probe"], None),
    "quotient.congruential": (["catlog.cli:is_congruential"], None),
    "quotient.weak_equivalence": (["catlog.cli:weak_equivalence"], None),
    "quotient.morphisms_equivalent": (["catlog.cli:morphisms_equivalent"], None),
    "quotient.lindenbaum": (["catlog.cli:lindenbaum_delta_check"], None),
    "quotient.closure": (["catlog.cli:congruential_closure"], None),
    "dsl.loads": (["catlog.dsl:loads"], None),
    "cli.main": (["catlog.cli:main"], None),
}


class Tracer:
    """In-memory spans with parent links; one instance per traced round."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hit=None):
        nid = self._id(name)
        stack, span_name = self._stack, self.span_name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and span_name[top] == nid:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hit is not None and hit(result):
                self.hits[name] = self.hits.get(name, 0) + 1
            return result

        return traced

    def span(self, name: str):
        """Context manager for a span opened by the benchmark's own code."""
        return _Span(self, self._id(name))

    def install(self, boundaries=BOUNDARIES) -> None:
        for name, (targets, hit) in boundaries.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    print(f"trace: {target} not found, skipped", file=sys.stderr)
                    continue
                self._restore.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hit))

    def restore(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: outermost calls, total and self seconds, hits,
        and the durations of every span (for latency percentiles)."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
        for name, count in self.hits.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})["hits"] = count
        return out

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [self.span_end[i] - self.span_start[i]
                for i in range(len(self.span_name)) if self.span_name[i] == nid]


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


class NoTracer:
    """Stand-in used by timed runs: spans cost one call and record nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()
