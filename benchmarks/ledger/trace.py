"""Harness-side tracing: timing wrappers around each layer's entry points.

The program under test is not edited.  ``Tracer.install`` replaces the
coarse entry points listed in ``TARGETS`` (one call per query, rule
round, batch or optimize -- never per tuple) with wrappers that record a
span ``[name, start, end, parent, op id]`` in memory.  A layer's *self*
time is its spans' duration minus what their child spans cover, so the
layers' self times add up to the traced time with nothing counted twice.

A target that no longer exists in ``src/`` is skipped and reported in
``Tracer.missing``; its metrics read 0, so end-to-end numbers survive a
refactor that removes or renames a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

#: (span name, module, dotted attribute).  The part of the span name
#: before the first dot is the layer (= the ``src/repro`` package).
TARGETS = [
    ("datalog.parse", "repro.datalog.parser", "parse_program"),
    ("datalog.parse", "repro.datalog.parser", "parse_query"),
    ("datalog.safety", "repro.datalog.safety", "exists_safe_order"),
    ("datalog.safety", "repro.datalog.safety", "ec_check"),
    ("datalog.safety", "repro.datalog.safety", "well_founded_order"),
    ("datalog.safety", "repro.datalog.graph", "DependencyGraph.check_stratified"),
    ("datalog.rewrite", "repro.datalog.adorn", "adorn_clique"),
    ("datalog.rewrite", "repro.datalog.magic", "magic_rewrite"),
    ("datalog.rewrite", "repro.datalog.magic", "supplementary_magic_rewrite"),
    ("datalog.rewrite", "repro.datalog.counting", "counting_rewrite"),
    ("storage.load", "repro.kb", "KnowledgeBase.facts"),
    ("storage.retract", "repro.kb", "KnowledgeBase.retract"),
    ("storage.stats", "repro.storage.statistics", "collect_statistics"),
    ("storage.index_build", "repro.storage.relation", "Relation.ensure_index"),
    ("storage.index_build", "repro.storage.relation", "DerivedRelation.ensure_index"),
    ("storage.batch_store", "repro.storage.relation", "Relation.batch_store"),
    ("storage.batch_store", "repro.storage.relation", "DerivedRelation.batch_store"),
    ("storage.batch_store", "repro.storage.columnar", "BatchStore.buckets_for"),
    ("cost.estimate_fixpoint", "repro.cost.estimates", "estimate_fixpoint"),
    ("cost.body_estimate", "repro.cost.estimates", "BodyEstimator.body_estimate"),
    ("optimizer.optimize", "repro.optimizer.optimizer", "Optimizer.optimize"),
    ("optimizer.kbz", "repro.optimizer.kbz", "kbz_order"),
    ("optimizer.anneal", "repro.optimizer.annealing", "annealing_order"),
    ("engine.run", "repro.engine.interpreter", "Interpreter.run"),
    ("engine.fixpoint", "repro.engine.fixpoint", "FixpointEngine.evaluate"),
    ("engine.batch", "repro.engine.batch", "BatchExecutor.execute"),
    ("engine.parallel", "repro.engine.parallel", "ParallelBatchExecutor.execute"),
    ("engine.row", "repro.engine.kernels", "CompiledRule.execute"),
    ("engine.kernel_compile", "repro.engine.kernels", "compile_rule"),
    ("engine.kernel_compile", "repro.engine.batch", "compile_batch_plan"),
    ("engine.decode", "repro.engine.interpreter", "QueryAnswers.to_python"),
    ("engine.view_insert", "repro.engine.maintenance", "ViewSet.insert"),
    ("engine.view_delete", "repro.engine.maintenance", "ViewSet.delete"),
    ("engine.view_build", "repro.engine.maintenance", "ViewSet.materialize"),
    ("obs.feedback", "repro.obs.feedback", "FeedbackStore.observe_plan"),
    ("obs.telemetry", "repro.obs.telemetry", "TelemetryLog.record"),
    ("kb.ask", "repro.kb", "KnowledgeBase.ask"),
    ("kb.compile", "repro.kb", "KnowledgeBase.compile"),
    ("kb.materialize", "repro.kb", "KnowledgeBase.materialize"),
    ("kb.txn_commit", "repro.kb", "KnowledgeBase.transaction"),
]

#: counters the optimizer keeps per ``Optimizer`` instance; the knowledge
#: base drops that instance on every write, so the wrapper sums deltas.
_OPTIMIZER_COUNTERS = ("order_evaluations", "cpermutations")
_PROFILER_COUNTERS = ("examined", "produced", "probes", "iterations")


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op_id = 0
        #: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: counts taken at the same boundaries as the spans
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []

    # ------------------------------------------------------------ recording

    def open(self, name: str) -> int:
        index = len(self.spans)
        stack = self._stack
        self.spans.append(
            [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id]
        )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, fn, name: str, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            token = pre(args) if pre is not None else None
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if post is not None:
                post(tracer, args, result, token)
            return result

        return wrapper

    def _wrap_commit(self, fn, name: str):
        """``kb.transaction()`` returns a context manager; the commit (or
        rollback) work happens in its ``__exit__``, which is what is
        timed.  Opening a transaction is not a span."""
        tracer = self

        class _Timed:
            def __init__(self, inner):
                self._inner = inner

            def __enter__(self):
                return self._inner.__enter__()

            def __exit__(self, *exc):
                if not tracer.enabled:
                    return self._inner.__exit__(*exc)
                index = tracer.open(name)
                try:
                    return self._inner.__exit__(*exc)
                finally:
                    tracer.close(index)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _Timed(fn(*args, **kwargs))

        return wrapper

    # ----------------------------------------------------------- installing

    def install(self) -> None:
        for name, module_name, dotted in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{dotted}")
                continue
            if name == "kb.txn_commit":
                wrapper = self._wrap_commit(original, name)
            else:
                wrapper = self._wrap(original, name, *_HOOKS.get(name, (None, None)))
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                # ``from .parser import parse_query`` bound the original in
                # other modules' globals; rebind those names too.
                for other in list(sys.modules.values()):
                    if other is owner or not getattr(other, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)

    # ------------------------------------------------------------ reporting

    def totals(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name over ``spans[lo:hi]`` (a range that starts and
        ends between top-level spans): calls, inclusive ms (outermost
        spans of that name only) and self ms."""
        spans = self.spans
        hi = len(spans) if hi is None else hi
        child_time = [0.0] * (hi - lo)
        for index in range(lo, hi):
            _name, start, end, parent, _op = spans[index]
            if parent >= lo:
                child_time[parent - lo] += end - start
        out: dict[str, dict[str, float]] = {}
        for index in range(lo, hi):
            name, start, end, parent, _op = spans[index]
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_time[index - lo]) * 1000.0
            while parent >= lo and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < lo:  # no enclosing span of the same name
                entry["ms"] += (end - start) * 1000.0
        return out

    def dump(self, path) -> None:
        """Spans as JSON lines: a name table, then one row per span."""
        import json

        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        with open(path, "w") as out:
            out.write(json.dumps({"schema": "repro.bench.spans/1", "names": names}) + "\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"[{code[name]},{start:.7f},{end:.7f},{parent},{op}]\n")


# ---------------------------------------------------------------- count hooks


def _optimize_pre(args):
    return dict(getattr(args[0], "counters", {}))


def _optimize_post(tracer: Tracer, args, result, before) -> None:
    after = getattr(args[0], "counters", {})
    for key in _OPTIMIZER_COUNTERS:
        tracer.add(f"optimizer.{key}", after.get(key, 0) - before.get(key, 0))
    cost = getattr(getattr(result, "est", None), "cost", None)
    if cost is not None and cost == cost and cost != float("inf"):
        tracer.add("optimizer.plan_cost_sum", cost)


def _run_post(tracer: Tracer, args, result, _token) -> None:
    profiler = getattr(result, "profiler", None)
    for key in _PROFILER_COUNTERS:
        tracer.add(f"engine.{key}", getattr(profiler, key, 0))


def _load_post(tracer: Tracer, args, result, _token) -> None:
    if isinstance(result, int):
        tracer.add("storage.load_rows", result)


def _view_post(tracer: Tracer, args, result, _token) -> None:
    if isinstance(result, dict):
        tracer.add("engine.view_delta_rows", sum(len(rows) for rows in result.values()))


def _parallel_post(tracer: Tracer, args, result, _token) -> None:
    workers = getattr(args[0], "workers", 0)
    tracer.counts["engine.parallel_workers"] = max(
        tracer.counts.get("engine.parallel_workers", 0), workers
    )


def _telemetry_post(tracer: Tracer, args, result, _token) -> None:
    if isinstance(result, dict):
        tier = result.get("tier", "?")
        tracer.add(f"tier.{tier}", 1)
        if tier == "view":
            tracer.add("kb.view_read_ms", result.get("wall_ms", 0.0))


_HOOKS = {
    "optimizer.optimize": (_optimize_pre, _optimize_post),
    "engine.run": (None, _run_post),
    "storage.load": (None, _load_post),
    "engine.view_insert": (None, _view_post),
    "engine.view_delete": (None, _view_post),
    "engine.parallel": (None, _parallel_post),
    "obs.telemetry": (None, _telemetry_post),
}
