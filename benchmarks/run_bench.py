#!/usr/bin/env python
"""Replay the EXP workloads across engine tiers and record the trajectory.

Runs the evaluation hot path per workload in five configurations — the
default engine (columnar batch tier + kernel compiler + incremental
delta indexing + resource governor, tracing off), the same engine with
the batch tier disabled (``batch=False``: the PR3 compiled-row
baseline), the default engine with governance disabled
(``governor=False``), the default engine with a live span
:class:`~repro.obs.tracer.Tracer` attached, and the ``compile=False``
interpreted reference path — verifies all produce identical answers,
and writes a JSON report with wall time, measured tuple work, speedups,
per-workload profiler and metrics snapshots, and the overhead ratios:

    PYTHONPATH=src python benchmarks/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_bench.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/run_bench.py --out path.json
    PYTHONPATH=src python benchmarks/run_bench.py --max-overhead 1.03
    PYTHONPATH=src python benchmarks/run_bench.py --min-warm-speedup 5

``--max-overhead`` turns the run into a gate: exit 1 if the
default/ungoverned wall ratio (*traced-off overhead*: every
observability hook present but holding the NullTracer, plus the
governor's cooperative ticks) exceeds the bound — the budget for PR3 is
<3% on full sizes.  Arms run interleaved round-robin and each
per-workload ratio is the median of pairwise same-round ratios, then
the gate averages them with wall-time weights, so machine-speed drift
cancels and the second-scale recursion workloads carry the verdict.
``tracer_overhead`` (tracing actually ON) is recorded informationally.
``batch_speedup`` (row wall / batch wall) is the PR5 A/B: the summary
reports its geomean overall and over the EXP-9 large-delta family.

``--min-warm-speedup`` gates the warm-cache workload: a repeated query
against an unchanged database must be served from the cross-query
result cache at least that many times faster than the cold run.

The ``feedback_skew`` arm is the PR8 est/act-loop gate: a skewed join
whose static estimate is wrong by an order of magnitude runs cold, the
cardinality feedback store harvests the actuals, the worst q-error
crosses the re-optimization threshold, and the *second* run executes a
different, learned plan.  ``--min-feedback-gain`` gates the measured
tuple-work ratio (first plan work / learned plan work — deterministic,
no timers involved); the entry also requires the plans to differ and
the answers to stay identical.  ``feedback_overhead`` is the cost of
the always-on collector: ``kb.ask`` with the feedback harvest vs
``feedback=False``, tracing off, caches off — gated by
``--max-feedback-overhead`` (budget <=1.05x).

The ``txn`` arm is the PR7 robustness-tax gate: a bulk load + retract
batch inside ``with kb.transaction():`` vs bare.  The ratio must sit at
noise level; ``--max-overhead`` bounds it alongside the traced-off
ratio.

The ``streaming_ingest`` arm is the PR9 write-path gate: interleaved
ask/insert/retract against a maintained transitive closure.
``--min-ivm-gain`` bounds from below the measured tuple-work ratio of a
from-scratch re-materialization over an incremental single-edge update
(counting/DRed delta propagation must be O(|delta|), not O(program));
``--min-warm-hit-rate`` requires the result cache to keep serving a
repeated query while every intervening write lands in an unrelated
relation (footprint-keyed invalidation, never global fencing).

The ``optimizer_scalability`` arm is the PR10 plan-search gate: the same
wide-conjunction + multi-clique workload is optimized under
``search="bb"`` (memoized branch-and-bound enumeration) and
``search="full"`` (the un-pruned baseline).  ``--min-enum-speedup``
bounds from below the deterministic ``plans_costed`` ratio (full /
pruned) and additionally requires the two searches to produce
cost-identical plans — the admissibility contract that makes the
pruning safe.  The optimize-wall ratio is recorded informationally.

The default output is ``BENCH_PR10.json`` at the repository root; each
PR bumps the suffix so the perf trajectory stays reviewable in-tree
(``benchmarks/compare_bench.py`` prints the BENCH_PR*.json series).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import KnowledgeBase, OptimizerConfig, Tracer  # noqa: E402
from repro.engine import Interpreter, Profiler  # noqa: E402
from repro.storage import Database  # noqa: E402
from repro.workloads import (  # noqa: E402
    bill_of_materials,
    random_dag,
    same_generation_instance,
)

ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."


def rows_of(db: Database, name: str) -> list[tuple]:
    return [tuple(f.value for f in row) for row in db.relation(name)]


class _Arm:
    """One engine configuration being timed (best-of-N, interleaved).

    Each repetition builds a fresh Interpreter so no memoized extensions
    carry over.  With ``governed=False`` the interpreter runs through
    the ``governor=False`` escape hatch — no ticks, no guards — the A/B
    baseline for the instrumentation overhead.  With ``traced=True``
    each repetition records a full span tree into a fresh in-memory
    Tracer (no sink): the cost of tracing actually being ON.
    """

    def __init__(self, kb, compiled, bindings, compile=True, governed=True,
                 traced=False, batch=True):
        self.kb = kb
        self.compiled = compiled
        self.bindings = bindings
        self.compile = compile
        self.governed = governed
        self.traced = traced
        self.batch = batch
        self.best_wall = float("inf")
        self.walls: list[float] = []
        self.work = 0
        self.answers = None
        self.snapshot: dict = {}
        self.span_count = 0

    def run_once(self, timed: bool = True) -> None:
        profiler = Profiler()
        tracer = Tracer(profiler) if self.traced else None
        kwargs = {"tracer": tracer} if tracer is not None else {}
        interpreter = Interpreter(
            self.kb.db, profiler=profiler, builtins=self.kb.builtins,
            compile=self.compile, batch=self.batch,
            governor=None if self.governed else False,
            metrics=self.kb.metrics, **kwargs,
        )
        start = time.perf_counter()
        answers = interpreter.run(
            self.compiled.plan, self.compiled.query, **self.bindings
        )
        wall = time.perf_counter() - start
        if not timed:
            return
        self.answers = answers
        self.walls.append(wall)
        self.best_wall = min(self.best_wall, wall)
        self.work = profiler.total_work
        self.snapshot = profiler.snapshot()
        if tracer is not None:
            self.span_count = len(tracer.spans)

    def stats(self) -> dict:
        out = {"wall_s": self.best_wall, "total_work": self.work,
               "profiler": self.snapshot}
        if self.traced:
            out["spans"] = self.span_count
        return out


def bench_workload(name: str, kb: KnowledgeBase, query: str, repeats: int, **bindings) -> dict:
    compiled_form = kb.compile(query)
    arms = {
        "compiled": _Arm(kb, compiled_form, bindings),
        "row": _Arm(kb, compiled_form, bindings, batch=False),
        "ungoverned": _Arm(kb, compiled_form, bindings, governed=False),
        "traced": _Arm(kb, compiled_form, bindings, traced=True),
        "uncompiled": _Arm(kb, compiled_form, bindings, compile=False),
    }
    # Interleave the arms round-robin (after one untimed warm-up each):
    # machine-speed drift over the seconds a workload takes then hits
    # every arm equally instead of biasing whichever ran last, which is
    # what lets the overhead ratios resolve differences of a few percent.
    for arm in arms.values():
        arm.run_once(timed=False)
    for _ in range(repeats):
        for arm in arms.values():
            arm.run_once()
    compiled_stats = arms["compiled"].stats()
    row_stats = arms["row"].stats()
    ungoverned_stats = arms["ungoverned"].stats()
    traced_stats = arms["traced"].stats()
    baseline_stats = arms["uncompiled"].stats()
    compiled_answers = arms["compiled"].answers.to_python()
    match = all(
        arm.answers.to_python() == compiled_answers for arm in arms.values()
    )
    # Overhead ratios are the median of *pairwise, same-round* ratios:
    # the two runs of a pair execute back to back, so machine-speed
    # drift over the benchmark cancels out of each ratio, and the median
    # discards the rounds a noisy neighbour ruined.  (Best-of walls
    # compare runs taken seconds apart and flap by ±10% under load.)
    traced_off = _median_ratio(arms["compiled"].walls, arms["ungoverned"].walls)
    tracer_on = _median_ratio(arms["traced"].walls, arms["compiled"].walls)
    # PR5 A/B: columnar batch tier (default) vs the compiled row kernels
    batch_speedup = _median_ratio(arms["row"].walls, arms["compiled"].walls)
    entry = {
        "workload": name,
        "query": query,
        "answers": len(compiled_answers),
        "results_match": match,
        "compiled": compiled_stats,
        "row": row_stats,
        "ungoverned": ungoverned_stats,
        "traced": traced_stats,
        "uncompiled": baseline_stats,
        "metrics": kb.metrics.snapshot(),
        "speedup": baseline_stats["wall_s"] / max(compiled_stats["wall_s"], 1e-9),
        "work_ratio": baseline_stats["total_work"] / max(compiled_stats["total_work"], 1),
        # batch tier vs row kernels, same compile pipeline (median of
        # pairwise same-round ratios, like the overhead numbers)
        "batch_speedup": batch_speedup,
        # default engine (hooks present, tracing OFF) vs the stripped
        # ungoverned path: the gated "traced-off" instrumentation cost
        "traced_off_overhead": traced_off,
        # tracing actually ON vs OFF: informational
        "tracer_overhead": tracer_on,
    }
    entry["governor_overhead"] = entry["traced_off_overhead"]  # pre-PR3 name
    status = "ok" if match else "MISMATCH"
    print(
        f"  {name:<28} {entry['speedup']:>6.2f}x wall "
        f"({baseline_stats['wall_s'] * 1e3:8.2f}ms -> {compiled_stats['wall_s'] * 1e3:8.2f}ms)  "
        f"batch {entry['batch_speedup']:>5.2f}x  "
        f"off {entry['traced_off_overhead']:>5.3f}x  "
        f"on {entry['tracer_overhead']:>5.3f}x  "
        f"work {baseline_stats['total_work']:>8} -> {compiled_stats['total_work']:>8}  [{status}]"
    )
    return entry


def exp9_chain(n: int, repeats: int) -> dict:
    """EXP-9 scaling shape: all-ancestors over an N-edge chain (the
    semi-naive clique is the entire cost)."""
    kb = KnowledgeBase(OptimizerConfig(recursive_methods=("seminaive",)))
    kb.rules(ANC)
    kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(n)])
    return bench_workload(f"exp9_chain_n{n}", kb, "anc($X, Y)?", repeats, X="n0")


def exp7_ancestors(nodes: int, edges: int, repeats: int) -> dict:
    db = Database()
    names = random_dag(db, "par", nodes=nodes, edges=edges, seed=1)
    kb = KnowledgeBase(OptimizerConfig(strategy="dp"))
    kb.rules(ANC)
    kb.facts("par", rows_of(db, "par"))
    return bench_workload(f"exp7a_ancestors_{nodes}n", kb, "anc($X, Y)?", repeats, X=names[0])


def exp7_same_generation(fanout: int, depth: int, repeats: int) -> dict:
    db = Database()
    levels = same_generation_instance(db, fanout=fanout, depth=depth)
    kb = KnowledgeBase(OptimizerConfig(strategy="dp"))
    kb.rules(
        """
        sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
        sg(X, Y) <- flat(X, Y).
        """
    )
    for name in ("up", "dn", "flat"):
        kb.facts(name, rows_of(db, name))
    return bench_workload(
        f"exp7b_same_gen_f{fanout}d{depth}", kb, "sg($X, Y)?", repeats, X=levels[-1][0]
    )


def exp7_bom(assemblies: int, depth: int, fanout: int, repeats: int) -> dict:
    db = Database()
    tops = bill_of_materials(db, assemblies=assemblies, depth=depth, fanout=fanout, seed=3)
    kb = KnowledgeBase(OptimizerConfig(strategy="dp"))
    kb.rules(
        """
        uses(A, P) <- component(A, P, Q).
        uses(A, P) <- component(A, S, Q), uses(S, P).
        needs_basic(A, P, W) <- uses(A, P), basic_part(P, W).
        """
    )
    for name in ("component", "basic_part"):
        kb.facts(name, rows_of(db, name))
    return bench_workload(
        f"exp7c_bom_a{assemblies}", kb, "needs_basic($A, P, W)?", repeats, A=tops[0]
    )


def warm_cache_workload(n: int, repeats: int) -> dict:
    """Repeated-query workload for the cross-query result cache: one cold
    ``ask`` populates the cache, then the same query repeats against the
    unchanged database and must be served without re-running a fixpoint."""
    kb = KnowledgeBase(OptimizerConfig(recursive_methods=("seminaive",)))
    kb.rules(ANC)
    kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(n)])
    query = "anc($X, Y)?"
    start = time.perf_counter()
    cold = kb.ask(query, X="n0")
    cold_wall = time.perf_counter() - start
    warm_walls = []
    for _ in range(max(repeats, 3)):
        start = time.perf_counter()
        warm = kb.ask(query, X="n0")
        warm_walls.append(time.perf_counter() - start)
    warm_wall = sorted(warm_walls)[len(warm_walls) // 2]
    hits = sum(
        c["value"] for c in kb.metrics.snapshot()["counters"]
        if c["name"] == "result_cache_hits_total"
    )
    entry = {
        "workload": f"warm_cache_chain_n{n}",
        "query": query,
        "answers": len(cold.to_python()),
        "results_match": warm is cold,  # the memoized object, verbatim
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup": cold_wall / max(warm_wall, 1e-9),
        "result_cache_hits": hits,
    }
    print(
        f"  {entry['workload']:<28} warm {entry['warm_speedup']:>8.1f}x "
        f"({cold_wall * 1e3:8.2f}ms cold -> {warm_wall * 1e6:8.1f}us warm)  "
        f"hits {hits}  [{'ok' if entry['results_match'] else 'MISMATCH'}]"
    )
    return entry


def feedback_workload(fanout: int, distinct: int, repeats: int,
                      threshold: float = 4.0) -> dict:
    """The PR8 est/act loop A/B: ``hot(k0)`` fans out to *fanout* rows
    while every other key has one, so the static per-bound-key guess
    (``card / ndv ~ 2.5``) is off by two orders of magnitude for the
    very key the query asks about, and the DP planner leads with the
    skewed relation.  The cold run harvests actuals into the feedback
    store, the worst q-error crosses *threshold*, the cached plan is
    evicted, and the second run executes a re-optimized filt-first plan
    built from learned cardinalities.

    The gated number is ``feedback_work_gain`` — measured tuple work of
    the static plan over the learned plan, from the deterministic
    profiler, so machine speed never enters the verdict.  The entry
    also records that the two plans actually differ, that the re-opt
    trigger fired, and that both runs produced identical answers.
    """
    hot = [("k0", f"v{i}") for i in range(fanout)]
    hot += [(f"k{j}", "v0") for j in range(1, distinct)]
    filt = [(f"v{i}",) for i in range(8)]
    wide = [(f"v{i}", f"w{i}") for i in range(fanout)]
    query = "out($K, W)?"

    first_walls: list[float] = []
    second_walls: list[float] = []
    first_work = second_work = 0
    plan_before = plan_after = ""
    match = True
    reopt_fired = True
    for _ in range(max(repeats, 3)):
        kb = KnowledgeBase(
            OptimizerConfig(strategy="dp", seed=0),
            result_cache=False,
            reopt_qerror_threshold=threshold,
        )
        kb.rules("out(K, W) <- hot(K, V), filt(V), wide(V, W).")
        kb.facts("hot", hot)
        kb.facts("filt", filt)
        kb.facts("wide", wide)
        plan_before = kb.explain(query)
        cold_profiler = Profiler()
        start = time.perf_counter()
        cold = kb.ask(query, K="k0", profiler=cold_profiler)
        first_walls.append(time.perf_counter() - start)
        reopt_fired = reopt_fired and bool(kb.telemetry.last["reopt"])
        plan_after = kb.explain(query)  # re-planned with learned cards
        warm_profiler = Profiler()
        start = time.perf_counter()
        warm = kb.ask(query, K="k0", profiler=warm_profiler)
        second_walls.append(time.perf_counter() - start)
        match = match and (
            sorted(cold.to_python()) == sorted(warm.to_python())
        )
        first_work = cold_profiler.total_work
        second_work = warm_profiler.total_work
    plans_differ = plan_before != plan_after
    work_gain = first_work / max(second_work, 1)
    entry = {
        "workload": f"feedback_skew_f{fanout}_d{distinct}",
        "query": query,
        "answers": len(cold.to_python()),
        "results_match": match,
        "reopt_fired": reopt_fired,
        "plans_differ": plans_differ,
        "static_work": first_work,
        "learned_work": second_work,
        "feedback_work_gain": work_gain,
        "static_wall_s": min(first_walls),
        "learned_wall_s": min(second_walls),
        "feedback_speedup": _median_ratio(first_walls, second_walls),
    }
    print(
        f"  {entry['workload']:<28} gain {work_gain:>5.2f}x work "
        f"({first_work:>8} -> {second_work:>8})  wall "
        f"{entry['feedback_speedup']:>5.2f}x  "
        f"reopt {'yes' if reopt_fired else 'NO'}  "
        f"replan {'yes' if plans_differ else 'NO'}  "
        f"[{'ok' if match else 'MISMATCH'}]"
    )
    return entry


def feedback_overhead_workload(n: int, repeats: int) -> dict:
    """Collector-tax A/B: the always-on per-query feedback harvest
    (``kb.ask`` walking node stats, folding EMAs, updating telemetry)
    vs ``feedback=False``.  Tracing off, result cache off, and the
    re-opt threshold parked at infinity so both arms execute the same
    static plan every round — any measured gap is pure collector
    bookkeeping.  Budget: <=1.05x.
    """
    def build(feedback: bool) -> KnowledgeBase:
        kb = KnowledgeBase(
            OptimizerConfig(recursive_methods=("seminaive",)),
            result_cache=False,
            feedback=feedback,
            reopt_qerror_threshold=float("inf"),
        )
        kb.rules(ANC)
        kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(n)])
        return kb

    on = build(True)
    off = build(False)
    query = "anc($X, Y)?"
    on.ask(query, X="n0")  # untimed warm-up: compile + plan caches
    off.ask(query, X="n0")
    on_walls: list[float] = []
    off_walls: list[float] = []
    match = True
    for _ in range(max(repeats, 5)):
        start = time.perf_counter()
        a_on = on.ask(query, X="n0")
        on_walls.append(time.perf_counter() - start)
        start = time.perf_counter()
        a_off = off.ask(query, X="n0")
        off_walls.append(time.perf_counter() - start)
        match = match and (a_on.to_python() == a_off.to_python())
    overhead = _median_ratio(on_walls, off_walls)
    entry = {
        "workload": f"feedback_overhead_n{n}",
        "query": query,
        "results_match": match,
        "feedback_on_wall_s": min(on_walls),
        "feedback_off_wall_s": min(off_walls),
        "feedback_overhead": overhead,
        "feedback_entries": len(on.feedback),
    }
    print(
        f"  {entry['workload']:<28} collector {overhead:>6.3f}x "
        f"({min(off_walls) * 1e3:8.2f}ms off -> "
        f"{min(on_walls) * 1e3:8.2f}ms on, "
        f"{entry['feedback_entries']} entries)  "
        f"[{'ok' if match else 'MISMATCH'}]"
    )
    return entry


def txn_workload(n: int, repeats: int) -> dict:
    """The PR7 robustness-tax A/B: the same work with and without the
    transaction layer engaged, the ratio expected at noise level.

    One bulk load + retract batch applied bare vs inside ``with
    kb.transaction():`` (undo log, version snapshots, deferred
    invalidation); the median of pairwise same-round ratios,
    interleaved like the other arms.
    """
    rows = [(f"n{i}", f"n{i + 1}") for i in range(n)]
    cut = rows[: max(n // 10, 1)]
    plain_walls: list[float] = []
    txn_walls: list[float] = []
    answers_match = True
    for _ in range(max(repeats, 3)):
        bare = KnowledgeBase(OptimizerConfig(recursive_methods=("seminaive",)))
        bare.rules(ANC)
        start = time.perf_counter()
        bare.facts("par", rows)
        bare.retract("par", cut)
        plain_walls.append(time.perf_counter() - start)

        txn = KnowledgeBase(OptimizerConfig(recursive_methods=("seminaive",)))
        txn.rules(ANC)
        start = time.perf_counter()
        with txn.transaction():
            txn.facts("par", rows)
            txn.retract("par", cut)
        txn_walls.append(time.perf_counter() - start)
        answers_match = answers_match and (
            bare.ask("anc($X, Y)?", X=f"n{len(cut)}").to_python()
            == txn.ask("anc($X, Y)?", X=f"n{len(cut)}").to_python()
        )
    txn_overhead = _median_ratio(txn_walls, plain_walls)

    entry = {
        "workload": f"txn_n{n}",
        "results_match": answers_match,
        "txn_overhead": txn_overhead,
        "plain_wall_s": min(plain_walls),
        "txn_wall_s": min(txn_walls),
    }
    print(
        f"  {entry['workload']:<28} txn {txn_overhead:>6.3f}x "
        f"({min(plain_walls) * 1e3:8.2f}ms bare -> "
        f"{min(txn_walls) * 1e3:8.2f}ms txn)  "
        f"[{'ok' if answers_match else 'MISMATCH'}]"
    )
    return entry


def streaming_ingest_workload(n: int, updates: int, repeats: int) -> dict:
    """The PR9 write-path A/B: interleaved ask/insert/retract against a
    maintained transitive closure plus an unrelated lookup table.

    Two gated numbers, both deterministic (profiler tuple work and cache
    counters — machine speed never enters):

    * ``ivm_work_gain`` — measured tuple work of a from-scratch
      re-materialization over the *median* incremental single-edge
      update (insert and retract arms both sampled).  Counting/DRed
      delta propagation does work proportional to the delta, so the
      ratio grows with n; a regression to recompute-per-write collapses
      it to ~1.
    * ``warm_hit_rate`` — result-cache hit rate of a repeated closure
      query while every intervening write lands in an *unrelated*
      relation.  Footprint keying keeps this at 1.0; global
      version-vector keying scores 0.
    """
    from repro.engine.fixpoint import evaluate_program

    # -- arm 1: incremental maintenance vs from-scratch recompute --------
    kb = KnowledgeBase(OptimizerConfig(recursive_methods=("seminaive",)))
    kb.rules(ANC)
    kb.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(n)])
    views = kb.materialize()
    delta_works: list[int] = []
    for i in range(max(updates, 4)):
        before = views.profiler.total_work
        # branch edge off the chain's middle: the delta stays small but
        # genuinely propagates through the recursion
        kb.facts("par", [(f"n{n // 2}", f"b{i}")])
        delta_works.append(views.profiler.total_work - before)
    for i in range(max(updates, 4)):
        before = views.profiler.total_work
        kb.retract("par", [(f"n{n // 2}", f"b{i}")])
        delta_works.append(views.profiler.total_work - before)
    delta_work = sorted(delta_works)[len(delta_works) // 2]
    full_works = []
    for __ in range(repeats):
        profiler = Profiler()
        evaluate_program(kb.db, kb.program, profiler=profiler)
        full_works.append(profiler.total_work)
    full_work = min(full_works)
    oracle = {
        tuple(f.value for f in row)
        for row in evaluate_program(kb.db, kb.program).rows("anc")
    }
    maintained_match = kb.view_rows("anc") == oracle

    # -- arm 2: warm hit rate under writes to unrelated relations --------
    kb2 = KnowledgeBase(OptimizerConfig(recursive_methods=("seminaive",)))
    kb2.rules(ANC + " owner(X, Y) <- owns(X, Y).")
    kb2.facts("par", [(f"n{i}", f"n{i + 1}") for i in range(n)])
    kb2.facts("owns", [("n0", "deed")])
    query = "anc($X, Y)?"
    cold = kb2.ask(query, X="n0")

    def hits() -> int:
        return sum(
            c["value"] for c in kb2.metrics.snapshot()["counters"]
            if c["name"] == "result_cache_hits_total"
        )

    hits_before = hits()
    warm_answers_match = True
    asks = max(updates, 4)
    for i in range(asks):
        kb2.facts("owns", [(f"n{i}", f"item{i}")])  # unrelated write
        warm = kb2.ask(query, X="n0")
        warm_answers_match = warm_answers_match and warm is cold
    warm_hit_rate = (hits() - hits_before) / asks

    entry = {
        "workload": f"streaming_ingest_n{n}",
        "query": query,
        "updates": len(delta_works),
        "delta_work": delta_work,
        "full_recompute_work": full_work,
        "ivm_work_gain": full_work / max(delta_work, 1),
        "warm_hit_rate": warm_hit_rate,
        "results_match": maintained_match and warm_answers_match,
        "closure_size": len(oracle),
    }
    print(
        f"  {entry['workload']:<28} ivm {entry['ivm_work_gain']:>8.1f}x "
        f"({full_work} recompute -> {delta_work} per-delta work)  "
        f"unrelated-write hit rate {warm_hit_rate:.2f}  "
        f"[{'ok' if entry['results_match'] else 'MISMATCH'}]"
    )
    return entry


def optimizer_scalability_workload(width: int, repeats: int) -> dict:
    """The PR10 plan-search A/B: memoized branch-and-bound enumeration
    (``search="bb"``) vs the un-pruned baseline (``search="full"``) on a
    workload built to stress both enumerator layers — a *width*-literal
    chained conjunction (connected-subset DP table) and a multi-clique
    recursive query (three-rule same-generation clique plus a linear
    ancestor clique, costed across c-permutations under four recursive
    methods).

    The gated number is ``enum_work_gain`` — ``plans_costed`` of the
    full search over the pruned search.  Both counters come from the
    optimizer's own deterministic accounting (under ``search="full"``
    the shared body-estimate cache counts every costing without reusing
    any, so the unit is identical across modes) — machine speed never
    enters the verdict.  The entry also asserts the plan-quality
    contract that makes the pruning admissible: both searches must
    produce cost-identical plans and identical answers.
    ``enum_wall_speedup`` (optimize-time wall ratio) is recorded
    alongside, informationally.
    """
    def build(search: str) -> KnowledgeBase:
        kb = KnowledgeBase(
            OptimizerConfig(strategy="dp", seed=0, search=search),
            feedback=False,
        )
        kb.rules(
            """
            sg(X, Y) <- flat(X, Y).
            sg(X, Y) <- up(X, X1), sg(X1, Y1), down(Y1, Y).
            sg(X, Y) <- up2(X, X1), sg(X1, Y1), down2(Y1, Y).
            anc(X, Y) <- par(X, Y).
            anc(X, Y) <- par(X, Z), anc(Z, Y).
            """
        )
        body = ", ".join(f"r{i}(X{i}, X{i + 1})" for i in range(width))
        kb.rules(f"wide(X0, X{width}) <- {body}.")
        kb.rules("q(A, C) <- wide(A, B), sg(B, C).")
        kb.rules("q2(A, D) <- anc(A, B), sg(B, C), anc(C, D).")
        for i in range(width):
            kb.facts(f"r{i}", [(f"a{j}", f"a{j + 1}") for j in range(6)])
        kb.facts("flat", [("a1", "a2"), ("a2", "a3")])
        kb.facts("up", [("a0", "a1")])
        kb.facts("down", [("a2", "a4")])
        kb.facts("up2", [("a0", "a2")])
        kb.facts("down2", [("a3", "a5")])
        kb.facts("par", [(f"a{j}", f"a{j + 1}") for j in range(6)])
        return kb

    queries = ("q($A, C)?", "q2($A, D)?")
    walls: dict[str, list[float]] = {"bb": [], "full": []}
    counters: dict[str, dict[str, int]] = {}
    costs: dict[str, tuple[float, ...]] = {}
    answers: dict[str, list] = {}
    # Fresh KBs per round (plan caches would hide the enumerator), arms
    # interleaved round-robin like every other A/B in this file.
    for _ in range(max(repeats, 3)):
        for search in ("bb", "full"):
            kb = build(search)
            start = time.perf_counter()
            compiled = [kb.compile(q) for q in queries]
            walls[search].append(time.perf_counter() - start)
            counters[search] = {
                "plans_costed": kb.optimizer.counters["plans_costed"],
                "plans_pruned": kb.optimizer.counters["plans_pruned"],
            }
            costs[search] = tuple(c.plan.est.cost for c in compiled)
            answers[search] = [
                sorted(kb.ask(q, A="a0").to_python()) for q in queries
            ]
    costs_match = all(
        abs(b - f) <= 1e-6 * max(abs(b), abs(f), 1.0)
        for b, f in zip(costs["bb"], costs["full"])
    )
    match = costs_match and answers["bb"] == answers["full"]
    work_gain = counters["full"]["plans_costed"] / max(
        counters["bb"]["plans_costed"], 1
    )
    wall_speedup = _median_ratio(walls["full"], walls["bb"])
    entry = {
        "workload": f"optimizer_scalability_w{width}",
        "queries": list(queries),
        "results_match": match,
        "plan_costs_match": costs_match,
        "plans_costed_full": counters["full"]["plans_costed"],
        "plans_costed_bb": counters["bb"]["plans_costed"],
        "plans_pruned_bb": counters["bb"]["plans_pruned"],
        "plans_pruned_full": counters["full"]["plans_pruned"],
        "enum_work_gain": work_gain,
        "optimize_wall_full_s": min(walls["full"]),
        "optimize_wall_bb_s": min(walls["bb"]),
        "enum_wall_speedup": wall_speedup,
    }
    print(
        f"  {entry['workload']:<28} enum {work_gain:>5.2f}x work "
        f"({counters['full']['plans_costed']:>6} -> "
        f"{counters['bb']['plans_costed']:>6} plans costed, "
        f"{counters['bb']['plans_pruned']} pruned)  wall "
        f"{wall_speedup:>5.2f}x  "
        f"[{'ok' if match else 'MISMATCH'}]"
    )
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small sizes (CI)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_PR10.json"))
    parser.add_argument("--max-overhead", type=float, default=None,
                        help="fail if geomean default/ungoverned wall "
                             "(traced-off instrumentation overhead) exceeds this")
    parser.add_argument("--min-warm-speedup", type=float, default=None,
                        help="fail if the warm-cache workload's cached "
                             "repeat is not at least this much faster "
                             "than its cold run")
    parser.add_argument("--min-feedback-gain", type=float, default=None,
                        help="fail unless the feedback-informed second "
                             "run of the skewed-join workload re-plans "
                             "and does at least this factor less "
                             "measured tuple work than the static plan")
    parser.add_argument("--max-feedback-overhead", type=float, default=None,
                        help="fail if the always-on feedback collector "
                             "costs more than this wall ratio vs "
                             "feedback=False (budget: 1.05)")
    parser.add_argument("--min-ivm-gain", type=float, default=None,
                        help="fail unless an incremental single-edge view "
                             "update does at least this factor less "
                             "measured tuple work than a from-scratch "
                             "re-materialization (O(|delta|) evidence)")
    parser.add_argument("--min-enum-speedup", type=float, default=None,
                        help="fail unless the branch-and-bound plan search "
                             "costs at least this factor fewer plans than "
                             "the un-pruned full search on the optimizer-"
                             "scalability workload (plans_costed ratio, "
                             "deterministic); also requires the two "
                             "searches to produce cost-identical plans")
    parser.add_argument("--min-warm-hit-rate", type=float, default=None,
                        help="fail if the result-cache hit rate of a "
                             "repeated query drops below this while every "
                             "intervening write touches an unrelated "
                             "relation (footprint-keying evidence)")
    args = parser.parse_args(argv)

    repeats = 3 if args.smoke else 5
    print(f"run_bench: {'smoke' if args.smoke else 'full'} mode, best of {repeats}")

    workloads: list[dict] = []
    chain_sizes = (60,) if args.smoke else (100, 200, 400)
    for n in chain_sizes:
        workloads.append(exp9_chain(n, repeats))
    if args.smoke:
        workloads.append(exp7_ancestors(40, 70, repeats))
        workloads.append(exp7_same_generation(2, 3, repeats))
        workloads.append(exp7_bom(8, 3, 2, repeats))
    else:
        workloads.append(exp7_ancestors(120, 200, repeats))
        workloads.append(exp7_same_generation(3, 4, repeats))
        workloads.append(exp7_bom(16, 4, 3, repeats))

    warm = warm_cache_workload(60 if args.smoke else 200, repeats)
    if args.smoke:
        feedback = feedback_workload(400, 266, repeats)
        feedback_tax = feedback_overhead_workload(400, repeats)
    else:
        feedback = feedback_workload(2_000, 1_300, repeats)
        feedback_tax = feedback_overhead_workload(1_500, repeats)
    txn = txn_workload(2_000 if args.smoke else 10_000, repeats)
    streaming = streaming_ingest_workload(
        60 if args.smoke else 200, 6 if args.smoke else 12, repeats
    )
    enum = optimizer_scalability_workload(6 if args.smoke else 8, repeats)

    mismatches = [w["workload"] for w in workloads if not w["results_match"]]
    if not warm["results_match"]:
        mismatches.append(warm["workload"])
    if not txn["results_match"]:
        mismatches.append(txn["workload"])
    if not feedback["results_match"]:
        mismatches.append(feedback["workload"])
    if not feedback_tax["results_match"]:
        mismatches.append(feedback_tax["workload"])
    if not streaming["results_match"]:
        mismatches.append(streaming["workload"])
    if not enum["results_match"]:
        mismatches.append(enum["workload"])
    slower = [w["workload"] for w in workloads if w["speedup"] < 1.0]
    more_work = [w["workload"] for w in workloads if w["work_ratio"] < 1.0]
    exp9 = [w for w in workloads if w["workload"].startswith("exp9")]

    report = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "workloads": workloads,
        "warm_cache": warm,
        "txn": txn,
        "feedback": feedback,
        "feedback_overhead": feedback_tax,
        "streaming_ingest": streaming,
        "optimizer_scalability": enum,
        "summary": {
            "geomean_speedup": _geomean([w["speedup"] for w in workloads]),
            "geomean_work_ratio": _geomean([w["work_ratio"] for w in workloads]),
            "geomean_batch_speedup": _geomean(
                [w["batch_speedup"] for w in workloads]
            ),
            "geomean_batch_speedup_exp9": _geomean(
                [w["batch_speedup"] for w in exp9]
            ),
            "warm_cache_speedup": warm["warm_speedup"],
            "txn_overhead": txn["txn_overhead"],
            "feedback_work_gain": feedback["feedback_work_gain"],
            "feedback_replan": feedback["plans_differ"] and feedback["reopt_fired"],
            "feedback_speedup": feedback["feedback_speedup"],
            "feedback_overhead": feedback_tax["feedback_overhead"],
            "ivm_work_gain": streaming["ivm_work_gain"],
            "warm_hit_rate_under_writes": streaming["warm_hit_rate"],
            "enum_work_gain": enum["enum_work_gain"],
            "enum_wall_speedup": enum["enum_wall_speedup"],
            "enum_plan_costs_match": enum["plan_costs_match"],
            "geomean_traced_off_overhead": _geomean(
                [w["traced_off_overhead"] for w in workloads]
            ),
            "geomean_tracer_overhead": _geomean(
                [w["tracer_overhead"] for w in workloads]
            ),
            "mismatches": mismatches,
            "slower_than_baseline": slower,
            "more_work_than_baseline": more_work,
        },
    }
    report["summary"]["geomean_governor_overhead"] = (
        report["summary"]["geomean_traced_off_overhead"]  # pre-PR3 name
    )
    # The gated number: per-workload median ratios averaged with wall-
    # time weights, so the second-scale workloads carry the verdict and
    # millisecond-scale ones cannot drown it in timer noise.
    weights = [w["compiled"]["wall_s"] for w in workloads]
    report["summary"]["weighted_traced_off_overhead"] = sum(
        weight * w["traced_off_overhead"] for weight, w in zip(weights, workloads)
    ) / max(sum(weights), 1e-9)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    overhead = report["summary"]["weighted_traced_off_overhead"]
    print(
        f"wrote {out_path} — geomean speedup "
        f"{report['summary']['geomean_speedup']:.2f}x, "
        f"batch/row {report['summary']['geomean_batch_speedup']:.2f}x "
        f"({report['summary']['geomean_batch_speedup_exp9']:.2f}x on exp9), "
        f"warm cache {report['summary']['warm_cache_speedup']:.0f}x, "
        f"txn overhead {txn['txn_overhead']:.3f}x, "
        f"feedback gain {feedback['feedback_work_gain']:.2f}x work / "
        f"collector {feedback_tax['feedback_overhead']:.3f}x, "
        f"ivm gain {streaming['ivm_work_gain']:.1f}x work / "
        f"unrelated-write hit rate {streaming['warm_hit_rate']:.2f}, "
        f"enum gain {enum['enum_work_gain']:.2f}x plans "
        f"({enum['enum_wall_speedup']:.2f}x wall), "
        f"work ratio {report['summary']['geomean_work_ratio']:.2f}x, "
        f"traced-off overhead {overhead:.3f}x weighted "
        f"({report['summary']['geomean_traced_off_overhead']:.3f}x geomean), "
        f"tracing-on overhead {report['summary']['geomean_tracer_overhead']:.3f}x"
    )
    if mismatches:
        print(f"RESULT MISMATCH in: {mismatches}", file=sys.stderr)
        return 1
    if args.max_overhead is not None and overhead > args.max_overhead:
        print(
            f"TRACED-OFF OVERHEAD {overhead:.3f}x exceeds bound "
            f"{args.max_overhead:.3f}x",
            file=sys.stderr,
        )
        return 1
    # The same bound gates the PR7 robustness tax: a mutation batch
    # inside a transaction must stay at noise level.
    if args.max_overhead is not None and txn["txn_overhead"] > args.max_overhead:
        print(
            f"TXN_OVERHEAD {txn['txn_overhead']:.3f}x exceeds bound "
            f"{args.max_overhead:.3f}x",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_warm_speedup is not None
        and warm["warm_speedup"] < args.min_warm_speedup
    ):
        print(
            f"WARM-CACHE SPEEDUP {warm['warm_speedup']:.1f}x below bound "
            f"{args.min_warm_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    if args.min_feedback_gain is not None:
        if not (feedback["reopt_fired"] and feedback["plans_differ"]):
            print(
                "FEEDBACK REPLAN did not happen: reopt_fired="
                f"{feedback['reopt_fired']} plans_differ="
                f"{feedback['plans_differ']}",
                file=sys.stderr,
            )
            return 1
        if feedback["feedback_work_gain"] < args.min_feedback_gain:
            print(
                f"FEEDBACK WORK GAIN {feedback['feedback_work_gain']:.2f}x "
                f"below bound {args.min_feedback_gain:.2f}x",
                file=sys.stderr,
            )
            return 1
    if (
        args.max_feedback_overhead is not None
        and feedback_tax["feedback_overhead"] > args.max_feedback_overhead
    ):
        print(
            f"FEEDBACK COLLECTOR OVERHEAD "
            f"{feedback_tax['feedback_overhead']:.3f}x exceeds bound "
            f"{args.max_feedback_overhead:.3f}x",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_ivm_gain is not None
        and streaming["ivm_work_gain"] < args.min_ivm_gain
    ):
        print(
            f"IVM WORK GAIN {streaming['ivm_work_gain']:.2f}x below bound "
            f"{args.min_ivm_gain:.2f}x (delta maintenance is not "
            f"sublinear vs recompute)",
            file=sys.stderr,
        )
        return 1
    if args.min_enum_speedup is not None:
        if not enum["plan_costs_match"]:
            print(
                "ENUM PLAN QUALITY regressed: branch-and-bound and full "
                "search produced plans with different costs",
                file=sys.stderr,
            )
            return 1
        if enum["enum_work_gain"] < args.min_enum_speedup:
            print(
                f"ENUM WORK GAIN {enum['enum_work_gain']:.2f}x below bound "
                f"{args.min_enum_speedup:.2f}x (branch-and-bound is not "
                f"pruning the plan search)",
                file=sys.stderr,
            )
            return 1
    if (
        args.min_warm_hit_rate is not None
        and streaming["warm_hit_rate"] < args.min_warm_hit_rate
    ):
        print(
            f"WARM HIT RATE {streaming['warm_hit_rate']:.2f} under "
            f"unrelated writes below bound {args.min_warm_hit_rate:.2f} "
            f"(footprint invalidation regressed to global fencing)",
            file=sys.stderr,
        )
        return 1
    return 0


def _median_ratio(numerators: list[float], denominators: list[float]) -> float:
    ratios = sorted(n / max(d, 1e-9) for n, d in zip(numerators, denominators))
    return ratios[len(ratios) // 2] if ratios else 1.0


def _geomean(values: list[float]) -> float:
    product = 1.0
    for v in values:
        product *= max(v, 1e-9)
    return product ** (1.0 / len(values)) if values else 0.0


if __name__ == "__main__":
    raise SystemExit(main())
