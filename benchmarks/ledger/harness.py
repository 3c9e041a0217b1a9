"""One workload, one process: set up, measure, check, report.

Started by ``run.py`` (never imported by it) with ``PYTHONHASHSEED=0`` and
``src/`` on ``PYTHONPATH``.  Prints one JSON object on its last line.

Life of a run::

    generate inputs, build the KB                        -> setup_s
    cold first query                                     -> first_ask_s
    warm-up rounds (untimed: kernel caches fill, the feedback re-opt
                    latch settles)
    measured loop: whole rounds until the ops' own time reaches --seconds;
                   between rounds, now and then, one more repetition of
                   set-up + first query on a fresh KB that is then closed
    from-scratch reference checks, close

Times are reported at a reference machine speed.  The sandboxes this
runs in are shared: for seconds or minutes at a stretch everything gets
15-50 % slower, which no statistic taken inside one run can remove.  So
a fixed pure-Python kernel (``calibrate``) is timed between rounds, and
every duration is divided by how much slower than ``calibration_ref_ms``
(``sizes.json``) the kernel ran at the two ends of its round.

Closed loop, one client: the next op starts when the previous one has
returned and been checked; checking is the client's think time and is
not counted.  With ``--trace 1`` set-up runs once, the entry points of
every layer are wrapped (``trace.py``) and every other round of the
measured loop is traced, so the same run gives the per-layer numbers
and the cost of tracing them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAYERS = ("datalog", "storage", "cost", "optimizer", "engine", "obs", "kb")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def calibrate(n: int = 20_000) -> float:
    """Seconds a fixed kernel takes right now: tuples built, hashed into
    a set and a dict of lists, then looked up again -- the mix the engine
    itself runs on.  It touches nothing of the program under test, and
    the collector is off so that the heap's size does not leak in."""
    gc.disable()
    started = time.perf_counter()
    seen: set = set()
    index: dict = {}
    for i in range(n):
        key = (i * 7919) % 1009
        row = (key, i)
        bucket = index.get(key)
        if bucket is None:
            index[key] = [row]
        else:
            bucket.append(row)
        seen.add(row)
    total = 0
    for bucket in index.values():
        for row in bucket:
            if row in seen:
                total += row[1]
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed


class Speed:
    """How much slower than the reference the machine is running."""

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.factors: list[float] = []
        self.mark()

    def mark(self) -> None:
        """A timed stretch starts here."""
        self.last = calibrate()

    def factor(self) -> float:
        """A timed stretch ends here (and the next one starts): the
        kernel's time at its two ends, over the reference time."""
        now = calibrate()
        factor = (self.last + now) / 2.0 / self.reference_s
        self.last = now
        self.factors.append(factor)
        return factor


class Run:
    def __init__(self, args, config: dict):
        """*config* is ``sizes.json`` as loaded."""
        from workloads import WORKLOADS

        self.args = args
        self.sizes = config["quick" if args.quick else "full"][args.workload]
        self.shape_seed = config["shape_seed"]
        self.cls = WORKLOADS[args.workload]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.speed = Speed(config["calibration_ref_ms"] / 1e3)
        self.tracer = None
        if args.trace:
            from trace import Tracer

            self.tracer = Tracer()
            self.tracer.install()

    # ------------------------------------------------------------- one op

    def execute(self, op) -> tuple[float, object]:
        """Run, time and check one op; a raise or a wrong answer is a
        failed op, and the run goes on."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        started = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            elapsed = time.perf_counter() - started
            self._fail(op, traceback.format_exc(limit=4))
            return elapsed, None
        elapsed = time.perf_counter() - started
        try:
            if op.check is not None and not op.check(result):
                self._fail(op, "answer differs from the reference")
        except Exception:
            self._fail(op, traceback.format_exc(limit=4))
        return elapsed, result

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.kind}: {why}")
            print(f"[ledger] failed {op.kind} op: {why}", file=sys.stderr)

    # ------------------------------------------------------------ the run

    def set_up(self, rep: int):
        """One repetition of set-up plus the cold first query, on fresh
        constants; its three timings join the samples."""
        from repro import KnowledgeBase

        self.speed.mark()
        started = time.perf_counter()
        workload = self.cls(self.sizes, self.shape_seed, self.args.seed, rep)
        kb = KnowledgeBase()
        try:
            workload.build(kb)
            setup = time.perf_counter() - started
            slow = self.speed.factor()
            self.setup_s.append(setup / slow)
            self.load_rate.append(workload.load_rows / workload.load_seconds * slow)
            workload.prepare_reference()
            self.speed.mark()
            first = self.execute(workload.first_op())[0]
            self.first_s.append(first / self.speed.factor())
        except BaseException:
            kb.close()
            raise
        return workload, kb

    def run(self) -> dict:
        args, sizes, tracer = self.args, self.sizes, self.tracer
        # Set-up is repeated on the side, spread evenly over the measured
        # loop, so that a burst of outside load cannot hit every repetition.
        setups = 1 if tracer is not None else sizes["setups"]
        self.setup_s, self.first_s, self.load_rate = [], [], []
        if tracer is not None:
            tracer.enabled = True
        workload, kb = self.set_up(0)
        try:
            if tracer is not None:
                tracer.enabled = False
            setup_spans = len(tracer.spans) if tracer is not None else 0
            setup_counts = dict(tracer.counts) if tracer is not None else {}

            cycle = 0
            for _ in range(sizes["warmup_rounds"] * workload.cycles_per_round):
                for op in workload.cycle(cycle):
                    self.execute(op)
                cycle += 1

            gc.collect()
            before = _counters(kb)
            latencies: dict[str, list[float]] = {"update": [], "optimize": [], "query": []}
            round_raw: list[float] = []  # the ops' own time, per round
            round_busy: list[float] = []  # the same at reference speed
            round_ops: list[int] = []
            answer_rate: list[float] = []  # answer rows / query seconds, per round
            spent = 0.0  # the ops' own time as the clock saw it
            self.speed.mark()
            while True:
                if tracer is not None:
                    tracer.enabled = len(round_busy) % 2 == 0
                timed: list[tuple[str, float]] = []
                rows = 0
                for _ in range(workload.cycles_per_round):
                    for op in workload.cycle(cycle):
                        elapsed, result = self.execute(op)
                        if op.kind in latencies:
                            timed.append((op.kind, elapsed))
                            if op.kind == "query" and result is not None:
                                rows += len(result)
                    cycle += 1
                slow = self.speed.factor()
                for kind, elapsed in timed:
                    latencies[kind].append(elapsed / slow)
                busy = sum(elapsed for _, elapsed in timed)
                spent += busy
                round_raw.append(busy)
                round_busy.append(busy / slow)
                round_ops.append(len(timed))
                answer_rate.append(
                    rows * slow / sum(elapsed for kind, elapsed in timed if kind == "query")
                )
                progress = len(round_busy) / args.rounds if args.rounds else spent / args.seconds
                while len(self.setup_s) < min(setups, 1 + progress * (setups - 1)):
                    # The repetition must not pay for collecting the measured
                    # KB's heap, nor leave its garbage to the loop.
                    gc.freeze()
                    self.set_up(len(self.setup_s))[1].close()
                    gc.collect()
                    gc.unfreeze()
                    self.speed.mark()
                if progress >= 1.0:
                    break
            if tracer is not None:
                tracer.enabled = False
            after = _counters(kb)
            for op in workload.final_checks():
                self.execute(op)

            if tracer is None:
                # Rates are medians over rounds, as the latencies are medians
                # over ops: a burst of outside load during a few rounds
                # does not move them.
                metrics = {
                    "setup_s": statistics.median(self.setup_s),
                    "first_ask_s": statistics.median(self.first_s),
                    "load_facts_per_s": statistics.median(self.load_rate),
                    "ops_per_s": statistics.median(
                        n / t for n, t in zip(round_ops, round_busy)
                    ),
                    "query_p50_ms": statistics.median(latencies["query"]) * 1e3,
                    "update_p50_ms": statistics.median(latencies["update"]) * 1e3,
                    "optimize_p50_ms": statistics.median(latencies["optimize"]) * 1e3,
                    "answers_per_s": statistics.median(answer_rate),
                }
                record = None
            else:
                metrics = self._layer_metrics(
                    kb, setup_spans, setup_counts, before, after,
                    round_raw, round_busy, latencies,
                )
                record = self._record(workload, kb, metrics)
        finally:
            kb.close()
            _shutdown_workers()
        slow = statistics.median(self.speed.factors)
        print(f"[ledger] {args.workload}: calibration kernel ran {slow:.2f}x its "
              f"reference time; durations are divided by that", file=sys.stderr)
        if tracer is None:
            usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics["peak_rss_mb"] = usage / 1024.0
        else:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}"
            with open(out / f"{stem}.jsonl", "w") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            tracer.dump(out / f"{stem}.spans.jsonl")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    # ------------------------------------------------------ traced numbers

    def _layer_metrics(
        self, kb, setup_spans, setup_counts, before, after,
        round_raw, round_busy, latencies,
    ) -> dict[str, float]:
        tracer = self.tracer
        setup = tracer.totals(0, setup_spans)
        loop = tracer.totals(setup_spans)

        traced = round_busy[0::2]
        untraced = round_busy[1::2]
        rounds = len(round_busy)
        per = float(len(traced))  # layer numbers are means per traced round
        slow = statistics.median(self.speed.factors)  # times: at reference speed

        def ms(name: str, field: str = "ms") -> float:
            return loop.get(name, {}).get(field, 0.0) / per / slow

        def calls(name: str) -> float:
            return loop.get(name, {}).get("calls", 0) / per

        def count(key: str) -> float:
            return (tracer.counts.get(key, 0) - setup_counts.get(key, 0)) / per

        def counter(key: str) -> float:  # kb.metrics cover every round
            return (after.get(key, 0) - before.get(key, 0)) / rounds

        def rate(hit: str, miss: str) -> float:
            hits = after.get(hit, 0) - before.get(hit, 0)
            total = hits + after.get(miss, 0) - before.get(miss, 0)
            return hits / total if total else 0.0

        def layer_self(totals: dict, layer: str) -> float:
            return sum(
                v["self_ms"] for k, v in totals.items() if k.split(".")[0] == layer
            ) / slow

        tiers = {t: count(f"tier.{t}") for t in ("batch", "row", "parallel", "view", "cache")}
        tier_total = sum(tiers.values()) or 1.0
        examined = count("engine.examined")
        attributed = sum(v["self_ms"] for v in loop.values())
        out = {
            "datalog.parse_ms": ms("datalog.parse"),
            "datalog.parse_calls": calls("datalog.parse"),
            "datalog.safety_ms": ms("datalog.safety"),
            "datalog.rewrite_ms": ms("datalog.rewrite"),
            "datalog.rewrite_calls": calls("datalog.rewrite"),
            "datalog.interned_terms": float(_interned_terms()),
            "storage.load_ms": ms("storage.load", "self_ms"),
            "storage.load_rows": count("storage.load_rows"),
            "storage.retract_ms": ms("storage.retract", "self_ms"),
            "storage.stats_ms": ms("storage.stats"),
            "storage.stats_calls": calls("storage.stats"),
            "storage.index_build_ms": ms("storage.index_build"),
            "storage.batch_store_ms": ms("storage.batch_store"),
            "storage.resident_tuples": float(_resident_tuples(kb)),
            "cost.estimate_fixpoint_ms": ms("cost.estimate_fixpoint"),
            "cost.estimate_fixpoint_calls": calls("cost.estimate_fixpoint"),
            "cost.body_estimate_ms": ms("cost.body_estimate"),
            "cost.body_estimate_calls": calls("cost.body_estimate"),
            "optimizer.optimize_ms": ms("optimizer.optimize"),
            "optimizer.optimize_calls": calls("optimizer.optimize"),
            "optimizer.plans_costed": counter("optimizer_plans_costed_total"),
            "optimizer.plans_pruned": counter("optimizer_plans_pruned_total"),
            "optimizer.order_evaluations": count("optimizer.order_evaluations"),
            "optimizer.cpermutations": count("optimizer.cpermutations"),
            "optimizer.kbz_calls": calls("optimizer.kbz"),
            "optimizer.anneal_calls": calls("optimizer.anneal"),
            "optimizer.plan_cost_sum": count("optimizer.plan_cost_sum"),
            "optimizer.plan_cache_hit_rate": rate("plan_cache_hits_total", "plan_cache_misses_total"),
            "engine.run_ms": ms("engine.run"),
            "engine.fixpoint_ms": ms("engine.fixpoint"),
            "engine.fixpoint_rounds": count("engine.iterations"),
            "engine.batch_ms": ms("engine.batch"),
            "engine.batch_rules": calls("engine.batch"),
            "engine.kernel_compile_ms": ms("engine.kernel_compile"),
            "engine.kernel_compiles": calls("engine.kernel_compile"),
            "engine.tuples_examined": examined,
            "engine.tuples_produced": count("engine.produced"),
            "engine.probes": count("engine.probes"),
            "engine.useful_frac": count("engine.produced") / examined if examined else 0.0,
            "engine.decode_ms": ms("engine.decode"),
            "engine.row_ms": ms("engine.row"),
            "engine.row_rules": calls("engine.row"),
            "engine.parallel_ms": ms("engine.parallel"),
            "engine.parallel_rules": calls("engine.parallel"),
            "engine.parallel_workers": float(tracer.counts.get("engine.parallel_workers", 0)),
            "engine.view_insert_ms": ms("engine.view_insert"),
            "engine.view_delete_ms": ms("engine.view_delete"),
            "engine.view_delta_rows": count("engine.view_delta_rows"),
            "engine.governor_denials": counter("governor_denials_total"),
            **{f"engine.tier_share.{t}": n / tier_total for t, n in tiers.items()},
            "obs.feedback_ms": ms("obs.feedback"),
            "obs.feedback_entries": after.get("gauge:feedback_entries", 0.0),
            "obs.reopt_total": counter("reopt_total"),
            "obs.telemetry_ms": ms("obs.telemetry"),
            "kb.ask_self_ms": ms("kb.ask", "self_ms"),
            "kb.result_cache_hit_rate": rate("result_cache_hits_total", "result_cache_misses_total"),
            "kb.result_cache_hits": counter("result_cache_hits_total"),
            "kb.view_read_ms": count("kb.view_read_ms") / slow,
            "kb.txn_commit_ms": ms("kb.txn_commit"),
            "kb.txn_count": calls("kb.txn_commit"),
            "kb.query_p95_ms": percentile(latencies["query"], 0.95) * 1e3,
            "kb.update_p95_ms": percentile(latencies["update"], 0.95) * 1e3,
            **{f"{layer}.self_ms": layer_self(loop, layer) / per for layer in LAYERS},
            **{f"setup.{layer}_ms": layer_self(setup, layer) for layer in LAYERS},
            "bench.trace_overhead_ratio": (
                statistics.mean(traced) / statistics.mean(untraced) if untraced else 1.0
            ),
            "bench.attributed_frac": attributed / (sum(round_raw[0::2]) * 1e3),
            "bench.traced_rounds": per,
            "bench.machine_slowdown": slow,
        }
        return out

    def _record(self, workload, kb, metrics: dict) -> dict:
        """The self-contained ``repro.bench/1`` line: enough to replay a
        regression offline (sizes, seed, plans, EXPLAIN ANALYZE)."""
        args = self.args
        fingerprints = {}
        forms = workload.forms()
        for text, _bound in forms:
            plan = kb.explain(text)
            fingerprints[text] = hashlib.sha256(plan.encode()).hexdigest()[:16]
        text, bound = forms[0]
        return {
            "schema": "repro.bench/1",
            "workload": args.workload,
            "seed": args.seed,
            "shape_seed": self.shape_seed,
            "sizes": self.sizes,
            "quick": args.quick,
            "seconds": args.seconds,
            "rounds": args.rounds,
            "nproc": os.cpu_count(),
            "workers": metrics["engine.parallel_workers"],
            "python": platform.python_version(),
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "metrics": metrics,
            "missing_targets": self.tracer.missing,
            "spans": len(self.tracer.spans),
            "plan_fingerprints": fingerprints,
            "analyze": {"query": text, "bound": bound, "text": kb.analyze(text, **bound)},
        }


# -------------------------------------------------- reads of the public state


def _counters(kb) -> dict[str, float]:
    """``kb.metrics.snapshot()`` counters summed over label sets, plus
    gauges under ``gauge:<name>``."""
    snapshot = kb.metrics.snapshot()
    out: dict[str, float] = {}
    for series in snapshot.get("counters", ()):
        out[series["name"]] = out.get(series["name"], 0) + series["value"]
    for series in snapshot.get("gauges", ()):
        out[f"gauge:{series['name']}"] = series["value"]
    return out


def _interned_terms() -> int:
    try:
        from repro.datalog.intern import INTERNER

        return len(INTERNER)
    except (ImportError, TypeError):
        return 0


def _resident_tuples(kb) -> int:
    try:
        return kb.db.resident_tuples()
    except AttributeError:
        return 0


def _shutdown_workers() -> None:
    """Stop the engine's worker pool, if it has one, so its processes are
    waited for (and counted in ``peak_rss_mb``) before the run reports."""
    try:
        from repro.engine.parallel import shutdown_pools
    except ImportError:
        return
    shutdown_pools()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--rounds", type=int, default=0)
    args = parser.parse_args(argv)

    result = Run(args, json.loads((HERE / "sizes.json").read_text())).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
