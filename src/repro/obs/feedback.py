"""The cardinality feedback store: closing the est/act loop.

PR 3 gave the system per-node ``est``/``act``/q-error annotations; this
module makes the numbers *actionable*.  Every executed plan is harvested
into a :class:`FeedbackStore` — a persistent (JSONL) + in-memory map from
**plan-fragment fingerprints** to learned cardinality evidence:

* ``step|<canonical literal>|<adornment>|<method>`` — a base-relation
  join step; the learned value is the observed *per-input-row fanout*
  (output rows / input rows), which transfers across join orders with
  the same adornment.  Every observation is recorded twice: under the
  executed method and under the method-wildcard ``*`` (cardinality does
  not depend on the join method, so the estimator can consult the
  wildcard while costing a method it has never executed).
* ``or|<pred/arity>|<adornment>|*`` / ``cc|<pred/arity>|<adornment>|<m>``
  — a derived-predicate node; the learned value is the observed output
  cardinality.

Literals are canonicalized by renaming variables positionally
(``par(V0, bart)`` no matter what the rule called them), so the same
fragment learned in one rule informs every rule that joins the same
shape.

Learning is an **exponential moving average** with observation counts
and **staleness decay**: lookups blend the learned value toward the
static estimate as the entry ages (measured in store *ticks* — one tick
per harvested query, never wall time, so runs stay deterministic):

    weight  = 0.5 ** (age_ticks / staleness_half_life)
    blended = weight * learned + (1 - weight) * static

An entry older than ~4.3 half-lives (``weight < min_weight``) stops
applying entirely and the estimator falls back to its static guess.

The store feeds three consumers:

* :class:`~repro.cost.estimates.BodyEstimator` consults
  :meth:`FeedbackStore.learned_fanout` before trusting catalog
  selectivities;
* the optimizer marks steps whose estimate came from feedback
  (``JoinStep.est_source == "learned"``) and adjusts OR/CC node output
  cardinalities via :meth:`FeedbackStore.learned_node_card`;
* :class:`~repro.kb.KnowledgeBase` harvests every executed plan through
  :meth:`FeedbackStore.observe_plan` and re-optimizes (evicting the plan
  cache entry) when the observed worst q-error crosses its threshold.

Feedback changes *plans*, never *answers* — the differential oracle's
``kb-feedback`` strategy pins that contract.

``python -m repro.obs.feedback dump|stats|clear FILE`` inspects or
resets a persisted store.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

from ..datalog.bindings import BindingPattern, binds_after, head_bound_vars
from ..datalog.terms import Struct, Variable

#: In-band schema identifier for persisted entries (bump on breaking change).
FEEDBACK_SCHEMA = "repro.feedback/1"

#: Join methods whose steps are harvested and looked up (base relations).
_BASE_METHODS = frozenset({"index", "hash", "nested_loop", "merge"})

#: Floor for learned fanouts/cardinalities: a fragment observed empty
#: still prices as *very* selective, never as free work.
_VALUE_FLOOR = 1e-3

#: Ceiling applied before JSON serialization (JSON has no Infinity).
_VALUE_CEIL = 1e300


# ------------------------------------------------------------ fingerprints


def _canon_term(term, names: dict) -> str:
    if isinstance(term, Variable):
        return names.setdefault(term, f"V{len(names)}")
    if isinstance(term, Struct):
        inner = ",".join(_canon_term(a, names) for a in term.args)
        return f"{term.functor}({inner})"
    return str(term)


def canonical_literal(literal) -> str:
    """*literal* with variables renamed positionally (``V0, V1, ...``).

    Constants and ground structs are kept verbatim — they carry
    selectivity information — while variable names are erased so the
    same join shape fingerprints identically across rules.
    """
    names: dict = {}
    args = ",".join(_canon_term(arg, names) for arg in literal.args)
    prefix = "~" if literal.negated else ""
    return f"{prefix}{literal.predicate}({args})"


def step_fingerprint(literal, adornment: str, method: str) -> str:
    """Fingerprint of one base join step: canonical literal + adornment +
    join method (``method="*"`` is the method-agnostic aggregate)."""
    return f"step|{canonical_literal(literal)}|{adornment}|{method}"


def node_fingerprint(kind: str, ref, binding: str, method: str | None) -> str:
    """Fingerprint of an OR/CC node (``kind`` in ``{"or", "cc"}``)."""
    return f"{kind}|{ref}|{binding}|{method or '*'}"


# ------------------------------------------------------------------ entries


@dataclass
class FeedbackEntry:
    """One learned fragment: fingerprint -> evidence -> value."""

    fingerprint: str
    kind: str  # "step" | "or" | "cc"
    predicate: str
    method: str
    #: the learned value: per-input-row fanout for steps, output
    #: cardinality for or/cc nodes (EMA over observations)
    value: float
    #: most recent static estimate / measured actual (evidence)
    est: float
    act: float
    observations: int
    last_tick: int
    max_qerror: float

    def to_json(self) -> dict:
        return {
            "schema": FEEDBACK_SCHEMA,
            "type": "entry",
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "predicate": self.predicate,
            "method": self.method,
            "value": min(self.value, _VALUE_CEIL),
            "est": min(self.est, _VALUE_CEIL),
            "act": min(self.act, _VALUE_CEIL),
            "observations": self.observations,
            "last_tick": self.last_tick,
            "max_qerror": min(self.max_qerror, _VALUE_CEIL),
        }

    @classmethod
    def from_json(cls, data: dict) -> "FeedbackEntry":
        return cls(
            fingerprint=data["fingerprint"],
            kind=data["kind"],
            predicate=data.get("predicate", ""),
            method=data.get("method", "*"),
            value=float(data["value"]),
            est=float(data.get("est", 0.0)),
            act=float(data.get("act", 0.0)),
            observations=int(data["observations"]),
            last_tick=int(data["last_tick"]),
            max_qerror=float(data.get("max_qerror", 1.0)),
        )


@dataclass(frozen=True)
class PlanObservation:
    """What one harvested execution contributed."""

    worst_qerror: float
    worst_label: str
    observed: int  # entries updated

    @property
    def clean(self) -> bool:
        return self.worst_qerror <= 1.0


# -------------------------------------------------------------------- store


class FeedbackStore:
    """Persistent (JSONL) + in-memory learned-cardinality store.

    *path* — when given, the store loads existing entries on
    construction and :meth:`flush` rewrites the file atomically
    (temp file + rename); when ``None`` the store is in-memory only.

    *alpha* — EMA weight of the newest observation.
    *staleness_half_life* — ticks after which a learned value has
    decayed halfway back to the static estimate.
    *min_weight* — staleness weight below which an entry stops applying.
    *min_observations* — observations required before an entry applies.
    *max_entries* — LRU bound (evicts the oldest ``last_tick``).
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        alpha: float = 0.5,
        staleness_half_life: int = 256,
        min_weight: float = 0.05,
        min_observations: int = 1,
        max_entries: int = 4096,
    ):
        self.path = Path(path) if path is not None else None
        self.alpha = alpha
        self.staleness_half_life = max(1, staleness_half_life)
        self.min_weight = min_weight
        self.min_observations = max(1, min_observations)
        self.max_entries = max_entries
        #: logical clock: one tick per harvested query (never wall time)
        self.tick = 0
        self._entries: dict[str, FeedbackEntry] = {}
        self.load_errors: list[str] = []
        if self.path is not None and self.path.exists():
            self._load(self.path)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> FeedbackEntry | None:
        return self._entries.get(fingerprint)

    def entries(self) -> list[FeedbackEntry]:
        """All entries, stable order (sorted by fingerprint)."""
        return [self._entries[k] for k in sorted(self._entries)]

    def clear(self) -> None:
        self._entries.clear()
        self.tick = 0

    def invalidate(self, predicates: "set[str] | frozenset[str]") -> int:
        """Drop every entry learned for one of *predicates*; returns how
        many were dropped.

        The knowledge base calls this when a retraction touches a
        relation (directly or through a derived predicate's dependency
        footprint): the rows the selectivities were measured against are
        gone, and waiting out EMA drift + staleness decay would keep
        feeding the optimizer evidence about data that no longer exists.
        Insertions are *not* routed here — a learned value stays a lower
        bound there, and decay handles the drift.
        """
        stale = [
            fingerprint
            for fingerprint, entry in self._entries.items()
            if entry.predicate in predicates
        ]
        for fingerprint in stale:
            del self._entries[fingerprint]
        return len(stale)

    # -- learning ------------------------------------------------------------

    def staleness_weight(self, entry: FeedbackEntry) -> float:
        """How much of the learned value still applies (1.0 = fresh)."""
        age = max(0, self.tick - entry.last_tick)
        return 0.5 ** (age / self.staleness_half_life)

    def _usable(self, fingerprint: str) -> FeedbackEntry | None:
        entry = self._entries.get(fingerprint)
        if entry is None or entry.observations < self.min_observations:
            return None
        if self.staleness_weight(entry) < self.min_weight:
            return None
        return entry

    def _blend(self, entry: FeedbackEntry, static: float) -> float:
        weight = self.staleness_weight(entry)
        if math.isinf(static):
            # never resurrect an unsafe estimate with finite evidence
            return static
        return max(_VALUE_FLOOR, weight * entry.value + (1.0 - weight) * static)

    def fanout_lookups(self, literal, adornment: str, methods) -> dict:
        """Per join method in *methods* with usable evidence for a base
        step of *literal* under *adornment*: the resolved lookup ``static
        -> learned fanout`` (blended toward *static* by staleness).  The
        exact ``(literal, adornment, method)`` fingerprint wins; the
        method wildcard is the fallback.  The one resolver behind
        :meth:`learned_fanout`, :meth:`has_fanout` and the estimator's
        memo (:meth:`repro.cost.estimates.BodyEstimator.shape`)."""
        prefix = step_fingerprint(literal, adornment, "")
        wildcard = self._usable(prefix + "*")
        lookups = {}
        for method in methods:
            entry = self._usable(prefix + method) or wildcard
            if entry is not None:
                lookups[method] = functools.partial(self._blend, entry)
        return lookups

    def learned_fanout(
        self, literal, bound_vars: frozenset, method: str, static: float
    ) -> float | None:
        """The learned per-input-row fanout of joining *literal* under the
        adornment implied by *bound_vars*, blended toward *static* by
        staleness — or ``None`` when nothing (fresh enough) is known."""
        adorn = BindingPattern.of_literal(literal, bound_vars).code
        lookup = self.fanout_lookups(literal, adorn, (method,)).get(method)
        return None if lookup is None else lookup(static)

    def has_fanout(self, literal, bound_vars: frozenset, method: str) -> bool:
        """Would :meth:`learned_fanout` hit?"""
        return self.learned_fanout(literal, bound_vars, method, 1.0) is not None

    def learned_node_card(
        self, kind: str, ref, binding: str, method: str | None, static: float
    ) -> float | None:
        """Learned output cardinality of an OR/CC node, blended toward
        *static* — or ``None``."""
        if math.isinf(static):
            return None
        for key in (
            node_fingerprint(kind, ref, binding, method),
            node_fingerprint(kind, ref, binding, None),
        ):
            entry = self._usable(key)
            if entry is not None:
                return self._blend(entry, static)
        return None

    # -- harvesting ----------------------------------------------------------

    def record(
        self,
        fingerprint: str,
        *,
        kind: str,
        predicate: str,
        method: str,
        observed: float,
        est: float,
        act: float,
    ) -> FeedbackEntry:
        """Fold one observation into the EMA for *fingerprint*."""
        from ..plans.printer import q_error

        observed = max(_VALUE_FLOOR, min(observed, _VALUE_CEIL))
        q = min(q_error(est, act), _VALUE_CEIL)
        entry = self._entries.get(fingerprint)
        if entry is None:
            if len(self._entries) >= self.max_entries:
                oldest = min(self._entries, key=lambda k: self._entries[k].last_tick)
                del self._entries[oldest]
            entry = FeedbackEntry(
                fingerprint=fingerprint, kind=kind, predicate=predicate,
                method=method, value=observed, est=est, act=act,
                observations=1, last_tick=self.tick, max_qerror=q,
            )
            self._entries[fingerprint] = entry
            return entry
        entry.value = self.alpha * observed + (1.0 - self.alpha) * entry.value
        entry.observations += 1
        entry.last_tick = self.tick
        entry.est = est
        entry.act = act
        entry.max_qerror = max(entry.max_qerror, q)
        return entry

    def observe_plan(self, plan, node_stats: dict[int, dict]) -> PlanObservation:
        """Harvest one executed plan: fold every measured node into the
        store and report the worst q-error seen.

        *plan* is the compiled :class:`~repro.plans.nodes.UnionNode`
        root; *node_stats* is the interpreter's per-node measurement map
        (always populated, tracer or not — this is the always-on
        collector's whole data source).
        """
        from ..plans.nodes import FixpointNode, JoinNode, UnionNode
        from ..plans.printer import q_error

        self.tick += 1
        worst = [1.0, ""]
        counted = [0]
        # Memoized subplans are shared between steps; harvest each once.
        visited: set[int] = set()

        def note_q(est_card: float, act: float, label: str) -> None:
            q = q_error(est_card, act)
            if q > worst[0]:
                worst[0] = q
                worst[1] = label

        def visit(node) -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            if isinstance(node, UnionNode):
                stats = node_stats.get(id(node))
                if stats is not None and node.ref.name != "__query__":
                    act = stats["rows"]
                    note_q(node.est.card, act, f"OR {node.ref}")
                    if not node.est.is_infinite:
                        self.record(
                            node_fingerprint("or", node.ref, node.binding.code, None),
                            kind="or", predicate=node.ref.name, method="*",
                            observed=float(act), est=node.est.card, act=float(act),
                        )
                        counted[0] += 1
                for child in node.children:
                    visit_join(child)
            elif isinstance(node, FixpointNode):
                stats = node_stats.get(id(node))
                if stats is not None:
                    act = stats["rows"]
                    note_q(node.est.card, act, f"CC {node.ref}")
                    if not node.est.is_infinite:
                        for method in (node.method, None):
                            self.record(
                                node_fingerprint(
                                    "cc", node.ref, node.binding.code, method
                                ),
                                kind="cc", predicate=node.ref.name,
                                method=method or "*",
                                observed=float(act), est=node.est.card,
                                act=float(act),
                            )
                        counted[0] += 1

        def visit_join(join) -> None:
            stats = node_stats.get(id(join))
            prev_rows = float(stats.get("in_rows", 1)) if stats else 1.0
            bound = head_bound_vars(join.rule.head, join.binding)
            for step in join.steps:
                step_stats = node_stats.get(id(step))
                if step_stats is not None:
                    act = step_stats["rows"]
                    note_q(step.est.card, act, f"step {step.literal}")
                    if (
                        step.child is None
                        and step.method in _BASE_METHODS
                        and not step.literal.is_comparison
                        and not step.literal.negated
                    ):
                        adorn = BindingPattern.of_literal(step.literal, bound).code
                        fanout = float(act) / max(1.0, prev_rows)
                        for method in (step.method, "*"):
                            self.record(
                                step_fingerprint(step.literal, adorn, method),
                                kind="step",
                                predicate=step.literal.predicate,
                                method=method,
                                observed=fanout,
                                est=step.est.card,
                                act=float(act),
                            )
                        counted[0] += 1
                    prev_rows = float(act)
                if step.child is not None:
                    visit(step.child)
                bound = binds_after(step.literal, bound)

        visit(plan)
        return PlanObservation(
            worst_qerror=worst[0], worst_label=worst[1], observed=counted[0]
        )

    # -- persistence ---------------------------------------------------------

    def flush(self) -> None:
        """Atomically rewrite the JSONL file (no-op for in-memory stores)."""
        if self.path is None:
            return
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            self._dump(handle)
        os.replace(tmp, self.path)

    def _dump(self, handle: IO[str]) -> None:
        meta = {"schema": FEEDBACK_SCHEMA, "type": "meta", "tick": self.tick}
        handle.write(json.dumps(meta, sort_keys=True) + "\n")
        for entry in self.entries():
            handle.write(json.dumps(entry.to_json(), sort_keys=True) + "\n")

    def _load(self, path: Path) -> None:
        with open(path, encoding="utf-8") as handle:
            self.load_lines(handle)

    def load_lines(self, lines: Iterable[str]) -> None:
        """Merge persisted entries (malformed lines are collected into
        :attr:`load_errors`, never raised — feedback is advisory)."""
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as err:
                self.load_errors.append(f"line {number}: not valid JSON ({err})")
                continue
            if not isinstance(data, dict) or data.get("schema") != FEEDBACK_SCHEMA:
                self.load_errors.append(
                    f"line {number}: unknown schema {data.get('schema')!r}"
                    if isinstance(data, dict)
                    else f"line {number}: not an object"
                )
                continue
            if data.get("type") == "meta":
                self.tick = max(self.tick, int(data.get("tick", 0)))
                continue
            try:
                entry = FeedbackEntry.from_json(data)
            except (KeyError, TypeError, ValueError) as err:
                self.load_errors.append(f"line {number}: bad entry ({err})")
                continue
            self._entries[entry.fingerprint] = entry

    # -- reporting -----------------------------------------------------------

    def worst_misestimates(self, top: int = 10) -> list[FeedbackEntry]:
        """Entries ranked by worst observed q-error (method-specific
        entries only, so the wildcard twin does not double-report)."""
        ranked = [e for e in self.entries() if e.method != "*" or e.kind == "or"]
        ranked.sort(key=lambda e: (-e.max_qerror, e.fingerprint))
        return ranked[:top]

    def stats(self) -> dict:
        """Summary counters for the CLI / telemetry gauges."""
        by_kind: dict[str, int] = {}
        for entry in self._entries.values():
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
        worst = max(
            (e.max_qerror for e in self._entries.values()), default=1.0
        )
        return {
            "entries": len(self._entries),
            "tick": self.tick,
            "by_kind": dict(sorted(by_kind.items())),
            "worst_qerror": worst,
            "load_errors": len(self.load_errors),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = str(self.path) if self.path else "memory"
        return f"FeedbackStore({len(self._entries)} entries, tick {self.tick}, {where})"


# ---------------------------------------------------------------------- CLI


def _fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:.3g}"
    return f"{value:.2f}"


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.feedback dump|stats|clear FILE``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.feedback",
        description="inspect or reset a persisted cardinality feedback store",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dump = sub.add_parser("dump", help="top-N worst misestimates with fingerprints")
    dump.add_argument("file", type=Path)
    dump.add_argument("--top", type=int, default=10, metavar="N")
    stats = sub.add_parser("stats", help="entry counts and store summary")
    stats.add_argument("file", type=Path)
    clear = sub.add_parser("clear", help="reset the store file to empty")
    clear.add_argument("file", type=Path)
    args = parser.parse_args(argv)

    if args.command == "clear":
        store = FeedbackStore()
        store.path = args.file
        store.flush()
        print(f"{args.file}: cleared")
        return 0

    if not args.file.exists():
        print(f"{args.file}: no such file")
        return 1
    store = FeedbackStore(args.file)
    for problem in store.load_errors:
        print(f"{args.file}: {problem}")

    if args.command == "stats":
        summary = store.stats()
        print(f"entries:      {summary['entries']}")
        print(f"tick:         {summary['tick']}")
        for kind, count in summary["by_kind"].items():
            print(f"  {kind:<5} {count}")
        print(f"worst q-error: {_fmt(summary['worst_qerror'])}x")
        return 0

    # dump
    worst = store.worst_misestimates(args.top)
    if not worst:
        print("no entries")
        return 0
    print(f"-- top {len(worst)} misestimates (q-error, est vs act, learned value):")
    for entry in worst:
        print(
            f"{_fmt(entry.max_qerror)}x  est={_fmt(entry.est)} act={_fmt(entry.act)} "
            f"value={_fmt(entry.value)} obs={entry.observations} "
            f"tick={entry.last_tick}  {entry.fingerprint}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # `dump | head` closing the pipe is fine
        raise SystemExit(0)
