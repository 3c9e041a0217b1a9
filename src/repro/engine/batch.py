"""Columnar batch execution: whole-delta joins over interned id columns.

The compiled row kernels (:mod:`repro.engine.kernels`) still pay Python's
per-tuple costs — one dict probe, one tuple build, one set insert *per
input row per step*.  This module adds the set-oriented tier the paper's
materialized nodes call for: an intermediate result is a list of parallel
**columns of interned term ids** (:mod:`repro.datalog.intern`), and each
join processes the entire batch per Python-level call:

1. **Probe pass** — stream the key column(s) (``zip`` over slot columns)
   against the extension's precomputed row-index buckets
   (:class:`~repro.storage.columnar.BatchStore`), producing two parallel
   *selection vectors*: input-row indices and extension-row indices of
   every match.
2. **Gather pass** — build each output column with one list comprehension
   over a selection vector; C-level loops, no per-row tuple objects.

Deduplication is deferred to head construction: a join of duplicate-free
inputs cannot produce duplicate rows (distinct input rows stay distinct
in their prefix; two extension rows in one bucket share their key fields
so they differ in a gathered free field), and the input table starts as
the duplicate-free unit table — so intermediate batches are
duplicate-free by induction, and the per-step ``produced`` counts match
the row kernels exactly.  The head projection *can* collapse rows; one
set of id tuples dedups it, and only the surviving rows are decoded back
to terms.

Batch plans keep the **same literal order** as the compiled row plan and
charge the same profiler counters at the same steps, fire the same
governor checkpoints, and open the same tracer spans (one per step, at
batch granularity) — PR 2/3 semantics are preserved, and the differential
oracle can hold batch ≡ row on every seeded program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable

from ..datalog.intern import INTERNER, TermInterner
from ..datalog.literals import Literal
from ..datalog.rules import Rule
from ..obs.tracer import NULL_TRACER
from ..storage.columnar import BatchStore, store_from_rows
from .kernels import CompiledRule, JoinKernel
from .operators import Row
from .profiler import Profiler

#: Resolves a body literal to its current extension (see kernels.py).
ExtensionOf = Callable[[Literal], Iterable[Row]]

#: Rows per chunk when streaming a disk-backed scan through the tail.
SPILL_CHUNK_ROWS = 65_536


@dataclass(frozen=True, slots=True)
class BatchStep:
    """One positive-literal join with its columnar layout precompiled."""

    literal: Literal
    #: Per bound position: input column to stream, or None for a constant.
    key_slots: tuple[int | None, ...]
    #: Per bound position: interned id of the fixed term, or None.
    key_const_ids: tuple[int | None, ...]
    bound_positions: tuple[int, ...]
    #: Extension positions appended to the output, in new-variable order.
    free_out: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class BatchPlan:
    """A rule lowered to columnar steps; compiled from a CompiledRule."""

    rule: Rule
    steps: tuple[BatchStep, ...]
    #: Same per-step labels the row kernels use (span/checkpoint parity).
    labels: tuple[str, ...]
    head_slots: tuple[int | None, ...]
    head_const_ids: tuple[int | None, ...]


def compile_batch_plan(
    compiled: CompiledRule, interner: TermInterner = INTERNER
) -> BatchPlan | None:
    """Lower a compiled rule to a batch plan, or None when not batchable.

    Batchable means: every body step is a *flat* positive join (no
    negation, comparisons, builtins, aggregates, or complex terms) and
    the head has a slot layout.  Everything else stays on the row tier —
    correctness first, the hot recursive rules are flat joins anyway.
    """
    if compiled.rule.is_aggregate or compiled.head_kernel is None:
        return None
    steps: list[BatchStep] = []
    for kernel in compiled.steps:
        if not isinstance(kernel, JoinKernel) or not kernel.flat:
            return None
        steps.append(
            BatchStep(
                kernel.literal,
                kernel.key_slots,
                tuple(
                    interner.id_of(const) if const is not None else None
                    for const in kernel.key_consts
                ),
                kernel.bound_positions,
                kernel.free_out,
            )
        )
    head = compiled.head_kernel
    return BatchPlan(
        compiled.rule,
        tuple(steps),
        compiled.labels,
        head.slots,
        tuple(
            interner.id_of(const) if const is not None else None
            for const in head.consts
        ),
    )


class BatchExecutor:
    """Executes batch plans; one per engine, sharing the global interner."""

    def __init__(self, interner: TermInterner = INTERNER):
        self.interner = interner

    def execute(
        self,
        plan: BatchPlan,
        extension_of: ExtensionOf,
        profiler: Profiler,
        delta_position: int | None = None,
        delta_rows: Iterable[Row] | None = None,
        governor=None,
        tracer=NULL_TRACER,
    ) -> set[Row]:
        """Evaluate the body over whole batches and instantiate the head —
        the columnar twin of ``CompiledRule.execute``."""
        steps = plan.steps
        if steps and not (delta_position == 0 and delta_rows is not None):
            extension = extension_of(steps[0].literal)
            maker = getattr(extension, "batch_store", None)
            if maker is not None:
                driver = maker(self.interner)
                if not isinstance(driver, BatchStore) and not steps[0].bound_positions:
                    # Disk-backed driving scan: stream it chunk by chunk
                    # instead of materializing the whole extension.
                    return self._stream_spilled(
                        plan, driver, extension_of, profiler,
                        delta_position, delta_rows, governor, tracer,
                    )
        interner = self.interner
        columns: list[list[int]] = []
        length = 1  # the unit table
        for position, step in enumerate(steps):
            if length == 0:
                return set()
            label = plan.labels[position]
            with tracer.span(label, kind="operator"):
                if governor is not None:
                    governor.checkpoint(label)
                start = time.perf_counter()
                if position == delta_position and delta_rows is not None:
                    store = store_from_rows(delta_rows, interner)
                    profiler.bump_examined(store.length)  # build side
                else:
                    store = self._resolve_store(extension_of(step.literal), profiler)
                columns, length = _batch_join(
                    step, columns, length, store, profiler, governor
                )
                profiler.add_time(label, time.perf_counter() - start)
        return _instantiate_head(plan, columns, length, interner, profiler, governor)

    def _stream_spilled(
        self,
        plan: BatchPlan,
        driver,
        extension_of: ExtensionOf,
        profiler: Profiler,
        delta_position: int | None,
        delta_rows: Iterable[Row] | None,
        governor,
        tracer,
    ) -> set[Row]:
        """Stream a disk-backed driving scan through the tail steps chunk
        by chunk, never materializing the whole extension.

        Counter totals equal the one-shot in-memory run (chunk sums
        telescope); span shape does not — the whole stream runs under a
        single ``spill-stream`` span, the disk tier's documented
        exception to span parity.
        """
        interner = self.interner
        steps = plan.steps
        tail: list[tuple[BatchStep, object, int]] = []
        for position in range(1, len(steps)):
            if position == delta_position and delta_rows is not None:
                store = store_from_rows(delta_rows, interner)
                tail.append((steps[position], store, store.length))
            else:
                scratch = Profiler()
                store = self._resolve_store(
                    extension_of(steps[position].literal), scratch
                )
                tail.append((steps[position], store, scratch.examined))

        head_ids: set[tuple[int, ...]] = set()
        chunk_rows = SPILL_CHUNK_ROWS
        with tracer.span(
            f"spill-stream:{plan.rule.head.predicate}", kind="operator"
        ) as span:
            span.note(chunk_rows=chunk_rows, store=driver.name)
            profiler.bump_probes(1)  # the serial unit-scan's single probe
            first = True
            for chunk_columns, chunk_length in driver.scan_chunks(
                steps[0].free_out, chunk_rows
            ):
                if governor is not None:
                    governor.checkpoint(plan.labels[0])
                profiler.bump_examined(chunk_length)
                profiler.bump_produced(chunk_length)
                if governor is not None:
                    governor.tick(chunk_length)
                columns, length = chunk_columns, chunk_length
                for step, store, extra_examined in tail:
                    if first and extra_examined:
                        profiler.bump_examined(extra_examined)
                    if length == 0:
                        break
                    columns, length = _batch_join(
                        step, columns, length, store, profiler, governor
                    )
                first = False
                if length:
                    streams = [
                        columns[slot] if slot is not None else repeat(const, length)
                        for slot, const in zip(plan.head_slots, plan.head_const_ids)
                    ]
                    if streams:
                        head_ids.update(zip(*streams))
                    else:
                        head_ids.add(())
        terms = interner.terms
        decode = terms.__getitem__
        out = {tuple(map(decode, id_row)) for id_row in head_ids}
        profiler.bump_produced(len(out))
        if governor is not None:
            governor.tick(len(out))
        return out

    def _resolve_store(self, extension, profiler: Profiler) -> BatchStore:
        """The extension's columnar mirror — persistent and incrementally
        maintained for relations, a per-call encode (charged like the row
        kernels' per-call hash build) for raw iterables."""
        maker = getattr(extension, "batch_store", None)
        if maker is not None:
            return maker(self.interner)
        store = store_from_rows(
            extension if isinstance(extension, (list, set, frozenset)) else list(extension),
            self.interner,
        )
        profiler.bump_examined(store.length)
        return store


def _batch_join(
    step: BatchStep,
    columns: list[list[int]],
    length: int,
    store: BatchStore,
    profiler: Profiler,
    governor,
) -> tuple[list[list[int]], int]:
    """One whole-batch join: probe pass + gather pass (module docstring)."""
    if not isinstance(store, BatchStore):
        # Disk-backed extension (see repro.storage.backend): probe/scan
        # runs as a SQL join against the spilled columns instead of an
        # in-memory bucket probe; tuple counters stay identical.
        from ..storage.backend import spilled_batch_join

        return spilled_batch_join(step, columns, length, store, profiler, governor)
    if not columns and not step.bound_positions:
        # Unit-input full scan: the output *is* the extension's columns,
        # reused by reference — stores are append-only and never shrink
        # during a rule evaluation, so aliasing is safe.
        matches = store.length
        profiler.bump_probes(1)
        profiler.bump_examined(matches)
        profiler.bump_produced(matches)
        if governor is not None and matches:
            governor.tick(matches)
        if matches == 0:
            return [], 0
        return [store.columns[p] for p in step.free_out], matches

    buckets = store.buckets_for(step.bound_positions)
    profiler.bump_probes(length)

    slots = step.key_slots
    const_ids = step.key_const_ids
    if len(slots) == 1:
        # single-position buckets use bare id keys (see BatchStore)
        if const_ids[0] is None:
            keys: Iterable[object] = columns[slots[0]]
        else:
            keys = repeat(const_ids[0], length)
    elif not slots:
        keys = repeat((), length)
    else:
        keys = zip(
            *(
                columns[slot] if slot is not None else repeat(const, length)
                for slot, const in zip(slots, const_ids)
            )
        )

    left: list[int] = []
    right: list[int] = []
    push_left = left.append
    push_right = right.append
    get = buckets.get
    if governor is None:
        for i, key in enumerate(keys):
            bucket = get(key)
            if bucket is not None:
                for j in bucket:
                    push_left(i)
                    push_right(j)
    else:
        # Same cooperative grant/tick pattern as the row kernels: a local
        # comparison per bucket, a governor call only when the allowance
        # is spent — explosive joins abort mid-batch.
        charged = 0
        check_at = governor.grant()
        for i, key in enumerate(keys):
            bucket = get(key)
            if bucket is not None:
                for j in bucket:
                    push_left(i)
                    push_right(j)
                if len(right) >= check_at:
                    emitted = len(right)
                    governor.tick(emitted - charged)
                    charged = emitted
                    check_at = emitted + governor.grant()
        if len(right) > charged:
            governor.tick(len(right) - charged)

    matches = len(right)
    profiler.bump_examined(matches)
    profiler.bump_produced(matches)
    if matches == 0:
        return [], 0
    out_columns = [[column[i] for i in left] for column in columns]
    extension_columns = store.columns
    for p in step.free_out:
        column = extension_columns[p]
        out_columns.append([column[j] for j in right])
    return out_columns, matches


def _instantiate_head(
    plan: BatchPlan,
    columns: list[list[int]],
    length: int,
    interner: TermInterner,
    profiler: Profiler,
    governor,
) -> set[Row]:
    """Dedup the head projection as id tuples, decode only the survivors."""
    if length == 0:
        # Mirror the row kernels' empty-table head: produced(0), tick(0).
        profiler.bump_produced(0)
        if governor is not None:
            governor.tick(0)
        return set()
    streams = [
        columns[slot] if slot is not None else repeat(const, length)
        for slot, const in zip(plan.head_slots, plan.head_const_ids)
    ]
    if streams:
        id_rows = set(zip(*streams))
    else:
        id_rows = {()} if length else set()
    terms = interner.terms
    decode = terms.__getitem__
    out = {tuple(map(decode, id_row)) for id_row in id_rows}
    profiler.bump_produced(len(out))
    if governor is not None:
        governor.tick(len(out))
    return out
