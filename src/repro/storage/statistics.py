"""Database statistics for cost estimation.

Section 6 of the paper: "A relational system uses knowledge of storage
structures, information about database statistics and various estimates to
predict the cost of execution schemes" and for LDL "the complexities of
data and operations emphasize the need for new database statistics".

We keep the classical relational statistics — cardinality and per-column
number of distinct values (the System R staples) plus numeric min/max —
and add the two the Horn-clause setting needs:

* **fanout** per column pair: average number of tuples matching an
  equality probe on a column (drives recursion-depth and magic-set size
  estimates);
* **acyclicity** of binary relations viewed as graphs: the applicability
  condition for the counting method and a safety input (counting on
  cyclic data does not terminate).

Statistics may be *collected* from data (:func:`collect_statistics`),
*maintained* through the writes after that (:class:`LiveStatistics`,
what a :class:`~repro.storage.catalog.Database` serves) or *declared*
(synthetic catalogs used by the optimizer benchmarks, matching the
paper's experiment design of "randomly picking queries and states of the
database").  Consumers depend only on the :class:`StatisticsProvider`
protocol.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from operator import and_, itemgetter
from typing import Callable, Iterable, Mapping, Protocol

from ..datalog.intern import INTERNER
from ..datalog.terms import Constant, Term
from .columnar import IdRelation, IdRow
from .relation import Relation


@dataclass(frozen=True, slots=True)
class ColumnStats:
    """Statistics for one column of a relation."""

    distinct: int
    minimum: float | None = None
    maximum: float | None = None

    @classmethod
    def trivial(cls) -> "ColumnStats":
        return cls(distinct=1)


@dataclass(frozen=True, slots=True)
class RelationStats:
    """Statistics for one relation.

    ``acyclic`` is three-valued: True/False when known (declared or
    computed for binary relations), ``None`` when unknown — the optimizer
    treats unknown as cyclic for safety.  Statistics built by
    :meth:`unsettled` compute it at its first read.
    """

    cardinality: float
    columns: tuple[ColumnStats, ...]
    acyclic: bool | None = None
    #: what computes ``acyclic`` of :meth:`unsettled` statistics
    settle: Callable[[], bool | None] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def unsettled(
        cls, cardinality: float, columns: tuple[ColumnStats, ...], settle: Callable[[], bool | None]
    ) -> "RelationStats":
        """Statistics whose ``acyclic`` slot stays empty until its first
        read, which fills it from *settle*."""
        stats = object.__new__(cls)
        object.__setattr__(stats, "cardinality", cardinality)
        object.__setattr__(stats, "columns", columns)
        object.__setattr__(stats, "settle", settle)
        return stats

    def __getattr__(self, name: str):
        # reached only for an empty slot: the acyclic flag of unsettled
        # statistics, not computed yet
        if name != "acyclic":
            raise AttributeError(name)
        acyclic = self.settle()
        object.__setattr__(self, "acyclic", acyclic)
        object.__setattr__(self, "settle", None)
        return acyclic

    @property
    def arity(self) -> int:
        return len(self.columns)

    def distinct(self, position: int) -> float:
        if not self.columns:
            return 1.0
        return max(1.0, float(self.columns[position].distinct))

    def fanout(self, position: int) -> float:
        """Average tuples per distinct value of the column: |R| / ndv."""
        if self.cardinality <= 0:
            return 0.0
        return self.cardinality / self.distinct(position)

    @classmethod
    def declared(
        cls,
        cardinality: float,
        distincts: Iterable[float],
        acyclic: bool | None = None,
    ) -> "RelationStats":
        """Build synthetic statistics from declared numbers."""
        columns = tuple(ColumnStats(distinct=int(max(1, d))) for d in distincts)
        return cls(cardinality=float(cardinality), columns=columns, acyclic=acyclic)


class StatisticsProvider(Protocol):
    """Anything that can answer "what are the statistics of predicate X"."""

    def stats_for(self, name: str) -> RelationStats | None:
        """Statistics for the relation backing *name*, or None if unknown."""
        ...  # pragma: no cover - protocol


def _is_acyclic_binary(edges: Iterable[tuple[int, int]]) -> bool:
    """Kahn's algorithm over id pairs viewed as an edge set."""
    successors: dict[int, list[int]] = {}
    indegree: dict[int, int] = {}
    for a, b in edges:
        out = successors.get(a)
        if out is None:
            successors[a] = [b]
            indegree.setdefault(a, 0)
        else:
            out.append(b)
        indegree[b] = indegree.get(b, 0) + 1
    queue = [node for node, degree in indegree.items() if degree == 0]
    visited = 0
    while queue:
        node = queue.pop()
        visited += 1
        for succ in successors.get(node, ()):  # pragma: no branch
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    return visited == len(indegree)


def _cycle_candidates(
    sources: list[int], targets: list[int], has_out: set[int], has_in: set[int]
) -> Iterable[tuple[int, int]]:
    """The edges that may lie on a cycle, or a superset: an edge does only
    when its source has an edge in and its target an edge out.  A pass
    keeps those by set probes, with no per-edge Python, and runs while
    at least half the nodes (*has_out*, *has_in*: the sources and the
    targets) lack one side.  A graph with few such nodes is handed to
    Kahn's test whole."""
    while len(has_out) + len(has_in) >= 3 * len(has_out & has_in):
        keep = list(map(and_, map(has_in.__contains__, sources), map(has_out.__contains__, targets)))
        if all(keep):
            break
        sources, targets = list(compress(sources, keep)), list(compress(targets, keep))
        has_out, has_in = set(sources), set(targets)
    return zip(sources, targets)


def _numbers(ids: Iterable[int], decode: Callable[[int], Term]) -> list[float]:
    """The numeric values (a bool is not one) among the terms *ids* name."""
    return [
        float(v.value) for v in map(decode, ids)
        if isinstance(v, Constant) and isinstance(v.value, (int, float)) and not isinstance(v.value, bool)
    ]


def _column(counts: Counter, cardinality: float, numbers: list[float]) -> ColumnStats:
    return ColumnStats(
        distinct=max(1, len(counts)) if cardinality else 0,
        minimum=min(numbers, default=None),
        maximum=max(numbers, default=None),
    )


def collect_statistics(
    relation: Relation, check_acyclic: bool = True, counts: list | None = None
) -> RelationStats:
    """Compute actual statistics from the data in *relation*, in id
    space: a column's distinct count is the size of its id counter, and
    only one term per distinct id is decoded, for the numeric range.  A
    *counts* list receives the counters (id -> rows), one per column.

    Acyclicity is only computed for binary relations (the graph view);
    other arities get ``None``.
    """
    cardinality = float(len(relation))
    store = relation.batch_store(INTERNER)
    counters = [Counter(column) for column in store.columns]
    if counts is not None:
        counts.extend(counters)
    decode = INTERNER.terms.__getitem__
    columns = tuple(_column(counter, cardinality, _numbers(counter, decode)) for counter in counters)
    acyclic: bool | None = None
    if check_acyclic and relation.arity == 2:
        acyclic = _is_acyclic_binary(_cycle_candidates(*store.columns, *(c.keys() for c in counters)))
    return RelationStats(cardinality=cardinality, columns=columns, acyclic=acyclic)


#: :attr:`LiveStatistics.acyclic` of a graph whose flag nobody read yet
_UNREAD = object()


def _acyclic_now(relation: Relation) -> bool:
    """Kahn's test over a binary relation's stored edges."""
    store = relation.batch_store(relation.interner)
    return _is_acyclic_binary(_cycle_candidates(*store.columns, *map(set, store.columns)))


def _closes_a_cycle(store: IdRelation, edges: list[tuple[int, int]]) -> bool | None:
    """Whether one of *edges*, all stored, lies on a cycle: a search from
    its target back to its source over the position-0 bucket map.  The
    searches share a budget of one step per stored edge; None when it
    runs out."""
    if not edges:
        return False
    buckets, targets = store.buckets_for((0,)), store.columns[1]
    budget = store.length
    for source, target in edges:
        seen, stack = {target}, [target]
        while stack:
            node = stack.pop()
            if node == source:
                return True
            for index in buckets.get(node, ()):
                budget -= 1
                if budget < 0:
                    return None
                successor = targets[index]
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
    return False


class LiveStatistics:
    """A stored relation's statistics, kept in step with its writes.

    Built by :func:`collect_statistics` on the first read, with one
    ``Counter`` of id -> rows per column.  A write only logs the id rows
    it changed (:meth:`note`, O(1)); the next :meth:`read` folds the log
    in O(|delta|).  Counts move with the rows, and a column's distinct
    count is its counter's length.  The counters are keyed by value, not
    by row position, so the store's swap-remove reordering cannot make
    them stale.  A numeric range widens as new ids arrive and is
    recomputed from the counter's keys only when an extreme value's last
    row goes.

    The ``acyclic`` flag of a binary relation is computed (Kahn's test)
    at its first read only — only the counting method asks — and kept
    from then on.  It can change two ways only.  An insert into an
    acyclic graph is probed: an edge whose source has no edge in, or
    whose target none out, closes no cycle; any other is searched for
    (:func:`_closes_a_cycle`), and Kahn's test settles it when the search
    runs over budget.  A removal from a cyclic graph reruns Kahn's test.
    """

    __slots__ = ("relation", "version", "counts", "stats", "log", "logged", "acyclic")

    def __init__(self, relation: Relation):
        self.relation = relation
        #: the relation's version the log brings these statistics up to
        self.version = relation.version
        self.counts: list[Counter] = []
        stats = collect_statistics(relation, check_acyclic=False, counts=self.counts)
        #: the kept flag; ``_UNREAD`` for a graph whose flag nobody read yet
        self.acyclic: bool | None | object = _UNREAD if relation.arity == 2 else None
        self.stats = self._served(stats.cardinality, stats.columns)
        #: (changed id rows, whether they were added) per write, oldest first
        self.log: list[tuple[set[IdRow], bool]] = []
        self.logged = 0

    def follows(self, relation: Relation) -> bool:
        """Whether every write to *relation* since the build is logged."""
        return relation is self.relation and relation.version == self.version

    def note(self, version: int, rows: set[IdRow], adding: bool) -> bool:
        """Log a write that moved the relation on from *version*.  False
        when these statistics can no longer follow it: a write before
        this one went past the log, or the log now holds more rows than
        the relation (collecting afresh is then the cheaper read)."""
        if version != self.version:
            return False
        self.log.append((rows, adding))
        self.logged += len(rows)
        self.version = self.relation.version
        return self.logged <= len(self.relation)

    def read(self) -> RelationStats:
        if self.log:
            self._fold()
        return self.stats

    def _served(self, cardinality: float, columns: tuple[ColumnStats, ...]) -> RelationStats:
        """The statistics a read returns: a graph's flag, until someone
        reads it, is computed then, over the relation as it is at that
        read.  (They hold the relation, not these statistics, so that
        reference counting frees both.)"""
        if self.acyclic is _UNREAD:
            return RelationStats.unsettled(cardinality, columns, partial(_acyclic_now, self.relation))
        return RelationStats(cardinality, columns, self.acyclic)

    def _fold(self) -> None:
        log, self.log, self.logged = self.log, [], 0
        decode = self.relation.interner.terms.__getitem__
        #: per column, numbers whose min / max is the column's range
        spans = [[v for v in (c.minimum, c.maximum) if v is not None] for c in self.stats.columns]
        stale: set[int] = set()
        for rows, adding in log:
            for position, counts in enumerate(self.counts):
                keys = list(map(itemgetter(position), rows))
                if adding:
                    spans[position] += _numbers([key for key in set(keys) if key not in counts], decode)
                    counts.update(keys)
                else:
                    counts.subtract(keys)
                    gone = [key for key in set(keys) if not counts[key]]
                    for key in gone:
                        del counts[key]
                    if not set(spans[position]).isdisjoint(_numbers(gone, decode)):
                        stale.add(position)
        for position in stale:
            spans[position] = _numbers(self.counts[position], decode)
        cardinality = float(len(self.relation))
        self.acyclic = self._acyclic(log)
        self.stats = self._served(
            cardinality, tuple(_column(c, cardinality, s) for c, s in zip(self.counts, spans))
        )

    def _acyclic(self, log: list[tuple[set[IdRow], bool]]) -> bool | None | object:
        acyclic = self.acyclic
        if acyclic is _UNREAD and self.stats.settle is None:
            # the served flag was read: of the relation as at that read,
            # with none, some or all of the *log* applied, and every
            # step below holds from any of those states
            acyclic = self.stats.acyclic
        if acyclic is None or acyclic is _UNREAD or not acyclic and all(adding for _rows, adding in log):
            return acyclic  # not a graph, not read yet, or a cyclic one that only grew
        store = self.relation.batch_store(self.relation.interner)
        if acyclic:
            has_out, has_in = self.counts
            suspects = [
                edge for rows, adding in log if adding for edge in rows
                if edge[0] in has_in and edge[1] in has_out and edge in store.rows
            ]
            closes = _closes_a_cycle(store, suspects)
            if closes is not None:
                return not closes
        return _is_acyclic_binary(_cycle_candidates(*store.columns, *(c.keys() for c in self.counts)))


class DeclaredStatistics:
    """A :class:`StatisticsProvider` over declared (synthetic) statistics.

    Used by the optimizer benchmarks to sample "states of the database"
    without materializing data, mirroring [Vil 87]'s methodology.
    """

    def __init__(self, stats: Mapping[str, RelationStats] | None = None):
        self._stats: dict[str, RelationStats] = dict(stats or {})

    def declare(
        self,
        name: str,
        cardinality: float,
        distincts: Iterable[float],
        acyclic: bool | None = None,
    ) -> None:
        self._stats[name] = RelationStats.declared(cardinality, distincts, acyclic)

    def stats_for(self, name: str) -> RelationStats | None:
        return self._stats.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._stats
