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

Statistics may be *collected* from data (:func:`collect_statistics`) or
*declared* (synthetic catalogs used by the optimizer benchmarks, matching
the paper's experiment design of "randomly picking queries and states of
the database").  Consumers depend only on the
:class:`StatisticsProvider` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import and_
from typing import Iterable, Mapping, Protocol

from ..datalog.intern import INTERNER
from ..datalog.terms import Constant
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
    treats unknown as cyclic for safety.
    """

    cardinality: float
    columns: tuple[ColumnStats, ...]
    acyclic: bool | None = None

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


def collect_statistics(relation: Relation, check_acyclic: bool = True) -> RelationStats:
    """Compute actual statistics from the data in *relation*, in id
    space: a column's distinct count is the size of its id set, and only
    one term per distinct id is decoded, for the numeric range.

    Acyclicity is only computed for binary relations (the graph view);
    other arities get ``None``.
    """
    cardinality = float(len(relation))
    store = relation.batch_store(INTERNER)
    distinct_ids = [set(column) for column in store.columns]
    decode = INTERNER.terms.__getitem__
    columns: list[ColumnStats] = []
    for values in distinct_ids:
        numbers = [
            v.value for v in map(decode, values)
            if isinstance(v, Constant) and isinstance(v.value, (int, float)) and not isinstance(v.value, bool)
        ]
        columns.append(
            ColumnStats(
                distinct=max(1, len(values)) if cardinality else 0,
                minimum=float(min(numbers)) if numbers else None,
                maximum=float(max(numbers)) if numbers else None,
            )
        )
    acyclic: bool | None = None
    if check_acyclic and relation.arity == 2:
        acyclic = _is_acyclic_binary(_cycle_candidates(*store.columns, *distinct_ids))
    return RelationStats(cardinality=cardinality, columns=tuple(columns), acyclic=acyclic)


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
