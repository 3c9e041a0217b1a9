"""Hash indexes over relation columns.

The only index kind the execution model needs: an equality hash index on a
subset of column positions.  It backs the index-nested-loop join method
(one of the EL "exchange label" choices, Section 5) and magic-set seed
lookups.  Ground terms are immutable and hashable, so the index is a plain
dict from key tuples to row sets.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..datalog.terms import Term

Row = tuple[Term, ...]


class HashIndex:
    """An equality index on ``positions`` of a relation's tuples."""

    def __init__(self, positions: Sequence[int]):
        self.positions = tuple(positions)
        self._buckets: dict[tuple[Term, ...], set[Row]] = {}

    def key_of(self, row: Row) -> tuple[Term, ...]:
        return tuple(row[p] for p in self.positions)

    def add(self, row: Row) -> None:
        self._buckets.setdefault(self.key_of(row), set()).add(row)

    def extend(self, rows: Iterable[Row]) -> None:
        """Bulk :meth:`add` (index builds over a whole extension)."""
        buckets = self._buckets
        positions = self.positions
        for row in rows:
            key = tuple([row[p] for p in positions])
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {row}
            else:
                bucket.add(row)

    def remove(self, row: Row) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(row)
            if not bucket:
                del self._buckets[key]

    def get(self, key: Sequence[Term]) -> frozenset[Row]:
        """All rows whose indexed columns equal *key*."""
        return frozenset(self._buckets.get(tuple(key), frozenset()))

    _EMPTY_BUCKET: frozenset[Row] = frozenset()

    def get_bucket(self, key: tuple[Term, ...]) -> "frozenset[Row] | set[Row]":
        """The internal bucket for *key* — no defensive copy.

        Hot-path variant of :meth:`get`: callers must not mutate the
        returned set and must not hold it across inserts.
        """
        return self._buckets.get(key, self._EMPTY_BUCKET)

    def __contains__(self, key: Sequence[Term]) -> bool:
        return tuple(key) in self._buckets

    def keys(self) -> Iterator[tuple[Term, ...]]:
        return iter(self._buckets)

    def clear(self) -> None:
        self._buckets.clear()

    @property
    def distinct_keys(self) -> int:
        return len(self._buckets)

    def bucket_sizes(self) -> list[int]:
        """Bucket cardinalities (used by statistics collection for fanout)."""
        return [len(bucket) for bucket in self._buckets.values()]

    def __repr__(self) -> str:
        return f"HashIndex(positions={self.positions}, keys={len(self._buckets)})"
