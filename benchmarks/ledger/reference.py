"""Independent plain-Python evaluators the ledger checks answers against.

Nothing here imports ``repro``: an answer is never compared with another
tier, plan or strategy of the program under test, only with these few
lines of BFS / hash join over the harness's own copy of the facts.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping, Sequence

Adjacency = Mapping[Hashable, Iterable[Hashable]]

_MASK = (1 << 64) - 1


def adjacency(edges: Iterable[tuple]) -> dict:
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
    return adj


def reach_from(adj: Adjacency, sources: Iterable[Hashable], known: set = frozenset()) -> set:
    """Nodes reachable from any of *sources* by one or more edges.
    *known* is a set already closed under reachability: its members are
    not walked again, and are not in the result."""
    seen: set = set()
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        for nxt in adj.get(node, ()):
            if nxt not in seen and nxt not in known:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def closure(adj: Adjacency) -> set[tuple]:
    """All-pairs transitive closure: one BFS per node with out-edges."""
    return {(u, v) for u in adj for v in reach_from(adj, (u,))}


def frontier_reach(adj: Adjacency, sources: Iterable[Hashable]) -> set:
    """``reach(X) <- source(X).  reach(Y) <- reach(X), edge(X, Y).``"""
    sources = set(sources)
    return sources | reach_from(adj, sources)


def guarded_reach(adj: Adjacency, blocked: set, start: Hashable) -> set:
    """``sreach(start, Y)``: paths whose every node after *start* is
    unblocked; the recursive rule also refuses to come back to *start*
    (its ``X != Y`` guard), the exit rule does not."""
    seen = {y for y in adj.get(start, ()) if y not in blocked}
    queue = deque(seen)
    while queue:
        node = queue.popleft()
        for nxt in adj.get(node, ()):
            if nxt not in seen and nxt not in blocked and nxt != start:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def guarded_closure(adj: Adjacency, blocked: set) -> set[tuple]:
    return {(u, v) for u in adj for v in guarded_reach(adj, blocked, u)}


def group_counts(pairs: Iterable[tuple]) -> set[tuple]:
    """``nreach(X, count(Y)) <- sreach(X, Y).``"""
    counts: dict = {}
    for x, _y in pairs:
        counts[x] = counts.get(x, 0) + 1
    return set(counts.items())


def same_generation(up: Adjacency, dn: Adjacency, flat: Adjacency, xs: set) -> set:
    """``sg(X,Y) <- flat(X,Y).  sg(X,Y) <- up(X,X1), sg(X1,Y1), dn(Y1,Y).``
    for every X in *xs* at once (the union distributes over the rules):
    climb one level, solve there, come back down one level.  Terminates
    because ``up`` is acyclic."""
    if not xs:
        return set()
    out = {y for x in xs for y in flat.get(x, ())}
    above = same_generation(up, dn, flat, {p for x in xs for p in up.get(x, ())})
    out.update(y for y1 in above for y in dn.get(y1, ()))
    return out


def hash_join(
    body: Sequence[tuple[str, tuple[str, ...]]],
    relations: Mapping[str, Sequence[tuple]],
    bound: Mapping[str, Hashable],
    out_vars: Sequence[str],
) -> set[tuple]:
    """Left-to-right hash join of a conjunction.  *body* is a list of
    ``(relation name, variable names)``; *bound* the ``$``-bindings."""
    order = list(bound)
    rows = [tuple(bound[v] for v in order)]
    for name, variables in body:
        known = [(i, order.index(v)) for i, v in enumerate(variables) if v in order]
        fresh = [(i, v) for i, v in enumerate(variables) if v not in order]
        index: dict = {}
        for fact in relations[name]:
            index.setdefault(tuple(fact[i] for i, _ in known), []).append(fact)
        rows = [
            row + tuple(fact[i] for i, _ in fresh)
            for row in rows
            for fact in index.get(tuple(row[j] for _, j in known), ())
        ]
        order.extend(v for _, v in fresh)
    picks = [order.index(v) for v in out_vars]
    return {tuple(row[j] for j in picks) for row in rows}


def digest(rows: Iterable[tuple]) -> tuple[int, int]:
    """Row count plus an order-independent hash; two duplicate-free row
    collections with equal digests hold the same rows.  Used in place of
    building two sets when an answer has >= 10^4 rows."""
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += hash(row)
    return count, total & _MASK


def same_rows(got: Sequence[tuple], expected: set[tuple]) -> bool:
    """Answers are duplicate-free lists; compare as sets (small) or by
    digest (large)."""
    if len(got) != len(expected):
        return False
    if len(got) < 10_000:
        return set(got) == expected
    return digest(got) == digest(expected)
