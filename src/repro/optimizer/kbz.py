"""The quadratic join-ordering algorithm of [KBZ 86] (Section 7.1).

"In [KBZ 86], we presented a quadratic time algorithm that computes the
optimal ordering of conjunctive queries when the query is acyclic and the
cost function satisfies a linearity property called the Adjacent Sequence
Interchange (ASI) property.  Further, this algorithm was extended to
include cyclic queries and other cost models."

Implementation (the classical IK/KBZ scheme):

1. build the *join graph* over the joinable literals (an edge where two
   literals share an unbound variable), with edge selectivities from
   catalog statistics;
2. if the graph is cyclic, reduce it to a maximum-selectivity spanning
   tree (i.e. keep the most selective edges — the standard cyclic
   extension); if it is disconnected, connect components with
   cross-product edges of selectivity 1;
3. for every choice of root: orient the tree, give each non-root node
   the ASI measures ``T = s · |R|`` and ``C = T``, and linearize
   bottom-up by *rank* ``(T − 1)/C`` with chain normalization (merging a
   parent with the head of its chain whenever their ranks invert) — this
   is optimal for the ASI cost function on the rooted tree;
4. cost each root's linearization with the system's real estimator and
   return the best — so the quadratic strategy plugs into the same
   cost-model black box as the other strategies, and the quality numbers
   of EXP-1 compare like with like (exactly [Vil 87]'s methodology).

Complexity: O(n²) per root and n roots gives O(n³) worst case here; the
classical presentation shares work across roots for O(n²) total, a
refinement that does not change the chosen orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cost.estimates import BodyEstimator
from ..datalog.literals import Literal
from ..datalog.terms import Variable, variables_of
from .conjunctive import OrderResult, cost_order, split_joinable


@dataclass
class _Node:
    """A (possibly compound) chain element with ASI measures."""

    positions: tuple[int, ...]
    t: float
    c: float

    @property
    def rank(self) -> float:
        if self.c <= 0:
            return 0.0
        return (self.t - 1.0) / self.c

    def merge(self, other: "_Node") -> "_Node":
        """Compound node: self followed by other (ASI composition)."""
        return _Node(
            positions=self.positions + other.positions,
            t=self.t * other.t,
            c=self.c + self.t * other.c,
        )


def _edge_selectivity(
    left: Literal, right: Literal, estimator: BodyEstimator, bound: frozenset[Variable]
) -> float:
    """Join selectivity between two literals: 1/max(ndv) per shared var."""
    shared = (left.variables & right.variables) - bound
    if not shared:
        return 1.0
    left_stats = estimator.stats_for(left.predicate, left.arity)
    right_stats = estimator.stats_for(right.predicate, right.arity)

    def ndv_of(literal: Literal, stats, var: Variable) -> float:
        best = 1.0
        for position, arg in enumerate(literal.args):
            if var in variables_of(arg):
                best = max(best, stats.distinct(position))
        return best

    selectivity = 1.0
    for var in shared:
        selectivity /= max(ndv_of(left, left_stats, var), ndv_of(right, right_stats, var))
    return selectivity


def _base_cardinality(
    literal: Literal, estimator: BodyEstimator, bound: frozenset[Variable]
) -> float:
    """|R| reduced by the initially bound argument positions."""
    stats = estimator.stats_for(literal.predicate, literal.arity)
    card = stats.cardinality
    for position, arg in enumerate(literal.args):
        if variables_of(arg) and variables_of(arg) <= bound:
            card /= max(1.0, stats.distinct(position))
    return max(card, 1.0)


def _spanning_tree(
    n: int, edges: dict[tuple[int, int], float]
) -> dict[int, list[int]]:
    """Keep the most selective edges forming a spanning forest (Kruskal),
    then connect remaining components with selectivity-1 edges."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
    for (a, b), __ in sorted(edges.items(), key=lambda item: item[1]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            adjacency[a].append(b)
            adjacency[b].append(a)
    # connect leftover components (cross products)
    for node in range(1, n):
        if find(node) != find(0):
            parent[find(node)] = find(0)
            adjacency[0].append(node)
            adjacency[node].append(0)
    return adjacency


def _linearize(
    root: int,
    adjacency: dict[int, list[int]],
    t_values: dict[tuple[int, int], float],
) -> list[int]:
    """Rank-based linearization of the tree rooted at *root*.

    ``t_values[(parent, child)]`` is the child's T measure under that
    orientation.  Returns node order, root first.
    """

    def chain_of(node: int, parent: int | None) -> list[_Node]:
        children = [c for c in adjacency[node] if c != parent]
        merged: list[_Node] = []
        for child in children:
            t = t_values[(node, child)]
            child_chain = chain_of(child, node)
            head = _Node((child,), t, max(t, 1e-12))
            # normalization: absorb the child's chain heads while ranks invert
            chain = [head] + child_chain
            normalized: list[_Node] = []
            for element in chain:
                normalized.append(element)
                while len(normalized) >= 2 and normalized[-2].rank > normalized[-1].rank:
                    tail = normalized.pop()
                    normalized[-1] = normalized[-1].merge(tail)
            merged = _merge_chains(merged, normalized)
        return merged

    order: list[int] = [root]
    for element in chain_of(root, None):
        order.extend(element.positions)
    return order


def _merge_chains(left: list[_Node], right: list[_Node]) -> list[_Node]:
    """Merge two rank-sorted chains by ascending rank (stable)."""
    out: list[_Node] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i].rank <= right[j].rank:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def kbz_order(
    body: Sequence[Literal],
    initially_bound: frozenset[Variable],
    estimator: BodyEstimator,
) -> OrderResult:
    """The KBZ quadratic strategy: rank-ordered spanning-tree linearization.

    Falls back gracefully for degenerate inputs (0 or 1 joinable
    literals).  The returned :class:`OrderResult` counts one evaluation
    per candidate costed (each root, each transposition — whether costed
    from position 0 or from a :func:`cost_order` checkpoint), making
    strategy-efficiency comparisons (EXP-1, EXP-3) straightforward.
    """
    joinable, floating = split_joinable(body)
    if len(joinable) <= 1:
        return cost_order(body, tuple(joinable), floating, initially_bound, estimator)

    literals = [body[i] for i in joinable]
    n = len(literals)
    bound = frozenset(initially_bound)

    edges: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            shared = (literals[i].variables & literals[j].variables) - bound
            if shared:
                edges[(i, j)] = _edge_selectivity(literals[i], literals[j], estimator, bound)

    adjacency = _spanning_tree(n, edges)

    def edge_sel(a: int, b: int) -> float:
        return edges.get((min(a, b), max(a, b)), 1.0)

    cards = [_base_cardinality(literal, estimator, bound) for literal in literals]

    best: OrderResult | None = None
    best_perm: tuple[int, ...] = tuple(joinable)
    best_trail: list = []  # the incumbent's prefix checkpoints
    evaluations = 0
    for root in range(n):
        t_values: dict[tuple[int, int], float] = {}
        stack = [(root, None)]
        while stack:
            node, parent = stack.pop()
            for child in adjacency[node]:
                if child == parent:
                    continue
                t_values[(node, child)] = max(edge_sel(node, child) * cards[child], 1e-12)
                stack.append((child, node))
        local_order = _linearize(root, adjacency, t_values)
        permutation = tuple(joinable[i] for i in local_order)
        trail: list = []
        result = cost_order(body, permutation, floating, initially_bound, estimator, trail)
        evaluations += 1
        if best is None or result.est.cost < best.est.cost:
            best, best_perm, best_trail = result, permutation, trail
    assert best is not None

    # The "other cost models" extension ([KBZ 86] as evaluated by
    # [Vil 87]): the rank linearization is exact only for ASI cost
    # functions, so finish with a bounded adjacent-transposition descent
    # under the real cost model.  O(n) evaluations per sweep, at most
    # n sweeps — the overall budget stays quadratic.  A candidate shares
    # its first i positions with the incumbent and resumes from the
    # incumbent's checkpoint there.
    improved = True
    sweeps = 0
    while improved and sweeps < n:
        improved = False
        sweeps += 1
        for i in range(len(best_perm) - 1):
            candidate = list(best_perm)
            candidate[i], candidate[i + 1] = candidate[i + 1], candidate[i]
            trail = best_trail[: i + 1]
            result = cost_order(body, candidate, floating, initially_bound, estimator, trail)
            evaluations += 1
            if result.est.cost < best.est.cost:
                best, best_perm, best_trail = result, tuple(candidate), trail
                improved = True
    return OrderResult(best.steps, best.est, evaluations)
