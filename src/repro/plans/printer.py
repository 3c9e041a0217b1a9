"""Pretty-printing (EXPLAIN / EXPLAIN ANALYZE) for processing trees.

Renders the tree the way the paper draws Figure 4-1: AND/OR/CC nodes with
their labels, plus the optimizer's cost/cardinality annotations.  Squares
(materialized) and triangles (pipelined) become ``⊳`` and ``→`` markers
on join steps.

:func:`explain_analyzed` adds the measured side: every executed node is
annotated ``est=<cost-model cardinality> act=<measured tuples>
err=<q-error>``, where the *q-error* is the standard symmetric ratio

    q = max(est / act, act / est)   (both clamped to >= 1)

so ``err=1.0x`` is a perfect estimate and the metric penalizes over- and
under-estimation alike.  A ``top misestimates`` summary after the tree
ranks the worst nodes, which is where cost-model debugging starts.
"""

from __future__ import annotations

import math

from .nodes import DerivedPlan, FixpointNode, JoinNode, JoinStep, UnionNode


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "∞"
    if value >= 1000:
        return f"{value:.3g}"
    return f"{value:.1f}"


def q_error(est_card: float, act_rows: float) -> float:
    """The symmetric estimation error ``max(est/act, act/est)``.

    Both sides are clamped to >= 1 so empty results and sub-row
    estimates do not divide by zero (and a 0-vs-0 node scores a perfect
    1.0).  Infinite estimates score ``inf`` — an "unsafe" plan that ran
    anyway is by definition the worst misestimate.
    """
    est = max(1.0, est_card)
    act = max(1.0, float(act_rows))
    if math.isinf(est):
        return math.inf
    return max(est / act, act / est)


def worst_q_error(plan: DerivedPlan, node_stats: dict[int, dict]) -> float:
    """The largest q-error over the nodes and steps of *plan* that ran
    (1.0 when none did) — the figure EXPLAIN ANALYZE ranks, without the
    text.  A subplan shared by several steps is visited once."""
    worst = 1.0
    seen: set[int] = set()
    stack: list = [plan]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stats = node_stats.get(id(node))
        if stats is not None:
            worst = max(worst, q_error(node.est.card, stats["rows"]))
        if isinstance(node, UnionNode):
            stack.extend(node.children)
        elif isinstance(node, JoinNode):
            stack.extend(node.steps)
        elif isinstance(node, JoinStep) and node.child is not None:
            stack.append(node.child)
    return worst


def explain(plan: DerivedPlan, indent: int = 0) -> str:
    """A multi-line textual rendering of *plan*."""
    lines: list[str] = []
    _explain_into(plan, indent, lines)
    return "\n".join(lines)


def explain_analyzed(
    plan: DerivedPlan,
    node_stats: dict[int, dict],
    top_misestimates: int = 3,
) -> str:
    """EXPLAIN ANALYZE: the plan annotated with measured execution stats.

    *node_stats* is :attr:`repro.engine.interpreter.Interpreter.node_stats`
    after a run — per-node call counts (incl. cache hits) and the largest
    observed result size.  Every executed AND/OR/CC node and join step is
    annotated ``est=... act=... err=...``; the worst *top_misestimates*
    q-errors are summarized after the tree.
    """
    lines: list[str] = []
    misses: list[tuple[float, str]] = []
    _explain_into(plan, 0, lines, node_stats, misses)
    worst = [m for m in sorted(misses, key=lambda m: (-m[0], m[1])) if m[0] > 1.0]
    if worst:
        lines.append(f"-- top misestimates (q-error, worst {top_misestimates}):")
        for err, label in worst[:top_misestimates]:
            lines.append(f"--   {_fmt_err(err)} {label}")
    else:
        lines.append("-- top misestimates: none (every executed node within 1.0x)")
    return "\n".join(lines)


def _fmt_err(err: float) -> str:
    return "err=∞" if math.isinf(err) else f"err={err:.1f}x"


def _measured(
    node,
    label: str,
    node_stats: dict[int, dict] | None,
    misses: list | None,
) -> str:
    """The ``est/act/err`` annotation of one node, or ``[not executed]``."""
    if node_stats is None:
        return ""
    stats = node_stats.get(id(node))
    if stats is None:
        return "  [not executed]"
    act = stats["rows"]
    err = q_error(node.est.card, act)
    if misses is not None:
        misses.append((err, f"{label} (est={_fmt(node.est.card)} act={act})"))
    cached = f", {stats['cached_calls']} cached" if stats["cached_calls"] else ""
    # "measured: rows=" is a stable token downstream tooling greps for.
    return (
        f"  [measured: rows={act} est={_fmt(node.est.card)} act={act} "
        f"{_fmt_err(err)} calls={stats['calls']}{cached}]"
    )


def _annotation(est) -> str:
    return f"(cost={_fmt(est.cost)}, card={_fmt(est.card)})"


def _explain_into(
    node,
    indent: int,
    lines: list[str],
    node_stats: dict | None = None,
    misses: list | None = None,
) -> None:
    pad = "  " * indent
    if isinstance(node, UnionNode):
        lines.append(
            f"{pad}OR {node.ref} adorned {node.binding} {_annotation(node.est)}"
            f"{_measured(node, f'OR {node.ref}', node_stats, misses)}"
        )
        for child in node.children:
            _explain_into(child, indent + 1, lines, node_stats, misses)
    elif isinstance(node, JoinNode):
        # ``~pruned=N``: branch-and-bound discarded N order candidates
        # while picking this body (getattr keeps old plans printable).
        pruned_count = getattr(node, "pruned", 0)
        pruned = f" ~pruned={pruned_count}" if pruned_count else ""
        lines.append(
            f"{pad}AND {node.rule.head} / {node.binding}{pruned} {_annotation(node.est)}"
            f"{_measured(node, f'AND {node.rule.head}', node_stats, misses)}"
        )
        for step in node.steps:
            marker = "→" if step.pipelined else "⊳"
            lines.append(
                f"{pad}  {marker} {step.literal} [{step.method}] "
                f"{_annotation(step.est)}"
                f"{_measured(step, f'step {step.literal}', node_stats, misses)}"
            )
            if step.child is not None:
                _explain_into(step.child, indent + 2, lines, node_stats, misses)
    elif isinstance(node, FixpointNode):
        lines.append(
            f"{pad}CC {node.ref} adorned {node.binding} method={node.method} "
            f"{_annotation(node.est)}"
            f"{_measured(node, f'CC {node.ref}', node_stats, misses)}"
        )
        for rule in node.program:
            lines.append(f"{pad}    | {rule}")
    else:  # pragma: no cover - defensive
        lines.append(f"{pad}{node!r}")
