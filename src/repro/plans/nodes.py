"""Processing trees (Section 4): the execution model of the optimizer.

A processing tree is the compiled form of a query: AND nodes are joins,
OR nodes are unions, contracted recursive cliques are CC (fixpoint)
nodes, and every node carries the *labels* the execution space ranges
over — the materialized/pipelined mode (MP), the join/recursion method
(EL / the recursive-method part of PA), and the chosen permutation (PR /
the c-permutation part of PA).  Selections (comparisons) are piggybacked
as steps in their chosen position (PS), and projections are implicit in
the bindings-table schemas (PP).

Nodes are immutable; the optimizer annotates them with its estimates at
construction time.  A node for a derived predicate is built *per binding
pattern* — the same predicate queried two ways yields two different
subtrees, which is precisely the paper's per-binding memoization (NR-OPT
step 2).

The interpreter (:mod:`repro.engine.interpreter`) gives these nodes their
operational meaning: every derived-predicate node maps an optional input
relation of bound-argument keys to the set of matching head tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..datalog.bindings import BindingPattern
from ..datalog.literals import Literal, PredicateRef
from ..datalog.rules import Program, Rule
from ..cost.model import Estimate

#: Recursive methods a CC node can be labelled with (Section 7.3).
#: "supplementary" is supplementary magic — same seeding/answer protocol
#: as magic, different rewritten program.
RECURSIVE_METHODS = ("seminaive", "naive", "magic", "supplementary", "counting")


@dataclass(frozen=True, slots=True)
class JoinStep:
    """One step of an AND node's left-to-right execution.

    * ``literal`` — the body literal this step realizes (a comparison
      step has ``child is None`` and ``method == 'eval'``);
    * ``child`` — the subplan for a derived literal, ``None`` for base
      relations and comparisons;
    * ``method`` — the EL label: ``index``/``hash``/``nested_loop``/
      ``merge`` for base literals, ``eval`` for comparisons,
      ``anti_probe`` for negation, and for derived children the MP label
      ``pipelined``/``materialized``;
    * ``pipelined`` — whether sideways bindings flow into this step (for
      base literals ``index`` implies pipelined probing; a materialized
      base step scans the stored relation).
    """

    literal: Literal
    child: Optional["DerivedPlan"]
    method: str
    pipelined: bool
    est: Estimate = Estimate(0.0, 0.0)

    def describe(self) -> str:
        mode = "→" if self.pipelined else "⊳"
        return f"{mode} {self.literal} [{self.method}]"


@dataclass(frozen=True, slots=True)
class JoinNode:
    """An AND node: one rule body in a chosen permutation (PR) with
    method labels (EL) and modes (MP)."""

    rule: Rule
    binding: BindingPattern
    steps: tuple[JoinStep, ...]
    est: Estimate = Estimate(0.0, 0.0)
    #: order candidates branch-and-bound discarded while picking this body
    pruned: int = 0

    @property
    def head(self) -> Literal:
        return self.rule.head

    def describe(self) -> str:
        return f"AND {self.rule.head} / {self.binding}"


@dataclass(frozen=True, slots=True)
class UnionNode:
    """An OR node: the union of the rules defining a derived predicate,
    optimized for one binding pattern."""

    ref: PredicateRef
    binding: BindingPattern
    children: tuple[JoinNode, ...]
    est: Estimate = Estimate(0.0, 0.0)
    #: per-column distinct estimates of the materialized extension
    ndvs: tuple[float, ...] = ()

    def describe(self) -> str:
        return f"OR {self.ref} / {self.binding}"


@dataclass(frozen=True, slots=True)
class FixpointNode:
    """A CC node: a contracted recursive clique (Section 4).

    The node's label is the paper's PA choice — a c-permutation (it
    fixed the body order of every rule in ``program``) plus a recursive
    method — and the execution program is the corresponding rewrite:

    * ``seminaive`` / ``naive`` — the original clique rules; the whole
      extension is computed and then filtered by the input keys
      (materialized fixpoint);
    * ``magic`` / ``supplementary`` / ``counting`` — the (supplementary)
      magic or counting rewrite, seeded once with the whole input key set
      into ``seed_predicate``; its answers are then selected by key
      (pipelined fixpoint, set-oriented).

    ``program`` already includes the support rules for non-clique derived
    predicates referenced inside the clique.
    """

    ref: PredicateRef
    binding: BindingPattern
    method: str
    program: Program
    answer_predicate: str
    seed_predicate: Optional[str]
    est: Estimate = Estimate(0.0, 0.0)
    ndvs: tuple[float, ...] = ()

    def describe(self) -> str:
        return f"CC {self.ref} / {self.binding} [{self.method}]"


#: Anything that can stand for a derived predicate in a join step.
DerivedPlan = Union[UnionNode, FixpointNode]


class PlanCode:
    """The executable form of a compiled query: what the engine derives
    from the plan's nodes alone, whatever the ``$``-values — kept beside
    the plan so it is derived once per plan and an execution allocates
    workspaces only.

    A plain holder.  The engine fills it on first execution
    (:mod:`repro.engine.interpreter` puts each AND node's lowering here,
    :mod:`repro.engine.fixpoint` each evaluated program's stratum
    schedule) and it is dropped with the plan.  An interpreter or
    fixpoint engine used on its own builds a private one through the
    same calls.
    """

    __slots__ = ("memo", "entries")

    def __init__(self, memo: "dict | None" = None):
        #: ``(rule, reorder, bound, methods) -> BatchPlan``: lowered
        #: rules by value (:func:`repro.engine.batch.lower_rule`).  A
        #: knowledge base shares one memo among all its plans, so a plan
        #: re-optimized after a data write lowers nothing again.
        self.memo: dict = {} if memo is None else memo
        #: ``(id(owner), tag) -> (owner, value)``; the owner is held so
        #: its id stays its own
        self.entries: dict = {}

    def once(self, owner: object, tag: object, build, *args):
        """``build(*args)``, computed the first time it is asked for
        under this *owner* (a plan node, a program — by identity) and
        *tag*."""
        key = (id(owner), tag)
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = (owner, build(*args))
        return entry[1]

#: Any node of a processing tree.
PlanNode = Union[JoinNode, UnionNode, FixpointNode, JoinStep]


def plan_nodes(plan: PlanNode) -> list[PlanNode]:
    """All nodes of a processing tree, pre-order."""
    out: list[PlanNode] = [plan]
    if isinstance(plan, UnionNode):
        for child in plan.children:
            out.extend(plan_nodes(child))
    elif isinstance(plan, JoinNode):
        for step in plan.steps:
            out.append(step)
            if step.child is not None:
                out.extend(plan_nodes(step.child))
    return out


def count_nodes(plan: PlanNode) -> int:
    """Number of nodes in the tree (used by complexity benchmarks)."""
    return len(plan_nodes(plan))
