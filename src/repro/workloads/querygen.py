"""Random conjunctive queries and database states ([Vil 87] methodology).

The paper's quality numbers for the quadratic strategy came from
"randomly picking queries and states of the database and then comparing
the results of the quadratic time and exhaustive algorithms".  This
module is that generator: seeded, so every benchmark run is
reproducible.

A generated workload is a rule body (a conjunctive query) over fresh
base predicates plus a :class:`~repro.storage.statistics.DeclaredStatistics`
catalog — exactly what the ordering strategies consume.  Query *shapes*
control the join graph:

* ``chain``  — r1(A0,A1), r2(A1,A2), ... (the ASI-friendly case);
* ``star``   — r1(A0,A1), r2(A0,A2), ... (fan-out from a hub);
* ``cycle``  — a chain whose last literal closes back to A0;
* ``clique`` — every pair of literals shares a variable;
* ``random`` — a random connected join graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..datalog.literals import Literal
from ..datalog.terms import Variable
from ..storage.statistics import DeclaredStatistics

SHAPES = ("chain", "star", "cycle", "clique", "random")


@dataclass(frozen=True, slots=True)
class ConjunctiveWorkload:
    """One sampled query + database state."""

    body: tuple[Literal, ...]
    stats: DeclaredStatistics
    shape: str
    seed: int

    @property
    def size(self) -> int:
        return len(self.body)


def _edge_list(shape: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Variable-sharing structure: which variable indices each literal links."""
    if shape == "chain":
        return [(i, i + 1) for i in range(n)]
    if shape == "star":
        return [(0, i + 1) for i in range(n)]
    if shape == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if shape == "clique":
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                out.append((i, j))
        return out[:n] if n > 2 else out  # keep literal count = n
    if shape == "random":
        # a random spanning tree over n+1 variables, plus extra edges
        edges = []
        for node in range(1, n + 1):
            edges.append((rng.randrange(node), node))
        rng.shuffle(edges)
        return edges[:n]
    raise ValueError(f"unknown shape {shape!r}")


def generate_conjunctive(
    n: int,
    shape: str = "chain",
    seed: int = 0,
    min_card: float = 10.0,
    max_card: float = 100_000.0,
    prefix: str = "r",
) -> ConjunctiveWorkload:
    """Sample an n-literal conjunctive query and a random database state.

    Cardinalities are log-uniform in ``[min_card, max_card]`` and each
    column's distinct count is a random fraction of the cardinality —
    mimicking the wide spread of realistic catalogs so the cost spectrum
    (EXP-6) has room to span orders of magnitude.
    """
    rng = random.Random(seed)
    edges = _edge_list(shape, n, rng)
    variables = [Variable(f"A{i}") for i in range(max(max(e) for e in edges) + 1)]

    body: list[Literal] = []
    stats = DeclaredStatistics()
    import math

    for index, (a, b) in enumerate(edges):
        name = f"{prefix}{index}"
        card = math.exp(rng.uniform(math.log(min_card), math.log(max_card)))
        distincts = [
            max(1.0, card * rng.uniform(0.01, 1.0)),
            max(1.0, card * rng.uniform(0.01, 1.0)),
        ]
        stats.declare(name, card, distincts)
        body.append(Literal(name, (variables[a], variables[b])))
    return ConjunctiveWorkload(tuple(body), stats, shape, seed)


def generate_random_program(
    seed: int = 0,
    layers: int = 2,
    width: int = 2,
    domain_size: int = 12,
    facts_per_relation: int = 30,
):
    """A random layered non-recursive rule base *with data*.

    Returns ``(rules_text, facts, query)``: base relations ``b0..b3``
    hold random binary facts over a small domain; each layer defines
    *width* derived predicates joining two predicates from below (sharing
    a variable), sometimes guarded by a disequality; ``top`` unions two
    rules over the last layer.  Used by the cross-strategy equivalence
    property tests — any optimizer strategy must return the same answers
    on these.
    """
    rng = random.Random(seed)
    domain = [f"d{i}" for i in range(domain_size)]
    facts: dict[str, list[tuple]] = {}
    for index in range(4):
        rows = {
            (rng.choice(domain), rng.choice(domain))
            for __ in range(facts_per_relation)
        }
        facts[f"b{index}"] = sorted(rows)

    available = [f"b{i}" for i in range(4)]
    lines: list[str] = []
    for layer in range(layers):
        created = []
        for index in range(width):
            name = f"d{layer}_{index}"
            left = rng.choice(available)
            right = rng.choice(available)
            guard = ", X != Y" if rng.random() < 0.4 else ""
            lines.append(f"{name}(X, Y) <- {left}(X, Z), {right}(Z, Y){guard}.")
            created.append(name)
        available = available + created
    top_sources = rng.sample(available[-(width * layers):] or available, k=min(2, len(available)))
    for source in top_sources:
        lines.append(f"top(X, Y) <- {source}(X, Y).")
    return "\n".join(lines), facts, "top($X, Y)?"


DIFFERENTIAL_FEATURES = (
    "negation", "comparison", "multiclique", "zeroary", "functor",
    "aggregate", "arith",
)


@dataclass(frozen=True, slots=True)
class DifferentialProgram:
    """One sampled program + data + query set for differential testing.

    ``facts`` maps base relation names to plain-python rows (the loader
    converts them to terms); ``queries`` are parseable query strings with
    constants for bound arguments, so every execution strategy can run
    them without keyword bindings; ``features`` records which optional
    language features this sample exercises.
    """

    rules: str
    facts: dict[str, list[tuple]]
    queries: tuple[str, ...]
    seed: int
    features: frozenset[str]


def generate_differential_program(
    seed: int = 0,
    domain_size: int = 6,
    facts_per_relation: int = 9,
    features: tuple[str, ...] | None = None,
) -> DifferentialProgram:
    """A random stratified, terminating program for the differential oracle.

    Covers the features the conjunctive generator skips: recursive cliques
    (left/right/non-linear transitive closure), *multi-clique* programs (a
    second clique consuming the first), stratified negation over base and
    recursive predicates, arithmetic comparisons, zero-ary predicates
    (both as goals and as body guards), functor terms (built and
    decomposed in rule heads/bodies — nested, under a repeated variable,
    probed bound, negated, asked with a bound struct position), stratified
    aggregates (``count`` and one numeric fold, non-recursive), and
    computed values (a binding ``=`` over arithmetic, ``=`` against stored
    ground structs, and a ``succ`` or ``range`` built-in).

    Bodies are emitted in a textually safe order — positive binding
    literals before comparisons and negations — because the tabled SLD
    engine resolves strictly left to right.  When *features* is ``None``
    each optional feature is an independent seeded coin flip, so a sweep
    over many seeds covers every combination.
    """
    rng = random.Random(seed)
    if features is None:
        enabled = frozenset(f for f in DIFFERENTIAL_FEATURES if rng.random() < 0.6)
    else:
        enabled = frozenset(features)
        unknown = enabled - set(DIFFERENTIAL_FEATURES)
        if unknown:
            raise ValueError(f"unknown differential features: {sorted(unknown)}")

    domain = [f"d{i}" for i in range(domain_size)]

    def pairs(count: int) -> list[tuple]:
        rows = {(rng.choice(domain), rng.choice(domain)) for __ in range(count)}
        return sorted(rows)

    def sparse_edges() -> list[tuple]:
        # a chain backbone over the domain (long shortest paths — these
        # are what expose premature negation against a growing table)
        # plus a couple of random shortcuts
        rows = {(domain[i], domain[i + 1]) for i in range(len(domain) - 1)}
        for __ in range(2):
            rows.add((rng.choice(domain), rng.choice(domain)))
        return sorted(rows)

    facts: dict[str, list[tuple]] = {
        "b0": pairs(facts_per_relation),
        "b1": pairs(facts_per_relation),
        "e0": sparse_edges(),
        "node": [(d,) for d in domain],
    }
    lines: list[str] = []
    # binary derived predicates eligible as top/union sources
    sources: list[str] = []

    # recursive clique 0: a transitive-closure flavor (always terminates);
    # textual rule order is part of the sampled space — the tabled SLD
    # engine expands rules in that order, so exit-first and exit-last are
    # different executions
    flavor = rng.choice(("left", "right", "nonlinear"))
    recursive_rule = {
        "left": "p0(X, Y) <- p0(X, Z), e0(Z, Y).",
        "right": "p0(X, Y) <- e0(X, Z), p0(Z, Y).",
        "nonlinear": "p0(X, Y) <- p0(X, Z), p0(Z, Y).",
    }[flavor]
    clique_rules = ["p0(X, Y) <- e0(X, Y).", recursive_rule]
    if rng.random() < 0.5:
        clique_rules.reverse()
    lines.extend(clique_rules)
    sources.append("p0")

    if "multiclique" in enabled:
        facts["e1"] = pairs(facts_per_relation - 2)
        lines.append("p1(X, Y) <- p0(X, Y).")
        lines.append("p1(X, Y) <- p1(X, Z), e1(Z, Y).")
        sources.append("p1")

    # non-recursive join layer over the base relations
    guard = ", X != Y" if rng.random() < 0.5 else ""
    lines.append(f"j0(X, Y) <- b0(X, Z), b1(Z, Y){guard}.")
    sources.append("j0")

    if enabled & {"comparison", "aggregate", "arith"}:
        facts["num"] = sorted(
            {(rng.randrange(0, 9), rng.randrange(0, 9)) for __ in range(facts_per_relation)}
        )

    if "comparison" in enabled:
        op = rng.choice(("<", "<=", ">", ">=", "!="))
        lines.append(f"c0(X, Y) <- num(X, Y), X {op} Y.")
        sources.append("c0")

    if "negation" in enabled:
        # over a base relation, and over the recursive stratum below
        lines.append("n0(X, Y) <- b0(X, Y), ~b1(X, Y).")
        anchor = rng.choice(domain)
        lines.append(f"n1(X, Y) <- node(X), node(Y), ~p0({anchor}, Y).")
        sources.append("n0")
        sources.append("n1")

    if "functor" in enabled:
        # build and decompose structs in rules — swapping the fields on
        # the way out so the decomposition actually matters — nested, with
        # a repeated variable, probed with both fields bound, negated, and
        # asked with the struct's head position bound
        lines.append("w0(pack(X, Y)) <- j0(X, Y).")
        lines.append("u0(X, Y) <- w0(pack(Y, X)).")
        lines.append("w1(box(pack(X, Y), X)) <- j0(X, Y).")
        lines.append("u1(X, Y) <- w1(box(pack(Y, X), Y)).")
        lines.append("r0(X) <- j0(X, X).")
        lines.append("v0(X, Y) <- b0(X, Y), w0(pack(X, Y)).")
        lines.append("n2(X, Y) <- j0(X, Y), ~w0(pack(Y, X)).")
        sources.extend(("u0", "u1", "v0", "n2"))

    if "zeroary" in enabled:
        lines.append("z0 <- b0(X, Y), X != Y.")
        lines.append("g0(X, Y) <- z0, b1(X, Y).")
        sources.append("g0")

    if "aggregate" in enabled:
        lines.append("a0(X, count(Y)) <- j0(X, Y).")
        fold = rng.choice(("sum", "min_of", "max_of", "avg"))
        lines.append(f"a1(X, {fold}(Y)) <- num(X, Y).")
        sources.append("a0")
        sources.append("a1")

    if "arith" in enabled:
        # stored ground structs are data: ``=`` between a stored ``a + b``
        # and a number is id equality, whichever side the body binds first
        # (written as ground facts of the rules: a case stays plain JSON)
        a, b = rng.randrange(0, 5), rng.randrange(0, 5)
        lines.append(
            f"val({a} + {b}). val({a + b}). val(pair({rng.choice(domain)}, {a})). "
            f"val({rng.randrange(0, 9)})."
        )
        lines.append(f"s2(X) <- val(X), X = {a + b}.")
        lines.append("s3(X, Y) <- val(X), num(Y, Z), X = Y.")
        sources.append("s3")
        lines.append("s0(X, Z) <- num(X, Y), Z = X + Y.")
        lines.append(
            "s1(X, Z) <- num(X, Y), "
            + rng.choice(("succ(Y, Z).", "range(X, Y, Z)."))
        )
        sources.append("s0")
        sources.append("s1")

    for source in sorted(rng.sample(sources, k=min(2, len(sources)))):
        lines.append(f"top(X, Y) <- {source}(X, Y).")

    queries = ["top(X, Y)?", f"top({rng.choice(domain)}, Y)?"]
    queries.append(
        f"p0({rng.choice(domain)}, Y)?" if rng.random() < 0.5 else "p0(X, Y)?"
    )
    if "multiclique" in enabled:
        queries.append(f"p1({rng.choice(domain)}, Y)?")
    if "negation" in enabled:
        # query the negation-over-recursion predicate directly: its answers
        # hinge on the recursive stratum being complete when ~p0 is tested
        queries.append("n1(X, Y)?")
    if "zeroary" in enabled:
        queries.append("z0?")
    if "aggregate" in enabled:
        queries.append("a0(X, N)?")
        queries.append(f"a1({rng.randrange(0, 9)}, N)?")
    if "functor" in enabled:
        queries.extend(("u1(X, Y)?", "r0(X)?", "n2(X, Y)?"))
        queries.append(f"w0(pack({rng.choice(domain)}, {rng.choice(domain)}))?")
    if "arith" in enabled:
        queries.extend(("s2(X)?", "s3(X, Y)?"))
        queries.append("s0(X, Z)?")
        queries.append(f"s1({rng.randrange(0, 9)}, Z)?")

    return DifferentialProgram(
        rules="\n".join(lines),
        facts=facts,
        queries=tuple(queries),
        seed=seed,
        features=enabled,
    )


RUNAWAY_KINDS = ("counter", "blowup", "chain")


def generate_runaway_program(
    kind: str = "counter",
    seed: int = 0,
    fanout: int = 20,
    depth: int = 64,
):
    """An unsafe-ish program + data for governor stress tests.

    These are programs the static safety analysis cannot (or is not asked
    to) reject, whose evaluation grows until a resource budget stops it —
    the :class:`~repro.engine.governor.ResourceGovernor`'s test diet:

    * ``counter`` — value invention: ``n(X+1) <- n(X), X < depth`` counts
      upward; tuple production is linear in ``depth`` but unbounded as
      ``depth`` grows, so a tuple budget below ``depth`` must trip
      *during* the fixpoint.
    * ``blowup`` — an explosive join: ``pair(X, Y) <- item(X), item(Y)``
      over ``fanout`` items produces ``fanout**2`` tuples inside a
      *single* round — the case that exposes guards which only check
      between rounds.
    * ``chain`` — deep linear recursion over a ``depth``-long path:
      cheap per round, ``O(depth**2)`` pairs overall, many rounds — the
      iteration-budget case.

    Returns ``(rules_text, facts, query)`` like
    :func:`generate_random_program`.  *seed* shuffles fact insertion
    order (the results are order-independent; the governor's abort point
    need not be).
    """
    rng = random.Random(seed)
    if kind == "counter":
        rules = f"n(Y) <- n(X), X < {depth}, Y = X + 1."
        facts = {"seed_n": [(0,)]}
        # n/1 needs a base case: seed via an exit rule over a base relation
        rules = f"n(X) <- seed_n(X).\n{rules}"
        return rules, facts, "n(X)?"
    if kind == "blowup":
        items = [(f"i{i}",) for i in range(fanout)]
        rng.shuffle(items)
        rules = "pair(X, Y) <- item(X), item(Y).\npairs(X, Y) <- pair(X, Y)."
        return rules, {"item": items}, "pairs(X, Y)?"
    if kind == "chain":
        edges = [(f"v{i}", f"v{i + 1}") for i in range(depth)]
        rng.shuffle(edges)
        rules = "reach(X, Y) <- edge(X, Y).\nreach(X, Y) <- reach(X, Z), edge(Z, Y)."
        return rules, {"edge": edges}, "reach(X, Y)?"
    raise ValueError(f"unknown runaway kind {kind!r}; expected one of {RUNAWAY_KINDS}")


def generate_batch(
    count: int,
    n: int,
    shapes: tuple[str, ...] = SHAPES,
    seed: int = 0,
    **kwargs,
) -> list[ConjunctiveWorkload]:
    """A batch of workloads cycling through the requested shapes."""
    rng = random.Random(seed)
    out = []
    for index in range(count):
        shape = shapes[index % len(shapes)]
        out.append(generate_conjunctive(n, shape, seed=rng.randrange(2**31), **kwargs))
    return out
