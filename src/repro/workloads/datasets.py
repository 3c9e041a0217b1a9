"""Synthetic datasets for the recursive and end-to-end experiments.

Seeded generators for the data shapes the deductive-database literature
evaluates on:

* **trees** for the same-generation query (``up``/``dn``/``flat``);
* **chains and random DAGs** for ancestor/transitive closure;
* **part hierarchies** for bill-of-materials explosion;
* **random graphs** (possibly cyclic) to exercise the counting method's
  acyclicity gate.
"""

from __future__ import annotations

import random

from ..storage.catalog import Database


def chain(db: Database, name: str, length: int, prefix: str = "n") -> list[str]:
    """A simple path ``n0 -> n1 -> ... -> n<length>``; returns node names."""
    nodes = [f"{prefix}{i}" for i in range(length + 1)]
    db.load(name, [(nodes[i], nodes[i + 1]) for i in range(length)])
    return nodes


def balanced_tree(
    db: Database,
    up_name: str = "up",
    fanout: int = 2,
    depth: int = 4,
    prefix: str = "t",
) -> list[list[str]]:
    """A balanced tree as child→parent edges in *up_name*.

    Returns nodes by level (level 0 is the root).  ``fanout**depth``
    leaves; suitable as one half of a same-generation instance.
    """
    levels: list[list[str]] = [[f"{prefix}0_0"]]
    edges: list[tuple[str, str]] = []
    counter = 0
    for level in range(1, depth + 1):
        previous = levels[-1]
        current: list[str] = []
        for parent in previous:
            for __ in range(fanout):
                counter += 1
                child = f"{prefix}{level}_{counter}"
                current.append(child)
                edges.append((child, parent))
        levels.append(current)
    db.load(up_name, edges)
    return levels


def same_generation_instance(
    db: Database,
    fanout: int = 2,
    depth: int = 4,
    prefix: str = "t",
) -> list[list[str]]:
    """The classic sg instance: ``up`` a balanced tree, ``dn`` its
    inverse, ``flat`` the root's self-loop.

    With the paper's rule ``sg(X,Y) <- up(X,X1), sg(Y1,X1), dn(Y1,Y)``
    (exit ``sg(X,Y) <- flat(X,Y)``) two nodes are same-generation iff
    they sit at the same depth.
    """
    levels = balanced_tree(db, "up", fanout, depth, prefix)
    up_rows = [(child.value, parent.value) for child, parent in db.relation("up")]
    db.load("dn", [(parent, child) for child, parent in up_rows])
    root = levels[0][0]
    db.load("flat", [(root, root)])
    return levels


def random_dag(
    db: Database,
    name: str,
    nodes: int,
    edges: int,
    seed: int = 0,
    prefix: str = "v",
) -> list[str]:
    """A random DAG: edges always point from lower to higher index."""
    rng = random.Random(seed)
    names = [f"{prefix}{i}" for i in range(nodes)]
    chosen: set[tuple[str, str]] = set()
    attempts = 0
    while len(chosen) < edges and attempts < edges * 20:
        attempts += 1
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a == b:
            continue
        if a > b:
            a, b = b, a
        chosen.add((names[a], names[b]))
    db.load(name, sorted(chosen))
    return names


def random_graph(
    db: Database,
    name: str,
    nodes: int,
    edges: int,
    seed: int = 0,
    prefix: str = "v",
) -> list[str]:
    """A random directed graph — cycles allowed (counting's nemesis)."""
    rng = random.Random(seed)
    names = [f"{prefix}{i}" for i in range(nodes)]
    chosen: set[tuple[str, str]] = set()
    attempts = 0
    while len(chosen) < edges and attempts < edges * 20:
        attempts += 1
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            chosen.add((names[a], names[b]))
    db.load(name, sorted(chosen))
    return names


def random_linear_program(seed: int = 0):
    """A random linear-recursive program + acyclic data, for equivalence
    property tests across recursive methods.

    Returns ``(rules_text, facts, source_node)``.  The recursion walks a
    random DAG through one or two base hops per step, optionally guarded
    by a disequality — shapes where magic, supplementary and semi-naive
    must all agree.
    """
    rng = random.Random(seed)
    hops = rng.choice([1, 2])
    guard = rng.random() < 0.5
    if hops == 1:
        body = "e0(X, Z), walk(Z, Y)"
    else:
        body = "e0(X, M), e1(M, Z), walk(Z, Y)"
    rules = [
        "walk(X, Y) <- stop(X, Y).",
        f"walk(X, Y) <- {body}{', X != Y' if guard else ''}.",
    ]
    db = Database()
    names = random_dag(db, "e0", nodes=10, edges=16, seed=seed)
    facts = {"e0": [(a.value, b.value) for a, b in db.relation("e0")]}
    if hops == 2:
        db2 = Database()
        random_dag(db2, "e1", nodes=10, edges=16, seed=seed + 1)
        facts["e1"] = [(a.value, b.value) for a, b in db2.relation("e1")]
    stops = {(rng.choice(names), rng.choice(names)) for __ in range(5)}
    facts["stop"] = sorted(stops)
    return "\n".join(rules), facts, names[0]


def bill_of_materials(
    db: Database,
    assemblies: int = 20,
    depth: int = 4,
    fanout: int = 3,
    seed: int = 0,
) -> list[str]:
    """A part hierarchy for BOM explosion.

    ``component(Parent, Child, Quantity)`` forms a DAG of assemblies over
    shared basic parts; ``basic_part(Part, Weight)`` describes leaves.
    Returns the top-level assembly names.
    """
    rng = random.Random(seed)
    basics = [f"part{i}" for i in range(assemblies * 2)]
    db.load("basic_part", [(p, rng.randint(1, 50)) for p in basics])

    levels: list[list[str]] = [basics]
    counter = 0
    for level in range(1, depth + 1):
        current: list[str] = []
        for __ in range(max(1, assemblies // level)):
            counter += 1
            assembly = f"asm{level}_{counter}"
            current.append(assembly)
            pool = levels[level - 1]
            for child in rng.sample(pool, min(fanout, len(pool))):
                db.load("component", [(assembly, child, rng.randint(1, 4))])
        levels.append(current)
    return levels[-1]
