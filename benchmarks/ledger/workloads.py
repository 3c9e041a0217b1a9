"""The six ledger workloads.

Each workload generates its own inputs with ``random.Random`` (never with
``repro.workloads``), drives a knowledge base through the stable public
surface only -- ``kb.rules / facts / retract / transaction / materialize
/ compile / ask`` and ``answers.to_python()`` -- and keeps a plain-Python
mirror of the facts so every answer can be checked by ``reference``.

A workload is a stream of *rounds*; a round is ``cycles_per_round``
cycles; a cycle yields ``Op``s of kind ``update``, ``optimize`` or
``query``.  The harness times each op on its own, so every workload
reports every end-to-end metric.

Everything that decides *how much* work there is -- the shape of each
graph, which keys are asked for, which facts are written, in what order
-- is drawn from ``shape_seed`` (frozen in ``sizes.json``, ``self.shape``
below): a random DAG's closure size alone differs by 12 % between seeds
(quartile distance / median), more than any regression bound.  The run's
``--seed`` (``self.rng``) draws the constants' names and the load order,
so every seed gives the program different inputs of the same difficulty.
"""

from __future__ import annotations

import bisect
import random
import time
from typing import Callable, Iterator, NamedTuple

import reference as ref


class Op(NamedTuple):
    kind: str  #: "update" | "optimize" | "query" | "check"
    run: Callable[[], object]
    check: Callable[[object], bool] | None = None


def _dag_shape(rng: random.Random, nodes: int, edges: int) -> list[tuple[int, int]]:
    """Random DAG: edges point from the lower to the higher index."""
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < edges:
        u = rng.randrange(nodes - 1)
        chosen.add((u, rng.randrange(u + 1, nodes)))
    return sorted(chosen)


def _tree_shape(fanout: int, depth: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Balanced tree as (child, parent) pairs, plus each node's depth."""
    pairs: list[tuple[int, int]] = []
    depths = [0]
    level = [0]
    for d in range(1, depth + 1):
        nxt = []
        for parent in level:
            for _ in range(fanout):
                child = len(depths)
                depths.append(d)
                pairs.append((child, parent))
                nxt.append(child)
        level = nxt
    return pairs, depths


class _Zipf:
    """Bounded Zipf over ranks ``0 .. n-1``: P(rank r) ~ 1 / (r+1)^s."""

    def __init__(self, n: int, exponent: float):
        total = 0.0
        self._cdf = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** exponent
            self._cdf.append(total)

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._cdf[-1])


class Workload:
    """One repetition's inputs, knowledge base and reference mirror."""

    name = ""
    cycles_per_round = 1

    def __init__(self, sizes: dict, shape_seed: int, seed: int, rep: int):
        self.sizes = sizes
        self.shape = random.Random(shape_seed)
        self.rng = random.Random(seed)
        self.rep = rep
        self.kb = None
        self.load_rows = 0
        self.load_seconds = 0.0
        self.generate()

    # -- the harness calls these, in this order ------------------------------

    def generate(self) -> None:
        """Build the inputs (part of ``setup_s``)."""
        raise NotImplementedError

    def build(self, kb) -> None:
        """Load rules and facts into *kb* (part of ``setup_s``)."""
        raise NotImplementedError

    def prepare_reference(self) -> None:
        """Harness-side bookkeeping that is not the program's set-up."""

    def first_op(self) -> Op:
        """The cold first query after loading (``first_ask_s``)."""
        raise NotImplementedError

    def cycle(self, i: int) -> Iterator[Op]:
        raise NotImplementedError

    def final_checks(self) -> Iterator[Op]:
        """Untimed from-scratch checks after the measured loop."""
        return iter(())

    def forms(self) -> list[tuple[str, dict]]:
        """Query forms for plan fingerprints; the first is the
        representative op whose EXPLAIN ANALYZE is recorded."""
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------

    def labels(self, count: int, prefix: str = "n") -> list[str]:
        """Constant names: a per-seed permutation, tagged with the
        repetition so no repetition finds its terms already interned."""
        order = list(range(count))
        self.rng.shuffle(order)
        return [f"{prefix}{self.rep}_{i}" for i in order]

    def shuffled(self, rows) -> list[tuple]:
        """*rows* in this seed's load order."""
        rows = list(rows)
        self.rng.shuffle(rows)
        return rows

    def load(self, pred: str, rows: list[tuple]) -> None:
        started = time.perf_counter()
        added = self.kb.facts(pred, rows)
        self.load_seconds += time.perf_counter() - started
        self.load_rows += added

    def ask(self, text: str, **bound) -> list[tuple]:
        return self.kb.ask(text, **bound).to_python()


# --------------------------------------------------------------------- tc_batch


class TcBatch(Workload):
    name = "tc_batch"
    RULES = "anc(X, Y) <- par(X, Y).\nanc(X, Y) <- par(X, Z), anc(Z, Y).\n"
    QUERY = "anc(X, Y)?"

    def generate(self) -> None:
        s = self.sizes
        shape = _dag_shape(self.shape, s["nodes"], s["edges"])
        name = self.labels(s["nodes"])
        self.edges = [(name[u], name[v]) for u, v in shape]

    def build(self, kb) -> None:
        self.kb = kb
        kb.rules(self.RULES)
        self.load("par", self.shuffled(self.edges))

    def prepare_reference(self) -> None:
        self.expected = ref.closure(ref.adjacency(self.edges))

    def _query(self) -> Op:
        return Op(
            "query",
            lambda: self.ask(self.QUERY),
            lambda rows: ref.same_rows(rows, self.expected),
        )

    first_op = _query

    def cycle(self, i: int) -> Iterator[Op]:
        # A fresh edge between two new constants: the write bumps the
        # relation's version, so neither the result cache nor the plan
        # cache can serve what follows.
        edge = (f"x{self.rep}_{i}", f"y{self.rep}_{i}")
        yield Op("update", lambda: self.kb.facts("par", [edge]), lambda n: n == 1)
        self.edges.append(edge)
        self.expected.add(edge)  # isolated: it closes over nothing else
        yield Op("optimize", lambda: self.kb.compile(self.QUERY))
        yield self._query()

    def final_checks(self) -> Iterator[Op]:
        self.prepare_reference()  # closure from scratch, not the increments
        yield self._query()._replace(kind="check")

    def forms(self):
        return [(self.QUERY, {})]


# ------------------------------------------------------------- rowtier_guarded


class RowtierGuarded(Workload):
    name = "rowtier_guarded"
    cycles_per_round = 2  # the two queries alternate
    RULES = (
        "sreach(X, Y) <- edge(X, Y), not blocked(Y).\n"
        "sreach(X, Y) <- sreach(X, Z), edge(Z, Y), not blocked(Y), X != Y.\n"
        "nreach(X, count(Y)) <- sreach(X, Y).\n"
    )
    QUERIES = ("sreach(X, Y)?", "nreach(X, N)?")

    def generate(self) -> None:
        s = self.sizes
        shape = _dag_shape(self.shape, s["nodes"], s["edges"])
        blocked = self.shape.sample(range(s["nodes"]), int(s["nodes"] * s["blocked_frac"]))
        name = self.labels(s["nodes"])
        self.edges = [(name[u], name[v]) for u, v in shape]
        self.blocked = {name[b] for b in blocked}

    def build(self, kb) -> None:
        self.kb = kb
        kb.rules(self.RULES)
        self.load("edge", self.shuffled(self.edges))
        self.load("blocked", self.shuffled((b,) for b in self.blocked))

    def prepare_reference(self) -> None:
        self.sreach = ref.guarded_closure(ref.adjacency(self.edges), self.blocked)

    def _query(self, which: int) -> Op:
        text = self.QUERIES[which]
        if which == 0:
            return Op("query", lambda: self.ask(text),
                      lambda rows: ref.same_rows(rows, self.sreach))
        return Op("query", lambda: self.ask(text),
                  lambda rows: ref.same_rows(rows, ref.group_counts(self.sreach)))

    def first_op(self) -> Op:
        return self._query(0)

    def cycle(self, i: int) -> Iterator[Op]:
        edge = (f"x{self.rep}_{i}", f"y{self.rep}_{i}")
        text = self.QUERIES[i % 2]
        yield Op("update", lambda: self.kb.facts("edge", [edge]), lambda n: n == 1)
        self.edges.append(edge)
        self.sreach.add(edge)  # isolated and unblocked
        yield Op("optimize", lambda: self.kb.compile(text))
        yield self._query(i % 2)

    def final_checks(self) -> Iterator[Op]:
        self.prepare_reference()
        yield self._query(0)._replace(kind="check")
        yield self._query(1)._replace(kind="check")

    def forms(self):
        return [(q, {}) for q in self.QUERIES]


# ----------------------------------------------------------------- point_magic


class PointMagic(Workload):
    name = "point_magic"
    RULES = (
        "sg(X, Y) <- flat(X, Y).\n"
        "sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).\n"
    )
    QUERY = "sg($X, Y)?"

    def generate(self) -> None:
        s = self.sizes
        pairs, depths = _tree_shape(s["fanout"], s["depth"])
        name = self.labels(len(depths))
        self.up = [(name[c], name[p]) for c, p in pairs]
        self.root = name[0]
        # Zipf rank -> node: a shuffle of the nodes deep enough to have
        # non-trivial answers
        self.population = [name[i] for i, d in enumerate(depths) if d >= s["min_depth"]]
        self.shape.shuffle(self.population)
        self.zipf = _Zipf(len(self.population), s["zipf_exponent"])

    def build(self, kb) -> None:
        self.kb = kb
        kb.rules(self.RULES)
        self.load("up", self.shuffled(self.up))
        self.load("dn", self.shuffled((p, c) for c, p in self.up))
        self.load("flat", [(self.root, self.root)])

    def prepare_reference(self) -> None:
        self.up_adj = ref.adjacency(self.up)
        self.dn_adj = ref.adjacency((p, c) for c, p in self.up)
        self.flat_adj = {self.root: {self.root}}
        self.memo: dict[str, set[tuple]] = {}

    def _expected(self, x: str) -> set[tuple]:
        if x not in self.memo:  # the tree never changes in this workload
            found = ref.same_generation(self.up_adj, self.dn_adj, self.flat_adj, {x})
            self.memo[x] = {(y,) for y in found}
        return self.memo[x]

    def _query(self) -> Op:
        x = self.population[self.zipf.draw(self.shape)]
        return Op("query", lambda: self.ask(self.QUERY, X=x),
                  lambda rows: ref.same_rows(rows, self._expected(x)))

    first_op = _query

    def cycle(self, i: int) -> Iterator[Op]:
        # The application logs each batch of look-ups.  ``visit`` is outside
        # sg's footprint, so cached plans and results must stay usable.
        row = (f"batch{self.rep}_{i}", i)
        yield Op("update", lambda: self.kb.facts("visit", [row]), lambda n: n == 1)
        yield Op("optimize", lambda: self.kb.compile(self.QUERY))
        for _ in range(self.sizes["asks_per_cycle"]):
            yield self._query()

    def forms(self):
        return [(self.QUERY, {"X": self.population[0]})]


# -------------------------------------------------------------------- opt_wide


class OptWide(Workload):
    name = "opt_wide"
    RECURSIVE = (
        "anc(X, Y) <- par(X, Y).\n"
        "anc(X, Y) <- par(X, Z), anc(Z, Y).\n"
        "sg(X, Y) <- flat(X, Y).\n"
        "sg(X, Y) <- sib(X, Y).\n"
        "sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).\n"
        "q2(A, D) <- anc(A, B), sg(B, C), anc(C, D).\n"
    )

    def generate(self) -> None:
        s = self.sizes
        shape = self.shape
        rows, branching = s["rows"], s["branching"]
        width_max = max(s["widths"])
        domains = [max(2, round(r / branching)) for r in rows[:width_max]] + [s["last_domain"]]
        value = self.labels(max(max(domains), s["dag_nodes"]), "v")
        self.relations: dict[str, list[tuple]] = {}

        def relation(count: int, keys: int, values: int) -> list[tuple]:
            # every key has a row (no join dies out); the rest is skewed
            # towards low values, so NDVs differ from row counts
            chosen = {(k, shape.randrange(values)) for k in range(keys)}
            while len(chosen) < count:
                chosen.add((shape.randrange(keys), int(values * shape.random() ** 2)))
            return [(value[k], value[v]) for k, v in sorted(chosen)]

        for i in range(width_max):
            self.relations[f"e{i + 1}"] = relation(rows[i], domains[i], domains[i + 1])
        for j in range(max(2, width_max // 3)):
            count = int(domains[0] * (1.0 + shape.random()))
            self.relations[f"s{j + 1}"] = relation(count, domains[0], domains[0])
        self.keys = [value[k] for k in range(domains[0])]

        # forms: (query text, bound variable, reference body, relations)
        self.conjunctive: list[tuple[str, str, list, list[str]]] = []
        rules = []
        var = [f"V{i}" for i in range(width_max + 1)]
        for w in s["widths"]:
            chain = [(f"e{i + 1}", (var[i], var[i + 1])) for i in range(w)]
            k = max(2, w // 3)  # a star of k satellites, then a chain
            star = [(f"s{j + 1}", (var[0], f"S{j + 1}")) for j in range(k - 1)]
            star.append((f"s{k}", (var[0], var[k])))
            star += [(f"e{i + 1}", (var[k + i], var[k + i + 1])) for i in range(w - k)]
            for head, body in ((f"qc{w}", chain), (f"qs{w}", star)):
                text = ", ".join(f"{p}({', '.join(vs)})" for p, vs in body)
                rules.append(f"{head}({var[0]}, {var[w]}) <- {text}.")
                self.conjunctive.append(
                    (f"{head}($A, Z)?", var[w], body, [p for p, _ in body])
                )
        self.rules_text = "\n".join(rules) + "\n" + self.RECURSIVE

        dag = _dag_shape(shape, s["dag_nodes"], s["dag_edges"])
        pairs, depths = _tree_shape(s["tree_fanout"], s["tree_depth"])
        node = self.labels(max(len(depths), s["dag_nodes"]), "t")
        self.par = [(node[u], node[v]) for u, v in dag]
        self.up = [(node[c], node[p]) for c, p in pairs]
        self.root = node[0]
        self.sib = [(node[1], node[2]), (node[2], node[1])]
        self.dag_nodes = [node[i] for i in range(s["dag_nodes"])]
        # late in topological order: few descendants, so executing q2 stays
        # cheap and the workload keeps pricing the optimizer, not the engine
        self.late = self.dag_nodes[-s["dag_nodes"] // 5:]
        self.deep = [node[i] for i, d in enumerate(depths) if d >= 2]
        self.cycles_per_round = len(self.conjunctive) + 3
        self._serial = 0  # numbers the constants the updates invent

    def build(self, kb) -> None:
        self.kb = kb
        kb.rules(self.rules_text)
        for name, rows in self.relations.items():
            self.load(name, self.shuffled(rows))
        self.load("par", self.shuffled(self.par))
        self.load("up", self.shuffled(self.up))
        self.load("dn", self.shuffled((p, c) for c, p in self.up))
        self.load("flat", [(self.root, self.root)])
        self.load("sib", self.sib)

    # reference views over the mirror (rebuilt on use: the mirror changes
    # every cycle and the builds are small)
    def _anc(self, xs) -> set:
        return ref.reach_from(ref.adjacency(self.par), xs)

    def _sg(self, xs) -> set:
        flat = ref.adjacency(self.sib)
        flat.setdefault(self.root, set()).add(self.root)
        return ref.same_generation(
            ref.adjacency(self.up), ref.adjacency((p, c) for c, p in self.up), flat, set(xs)
        )

    def _form(self, index: int) -> tuple[Op, Op, Op, Callable[[], None]]:
        """(update, optimize, query, mirror the update) of form *index*."""
        rng, kb = self.shape, self.kb
        fresh = f"w{self.rep}_{self._serial}"
        self._serial += 1
        if index < len(self.conjunctive):
            text, out, body, names = self.conjunctive[index]
            target = names[self._serial % len(names)]
            row = (fresh, rng.choice(self.relations[target])[1])
            mirror = self.relations[target]
            a = self.keys[index * 7 % len(self.keys)]  # the same every round
            expect = lambda: ref.hash_join(body, self.relations, {"V0": a}, [out])
            query = Op("query", lambda: self.ask(text, A=a),
                       lambda rows: ref.same_rows(rows, expect()))
            update = Op("update", lambda: kb.facts(target, [row]), lambda n: n == 1)
            return update, Op("optimize", lambda: kb.compile(text)), query, \
                lambda: mirror.append(row)
        which = index - len(self.conjunctive)
        if which == 1:  # sg: hang a new leaf under a random node
            parent = rng.choice(self.deep)
            text = "sg($X, Y)?"
            x = self.deep[len(self.deep) // 2]
            update = Op(
                "update",
                lambda: kb.facts("up", [(fresh, parent)]) + kb.facts("dn", [(parent, fresh)]),
                lambda n: n == 2,
            )
            query = Op("query", lambda: self.ask(text, X=x),
                       lambda rows: ref.same_rows(rows, {(y,) for y in self._sg([x])}))
            return update, Op("optimize", lambda: kb.compile(text)), query, \
                lambda: self.up.append((fresh, parent))
        edge = (fresh, f"{fresh}b")  # anc and q2: a fresh isolated par edge
        update = Op("update", lambda: kb.facts("par", [edge]), lambda n: n == 1)
        if which == 0:
            a = self.dag_nodes[len(self.dag_nodes) // 3]
            text = "anc($X, Y)?"
            query = Op("query", lambda: self.ask(text, X=a),
                       lambda rows: ref.same_rows(rows, {(y,) for y in self._anc([a])}))
        else:
            a = self.late[0]
            text = "q2($A, D)?"
            query = Op(
                "query", lambda: self.ask(text, A=a),
                lambda rows: ref.same_rows(
                    rows, {(d,) for d in self._anc(self._sg(self._anc([a])))}
                ),
            )
        return update, Op("optimize", lambda: kb.compile(text)), query, \
            lambda: self.par.append(edge)

    def first_op(self) -> Op:
        """Cold ask (compile + execute) of the widest star-chain form."""
        return self._form(len(self.conjunctive) - 1)[2]

    def cycle(self, i: int) -> Iterator[Op]:
        update, optimize, query, mirror = self._form(i % self.cycles_per_round)
        yield update
        mirror()
        yield optimize
        yield query

    def forms(self):
        key = self.keys[0]
        texts = [text for text, *_ in self.conjunctive]
        out = [(text, {"A": key}) for text in texts[-1:] + texts[:-1]]  # widest first
        return out + [("anc($X, Y)?", {"X": self.dag_nodes[0]}),
                      ("sg($X, Y)?", {"X": self.deep[0]}),
                      ("q2($A, D)?", {"A": self.dag_nodes[0]})]


# ------------------------------------------------------------------- stream_rw


class StreamRw(Workload):
    name = "stream_rw"
    RULES = TcBatch.RULES
    READ = "anc($X, Y)?"

    def generate(self) -> None:
        s = self.sizes
        self.n = s["nodes"]
        self.name_of = self.labels(self.n)
        self.edge_list = _dag_shape(self.shape, self.n, s["edges"])
        self.ranked = list(range(self.n))
        self.shape.shuffle(self.ranked)
        self.zipf = _Zipf(self.n, s["zipf_exponent"])
        # one cycle = this exact multiset of op kinds, shuffled per cycle
        self.kinds = [kind for kind, count in s["ops_per_cycle"].items() for _ in range(count)]
        self.ops_done = 0

    def build(self, kb) -> None:
        self.kb = kb
        name = self.name_of
        kb.rules(self.RULES)
        self.load("par", self.shuffled((name[u], name[v]) for u, v in self.edge_list))
        self.load("owns", self.shuffled((name[u], f"item{u}") for u in range(self.sizes["owners"])))
        kb.materialize()

    def prepare_reference(self) -> None:
        self.position = {edge: i for i, edge in enumerate(self.edge_list)}
        self.adj = ref.adjacency(self.edge_list)

    # mirror maintenance: O(1) random pick and removal of an edge
    def _new_edge(self) -> tuple[int, int]:
        while True:
            u = self.shape.randrange(self.n - 1)
            edge = (u, self.shape.randrange(u + 1, self.n))
            if edge not in self.position:
                return edge

    def _mirror_add(self, edge) -> None:
        self.position[edge] = len(self.edge_list)
        self.edge_list.append(edge)
        self.adj.setdefault(edge[0], set()).add(edge[1])

    def _mirror_remove(self, edge) -> None:
        at = self.position.pop(edge)
        last = self.edge_list.pop()
        if last != edge:
            self.edge_list[at] = last
            self.position[last] = at
        self.adj[edge[0]].discard(edge[1])

    def _row(self, edge) -> tuple[str, str]:
        return self.name_of[edge[0]], self.name_of[edge[1]]

    def _read(self) -> Op:
        x = self.ranked[self.zipf.draw(self.shape)]
        name = self.name_of
        return Op(
            "query", lambda: self.ask(self.READ, X=name[x]),
            lambda rows: ref.same_rows(
                rows, {(name[y],) for y in ref.reach_from(self.adj, (x,))}
            ),
        )

    first_op = _read

    def _view_check(self) -> Op:
        name = self.name_of
        return Op(
            "check", lambda: self.kb.view_rows("anc"),
            lambda rows: rows == {(name[u], name[v]) for u, v in ref.closure(self.adj)},
        )

    def cycle(self, i: int) -> Iterator[Op]:
        kb, rng, s = self.kb, self.shape, self.sizes
        kinds = list(self.kinds)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "read":
                yield self._read()
            elif kind == "insert":
                edge = self._new_edge()
                yield Op("update", lambda: kb.facts("par", [self._row(edge)]), lambda n: n == 1)
                self._mirror_add(edge)
            elif kind == "retract":
                edge = rng.choice(self.edge_list)
                yield Op("update", lambda: kb.retract("par", [self._row(edge)]), lambda n: n == 1)
                self._mirror_remove(edge)
            elif kind == "owns":
                row = (self.name_of[rng.randrange(self.n)], f"thing{self.rep}_{self.ops_done}")
                yield Op("update", lambda: kb.facts("owns", [row]), lambda n: n == 1)
            elif kind == "txn":
                # distinct by construction of the set; one multi-row call each
                # way: two retract calls in one transaction leave stale rows
                # in the view at the seed commit (see README, known defects)
                added = sorted({self._new_edge() for _ in range(s["txn_inserts"])})
                removed = rng.sample(self.edge_list, s["txn_retracts"])

                def batch():
                    with kb.transaction():
                        done = kb.facts("par", [self._row(e) for e in added])
                        done += kb.retract("par", [self._row(e) for e in removed])
                    return done

                yield Op("update", batch, lambda n: n == len(added) + len(removed))
                for edge in added:
                    self._mirror_add(edge)
                for edge in removed:
                    self._mirror_remove(edge)
            else:
                yield Op("optimize", lambda: kb.compile(self.READ))
            self.ops_done += 1
            if self.ops_done % s["check_every"] == 0:
                yield self._view_check()

    def final_checks(self) -> Iterator[Op]:
        yield self._view_check()

    def forms(self):
        return [(self.READ, {"X": self.name_of[self.ranked[0]]})]


# ----------------------------------------------------------------- reach_scale


class ReachScale(Workload):
    name = "reach_scale"
    RULES = "reach(X) <- source(X).\nreach(Y) <- reach(X), edge(X, Y).\n"
    QUERY = "reach(Y)?"

    def generate(self) -> None:
        s = self.sizes
        n = s["nodes"]
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < s["edges"]:  # distinct edges, cycles allowed
            chosen.add((self.shape.randrange(n), self.shape.randrange(n)))
        name = self.labels(n)
        self.edges = [(name[u], name[v]) for u, v in sorted(chosen)]
        self.spare = [name[i] for i in range(n)]
        self.shape.shuffle(self.spare)
        self.sources = [self.spare.pop() for _ in range(s["sources"])]

    def build(self, kb) -> None:
        self.kb = kb
        kb.rules(self.RULES)
        self.load("edge", self.shuffled(self.edges))
        self.load("source", [(x,) for x in self.sources])

    def prepare_reference(self) -> None:
        self.adj = ref.adjacency(self.edges)
        self.nodes = ref.frontier_reach(self.adj, self.sources)
        self.reached = {(x,) for x in self.nodes}

    def _query(self) -> Op:
        return Op("query", lambda: self.ask(self.QUERY),
                  lambda rows: ref.same_rows(rows, self.reached))

    first_op = _query

    def cycle(self, i: int) -> Iterator[Op]:
        source = self.spare.pop()
        yield Op("update", lambda: self.kb.facts("source", [(source,)]), lambda n: n == 1)
        self.sources.append(source)
        if source not in self.nodes:  # walk only what was not reached yet
            new = {source} | ref.reach_from(self.adj, (source,), self.nodes)
            self.nodes |= new
            self.reached.update((x,) for x in new)
        yield Op("optimize", lambda: self.kb.compile(self.QUERY))
        yield self._query()

    def final_checks(self) -> Iterator[Op]:
        self.prepare_reference()  # from scratch, not the increments
        yield self._query()._replace(kind="check")

    def forms(self):
        return [(self.QUERY, {})]


WORKLOADS = {
    cls.name: cls
    for cls in (TcBatch, RowtierGuarded, PointMagic, OptWide, StreamRw, ReachScale)
}
