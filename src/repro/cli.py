"""Command-line interface: load LDL files, run queries, explain plans.

Batch:

.. code-block:: console

    $ python -m repro family.ldl -q "anc(abe, Y)?"
    $ python -m repro family.ldl -q "anc($X, Y)?" -b X=abe --explain

Interactive (a tiny REPL):

.. code-block:: console

    $ python -m repro family.ldl -i
    ldl> gp(X, Z) <- par(X, Y), par(Y, Z).
    ldl> gp(abe, Z)?
    (bart)
    ldl> :explain gp(abe, Z)?
    ...
    ldl> :quit

Statements ending in ``.`` add rules/facts; ``?`` runs a query.  REPL
commands: ``:explain <query>?``, ``:json <query>?``, ``:relations``,
``:materialize``, ``:views``, ``:quit``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, Sequence

from . import KnowledgeBase, OptimizerConfig
from .engine.governor import make_governor
from .errors import ParseError, ReproError, ResourceExhausted, UnsafeQueryError
from .obs import NULL_TRACER, JsonlSink, Tracer
from .plans.nodes import RECURSIVE_METHODS
from .plans.serialize import plan_to_json

#: Exit codes (documented in docs/api.md): scripts can tell *why* a query
#: failed without parsing stderr.  2 is argparse's own usage-error code.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_UNSAFE = 4
EXIT_RESOURCE = 5


def _exit_code_for(err: ReproError) -> int:
    if isinstance(err, ResourceExhausted):
        return EXIT_RESOURCE
    if isinstance(err, UnsafeQueryError):
        return EXIT_UNSAFE
    if isinstance(err, ParseError):
        return EXIT_PARSE
    return EXIT_ERROR


def _parse_binding(text: str) -> tuple[str, object]:
    name, eq, raw = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"binding must look like NAME=value: {text!r}")
    value: object = raw
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            pass
    return name, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LDL knowledge-base shell (EDBT 1988 optimizer reproduction)",
    )
    parser.add_argument("files", nargs="*", type=Path, help="LDL rule/fact files to load")
    parser.add_argument("-q", "--query", action="append", default=[],
                        help="query form to run (repeatable)")
    parser.add_argument("-b", "--bind", action="append", default=[], type=_parse_binding,
                        metavar="NAME=VALUE", help="value for a $-bound query variable")
    parser.add_argument("--explain", action="store_true",
                        help="print the optimized plan instead of answers")
    parser.add_argument("--analyze", action="store_true",
                        help="EXPLAIN ANALYZE: run the query, print the plan "
                             "annotated est/act/q-error per node")
    parser.add_argument("--json", action="store_true",
                        help="print the plan as JSON instead of answers")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="write the span trace as JSONL events to FILE "
                             "(schema repro.trace/1; validate with "
                             "python -m repro.obs.validate)")
    parser.add_argument("--metrics", type=Path, default=None, metavar="FILE",
                        help="write aggregated metrics to FILE on exit "
                             "(.json -> JSON, anything else -> Prometheus text)")
    parser.add_argument("--strategy", default="dp",
                        choices=("exhaustive", "dp", "kbz", "annealing", "textual"),
                        help="join-ordering strategy (default: dp)")
    parser.add_argument("--recursive-method", default=None, metavar="METHOD",
                        choices=RECURSIVE_METHODS,
                        help="restrict recursive cliques to one method "
                             "(e.g. 'counting' forces the counting rewrite "
                             "on bound recursive queries; default: let the "
                             "cost model choose)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="wall-clock deadline per query (exit code 5 on expiry)")
    parser.add_argument("--max-tuples", type=int, default=None, metavar="N",
                        help="query-wide live-tuple budget (exit code 5 on expiry)")
    parser.add_argument("--max-memory", type=int, default=None, metavar="BYTES",
                        help="approximate query-wide memory budget in bytes")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="disable the cross-query result cache")
    parser.add_argument("--materialize", action="store_true",
                        help="materialize every derived predicate after "
                             "loading and keep the extensions incrementally "
                             "maintained under fact updates (counting/DRed; "
                             "see docs/performance.md)")
    parser.add_argument("--telemetry", type=Path, default=None, metavar="FILE",
                        help="stream per-query telemetry records to FILE as "
                             "JSONL (schema repro.telemetry/2; validate with "
                             "python -m repro.obs.validate)")
    parser.add_argument("-i", "--interactive", action="store_true",
                        help="drop into a REPL after loading files")
    return parser


def _query_governor(args):
    """A fresh governor per query when any resource flag was given (each
    query gets the full budget), else None for the engine defaults."""
    if args.timeout is None and args.max_tuples is None and args.max_memory is None:
        return None
    return make_governor(
        deadline_seconds=args.timeout,
        max_tuples=args.max_tuples,
        max_memory_bytes=args.max_memory,
    )


def load_files(kb: KnowledgeBase, files: Sequence[Path], out: IO[str]) -> None:
    for path in files:
        added = kb.rules(path.read_text())
        print(f"loaded {path}: {added} rules, "
              f"{sum(len(kb.db.relation(n)) for n in kb.db.names)} facts total", file=out)


def run_query(
    kb: KnowledgeBase, query: str, bindings: dict, args, out: IO[str],
    tracer=NULL_TRACER,
) -> None:
    if args.explain:
        print(kb.explain(query), file=out)
        return
    if args.json:
        print(plan_to_json(kb.compile(query).plan), file=out)
        return
    if getattr(args, "analyze", False):
        print(kb.analyze(query, tracer=tracer, **bindings), file=out)
        return
    governor = _query_governor(args)
    answers = kb.ask(query, governor=governor, tracer=tracer, **bindings)
    if not answers.variables:
        print("true." if len(answers) else "false.", file=out)
        return
    header = ", ".join(v.name for v in answers.variables)
    print(f"-- {header} ({len(answers)} rows)", file=out)
    for row in answers.to_python():
        print("  " + ", ".join(repr(v) if isinstance(v, str) else str(v) for v in row), file=out)


def _materialize(kb: KnowledgeBase, out: IO[str]) -> None:
    views = kb.materialize()
    names = views.predicates()
    total = sum(len(views.rows(name)) for name in names)
    print(f"materialized {len(names)} views ({total} tuples)", file=out)


def _print_views(kb: KnowledgeBase, out: IO[str]) -> None:
    views = kb.materialized_views
    if views is None:
        print("no materialized views (use --materialize or :materialize)", file=out)
        return
    for name in views.predicates():
        print(f"  {name}: {len(views.rows(name))} tuples "
              f"[{views.maintenance_mode(name)}]", file=out)


def repl(kb: KnowledgeBase, args, stdin: IO[str], out: IO[str], tracer=NULL_TRACER) -> None:
    print("ldl> ", end="", file=out, flush=True)
    buffer = ""
    for line in stdin:
        buffer += line
        stripped = buffer.strip()
        if not stripped:
            print("ldl> ", end="", file=out, flush=True)
            buffer = ""
            continue
        if stripped in (":quit", ":q"):
            return
        if stripped == ":relations":
            for name in sorted(kb.db.names):
                print(f"  {name}/{kb.db.relation(name).arity}: "
                      f"{len(kb.db.relation(name))} tuples", file=out)
            buffer = ""
            print("ldl> ", end="", file=out, flush=True)
            continue
        handled = False
        try:
            if stripped == ":materialize":
                _materialize(kb, out)
                handled = True
            elif stripped == ":views":
                _print_views(kb, out)
                handled = True
            elif stripped.startswith(":explain "):
                print(kb.explain(stripped[len(":explain "):].strip()), file=out)
                handled = True
            elif stripped.startswith(":analyze "):
                print(kb.analyze(stripped[len(":analyze "):].strip(), tracer=tracer), file=out)
                handled = True
            elif stripped.startswith(":json "):
                print(plan_to_json(kb.compile(stripped[len(":json "):].strip()).plan), file=out)
                handled = True
            elif stripped.endswith("?"):
                run_query(kb, stripped, {}, args, out, tracer=tracer)
                handled = True
            elif stripped.endswith("."):
                added = kb.rules(stripped)
                print(f"ok ({added} rules)", file=out)
                handled = True
        except ReproError as err:
            print(f"error: {err}", file=out)
            handled = True
        if handled:
            buffer = ""
            print("ldl> ", end="", file=out, flush=True)
        # otherwise: keep buffering (multi-line statement)


def main(argv: Sequence[str] | None = None, stdin: IO[str] | None = None, stdout: IO[str] | None = None) -> int:
    out = stdout or sys.stdout
    args = build_parser().parse_args(argv)
    telemetry_sink = JsonlSink(str(args.telemetry)) if args.telemetry is not None else None
    config_kwargs = {}
    if args.recursive_method is not None:
        # a bound-only method (e.g. magic) leaves an all-free recursive
        # query no safe method: it is reported unsafe, with a diagnostic
        config_kwargs["recursive_methods"] = (args.recursive_method,)
    kb = KnowledgeBase(
        OptimizerConfig(strategy=args.strategy, **config_kwargs),
        result_cache=not args.no_result_cache,
        telemetry_sink=telemetry_sink,
    )
    try:
        load_files(kb, args.files, out)
    except OSError as err:
        print(f"error: {err}", file=out)
        return EXIT_ERROR
    except ReproError as err:
        print(f"error: {err}", file=out)
        return _exit_code_for(err)
    if args.materialize:
        try:
            _materialize(kb, out)
        except ReproError as err:
            print(f"error: {err}", file=out)
            return _exit_code_for(err)

    tracer = NULL_TRACER
    if args.trace is not None:
        tracer = Tracer(sink=JsonlSink(args.trace))

    bindings = dict(args.bind)
    status = EXIT_OK
    try:
        for query in args.query:
            try:
                run_query(kb, query, bindings, args, out, tracer=tracer)
            except ReproError as err:
                print(f"error: {err}", file=out)
                if status == EXIT_OK:
                    # first failure wins: one bad query must not be masked
                    # by a later, differently-failing one
                    status = _exit_code_for(err)
        if args.interactive:
            repl(kb, args, stdin or sys.stdin, out, tracer=tracer)
    finally:
        tracer.close()
        kb.close()  # closes the telemetry sink
        if args.metrics is not None:
            if args.metrics.suffix == ".json":
                args.metrics.write_text(kb.metrics.to_json() + "\n")
            else:
                args.metrics.write_text(kb.metrics.to_prometheus_text())
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
