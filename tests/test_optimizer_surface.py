"""The optimizer offers only what its cost model can pick.

Query-subquery nets priced as a tie with supplementary magic and lost
every tie, the un-pruned search mode returned the pruned mode's plans,
and four knobs had one value in every caller: all are gone.  These
checks keep them gone, and keep a misspelled method name a typed
configuration error instead of an "unsafe query" at the first ask.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from repro import KnowledgeBase, OptimizerConfig
from repro.cli import build_parser
from repro.datalog import parse_program
from repro.errors import OptimizationError, UnsafeQueryError
from repro.optimizer import Optimizer
from repro.storage.statistics import DeclaredStatistics

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ANC = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y)."


# ------------------------------------------------------------ source surface


def test_the_query_subquery_net_engine_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.engine.qsqn")


def test_nothing_under_src_imports_the_query_subquery_net_engine():
    offenders = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno} {module}"
                for module in modules if module.split(".")[-1] == "qsqn"
            ]
    assert offenders == []


def test_optimizer_config_has_seven_fields():
    assert [field.name for field in dataclasses.fields(OptimizerConfig)] == [
        "strategy", "params", "recursive_methods", "force_method", "seed",
        "annealing", "deadline_seconds",
    ]


def test_the_cli_has_no_search_flag():
    parser = build_parser()
    options = {option for action in parser._actions for option in action.option_strings}
    assert "--search" not in options
    (method,) = [action for action in parser._actions if "--recursive-method" in action.option_strings]
    assert "qsqn" not in method.choices


# ------------------------------------------------------ configuration errors


def _optimizer(**config):
    return Optimizer(parse_program(ANC), DeclaredStatistics(), OptimizerConfig(**config))


@pytest.mark.parametrize("methods", [("magik",), ("seminaive", "qsqn")])
def test_a_misspelled_recursive_method_is_a_configuration_error(methods):
    with pytest.raises(OptimizationError) as raised:
        _optimizer(recursive_methods=methods)
    assert type(raised.value) is OptimizationError
    message = str(raised.value)
    assert repr(methods[-1]) in message and "supplementary" in message


def test_an_empty_recursive_method_list_is_a_configuration_error():
    kb = KnowledgeBase(OptimizerConfig(recursive_methods=()))
    kb.rules(ANC)
    kb.facts("par", [("a", "b")])
    with pytest.raises(OptimizationError) as raised:
        kb.ask("anc(a, Y)?")
    assert not isinstance(raised.value, UnsafeQueryError)
    assert "recursive_methods" in str(raised.value)


def test_a_misspelled_force_method_is_a_configuration_error():
    with pytest.raises(OptimizationError) as raised:
        _optimizer(strategy="textual", force_method="hsah")
    message = str(raised.value)
    assert "'hsah'" in message and "nested_loop" in message
