"""The ledger's tracer wraps engine entry points *by name*.

``benchmarks/ledger/trace.py`` (frozen: this test only reads it) lists
``(span, module, dotted attribute)`` targets; one that no longer
resolves is skipped silently and its per-layer metric reads 0 — so a
renamed entry point would flatten a row of the performance ledger
without failing anything.  Every target must resolve under ``src/repro``
unless it is in the retired set below: code that was deleted on purpose
and whose metric is *meant* to read 0.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "trace.py"

#: removed with the partitioned-parallel tier, the row-kernel tier and
#: the learned-cardinality feedback store (replaced by the optimizer's
#: sampled cardinality); their metrics stay declared and read 0
RETIRED_MODULES = {"repro.engine.parallel", "repro.engine.kernels", "repro.obs.feedback"}
#: derived extensions are id-space stores (``storage.columnar.IdRelation``),
#: not mirrored ``DerivedRelation``s, and every join probes the id store's
#: bucket maps: there is no term-space index to build
RETIRED_ATTRIBUTES = {
    ("repro.storage.relation", "DerivedRelation.batch_store"),
    ("repro.storage.relation", "Relation.ensure_index"),
    ("repro.storage.relation", "DerivedRelation.ensure_index"),
}


def _targets():
    spec = importlib.util.spec_from_file_location("ledger_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines names only; installs nothing
    return module.TARGETS


def _resolves(module_name: str, dotted: str) -> bool:
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return False
    for part in dotted.split("."):
        target = getattr(target, part, None)
        if target is None:
            return False
    return callable(target)


@pytest.mark.parametrize("span,module_name,dotted", _targets())
def test_ledger_target_resolves_or_is_retired(span, module_name, dotted):
    retired = module_name in RETIRED_MODULES or (module_name, dotted) in RETIRED_ATTRIBUTES
    assert _resolves(module_name, dotted) != retired, (
        f"{span}: {module_name}:{dotted} "
        + ("is retired but resolves — drop it from the retired set"
           if retired else "no longer resolves — the ledger would read 0 for it")
    )


def test_the_retired_set_names_only_listed_targets():
    listed = {(module_name, dotted) for __, module_name, dotted in _targets()}
    assert RETIRED_ATTRIBUTES <= listed
    assert RETIRED_MODULES <= {module_name for module_name, __ in listed}
