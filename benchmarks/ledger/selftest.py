#!/usr/bin/env python3
"""Self-test of the ledger harness (quick sizes; not collected by tier-1).

    python3 benchmarks/ledger/selftest.py

Checks, on every workload: each metric declared in ``BENCHMARK.json`` is
printed with its unit; no op fails; two traced runs of one seed agree
exactly on every count; and a reference that is made to disagree turns
up as failed ops.  Quick numbers are smoke numbers: never a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as ledger  # noqa: E402

ROUNDS = 2
EXACT_UNITS = {"count", "frac", "cost"}
#: a share of measured time, so not repeatable
TIMED = {"bench.attributed_frac"}


def check_workload(name: str, contract: dict) -> None:
    plain = ledger.run_one(name, 7, 1.0, 0, quick=True, rounds=ROUNDS)
    first = ledger.run_one(name, 7, 1.0, 1, quick=True, rounds=ROUNDS)
    again = ledger.run_one(name, 7, 1.0, 1, quick=True, rounds=ROUNDS)
    for result, declared in ((plain, "end_to_end"), (first, "per_layer")):
        assert result["correct"] and result["failed"] == 0, (name, result)
        assert result["attempted"] >= 1
        for metric in contract[declared]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric["name"], got)
            assert isinstance(got["value"], (int, float)), (name, metric["name"], got)
    for metric in contract["end_to_end"]:
        assert plain["metrics"][metric["name"]]["value"] > 0, (name, metric["name"])
    assert first["attempted"] == again["attempted"]
    for metric in contract["per_layer"]:
        if metric["unit"] in EXACT_UNITS and metric["name"] not in TIMED:
            a = first["metrics"][metric["name"]]["value"]
            b = again["metrics"][metric["name"]]["value"]
            assert a == b, f"{name}: {metric['name']} differs between equal runs: {a} != {b}"
    record = json.loads((ROOT / ledger.OUT / f"{name}-seed7.jsonl").read_text())
    assert record["schema"] == "repro.bench/1" and record["plan_fingerprints"]
    assert record["analyze"]["text"], name


def check_corrupted_reference() -> None:
    """A reference that disagrees must show up as failed ops."""
    import harness
    import reference

    honest = reference.same_rows
    reference.same_rows = lambda got, expected: False
    try:
        args = argparse.Namespace(
            workload="tc_batch", seed=7, seconds=1.0, trace=0, quick=True,
            rounds=ROUNDS,
        )
        result = harness.Run(args, json.loads((HERE / "sizes.json").read_text())).run()
    finally:
        reference.same_rows = honest
    assert result["failed"] > 0 and not result["correct"], result


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in contract["workloads"]:
        check_workload(workload["name"], contract)
        print(f"ok  {workload['name']}")
    with open(os.devnull, "w") as quiet:
        stderr, sys.stderr = sys.stderr, quiet
        try:
            check_corrupted_reference()
        finally:
            sys.stderr = stderr
    print("ok  corrupted reference is caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
