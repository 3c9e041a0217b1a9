#!/usr/bin/env python3
"""Performance ledger: one command, every metric by name and unit.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in a fresh subprocess (``harness.py``) and prints one
JSON object on the last line of stdout: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` it runs every workload both ways and prints a table.

Names, units and regression bounds live in ``BENCHMARK.json`` at the
repository root; sizes in ``sizes.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = "benchmarks/ledger/out"


def run_one(workload: str, seed: int, seconds: float, trace: int,
            quick: bool = False, rounds: int = 0) -> dict:
    """Run one workload in its own process group; check what it left
    behind; return its result with exactly the declared metrics."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = contract["per_layer" if trace else "end_to_end"]
    scratch = ROOT / OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # same set order, same counts, every run
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(scratch)  # spill files land where we can see them
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--rounds", str(rounds),
    ] + (["--quick"] if quick else [])
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        leaked_processes = _kill_group(child.pid)
        child.wait()
        leaked_files = sorted(p.name for p in scratch.rglob("*") if p.is_file())
        shutil.rmtree(scratch, ignore_errors=True)
    if child.returncode != 0 or not stdout.strip():
        raise SystemExit(f"ledger: {workload} exited with code {child.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if leaked_processes or leaked_files:
        print(f"ledger: {workload} left behind processes={leaked_processes} "
              f"files={leaked_files}", file=sys.stderr)
        result["correct"] = False
    measured = result["metrics"]
    result["metrics"] = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
    }
    return result


def _kill_group(pgid: int) -> bool:
    """True if any process of the child's group outlived it (a worker
    that was not shut down); whatever is left is killed and reaped by
    init, so nothing the run started survives it."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return True


def run_all(names: list[str], seed: int, seconds: float, quick: bool, rounds: int) -> int:
    """Every workload, untraced then traced; a table of every metric."""
    columns: dict[str, dict] = {}
    ok = True
    for name in names:
        merged: dict = {}
        for trace in (0, 1):
            result = run_one(name, seed, seconds, trace, quick, rounds)
            ok = ok and result["correct"]
            merged.update(result["metrics"])
            merged[f"failed_frac.trace{trace}"] = {
                "value": result["failed"] / result["attempted"], "unit": "frac",
            }
        columns[name] = merged
    rows = list(next(iter(columns.values())))
    width = max(len(r) for r in rows) + 6
    print(f"{'metric [unit]':<{width}}" + "".join(f"{n:>16}" for n in names))
    for row in rows:
        unit = columns[names[0]][row]["unit"]
        label = f"{row} [{unit}]"
        cells = "".join(f"{columns[n][row]['value']:>16.4f}" for n in names)
        print(f"{label:<{width}}{cells}")
    print(f"records: {OUT}/<workload>-seed{seed}.jsonl (repro.bench/1)")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all, both ways")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, 0.5 s: a smoke run, never a baseline")
    parser.add_argument("--rounds", type=int, default=0,
                        help="measure exactly this many rounds instead of --seconds "
                             "(counts then repeat exactly for a seed)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.quick else float(contract["run_seconds"])
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is None:
        return run_all(names, args.seed, seconds, args.quick, args.rounds)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_one(args.workload, args.seed, seconds, args.trace, args.quick, args.rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
