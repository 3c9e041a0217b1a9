"""The chaos harness itself: a short seeded sweep must be green.

CI's ``chaos`` job runs the long sweep (``python -m repro.testing.chaos
--count 100``); this tier-1 slice keeps the harness importable, the
scenario dispatch exercised, and the no-violation contract pinned on a
handful of seeds so a regression shows up in the default test run, not
only in the nightly-style job.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.testing.chaos import SCENARIOS, chaos_case, run_sweep


def test_every_scenario_name_is_reachable():
    # the scenario picker is seeded; over enough seeds all arms appear
    seen = set()
    seed = 0
    while len(seen) < len(SCENARIOS) and seed < 200:
        import random

        rng = random.Random(seed * 2654435761 % (2**31))
        seen.add(rng.choice(SCENARIOS))
        seed += 1
    assert seen == set(SCENARIOS)


@pytest.mark.parametrize("seed", range(8))
def test_chaos_case_has_no_violations(seed):
    result = chaos_case(seed)
    assert result.ok, result.violations
    assert result.queries > 0


def test_short_sweep_reports():
    report = run_sweep(seed=100, count=6)
    assert report.ok, report.violations
    assert report.cases == 6


def test_the_cli_runs_without_a_runtime_warning():
    """``-m`` must find the module unloaded: a package that imported it
    made Python warn, and ``-W error`` turn the warning into exit 1."""
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.testing.chaos",
         "--seed", "0", "--count", "1"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
