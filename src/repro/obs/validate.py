"""Command-line trace validation: ``python -m repro.obs.validate FILE...``.

Exit status 0 when every event in every file conforms to its in-band
schema — ``repro.trace/1`` span events (kind registry and the shaped
name ``optimize:enumerate:<pred>`` included) or ``repro.telemetry/2`` query
records, which may be interleaved in one file — and 1 otherwise
(violations are printed one per line).  CI runs this over the traces
and telemetry produced from the ``examples/`` smoke queries.
"""

from __future__ import annotations

import sys

from .events import validate_trace_file


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.obs.validate TRACE.jsonl [...]", file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        try:
            errors = validate_trace_file(path)
        except OSError as err:
            print(f"{path}: {err}", file=sys.stderr)
            failures += 1
            continue
        if errors:
            failures += 1
            for problem in errors:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    raise SystemExit(main())
