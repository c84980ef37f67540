"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload dashboard_cold --seed 1 --seconds 20 --trace 0

Prints a run record (host fingerprint, seed, operations attempted and
failed, check errors) as one JSON line, then as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits with a non-zero status, printing no result, when the program's
sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Put this checkout's ``src`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="seconds-long inputs (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import numpy

    from perfbench import inputs, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick one of {sorted(workloads.WORKLOADS)}")
    result, record = workloads.run(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        sizes=inputs.SMALL if args.small else inputs.FULL,
        work_root=ROOT / "perfbench" / "_work",
        spans_dir=ROOT / "perfbench" / "_out",
    )
    record["host"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    record["trace"] = args.trace
    print(json.dumps(record))
    for error in record["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
