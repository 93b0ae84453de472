"""Run one workload of the benchmark and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload estimate-miss --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a human-readable summary goes to standard error.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("estimate-miss", "http-keepalive", "plan-update")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, Fixture

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    started = time.perf_counter()
    try:
        fixture = Fixture(workdir=workdir)
        result = WORKLOADS[args.workload](fixture, args.seed, args.seconds,
                                          bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    ledger = result.ledger
    for name, (value, unit) in result.metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}", file=sys.stderr)
    for key, value in result.info.items():
        print(f"{key}: {value}", file=sys.stderr)
    for message in ledger.errors + ledger.violations:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"wall {time.perf_counter() - started:.1f}s", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
