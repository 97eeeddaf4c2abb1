#!/usr/bin/env python3
"""Run one workload of the end-to-end DIO benchmark.

From the repository root::

    python3 e2ebench/run.py --workload rocksdb_ycsb_traced --seed 1 \\
        --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run, which reports the per-layer
metrics and writes the span ledger.  Details go to standard output
and to ``.e2ebench-out/`` under the repository root; the last line of
standard output is the result as one JSON object.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".e2ebench-out"


def source_digest() -> str:
    """sha256 over ``src/`` (identifies the code without git)."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def stamp(args, sizes: dict) -> dict:
    """Where and on what a result was measured; compare results only
    between stamps with the same ``host``."""
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="'full' (the benchmark) or 'tiny' (self-tests)")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro").is_dir():
        print(f"no DIO sources at {SOURCE}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of "
                     f"{sorted(workloads.WORKLOADS)}")
    if args.size not in workloads.SIZES:
        parser.error(f"unknown size {args.size!r}")
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.SIZES[args.size]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"{tag}-{os.getpid()}"
    work_dir.mkdir()
    try:
        if args.trace:
            result = workloads.run_traced(workload, args.seed, sizes,
                                          work_dir)
        else:
            result = workloads.run_plain(workload, args.seed, args.seconds,
                                         sizes, work_dir)
    finally:
        work_dir.rmdir()

    if result.ledger is not None:
        table = result.ledger.render(
            f"span ledger: {args.workload}, seed {args.seed}")
        print(table)
        (OUT_DIR / f"{tag}-ledger.txt").write_text(table + "\n")
        result.ledger.write(OUT_DIR / f"{tag}-spans.json")
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}")
    line = {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }
    details = {"stamp": stamp(args, result.sizes), **line,
               "failures": result.failures, "samples": result.samples,
               "gc": result.gc}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps(details["stamp"], sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
