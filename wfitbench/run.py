"""End-to-end benchmark of the WFIT tuning engine.

Run from the repository root::

    python3 wfitbench/run.py --workload auto_paper --seed 1 --seconds 50 --trace 0

Builds nothing: it imports ``repro`` from ``src/`` next to this directory
and refuses to run without it. Prints a human-readable summary, then, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``; per-layer metrics with ``--trace 1``). See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment knobs that would move the program off its defaults (obs
#: off, a worker pool, group commit, the pure-Python kernel). The benchmark
#: measures the defaults, so it clears them before importing repro.
PINNED_DEFAULTS = ("REPRO_OBS", "REPRO_WORKERS", "REPRO_WAL_FSYNC_MS", "REPRO_NO_NUMPY")

#: Scratch directory for WAL, snapshots and restart files, inside the checkout.
WORK_DIR = os.path.join(ROOT, ".wfitbench-work")


def _import_program():
    """Import ``repro`` from this checkout's ``src/``; exit 2 if absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    for name in PINNED_DEFAULTS:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from measure import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, WORK_DIR)
        report = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    for line in report.summary:
        print(line)
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
