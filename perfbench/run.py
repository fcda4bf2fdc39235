"""rfuncds benchmark: one command per workload, checked outputs, JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload identify-kelvin --seed 1 --seconds 10 --trace 0

Workloads: identify-kelvin, identify-si, demo-all, query (see README.md in
this directory for why each exists).  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  The lines before it repeat
every metric with its unit and sample count, the failure accounting and
the software versions.  The exit code is 0 only if every output check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("identify-kelvin", "identify-si", "demo-all", "query")
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _commit() -> str:
    """Git commit if this is a checkout, plus a hash of the sources."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.read_bytes())
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    return f"{head or 'none'} (src sha256 {h.hexdigest()[:12]})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rfuncds" / "__init__.py").is_file():
        print(f"error: no rfuncds sources under {SRC}", file=sys.stderr)
        return 2
    for var in PINNED_THREADS:   # read by numpy's BLAS here and in every child
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})   # children inherit it
    import numpy as np
    import workloads
    from calib import SpeedProbe

    work = workloads.WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(workload=args.workload, seconds=args.seconds,
                            rng=np.random.default_rng(args.seed),
                            tally=workloads.Tally(), work=work, cal=SpeedProbe())
    print(f"env: python {platform.python_version()}, numpy {version('numpy')}, "
          f"scipy {version('scipy')}, nproc {os.cpu_count()}, "
          f"commit {_commit()}, workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    try:
        metrics = workloads.run_traced(ctx) if args.trace else workloads.run(ctx)
    except Exception as exc:   # no metrics to report: fail the run loudly
        print(f"error: {exc!r}", file=sys.stderr)
        return 1

    tally = ctx.tally
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    print(f"ops_failed_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for note in tally.notes:
        print(f"failed: {note}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
