"""MQA benchmark: run one workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dialogue --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload served-mixed --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload bulk-search --spread 5 --seed 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` the per-layer metrics of a
traced run, whose spans are also written to ``.perfbench/``.  ``--spread N``
runs the workload N times (seeds ``seed`` .. ``seed+N-1``), one process
each, and prints every metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One process, at most nproc threads of its own: keep numpy's BLAS from
# starting a pool of its own next to the served workload's two clients.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {source}")
    return repro


def _spread(args) -> int:
    """Repeat the workload in fresh processes; print median and quartiles."""
    runs = []
    for offset in range(args.spread):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed + offset), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                                   timeout=900)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(json.dumps({"seed": args.seed + offset, **result}), flush=True)
    summary = {"workload": args.workload, "runs": len(runs),
               "correct": all(r["correct"] for r in runs),
               "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
               "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        median = statistics.median(values)
        summary["metrics"][name] = {
            "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
        }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dialogue", "bulk-search", "served-mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spread", type=int, default=0,
                        help="repeat the workload N times and print quartiles")
    args = parser.parse_args(argv)
    if args.spread:
        return _spread(args)

    repro = _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    result = workloads.RUNNERS[args.workload](
        repro, args.seed, args.seconds, bool(args.trace), None,
        workloads.SETUP_REPS, ROOT / ".perfbench",
    )
    for error in result["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
