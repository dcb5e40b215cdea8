"""peribessel benchmark: end-to-end metrics (untraced) or per-layer metrics
(traced) for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mult-l2 --seed 1 --seconds 20 --trace 0

Workloads: mult-l2, mult-lp, cli-session (see perfbench/README.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance and a table of every metric with its unit.  The package is imported
from ``src/`` of this checkout, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("mult-l2", "mult-lp", "cli-session")

# BLAS/OpenMP threads of every worker and CLI child; at most nproc.
THREADS = 1
# Set-up is measured in this many fresh processes (the measuring worker plus
# probes that stop after set-up); the median is reported.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "peak_rss_mib": "MiB",
    "cold_start_ms": "ms",
}


def layer_unit(name: str) -> str:
    if name.startswith("ladder."):
        return "MiB" if name.endswith(".peak_mib") else "ms"
    suffix = name.rsplit(".", 1)[1]
    return {
        "calls": "count",
        "terms": "count",
        "self_s": "s",
        "total_s": "s",
        "bytes": "B",
        "alloc_peak_mib": "MiB",
    }.get(suffix, "ratio")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_worker(args, *extra) -> dict:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
        str(WORKDIR / args.workload),
        *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentiles(samples: list) -> tuple:
    if len(samples) < 2:
        return samples[0], samples[0]
    cuts = statistics.quantiles(samples, n=10)
    return cuts[4], cuts[8]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "peribessel" / "__init__.py").is_file():
        sys.stderr.write(f"error: no peribessel sources under {SRC}\n")
        return 2

    try:
        result = run_worker(args)
        setups = [result]
        if not args.trace:
            setups += [run_worker(args, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    jobs = result["job_ms"]
    p50, p90 = percentiles(jobs)
    if args.trace:
        metrics = {name: (value, layer_unit(name))
                   for name, value in sorted(result["layer_metrics"].items())}
    else:
        values = {
            "setup_s": statistics.median(each["setup_s"] for each in setups),
            "jobs_per_s": len(result["cycle"]) / statistics.median(result["cycles_s"]),
            "job_ms.p50": p50,
            "job_ms.p90": p90,
            "peak_rss_mib": result["peak_rss_mib"],
            "cold_start_ms": statistics.median(result["cold_start_ms"]),
        }
        metrics = {name: (value, UNITS[name]) for name, value in values.items()}

    attempted, failed = result["attempted"], result["failed"]
    info = dict(
        result["provenance"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_sha=git_sha(),
        nproc=len(os.sched_getaffinity(0)),
        platform=platform.platform(),
        blas_threads=THREADS,
        cycle=result["cycle"],
        job_samples=len(jobs),
        cycle_samples=len(result["cycles_s"]),
        setup_samples=len(setups),
        cold_start_samples=len(result.get("cold_start_ms", [])),
        fail_ratio=failed / attempted,
        failure_notes=result["failure_notes"],
    )
    if not args.trace:
        raw_p50, raw_p90 = percentiles(result["job_raw_ms"])
        info.update(
            speed_reference_ms=result["speed_reference_ms"],
            slowdown_median=statistics.median(result["slowdown"]),
            raw_wall={
                "setup_s": statistics.median(each["setup_raw_s"] for each in setups),
                "job_ms.p50": raw_p50,
                "job_ms.p90": raw_p90,
            },
        )
    print("provenance " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(f"{'fail_ratio':<48} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
