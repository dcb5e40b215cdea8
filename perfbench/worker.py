"""One fresh benchmark process: set up, run the closed loop, check, report.

Usage (from run.py): python worker.py <workload> <seed> <seconds> <trace> <workdir> [--setup-only]

Prints one JSON object.  Set-up time runs from the first line of this file
(before numpy and peribessel are imported) to the end of the warm-up, and
excludes the references, which are computed after the timed window.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ladder  # noqa: E402
import peribessel  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Functions whose calls and self time are reported, as <key>.calls / .self_s.
LAYER_FUNCTIONS = (
    "multipliers.multiplier_matrix",
    "multipliers.multiplier_norm_l2",
    "multipliers.power_iteration_norm",
    "multipliers.equivalence_report",
    "multipliers.multiplier_norm_sampled",
    "multipliers.intersection_norm",
    "multipliers.default_test_family",
    "lattice.synthesize",
    "lattice.lp_norm",
    "lattice.tree_sum",
    "calculus.hs_norm.coefficient",
    "calculus.hs_norm.quadrature",
    "calculus.bessel_weights",
    "calculus.pointwise_product",
    "generators.gen_distribution",
    "conditions.strichartz_case",
    "coeffio.parse_coeff_file",
    "coeffio.write_coeff_file",
    "verify.run_suite",
    "cli.main",
)
MAX_FAILURE_NOTES = 5
COLD_START_INTERVAL_S = 2.0
MIN_COLD_STARTS = 5


def cold_start_ms() -> float:
    """Wall time of one CLI call that does no numeric work."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "peribessel.cli", "--help"],
        capture_output=True, timeout=120, check=True,
    )
    return 1e3 * (time.perf_counter() - start)


def run_loop(workload, seconds: float, probe=None) -> dict:
    """Run whole cycles until ``seconds`` have passed (at least one cycle).

    A record is (job index, wall ms, scaled ms, output, error).  With a speed
    ``probe``, the probe kernel runs after every job and a cold-start call
    between jobs every COLD_START_INTERVAL_S, so that both spread over the
    whole window; neither is part of any job or cycle time.  Each cycle's
    times are scaled by that cycle's probe samples (see speed.py).
    """
    records, cycles, slowdowns, colds = [], [], [], []
    start = last_probe = time.perf_counter()
    while True:
        jobs, kernel_ms, cycle_colds = [], [], []
        for index, job in enumerate(workload.cycle):
            began = time.perf_counter()
            try:
                output, error = job.run(), None
            except Exception as exc:  # a failed job is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            elapsed_ms = 1e3 * (time.perf_counter() - began)
            if error is None:
                output = job.collect(output)
            jobs.append((index, elapsed_ms, output, error))
            if probe is not None:
                kernel_ms.append(probe.sample_ms())
                if time.perf_counter() - last_probe >= COLD_START_INTERVAL_S:
                    cycle_colds.append(cold_start_ms())
                    last_probe = time.perf_counter()
        scale = probe.scale(kernel_ms) if probe is not None else 1.0
        records += [(i, ms, ms * scale, out, err) for i, ms, out, err in jobs]
        cycles.append(scale * sum(ms for _, ms, _, _ in jobs) / 1e3)
        slowdowns.append(1.0 / scale)
        colds += [ms * scale for ms in cycle_colds]
        if time.perf_counter() - start >= seconds:
            break
    while probe is not None and len(colds) < MIN_COLD_STARTS:
        colds.append(cold_start_ms() * probe.scale())
    return {"records": records, "cycles_s": cycles, "cold_start_ms": colds, "slowdown": slowdowns}


def check(workload, records) -> tuple[int, float, list]:
    failed, worst, notes = 0, 0.0, []
    for index, _, _, output, error in records:
        name = workload.cycle[index].name
        if error is None:
            ok, rel_err = workload.check(index, output)
            worst = max(worst, rel_err)
            if not ok:
                error = f"missed its reference (relative error {rel_err:.3e})"
        if error is not None:
            failed += 1
            if len(notes) < MAX_FAILURE_NOTES:
                notes.append(f"{name}: {error}")
    return failed, worst, notes


def layer_metrics(snapshot: dict) -> dict:
    stats, counters = snapshot["stats"], snapshot["counters"]
    metrics = {}
    for key in LAYER_FUNCTIONS:
        calls, self_s, _ = stats.get(key, (0, 0.0, 0.0))
        metrics[f"{key}.calls"] = calls
        metrics[f"{key}.self_s"] = self_s
    metrics["multipliers.multiplier_matrix.bytes"] = counters["multiplier_matrix.bytes"]
    metrics["multipliers.equivalence_report.alloc_peak_mib"] = (
        counters["equivalence_report.alloc_peak_bytes"] / 2**20
    )
    products = metrics["calculus.pointwise_product.calls"]
    metrics["calculus.pointwise_product.dense_share"] = (
        counters["pointwise_product.dense_calls"] / products if products else 0.0
    )
    metrics["calculus.pointwise_product.terms"] = counters["pointwise_product.terms"]
    metrics[f"verify.{tracing.TIMED_CHECK}.total_s"] = stats.get(
        f"verify.{tracing.TIMED_CHECK}", (0, 0.0, 0.0)
    )[2]
    total_self = sum(entry[1] for entry in stats.values()) or 1.0
    for module in tracing.MODULES:
        metrics[f"{module}.self_share"] = (
            sum(entry[1] for key, entry in stats.items() if key.split(".")[0] == module)
            / total_self
        )
    return metrics


def provenance() -> dict:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (AttributeError, KeyError, TypeError):  # layout differs across numpy versions
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "peribessel": str(Path(peribessel.__file__).resolve().parent),
    }


def main() -> int:
    name, seed, seconds, trace, workdir = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workload = workloads.WORKLOADS[name](seed, Path(workdir))
    workload.warm_up()
    setup_s = time.perf_counter() - START
    probe = speed.SpeedProbe()
    result = {
        "setup_s": setup_s * probe.scale(),
        "setup_raw_s": setup_s,
        "speed_reference_ms": speed.REFERENCE_MS,
        "provenance": provenance(),
    }
    if "--setup-only" in sys.argv:
        print(json.dumps(result))
        return 0

    if isinstance(workload, workloads.CliSession):
        workload.run_reference()

    if not trace:
        loop = run_loop(workload, seconds, probe)
        result["cold_start_ms"] = loop["cold_start_ms"]
        result["slowdown"] = loop["slowdown"]
        who = resource.RUSAGE_CHILDREN if name == "cli-session" else resource.RUSAGE_SELF
        result["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024.0
        loops = [loop]
    else:
        plain = run_loop(workload, seconds / 2)
        snapshot = tracing.empty_snapshot()
        if isinstance(workload, workloads.CliSession):
            workload.snapshot = snapshot
            traced = run_loop(workload, seconds / 2)
            workload.snapshot = None
            workload.run_alloc(snapshot)
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_loop(workload, seconds / 2)
            finally:
                tracer.uninstall()
            snapshot = tracer.snapshot()
            alloc = tracing.Tracer(alloc=True)
            alloc.install()
            try:
                for job in workload.cycle:
                    job.run()
            finally:
                alloc.uninstall()
            tracing.merge(snapshot, alloc.snapshot())
        metrics = layer_metrics(snapshot)
        metrics["trace.overhead_ratio"] = statistics.median(
            traced["cycles_s"]
        ) / statistics.median(plain["cycles_s"])
        metrics.update(ladder.measure())
        result["layer_metrics"] = metrics
        loop = traced
        loops = [plain, traced]

    records = [record for each in loops for record in each["records"]]
    failed, worst, notes = check(workload, records)
    result.update(
        job_ms=[record[2] for record in loop["records"]],
        job_raw_ms=[record[1] for record in loop["records"]],
        cycles_s=loop["cycles_s"],
        attempted=len(records),
        failed=failed,
        failure_notes=notes,
        cycle=[job.name for job in workload.cycle],
    )
    if trace:
        result["layer_metrics"]["multipliers.norm_rel_err.max"] = worst
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
