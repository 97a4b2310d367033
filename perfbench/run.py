"""oemsim benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
    presets       run_sweep over all seven presets, serial, in-process, warm
    dense_atomic  fig5 at 8001 points, all five pairs, no baseline, serial
    cli_dense     a fresh interpreter runs `oemsim sweep` on fig6a at 4001
                  points with --jobs 2 and writes the CSV and .meta.json
    oracle        criterion 02 (brute-force Lyapunov and time integration) on
                  one stable point per preset

Each run is a closed loop: one pass after another until --seconds have
passed, after an untimed warm-up pass (except the oracle, whose passes take
seconds and have nothing lazy to warm). Every pass is checked against the
goldens in tests/golden (read only); a point that errors or fails the check
counts in `failed`.

Times are reported at reference speed (see calibrate.py): each measured
wall time is scaled by how fast a fixed kernel ran just before, just after
and (for the timed passes of --trace 0) every 25 ms during it, which keeps
the figures steady on a machine whose speed drifts. The measured wall times
and the scale factors are in the report line.

--trace 0 prints the end-to-end metrics:
    setup_s        median time of fresh interpreters that import oemsim and
                   build the workload's inputs
    points_per_s   grid points (oracle: checks) per pass / median pass time
    pass_s.tail    the highest percentile of pass time with at least ten
                   passes beyond it (the maximum when there are ten or fewer)
    peak_rss_mb    peak resident set of the process that ran the passes
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: per-pass totals and self times of each wrapped layer (medians over
the traced passes), call counts, import times from `-X importtime`, and the
tracing overhead (median traced minus median untraced pass). A layer that a
workload never reaches reads 0. Spans are wall-clock, so in the thread pool
of cli_dense a self time includes waiting for the interpreter lock.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. The line before it is a JSON report with the
environment, the pass times, the seed's effect and the oracle's points.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# sibling modules: the script's own directory is first on sys.path
import workloads
from calibrate import SpeedProbe, at_reference_speed
from tracer import Tracer
from workloads import CHILD_TIMEOUT_S, BenchError, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS = 5
IMPORT_PACKAGES = ("numpy", "scipy", "oemsim")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SEED_SCOPE = ("the sweep grids are fixed and do not depend on the seed; the "
              "seed only picks each preset's oracle point among its ten most "
              "strongly damped stable points")


# -- set-up ---------------------------------------------------------------

def run_setup_child(name: str, seed: int,
                    trace: bool) -> tuple[float, float, str]:
    """Measured time and time at reference speed of a fresh interpreter that
    builds the workload's inputs, and its stderr (the import tree when
    tracing)."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else [])
    cmd += [str(HERE / "child.py"), "setup", "--workload", name,
            "--seed", str(seed)] + ([] if trace else ["--probe"])
    with SpeedProbe("grid", during=False) as probe:
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    samples, stolen = probe.samples, 0.0
    if not trace:
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        samples, stolen = samples + child["speed_samples"], child["stolen_s"]
    return (elapsed, at_reference_speed("grid", elapsed, samples, stolen),
            proc.stderr)


def import_ms(stderr: str) -> dict[str, float]:
    """Import times from `-X importtime` output, in ms.

    `oemsim` is the cumulative time of `import oemsim`, numpy and scipy
    included. `numpy` and `scipy` each sum the self time of every module
    whose own name, or the name of the nearest importing module that has
    one, lies in that package; so a numpy module that scipy imports counts
    for numpy, and the two never count the same module twice.
    """
    pending: list[tuple[int, tuple]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        own, cumulative, field = line[len("import time:"):].split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        node = (field.strip(), int(own), int(cumulative), [])
        while pending and pending[-1][0] > depth:
            node[3].append(pending.pop()[1])
        pending.append((depth, node))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)

    def package(name: str) -> str | None:
        top = name.split(".")[0]
        return top if top in IMPORT_PACKAGES else None

    def walk(node, owner: str | None) -> None:
        name, own, cumulative, children = node
        pkg = package(name)
        if pkg == "oemsim" and owner != "oemsim":
            totals["oemsim"] += cumulative / 1e3
        owner = pkg or owner
        if owner in ("numpy", "scipy"):
            totals[owner] += own / 1e3
        for child in children:
            walk(child, owner)

    for _, node in pending:
        walk(node, None)
    return totals


# -- passes ---------------------------------------------------------------

def timed_pass(workload, inputs, reference, tracer: Tracer | None,
               during: bool):
    """One pass: (seconds at reference speed, measured seconds, outcome,
    layers, counters). `during` samples the speed kernel while it runs."""
    in_process = workload is not workloads.CliDense
    if tracer is not None and in_process:
        tracer.install()
    try:
        with SpeedProbe(workload.speed_kernel,
                        during=during and in_process) as probe:
            start = time.perf_counter()
            output = workload.run(inputs, trace=tracer is not None,
                                  probe=during)
            elapsed = time.perf_counter() - start
    finally:
        if tracer is not None and in_process:
            tracer.uninstall()
    outcome = workload.check(reference, output)
    samples, stolen = probe.samples, probe.stolen_s
    if outcome.child is not None:
        samples = samples + outcome.child["speed_samples"]
        stolen = outcome.child["stolen_s"]
    layers = counters = None
    if tracer is not None:
        layers, counters = (tracer.reduce() if in_process else
                            (outcome.child["layers"], outcome.child["counters"]))
    return (at_reference_speed(workload.speed_kernel, elapsed, samples, stolen),
            elapsed, outcome, layers, counters)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def layer_metrics(layers: dict, counters: dict, outcome) -> dict[str, float]:
    def total(name):
        return layers.get(name, {}).get("total_ms", 0.0)

    def own(name):
        return layers.get(name, {}).get("self_ms", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    per_point = 1.0 / outcome.points
    return {
        "dynamics.is_stable_ms": total("dynamics.is_stable"),
        "dynamics.is_stable_calls_per_point":
            calls("dynamics.is_stable") * per_point,
        "dynamics.eig_calls_per_point":
            counters.get("numpy.eig", 0) * per_point,
        "dynamics.bartels_stewart_ms": total("dynamics.bartels_stewart"),
        "dynamics.solve_lyapunov_self_ms": own("dynamics.solve_lyapunov"),
        "gaussian.log_negativity_ms": total("gaussian.log_negativity"),
        "gaussian.log_negativity_calls": calls("gaussian.log_negativity"),
        "gaussian.extract_bipartite_ms": total("gaussian.extract_bipartite"),
        "sweep.evaluate_point_self_ms": own("sweep.evaluate_point"),
        "sweep.run_sweep_self_ms": own("sweep.run_sweep"),
        "model.replace_ms": total("model.replace"),
        "model.solve_steady_state_ms": total("model.solve_steady_state"),
        "dynamics.build_drift_ms": total("dynamics.build_drift"),
        "dynamics.build_diffusion_ms": total("dynamics.build_diffusion"),
        "sweep.write_csv_ms": total("sweep.write_csv"),
        "cli.main_self_ms": own("cli.main"),
        "verify.integrate_covariance_ms": total("verify.integrate_covariance"),
        "verify.lyapunov_bruteforce_ms": total("verify.lyapunov_bruteforce"),
    }


COUNT_METRICS = ("dynamics.is_stable_calls_per_point",
                 "dynamics.eig_calls_per_point",
                 "gaussian.log_negativity_calls")


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# -- environment ----------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: v.get(f) for f in ("name", "version",
                                           "openblas configuration")}
                for k, v in deps.items() if k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy without the dict form
        blas = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


# -- main -----------------------------------------------------------------

def bench(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    units = declared_units(trace)
    load_start = os.getloadavg()
    workloads.import_oemsim(ROOT)
    reference = workload.reference(ROOT)
    report: dict = {"workload": name, "seed": seed, "seed_scope": SEED_SCOPE,
                    "seconds": seconds, "trace": int(trace),
                    "environment": environment()}
    setups, imports = [], []
    for _ in range(SETUP_REPS):
        elapsed, ref_s, stderr = run_setup_child(name, seed, trace)
        setups.append(ref_s)
        imports.append({k: v * ref_s / elapsed
                        for k, v in import_ms(stderr).items()})

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = workload.build(ROOT, seed, scratch)
        if workload is workloads.Oracle:
            report["oracle_points"] = {p.preset: p.x for p in inputs.points}
        attempted = failed = 0
        if workload.warmup:
            outcome = timed_pass(workload, inputs, reference, None, False)[2]
            attempted, failed = outcome.attempted, outcome.failed
        tracer = Tracer() if trace else None
        plain: list[float] = []
        traced: list[tuple[float, dict]] = []
        raw: list[float] = []
        factors: list[float] = []
        counts_seen: list[dict] = []
        peak_kb = 0
        deadline = time.perf_counter() + seconds
        while True:
            use_tracer = trace and len(traced) < len(plain)
            ref_s, elapsed, outcome, layers, counters = timed_pass(
                workload, inputs, reference, tracer if use_tracer else None,
                during=not trace)
            factor = ref_s / elapsed
            factors.append(factor)
            raw.append(elapsed)
            attempted += outcome.attempted
            failed += outcome.failed
            if outcome.child is not None:
                peak_kb = max(peak_kb, outcome.child["maxrss_kb"])
            if use_tracer:
                metrics = {k: v * factor if units[k] == "ms" else v
                           for k, v in layer_metrics(layers, counters,
                                                     outcome).items()}
                traced.append((ref_s, metrics))
                counts_seen.append({k: metrics[k] for k in COUNT_METRICS})
            else:
                plain.append(ref_s)
            if time.perf_counter() >= deadline and (not trace or traced):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not peak_kb:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["passes"] = {"measured_s": raw, "untraced_ref_s": plain,
                        "traced_ref_s": [t for t, _ in traced]}
    report["speed_factors"] = factors
    report["failed_frac"] = failed / attempted
    if trace:
        metrics = {k: statistics.median(m[k] for _, m in traced)
                   for k in traced[0][1]}
        for pkg in IMPORT_PACKAGES:
            metrics[f"import.{pkg}_ms"] = statistics.median(
                i[pkg] for i in imports)
        metrics["sweep.points"] = outcome.grid_points
        metrics["sweep.stable_share"] = outcome.stable / outcome.grid_points
        metrics["sweep.error_points"] = outcome.errors
        untraced = statistics.median(plain)
        overhead = statistics.median(t for t, _ in traced) - untraced
        metrics["trace.overhead_ms"] = overhead * 1e3
        report["trace_overhead_share"] = overhead / untraced
        report["counts_repeat"] = all(c == counts_seen[0] for c in counts_seen)
    else:
        tail_s, tail_pct = tail(plain)
        report["pass_s_tail_percentile"] = tail_pct
        report["setup_ref_s"] = setups
        metrics = {
            "setup_s": statistics.median(setups),
            "points_per_s": outcome.points / statistics.median(plain),
            "pass_s.tail": tail_s,
            "peak_rss_mb": peak_kb / 1024.0,
        }
    report["loadavg"] = {"start": load_start, "end": os.getloadavg()}
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        report, result = bench(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for key, entry in result["metrics"].items():
        print(f"{key:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed/attempted':40s} {result['failed']}/{result['attempted']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
