"""The four benchmark workloads: their inputs, one pass, and its check.

Each workload has
    warmup, speed_kernel                  an untimed first pass or not; the
                                          calibrate.py kernel that scales it
    build(root, seed, scratch) -> inputs  the set-up a user pays first
    reference(root) -> reference          golden data for the check
    run(inputs, trace, probe) -> output   one timed pass (the flags matter
                                          only for a child interpreter)
    check(reference, output) -> Outcome   the correctness gate

Only the oracle's inputs depend on the seed. The sweep grids are fixed.

This module imports nothing outside the standard library at import time, so
that a child interpreter timing `import oemsim` pays for oemsim only.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from check import failed_points, meta_matches, read_csv

PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c")
ORACLE_CANDIDATES = 10   # criterion 02 samples the ten most damped points
BRUTE_TOL = 1e-9         # criterion 02: brute force vs production, x max|V|
INTEGRATION_TOL = 1e-6   # criterion 02: time integration vs production
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources or goldens)."""


def golden_dir(root: Path) -> Path:
    path = root / "tests" / "golden"
    if not (path / "fig2.csv").is_file():
        raise BenchError(f"golden outputs not found under {path}")
    return path


def import_oemsim(root: Path):
    """Import oemsim from this checkout's `src`, never from elsewhere."""
    src = (root / "src").resolve()
    if not (src / "oemsim" / "__init__.py").is_file():
        raise BenchError(f"oemsim sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import oemsim
    if src not in Path(oemsim.__file__).resolve().parents:
        raise BenchError(f"imported oemsim from {oemsim.__file__}, not {src}")
    return oemsim


@dataclass
class Outcome:
    """What one pass did and how much of it was wrong."""

    attempted: int
    failed: int
    points: int          # units of work: grid points, or oracle checks
    grid_points: int     # grid points evaluated (for the oracle: scanned)
    stable: int
    errors: int
    child: dict | None = None  # report of a child interpreter, if any


def _sweep_outcome(results, failed: int) -> Outcome:
    points = sum(len(r.records) for r in results)
    return Outcome(attempted=points, failed=failed, points=points,
                   grid_points=points, stable=sum(r.stable_count() for r in results),
                   errors=sum(r.error_count() for r in results))


def _check_sweeps(reference, results) -> int:
    """Failed points of in-process sweeps against (golden, stride, unchecked)."""
    from oemsim import sweep
    failed = 0
    for result, (g_header, g_rows, stride, unchecked) in zip(results, reference):
        header = sweep.csv_header(result.spec)
        if header != g_header:
            failed += len(result.records)
            continue
        failed += failed_points(sweep.csv_rows(result), g_rows, header,
                                result.spec.pairs, stride, unchecked)
    return failed


class Presets:
    """All seven presets, serial, in-process: the paper-reproduction traffic."""

    warmup = True
    speed_kernel = "grid"

    @staticmethod
    def build(root: Path, seed: int, scratch: Path):
        oemsim = import_oemsim(root)
        return [oemsim.sweep.preset(name) for name in PRESETS]

    @staticmethod
    def reference(root: Path):
        gold = golden_dir(root)
        return [(*read_csv(gold / f"{name}.csv"), 1, frozenset())
                for name in PRESETS]

    @staticmethod
    def run(specs, trace: bool, probe: bool):
        from oemsim import sweep
        return [sweep.run_sweep(spec, jobs=1) for spec in specs]

    @staticmethod
    def check(reference, results) -> Outcome:
        return _sweep_outcome(results, _check_sweeps(reference, results))


class DenseAtomic:
    """fig5 at 8001 points with all five pairs and no baseline."""

    warmup = True
    speed_kernel = "grid"
    count = 8001
    stride = 20  # (8001 - 1) / (401 - 1): golden-coincident rows

    @staticmethod
    def build(root: Path, seed: int, scratch: Path):
        import dataclasses
        oemsim = import_oemsim(root)
        base = oemsim.sweep.preset("fig5")
        return dataclasses.replace(base, count=DenseAtomic.count,
                                   pairs=tuple(oemsim.gaussian.BIPARTITE_PAIRS))

    @staticmethod
    def reference(root: Path):
        header, rows = read_csv(golden_dir(root) / "fig5.csv")
        # the golden fig5 run requested only the two atomic pairs
        unchecked = frozenset({"en_mr_oc", "en_mr_mc", "en_oc_mc"})
        return [(header, rows, DenseAtomic.stride, unchecked)]

    @staticmethod
    def run(spec, trace: bool, probe: bool):
        from oemsim import sweep
        return [sweep.run_sweep(spec, jobs=1)]

    @staticmethod
    def check(reference, results) -> Outcome:
        return _sweep_outcome(results, _check_sweeps(reference, results))


class CliDense:
    """A fresh interpreter runs `oemsim sweep` on fig6a at 4001 points, 2 jobs."""

    warmup = True
    speed_kernel = "grid"
    preset = "fig6a"
    count = 4001
    stride = 10  # (4001 - 1) / (401 - 1)

    @staticmethod
    def build(root: Path, seed: int, scratch: Path) -> list[str]:
        import_oemsim(root)
        return ["sweep", "--preset", CliDense.preset,
                "--grid", "-2", "2", str(CliDense.count),
                "--jobs", "2", "--out", str(scratch / "sweep.csv")]

    @staticmethod
    def reference(root: Path):
        header, rows = read_csv(golden_dir(root) / f"{CliDense.preset}.csv")
        oemsim = import_oemsim(root)
        return header, rows, oemsim.sweep.preset(CliDense.preset).pairs

    @staticmethod
    def run(argv: list[str], trace: bool, probe: bool) -> dict:
        """Run the CLI in a child interpreter; return the child's report."""
        here = Path(__file__).resolve().parent
        cmd = [sys.executable, str(here / "child.py"), "cli"]
        cmd += ["--trace"] * trace + ["--probe"] * probe + ["--"] + argv
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=here.parent)
        if proc.returncode != 0:
            raise BenchError(f"cli child failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["out"] = argv[-1]
        return report

    @staticmethod
    def check(reference, report: dict) -> Outcome:
        g_header, g_rows, pairs = reference
        out = Path(report["out"])
        header, rows = read_csv(out) if report["exit_code"] == 0 else ([], [])
        if header != g_header:
            failed = CliDense.count
        elif not meta_matches(Path(f"{out}.meta.json"), rows, header):
            failed = CliDense.count  # the sidecar misdescribes the whole run
        else:
            failed = failed_points(rows, g_rows, header, pairs, CliDense.stride)
        k = header.index("stable") if "stable" in header else 0
        return Outcome(attempted=CliDense.count, failed=failed,
                       points=CliDense.count, grid_points=len(rows),
                       stable=sum(1 for r in rows if r[k] == "true"),
                       errors=sum(1 for r in rows if r[k] == ""),
                       child=report)


@dataclass
class OraclePoint:
    preset: str
    x: float
    a: object
    d: object
    v: object        # production covariance
    v_scale: float
    cfg: object      # criterion 02's per-point IntegrationConfig


@dataclass
class OracleInputs:
    points: list[OraclePoint]
    scanned: int     # grid points scanned to find the candidates
    stable: int


class Oracle:
    """Criterion 02 on one seed-chosen stable point per preset."""

    warmup = False  # one pass takes seconds; nothing in it is lazy
    speed_kernel = "steps"

    @staticmethod
    def build(root: Path, seed: int, scratch: Path) -> OracleInputs:
        oemsim = import_oemsim(root)
        import numpy as np
        from oemsim import dynamics, model, verify
        rng = random.Random(seed)
        points, scanned, stable = [], 0, 0
        for name in PRESETS:
            spec = oemsim.sweep.preset(name)
            candidates = []
            for x in spec.grid():
                p = spec.base.replace(**{spec.varied: float(x) * spec.axis_scale})
                a = dynamics.build_drift(p, model.solve_steady_state(p))
                d = dynamics.build_diffusion(p)
                report = dynamics.is_stable(a)
                scanned += 1
                if report.stable:
                    stable += 1
                    candidates.append((report.max_real_part, float(x), a, d))
            candidates.sort(key=lambda c: c[0])  # most strongly damped first
            abscissa, x, a, d = candidates[rng.randrange(ORACLE_CANDIDATES)]
            v = dynamics.solve_lyapunov(a, d)
            v_scale = float(np.max(np.abs(v)))
            # criterion 02's integration controls: step from the spectrum,
            # tolerance and horizon from the slowest decay
            ev = np.linalg.eigvals(a)
            rho = float(np.max(np.abs(ev[:, None] + ev[None, :])))
            decay = 2.0 * abs(abscissa)
            tol = 1e-2 * decay * 1e-6 * v_scale
            sym = 0.5 * (a + a.T)
            v0dot = float(np.max(np.abs(sym + d + sym)))
            t_need = math.log(max(v0dot, 10.0 * tol) / tol) / decay
            cfg = verify.IntegrationConfig(dt=2.5 / rho, t_max=2.5 * t_need,
                                           tol=tol)
            points.append(OraclePoint(name, x, a, d, v, v_scale, cfg))
        return OracleInputs(points, scanned, stable)

    @staticmethod
    def reference(root: Path):
        return None

    @staticmethod
    def run(inputs: OracleInputs, trace: bool, probe: bool):
        from oemsim import verify
        from oemsim.errors import SimulationError
        out = []
        for pt in inputs.points:
            try:
                out.append((verify.lyapunov_bruteforce(pt.a, pt.d),
                            verify.integrate_covariance(pt.a, pt.d, pt.cfg)))
            except SimulationError as exc:
                out.append(exc)
        return inputs, out

    @staticmethod
    def check(reference, output) -> Outcome:
        import numpy as np
        inputs, results = output
        failed = 0
        for pt, res in zip(inputs.points, results):
            if isinstance(res, Exception):
                failed += 1
                continue
            brute, integrated = res
            if (np.max(np.abs(brute - pt.v)) > BRUTE_TOL * pt.v_scale
                    or np.max(np.abs(integrated - pt.v))
                    > INTEGRATION_TOL * pt.v_scale):
                failed += 1
        return Outcome(attempted=len(inputs.points), failed=failed,
                       points=len(inputs.points), grid_points=inputs.scanned,
                       stable=inputs.stable, errors=0)


WORKLOADS = {
    "presets": Presets,
    "dense_atomic": DenseAtomic,
    "cli_dense": CliDense,
    "oracle": Oracle,
}
