"""End-to-end acceptance checks, one test per shipped numerical guarantee.

The conftest hook prints one PASS/FAIL line per criterion after the run.
Criterion 2 integrates the covariance flow at the stiffest presets; the
squared time-domain iteration keeps it, and the whole module, to seconds.
"""

import dataclasses
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _support import base_params, oracle_config
from oemsim import (
    StabilityError,
    build_diffusion,
    build_drift,
    evaluate_point,
    is_stable,
    log_negativity,
    preset,
    run_sweep,
    solve_lyapunov,
    solve_steady_state,
)
from oemsim.cli import main
from oemsim.verify import (
    atom_free_point,
    bosonic_block_determinants,
    integrate_covariance,
    lyapunov_bruteforce,
    make_tmsv,
    symmetry_defect,
)

PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c")
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def scans():
    """Per preset: drift, diffusion, stability, covariance at every grid point."""
    out = {}
    for name in PRESETS:
        spec = preset(name)
        points = []
        for x in spec.grid():
            p = spec.base.replace(**{spec.varied: float(x) * spec.axis_scale})
            ss = solve_steady_state(p)
            a = build_drift(p, ss)
            d = build_diffusion(p)
            report = is_stable(a)
            v = solve_lyapunov(a, d) if report.stable else None
            points.append(SimpleNamespace(
                x=float(x), a=a, d=d, stable=report.stable,
                abscissa=report.max_real_part, v=v))
        out[name] = points
    return out


def test_criterion_01_lyapunov_residuals_and_sweep_runtime(scans):
    for name in PRESETS:
        stable_points = [pt for pt in scans[name] if pt.stable]
        assert stable_points, f"{name}: no stable grid point"
        for pt in stable_points:
            residual = np.max(np.abs(pt.a @ pt.v + pt.v @ pt.a.T + pt.d))
            bound = 1e-10 * max(
                np.max(np.abs(pt.a)) * np.max(np.abs(pt.v)),
                np.max(np.abs(pt.d)))
            assert residual <= bound, f"{name} x={pt.x}: residual {residual:.3e}"
    for name in PRESETS:
        start = time.perf_counter()
        run_sweep(preset(name))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{name}: 401-point sweep took {elapsed:.2f}s"


def test_criterion_02_oracle_triangulation(scans):
    for name in PRESETS:
        stable_points = sorted((pt for pt in scans[name] if pt.stable),
                               key=lambda pt: pt.abscissa)
        sampled = stable_points[:10]  # the most strongly damped points
        assert len(sampled) == 10
        for pt in sampled:
            v_scale = float(np.max(np.abs(pt.v)))
            v_brute = lyapunov_bruteforce(pt.a, pt.d)
            assert np.max(np.abs(v_brute - pt.v)) <= 1e-9 * v_scale, \
                f"{name} x={pt.x}: brute-force disagreement"
            v_int = integrate_covariance(
                pt.a, pt.d, oracle_config(pt.a, pt.d, v_scale))
            assert np.max(np.abs(v_int - pt.v)) <= 1e-6 * v_scale, \
                f"{name} x={pt.x}: integration disagreement"


def test_time_domain_oracle_on_every_stable_point(scans):
    # criterion 02's integration route, beyond its ten sampled points
    for name in PRESETS:
        for pt in scans[name]:
            if not pt.stable:
                continue
            v_scale = float(np.max(np.abs(pt.v)))
            v_int = integrate_covariance(
                pt.a, pt.d, oracle_config(pt.a, pt.d, v_scale))
            assert np.max(np.abs(v_int - pt.v)) <= 1e-6 * v_scale, \
                f"{name} x={pt.x}: integration disagreement"


def test_criterion_03_analytic_log_negativity():
    assert log_negativity(0.5 * np.eye(4)).e_n == 0.0
    for r in (0.5, 1.0, 2.0):
        assert abs(log_negativity(make_tmsv(r)).e_n - 2.0 * r) <= 1e-9
    for n1, n2 in ((0.0, 0.0), (1.0, 1.0), (0.5, 4.0), (30.0, 30.0)):
        thermal = np.diag([n1 + 0.5, n1 + 0.5, n2 + 0.5, n2 + 0.5])
        assert log_negativity(thermal).e_n == 0.0


def test_criterion_04_atoms_enhance_peak_entanglement():
    result = run_sweep(preset("fig2"))
    with_atoms = max(r.e_n["mr_oc"] for r in result.records if r.stable)
    atom_free = max(r.baseline_e_n["mr_oc"] for r in result.records
                    if r.baseline_e_n)
    assert with_atoms - atom_free >= 1e-6, \
        f"peak {with_atoms:.6f} vs baseline {atom_free:.6f}"


def test_criterion_05_entanglement_grows_with_atomic_coupling():
    spec = preset("fig5")
    couplings = [2.0 * math.pi * f * 1e5 for f in (0.5, 1.0, 1.5)]
    peaks = []
    for g in couplings:
        result = run_sweep(dataclasses.replace(spec, base=spec.base.replace(g=g)))
        peaks.append(max(r.e_n["oc_sba"] for r in result.records if r.stable))
    assert peaks[0] <= peaks[1] <= peaks[2], f"peaks not monotone: {peaks}"
    golden = json.loads((GOLDEN_DIR / "fig5_peaks.json").read_text())
    assert golden["couplings_rad_s"] == couplings
    for have, want in zip(peaks, golden["peak_en_oc_sba"]):
        assert abs(have - want) <= 1e-9 + 1e-6 * abs(want), \
            f"peak {have!r} drifted from archived {want!r}"


def test_criterion_06_entanglement_decreases_with_temperature():
    values = {}
    for name in ("fig6a", "fig6b", "fig6c"):
        spec = preset(name)
        p = spec.base.replace(delta_c=1.0 * spec.base.omega_m)
        rec = evaluate_point(p, spec.pairs)
        assert rec.stable is True
        values[name] = rec.e_n
    assert values["fig6a"]["mr_oc"] > 0.0
    for pair in ("mr_oc", "mr_mc", "oc_mc"):
        cold, warm, hot = (values[n][pair] for n in ("fig6a", "fig6b", "fig6c"))
        assert cold >= warm >= hot, f"{pair}: {cold} < {warm} or {warm} < {hot}"


def test_criterion_07_instability_never_yields_entanglement(tmp_path, capsys):
    params = preset("fig3").base
    ss = solve_steady_state(params)
    a = build_drift(params, ss) + 0.05 * np.eye(10)  # push the spectrum across zero
    d = build_diffusion(params)
    assert not is_stable(a).stable
    with pytest.raises(StabilityError):
        solve_lyapunov(a, d)
    with pytest.raises(StabilityError):
        lyapunov_bruteforce(a, d)
    with pytest.raises(StabilityError):
        integrate_covariance(a, d)
    rec = evaluate_point(base_params(delta_c=-base_params().omega_m), ("mr_oc",))
    assert rec.stable is False
    assert rec.e_n == {}
    out = tmp_path / "unstable.csv"
    code = main(["sweep", "--preset", "fig2", "--out", str(out),
                 "--grid", "-2.0", "-0.5", "9"])
    capsys.readouterr()
    assert code == 2
    rows = out.read_text().splitlines()[1:]
    assert rows
    for row in rows:
        cells = row.split(",")
        assert cells[2] == "false"
        assert cells[4:] == [""] * len(cells[4:])  # no entanglement columns filled


def test_criterion_08_stable_states_are_physical(scans):
    for name in PRESETS:
        for pt in scans[name]:
            if not pt.stable:
                continue
            assert symmetry_defect(pt.v) <= 1e-12
            dets = bosonic_block_determinants(pt.v)
            assert np.all(dets >= 0.25 - 1e-9), \
                f"{name} x={pt.x}: bosonic block determinant {dets.min():.9f}"


def test_criterion_09_atom_free_limit_matches_reduced_pipeline():
    pairs = ("mr_oc", "mr_mc", "oc_mc")
    base = base_params(g=0.0, r_a=0.0)
    for x in np.linspace(-2.0, 2.0, 21):
        params = base.replace(delta_c=float(x) * base.omega_m)
        rec = evaluate_point(params, pairs, baseline=True)
        reduced = atom_free_point(params, pairs)
        assert (rec.e_n != {}) == (reduced != {}), f"stability split at x={x}"
        for tag in pairs:
            if rec.e_n:
                assert abs(rec.e_n[tag] - reduced[tag]) <= 1e-10, \
                    f"x={x} {tag}: {rec.e_n[tag]!r} vs {reduced[tag]!r}"


def test_criterion_10_sweep_outputs_are_deterministic(tmp_path):
    def run(tag, jobs):
        out = tmp_path / f"{tag}.csv"
        cmd = [sys.executable, "-c", "from oemsim.cli import entry; entry()",
               "sweep", "--preset", "fig3", "--out", str(out), "--jobs", str(jobs)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes(), (tmp_path / f"{tag}.csv.meta.json").read_bytes()

    first = run("a", 1)
    second = run("b", 4)
    third = run("c", 4)
    assert first == second == third
    assert b"x_value" in first[0]
