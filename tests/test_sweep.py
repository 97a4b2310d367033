"""Sweep machinery: grids, presets, point pipeline, baselines, CSV schema."""

import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
import zlib
from collections import Counter
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from _support import OMEGA_M, TWO_PI, atom_free_problem, base_params
from oemsim import (
    BIPARTITE_PAIRS,
    ParameterError,
    PRESET_NAMES,
    PointRecord,
    SweepResult,
    SweepSpec,
    build_diffusion,
    build_drift,
    evaluate_point,
    extract_bipartite,
    log_negativity,
    preset,
    run_sweep,
    solve_lyapunov,
    solve_steady_state,
    write_csv,
)
from oemsim import dynamics, gaussian, model, sweep, verify
from oemsim.constants import C_LIGHT
from oemsim.errors import SimulationError, UnphysicalCovarianceError
from oemsim.model import _coherence_coefficients
from oemsim.sweep import (AXIS_KAPPA_C, AXIS_OMEGA_M, BLOCK_POINTS, csv_header,
                          csv_rows)


def record_csv(result):
    """The sweep CSV formatted record by record, as write_csv once did."""
    spec = result.spec
    base_tags = [t for t in ("mr_oc", "mr_mc", "oc_mc") if t in spec.pairs]

    def fmt(value):
        return "" if value is None else format(value, ".17g")

    lines = [",".join(csv_header(spec))]
    for rec in result.records:
        row = [fmt(rec.x), spec.axis]
        if rec.error is not None:
            row += ["", ""]
        else:
            row += ["true" if rec.stable else "false", fmt(rec.max_real_part)]
        row += [fmt(rec.e_n.get(t))
                for t in ("mr_oc", "mr_mc", "oc_mc", "oc_sba", "oc_scb")]
        if spec.baseline:
            row += [fmt(rec.baseline_e_n.get(t)) for t in base_tags]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def narrowed(spec, start, stop, count, **extra):
    kw = {f: getattr(spec, f) for f in (
        "name", "base", "varied", "axis", "axis_scale", "pairs", "baseline", "notes")}
    kw.update(start=start, stop=stop, count=count)
    kw.update(extra)
    return SweepSpec(**kw)


FIELD_NAMES = tuple(f.name for f in dataclasses.fields(model.SystemParameters))


def field_grid(name):
    """(start, stop, axis_scale) of a grid over a field's validated domain
    around fig6a's base."""
    if name == "temperature":
        return 0.0, 0.35, 1.0
    if name in ("rho_aa0", "rho_cc0"):  # rho_ca0 = 0.5 needs them >= 0.5
        return 0.5, 1.0, 1.0
    if name == "rho_ca0":
        return -0.5, 0.5, 1.0
    value = getattr(preset("fig6a").base, name)
    if name in ("power_c", "power_w", "g", "r_a"):
        return 0.0, 2.0, value
    if name.startswith("delta_"):
        return -2.0, 2.0, abs(value)
    return 0.5, 2.0, value


def corrupt_pair(v, tag, scale):
    """Overwrite a pair's cross block of covariance v so that the pair's
    state is unphysical; returns the error message that state gives."""
    pair = BIPARTITE_PAIRS[tag]
    cross = (slice(pair.first, pair.first + 2), slice(pair.second, pair.second + 2))
    v[cross] = scale * np.eye(2)
    v.T[cross] = scale * np.eye(2)
    with pytest.raises(UnphysicalCovarianceError) as err:
        log_negativity(extract_bipartite(v, pair))
    return str(err.value)


class TestPresets:
    def test_names_complete(self):
        assert PRESET_NAMES == ("fig2", "fig3", "fig4", "fig5",
                                "fig6a", "fig6b", "fig6c")
        for name in PRESET_NAMES:
            assert preset(name).name == name

    def test_lookup_is_case_insensitive(self):
        assert preset("FIG2").base == preset("fig2").base

    def test_unknown_preset(self):
        with pytest.raises(ParameterError, match="unknown preset"):
            preset("fig9")

    def test_fig2_operating_point(self):
        spec = preset("fig2")
        assert spec.base == base_params()
        assert (spec.start, spec.stop, spec.count) == (-2.0, 2.0, 401)
        assert spec.axis == AXIS_OMEGA_M
        assert spec.axis_scale == OMEGA_M
        assert spec.pairs == ("mr_oc",)
        assert spec.baseline
        assert spec.varied == "delta_c"

    def test_fig3_operating_point(self):
        spec = preset("fig3")
        assert spec.base == base_params(
            gamma_m=OMEGA_M / 5e4,
            kappa_c=0.08 * OMEGA_M,
            g=TWO_PI * 1e5,
            r_a=2000.0,
            delta_a1=TWO_PI * 1e7,
            delta_a2=TWO_PI * 1e7,
        )
        assert spec.pairs == ("mr_mc",)
        assert spec.baseline

    def test_fig4_operating_point(self):
        spec = preset("fig4")
        assert spec.base == base_params(
            kappa_c=0.08 * OMEGA_M,
            g=TWO_PI * 1.5e6,
            r_a=1.6e6,
            delta_a2=TWO_PI * 1e6,
        )
        assert spec.pairs == ("oc_mc",)

    def test_fig5_operating_point(self):
        spec = preset("fig5")
        assert spec.base == base_params(
            kappa_c=0.02 * OMEGA_M,
            g=TWO_PI * 1e5,
            r_a=1.6e6,
            delta_a1=TWO_PI * 1e6,
            delta_a2=TWO_PI * 1e6,
            delta_c=50.0 * 0.02 * OMEGA_M,
        )
        assert (spec.start, spec.stop, spec.count) == (0.0, 100.0, 401)
        assert spec.axis == AXIS_KAPPA_C
        assert spec.axis_scale == 0.02 * OMEGA_M
        assert spec.pairs == ("oc_sba", "oc_scb")
        assert not spec.baseline

    @pytest.mark.parametrize("name,temp", [
        ("fig6a", 5e-3), ("fig6b", 250e-3), ("fig6c", 350e-3),
    ])
    def test_fig6_operating_points(self, name, temp):
        spec = preset(name)
        assert spec.base == base_params(
            temperature=temp,
            r_a=1.6e6,
            g=TWO_PI * 1e5,
            kappa_a=TWO_PI * 1e6,
            kappa_c=math.pi * C_LIGHT / (4.07e4 * 1e-3),
            delta_a1=TWO_PI * 1e10,
            delta_a2=TWO_PI * 1e6,
            delta_w=-OMEGA_M,
        )
        assert spec.pairs == ("mr_oc", "mr_mc", "oc_mc")
        assert spec.baseline


class TestSweepSpecValidation:
    def test_grid_shape(self):
        spec = preset("fig2")
        grid = spec.grid()
        assert grid.shape == (401,)
        assert grid[0] == -2.0 and grid[-1] == 2.0

    def test_rejects_degenerate_grids(self):
        spec = preset("fig2")
        with pytest.raises(ParameterError):
            narrowed(spec, 0.0, 1.0, 1)
        with pytest.raises(ParameterError):
            narrowed(spec, 1.0, 1.0, 5)
        with pytest.raises(ParameterError):
            narrowed(spec, 0.0, math.inf, 5)
        with pytest.raises(ParameterError, match="axis_scale"):
            narrowed(spec, -1.0, 1.0, 3, axis_scale=math.inf)

    def test_rejects_unknown_swept_field(self):
        spec = preset("fig2")
        kw = {f: getattr(spec, f) for f in (
            "name", "base", "start", "stop", "count",
            "axis", "axis_scale", "pairs", "baseline", "notes")}
        with pytest.raises(ParameterError, match="unknown swept parameter"):
            SweepSpec(varied="detuning", **kw)

    @pytest.mark.parametrize("count", [5.0, 5.5, True, "5", None])
    def test_rejects_a_count_that_is_not_an_integer(self, count):
        with pytest.raises(ParameterError, match="count must be an integer"):
            narrowed(preset("fig2"), -1.0, 1.0, count)
        # numpy's integers are integers
        assert len(run_sweep(narrowed(preset("fig2"), -1.0, 1.0, np.int64(5))).x) == 5

    @pytest.mark.parametrize("value", ["a", None, True])
    @pytest.mark.parametrize("name", ["start", "stop", "axis_scale"])
    def test_rejects_a_bound_that_is_not_a_real_number(self, name, value):
        bounds = {"start": -1.0, "stop": 2.0}
        bounds[name] = value
        with pytest.raises(ParameterError, match=f"{name} must be a real number"):
            narrowed(preset("fig2"), count=5, **bounds)
        # numpy's floats are real numbers
        bounds[name] = np.float64(0.5)
        assert len(run_sweep(narrowed(preset("fig2"), count=5, **bounds)).x) == 5

    def test_pairs_normalized_and_deduplicated(self):
        spec = narrowed(preset("fig2"), -1.0, 1.0, 3, pairs=("MR-OC", "oc_mc"))
        assert spec.pairs == ("mr_oc", "oc_mc")
        # one rule for a sweep and a point: a bare string is not a list of tags
        for pairs, match in [(("mr_oc", "MR-OC"), "duplicate mode pairs"),
                             ("mr_mc", "sequence of tags, got 'mr_mc'"),
                             (None, "sequence of tags, got None"),
                             (("mr_oc", "mr_zz"), "unknown mode pair 'mr_zz'"),
                             ((1,), "tags must be strings, got 1"),
                             (("mr_oc", 3), "tags must be strings, got 3"),
                             (5, "sequence of tags, got 5"),
                             ([b"mr_oc"], "tags must be strings, got b'mr_oc'")]:
            with pytest.raises(ParameterError, match=match):
                narrowed(preset("fig2"), -1.0, 1.0, 3, pairs=pairs)
            with pytest.raises(ParameterError, match=match):
                evaluate_point(preset("fig2").base, pairs)


class TestEvaluatePoint:
    def test_stable_point_reports_requested_pairs(self):
        rec = evaluate_point(preset("fig3").base, ("mr_mc", "oc_mc"))
        assert rec.stable is True
        assert rec.error is None
        assert set(rec.e_n) == {"mr_mc", "oc_mc"}
        assert rec.max_real_part < 0.0  # 1/s, physical units

    def test_repeated_evaluations_compare_equal(self):
        params = preset("fig3").base
        rec = evaluate_point(params, ("mr_mc", "oc_mc"), baseline=True)
        assert rec.x == params.delta_c / params.omega_m  # the default axis
        assert evaluate_point(params, ("mr_mc", "oc_mc"), baseline=True) == rec

    def test_unstable_point_carries_no_entanglement(self):
        rec = evaluate_point(base_params(delta_c=-OMEGA_M), ("mr_oc",))
        assert rec.stable is False
        assert rec.e_n == {}
        assert rec.baseline_e_n == {}
        assert rec.max_real_part > 0.0

    def test_solver_failure_becomes_error_record(self):
        seed = base_params(rho_aa0=1.0, rho_cc0=0.0, rho_ca0=0.0,
                           delta_c=0.0, kappa_c=1.0)
        pole = 1j * seed.g * (sum(_coherence_coefficients(seed)))
        broken = seed.replace(kappa_c=-pole.real, delta_c=-pole.imag)
        rec = evaluate_point(broken, ("mr_oc",))
        assert rec.error is not None and "pole" in rec.error
        assert rec.stable is None
        assert rec.e_n == {}

    def test_baseline_reports_only_bosonic_pairs(self):
        rec = evaluate_point(preset("fig3").base, ("mr_mc", "oc_sba"),
                             baseline=True)
        assert set(rec.baseline_e_n) == {"mr_mc"}

    def test_baseline_ignores_atomic_parameters(self):
        pairs = ("mr_oc", "mr_mc", "oc_mc")
        atomic = dict(g=TWO_PI * 3e5, r_a=7e5, kappa_a=TWO_PI * 3e5,
                      rho_aa0=0.9, rho_cc0=0.1, rho_ca0=0.2,
                      delta_a1=TWO_PI * 3e6, delta_a2=TWO_PI * 4e6)
        rec1 = evaluate_point(base_params(), pairs, baseline=True)
        rec2 = evaluate_point(base_params(**atomic), pairs, baseline=True)
        # at a near-zero kappa_a an as-built atomic corner would be marginal
        rec3 = evaluate_point(base_params(**{**atomic, "kappa_a": 1e-5}), pairs,
                              baseline=True)
        assert rec1.baseline_e_n
        assert rec1.baseline_e_n == rec2.baseline_e_n == rec3.baseline_e_n
        assert rec1.e_n != rec2.e_n


class TestAtomFreeProblem:
    """The atom-free problem carries vacuum placeholders in its atomic corner,
    so no atomic field decides an atom-free result."""

    @staticmethod
    def fig6a_point(kappa_a):
        base = preset("fig6a").base  # at x = 1
        return base.replace(delta_c=base.omega_m, kappa_a=kappa_a)

    def test_slow_atomic_decay_keeps_the_baseline(self):
        spec = preset("fig6a")
        params = self.fig6a_point(1e-5)
        rec = evaluate_point(params, spec.pairs, baseline=True)
        reduced = verify.atom_free_point(params, spec.baseline_pairs)
        assert reduced["mr_oc"] > 0.3
        assert rec.baseline_e_n.keys() == reduced.keys()
        for tag, value in reduced.items():
            assert abs(rec.baseline_e_n[tag] - value) <= 1e-9

    # at 1e-5 K the mechanical and microwave quanta are hbar omega / kT = 48
    @pytest.mark.parametrize("temperature", [0.0, 1e-5])
    def test_cold_baseline_matches_the_oracle(self, temperature):
        spec = preset("fig6a")
        params = spec.base.replace(temperature=temperature)  # at x = 1
        rec = evaluate_point(params, spec.pairs, baseline=True)
        reduced = verify.atom_free_point(params, spec.baseline_pairs)
        # a bath this cold entangles the microwave mode, which at 5 mK it does not
        assert min(reduced.values()) > 3e-5
        assert rec.baseline_e_n.keys() == reduced.keys()
        for tag, value in reduced.items():
            assert abs(rec.baseline_e_n[tag] - value) <= 1e-9

    def test_atomic_decay_does_not_warn_through_the_baseline(self):
        spec = preset("fig6a")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = evaluate_point(self.fig6a_point(0.01), spec.pairs, baseline=True)
        assert rec.baseline_e_n

    def test_block_stack_carries_the_vacuum_corner(self, monkeypatch):
        stacks = []
        real = dynamics.solve_lyapunov_batch
        monkeypatch.setattr(dynamics, "solve_lyapunov_batch",
                            lambda a, d, *basis: stacks.append((a.copy(), d.copy()))
                            or real(a, d, *basis))
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 9)
        run_sweep(spec)
        ((a, d),) = stacks
        m = spec.count  # one block: problem k is point k, m + k its baseline
        base = spec.base
        assert np.all(a[:m, 6, 7] == base.delta_a1 / base.omega_m)
        assert (a[m:, 6:, 6:] == -np.eye(4)).all() and (d[m:, 6:, 6:] == np.eye(4)).all()
        assert not a[m:, 6:, :6].any() and not a[m:, :6, 6:].any()
        assert not d[m:, 6:, :6].any() and not d[m:, :6, 6:].any()
        # the largest atom-free drift entry is a bosonic one, not delta_a1/omega_m
        assert np.array_equal(np.abs(a[m:]).max(axis=(1, 2)),
                              np.abs(a[m:, :6, :6]).max(axis=(1, 2)))
        assert np.abs(a[m:]).max() < 1e-2 * base.delta_a1 / base.omega_m
        for k, x in enumerate(spec.grid().tolist()):
            point = base.replace(delta_c=x * spec.axis_scale)
            problem = atom_free_problem(point)
            assert np.array_equal(a[m + k], problem[0])
            assert np.array_equal(d[m + k], problem[1])


class TestRunSweep:
    def test_axis_units_map_to_detuning(self):
        spec = narrowed(preset("fig5"), 50.0, 51.0, 2)
        res = run_sweep(spec)
        assert res.records[0].x == 50.0
        direct = evaluate_point(
            spec.base.replace(delta_c=50.0 * spec.axis_scale), spec.pairs)
        assert res.records[0].e_n == direct.e_n

    def test_parallel_equals_serial(self):
        spec = narrowed(preset("fig3"), -0.5, 1.5, 21)
        serial = run_sweep(spec, jobs=1)
        threaded = run_sweep(spec, jobs=4)
        assert serial.records == threaded.records

    def test_jobs_validated(self):
        with pytest.raises(ParameterError):
            run_sweep(preset("fig3"), jobs=0)

    def test_rejects_jobs_that_are_not_integers(self, monkeypatch):
        # 1.5 would start a pool of ThreadPoolExecutor(1.5), two threads
        monkeypatch.setattr(futures, "ThreadPoolExecutor", None)
        spec = narrowed(preset("fig3"), -0.5, 1.5, 3 * BLOCK_POINTS)
        for jobs in (1.5, 2.0, "2", None, True, False):
            with pytest.raises(ParameterError, match="jobs must be an integer"):
                run_sweep(spec, jobs=jobs)
        monkeypatch.undo()
        serial = run_sweep(spec, jobs=1)
        assert run_sweep(spec, jobs=np.int64(2)).records == serial.records

    def test_counts(self):
        spec = narrowed(preset("fig2"), -2.0, 2.0, 41)
        res = run_sweep(spec)
        assert len(res.records) == 41
        assert 0 < res.stable_count() < 41
        assert res.error_count() == 0

    @pytest.mark.parametrize("varied,start,stop,scale,message", [
        ("kappa_c", 0.2, 0.0, OMEGA_M, "kappa_c must be strictly positive"),
        ("temperature", -1e-3, 0.05, 1.0, "temperature must be nonnegative"),
        ("rho_ca0", 0.0, 0.6, 1.0, "rho_ca0 violates the coherence bound"),
    ])
    def test_grid_through_an_invalid_value_is_rejected(self, varied, start, stop,
                                                       scale, message):
        spec = narrowed(preset("fig3"), start, stop, 7, varied=varied, axis_scale=scale)
        with pytest.raises(ParameterError, match=message):
            run_sweep(spec)

    def test_temperature_grid_may_start_at_zero(self):
        spec = narrowed(preset("fig3"), 0.0, 0.05, 5, varied="temperature",
                        axis_scale=1.0)
        assert run_sweep(spec).records[0].x == 0.0

    @pytest.mark.parametrize("varied,start,stop,scale", [
        ("r_a", 0.0, 4.0, 1e6),            # atom injection rate, 1/s
        ("g", 0.0, 1.0, TWO_PI * 1e6),     # atom-cavity coupling
        # from 0 K: x = hbar omega / kT exceeds 40 on the first points, then drops
        # to about 2.4 at 0.2 mK
        ("temperature", 0.0, 2e-4, 1.0),
        ("omega_m", 0.6, 1.6, OMEGA_M),    # enters the scaling and max_real_part
    ] + [(name, *field_grid(name)) for name in FIELD_NAMES
         if name not in ("r_a", "g", "temperature", "omega_m")])
    def test_sweep_along_field_equals_single_points(self, varied, start, stop, scale):
        # which entries a field reaches decides which drift and diffusion
        # entries the sweep's model stage holds per point and which once
        spec = narrowed(preset("fig6a"), start, stop, 71, varied=varied,
                        axis_scale=scale, pairs=tuple(BIPARTITE_PAIRS))
        assert spec.baseline
        result = run_sweep(spec)
        assert result.stable_count() > 0
        for rec in result.records:
            single = evaluate_point(spec.base.replace(**{varied: rec.x * scale}),
                                    spec.pairs, baseline=spec.baseline)
            single = dataclasses.replace(single, x=rec.x)
            assert single == rec
            assert repr(single) == repr(rec)  # float reprs tell -0.0 from 0.0


class TestBlockEngine:
    @staticmethod
    def mixed_spec():
        """fig3 physics retuned so that the grid point x = 1 is a pole.

        With the atoms all in the top level the optical response has a pole at
        kappa_c = -Re(p), delta_c = -Im(p); choosing that delta_c as the axis
        unit puts it on the grid, next to unstable points, stable points and
        the defective x = 0 point whose atom-free problem needs the fallback.
        """
        seed = preset("fig3").base.replace(
            rho_aa0=1.0, rho_cc0=0.0, rho_ca0=0.0, g=TWO_PI * 1.5e6, r_a=3.5e6,
            delta_a1=-12.5 * TWO_PI * 1e5, kappa_c=1.0, delta_c=0.0)
        pole = 1j * seed.g * sum(_coherence_coefficients(seed))
        return narrowed(preset("fig3"), -3.0, 3.0, 91,
                        base=seed.replace(kappa_c=-pole.real),
                        axis_scale=-pole.imag, pairs=("mr_oc", "mr_mc", "oc_sba"))

    def test_sweep_records_equal_single_point_records(self, monkeypatch):
        calls = []
        real = dynamics._kronecker_lyapunov
        monkeypatch.setattr(dynamics, "_kronecker_lyapunov",
                            lambda a, d: calls.append(1) or real(a, d))
        spec = self.mixed_spec()
        result = run_sweep(spec)
        assert len(result.records) % BLOCK_POINTS != 0
        fell_back = []
        for rec in result.records:
            calls.clear()
            single = evaluate_point(
                spec.base.replace(delta_c=rec.x * spec.axis_scale),
                spec.pairs, baseline=spec.baseline)
            if calls:
                fell_back.append(rec.x)
            assert dataclasses.replace(single, x=rec.x) == rec
        by_x = {rec.x: rec for rec in result.records}
        assert "pole" in by_x[1.0].error
        assert 0.0 in fell_back and by_x[0.0].baseline_e_n
        assert {rec.stable for rec in result.records} == {True, False, None}

    def test_failed_fallback_becomes_error_record(self, monkeypatch):
        monkeypatch.setattr(dynamics, "RESIDUAL_TOL", 0.0)
        result = run_sweep(narrowed(preset("fig3"), -0.5, 0.5, 3))
        unstable, failed, _ = result.records
        assert unstable.stable is False and unstable.error is None
        assert failed.stable is None and failed.max_real_part is None
        # both of x = 0's problems fail; the main problem's error is reported
        main = preset("fig3").base.replace(delta_c=0.0)
        errors = []
        for a, d in ((build_drift(main, solve_steady_state(main)), build_diffusion(main)),
                     atom_free_problem(main)):
            with pytest.raises(SimulationError, match="Lyapunov residual") as err:
                solve_lyapunov(a, d)
            errors.append(str(err.value))
        assert failed.error == errors[0] != errors[1]

    def test_one_log_negativity_call_per_block(self, monkeypatch):
        stacks = []
        real = gaussian.log_negativities
        monkeypatch.setattr(gaussian, "log_negativities",
                            lambda cm: stacks.append(len(cm)) or real(cm))
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 150)  # blocks of 64, 64, 22
        result = run_sweep(spec)
        assert len(stacks) == 3
        assert sum(stacks) == (np.count_nonzero(~np.isnan(result.e_n))
                               + np.count_nonzero(~np.isnan(result.baseline_e_n)))
        # each value equals a single call on that point's own covariance
        for i, x in enumerate(result.x.tolist()):
            point = spec.base.replace(delta_c=x * spec.axis_scale)
            for (a, d), values, tags in (
                    ((build_drift(point, solve_steady_state(point)),
                      build_diffusion(point)), result.e_n[i], spec.pairs),
                    (atom_free_problem(point), result.baseline_e_n[i],
                     spec.baseline_pairs)):
                if np.isnan(values).all():
                    continue
                v = solve_lyapunov(a, d)
                for tag, value in zip(tags, values.tolist()):
                    pair = BIPARTITE_PAIRS[tag]
                    assert log_negativity(extract_bipartite(v, pair)).e_n == value

    def test_unphysical_pair_fails_only_its_point(self, monkeypatch):
        spec = narrowed(preset("fig6a"), 0.5, 1.5, 9,
                        pairs=("oc_mc", "mr_oc", "mr_mc"))
        clean = run_sweep(spec).records
        m = spec.count  # one block: problem k is point k, m + k its baseline
        # corrupted (problem, pair) cross blocks and failed solves, and whose
        # error each point reports: its main problem's error, else its
        # baseline's, where a problem's error is its solve error, else its
        # first pair error in the requested order
        scales = {(3, "mr_oc"): 1e3,
                  (4, "mr_mc"): 1e3, (m + 4, "oc_mc"): 2e3,
                  (5, "mr_mc"): 1e3, (5, "mr_oc"): 2e3,
                  (m + 6, "mr_oc"): 1e3, (m + 6, "oc_mc"): 2e3,
                  (m + 7, "mr_oc"): 3e3,
                  (8, "mr_mc"): 3e3}
        messages = {7: "main solve failed", m + 8: "baseline solve failed"}
        reported = {3: (3, "mr_oc"), 4: (4, "mr_mc"), 5: (5, "mr_oc"),
                    6: (m + 6, "oc_mc"), 7: 7, 8: (8, "mr_mc")}
        assert all(clean[i].e_n and clean[i].baseline_e_n for i in reported)
        real = dynamics.solve_lyapunov_batch

        def corrupted(a, d, *basis):
            sol = real(a, d, *basis)
            for (k, tag), scale in scales.items():
                messages[k, tag] = corrupt_pair(sol.v[k], tag, scale)
            sol.errors.update({k: SimulationError(messages[k]) for k in (7, m + 8)})
            return sol

        monkeypatch.setattr(dynamics, "solve_lyapunov_batch", corrupted)
        result = run_sweep(spec)
        expected = list(clean)
        for i, key in reported.items():
            expected[i] = PointRecord(x=clean[i].x, stable=None,
                                      max_real_part=None, error=messages[key])
        assert result.records == tuple(expected)
        assert len(set(messages.values())) == len(messages)  # order is visible
        failed = sorted(reported)
        assert list(result.failures) == failed
        assert not result.stable[failed].any()
        assert result.stable_count() == sum(r.stable is True for r in expected)
        assert np.isnan(result.max_real_part[failed]).all()
        assert np.isnan(result.e_n[failed]).all()
        assert np.isnan(result.baseline_e_n[failed]).all()

    def test_atomic_pairs_pose_no_baseline_problems(self, monkeypatch, tmp_path):
        sizes = []
        real = dynamics.solve_lyapunov_batch
        monkeypatch.setattr(dynamics, "solve_lyapunov_batch",
                            lambda a, d, *basis: sizes.append(len(a))
                            or real(a, d, *basis))
        spec = preset("fig5")  # oc_sba and oc_scb have no atom-free value
        csv = []
        for baseline in (False, True):
            sizes.clear()
            result = run_sweep(dataclasses.replace(spec, baseline=baseline))
            blocks = [len(result.x[lo:lo + BLOCK_POINTS])
                      for lo in range(0, spec.count, BLOCK_POINTS)]
            assert sizes == blocks and sum(sizes) == spec.count
            write_csv(result, tmp_path / f"{baseline}.csv")
            csv.append((tmp_path / f"{baseline}.csv").read_bytes())
        assert csv[0] == csv[1]
        sizes.clear()
        assert evaluate_point(spec.base, spec.pairs, baseline=True).stable
        assert sizes == [1]

    def test_reported_error_does_not_depend_on_map_order(self, monkeypatch):
        spec = narrowed(preset("fig6a"), 0.5, 1.5, 9,
                        pairs=("oc_mc", "mr_oc", "mr_mc"))
        m = spec.count  # one block: problem k is point k, m + k its baseline
        # point 2: both solves fail; 3: two main pairs; 5: a main and a
        # baseline pair. Each map is handed over in the reverse of its
        # order, the baseline's errors before the main problem's.
        scales = {(m + 5, "oc_mc"): 3e3, (5, "mr_mc"): 2e3,
                  (3, "mr_mc"): 2e3, (3, "oc_mc"): 1e3}
        messages = {}
        real_batch = dynamics.solve_lyapunov_batch
        real_negativities = gaussian.log_negativities

        def batch(a, d, *basis):
            sol = real_batch(a, d, *basis)
            for (k, tag), scale in scales.items():
                messages[k, tag] = corrupt_pair(sol.v[k], tag, scale)
            sol.errors.update({m + 2: SimulationError("baseline solve failed"),
                               2: SimulationError("main solve failed")})
            return sol

        def negativities(cm):
            values, eta, errors = real_negativities(cm)
            return values, eta, dict(reversed(errors.items()))

        monkeypatch.setattr(dynamics, "solve_lyapunov_batch", batch)
        monkeypatch.setattr(gaussian, "log_negativities", negativities)
        result = run_sweep(spec)
        assert result.failures == {2: "main solve failed",
                                   3: messages[3, "oc_mc"],
                                   5: messages[5, "mr_mc"]}
        assert len(set(messages.values())) == len(messages)  # order is visible

    def test_pole_is_reported_while_its_baseline_solves(self, monkeypatch):
        spec = self.mixed_spec()
        assert spec.baseline
        solutions = []
        real = dynamics.solve_lyapunov_batch
        monkeypatch.setattr(dynamics, "solve_lyapunov_batch",
                            lambda a, d, *basis: solutions.append(real(a, d, *basis))
                            or solutions[-1])
        result = run_sweep(spec)
        (pole,) = np.flatnonzero(result.x == 1.0)
        assert result.failures[pole] == model.POLE_MESSAGE
        sol = solutions[pole // BLOCK_POINTS]
        m = len(sol.stable) // 2
        k = pole % BLOCK_POINTS
        assert "non-finite" in str(sol.errors[k])  # the pole's NaN drift
        assert m + k not in sol.errors and sol.stable[m + k]
        assert not np.isnan(sol.v[m + k]).any()
        single = evaluate_point(spec.base.replace(delta_c=spec.axis_scale),
                                spec.pairs, baseline=True)
        assert single.error == model.POLE_MESSAGE

    def test_model_stage_runs_once_per_variant_per_stage(self, monkeypatch):
        calls = Counter()

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(model, "solve_steady_state")
        counted(dynamics, "build_drift")
        counted(dynamics, "build_diffusion")
        counted(dynamics, "solve_lyapunov_batch")
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 2049)
        assert spec.baseline
        run_sweep(spec, jobs=1)
        blocks = -(-spec.count // BLOCK_POINTS)
        stages = -(-spec.count // sweep._STAGE_POINTS)
        assert 1 < stages and 8 * stages <= blocks  # many blocks per stage
        # a main and an atom-free working point per stage, not per block
        assert calls == {"solve_steady_state": 2 * stages, "solve_lyapunov_batch": blocks}

    def test_model_stage_sorts_entries_by_kind(self):
        # an entry that no column reaches is held once, as a float
        base = preset("fig6a").base
        columns = {"temperature": np.array([0.0, 1e-3, 0.3]),
                   "omega_m": np.array([0.8, 1.0, 1.2]) * base.omega_m,
                   "delta_c": np.array([-1.0, 0.0, 1.0]) * base.delta_c}
        along = {name: sweep._ModelStage.of(base, name, column, baseline=True)
                 for name, column in columns.items()}
        for drift, diffusion in along["temperature"].templates:
            assert drift.slots.size == 0  # the drift does not depend on temperature
            assert sorted(diffusion.slots.tolist()) == [11, 44, 55]  # the thermal factors
        (drift, diffusion), (free_drift, free_diffusion) = along["omega_m"].templates
        assert drift.slots.size == 31 and diffusion.slots.size == 9
        # the atom-free atomic rows and columns are fixed to the vacuum
        # placeholders: 8 drift entries in their corner and 8 outside it
        assert free_drift.slots.size == 31 - 16 and free_diffusion.slots.size == 9 - 4
        # delta_c reaches its own two entries and the optomechanical coupling
        for drift, diffusion in along["delta_c"].templates:
            assert sorted(drift.slots.tolist()) == [12, 23, 30, 32]
            assert diffusion.slots.size == 0

    @pytest.mark.parametrize("name", ["g", "r_a", "kappa_a", "rho_aa0", "rho_cc0",
                                      "rho_ca0", "delta_a1", "delta_a2"])
    def test_atomic_fields_do_not_reach_the_atom_free_problem(self, name):
        # at g = r_a = 0 the fields that act only through the atoms reach
        # nothing outside the atomic modes, which hold the vacuum placeholders
        start, stop, scale = field_grid(name)
        column = np.linspace(start, stop, 5) * scale
        stage = sweep._ModelStage.of(preset("fig6a").base, name, column, baseline=True)
        (drift, _), (free_drift, free_diffusion) = stage.templates
        assert drift.slots.size > 0
        assert free_drift.slots.size == 0 and free_diffusion.slots.size == 0

    def test_long_sweep_holds_one_model_stage_at_a_time(self):
        # along omega_m every drift and diffusion entry varies; one model
        # stage over the whole grid would hold 2 x 40 columns of 8001 points,
        # 5.1 MB, and more in working points and temporaries
        spec = narrowed(preset("fig6a"), 0.6, 1.6, 8001, varied="omega_m",
                        axis_scale=OMEGA_M)
        tracemalloc.start()
        try:
            result = run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(column.nbytes for column in (
            result.x, result.stable, result.max_real_part, result.e_n, result.baseline_e_n))
        assert peak - held < 3 * 2**20

    def test_pole_that_no_column_reaches_fails_every_point(self):
        # the temperature column never reaches the optical denominator, so
        # its block computes the pole once, as a float, and must still give
        # the pole record at each point instead of raising
        spec = self.mixed_spec()
        base = spec.base.replace(delta_c=1.0 * spec.axis_scale)
        along = SweepSpec(name="pole", base=base, varied="temperature",
                          start=0.0, stop=0.1, count=5, axis="temperature_k",
                          axis_scale=1.0, pairs=spec.pairs, baseline=spec.baseline)
        result = run_sweep(along)
        assert result.failures == {i: model.POLE_MESSAGE for i in range(5)}
        assert not result.stable.any() and np.isnan(result.max_real_part).all()
        for t in result.x:
            single = evaluate_point(base.replace(temperature=float(t)),
                                    spec.pairs, baseline=spec.baseline)
            assert single.error == model.POLE_MESSAGE


class TestThreadedSweep:
    """jobs > 1 runs the blocks on threads; the result may not depend on it."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        # the pool is capped at the CPU count: fix it, so that jobs = 2 and 3
        # start threads on any machine
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    @staticmethod
    def injected_errors(monkeypatch):
        """A solve error on every 31st problem of each block, named after the
        problem's drift, so that failures fall in several blocks."""
        real = dynamics.solve_lyapunov_batch

        def batch(a, d, *basis):
            sol = real(a, d, *basis)
            for k in range(5, len(a), 31):
                sol.errors[k] = SimulationError(
                    f"injected {zlib.crc32(np.ascontiguousarray(a[k]).tobytes())}")
            return sol

        monkeypatch.setattr(dynamics, "solve_lyapunov_batch", batch)

    @pytest.mark.parametrize("name", PRESET_NAMES + ("mixed",))
    def test_columns_failures_and_csv_equal_serial(self, name, monkeypatch, tmp_path):
        fallbacks = []
        if name == "mixed":
            spec = dataclasses.replace(TestBlockEngine.mixed_spec(), count=181)
            self.injected_errors(monkeypatch)
            real = dynamics._kronecker_lyapunov
            monkeypatch.setattr(dynamics, "_kronecker_lyapunov",
                                lambda a, d: fallbacks.append(len(a)) or real(a, d))
        else:
            spec = preset(name)
        results = {jobs: run_sweep(spec, jobs=jobs) for jobs in (1, 2, 3)}
        serial = results[1]
        for jobs, result in results.items():
            write_csv(result, tmp_path / f"{jobs}.csv")
            for column in ("x", "stable", "max_real_part", "e_n", "baseline_e_n"):
                assert np.array_equal(getattr(result, column), getattr(serial, column),
                                      equal_nan=True), (jobs, column)
            assert list(result.failures.items()) == list(serial.failures.items())
            assert list(result.failures) == sorted(result.failures)
            assert ((tmp_path / f"{jobs}.csv").read_bytes()
                    == (tmp_path / "1.csv").read_bytes())
        if name == "mixed":
            assert spec.count > 2 * BLOCK_POINTS
            assert serial.failures[np.flatnonzero(serial.x == 1.0)[0]] == model.POLE_MESSAGE
            assert len({i // BLOCK_POINTS for i in serial.failures}) == 3
            assert 0 < serial.stable_count()
            assert np.count_nonzero(~serial.stable) > serial.error_count()  # unstable
            # x = 0's atom-free problem needs the fallback, once per jobs value
            (zero,) = np.flatnonzero(serial.x == 0.0)
            assert zero not in serial.failures
            assert not np.isnan(serial.baseline_e_n[zero]).any()
            assert len(fallbacks) == 3

    def test_pool_size_is_bounded_by_blocks_and_cpus(self, monkeypatch):
        sizes = []

        class SerialPool:
            """Stands in for ThreadPoolExecutor: records its size and runs
            each submitted block at once, in the calling thread."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = futures.Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:
                    future.set_exception(exc)
                return future

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(futures, "ThreadPoolExecutor", SerialPool)
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 2 * BLOCK_POINTS + 1)  # 3 blocks
        serial = run_sweep(spec, jobs=1)
        assert sizes == []
        for cpus, size in ((4, 3), (2, 2)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            pooled = run_sweep(spec, jobs=10_000)
            assert sizes.pop() == size
            assert np.array_equal(pooled.e_n, serial.e_n, equal_nan=True)
        for cpus in (1, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            run_sweep(spec, jobs=10_000)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        run_sweep(narrowed(spec, -2.0, 2.0, BLOCK_POINTS), jobs=4)  # one block
        assert sizes == []

    def test_failing_block_propagates_and_cancels_the_rest(self, monkeypatch):
        released = threading.Event()

        class Pool(futures.ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                # cancel the blocks not yet started, then let the running
                # ones finish
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                released.set()
                super().shutdown(wait=wait)

        spec = narrowed(preset("fig3"), -0.5, 1.5, 6 * BLOCK_POINTS)  # one stage
        started = []
        real = sweep._evaluate_block

        def evaluate(stage, block, *rest):
            k = block.start // BLOCK_POINTS
            started.append(k)
            if k == 1:
                raise SimulationError("block 1 failed")
            # block 0 waits until the failure has cancelled the pending
            # blocks; any other block holds its thread until then too
            assert released.wait(timeout=10)
            return real(stage, block, *rest)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(sweep, "_evaluate_block", evaluate)
        with pytest.raises(SimulationError, match="block 1 failed"):
            run_sweep(spec, jobs=2)
        assert {0, 1} <= set(started) <= {0, 1, 2}

    def test_stages_equal_serial_and_stay_few(self, monkeypatch):
        # blocks of eight points and stages of two blocks: the pool solves
        # the blocks of at most two stages while the calling thread computes
        # the next one, however many stages the grid has
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 8)
        monkeypatch.setattr(sweep, "_STAGE_POINTS", 16)
        self.injected_errors(monkeypatch)
        live = weakref.WeakSet()
        counts = []
        stage_of, evaluate_block = sweep._ModelStage.of, sweep._evaluate_block

        def of(*args):
            stage = stage_of(*args)
            live.add(stage)
            counts.append(len(live))
            return stage

        def block(*args):
            counts.append(len(live))
            return evaluate_block(*args)

        monkeypatch.setattr(sweep._ModelStage, "of", of)
        monkeypatch.setattr(sweep, "_evaluate_block", block)
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 161)  # 11 stages
        results = {jobs: run_sweep(spec, jobs=jobs) for jobs in (1, 2, 3)}
        assert max(counts) <= 3
        serial = results[1]
        assert serial.error_count() > 1
        for result in results.values():
            for column in ("stable", "max_real_part", "e_n", "baseline_e_n"):
                assert np.array_equal(getattr(result, column), getattr(serial, column),
                                      equal_nan=True), column
            assert result.failures == serial.failures

    def test_failing_block_of_a_later_stage_propagates(self, monkeypatch):
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 8)
        monkeypatch.setattr(sweep, "_STAGE_POINTS", 16)
        started = []
        real = sweep._evaluate_block

        def evaluate(*args):
            started.append(1)
            if len(started) == 5:  # a block of the third stage or earlier
                raise SimulationError("fifth block failed")
            return real(*args)

        monkeypatch.setattr(sweep, "_evaluate_block", evaluate)
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 161)  # 21 blocks
        with pytest.raises(SimulationError, match="fifth block failed"):
            run_sweep(spec, jobs=2)
        assert len(started) < 21

    def test_serial_sweep_never_imports_the_pool(self, tmp_path):
        script = (
            "import sys\n"
            "from oemsim import cli\n"
            f"code = cli.main(['sweep', '--preset', 'fig3', '--out', {str(tmp_path / 'x.csv')!r}])\n"
            "print(code, 'concurrent.futures' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_warnings_match_serial(self, monkeypatch):
        monkeypatch.setattr(dynamics, "CONDITION_WARN", 1e6)
        caught = {}
        for jobs in (1, 2):
            with pytest.warns(RuntimeWarning, match="ill-conditioned") as record:
                run_sweep(preset("fig4"), jobs=jobs)
            caught[jobs] = record.list
        messages = [Counter(str(w.message) for w in caught[jobs]) for jobs in (1, 2)]
        assert messages[0] == messages[1] and len(messages[0]) > 1
        assert {Path(w.filename).name for w in caught[1] + caught[2]} == {"sweep.py"}


def along_temperature(spec, count, start=0.0, stop=0.5):
    """spec's base swept over the bath temperature, in kelvin."""
    return narrowed(spec, start, stop, count, varied="temperature",
                    axis="temperature_k", axis_scale=1.0)


def assert_same_bits(result, other):
    """Two sweep results hold the same bits in every column and the same
    failure messages."""
    for column in ("x", "stable", "max_real_part", "e_n", "baseline_e_n"):
        got, want = getattr(result, column), getattr(other, column)
        assert got.tobytes() == want.tobytes(), column
    assert result.failures == other.failures


class TestDriftMemo:
    """A block whose drift stack a block before it decomposed, in its sweep
    or in the one before, runs only the diffusion half of the solve, with
    the same results."""

    @pytest.fixture
    def decomposed(self, monkeypatch):
        """The size of each drift stack that the sweeps decompose."""
        sizes = []
        real = dynamics._decompose
        monkeypatch.setattr(dynamics, "_decompose",
                            lambda a: sizes.append(len(a)) or real(a))
        return sizes

    def test_fig6_presets_decompose_one_set_of_drifts(self, monkeypatch):
        # fig6a to fig6c differ only in temperature, which the drift does
        # not see: fig6b and fig6c make no eigen call
        names = ("fig6a", "fig6b", "fig6c")
        cold = {}
        for name in names:
            sweep._DRIFT_MEMO.clear()
            cold[name] = run_sweep(preset(name))
        sweep._DRIFT_MEMO.clear()
        calls = Counter()
        for routine in ("eig", "eigvals"):
            real = getattr(np.linalg, routine)
            monkeypatch.setattr(np.linalg, routine,
                                lambda a, real=real: calls.update([1]) or real(a))
        for name in names:
            calls.clear()
            assert_same_bits(run_sweep(preset(name)), cold[name])
            assert (calls.total() > 0) == (name == "fig6a"), name

    def test_temperature_sweep_decomposes_two_blocks(self, decomposed):
        # one stage, one drift: the first full block and the short last
        # block are decomposed, and the memo ends with their two keys
        spec = along_temperature(preset("fig6a"), 1001)
        assert spec.count <= sweep._STAGE_POINTS and spec.count % BLOCK_POINTS
        result = run_sweep(spec)
        assert decomposed == [2 * BLOCK_POINTS, 2 * (spec.count % BLOCK_POINTS)]
        assert len(sweep._DRIFT_MEMO._held) == 2
        for rec in result.records:
            single = evaluate_point(spec.base.replace(temperature=rec.x),
                                    spec.pairs, baseline=True)
            assert dataclasses.replace(single, x=rec.x) == rec

    @pytest.mark.parametrize("name", ["unstable_drift", "fallback", "pole"])
    def test_warm_run_equals_cold_run(self, name, monkeypatch, decomposed):
        fallbacks = []
        real = dynamics._kronecker_lyapunov
        monkeypatch.setattr(dynamics, "_kronecker_lyapunov",
                            lambda a, d: fallbacks.append(len(a)) or real(a, d))
        if name == "unstable_drift":  # fig2 blue of the cavity: no steady state
            fig2 = preset("fig2")
            spec = along_temperature(dataclasses.replace(
                fig2, base=fig2.base.replace(delta_c=-fig2.axis_scale)), 150)
        elif name == "fallback":  # x = 0's problems miss the residual bound
            spec = preset("fig3")
        else:
            mixed = TestBlockEngine.mixed_spec()
            spec = along_temperature(dataclasses.replace(
                mixed, base=mixed.base.replace(delta_c=mixed.axis_scale)), 150, stop=0.1)
        cold = run_sweep(spec)
        blocks, cold_fallbacks = len(decomposed), list(fallbacks)
        warm = run_sweep(spec)
        assert len(decomposed) == blocks  # the warm run decomposes nothing
        assert fallbacks == 2 * cold_fallbacks
        assert_same_bits(warm, cold)
        assert warm.records == cold.records
        if name == "unstable_drift":
            assert not cold.stable.any() and not cold.failures
        elif name == "fallback":
            assert cold_fallbacks == [2] and not cold.failures
        else:
            assert cold.failures == dict.fromkeys(range(spec.count), model.POLE_MESSAGE)

    def test_long_sweep_of_distinct_drifts_keeps_nothing(self, decomposed):
        run_sweep(preset("fig6a"))  # one stage: its seven blocks are kept
        assert len(sweep._DRIFT_MEMO._held) == len(decomposed) == 7
        decomposed.clear()
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 2 * sweep._STAGE_POINTS + 1)
        run_sweep(spec)
        assert len(decomposed) == -(-spec.count // BLOCK_POINTS)
        assert sweep._DRIFT_MEMO._held == {}

    def test_sweep_of_one_stage_drops_the_drifts_it_does_not_pose(self, decomposed):
        run_sweep(preset("fig6a"))
        run_sweep(preset("fig6b"))  # fig6a's drifts: nothing decomposed, all kept
        assert len(sweep._DRIFT_MEMO._held) == len(decomposed) == 7
        run_sweep(preset("fig2"))
        assert len(sweep._DRIFT_MEMO._held) == len(decomposed) - 7 > 0

    def test_threads_share_the_memo(self, monkeypatch, decomposed):
        # more threads than CPUs and a short switch interval, over 25 blocks
        # that pose one drift: whatever the interleaving, the results equal
        # the serial run's and the memo holds one key
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 8)
        spec = along_temperature(preset("fig6a"), 200)
        serial = run_sweep(spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                sweep._DRIFT_MEMO.clear()
                assert_same_bits(run_sweep(spec, jobs=8), serial)
                assert len(sweep._DRIFT_MEMO._held) == 1
        finally:
            sys.setswitchinterval(interval)


def sweep_for_csv(name):
    """The sweeps whose CSV and records are checked against each other."""
    if name == "mixed":
        return TestBlockEngine.mixed_spec()
    if name == "fig5_8001":
        return dataclasses.replace(preset("fig5"), count=8001,
                                   pairs=tuple(BIPARTITE_PAIRS))
    if name == "fig6a_4001":
        return dataclasses.replace(preset("fig6a"), count=4001)
    return preset(name)


def cell(value):
    """A column entry as a record holds it: None where NaN."""
    return None if math.isnan(value) else float(value)


class TestColumnarResult:
    @pytest.mark.parametrize("name", PRESET_NAMES + ("mixed",))
    def test_columns_records_and_single_points_agree(self, name):
        spec = sweep_for_csv(name)
        result = run_sweep(spec)
        n = spec.count
        assert result.x.shape == result.stable.shape == (n,)
        assert result.max_real_part.shape == (n,)
        assert result.e_n.shape == (n, len(spec.pairs))
        assert result.baseline_e_n.shape == (n, len(spec.baseline_pairs))
        assert len(result.records) == n
        for i, rec in enumerate(result.records):
            assert type(rec.x) is float and rec.x == result.x[i]
            assert rec.error == result.failures.get(i)
            assert rec.stable is (None if rec.error else bool(result.stable[i]))
            assert bool(result.stable[i]) is (rec.stable is True)
            assert cell(result.max_real_part[i]) == rec.max_real_part
            assert rec.max_real_part is None or type(rec.max_real_part) is float
            for values, tags, found in (
                    (result.e_n[i], spec.pairs, rec.e_n),
                    (result.baseline_e_n[i], spec.baseline_pairs, rec.baseline_e_n)):
                assert set(found) <= set(tags)
                assert [cell(v) for v in values] == [found.get(t) for t in tags]
                assert all(type(v) is float for v in found.values())
            single = evaluate_point(spec.base.replace(delta_c=rec.x * spec.axis_scale),
                                    spec.pairs, baseline=spec.baseline)
            assert dataclasses.replace(single, x=rec.x) == rec
        assert result.stable_count() == sum(r.stable is True for r in result.records)
        assert result.error_count() == sum(r.error is not None for r in result.records)

    @pytest.mark.parametrize("name", PRESET_NAMES + ("fig5_8001", "fig6a_4001", "mixed"))
    def test_csv_equals_the_records_written_one_by_one(self, name, tmp_path):
        result = run_sweep(sweep_for_csv(name))
        out = tmp_path / "sweep.csv"
        write_csv(result, out)
        expected = record_csv(result)
        assert out.read_bytes() == expected.encode()
        assert csv_rows(result) == [line.split(",")
                                    for line in expected.splitlines()[1:]]
        # the chunked writer gives exactly the header and rows of csv_rows
        lines = [csv_header(result.spec)] + csv_rows(result)
        assert out.read_bytes() == "".join(",".join(row) + "\n"
                                           for row in lines).encode()

    def test_records_are_derived_once(self):
        result = run_sweep(narrowed(preset("fig3"), -0.5, 0.5, 5))
        assert result.records is result.records


class TestCsvEmission:
    def test_header_with_baseline(self):
        assert csv_header(preset("fig2")) == [
            "x_value", "x_axis", "stable", "max_real_part",
            "en_mr_oc", "en_mr_mc", "en_oc_mc", "en_oc_sba", "en_oc_scb",
            "en_baseline_mr_oc",
        ]

    def test_header_without_baseline(self):
        assert csv_header(preset("fig5")) == [
            "x_value", "x_axis", "stable", "max_real_part",
            "en_mr_oc", "en_mr_mc", "en_oc_mc", "en_oc_sba", "en_oc_scb",
        ]

    def test_rows_round_trip(self, tmp_path):
        spec = narrowed(preset("fig2"), -2.0, 1.0, 7)
        res = run_sweep(spec)
        out = tmp_path / "sweep.csv"
        write_csv(res, out)
        text = out.read_text()
        assert text.endswith("\n")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == csv_header(spec)
        assert len(rows) == 8
        for rec, row in zip(res.records, rows[1:]):
            assert float(row[0]) == rec.x
            assert row[1] == spec.axis
            assert row[2] == ("true" if rec.stable else "false")
            en_cell = row[4]  # en_mr_oc column
            if rec.stable:
                assert float(en_cell) == rec.e_n["mr_oc"]
                assert float(row[9]) == rec.baseline_e_n["mr_oc"]
            else:
                assert en_cell == ""
        # unrequested pairs stay empty
        assert {row[5] for row in rows[1:]} == {""}

    def test_writing_a_large_result_holds_little_text(self, tmp_path):
        # fig6a's 401 points repeated over 40001, with a pole record at
        # every 97th: about 3.4 MB of CSV, of which the writer may hold a
        # few blocks' rows at a time
        small = run_sweep(preset("fig6a"))
        n = 40001
        take = np.arange(n) % len(small.x)
        failures = {i: model.POLE_MESSAGE for i in range(0, n, 97)}
        failed = list(failures)
        columns = [small.stable[take], small.max_real_part[take],
                   small.e_n[take], small.baseline_e_n[take]]
        columns[0][failed] = False
        for column in columns[1:]:
            column[failed] = np.nan
        result = SweepResult(small.spec, np.linspace(-2.0, 2.0, n), *columns,
                             failures)
        out = tmp_path / "large.csv"
        tracemalloc.start()
        try:
            write_csv(result, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 3e6
        assert peak < 2e6
        with out.open() as handle:
            assert next(csv.reader(handle)) == csv_header(small.spec)

    def test_floats_carry_full_precision(self):
        spec = narrowed(preset("fig3"), 0.99, 1.01, 3)
        res = run_sweep(spec)
        rows = csv_rows(res)
        cell = rows[0][3]  # max_real_part
        assert float(cell) == res.records[0].max_real_part
