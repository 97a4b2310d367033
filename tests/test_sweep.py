"""Sweep machinery: grids, presets, point pipeline, baselines, CSV schema."""

import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
import zlib
from collections import Counter
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
from oemsim.errors import SimulationError, SingularityError, UnphysicalCovarianceError
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


def model_stages(base, varied, column):
    """The model stages of the points of a column along a field, and of
    their atom-free points, on their bosonic modes, as a sweep with a
    baseline builds them."""
    points = model.parameter_block(base, varied, column)
    return (sweep._ModelStage.of(points, 0, len(column), dynamics._ALL_MODES),
            sweep._ModelStage.of(sweep._atom_free(points), 0, len(column),
                                 dynamics._GROUPS[0]))


def model_templates(base, varied, column):
    """The 10x10 drift and diffusion templates (dynamics._templates) of the
    points of a column along a field, and of their atom-free points: those
    that each model stage of model_stages restricts to its mode groups."""
    points = model.parameter_block(base, varied, column)
    out = []
    for p in (points, sweep._atom_free(points)):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out.append(dynamics._templates(p, model.solve_steady_state(p)))
    return tuple(out)


def full_stacks(templates, m):
    """The 10x10 drift and diffusion stacks of m points, filled from their
    templates (model_templates)."""
    stacks = []
    for template in templates:
        stack = np.empty((m, 100))
        template.fill(stack, slice(0, m))
        stacks.append(stack.reshape(m, 10, 10))
    return stacks


def atom_free_stack(a):
    """Whether a drift stack that a sweep solves is a block of atom-free
    points, which split: the 6x6 stack of their bosonic modes (True), or the
    10x10 one of the points (False); None for an atomic corner, a 4x4
    problem solved once per model stage."""
    return {10: False, 6: True}.get(a.shape[1])


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
    """The atom-free problem is posed at the atom-free point, whose atomic
    modes hold the vacuum, so no atomic field decides an atom-free result."""

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

    def test_block_stack_carries_the_vacuum_corner(self):
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 9)
        column = spec.grid() * spec.axis_scale
        _, free = model_stages(spec.base, spec.varied, column)
        main_templates, free_templates = model_templates(spec.base, spec.varied, column)
        base = spec.base
        assert np.all(full_stacks(main_templates, 9)[0][:, 6, 7]
                      == base.delta_a1 / base.omega_m)
        a, d = full_stacks(free_templates, 9)
        assert (a[:, 6:, 6:] == -np.eye(4)).all() and (d[:, 6:, 6:] == np.eye(4)).all()
        assert not a[:, 6:, :6].any() and not a[:, :6, 6:].any()
        assert not d[:, 6:, :6].any() and not d[:, :6, 6:].any()
        # so the atom-free problems split: a 6x6 stack of their bosonic
        # modes, the one group their stage poses, and the corner, whose
        # solution is I/2 and holds no bosonic pair
        (bosonic,) = free.groups
        assert bosonic.modes == dynamics._GROUPS[0]
        assert np.array_equal(solve_lyapunov(-np.eye(4), np.eye(4)), 0.5 * np.eye(4))
        # the largest atom-free drift entry is a bosonic one, not delta_a1/omega_m
        assert np.array_equal(bosonic.maxima[0], np.abs(a).max(axis=(1, 2)))
        assert np.abs(a).max() < 1e-2 * base.delta_a1 / base.omega_m
        a6, d6 = (free.stack(slice(None), bosonic, template)
                  for template in (bosonic.drift, bosonic.diffusion))
        for k, x in enumerate(spec.grid().tolist()):
            point = base.replace(delta_c=x * spec.axis_scale)
            problem = atom_free_problem(point)
            assert np.array_equal(a[k], problem[0])
            assert np.array_equal(d[k], problem[1])
            assert np.array_equal(a6[k], problem[0][:6, :6])
            assert np.array_equal(d6[k], problem[1][:6, :6])

    def test_failure_only_at_the_atom_free_point_says_so(self):
        # the point's own problem is unstable, with no error, while its
        # atom-free point sits at a pole of the optical response
        params = preset("fig6a").base.replace(kappa_c=1e-31, delta_c=0.0)
        alone = evaluate_point(params, gaussian.BOSONIC_PAIRS)
        assert alone.stable is False and alone.error is None
        with pytest.raises(SingularityError, match="pole"):
            solve_steady_state(sweep._atom_free(params))
        message = sweep._ATOM_FREE_TAG + model.POLE_MESSAGE
        assert message == "atom-free point: optical response has a pole at these parameters"
        rec = evaluate_point(params, gaussian.BOSONIC_PAIRS, baseline=True)
        assert rec == PointRecord(x=0.0, stable=None, max_real_part=None, error=message)
        # a sweep through that point fails it alone, with the same message
        result = run_sweep(narrowed(preset("fig6a"), -2.0, 2.0, 401, base=params))
        (zero,) = np.flatnonzero(result.x == 0.0)
        assert result.failures == {zero: message}
        assert not result.stable[zero] and np.isnan(result.max_real_part[zero])

    def test_unphysical_atom_free_pair_says_so(self, monkeypatch):
        spec = preset("fig6a")
        messages = []
        real = dynamics.solve_lyapunov_batch

        def corrupted(a, d, *basis):
            sol = real(a, d, *basis)
            if atom_free_stack(a):
                messages.append(corrupt_pair(sol.v[0], "mr_mc", 1e3))
            return sol

        clean = evaluate_point(spec.base, ("oc_mc", "mr_mc"), baseline=True)
        assert clean.error is None and clean.baseline_e_n
        monkeypatch.setattr(dynamics, "solve_lyapunov_batch", corrupted)
        rec = evaluate_point(spec.base, ("oc_mc", "mr_mc"), baseline=True)
        assert rec == PointRecord(x=clean.x, stable=None, max_real_part=None,
                                  error=sweep._ATOM_FREE_TAG + messages[0])

    @staticmethod
    def atom_free(params):
        """The atom-free point, spelled out field by field."""
        return params.replace(g=0.0, r_a=0.0, kappa_a=params.omega_m, delta_a1=0.0,
                              delta_a2=0.0, rho_aa0=0.0, rho_cc0=0.0, rho_ca0=0.0)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_baseline_is_the_sweep_at_the_atom_free_point(self, name):
        spec = narrowed(preset(name), preset(name).start, preset(name).stop, 801,
                        pairs=gaussian.BOSONIC_PAIRS, baseline=True)
        free_base = self.atom_free(spec.base)
        assert sweep._atom_free(spec.base) == free_base
        result = run_sweep(spec)
        free = run_sweep(dataclasses.replace(spec, base=free_base, baseline=False))
        assert free.baseline_e_n.shape[1] == 0
        # bit for bit, and absent at the same entries, wherever the point
        # with atoms did not fail
        kept = np.array([i not in result.failures for i in range(spec.count)])
        assert kept.any() and not np.isnan(free.e_n[kept]).all()
        assert result.baseline_e_n[kept].tobytes() == free.e_n[kept].tobytes()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_point_at_the_atom_free_point_is_the_baseline(self, name):
        spec = preset(name)
        pairs = gaussian.BOSONIC_PAIRS
        for x in np.linspace(spec.start, spec.stop, 9).tolist():
            point = spec.base.replace(delta_c=x * spec.axis_scale)
            with_atoms = evaluate_point(point, pairs, baseline=True)
            free = evaluate_point(self.atom_free(point), pairs)
            assert free.error is None
            assert free.e_n == with_atoms.baseline_e_n


class TestWorkingPointRange:
    """Atomic fields so extreme that the working point's arithmetic leaves
    floating-point range give a typed outcome, never a raw exception or a
    numpy warning."""

    @staticmethod
    def point(**changes):
        return preset("fig6a").base.replace(**changes)

    # kappa_a**2 + delta**2 underflows to 0: with atoms (g > 0), and with
    # none through g = 0 or r_a = 0, which multiply that zero's quotient
    @pytest.mark.parametrize("atoms", [{}, {"g": 0.0}, {"r_a": 0.0}],
                             ids=["g>0", "g=0", "r_a=0"])
    @pytest.mark.parametrize("tiny", [{"kappa_a": 1e-200, "delta_a1": 0.0},
                                      {"kappa_a": 1e-170, "delta_a2": 0.0}],
                             ids=["upper", "lower"])
    def test_underflowed_atomic_denominator(self, atoms, tiny):
        params = self.point(**tiny, **atoms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = evaluate_point(params, ("mr_oc", "oc_sba"), baseline=True)
            with pytest.raises(SingularityError) as info:
                solve_steady_state(params)
        assert rec.error == model.RANGE_MESSAGE == str(info.value)
        assert rec.stable is None and rec.e_n == {} and rec.baseline_e_n == {}

    def test_overflowing_optical_denominator_along_kappa_a(self):
        # the atom number r_a / kappa_a is about 1e206 and more: |d|^2 overflows
        spec = SweepSpec(name="k", base=self.point(), varied="kappa_a",
                         start=1e-200, stop=1e-150, count=5, axis="kappa_a",
                         axis_scale=1.0, pairs=("mr_oc",), baseline=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
            for k in spec.grid().tolist():
                with pytest.raises(SingularityError, match="floating-point range"):
                    solve_steady_state(spec.base.replace(kappa_a=k))
        assert result.failures == dict.fromkeys(range(5), model.RANGE_MESSAGE)
        assert not result.stable.any()

    def test_column_marks_only_the_points_out_of_range(self):
        spec = SweepSpec(name="k", base=self.point(delta_a1=0.0), varied="kappa_a",
                         start=1e-200, stop=TWO_PI * 1e6, count=5, axis="kappa_a",
                         axis_scale=1.0, pairs=gaussian.BOSONIC_PAIRS, baseline=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
        assert result.failures == {0: model.RANGE_MESSAGE}
        for rec, k in zip(result.records, spec.grid().tolist()):
            single = evaluate_point(spec.base.replace(kappa_a=k), spec.pairs,
                                    baseline=True)
            assert dataclasses.replace(single, x=rec.x) == rec

    # delta_c reaches the optical denominator; temperature and power_w do
    # not, so it is a float there, and power_w's q_s is a column all the same
    @pytest.mark.parametrize("varied", ["delta_c", "temperature", "power_w"])
    def test_range_fails_every_point_of_the_grid(self, varied):
        base = self.point(kappa_a=1e-200, delta_a1=0.0)
        spec = SweepSpec(name="r", base=base, varied=varied, start=0.5, stop=1.5,
                         count=5, axis=varied, axis_scale=getattr(base, varied),
                         pairs=gaussian.BOSONIC_PAIRS, baseline=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
        assert result.failures == dict.fromkeys(range(5), model.RANGE_MESSAGE)

    def test_overflowing_drive(self):
        # the microwave drive amplitude overflows in derive, outside the
        # optical denominator: q_s and g_w are inf
        base = preset("fig3").base.replace(power_w=1e300)
        spec = narrowed(preset("fig3"), 0.5, 1.5, 5, base=base, baseline=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
            rec = evaluate_point(base, ("mr_mc",), baseline=True)
            with pytest.raises(SingularityError) as info:
                solve_steady_state(base)
        assert result.failures == dict.fromkeys(range(5), model.RANGE_MESSAGE)
        assert rec.error == model.RANGE_MESSAGE == str(info.value)

    # a float product that derive divides by underflows to 0: hbar times a
    # tiny microwave frequency, hbar times the optical drive frequency of a
    # huge wavelength, and a tiny mass times a tiny mechanical frequency
    @pytest.mark.parametrize("changes", [{"omega_w": 1e-300}, {"lambda_oc": 1e300},
                                         {"mass": 1e-30, "omega_m": 1e-300}],
                             ids=["omega_w", "lambda_oc", "mass"])
    def test_underflowed_product_in_derive(self, changes):
        base = preset("fig5").base.replace(**changes)
        spec = SweepSpec(name="u", base=base, varied="temperature", start=0.01,
                         stop=0.05, count=5, axis="temperature_k", axis_scale=1.0,
                         pairs=("mr_oc", "oc_sba"), baseline=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
            rec = evaluate_point(base, spec.pairs, baseline=True)
            with pytest.raises(SingularityError) as info:
                solve_steady_state(base)
            with pytest.raises(SingularityError, match="floating-point range"):
                model.derive(base)
        assert result.failures == dict.fromkeys(range(5), model.RANGE_MESSAGE)
        assert not result.stable.any() and np.isnan(result.baseline_e_n).all()
        assert rec == PointRecord(x=base.delta_c / base.omega_m, stable=None,
                                  max_real_part=None, error=model.RANGE_MESSAGE)
        assert str(info.value) == model.RANGE_MESSAGE


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
        # 1.5 would be a thread count: rejected before any thread is made
        monkeypatch.setattr(threading, "Thread", None)
        spec = narrowed(preset("fig3"), -0.5, 1.5, 3 * BLOCK_POINTS)
        for jobs in (1.5, 2.0, "2", None, True, False):
            with pytest.raises(ParameterError, match="jobs must be an integer"):
                run_sweep(spec, jobs=jobs)
        monkeypatch.undo()
        serial = run_sweep(spec, jobs=1)
        assert run_sweep(spec, jobs=np.int64(2)).records == serial.records

    def test_no_pairs(self):
        # a sweep may ask for no pair at all: the gate and abscissa alone
        spec = narrowed(preset("fig2"), -2.0, 2.0, 41, pairs=())
        result = run_sweep(spec)
        full = run_sweep(narrowed(preset("fig2"), -2.0, 2.0, 41))
        assert result.e_n.shape == (41, 0) and result.baseline_e_n.shape == (41, 0)
        assert result.stable.tobytes() == full.stable.tobytes()
        assert result.max_real_part.tobytes() == full.max_real_part.tobytes()
        assert not result.failures
        assert evaluate_point(spec.base, ()).e_n == {}

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

    @pytest.mark.parametrize("order, most", [(10, 128), (6, 355), (4, 800)])
    def test_blocks_are_the_fewest_within_the_budget_and_balanced(self, order, most):
        # a stage's points in order, in blocks whose order x order stacks
        # hold at most BLOCK_POINTS * 100 entries, that differ by at most
        # one point, and no more of them than the budget needs
        assert BLOCK_POINTS * 100 // order**2 == most
        for n in range(1, 2 * sweep._STAGE_POINTS + 1):
            blocks = sweep._blocks(n, order)
            assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
            assert blocks[-1].stop == n and len(blocks) == -(-n // most)
            sizes = [b.stop - b.start for b in blocks]
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= most, n

    def test_stage_blocks_are_sized_by_its_largest_varying_group(self):
        # 1000 points: 8 blocks at 10x10 and 3 at 6x6
        base = preset("fig6a").base
        along_delta_c = model_stages(base, "delta_c", np.linspace(-2, 2, 1000) * base.delta_c)
        along_g = model_stages(base, "g", np.linspace(0.5, 2, 1000) * base.g)
        along_omega_m = model_stages(base, "omega_m", np.linspace(0.5, 2, 1000) * base.omega_m)
        for stage, order in ((along_delta_c[0], 10), (along_delta_c[1], 6),
                             # every atom-free point is the same point: its
                             # bosonic group is solved once, and the stage
                             # sized as 10x10
                             (along_g[1], 10),
                             # the atom-free bosonic group varies
                             (along_omega_m[1], 6)):
            assert stage.blocks() == sweep._blocks(1000, order)
        assert all(group.solved is not None for group in along_g[1].groups)
        assert [group.modes for group in along_omega_m[1].groups
                if group.solved is None] == [dynamics._GROUPS[0]]
        assert [len(sweep._blocks(1000, order)) for order in (10, 6)] == [8, 3]

    def test_one_log_negativity_call_per_block(self, monkeypatch):
        stacks = []
        real = gaussian.log_negativities
        monkeypatch.setattr(gaussian, "log_negativities",
                            lambda cm: stacks.append(len(cm)) or real(cm))
        # two blocks of 75 points, and one of their 150 atom-free points;
        # the first block of the points has no stable point and makes no call
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 150)
        result = run_sweep(spec)
        assert not result.stable[:75].any() and result.stable[75:].any()
        assert not result.failures
        assert len(stacks) == 2 and all(stacks)
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

    @pytest.mark.parametrize("pairs", [("oc_mc", "mr_oc", "mr_mc"),
                                       ("oc_sba", "oc_mc", "mr_oc")])
    def test_columns_follow_the_request_and_the_csv(self, pairs):
        # e_n holds the pairs in the requested order, baseline_e_n the
        # bosonic ones in the CSV's order, whatever order they were asked in
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 41, pairs=tuple(BIPARTITE_PAIRS))
        canonical = run_sweep(spec)
        result = run_sweep(dataclasses.replace(spec, pairs=pairs))
        assert result.stable_count() > 0 and not result.failures
        main = [spec.pairs.index(tag) for tag in pairs]
        base = [spec.baseline_pairs.index(tag) for tag in result.spec.baseline_pairs]
        assert result.e_n.tobytes() == canonical.e_n[:, main].tobytes()
        assert result.baseline_e_n.tobytes() == canonical.baseline_e_n[:, base].tobytes()

    def test_pair_error_alone_fails_its_point(self, monkeypatch):
        # a block whose solve has no error: one unphysical baseline pair
        # fails its point, and every other point keeps its bits
        spec = narrowed(preset("fig6a"), 0.5, 1.5, 9, pairs=("oc_mc", "mr_oc", "mr_mc"))
        clean = run_sweep(spec)
        messages = []
        real = dynamics.solve_lyapunov_batch

        def corrupted(a, d, *basis):
            sol = real(a, d, *basis)
            assert not sol.errors
            if atom_free_stack(a):  # the one block of atom-free points
                messages.append(corrupt_pair(sol.v[4], "mr_oc", 1e3))
            return sol

        monkeypatch.setattr(dynamics, "solve_lyapunov_batch", corrupted)
        result = run_sweep(spec)
        assert result.failures == {4: sweep._ATOM_FREE_TAG + messages[0]}
        rest = np.arange(spec.count) != 4
        for column in ("stable", "max_real_part", "e_n", "baseline_e_n"):
            assert (getattr(result, column)[rest].tobytes()
                    == getattr(clean, column)[rest].tobytes()), column
        assert not result.stable[4] and np.isnan(result.e_n[4]).all()

    def test_unphysical_pair_fails_only_its_point(self, monkeypatch):
        spec = narrowed(preset("fig6a"), 0.5, 1.5, 9,
                        pairs=("oc_mc", "mr_oc", "mr_mc"))
        clean = run_sweep(spec).records
        # corrupted (point, pair) cross blocks and failed solves, in the one
        # block of the points (own) and the one of their atom-free points
        # (free), and whose error each point reports: its own error, else
        # its atom-free point's, where a point's error is its solve error,
        # else its first pair error in the requested order
        own, free = False, True  # what atom_free_stack says of each block
        scales = {(own, 3, "mr_oc"): 1e3,
                  (own, 4, "mr_mc"): 1e3, (free, 4, "oc_mc"): 2e3,
                  (own, 5, "mr_mc"): 1e3, (own, 5, "mr_oc"): 2e3,
                  (free, 6, "mr_oc"): 1e3, (free, 6, "oc_mc"): 2e3,
                  (free, 7, "mr_oc"): 3e3,
                  (own, 8, "mr_mc"): 3e3}
        messages = {(own, 7): "main solve failed", (free, 8): "baseline solve failed"}
        reported = {3: (own, 3, "mr_oc"), 4: (own, 4, "mr_mc"),
                    5: (own, 5, "mr_oc"), 6: (free, 6, "oc_mc"),
                    7: (own, 7), 8: (own, 8, "mr_mc")}
        assert all(clean[i].e_n and clean[i].baseline_e_n for i in reported)
        real = dynamics.solve_lyapunov_batch

        def corrupted(a, d, *basis):
            sol = real(a, d, *basis)
            here = atom_free_stack(a)
            for (stack, k, tag), scale in scales.items():
                if stack == here:
                    messages[stack, k, tag] = corrupt_pair(sol.v[k], tag, scale)
            sol.errors.update({k: SimulationError(messages[stack, k])
                               for stack, k in ((not free, 7), (free, 8)) if stack == here})
            return sol

        monkeypatch.setattr(dynamics, "solve_lyapunov_batch", corrupted)
        result = run_sweep(spec)
        expected = list(clean)
        for i, key in reported.items():
            error = (sweep._ATOM_FREE_TAG if key[0] else "") + messages[key]
            expected[i] = PointRecord(x=clean[i].x, stable=None,
                                      max_real_part=None, error=error)
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
            # the points' four blocks alone
            assert sizes == [100, 100, 100, 101] and sum(sizes) == spec.count
            write_csv(result, tmp_path / f"{baseline}.csv")
            csv.append((tmp_path / f"{baseline}.csv").read_bytes())
        assert csv[0] == csv[1]
        sizes.clear()
        assert evaluate_point(spec.base, spec.pairs, baseline=True).stable
        assert sizes == [1]

    def test_reported_error_does_not_depend_on_map_order(self, monkeypatch):
        spec = narrowed(preset("fig6a"), 0.5, 1.5, 9,
                        pairs=("oc_mc", "mr_oc", "mr_mc"))
        # point 2: both solves fail; 3: two of the point's pairs; 5: a pair
        # of the point and one of its atom-free point. Each pair error map is
        # handed over in the reverse of its order.
        scales = {(True, 5, "oc_mc"): 3e3, (False, 5, "mr_mc"): 2e3,
                  (False, 3, "mr_mc"): 2e3, (False, 3, "oc_mc"): 1e3}
        messages = {}
        real_batch = dynamics.solve_lyapunov_batch
        real_negativities = gaussian.log_negativities

        def batch(a, d, *basis):
            sol = real_batch(a, d, *basis)
            here = atom_free_stack(a)
            if here is None:  # an atomic corner
                return sol
            for (stack, k, tag), scale in scales.items():
                if stack == here:
                    messages[k, tag] = corrupt_pair(sol.v[k], tag, scale)
            sol.errors.update({2: SimulationError(
                "baseline solve failed" if here else "main solve failed")})
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
        # the points' blocks, the atom-free ones', their atomic corner
        solutions = {False: [], True: [], None: []}
        real = dynamics.solve_lyapunov_batch

        def batch(a, d, *basis):
            solutions[atom_free_stack(a)].append(real(a, d, *basis))
            return solutions[atom_free_stack(a)][-1]

        monkeypatch.setattr(dynamics, "solve_lyapunov_batch", batch)
        result = run_sweep(spec)
        (pole,) = np.flatnonzero(result.x == 1.0)
        assert result.failures[pole] == model.POLE_MESSAGE
        # 91 points: one block of them, and one of their atom-free points
        (sol,), (free,) = solutions[False], solutions[True]
        assert "non-finite" in str(sol.errors[pole])  # the pole's NaN drift
        assert pole not in free.errors and free.stable[pole]
        assert not np.isnan(free.v[pole]).any()
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
        counted(dynamics, "_decompose")
        counted(dynamics, "solve_lyapunov_batch")
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 2049)
        assert spec.baseline
        result = run_sweep(spec, jobs=1)
        stages = -(-spec.count // sweep._STAGE_POINTS)
        # stages of 1024, 1024 and 1 points: 8, 8 and 1 blocks of the
        # points (10x10), and 3, 3 and 1 of their atom-free points (6x6)
        blocks = 17 + 7
        assert stages == 3
        # the first stage has no stable point: its 11 blocks end at their
        # gate. The second has a stable point in 6 blocks of the points
        # and in all 3 of their atom-free points, the third in both
        assert not result.stable[:1024].any() and not result.failures
        solved = 6 + 3 + 2
        # a working point per stage for the points and one for their
        # atom-free points, not one per block; a gate per block of each, a
        # solve per block with a stable problem, and none of the atom-free
        # atomic corner, which is not posed
        assert calls == {"solve_steady_state": 2 * stages, "_decompose": blocks,
                         "solve_lyapunov_batch": solved}

    def test_model_stage_sorts_entries_by_kind(self):
        # an entry that no column reaches is held once, as a float
        base = preset("fig6a").base
        columns = {"temperature": np.array([0.0, 1e-3, 0.3]),
                   "omega_m": np.array([0.8, 1.0, 1.2]) * base.omega_m,
                   "delta_c": np.array([-1.0, 0.0, 1.0]) * base.delta_c}
        along = {name: model_stages(base, name, column) for name, column in columns.items()}
        templates = {name: model_templates(base, name, column)
                     for name, column in columns.items()}
        for drift, diffusion in templates["temperature"]:
            assert drift.slots.size == 0  # the drift does not depend on temperature
            # the thermal factors
            assert sorted(diffusion.slots.tolist()) == [11, 44, 55]
        (drift, diffusion), _ = templates["omega_m"]
        assert drift.slots.size == 31 and diffusion.slots.size == 9
        # at every point the atom-free atomic modes hold the vacuum: -I
        # (drift) and I (diffusion) in their corner, and zeros in their rows
        # and columns outside it, even where every entry is a column
        # (kappa_a = omega_m along omega_m); so every atom-free problem
        # splits, and its stage poses the bosonic group alone
        for name, (_, free) in along.items():
            free_a, free_d = full_stacks(templates[name][1], 3)
            assert (free_a[:, 6:, 6:] == -np.eye(4)).all()
            assert (free_d[:, 6:, 6:] == np.eye(4)).all()
            assert not free_a[:, 6:, :6].any() and not free_a[:, :6, 6:].any()
            assert not free_d[:, 6:, :6].any() and not free_d[:, :6, 6:].any()
            assert dynamics._decoupled(*templates[name][1], m=3).all()
            assert [group.modes for group in free.groups] == [dynamics._GROUPS[0]]
        # delta_c reaches its own two entries and the optomechanical coupling
        for drift, diffusion in templates["delta_c"]:
            assert sorted(drift.slots.tolist()) == [12, 23, 30, 32]
            assert diffusion.slots.size == 0

    @pytest.mark.parametrize("name", ["g", "r_a", "kappa_a", "rho_aa0", "rho_cc0",
                                      "rho_ca0", "delta_a1", "delta_a2"])
    def test_atomic_fields_do_not_reach_the_atom_free_problem(self, name):
        # at g = r_a = 0 the fields that act only through the atoms reach
        # nothing outside the atomic modes, which hold the vacuum placeholders
        start, stop, scale = field_grid(name)
        column = np.linspace(start, stop, 5) * scale
        (drift, _), (free_drift, free_diffusion) = model_templates(
            preset("fig6a").base, name, column)
        assert drift.slots.size > 0
        assert free_drift.slots.size == 0 and free_diffusion.slots.size == 0

    @pytest.mark.parametrize("name", FIELD_NAMES + ("pole", "hot"))
    def test_model_stage_maxima_are_those_of_the_stacks(self, name):
        # the residual bound's scales and the solve's finite check of d come
        # from the templates: per problem they equal max |entry| of the
        # stacks' matrices, NaN and inf included
        spec = {"pole": TestBlockEngine.mixed_spec(),
                "hot": narrowed(preset("fig2"), 0.0, 1e305, 9, varied="temperature",
                                axis_scale=1.0)}.get(name)
        if spec is None:
            start, stop, scale = field_grid(name)
            spec = narrowed(preset("fig6a"), start, stop, 9, varied=name, axis_scale=scale)
        stages = model_stages(spec.base, spec.varied, spec.grid() * spec.axis_scale)
        # the points' groups, then their atom-free points': a group solved
        # once has no maxima, its solve takes those of its one problem
        groups = [(stage, group) for stage in stages for group in stage.groups
                  if group.solved is None]
        assert groups
        for stage, group in groups:
            for block in (slice(0, 4), slice(4, None)):
                a, d = (stage.stack(block, group, template)
                        for template in (group.drift, group.diffusion))
                a_max, d_max = group.maxima[:, block]
                assert np.array_equal(a_max, np.abs(a).max(axis=(1, 2)), equal_nan=True)
                assert np.array_equal(d_max, np.abs(d).max(axis=(1, 2)), equal_nan=True)
        assert all(group.maxima is None for stage in stages for group in stage.groups
                   if group.solved is not None)
        # the pole's drift holds NaN, the hot points' diffusions inf
        finite = all(np.isfinite(group.maxima).all() for _, group in groups)
        assert finite == (name not in ("pole", "hot"))

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


class TestGateStop:
    """A block in which no problem passes the Hurwitz gate, no drift failed
    and every diffusion is finite ends at its gate: no Lyapunov solve, no
    covariance and no log-negativity, and the columns the solve would give."""

    @staticmethod
    def counted(monkeypatch):
        """Counts the calls of the Lyapunov solve and of the log-negativity,
        the states that each log-negativity call gets, and the diffusion
        stacks that blocks fill."""
        calls = Counter()
        real_solve, real_negativities, real_stack = (
            dynamics.solve_lyapunov_batch, gaussian.log_negativities, sweep._ModelStage.stack)
        monkeypatch.setattr(sweep._ModelStage, "stack",
                            lambda stage, block, group, template:
                            calls.update(["diffusion"] * (template is group.diffusion))
                            or real_stack(stage, block, group, template))
        monkeypatch.setattr(dynamics, "solve_lyapunov_batch",
                            lambda a, d, *basis: calls.update(["solve"])
                            or real_solve(a, d, *basis))
        monkeypatch.setattr(gaussian, "log_negativities",
                            lambda cm: calls.update(["negativities", f"states {len(cm)}"])
                            or real_negativities(cm))
        return calls

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unstable_range_solves_nothing(self, jobs, monkeypatch):
        # fig6a from x = -2 to -0.5: three blocks of 100 points and one of
        # their 300 atom-free points, none of them stable, so none fills
        # its diffusion stack either
        spec = narrowed(preset("fig6a"), -2.0, -0.5, 300)
        calls = self.counted(monkeypatch)
        result = run_sweep(spec, jobs=jobs)
        assert not calls
        assert not result.stable.any() and not result.failures
        assert np.isfinite(result.max_real_part).all()
        assert np.isnan(result.e_n).all() and np.isnan(result.baseline_e_n).all()
        # a single point solves its groups once, in its model stage, and
        # takes no log-negativity where it has no solved point
        for rec in result.records:
            single = evaluate_point(spec.base.replace(delta_c=rec.x * spec.axis_scale),
                                    spec.pairs, baseline=spec.baseline)
            assert dataclasses.replace(single, x=rec.x) == rec
            assert repr(dataclasses.replace(single, x=rec.x)) == repr(rec)
        assert calls == {"solve": 2 * spec.count}

    def test_non_finite_diffusion_is_still_reported(self, monkeypatch):
        # fig6a at x = -1.5, unstable, along temperature: from T = 0 the
        # thermal factors overflow, which fails the point with the
        # temperature where its block has no stable problem either
        base = preset("fig6a").base
        spec = narrowed(preset("fig6a"), 0.0, 1e305, 9, varied="temperature",
                        axis="temperature_k", axis_scale=1.0,
                        base=base.replace(delta_c=-1.5 * base.omega_m))
        calls = self.counted(monkeypatch)
        result = run_sweep(spec)
        # the points' block and their atom-free points', each with its diffusion
        assert calls == {"solve": 2, "diffusion": 2}
        assert not result.stable.any() and list(result.failures) == list(range(1, 9))
        assert np.isfinite(result.max_real_part[0])
        for i, temperature in enumerate(result.x.tolist()[1:], 1):
            assert result.failures[i] == (
                "diffusion matrix contains non-finite entries: (1, 1) = inf, "
                f"(4, 4) = inf, (5, 5) = inf; at bath temperature {temperature!r} K")
        for rec in result.records:
            single = evaluate_point(spec.base.replace(temperature=rec.x), spec.pairs,
                                    baseline=spec.baseline)
            assert dataclasses.replace(single, x=rec.x) == rec

    def test_presets_pass_takes_log_negativities_of_solved_blocks_alone(self, monkeypatch):
        # 40 blocks, 18 of them with no stable problem: 22 calls, none on
        # an empty stack (each of the 18 made one before their gate stop),
        # and 22 diffusion stacks (each of the 18 filled one)
        for name in PRESET_NAMES:
            run_sweep(preset(name))
        calls = self.counted(monkeypatch)
        for name in PRESET_NAMES:
            run_sweep(preset(name))
        assert calls["negativities"] == calls["solve"] == calls["diffusion"] == 22
        assert "states 0" not in calls


class TestThreadedSweep:
    """jobs > 1 runs the blocks on threads; the result may not depend on it."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        # the threads are capped at the usable CPUs: fix them, so that
        # jobs = 2 and 3 start threads on any machine
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 4)

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
            assert serial.failures[np.flatnonzero(serial.x == 1.0)[0]] == model.POLE_MESSAGE
            # injected errors in each block that is solved: the points'
            # second, of 91 points, and their atom-free points' one, whose
            # errors fall on both sides of it. The points' first block, of
            # 90, has no stable problem: it ends at its gate, with no solve
            injected = {i for i, message in serial.failures.items()
                        if message.startswith("injected")}
            assert not serial.stable[:90].any() and min(injected) >= 90
            free = {i for i, message in serial.failures.items()
                    if message.startswith(sweep._ATOM_FREE_TAG + "injected")}
            assert min(free) < 90 < max(free)
            assert 0 < serial.stable_count()
            assert np.count_nonzero(~serial.stable) > serial.error_count()  # unstable
            # x = 0's atom-free problem needs the fallback, once per jobs value
            (zero,) = np.flatnonzero(serial.x == 0.0)
            assert zero not in serial.failures
            assert not np.isnan(serial.baseline_e_n[zero]).any()
            assert len(fallbacks) == 3

    @pytest.mark.parametrize("name", ["fig3", "fig6a", "fig6a_g", "fig5_all_pairs",
                                      "fig2_temperature"])
    def test_columns_and_failures_do_not_depend_on_block_size(self, name, monkeypatch):
        # with a budget of 1, 7 and 64 10x10 problems a block (so 2, 19 and
        # 177 6x6 ones), in model stages of 16 times that many points, on
        # one thread and on two, a sweep gives the bits of its default
        # blocks: fig3 has a fallback problem, fig6a a baseline, fig6a along
        # g from 0 a first point that splits beside 10x10 ones, fig5 all
        # five pairs, and the temperature sweep overflows at all but T = 0
        fallbacks = []
        real = dynamics._kronecker_lyapunov
        monkeypatch.setattr(dynamics, "_kronecker_lyapunov",
                            lambda a, d: fallbacks.append(len(a)) or real(a, d))
        spec = {
            "fig3": preset("fig3"),
            "fig6a": narrowed(preset("fig6a"), -2.0, 2.0, 150),
            "fig6a_g": narrowed(preset("fig6a"), 0.0, 2.0, 150, varied="g",
                                axis_scale=preset("fig6a").base.g),
            "fig5_all_pairs": narrowed(preset("fig5"), 0.0, 100.0, 150,
                                       pairs=tuple(BIPARTITE_PAIRS)),
            "fig2_temperature": narrowed(preset("fig2"), 0.0, 1e305, 97,
                                         varied="temperature", axis_scale=1.0),
        }[name]
        reference = run_sweep(spec)
        assert reference.stable_count() > 0
        assert fallbacks or name != "fig3"
        assert spec.baseline == (name != "fig5_all_pairs")
        assert reference.error_count() == (96 if name == "fig2_temperature" else 0)
        for points in (1, 7, 64):
            monkeypatch.setattr(sweep, "BLOCK_POINTS", points)
            monkeypatch.setattr(sweep, "_STAGE_POINTS", 16 * points)
            for jobs in (1, 2):
                result = run_sweep(spec, jobs=jobs)
                for column in ("stable", "max_real_part", "e_n", "baseline_e_n"):
                    assert (getattr(result, column).tobytes()
                            == getattr(reference, column).tobytes()), (points, jobs, column)
                assert list(result.failures.items()) == list(reference.failures.items())

    def test_threads_are_bounded_by_jobs_blocks_and_cpus(self, monkeypatch):
        made = recorded_threads(monkeypatch)
        # 3 blocks of points (10x10) and 1 of their atom-free points (6x6)
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 2 * BLOCK_POINTS + 1)
        serial = run_sweep(spec, jobs=1)
        assert made == []
        for cpus, jobs, threads in ((8, 10_000, 4), (3, 10_000, 3), (2, 10_000, 2),
                                    (8, 3, 3), (8, 2, 2), (1, 10_000, 1)):
            monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
            assert_same_bits(run_sweep(spec, jobs=jobs), serial)
            assert len(made) + 1 == threads, (cpus, jobs)  # the calling thread is one
            made.clear()
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 4)
        one = narrowed(spec, -2.0, 2.0, BLOCK_POINTS)
        run_sweep(one, jobs=4)  # one block of points and one of atom-free points
        assert len(made) == 1
        made.clear()
        run_sweep(dataclasses.replace(one, baseline=False), jobs=4)  # one block
        evaluate_point(spec.base, spec.pairs, baseline=True)
        assert made == []
        # past one model stage, the blocks of the first stage count: its
        # 1024 points make 8 blocks, the next stage's one point a ninth
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 64)
        longer = narrowed(one, -2.0, 2.0, sweep._STAGE_POINTS + 1, baseline=False)
        run_sweep(longer, jobs=10_000)
        assert len(made) + 1 == 8

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_stops_new_blocks_and_the_lowest_is_raised(self, monkeypatch, jobs):
        # one stage: six blocks of 128 points, then three of 256 of their
        # atom-free points. Blocks 0 and 1 fail; on two threads block 1
        # fails first, and block 0 only once it has: no thread starts a
        # block after them, and block 0's failure is the one raised
        spec = narrowed(preset("fig3"), -0.5, 1.5, 768)
        made = recorded_threads(monkeypatch)
        released = threading.Event()
        started = []
        real = sweep._evaluate_block

        def evaluate(stage, block, *rest):
            k = block.start // 128 if stage.groups[0].modes == dynamics._ALL_MODES else None
            started.append(k)
            if k == 1:
                released.set()
                raise SimulationError("block 1 failed")
            if k == 0 and jobs > 1:
                assert released.wait(timeout=10)
            if k in (0, 1):
                raise SimulationError("block 0 failed")
            return real(stage, block, *rest)

        monkeypatch.setattr(sweep, "_evaluate_block", evaluate)
        with pytest.raises(SimulationError, match="block 0 failed"):
            run_sweep(spec, jobs=jobs)
        assert len(made) == jobs - 1
        assert sorted(started) == ([0] if jobs == 1 else [0, 1])

    def test_no_thread_outlives_the_sweep(self, monkeypatch):
        made = recorded_threads(monkeypatch)
        before = threading.active_count()
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 2 * BLOCK_POINTS + 1)
        run_sweep(spec, jobs=3)
        assert len(made) == 2
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in made)
        made.clear()
        real, calls = sweep._evaluate_block, []

        def evaluate(*args):
            calls.append(1)
            if len(calls) == 2:
                raise SimulationError("second block failed")
            return real(*args)

        monkeypatch.setattr(sweep, "_evaluate_block", evaluate)
        with pytest.raises(SimulationError, match="second block failed"):
            run_sweep(spec, jobs=3)
        assert len(made) == 2
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in made)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_model_stage_of_a_later_range_propagates(self, monkeypatch, jobs):
        # ranges of 16 points, each two blocks of 8 points and one of their
        # atom-free points; the fourth range's model stage fails. Every
        # block of the three ranges before it runs, and none after it
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 8)
        monkeypatch.setattr(sweep, "_STAGE_POINTS", 16)
        made = recorded_threads(monkeypatch)
        before = threading.active_count()
        stage_of, evaluate_block = sweep._ModelStage.of, sweep._evaluate_block
        evaluated = []

        def of(points, lo, hi, modes):
            if lo == 48:
                raise SimulationError("fourth range failed")
            return stage_of(points, lo, hi, modes)

        def block(*args):
            evaluated.append(1)
            return evaluate_block(*args)

        monkeypatch.setattr(sweep._ModelStage, "of", of)
        monkeypatch.setattr(sweep, "_evaluate_block", block)
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 161)  # 11 ranges
        with pytest.raises(SimulationError, match="fourth range failed"):
            run_sweep(spec, jobs=jobs)
        assert len(made) == jobs - 1
        assert len(evaluated) == 3 * 3
        assert threading.active_count() == before

    def test_stages_equal_serial_and_stay_few(self, monkeypatch):
        # stages of 16 points, in two blocks of 8 points and one block of
        # their atom-free points: the pool solves the blocks of at most two
        # ranges of stages while the calling thread computes the next one,
        # however many stages the grid has; each range is a stage of the
        # points and one of their atom-free points
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
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 161)  # 11 ranges
        results = {jobs: run_sweep(spec, jobs=jobs) for jobs in (1, 2, 3)}
        assert max(counts) <= 3 * 2
        serial = results[1]
        assert serial.error_count() > 1
        for result in results.values():
            for column in ("stable", "max_real_part", "e_n", "baseline_e_n"):
                assert np.array_equal(getattr(result, column), getattr(serial, column),
                                      equal_nan=True), column
            assert result.failures == serial.failures

    def test_a_slow_block_holds_back_the_range_two_after_it(self, monkeypatch):
        # three threads and ranges of three blocks: while the first block
        # takes 0.2 s, the other two threads go on to the next range, but do
        # not compute the third range's stages until that block has ended
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 8)
        monkeypatch.setattr(sweep, "_STAGE_POINTS", 16)
        live = weakref.WeakSet()
        counts, events = [], []
        stage_of, evaluate_block = sweep._ModelStage.of, sweep._evaluate_block

        def of(points, lo, hi, modes):
            stage = stage_of(points, lo, hi, modes)
            live.add(stage)
            counts.append(len(live))
            events.append(lo)
            return stage

        def block(*args):
            counts.append(len(live))
            if "slow" not in events:
                events.append("slow")
                time.sleep(0.2)
                events.append("slow done")
            return evaluate_block(*args)

        monkeypatch.setattr(sweep._ModelStage, "of", of)
        monkeypatch.setattr(sweep, "_evaluate_block", block)
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 161)  # 11 ranges
        assert_same_bits(run_sweep(spec, jobs=3), run_sweep(spec))
        assert events.index(16) < events.index("slow done") < events.index(32)
        assert max(counts) <= 3 * 2

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
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 161)  # 21 blocks of points
        with pytest.raises(SimulationError, match="fifth block failed"):
            run_sweep(spec, jobs=2)
        assert len(started) < 21

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_no_sweep_imports_concurrent_futures_or_logging(self, tmp_path, jobs):
        # two usable CPUs, so that --jobs 2 starts a thread on any machine
        script = (
            "import sys, threading\n"
            "from oemsim import cli, sweep\n"
            "sweep._usable_cpus = lambda: 2\n"
            "class Counted(threading.Thread):\n"
            "    started = 0\n"
            "    def start(self):\n"
            "        Counted.started += 1\n"
            "        super().start()\n"
            "threading.Thread = Counted\n"
            f"code = cli.main(['sweep', '--preset', 'fig3', '--out', {str(tmp_path / 'x.csv')!r},"
            f" '--jobs', {jobs!r}])\n"
            "print(code, Counted.started, 'concurrent.futures' in sys.modules,"
            " 'logging' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", str(int(jobs) - 1), "False", "False"]

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


def recorded_threads(monkeypatch):
    """The threads that are made while monkeypatch holds, as they are made."""
    made = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(threading, "Thread", Recorded)
    return made


class TestUsableCpus:
    """The threads of a sweep are capped at the CPUs that the process may
    run on, not at the machine's."""

    def test_an_affinity_of_one_cpu_starts_no_thread(self, monkeypatch):
        # as under taskset -c 0 on a machine of two CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        made = recorded_threads(monkeypatch)
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 2 * BLOCK_POINTS + 1)
        assert sweep._usable_cpus() == 1
        assert_same_bits(run_sweep(spec, jobs=2), run_sweep(spec))
        assert made == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        run_sweep(spec, jobs=2)
        assert len(made) == 1

    def test_without_an_affinity_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, usable in ((6, 6), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert sweep._usable_cpus() == usable


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
                            lambda a, **route: sizes.append(len(a)) or real(a, **route))
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
        calls = Counter()  # the problems that eig and eigvals get, by size
        for routine in ("eig", "eigvals"):
            real = getattr(np.linalg, routine)
            monkeypatch.setattr(np.linalg, routine,
                                lambda a, real=real: calls.update([a.shape[-1]] * len(a))
                                or real(a))
        for name in names:
            calls.clear()
            assert_same_bits(run_sweep(preset(name)), cold[name])
            assert set(calls) == ({6, 10} if name == "fig6a" else set()), name

    def test_temperature_sweep_decomposes_two_blocks(self, decomposed):
        # one stage, one drift per point set: the points' eight blocks are
        # seven of 125 points and one of 126, their atom-free points' three
        # one of 333 and two of 334, and the first block of each length is
        # decomposed, so the memo ends with four keys
        spec = along_temperature(preset("fig6a"), 1001)
        assert spec.count <= sweep._STAGE_POINTS
        result = run_sweep(spec)
        assert decomposed == [125, 126, 333, 334]
        assert len(sweep._DRIFT_MEMO._held) == 4
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
        # the warm run decomposes nothing
        assert decomposed[blocks:] == []
        assert fallbacks == 2 * cold_fallbacks
        assert_same_bits(warm, cold)
        assert warm.records == cold.records
        if name == "unstable_drift":
            assert not cold.stable.any() and not cold.failures
        elif name == "fallback":
            # x = 0's problem and its atom-free one, one per point set
            assert cold_fallbacks == [1, 1] and not cold.failures
        else:
            assert cold.failures == dict.fromkeys(range(spec.count), model.POLE_MESSAGE)

    def test_long_sweep_of_distinct_drifts_keeps_nothing(self, decomposed):
        # one stage: its four blocks, and their atom-free points' two, are
        # kept
        run_sweep(preset("fig6a"))
        assert len(sweep._DRIFT_MEMO._held) == len(decomposed) == 4 + 2
        decomposed.clear()
        spec = narrowed(preset("fig6a"), -2.0, 2.0, 2 * sweep._STAGE_POINTS + 1)
        run_sweep(spec)
        stages = -(-spec.count // sweep._STAGE_POINTS)
        # stages of 1024, 1024 and 1 points: 8, 8 and 1 blocks of the
        # points, and 3, 3 and 1 of their atom-free points
        assert stages == 3 and len(decomposed) == 17 + 7
        assert sweep._DRIFT_MEMO._held == {}

    def test_sweep_of_one_stage_drops_the_drifts_it_does_not_pose(self, decomposed):
        run_sweep(preset("fig6a"))
        run_sweep(preset("fig6b"))  # fig6a's drifts: nothing decomposed, all kept
        assert len(sweep._DRIFT_MEMO._held) == len(decomposed) == 4 + 2
        run_sweep(preset("fig2"))
        assert len(sweep._DRIFT_MEMO._held) == len(decomposed) - (4 + 2) > 0

    def test_single_point_leaves_the_memo_alone(self, decomposed):
        # a point between fig6a and fig6b neither prunes fig6a's drifts from
        # the memo nor stores its own, so fig6b still decomposes nothing
        run_sweep(preset("fig6a"))
        held = dict(sweep._DRIFT_MEMO._held)
        spec = preset("fig6a")
        evaluate_point(spec.base, spec.pairs, baseline=True)
        after = sweep._DRIFT_MEMO._held
        assert after.keys() == held.keys()
        assert all(after[key] is held[key] for key in held)
        decomposed.clear()
        run_sweep(preset("fig6b"))
        assert decomposed == []

    def test_threads_share_the_memo(self, monkeypatch, decomposed):
        # more threads than CPUs and a short switch interval, over 25 blocks
        # of 8 points that pose one drift and 10 blocks of 20 of their
        # atom-free points that pose another: whatever the interleaving, the
        # results equal the serial run's and the memo holds one key per
        # point set
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(sweep, "BLOCK_POINTS", 8)
        spec = along_temperature(preset("fig6a"), 200)
        serial = run_sweep(spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                sweep._DRIFT_MEMO.clear()
                assert_same_bits(run_sweep(spec, jobs=8), serial)
                assert len(sweep._DRIFT_MEMO._held) == 2
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
