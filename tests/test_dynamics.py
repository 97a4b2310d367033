"""Drift/diffusion assembly, stability gate, and the Lyapunov solver."""

import contextlib
import dataclasses
import io
import math
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import test_sweep as _sweep_tests
from _support import OMEGA_M, TWO_PI, atom_free_problem, base_params
from oemsim import (
    PRESET_NAMES,
    SimulationError,
    SingularityError,
    StabilityError,
    SteadyState,
    SystemParameters,
    build_diffusion,
    build_drift,
    evaluate_point,
    is_stable,
    preset,
    run_sweep,
    solve_lyapunov,
    solve_steady_state,
    thermal_occupation,
)
from oemsim import BIPARTITE_PAIRS, dynamics, extract_bipartite, log_negativity, sweep, verify
from oemsim.model import parameter_block


def drift_at(params):
    return build_drift(params, solve_steady_state(params))


def random_stable(rng, n, margin=0.5):
    m = rng.normal(size=(n, n))
    shift = np.max(np.linalg.eigvals(m).real) + margin
    return m - shift * np.eye(n)


class TestDrift:
    def test_nonzero_pattern_and_values(self):
        # generic populations so no structural entry cancels
        p = base_params(rho_aa0=0.3, rho_cc0=0.5, rho_ca0=0.2,
                        delta_c=0.7 * OMEGA_M, delta_w=1.3 * OMEGA_M)
        ss = solve_steady_state(p)
        a = build_drift(p, ss)
        n = p.r_a / p.kappa_a
        expected = {
            (0, 1): p.omega_m,
            (1, 0): -p.omega_m, (1, 1): -p.gamma_m, (1, 2): ss.g_c, (1, 4): ss.g_w,
            (2, 2): -p.kappa_c, (2, 3): p.delta_c, (2, 7): p.g, (2, 9): p.g,
            (3, 0): ss.g_c, (3, 2): -p.delta_c, (3, 3): -p.kappa_c,
            (3, 6): -p.g, (3, 8): -p.g,
            (4, 4): -p.kappa_w, (4, 5): p.delta_w,
            (5, 0): ss.g_w, (5, 4): -p.delta_w, (5, 5): -p.kappa_w,
            (6, 3): p.g * n * (p.rho_ca0 - p.rho_aa0),
            (6, 6): -p.kappa_a, (6, 7): p.delta_a1,
            (7, 2): p.g * n * (p.rho_ca0 + p.rho_aa0),
            (7, 6): -p.delta_a1, (7, 7): -p.kappa_a,
            (8, 3): p.g * n * (p.rho_cc0 - p.rho_ca0),
            (8, 8): -p.kappa_a, (8, 9): -p.delta_a2,
            (9, 2): -p.g * n * (p.rho_cc0 + p.rho_ca0),
            (9, 8): p.delta_a2, (9, 9): -p.kappa_a,
        }
        assert a.shape == (10, 10)
        nonzero = set(zip(*np.nonzero(a)))
        assert nonzero == set(expected)
        for (i, j), value in expected.items():
            assert a[i, j] == value / OMEGA_M

    def test_balanced_populations_cancel_position_couplings(self):
        a = drift_at(base_params())  # populations and coherence all 0.5
        assert a[6, 3] == 0.0
        assert a[8, 3] == 0.0
        assert np.count_nonzero(a) == 29

    def test_atom_decoupling_at_zero_coupling(self):
        a = drift_at(base_params(g=0.0))
        assert np.all(a[:6, 6:] == 0.0)
        assert np.all(a[6:, :6] == 0.0)
        # atomic corner keeps its decay and detuning rotation
        assert a[6, 6] == -base_params().kappa_a / OMEGA_M
        assert a[6, 7] != 0.0


class TestDiffusion:
    def test_entries(self):
        p = base_params()
        d = build_diffusion(p)
        n_m = thermal_occupation(p.omega_m, p.temperature)
        n_w = thermal_occupation(p.omega_w, p.temperature)
        expect = np.diag([
            0.0, p.gamma_m * (2.0 * n_m + 1.0),
            p.kappa_c, p.kappa_c,
            p.kappa_w * (2.0 * n_w + 1.0), p.kappa_w * (2.0 * n_w + 1.0),
            p.kappa_a, p.kappa_a, p.kappa_a, p.kappa_a,
        ])
        assert np.array_equal(d, expect / OMEGA_M)

    def test_thermal_entries_use_occupations_at_base_point(self):
        # resonator and microwave cavity both at omega_m and 15 mK
        p = base_params()
        d = build_diffusion(p)
        n = thermal_occupation(OMEGA_M, 15e-3)
        assert d[1, 1] == p.gamma_m * (2.0 * n + 1.0) / OMEGA_M
        assert d[4, 4] == p.kappa_w * (2.0 * n + 1.0) / OMEGA_M

    def test_zero_temperature_drops_thermal_factors(self):
        p = base_params(temperature=0.0)
        d = build_diffusion(p)
        assert d[1, 1] == p.gamma_m / OMEGA_M
        assert d[4, 4] == p.kappa_w / OMEGA_M

    def test_block_factor_that_divides_by_zero_does_not_warn(self):
        # a tiny microwave frequency at a huge temperature: the factor's
        # exponent underflows to 0, so 1 / (1 - e^0) divides by zero; the
        # block's columns give inf as the single point's floats do, without
        # a warning, also outside a sweep's own errstate
        base = preset("fig5").base.replace(omega_w=1e-280)
        block = parameter_block(base, "temperature", [1e299, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = dynamics._diffusion_entries(block)
            single = dynamics._diffusion_entries(base.replace(temperature=1e300))
        microwave = entries[3:5]
        assert all(np.isinf(column).all() for column in microwave)
        assert single[3] == single[4] == math.inf
        assert np.isfinite(entries[0]).all()  # the resonator's factor stays finite


class TestStabilityGate:
    def test_clear_cases(self):
        assert is_stable(np.diag([-1.0, -2.0])).stable
        assert is_stable(np.diag([-1.0, -2.0])).max_real_part == -1.0
        assert not is_stable(np.diag([-1.0, 1.0])).stable

    def test_marginal_spectra_rejected(self):
        assert not is_stable(np.diag([-1.0, -5e-13])).stable
        assert is_stable(np.diag([-1.0, -2e-12])).stable
        assert not is_stable(np.zeros((3, 3))).stable

    def test_non_finite_rejected(self):
        bad = np.diag([-1.0, np.nan])
        with pytest.raises(SimulationError):
            is_stable(bad)

    def test_eigensolver_failure_raises(self, monkeypatch):
        lapack_fails(monkeypatch, "eigvals", 1)
        with pytest.raises(SimulationError, match=f"^{LAPACK_FAILURE}$"):
            is_stable(np.diag([-1.0, -2.0]))


class TestLyapunovSolver:
    def test_identity_case(self):
        v = solve_lyapunov(-np.eye(10), np.eye(10))
        assert np.allclose(v, 0.5 * np.eye(10), atol=1e-14)

    def test_damped_oscillator_thermal_state(self):
        # detailed balance: variance (n + 1/2) in both quadratures
        n = 3.0
        gamma = 0.1
        a = np.array([[0.0, 1.0], [-1.0, -gamma]])
        d = np.diag([0.0, gamma * (2.0 * n + 1.0)])
        v = solve_lyapunov(a, d)
        assert np.allclose(v, (n + 0.5) * np.eye(2), atol=1e-12 * (n + 0.5))

    def test_scale_invariance(self):
        p = base_params(g=TWO_PI * 1e5, r_a=2000.0, kappa_c=0.08 * OMEGA_M,
                        gamma_m=OMEGA_M / 5e4,
                        delta_a1=TWO_PI * 1e7, delta_a2=TWO_PI * 1e7)
        ss = solve_steady_state(p)
        a, d = build_drift(p, ss), build_diffusion(p)
        v_dim = solve_lyapunov(a, d)
        v_phys = solve_lyapunov(a * OMEGA_M, d * OMEGA_M)
        assert np.max(np.abs(v_dim - v_phys)) <= 1e-12 * np.max(np.abs(v_dim))

    def test_unstable_drift_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    def test_near_marginal_system_warns(self):
        a = np.diag([-1.5e-12, -10.0, -10.0, -10.0])
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            v = solve_lyapunov(a, np.eye(4))
        assert v[0, 0] == pytest.approx(1.0 / 3e-12, rel=1e-9)

    def test_ill_conditioning_warning_names_the_caller(self):
        a = np.diag([-1.5e-12, -10.0, -10.0, -10.0])
        with pytest.warns(RuntimeWarning, match="ill-conditioned") as record:
            solve_lyapunov(a, np.eye(4))
        assert [w.filename for w in record] == [__file__]

    def test_non_finite_diffusion_raises_simulation_error(self):
        d = np.eye(3)
        d[1, 1] = np.nan
        with pytest.raises(SimulationError, match="diffusion matrix contains non-finite"):
            solve_lyapunov(-np.eye(3), d)

    def test_eigensolver_failure_raises_simulation_error(self, monkeypatch):
        lapack_fails(monkeypatch, "eig", 1)
        with pytest.raises(SimulationError, match=f"^{LAPACK_FAILURE}$"):
            solve_lyapunov(-np.eye(3), np.eye(3))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_systems_solve_within_residual_bound(self, seed):
        rng = np.random.default_rng(seed)
        a = random_stable(rng, 5)
        r = rng.normal(size=(5, 5))
        d = r @ r.T + 0.1 * np.eye(5)
        v = solve_lyapunov(a, d)  # residual bound enforced internally
        assert np.array_equal(v, v.T)
        assert np.min(np.linalg.eigvalsh(v)) > 0.0

    def test_atom_free_block_reduction(self):
        p = base_params(g=0.0, r_a=0.0)
        ss = solve_steady_state(p)
        a = build_drift(p, ss)
        d = build_diffusion(p)
        assert np.all(a[:6, 6:] == 0.0) and np.all(a[6:, :6] == 0.0)
        v_full = solve_lyapunov(a, d)
        v_reduced = solve_lyapunov(a[:6, :6], d[:6, :6])
        scale = np.max(np.abs(v_reduced))
        assert np.max(np.abs(v_full[:6, :6] - v_reduced)) <= 1e-10 * scale
        # decoupled undriven quasi-modes sit at the vacuum
        assert np.allclose(v_full[6:, 6:], 0.5 * np.eye(4), atol=1e-12)
        assert np.max(np.abs(v_full[:6, 6:])) <= 1e-12


def residual_ratio(a, d, v):
    """Lyapunov residual over the bound that solve_lyapunov enforces."""
    residual = np.max(np.abs(a @ v + v @ a.T + d))
    return residual / (dynamics.RESIDUAL_TOL * max(
        np.max(np.abs(a)) * np.max(np.abs(v)), np.max(np.abs(d))))


def preset_point(name, x):
    spec = preset(name)
    p = spec.base.replace(**{spec.varied: x * spec.axis_scale})
    return drift_at(p), build_diffusion(p)


def bartels_stewart(a, d):
    """Symmetrized scipy Bartels-Stewart solution, independent of oemsim's
    solvers."""
    v = scipy.linalg.solve_continuous_lyapunov(a, -d)
    return 0.5 * (v + v.T)


@pytest.fixture
def fallback_calls(monkeypatch):
    """Records the stack of drifts of each direct fallback call."""
    calls = []
    real = dynamics._kronecker_lyapunov

    def counted(a, d):
        calls.append(a)
        return real(a, d)

    monkeypatch.setattr(dynamics, "_kronecker_lyapunov", counted)
    return calls


def strongly_non_normal_point():
    """test_verify's resonant optics with strong atoms: eigenvector condition
    about 1e17."""
    p = base_params(kappa_c=0.02 * OMEGA_M, g=TWO_PI * 1e6, r_a=1.6e7,
                    delta_a1=TWO_PI * 1e6, delta_a2=TWO_PI * 1e6, delta_c=0.0)
    return drift_at(p), build_diffusion(p)


def jordan_block_point():
    """An exactly defective drift: a 4x4 Jordan block at -0.5 beside a stable
    diagonal, with a full-rank diagonal diffusion."""
    a = np.diag([-0.5] * 4 + [-1.0, -2.0, -0.1, -3.0, -0.7, -1e-3])
    a[[0, 1, 2], [1, 2, 3]] = 1.0
    return a, np.diag(np.linspace(0.5, 2.0, 10))


def stable_problems(name):
    """The drift and diffusion stacks of a preset's stable grid points."""
    problems = [preset_point(name, float(x)) for x in preset(name).grid()]
    problems = [(a, d) for a, d in problems if is_stable(a).stable]
    return np.array([a for a, _ in problems]), np.array([d for _, d in problems])


FALLBACK_CASES = {
    "fig3": lambda: preset_point("fig3", 0.0),
    "fig5": lambda: preset_point("fig5", 0.0),
    "non_normal": strongly_non_normal_point,
    "jordan": jordan_block_point,
}


class TestLyapunovOperator:
    """The fallback's operators on the unknowns of a symmetric solution are
    the oracle's, entry for entry and bit for bit, built from their own maps:
    production imports nothing from verify."""

    @staticmethod
    def assert_oracle_operators(a):
        ops = dynamics._lyapunov_operators(a)
        assert ops.shape == (len(a), *(2 * (a.shape[-1] * (a.shape[-1] + 1) // 2,)))
        for k, (a_k, op) in enumerate(zip(a, ops)):
            want, _, _ = verify._lyapunov_operator(a_k)
            assert op.tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_random_drifts(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((5, n, n))
        a[0] = 0.0  # an all-zero drift gives an all-+0.0 operator
        a[1, 0, 1] = -0.0
        self.assert_oracle_operators(a)

    def test_preset_fallback_problems(self, fallback_calls):
        for name in PRESET_NAMES:
            run_sweep(preset(name))
        # five problems in five calls: atom-free ones of fig2, fig3 and
        # fig4, and one with atoms of fig3 and of fig5
        assert sorted(a.shape for a in fallback_calls) == [(1, 6, 6)] * 3 + [(1, 10, 10)] * 2
        for a in fallback_calls:
            self.assert_oracle_operators(a)


class TestBatchedLyapunovSolver:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_agrees_with_bartels_stewart_on_every_stable_preset_point(self, name):
        a_stack, d_stack = stable_problems(name)
        batch = dynamics.solve_lyapunov_batch(a_stack, d_stack)
        assert batch.errors == {}
        assert batch.stable.all()
        eps = float(np.finfo(float).eps)
        for a, d, v in zip(a_stack, d_stack, batch.v):
            ref = bartels_stewart(a, d)
            ev = np.linalg.eigvals(a)
            sums = np.abs(ev[:, None] + ev[None, :])
            kappa = sums.max() / sums.min()  # pair-sum condition estimate
            assert np.max(np.abs(v - ref)) <= 100.0 * eps * kappa * np.max(np.abs(ref))

    @staticmethod
    def mixed_stack(a, d):
        """a and d with a non-finite, an unstable and a fallback problem put in
        front of members 0, 1 and 2; returns the stacks and the positions of
        the original members."""
        bad = a[0].copy()
        bad[0, 0] = np.nan
        unstable = -a[1]
        a_fb, d_fb = FALLBACK_CASES["jordan"]()
        extra_a, extra_d = [bad, unstable, a_fb], [d[0], d[1], d_fb]
        a_mix = np.insert(a, [0, 1, 2], np.array(extra_a), axis=0)
        d_mix = np.insert(d, [0, 1, 2], np.array(extra_d), axis=0)
        shared = np.setdiff1d(np.arange(len(a_mix)), [0, 2, 4])
        return a_mix, d_mix, shared

    def test_whole_stack_and_gathered_solves_agree_bit_for_bit(self, fallback_calls):
        a, d = stable_problems("fig5")
        whole = dynamics.solve_lyapunov_batch(a, d)
        assert whole.errors == {} and whole.stable.all()
        a_mix, d_mix, shared = self.mixed_stack(a, d)
        mixed = dynamics.solve_lyapunov_batch(a_mix, d_mix)
        assert set(mixed.errors) == {0}
        assert not mixed.stable[2] and mixed.stable[4]
        assert any((call == a_mix[4]).all(axis=(1, 2)).any() for call in fallback_calls)
        assert np.array_equal(mixed.v[shared], whole.v)
        assert np.array_equal(mixed.max_real_part[shared], whole.max_real_part)
        assert np.array_equal(mixed.stable[shared], whole.stable)

    def test_inputs_are_left_as_they_were(self):
        a, d = stable_problems("fig5")
        a_mix, d_mix, _ = self.mixed_stack(a, d)
        for a_st, d_st in [(a, d), (a_mix, d_mix)]:
            before = a_st.tobytes(), d_st.tobytes()
            batch = dynamics.solve_lyapunov_batch(a_st, d_st)
            assert (a_st.tobytes(), d_st.tobytes()) == before
            assert not np.shares_memory(batch.v, a_st)
            assert not np.shares_memory(batch.v, d_st)

    def test_solutions_keep_the_bits_of_fresh_intermediates(self, fallback_calls):
        # the eigenbasis formulas with a fresh array for every step, compared
        # byte for byte, so that an exact zero keeps its sign too; fig2's
        # atom-free problems carry exact zeros in their decoupled corner
        spec = preset("fig2")
        problems = [atom_free_problem(spec.base.replace(delta_c=x * spec.axis_scale))
                    for x in spec.grid()[1::4]]
        problems = [(a, d) for a, d in problems if is_stable(a).stable]
        a = np.array([a for a, _ in problems])
        d = np.array([d for _, d in problems])
        batch = dynamics.solve_lyapunov_batch(a, d)
        assert batch.errors == {} and batch.stable.all() and fallback_calls == []
        lam, s = np.linalg.eig(a)
        lam, s = lam.astype(complex), s.astype(complex)
        s_inv = np.linalg.solve(s, np.broadcast_to(np.eye(10), s.shape))
        c = s_inv @ d @ np.swapaxes(s_inv, 1, 2)
        w = -c / (lam[:, :, None] + lam[:, None, :])
        x = (s @ w @ np.swapaxes(s, 1, 2)).real
        assert batch.v.tobytes() == (0.5 * (x + np.swapaxes(x, 1, 2))).tobytes()

    def test_block_solve_holds_few_complex_stacks(self):
        # a sweep's 64-problem block, all stable: the solve's temporaries
        # peak below six complex (64, 10, 10) stacks, where forming each
        # intermediate afresh needs nearly nine
        a, d = stable_problems("fig5")
        a, d = a[:64].copy(), d[:64].copy()
        dynamics.solve_lyapunov_batch(a, d)
        stack = a.size * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            batch = dynamics.solve_lyapunov_batch(a, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(a) == 64 and batch.errors == {} and batch.stable.all()
        assert peak <= 6 * stack

    @pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
    def test_defective_point_takes_the_fallback(self, name, fallback_calls):
        a, d = FALLBACK_CASES[name]()
        batch = dynamics.solve_lyapunov_batch(a[None], d[None])
        assert len(fallback_calls) == 1
        assert batch.errors == {}
        assert residual_ratio(a, d, batch.v[0]) <= 1.0
        ref = bartels_stewart(a, d)
        assert np.max(np.abs(batch.v[0] - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_direct_fallback_solves_an_ill_conditioned_drift(self, fallback_calls):
        # fig5 at x = 0 with a light resonator and a far-detuned microwave
        # cavity: the eigenbasis solve misses the residual bound
        p = preset("fig5").base.replace(delta_c=0.0, power_w=0.34, mass=3.7e-13,
                                        delta_w=2.9e8, omega_w=3.7e8, kappa_a=890.0)
        a, d = drift_at(p), build_diffusion(p)
        batch = dynamics.solve_lyapunov_batch(a[None], d[None])
        assert batch.errors == {}
        assert len(fallback_calls) == 1
        assert residual_ratio(a, d, batch.v[0]) <= 1.0
        ref = bartels_stewart(a, d)
        assert np.max(np.abs(batch.v[0] - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("base, changes", [
        # stable wide draws (five fields scaled by 10^-3 to 10^3 around a preset)
        # that the matrix-sign-function fallback left as error records
        ("fig3", dict(power_w=0.063, g=5.7e7, r_a=2.9e5, kappa_a=6500.0,
                      gamma_m=85.0, delta_c=0.0)),
        ("fig5", dict(power_w=0.017, power_c=19.0, g=6.2e8, kappa_w=3.7e8,
                      plate_gap=3.2e-9, delta_c=0.0)),
        ("fig5", dict(gamma_m=26.0, kappa_a=1.5e4, g=2.1e7, mass=5.8e-12,
                      delta_w=1.3e8, delta_c=0.0)),
        ("fig5", dict(kappa_w=3.7e8, kappa_a=2300.0, omega_w=4.9e5, r_a=4.4e7,
                      mass=3.3e-13, delta_c=0.0)),
    ])
    def test_wide_draw_fallback_passes_the_residual_bound(self, base, changes,
                                                          fallback_calls):
        p = preset(base).base.replace(**changes)
        a, d = drift_at(p), build_diffusion(p)
        batch = dynamics.solve_lyapunov_batch(a[None], d[None])
        assert batch.errors == {}
        assert len(fallback_calls) == 1
        assert residual_ratio(a, d, batch.v[0]) <= 1.0

    def test_singular_operator_is_named_in_the_error(self, fallback_calls):
        # condition number about 5e19: LU meets an exactly zero pivot
        p = preset("fig5").base.replace(g=1.8e8, omega_w=2e5, kappa_a=2.6e3,
                                        delta_w=2e10, power_c=0.07, delta_c=0.0)
        a, d = drift_at(p), build_diffusion(p)
        batch = dynamics.solve_lyapunov_batch(a[None], d[None])
        assert len(fallback_calls) == 1
        assert type(batch.errors[0]) is SimulationError
        message = str(batch.errors[0])
        assert "singular" in message and "nan" not in message.lower()
        with pytest.raises(SimulationError, match="Lyapunov operator is singular"):
            solve_lyapunov(a, d)

    def test_block_sends_its_fallback_problems_in_one_call(self, fallback_calls):
        cases = [FALLBACK_CASES[c]() for c in sorted(FALLBACK_CASES)]
        a_well, d_well = preset_point("fig3", 1.0)
        a = np.array([a_well] + [a for a, _ in cases])
        d = np.array([d_well] + [d for _, d in cases])
        batch = dynamics.solve_lyapunov_batch(a, d)
        assert batch.errors == {}
        assert len(fallback_calls) == 1
        assert np.array_equal(fallback_calls[0], a[1:])
        for k in range(len(a)):  # no problem's result depends on the stack
            assert np.array_equal(solve_lyapunov(a[k], d[k]), batch.v[k])

    def test_well_conditioned_point_stays_on_the_eigenbasis(self, fallback_calls):
        a, d = preset_point("fig3", 1.0)
        batch = dynamics.solve_lyapunov_batch(a[None], d[None])
        assert fallback_calls == []
        assert residual_ratio(a, d, batch.v[0]) <= 1.0

    def test_failed_fallback_is_reported_not_raised(self, monkeypatch, fallback_calls):
        monkeypatch.setattr(dynamics, "RESIDUAL_TOL", 0.0)
        a, d = preset_point("fig3", 0.0)
        batch = dynamics.solve_lyapunov_batch(a[None], d[None])
        assert len(fallback_calls) == 1
        assert set(batch.errors) == {0}
        assert "Lyapunov residual" in str(batch.errors[0])
        assert np.isnan(batch.v[0]).all()

    def test_singular_fallback_solve_is_reported_not_raised(self, monkeypatch):
        real = np.linalg.solve
        calls = []

        def solve(a, b):  # the eigenbasis inverse passes, the fallback's fail
            calls.append(1)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(a, b)

        monkeypatch.setattr(dynamics.np.linalg, "solve", solve)
        a, d = preset_point("fig3", 0.0)
        batch = dynamics.solve_lyapunov_batch(a[None], d[None])
        assert len(calls) > 1
        assert set(batch.errors) == {0}
        assert str(batch.errors[0]) == "Lyapunov operator is singular to working precision"
        assert np.isnan(batch.v[0]).all()

    def test_singular_member_leaves_the_rest_of_the_stack_alone(self):
        z = np.array([np.ones((3, 3)), np.diag([1.0, 2.0, 4.0])])
        b = np.broadcast_to(np.eye(3), z.shape)
        solutions = dynamics._solve(z, b)
        assert np.isnan(solutions[0]).all()
        assert np.array_equal(solutions[1], np.linalg.inv(z[1]))

    def test_singular_member_with_a_shared_right_hand_side(self):
        # S^-1 takes one identity, a stack of one that solve broadcasts;
        # where a member is singular, the fallback broadcasts it itself
        z = np.array([np.ones((3, 3)), np.diag([1.0, 2.0, 4.0])])
        solutions = dynamics._solve(z, np.eye(3)[None])
        assert solutions.shape == z.shape
        assert np.isnan(solutions[0]).all()
        assert np.array_equal(solutions[1], np.linalg.inv(z[1]))

    def test_non_finite_drift_is_reported_not_raised(self):
        a, d = preset_point("fig3", 1.0)
        bad = a.copy()
        bad[0, 0] = np.nan
        batch = dynamics.solve_lyapunov_batch(np.array([bad, a]), np.array([d, d]))
        assert set(batch.errors) == {0}
        assert "non-finite" in str(batch.errors[0])
        assert batch.stable[1] and not np.isnan(batch.v[1]).any()

    def test_non_finite_diffusion_is_reported_not_raised(self):
        a, d = preset_point("fig3", 1.0)
        bad = d.copy()
        bad[1, 1] = np.inf
        batch = dynamics.solve_lyapunov_batch(np.array([a, a]), np.array([d, bad]))
        assert set(batch.errors) == {1}
        assert "diffusion matrix contains non-finite" in str(batch.errors[1])
        assert np.isnan(batch.v[1]).all()
        assert np.array_equal(batch.v[0], solve_lyapunov(a, d))

    def test_single_solve_is_the_batch_member(self, fallback_calls):
        spec = preset("fig3")
        problems = [preset_point("fig3", float(x)) for x in spec.grid()]
        batch = dynamics.solve_lyapunov_batch(np.array([a for a, _ in problems]),
                                              np.array([d for _, d in problems]))
        assert batch.errors == {} and fallback_calls
        for (a, d), stable, v in zip(problems, batch.stable, batch.v):
            if stable:
                assert np.array_equal(solve_lyapunov(a, d), v)

    @pytest.mark.parametrize("x", [1.0, 0.0])
    def test_scipy_is_never_imported(self, x):
        script = (
            "import sys\n"
            "from oemsim import build_diffusion, build_drift, dynamics, preset, "
            "solve_lyapunov, solve_steady_state\n"
            "calls = []\n"
            "real = dynamics._kronecker_lyapunov\n"
            "dynamics._kronecker_lyapunov = lambda a, d: calls.append(1) or real(a, d)\n"
            "spec = preset('fig3')\n"
            f"p = spec.base.replace(delta_c={x} * spec.axis_scale)\n"
            "solve_lyapunov(build_drift(p, solve_steady_state(p)), build_diffusion(p))\n"
            "print(len(calls), 'scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(int(x == 0.0)), "False"]

    def test_fig3_sweep_process_never_imports_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "from oemsim import cli, dynamics\n"
            "calls = []\n"
            "real = dynamics._kronecker_lyapunov\n"
            "dynamics._kronecker_lyapunov = lambda a, d: calls.append(len(a)) or real(a, d)\n"
            f"code = cli.main(['sweep', '--preset', 'fig3', '--out', {str(tmp_path / 'fig3.csv')!r}])\n"
            "print(code, *calls, 'scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # fig3's two fallback problems, x = 0 with and without atoms, one
        # call each: the first in a block of the points, the second in a
        # block of their atom-free points
        assert proc.stdout.split() == ["0", "1", "1", "False"]


def lapack_versions():
    """numpy's version and the BLAS and LAPACK it was built with."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libs = "; ".join(f"{k} {deps[k].get('name')} {deps[k].get('version')}"
                         for k in ("blas", "lapack"))
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            np.show_config()
        libs = out.getvalue()
    return f"numpy {np.__version__}; {libs}"


def sweep_drifts(monkeypatch, spec):
    """The drift stack of each block of a sweep, as its gate decomposes it:
    also a block that ends at its gate, which poses no Lyapunov solve."""
    stacks = []
    real = dynamics._decompose
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_decompose", lambda a: stacks.append(a.copy()) or real(a))
        run_sweep(spec)
    return stacks


@pytest.fixture
def decompositions(monkeypatch):
    """Counts the calls of np.linalg.eig and eigvals, the problems they get,
    and those problems by size ("eig 6x6")."""
    counts = Counter()
    for name in ("eig", "eigvals"):
        def counted(a, name=name, real=getattr(np.linalg, name)):
            problems = len(a) if a.ndim == 3 else 1
            counts[name] += 1
            counts[f"{name} problems"] += problems
            counts[f"{name} {a.shape[-1]}x{a.shape[-1]}"] += problems
            return real(a)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


#: what a problem records where LAPACK fails on its stack
LAPACK_FAILURE = "eigensolver failed on drift matrix: Eigenvalues did not converge"


def lapack_fails(monkeypatch, name, call):
    """Patches np.linalg.eig or eigvals, as the decompositions fixture does,
    to raise LinAlgError on its call-th call. Returns the number of problems
    that each call got."""
    sizes = []

    def failing(a, real=getattr(np.linalg, name)):
        sizes.append(len(a) if a.ndim == 3 else 1)
        if len(sizes) == call:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, name, failing)
    return sizes


class TestSpectraWithoutEigenvectors:
    """LAPACK's dgeev runs the same balancing, Hessenberg reduction and QR
    iterations whether or not it computes eigenvectors, so eigvals gives the
    spectra of eig bit for bit. solve_lyapunov_batch's gate relies on that
    when a stack takes its spectra from eigvals: a numpy or LAPACK that
    breaks it fails here, not in the sweep outputs."""

    @staticmethod
    def assert_same_spectra(a, what):
        assert np.array_equal(np.linalg.eigvals(a), np.linalg.eig(a)[0]), (
            f"eigvals and eig give different spectra for {what} ({lapack_versions()})")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_block(self, name, monkeypatch):
        spec = preset(name)
        stacks = sweep_drifts(monkeypatch, spec)
        # the 401 points in four 10x10 blocks of at most 128; then their
        # atom-free points' bosonic modes in two 6x6 blocks of at most 355
        points = [(100, 10)] * 3 + [(101, 10)]
        shapes = [a.shape[:2] for a in stacks]
        if spec.baseline_pairs:
            assert shapes == [*points, (200, 6), (201, 6)]
        else:
            assert shapes == points
        for k, a in enumerate(stacks):
            self.assert_same_spectra(a, f"{name} block {k}")

    #: the points of the grid along each field: one block of each point set
    GRID_POINTS = 64
    #: the (problems, size) of each stack that a 64-point grid along a
    #: field poses, where it is not the points' one 10x10 stack and their
    #: atom-free points' 6x6 one
    GRID_STACKS = {
        # along g from 0: the point at g = 0 splits too, one of its groups
        # a row of the points' stage, the other solved once
        "g": [(1, 4), (1, 6), (63, 10), (1, 6)],
        # the atom-free points are all the same point: their bosonic group
        # once
        **dict.fromkeys(["r_a", "kappa_a", "rho_aa0", "rho_cc0", "rho_ca0",
                         "delta_a1", "delta_a2"], [(1, 6), (64, 10)]),
    }

    @pytest.mark.parametrize("name", _sweep_tests.FIELD_NAMES)
    def test_grid_along_every_field(self, name, monkeypatch):
        start, stop, scale = _sweep_tests.field_grid(name)
        spec = _sweep_tests.narrowed(preset("fig6a"), start, stop, self.GRID_POINTS,
                                     varied=name, axis_scale=scale)
        stacks = sweep_drifts(monkeypatch, spec)
        assert [a.shape[:2] for a in stacks] == self.GRID_STACKS.get(
            name, [(self.GRID_POINTS, 10), (self.GRID_POINTS, 6)])
        for k, a in enumerate(stacks):
            self.assert_same_spectra(a, f"stack {k} of the fig6a grid along {name}")

    def test_defective_problem_inside_a_stack(self, monkeypatch):
        a = sweep_drifts(monkeypatch, preset("fig3"))[3]
        a = np.insert(a, len(a) // 2, FALLBACK_CASES["jordan"]()[0], axis=0)
        self.assert_same_spectra(a, "fig3's block 3 with the Jordan problem")


def preset_problems(name, stable):
    """The drift and diffusion of a preset's main problems that are (or are
    not) stable, in grid order."""
    problems = [preset_point(name, float(x)) for x in preset(name).grid()[::7]]
    return [(a, d) for a, d in problems if is_stable(a).stable == stable]


def route_stacks():
    """Stacks named by what they hold around their stable (S) and unstable
    (U) preset problems."""
    u, s = preset_problems("fig2", False), preset_problems("fig2", True)
    nan_drift = s[0][0].copy()
    nan_drift[0, 0] = np.nan
    inf_diffusion = s[1][1].copy()
    inf_diffusion[1, 1] = np.inf
    warns = np.diag([-1.5e-12] + [-10.0] * 9), np.eye(10)  # condition 6.7e12
    return {
        "all_unstable": u[:6],
        "all_stable": s[:4],
        "stable_end": [s[0], u[0], s[1], u[1]],
        "stable_island": [u[0], u[1], s[0], s[1], s[2], u[2]],
        "non_finite_ends": [(nan_drift, s[0][1]), u[0], s[0], s[1], u[1],
                            (s[1][0], inf_diffusion)],
        "interior_fallback": [u[0], s[0], FALLBACK_CASES["jordan"](), s[1], u[1]],
        "interior_warning": [u[0], s[0], warns, s[1], u[1]],
    }


def outcome(a, d):
    """solve_lyapunov_batch on a stack: per problem the bytes of v and of
    the abscissa, the gate and the error message; and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = dynamics.solve_lyapunov_batch(a, d)
    problems = [(v.tobytes(), x.tobytes(), bool(ok), str(sol.errors.get(k)))
                for k, (v, x, ok) in enumerate(zip(sol.v, sol.max_real_part, sol.stable))]
    return problems, [(w.category, str(w.message)) for w in caught]


class TestSolveRoutes:
    """A stack whose end problems are unstable takes its spectra from
    eigvals and eig only on its stable problems; any other stack takes eig
    on the whole stack. Either way each problem's outcome is that of the
    problem solved alone, a stack of one, which is never probed."""

    @pytest.mark.parametrize("route", ["as_found", "eig", "spectra"])
    @pytest.mark.parametrize("name", sorted(route_stacks()))
    def test_route_gives_each_problem_its_own_outcome(self, name, route, monkeypatch,
                                                      decompositions):
        problems = route_stacks()[name]
        a = np.array([a for a, _ in problems])
        d = np.array([d for _, d in problems])
        alone = [outcome(a[k:k + 1], d[k:k + 1]) for k in range(len(a))]
        stable = sum(ok for (((_, _, ok, _),), _) in alone)
        if route != "as_found":
            monkeypatch.setattr(dynamics, "_has_stable", lambda spectra: route == "eig")
        decompositions.clear()
        together = outcome(a, d)
        assert together[0] == [problem for (problem,), _ in alone]
        assert together[1] == [w for _, caught in alone for w in caught]
        if name == "interior_warning":
            assert together[1]
        # the drift half of the solve decomposes every finite drift, whatever
        # its diffusion: non_finite_ends' last drift is finite and stable
        finite = len(a) - (name == "non_finite_ends")
        stable += name == "non_finite_ends"
        spectra = route == "spectra" or (route == "as_found" and name not in (
            "all_stable", "stable_end", "non_finite_ends"))
        # the two probe problems, then the spectra of the finite drifts
        # between them: the probed ends keep theirs
        assert decompositions["eigvals problems"] == 2 + spectra * (finite - 2)
        assert decompositions["eig problems"] == (stable if spectra else finite)
        assert decompositions["eig"] == (stable > 0 or not spectra)

    @pytest.mark.parametrize("name, routine, call, size", [
        ("all_unstable", "eigvals", 1, 2),
        ("stable_island", "eigvals", 2, 4),
        ("stable_end", "eig", 1, 4),
        ("all_stable", "eig", 1, 4),
        ("stable_island", "eig", 1, 3),
        ("non_finite_ends", "eig", 1, 5),
    ], ids=["probe", "spectra", "stack_eig", "whole_stack_eig", "stable_problems_eig",
            "finite_drifts_eig"])
    def test_eigensolver_failure_fails_every_finite_problem(self, name, routine, call,
                                                            size, monkeypatch):
        problems = route_stacks()[name]
        a = np.array([a for a, _ in problems])
        d = np.array([d for _, d in problems])
        sizes = lapack_fails(monkeypatch, routine, call)
        sol = dynamics.solve_lyapunov_batch(a, d)
        assert sizes[call - 1] == size  # the call site named by the id failed
        finite = np.flatnonzero(np.isfinite(a).all(axis=(1, 2))
                                & np.isfinite(d).all(axis=(1, 2))).tolist()
        errors = {k: str(exc) for k, exc in sol.errors.items()}
        assert {k: errors.pop(k, None) for k in finite} == dict.fromkeys(
            finite, LAPACK_FAILURE)
        # a non-finite problem keeps its own message
        assert errors == ({0: "drift matrix contains non-finite entries",
                           len(a) - 1: "diffusion matrix contains non-finite entries: "
                                       "(1, 1) = inf"}
                          if name == "non_finite_ends" else {})
        assert not sol.stable.any()
        assert np.isnan(sol.max_real_part).all() and np.isnan(sol.v).all()

    # fig3 from x = -1.5 to 2.5 at 401 points is stable at x = 0 and from
    # x = 0.52. Its eig calls: the points' blocks [100, 200), on its stable
    # problem x = 0 alone (the block's ends are unstable), [200, 300) and
    # [300, 401), on their whole stacks ([0, 100) has no stable problem);
    # then their atom-free points' blocks [0, 200) and [200, 401) alike
    @pytest.mark.parametrize("call, lo, hi", [(2, 200, 300), (1, 100, 200),
                                              (5, 200, 401), (4, 0, 200)], ids=[
        "stack_eig", "stable_problems_eig", "atom_free_stack_eig",
        "atom_free_stable_problems_eig"])
    def test_eigensolver_failure_fails_its_block_of_a_sweep(self, call, lo, hi,
                                                            monkeypatch):
        spec = _sweep_tests.narrowed(preset("fig3"), -1.5, 2.5, 401)
        clean = run_sweep(spec)
        sweep._DRIFT_MEMO.clear()  # else the clean run's eigenbases serve the next
        sizes = lapack_fails(monkeypatch, "eig", call)
        result = run_sweep(spec)
        assert sizes == [1, 100, 101, 1, 201]
        block = np.arange(lo, hi)
        assert clean.failures == {} and clean.x[150] == 0.0 and clean.stable[150]
        # a failure in a block of atom-free points is theirs, and says so
        message = (sweep._ATOM_FREE_TAG if call > 3 else "") + LAPACK_FAILURE
        assert result.failures == {int(i): message for i in block}
        rest = np.ones(spec.count, dtype=bool)
        rest[block] = False
        for column in ("stable", "max_real_part", "e_n", "baseline_e_n"):
            got, want = getattr(result, column), getattr(clean, column)
            assert got[rest].tobytes() == want[rest].tobytes(), column
        assert not result.stable[block].any()
        for column in ("max_real_part", "e_n", "baseline_e_n"):
            assert np.isnan(getattr(result, column)[block]).all(), column

    def test_calls_per_presets_pass(self, decompositions):
        # 40 blocks: 28 of the points, four 10x10 blocks per preset, and 12
        # of the 6x6 bosonic problems of their atom-free points, two per
        # preset, whose atomic corner is not posed (it was solved once per
        # sweep, a 4x4 eig: 22 eig calls on 2015 problems). 28 blocks are
        # decomposed: fig6b and fig6c pose fig6a's
        # drifts (temperature enters the diffusion alone), so their 12
        # blocks reuse fig6a's eigenbases. Every decomposed block probes its
        # 2 end problems with eigvals; the 12 blocks with unstable ends
        # then keep those spectra, take eigvals on the rest of their stack
        # and eig on their stable problems (here none has any), the others
        # eig on their whole stack. Taking eigvals on the whole stack of
        # those 12 blocks, ends again, a pass took it on 1656 problems
        # (840 10x10, 816 6x6). Decomposing every block took eigvals 134
        # times on 2934 problems and eig 55 times on 2474. With the atom-free problems as
        # a second half of each block of points, a pass took eigvals 49
        # times on 1862 problems and eig 23 times on 1824; as 10x10 blocks
        # of their own, eigvals 90 times on 1854 and eig 39 times on 1886;
        # as 6x6 blocks of 64 points, eigvals 90 times on 1854 and eig 45
        # times on 1892. Larger blocks that mix stable and unstable
        # problems take eig on more unstable ones.
        for name in PRESET_NAMES:
            run_sweep(preset(name))
        assert decompositions == {
            "eigvals": 40, "eigvals problems": 1632,
            "eigvals 10x10": 824, "eigvals 6x6": 808,
            "eig": 16, "eig problems": 2009,
            "eig 10x10": 1205, "eig 6x6": 804}

    @pytest.mark.parametrize("baseline", [False, True])
    def test_single_point_takes_one_eig(self, baseline, decompositions):
        # one eig per mode group: the point's ten modes, and its atom-free
        # point's bosonic modes
        spec = preset("fig6a")
        evaluate_point(spec.base, spec.pairs, baseline=baseline)
        assert decompositions == (
            {"eig": 2, "eig problems": 2, "eig 10x10": 1, "eig 6x6": 1}
            if baseline else {"eig": 1, "eig problems": 1, "eig 10x10": 1})
        decompositions.clear()
        solve_lyapunov(*preset_point("fig6a", 1.0))
        assert decompositions == {"eig": 1, "eig problems": 1, "eig 10x10": 1}

    @pytest.mark.parametrize("order", [4, 6, 10])
    def test_blocks_keep_stacks_where_eigvals_frees_the_lock(self, order):
        # numpy runs eigvals on a stack without the interpreter lock only
        # where its length times its matrix order exceeds 500 (measured). A
        # stage cut into blocks has more points than one block holds, and
        # its blocks differ by at most one point, so none is below half
        # that: a stage whose stack of its largest varying group is above
        # the size as a whole is above it in every block. At 6x6 and 10x10
        # that is every stage of 84 points or more
        for n in range(1, sweep._STAGE_POINTS + 1):
            shortest = min(block.stop - block.start for block in sweep._blocks(n, order))
            assert (shortest * order > 500) == (n * order > 500), n
            if order > 4 and n >= 84:
                assert shortest * order > 500, n

    def test_pooled_sweep_equals_serial(self, decompositions, monkeypatch):
        # fig6a at --jobs 2: two threads probe the blocks' 6x6 and 10x10
        # stacks, and the columns are the serial bits
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
        serial = run_sweep(preset("fig6a"))
        assert decompositions["eigvals 6x6"] > 0 and decompositions["eigvals 10x10"] > 0
        sweep._DRIFT_MEMO.clear()
        decompositions.clear()
        pooled = run_sweep(preset("fig6a"), jobs=2)
        assert decompositions["eigvals 6x6"] > 0 and decompositions["eigvals 10x10"] > 0
        for column in ("stable", "max_real_part", "e_n", "baseline_e_n"):
            assert getattr(pooled, column).tobytes() == getattr(serial, column).tobytes()

    def test_decoupled_stage_solves_its_mode_groups(self, decompositions, monkeypatch):
        # at g = 0 no entry links the bosonic modes with the atomic ones:
        # a sweep along delta_c solves a 6x6 stack per block, and its atomic
        # modes, which delta_c does not reach, once per model stage
        spec = _sweep_tests.narrowed(preset("fig6a"), -2.0, 2.0, 1500, baseline=False,
                                     base=preset("fig6a").base.replace(g=0.0))
        stacks = sweep_drifts(monkeypatch, spec)
        stages = -(-spec.count // sweep._STAGE_POINTS)
        # stages of 1024 and 476 points, whose largest varying groups are
        # 6x6: blocks of at most 355 points
        assert stages == 2
        assert [a.shape[:2] for a in stacks] == [
            (1, 4), (341, 6), (341, 6), (342, 6), (1, 4), (238, 6), (238, 6)]
        assert decompositions["eig 4x4"] == stages
        assert not decompositions["eig 10x10"] and not decompositions["eigvals 10x10"]
        assert decompositions["eig 6x6"] + decompositions["eigvals 6x6"] >= spec.count

    def test_atom_free_set_along_g_decomposes_one_problem(self, decompositions):
        # the atom-free point of every point along g is the same point: a
        # sweep of one stage decomposes its bosonic problem once, however
        # many blocks it has, and no atomic corner, while its points take a
        # 10x10 eig on every one of theirs
        base = preset("fig6a").base
        spec = _sweep_tests.narrowed(preset("fig6a"), 0.5, 2.0, 1000, varied="g",
                                     axis_scale=base.g)
        result = run_sweep(spec)
        assert spec.baseline and not result.failures
        assert not np.isnan(result.baseline_e_n).any()
        assert decompositions["eig 6x6"] == 1 and not decompositions["eig 4x4"]
        assert not decompositions["eigvals 6x6"] and not decompositions["eigvals 4x4"]
        assert decompositions["eig 10x10"] == spec.count


class TestUncoupledAtoms:
    """At g = 0 the atoms couple to no bosonic mode, so each problem is
    solved as its two mode groups: outside the atom-free points, the one
    input that splits."""

    def test_sweep_point_and_oracles_agree(self):
        fig2 = preset("fig2")
        base = fig2.base.replace(g=0.0)
        spec = _sweep_tests.narrowed(fig2, fig2.start, fig2.stop, fig2.count, base=base,
                                     pairs=tuple(BIPARTITE_PAIRS))
        result = run_sweep(spec)
        assert result.stable_count() > 0 and not result.failures
        for rec in result.records:
            single = evaluate_point(base.replace(delta_c=rec.x * spec.axis_scale),
                                    spec.pairs, baseline=True)
            assert dataclasses.replace(single, x=rec.x) == rec
            assert repr(dataclasses.replace(single, x=rec.x)) == repr(rec)
        # the base point, x = 1, through solve_lyapunov and the oracles
        (k,) = np.flatnonzero(result.x == base.delta_c / base.omega_m)
        a, d = drift_at(base), build_diffusion(base)
        assert dynamics._splits(a, d) and result.stable[k]
        v = solve_lyapunov(a, d)
        assert not v[:6, 6:].any() and not v[6:, :6].any()
        for tag, value in zip(spec.pairs, result.e_n[k].tolist()):
            assert log_negativity(extract_bipartite(v, BIPARTITE_PAIRS[tag])).e_n == value
        scale = float(np.max(np.abs(v)))
        assert np.max(np.abs(verify.lyapunov_bruteforce(a, d) - v)) <= 1e-9 * scale
        stable, abscissa = verify.is_stable(a)
        assert stable
        spectral_radius = float(np.abs(np.linalg.eigvals(a)).max())
        assert (abs(result.max_real_part[k] - abscissa * base.omega_m)
                <= 1e-12 * spectral_radius * base.omega_m)

    def test_joined_groups_give_each_problem_its_whole_outcome(self):
        # a stack's 6x6 and 4x4 batches, joined, hold what its 10x10 batch
        # holds, to rounding: gate, abscissa (NaN where a group fails), V
        # (NaN unless solved) and errors
        fig6a = preset("fig6a")
        problems = [atom_free_problem(fig6a.base.replace(delta_c=x * fig6a.axis_scale))
                    for x in (-1.0, 1.0, 1.0)]
        a = np.array([a for a, _ in problems])
        d = np.array([d for _, d in problems])
        a[2, 0, 1] = np.nan  # fails its bosonic group
        whole = dynamics.solve_lyapunov_batch(a, d)
        joined = dynamics._join([(modes, None, dynamics.solve_lyapunov_batch(
            a[:, modes, modes].copy(), d[:, modes, modes].copy()))
            for modes in dynamics._GROUPS], len(a))
        assert joined.stable.tolist() == whole.stable.tolist() == [False, True, False]
        assert {k: str(exc) for k, exc in joined.errors.items()} == {
            k: str(exc) for k, exc in whole.errors.items()} == {
            2: "drift matrix contains non-finite entries"}
        assert np.isnan(joined.max_real_part[2]) and np.isnan(whole.max_real_part[2])
        assert np.allclose(joined.max_real_part[:2], whole.max_real_part[:2], rtol=1e-12)
        assert np.isnan(joined.v[[0, 2]]).all()
        assert np.allclose(joined.v[1], whole.v[1], rtol=0,
                           atol=1e-12 * np.abs(whole.v[1]).max())

    def test_group_error_names_the_problems_entries(self):
        # an atomic diffusion entry is the atomic group's (0, 0), and the
        # problem's (6, 6); the bosonic group's error comes first
        a, d = atom_free_problem(preset("fig6a").base)
        d[6, 6] = np.inf
        with pytest.raises(SimulationError, match=r"entries: \(6, 6\) = inf$"):
            solve_lyapunov(a, d)
        d[4, 4] = np.nan
        with pytest.raises(SimulationError, match=r"entries: \(4, 4\) = nan$"):
            solve_lyapunov(a, d)


class TestBlockForm:
    """The working point of a ParameterBlock built from one column, and the
    drift and diffusion stacks that a sweep fills from its templates, equal
    the per-point scalar results bit for bit."""

    @staticmethod
    def stacks(block, ss, m):
        """The (m, 10, 10) drift and diffusion stacks of the block's points,
        filled from dynamics._templates as the sweep's model stage does."""
        out = []
        for template in dynamics._templates(block, ss):
            stack = np.empty((m, 100))
            template.fill(stack, slice(None))
            out.append(stack.reshape(m, 10, 10))
        return out

    @classmethod
    def assert_block_equals_scalar(cls, base, varied, column, atom_free, zero=None):
        """atom_free poses g = r_a = zero: zero columns by default, or a float
        such as the sweep's 0.0. Returns the block's SteadyState."""
        block = parameter_block(base, varied, column)
        if atom_free:
            if zero is None:
                zero = np.zeros(len(column))
            block = dataclasses.replace(block, g=zero, r_a=zero)
        ss = solve_steady_state(block)
        drifts, diffusions = cls.stacks(block, ss, len(column))
        for k, value in enumerate(column):
            p = base.replace(**{varied: float(value)})
            if atom_free:
                p = p.replace(g=0.0, r_a=0.0)
            ref = solve_steady_state(p)
            for f in dataclasses.fields(SteadyState):
                field = np.broadcast_to(getattr(ss, f.name), column.shape)
                assert np.array_equal(field[k], getattr(ref, f.name)), f.name
            assert np.array_equal(drifts[k], build_drift(p, ref))
            assert np.array_equal(diffusions[k], build_diffusion(p))
        return ss

    @pytest.mark.parametrize("atom_free", [False, True], ids=["main", "atom_free"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_block_equals_scalar_at_every_preset_grid_point(self, name, atom_free):
        spec = preset(name)
        self.assert_block_equals_scalar(
            spec.base, spec.varied, spec.grid() * spec.axis_scale, atom_free)

    def test_block_equals_scalar_along_temperature(self):
        # 401 Bose factors from 0 K up: exp and expm1 of a float and of a
        # column must round alike, which math's and numpy's need not
        ss = self.assert_block_equals_scalar(
            preset("fig6a").base, "temperature", np.linspace(0.0, 0.4, 401), False)
        # temperature reaches no field of the working point: each stays a scalar
        for f in dataclasses.fields(SteadyState):
            value = getattr(ss, f.name)
            assert isinstance(value, (float, complex)), (f.name, type(value))

    @staticmethod
    def field_values(base, name):
        """Three to five values of a field inside its validated domain."""
        if name == "temperature":
            return [0.0, 5e-3, 0.35]
        if name in ("rho_aa0", "rho_cc0"):  # rho_ca0 = 0.5 needs them >= 0.5
            return [0.5, 0.75, 1.0]
        if name == "rho_ca0":
            return [-0.5, 0.0, 0.25, 0.5]
        value = getattr(base, name)
        if name in ("power_c", "power_w", "g", "r_a"):
            return [0.0, value, 2.0 * value]
        if name.startswith("delta_"):
            return [-value, 0.0, value, 2.0 * value]
        return [0.5 * value, value, 2.0 * value]

    @pytest.mark.parametrize("variant", ["main", "atom_free", "atom_free_columns"])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemParameters)])
    def test_block_equals_scalar_along_every_field(self, name, variant):
        # which stages a field reaches decides which of a block's values are
        # columns and which floats; the atom-free point set of a block along
        # g or r_a, which replaces its only column by the sweep's 0.0, holds
        # floats alone, and its templates still fill every point
        base = preset("fig6a").base
        self.assert_block_equals_scalar(
            base, name, np.array(self.field_values(base, name)), variant != "main",
            zero=0.0 if variant == "atom_free" else None)

    def test_pole_is_masked_at_its_index_only(self):
        spec = _sweep_tests.TestBlockEngine.mixed_spec()
        xs = spec.grid()
        block = parameter_block(spec.base, spec.varied, xs * spec.axis_scale)
        ss = solve_steady_state(block)
        (index,) = np.flatnonzero(np.isnan(ss.q_s))
        assert xs[index] == 1.0
        with pytest.raises(SingularityError):
            solve_steady_state(spec.base.replace(delta_c=xs[index] * spec.axis_scale))
