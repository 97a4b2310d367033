"""Independent oracles: covariance-flow integration, brute-force Lyapunov
reference, and analytic two-mode states."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _support import OMEGA_M, base_params, oracle_config
from oemsim import (
    ConvergenceError,
    SimulationError,
    StabilityError,
    build_diffusion,
    build_drift,
    log_negativity,
    solve_lyapunov,
    solve_steady_state,
)
from oemsim import dynamics, gaussian, verify
from oemsim.verify import (
    IntegrationConfig,
    atom_free_point,
    bosonic_block_determinants,
    integrate_covariance,
    lyapunov_bruteforce,
    make_tmsv,
    symmetry_defect,
    symplectic_log_negativity,
)


def random_stable(rng, n, margin=0.5):
    m = rng.normal(size=(n, n))
    shift = np.max(np.linalg.eigvals(m).real) + margin
    return m - shift * np.eye(n)


def full_space_solve(a, d):
    """The Lyapunov solve on all n^2 entries of V, assuming no symmetry:
    (I (x) a + a (x) I) vec(V) = -vec(d), symmetrized afterwards."""
    n = a.shape[0]
    eye = np.eye(n)
    vec = np.linalg.solve(np.kron(eye, a) + np.kron(a, eye), -d.reshape(-1))
    v = vec.reshape(n, n)
    return 0.5 * (v + v.T)


def point_matrices(params):
    ss = solve_steady_state(params)
    return build_drift(params, ss), build_diffusion(params)


class TestIntegrationConfig:
    @pytest.mark.parametrize("kw", [
        {"dt": 0.0}, {"dt": -1e-3}, {"tol": 0.0}, {"t_max": -1.0},
    ])
    def test_rejects_nonpositive_controls(self, kw):
        with pytest.raises(ValueError):
            IntegrationConfig(**kw)

    @pytest.mark.parametrize("kw", [
        {"dt": math.nan}, {"dt": math.inf}, {"t_max": math.nan},
        {"t_max": math.inf}, {"tol": math.nan}, {"tol": math.inf},
        {"dt": 1e-300, "t_max": 1e300},  # a step count that overflows
    ])
    def test_rejects_nonfinite_controls(self, kw):
        with pytest.raises(ValueError, match="finite"):
            IntegrationConfig(**kw)


class TestIntegrateCovariance:
    def test_identity_fixed_point(self):
        v = integrate_covariance(-np.eye(4), np.eye(4))
        assert np.array_equal(v, 0.5 * np.eye(4))

    def test_unstable_drift_rejected(self):
        with pytest.raises(StabilityError):
            integrate_covariance(np.eye(4), np.eye(4))

    def test_nonfinite_diffusion_is_rejected_before_the_flow(self):
        # not integrated over the whole horizon and blamed on t_max
        d = np.eye(3)
        d[0, 0], d[2, 1] = math.nan, math.inf
        with pytest.raises(SimulationError) as info:
            integrate_covariance(-np.eye(3), d)
        assert info.type is SimulationError
        assert str(info.value) == ("diffusion matrix contains non-finite entries: "
                                   "(0, 0) = nan, (2, 1) = inf")

    def test_horizon_exceeded(self):
        a = -1e-4 * np.eye(4)  # decays far slower than the short horizon
        with pytest.raises(ConvergenceError):
            integrate_covariance(a, np.eye(4),
                                 IntegrationConfig(dt=0.1, t_max=50.0))

    def test_one_step_is_classical_rk4(self):
        # the fixed point is exact whatever the step map's coefficients are,
        # so a wrong one would only slow convergence: compare one step with
        # k1 ... k4 on the matrix V, from V_0 = I/2. tol lies between the
        # residuals at steps 0 and 1, so the oracle returns after one step
        n, dt = 10, 0.05
        rng = np.random.default_rng(1)
        m = rng.normal(size=(n, n)) + 2.0 * np.triu(rng.normal(size=(n, n)), 1)
        a = m - (np.max(np.linalg.eigvals(m).real) + 1.0) * np.eye(n)
        departure = np.linalg.norm(a @ a.T - a.T @ a) / np.linalg.norm(a) ** 2
        assert departure > 0.3  # far from normal
        r = rng.normal(size=(n, n))
        d = r @ r.T + np.eye(n)

        def flow(v):
            return a @ v + v @ a.T + d

        v0 = 0.5 * np.eye(n)
        k1 = flow(v0)
        k2 = flow(v0 + dt / 2.0 * k1)
        k3 = flow(v0 + dt / 2.0 * k2)
        k4 = flow(v0 + dt * k3)
        v1 = v0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        r0, r1 = np.abs(flow(v0)).max(), np.abs(flow(v1)).max()
        assert r1 < 0.8 * r0
        v = integrate_covariance(a, d, IntegrationConfig(dt=dt, t_max=1.0,
                                                         tol=0.5 * (r0 + r1)))
        assert np.max(np.abs(v - v1)) <= 1e-14 * np.max(np.abs(v1))

    def test_horizon_is_the_last_step_index(self):
        # a = -c I decouples every entry: one RK4 step contracts the distance
        # to the fixed point d/(2c) by R(-2c dt), so the residual after k steps
        # is 2c |R|^k max|V_0 - d/(2c)| in closed form
        c, dt, tol = 0.5, 0.5, 1e-8
        a, d = -c * np.eye(4), 3.0 * np.eye(4)
        z = -2.0 * c * dt
        contraction = abs(1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0)

        def residual(k):
            return 2.0 * c * contraction ** k * abs(0.5 - 3.0 / (2.0 * c))

        k_star = next(k for k in range(1000) if residual(k) < tol)
        # k* lies between the doubled steps 31 and 63, so both horizons below
        # end on the remainder jumps; tol is clear of roundoff on both sides
        assert k_star == 39
        assert residual(k_star) < 0.9 * tol < 1.1 * tol < residual(k_star - 1)
        v = integrate_covariance(
            a, d, IntegrationConfig(dt=dt, t_max=(k_star + 1) * dt, tol=tol))
        assert np.max(np.abs(v - 3.0 * np.eye(4))) < tol / (2.0 * c)
        with pytest.raises(ConvergenceError):
            integrate_covariance(
                a, d, IntegrationConfig(dt=dt, t_max=k_star * dt, tol=tol))

    def test_matches_solver_on_random_system(self):
        rng = np.random.default_rng(3)
        a = random_stable(rng, 4, margin=1.0)
        r = rng.normal(size=(4, 4))
        d = r @ r.T + np.eye(4)
        v_ref = solve_lyapunov(a, d)
        v_int = integrate_covariance(a, d)
        assert np.max(np.abs(v_int - v_ref)) <= 1e-8 * np.max(np.abs(v_ref))

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_reduction_agrees_with_full_space_solve(self, n):
        # both oracles solve on the n(n+1)/2 unknowns of a symmetric V; the
        # reference solves on all n^2 entries, assumes no symmetry, and reads
        # an asymmetric d whole
        rng = np.random.default_rng(20 + n)
        m = rng.normal(size=(n, n)) + 4.0 * np.triu(rng.normal(size=(n, n)), 1)
        a = m - (np.max(np.linalg.eigvals(m).real) + 0.5) * np.eye(n)
        departure = np.linalg.norm(a @ a.T - a.T @ a) / np.linalg.norm(a) ** 2
        assert departure > 0.3  # far from normal
        r = rng.normal(size=(n, n))
        d = r @ r.T + np.eye(n) + rng.normal(size=(n, n))
        assert symmetry_defect(d) > 0.1
        v_ref = full_space_solve(a, d)
        scale = np.max(np.abs(v_ref))
        assert np.max(np.abs(integrate_covariance(a, d) - v_ref)) <= 1e-10 * scale
        assert np.max(np.abs(lyapunov_bruteforce(a, d) - v_ref)) <= 1e-12 * scale

    def test_reads_the_symmetric_part_of_the_diffusion(self):
        rng = np.random.default_rng(4)
        a = random_stable(rng, 6)
        d = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        sym = 0.5 * (d + d.T)
        v = integrate_covariance(a, d)
        assert np.array_equal(v, integrate_covariance(a, sym))
        # the full-space solve with the asymmetric d, then symmetrized
        v_ref = full_space_solve(a, d)
        assert np.max(np.abs(v - v_ref)) <= 1e-10 * np.max(np.abs(v_ref))

    def test_matches_solver_on_preset_point(self):
        # stiff case: atomic detuning three decades above the mechanics
        a, d = point_matrices(base_params())
        v_ref = solve_lyapunov(a, d)
        cfg = oracle_config(a, d, float(np.max(np.abs(v_ref))))
        v_int = integrate_covariance(a, d, cfg)
        rel = np.max(np.abs(v_int - v_ref)) / np.max(np.abs(v_ref))
        assert rel <= 1e-6

    def test_matches_solver_on_strongly_non_normal_point(self):
        # resonant optics with strong atoms: eigenvector condition ~1e17 and
        # large transient growth; a doubled forcing stalls at 2e-6 here
        a, d = point_matrices(base_params(
            kappa_c=0.02 * OMEGA_M, g=2.0 * math.pi * 1e6, r_a=1.6e7,
            delta_a1=2.0 * math.pi * 1e6, delta_a2=2.0 * math.pi * 1e6,
            delta_c=0.0))
        v_ref = solve_lyapunov(a, d)
        cfg = oracle_config(a, d, float(np.max(np.abs(v_ref))))
        v_int = integrate_covariance(a, d, cfg)
        rel = np.max(np.abs(v_int - v_ref)) / np.max(np.abs(v_ref))
        assert rel <= 1e-6


class TestMakeTmsv:
    def test_vacuum(self):
        assert np.array_equal(make_tmsv(0.0), 0.5 * np.eye(4))

    def test_entries(self):
        r, n_th = 0.7, 1.5
        cm = make_tmsv(r, n_th)
        ch = 0.5 * (2.0 * n_th + 1.0) * math.cosh(2.0 * r)
        sh = 0.5 * (2.0 * n_th + 1.0) * math.sinh(2.0 * r)
        assert cm[0, 0] == ch and cm[3, 3] == ch
        assert cm[0, 2] == sh and cm[1, 3] == -sh
        assert np.array_equal(cm, cm.T)

    def test_entanglement_closed_form(self):
        assert abs(log_negativity(make_tmsv(1.0)).e_n - 2.0) <= 1e-9
        assert log_negativity(make_tmsv(0.0, n_th=3.0)).e_n == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            make_tmsv(-0.1)
        with pytest.raises(ValueError):
            make_tmsv(1.0, n_th=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                make_tmsv(bad)
            with pytest.raises(ValueError, match="finite"):
                make_tmsv(1.0, n_th=bad)

    def test_squeezing_at_the_float_limit(self):
        # cosh(2r) is finite up to r = 355.2379300..., and overflows past it
        assert np.isfinite(make_tmsv(355.2379)).all()
        with pytest.raises(ValueError, match="overflows cosh"):
            make_tmsv(400.0)

    @pytest.mark.parametrize("r, n_th, n_finite", [(300.0, 1e300, 1e40),
                                                    (1.0, 1e308, 1e300)])
    def test_thermal_scale_at_the_float_limit(self, r, n_th, n_finite):
        # cosh(2r) is finite, but (2 n_th + 1) cosh(2r) / 2 is not
        with pytest.raises(ValueError, match="overflows at r"):
            make_tmsv(r, n_th=n_th)
        assert np.isfinite(make_tmsv(r, n_th=n_finite)).all()


class TestLyapunovOperator:
    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_is_the_kronecker_sum_on_the_symmetric_unknowns(self, n):
        rng = np.random.default_rng(40 + n)
        a = random_stable(rng, n)
        a[0, -1] = -0.0  # a signed zero of the drift's own
        op, upper, index = verify._lyapunov_operator(a)
        rows, cols = np.triu_indices(n)
        assert np.array_equal(upper[0], rows) and np.array_equal(upper[1], cols)
        assert np.array_equal(index[upper], np.arange(rows.size))
        assert np.array_equal(index, index.T)
        # E (I (x) a + a (x) I) D: the rows E of the entries p <= q, and the
        # duplication matrix D that spreads v_pq over V's (p, q) and (q, p)
        eye = np.eye(n)
        kron = np.kron(eye, a) + np.kron(a, eye)
        dup = np.zeros((n * n, rows.size))
        dup[rows * n + cols, np.arange(rows.size)] = 1.0
        dup[cols * n + rows, np.arange(rows.size)] = 1.0
        ref = kron[rows * n + cols] @ dup
        assert op.shape == ref.shape == (rows.size, rows.size)
        assert np.array_equal(op, ref)  # value for value: at most two terms each
        # signed zeros: the Kronecker sum holds negative zeros, the drift's
        # own among them; the operator adds every term onto +0.0, so it
        # holds none, and compares equal to them as values only
        assert np.signbit(kron[kron == 0.0]).any()
        assert not np.signbit(op[op == 0.0]).any()


class TestLyapunovBruteforce:
    def test_identity_case(self):
        v = lyapunov_bruteforce(-np.eye(4), np.eye(4))
        assert np.allclose(v, 0.5 * np.eye(4), atol=1e-14)

    def test_residuals_over_random_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = random_stable(rng, 4)
            d = np.eye(4)
            v = lyapunov_bruteforce(a, d)
            assert np.max(np.abs(a @ v + v @ a.T + d)) < 1e-10

    def test_agrees_with_production_solver(self):
        p = base_params(g=2.0 * math.pi * 1e5, r_a=2000.0,
                        kappa_c=0.08 * OMEGA_M, gamma_m=OMEGA_M / 5e4,
                        delta_a1=2.0 * math.pi * 1e7, delta_a2=2.0 * math.pi * 1e7)
        a, d = point_matrices(p)
        v_ref = lyapunov_bruteforce(a, d)
        v = solve_lyapunov(a, d)
        assert np.max(np.abs(v - v_ref)) <= 1e-9 * np.max(np.abs(v_ref))

    def test_nonfinite_diffusion_is_rejected_before_the_solve(self):
        # not solved into a NaN covariance
        d = np.eye(4)
        d[0, 0] = math.nan
        with pytest.raises(SimulationError) as info:
            lyapunov_bruteforce(-np.eye(4), d)
        assert info.type is SimulationError
        assert str(info.value) == "diffusion matrix contains non-finite entries: (0, 0) = nan"

    def test_unstable_drift_rejected(self):
        with pytest.raises(StabilityError):
            lyapunov_bruteforce(np.diag([0.5, -1.0]), np.eye(2))


class TestWholeMatrixHelpers:
    def test_bosonic_block_determinants(self):
        v = np.diag(np.arange(1.0, 11.0))
        # LU-based det carries last-bit rounding, so compare to tolerance
        assert np.allclose(bosonic_block_determinants(v),
                           [2.0, 12.0, 30.0], rtol=1e-12, atol=0.0)

    def test_symmetry_defect(self):
        v = np.eye(10)
        assert symmetry_defect(v) == 0.0
        v[0, 1] += 1e-9
        assert symmetry_defect(v) == pytest.approx(1e-9, rel=1e-12)


class TestGate:
    def test_abscissa_and_strict_guard(self):
        assert verify.is_stable(np.diag([-1.0, -2.0])) == (True, -1.0)
        assert verify.is_stable(np.diag([-1.0, 1.0])) == (False, 1.0)
        assert not verify.is_stable(np.diag([-1.0, -5e-13]))[0]
        assert verify.is_stable(np.diag([-1.0, -2e-12]))[0]
        assert not verify.is_stable(np.zeros((3, 3)))[0]

    def test_oracles_name_the_abscissa(self):
        a = np.diag([0.5, -1.0])
        for oracle in (lyapunov_bruteforce, integrate_covariance):
            with pytest.raises(StabilityError, match=r"spectral abscissa 5\.000e-01"):
                oracle(a, np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_drift_is_a_simulation_error(self, bad):
        a = -np.eye(3)
        a[1, 2] = bad
        with pytest.raises(SimulationError, match="non-finite"):
            verify.is_stable(a)
        for oracle in (lyapunov_bruteforce, integrate_covariance):
            with pytest.raises(SimulationError, match="non-finite"):
                oracle(a, np.eye(3))

    def test_atom_free_point_is_empty_when_unstable(self):
        params = base_params(g=0.0, r_a=0.0, delta_c=-OMEGA_M)
        assert atom_free_point(params, ("mr_oc",)) == {}


class TestSymplecticLogNegativity:
    def test_two_mode_squeezed_vacuum(self):
        for r in (0.0, 0.5, 1.0, 2.0):
            assert abs(symplectic_log_negativity(make_tmsv(r)) - 2.0 * r) <= 1e-9

    def test_thermal_states_are_separable(self):
        for n1, n2 in ((0.0, 0.0), (0.5, 4.0), (30.0, 30.0)):
            thermal = np.diag([n1 + 0.5, n1 + 0.5, n2 + 0.5, n2 + 0.5])
            assert symplectic_log_negativity(thermal) == 0.0

    def test_agrees_with_the_closed_form_invariant(self):
        # thermalized two-mode squeezed states, locally squeezed and rotated
        rng = np.random.default_rng(5)
        for _ in range(50):
            local = np.zeros((4, 4))
            for k in (0, 2):
                theta, sq = rng.uniform(0.0, math.pi), math.exp(rng.uniform(-1.0, 1.0))
                c, s = math.cos(theta), math.sin(theta)
                local[k:k + 2, k:k + 2] = np.array([[c, s], [-s, c]]) @ np.diag([sq, 1 / sq])
            cm = local @ make_tmsv(rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0)) @ local.T
            assert abs(symplectic_log_negativity(cm) - log_negativity(cm).e_n) <= 1e-9


class TestLoading:
    def test_import_and_cli_sweep_leave_the_oracles_unloaded(self, tmp_path):
        script = (
            "import sys\n"
            "import oemsim\n"
            "loaded = 'oemsim.verify' in sys.modules\n"
            "from oemsim import cli\n"
            f"code = cli.main(['sweep', '--preset', 'fig3', '--out', {str(tmp_path / 'x.csv')!r}])\n"
            "print(loaded, code, 'oemsim.verify' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "0", "False"]


class TestIndependence:
    def test_verify_imports_nothing_from_dynamics_or_gaussian(self):
        # covers `from .dynamics import x`, `from . import gaussian`,
        # `from oemsim import dynamics` and `import oemsim.gaussian`
        for node in ast.walk(ast.parse(Path(verify.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [part for a in node.names for part in a.name.split(".")]
            else:
                continue
            assert not {"dynamics", "gaussian"} & set(names), ast.unparse(node)

    def test_oracles_do_not_run_production_code(self, monkeypatch):
        # a production gate that passes nothing, and a production E_N and
        # symmetric Lyapunov operator that always fail, must leave every
        # oracle's answer exactly as it was
        rng = np.random.default_rng(11)
        a = random_stable(rng, 4)
        d = np.eye(4)
        cfg = IntegrationConfig(dt=0.05, t_max=200.0, tol=1e-10)
        params = base_params(g=0.0, r_a=0.0, delta_c=OMEGA_M)  # criterion 09
        pairs = ("mr_oc", "mr_mc", "oc_mc")

        def run():
            return (lyapunov_bruteforce(a, d), integrate_covariance(a, d, cfg),
                    atom_free_point(params, pairs))

        brute, flow, reduced = run()
        assert reduced["mr_oc"] > 0.1

        def broken(*args, **kwargs):
            raise RuntimeError("production code called")

        # _kronecker_lyapunov and _lyapunov_operators are production's own
        # operator on the unknowns of a symmetric covariance, built like the
        # oracle's from maps of its own; the flow builds its reduction itself
        monkeypatch.setattr(dynamics, "STABILITY_TOL", math.inf)
        monkeypatch.setattr(gaussian, "log_negativities", broken)
        monkeypatch.setattr(dynamics, "_kronecker_lyapunov", broken)
        monkeypatch.setattr(dynamics, "_lyapunov_operators", broken)
        # all four patches are live
        assert not dynamics.is_stable(a).stable
        with pytest.raises(RuntimeError, match="production"):
            log_negativity(make_tmsv(1.0))
        with pytest.raises(RuntimeError, match="production"):
            dynamics._kronecker_lyapunov(a[None], d[None])
        with pytest.raises(RuntimeError, match="production"):
            dynamics._lyapunov_operators(a[None])
        patched = run()
        assert np.array_equal(patched[0], brute)
        assert np.array_equal(patched[1], flow)
        assert patched[2] == reduced
