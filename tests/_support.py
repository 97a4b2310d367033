"""Shared parameter factory and oracle controls for the test suite.

Deliberately restates the main operating point as literals instead of calling
sweep.preset, so preset regressions are caught against an independent copy.
"""

import math

import numpy as np

from oemsim import SystemParameters, build_diffusion, build_drift, solve_steady_state
from oemsim.verify import IntegrationConfig

TWO_PI = 2.0 * math.pi
OMEGA_M = TWO_PI * 1e7


def base_params(**overrides) -> SystemParameters:
    kw = dict(
        omega_m=OMEGA_M,
        omega_w=OMEGA_M,
        lambda_oc=810e-9,
        cavity_length=1e-3,
        plate_gap=100e-9,
        mu=0.008,
        mass=10e-12,
        temperature=15e-3,
        gamma_m=200.0 * math.pi,
        kappa_c=0.1 * OMEGA_M,
        kappa_w=0.08 * OMEGA_M,
        kappa_a=TWO_PI * 1e5,
        power_c=30e-3,
        power_w=30e-3,
        g=TWO_PI * 8e5,
        r_a=1.6e5,
        rho_aa0=0.5,
        rho_cc0=0.5,
        rho_ca0=0.5,
        delta_a1=TWO_PI * 1e10,
        delta_a2=TWO_PI * 1e7,
        delta_c=OMEGA_M,
        delta_w=OMEGA_M,
    )
    kw.update(overrides)
    return SystemParameters(**kw)


def atom_free_problem(params: SystemParameters) -> tuple[np.ndarray, np.ndarray]:
    """The atom-free drift and diffusion that a sweep poses at params: the
    10-mode pipeline at g = r_a = 0, with the decoupled atomic corner set to
    the vacuum placeholders -I (drift) and I (diffusion)."""
    p = params.replace(g=0.0, r_a=0.0)
    a = build_drift(p, solve_steady_state(p))
    d = build_diffusion(p)
    a[6:, 6:] = -np.eye(4)
    d[6:, 6:] = np.eye(4)
    return a, d


def oracle_config(a, d, v_scale) -> IntegrationConfig:
    """Criterion 02's integration controls for integrate_covariance.

    Step from the spectrum; tolerance and horizon from the slowest decay and
    a 1e-6 target error relative to v_scale = max|V|.
    """
    ev = np.linalg.eigvals(a)
    absc = abs(float(np.max(ev.real)))
    rho = float(np.max(np.abs(ev[:, None] + ev[None, :])))
    dt = 2.5 / rho
    tol = 1e-2 * (2.0 * absc) * 1e-6 * v_scale
    v0dot = float(np.max(np.abs(0.5 * (a + a.T) + d + 0.5 * (a + a.T))))
    t_need = math.log(max(v0dot, 10.0 * tol) / tol) / (2.0 * absc)
    return IntegrationConfig(dt=dt, t_max=2.5 * t_need, tol=tol)
