"""Independent oracles used by the test suite.

Four routes to cross-check the production pipeline: a fixed-step time-domain
integration of the covariance flow and a brute-force vectorized Lyapunov
solve, both on the n(n+1)/2 unknowns of a symmetric covariance; analytic
two-mode Gaussian states with known entanglement; and a separate 6-mode model
of the atom-free system. They have their own Hurwitz gate and logarithmic
negativity, and import nothing from dynamics or gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .errors import ConvergenceError, SimulationError, StabilityError
from .model import SystemParameters


def is_stable(a: np.ndarray) -> tuple[bool, float]:
    """The oracles' own Hurwitz gate: (abscissa < -1e-12, spectral abscissa).

    A drift with a non-finite entry has no spectrum; it raises SimulationError.
    """
    if not np.isfinite(a).all():
        raise SimulationError("drift matrix contains non-finite entries")
    abscissa = float(np.linalg.eigvals(a).real.max())
    return abscissa < -1e-12, abscissa


def _check_inputs(a: np.ndarray, d: np.ndarray, what: str) -> None:
    """Raise StabilityError, naming the abscissa, unless a passes is_stable;
    then SimulationError, naming the entries, if d has a non-finite one."""
    stable, abscissa = is_stable(a)
    if not stable:
        raise StabilityError(
            f"{what} requires a stable drift (spectral abscissa {abscissa:.3e})")
    finite = np.isfinite(d)
    if not finite.all():
        entries = ", ".join(f"({i}, {j}) = {d[i, j]}"
                            for i, j in np.argwhere(~finite).tolist())
        raise SimulationError(f"diffusion matrix contains non-finite entries: {entries}")


def _lyapunov_operator(a: np.ndarray) -> tuple[np.ndarray, tuple, np.ndarray]:
    """(op, upper, index): V -> a V + V a^T on the unknowns v_pq, p <= q, of a
    symmetric V, where vech(X) = X[upper] and v[index] is V.

    Row (i, j), i <= j, holds the coefficients of sum_k a_ik v_kj + v_ik a_jk,
    with v_qp read as v_pq: at most two nonzero terms per entry, added onto
    +0.0 by two scatters into the flat op, so no entry is a negative zero.
    Ungated: a singular op is the caller's.
    """
    rows, cols, index, at_kj, at_ik = _operator_maps(a.shape[0])
    size = rows.size
    op = np.zeros(size * size)
    op[at_kj] += a.take(rows, axis=0).ravel()  # a_ik at the unknown of v_kj
    op[at_ik] += a.take(cols, axis=0).ravel()  # a_jk at the unknown of v_ik
    return op.reshape(size, size), (rows, cols), index


@cache
def _operator_maps(n: int) -> tuple[np.ndarray, ...]:
    """What _lyapunov_operator takes from n alone: the (i, j) of each
    unknown and equation, i <= j; the unknown of each entry of V; and the
    flat indices into op (row * unknowns + unknown) of the unknowns of v_kj
    and of v_ik, k = 0 ... n - 1, equation by equation, in the order of
    a[i, k] and a[j, k]."""
    rows, cols = np.nonzero(~np.tri(n, k=-1, dtype=bool))  # np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    start = rows.size * np.arange(rows.size)[:, None]  # each equation's row of op
    maps = (rows, cols, index, (start + index[:, cols].T).ravel(),
            (start + index[rows]).ravel())
    for table in maps:  # shared by every oracle call at this n
        table.flags.writeable = False
    return maps


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step integration controls, in dimensionless time units; each
    positive and finite, and so is the step count t_max / dt."""

    dt: float = 1e-3      # time step
    t_max: float = 1000.0  # horizon (default 1e6 steps at the default dt)
    tol: float = 1e-12    # stationarity threshold on max|dV/dt|

    def __post_init__(self) -> None:
        # written so that NaN fails every test
        for name in ("dt", "t_max", "tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.t_max / self.dt < math.inf:
            raise ValueError("t_max / dt must be finite")


def integrate_covariance(a: np.ndarray, d: np.ndarray,
                         cfg: IntegrationConfig | None = None) -> np.ndarray:
    """Integrate dV/dt = a V + V a^T + d from the vacuum until stationary.

    Classical fourth-order Runge-Kutta with a fixed step, on the n(n+1)/2
    unknowns v_pq, p <= q, of the symmetric covariance: v = vech(V). The flow
    maps symmetric matrices to symmetric matrices, so their space is invariant
    under it, under the RK4 step and under every power of the step, and the
    reduction is exact. On v the flow is L v = vech(a V + V a^T), the
    operator that _lyapunov_operator builds. d is read through its symmetric
    part (d + d^T)/2; its antisymmetric part would only drive an
    antisymmetric component, which a covariance does not have.

    The flow is linear in v, so one RK4 step is a fixed affine map
    v -> M v + G d = v + G (L v + d), where L v + d is dV/dt. With h = dt,
    both come from one polynomial in hL, built in Horner form from three
    products: p = I + hL/2 (I + hL/3 (I + hL/4)), M = I + hL p and G = h p,
    the truncated Taylor series of exp(hL) and of its integral that classical
    RK4 gives. M - I = L G holds whatever p is, so the stationary point of
    the exact flow is also the exact fixed point of the discrete map, and the
    step size only has to keep the iteration stable, not accurate.

    The map is advanced by the squared Smith iteration (R. A. Smith, SIAM J.
    Appl. Math. 16, 198 (1968)): with M_j = M^(2^j), 2^j steps at once are
    v -> v + T_j (L v + d), where T_0 = G and T_{j+1} = T_j + M_j T_j, so the
    iterates at steps 0, 1, 3, ..., 2^J - 1 cost one doubling each. Each jump
    starts from the derivative of the current iterate rather than from a
    doubled forcing f_{j+1} = M_j f_j + f_j. Both give the same iterates in
    exact arithmetic, but the roundoff of the doubled forcing is never damped
    and stalls strongly non-normal drifts short of the fixed point.

    Stationarity, max|dV/dt| < cfg.tol, is tested at each of those steps.
    When the next doubling would pass the last step index
    ceil(t_max / dt) - 1, that index is reached exactly with the stored T_j
    (one per set bit of the remaining count) and tested once more; if it is
    not stationary there, ConvergenceError is raised. For a residual that
    decays monotonically this is the decision of testing every step.
    """
    cfg = cfg or IntegrationConfig()
    _check_inputs(a, d, "covariance flow")
    lyap_op, upper, index = _lyapunov_operator(a)
    d_vec = (0.5 * (d + d.T))[upper]
    # RK4 one-step map v -> step_op v + gain d_vec, p in Horner form,
    # updated in place so that each Horner step allocates only its product
    hk = cfg.dt * lyap_op
    eye = np.eye(d_vec.size)
    p = hk / 4.0
    p += eye
    for divisor in (3.0, 2.0):
        p = hk @ p
        p /= divisor
        p += eye
    step_op = hk @ p
    step_op += eye
    gain = cfg.dt * p
    v = (0.5 * np.eye(a.shape[0]))[upper]

    last = int(math.ceil(cfg.t_max / cfg.dt)) - 1
    deriv = lyap_op @ v + d_vec
    if np.abs(deriv).max() < cfg.tol:
        return v[index]
    gains = [gain]  # gains[j] advances 2^j steps
    power = step_op  # M_0, squared to M_j when the doubling of gains[j] needs it
    k, jump = 0, 1
    while k + jump <= last:
        v += gains[-1] @ deriv
        k += jump
        deriv = lyap_op @ v + d_vec
        if np.abs(deriv).max() < cfg.tol:
            return v[index]
        jump *= 2
        if k + jump <= last:
            if len(gains) > 1:
                power = power @ power
            gain = power @ gains[-1]
            gain += gains[-1]
            gains.append(gain)
    remaining = last - k  # < jump, so every set bit has a stored gain
    for j, g in enumerate(gains):
        if remaining >> j & 1:
            v += g @ (lyap_op @ v + d_vec)
    if np.abs(lyap_op @ v + d_vec).max() < cfg.tol:
        return v[index]
    raise ConvergenceError(
        f"covariance flow not stationary within t_max = {cfg.t_max} "
        f"(tol = {cfg.tol})")


def make_tmsv(r: float, n_th: float = 0.0) -> np.ndarray:
    """4x4 covariance of a (symmetrically thermalized) two-mode squeezed state.

    Diagonal blocks (2 n_th + 1) cosh(2r)/2 I, off-diagonal block
    (2 n_th + 1) sinh(2r)/2 diag(1, -1). At n_th = 0 the smallest
    partially-transposed symplectic eigenvalue is exp(-2r)/2, so the
    logarithmic negativity is exactly 2r.
    """
    # written so that NaN fails both tests
    if not 0.0 <= r < math.inf:
        raise ValueError("squeezing parameter must be nonnegative and finite")
    if not 0.0 <= n_th < math.inf:
        raise ValueError("thermal occupancy must be nonnegative and finite")
    scale = 2.0 * n_th + 1.0
    try:
        ch = 0.5 * scale * math.cosh(2.0 * r)
        sh = 0.5 * scale * math.sinh(2.0 * r)
    except OverflowError:
        raise ValueError(f"squeezing parameter {r!r} overflows cosh(2r)") from None
    if not math.isfinite(ch):  # sh <= ch
        raise ValueError(f"(2 n_th + 1) cosh(2r) / 2 overflows at r = {r!r}, "
                         f"n_th = {n_th!r}")
    cm = np.zeros((4, 4))
    cm[0, 0] = cm[1, 1] = cm[2, 2] = cm[3, 3] = ch
    cm[0, 2] = cm[2, 0] = sh
    cm[1, 3] = cm[3, 1] = -sh
    return cm


def lyapunov_bruteforce(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Reference Lyapunov solve by vectorization and a dense LU.

    a V + V a^T = -(d + d^T)/2 on the n(n+1)/2 unknowns of the symmetric V
    (_lyapunov_operator), eliminated directly: in exact arithmetic, the solve
    on all n^2 entries, symmetrized afterwards. Exact up to roundoff at this
    size; the independent reference against the production solver.
    """
    _check_inputs(a, d, "reference Lyapunov solve")
    op, upper, index = _lyapunov_operator(a)
    try:
        v = np.linalg.solve(op, -(0.5 * (d + d.T))[upper])
    except np.linalg.LinAlgError as exc:
        raise StabilityError(
            f"vectorized Lyapunov system is singular (marginal stability): {exc}"
        ) from exc
    return v[index]


def symplectic_log_negativity(cm: np.ndarray) -> float:
    """Logarithmic negativity of a 4x4 two-mode CM from its symplectic spectrum.

    eta_minus, the smallest symplectic eigenvalue of the partial transpose
    P cm P with P = diag(1, 1, 1, -1), is the smallest modulus among the
    eigenvalues of i Omega P cm P; e_n = max(0, -ln(2 eta_minus)).
    """
    p = np.diag([1.0, 1.0, 1.0, -1.0])  # reflects the second mode's momentum
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])  # symplectic form
    eta_minus = np.min(np.abs(np.linalg.eigvals(1j * omega @ p @ cm @ p)))
    return max(0.0, -math.log(2.0 * eta_minus))


def bosonic_block_determinants(v: np.ndarray) -> np.ndarray:
    """Determinants of the three bosonic single-mode reduced CMs.

    Each must be >= 1/4 for a physical state in the vacuum-variance-1/2
    convention. The atomic quasi-mode blocks are deliberately excluded: they
    are linearized transition coherences, not bosonic modes, so the bound does
    not apply to them.
    """
    return np.array([np.linalg.det(v[k:k + 2, k:k + 2]) for k in (0, 2, 4)])


def symmetry_defect(v: np.ndarray) -> float:
    """Largest absolute asymmetry of a covariance matrix."""
    return float(np.max(np.abs(v - v.T)))


# Atom-free 6-mode reference. Deliberately self-contained: own Bose factor,
# own drive amplitudes, own bare-cavity working point, literal 6x6 matrices,
# the oracles' own solve. It must stay decoupled from model/dynamics so
# that comparing it with the production baseline (the 10-mode pipeline at
# g = 0, r_a = 0) is a real check, and so no atomic parameter can leak in.

# np.ix_ index of each bosonic pair's 4x4 block of the 6x6 covariance
_BASELINE_BLOCKS = {tag: np.ix_(rows, rows) for tag, rows in [
    ("mr_oc", [0, 1, 2, 3]), ("mr_mc", [0, 1, 4, 5]), ("oc_mc", [2, 3, 4, 5])]}


def atom_free_point(params: SystemParameters,
                    pairs: tuple[str, ...]) -> dict[str, float]:
    """Entanglement of the 6-mode system (no atoms) at the same drive point."""
    om = params.omega_m

    def bose(omega: float) -> float:
        if params.temperature == 0.0:
            return 0.0
        x = HBAR * omega / (K_B * params.temperature)
        if x > 40.0:
            return math.exp(-x)
        return 1.0 / math.expm1(x)

    zpf = math.sqrt(HBAR / (params.mass * om))
    omega_oc = 2.0 * math.pi * C_LIGHT / params.lambda_oc
    g_oc = (omega_oc / params.cavity_length) * zpf
    g_ow = (params.mu * params.omega_w / (2.0 * params.plate_gap)) * zpf
    e_c = math.sqrt(2.0 * params.power_c * params.kappa_c / (HBAR * omega_oc))
    e_w = math.sqrt(2.0 * params.power_w * params.kappa_w / (HBAR * params.omega_w))
    alpha = e_c / (1j * params.delta_c + params.kappa_c)
    beta = e_w / (1j * params.delta_w + params.kappa_w)
    g_c = math.sqrt(2.0) * g_oc * abs(alpha)
    g_w = math.sqrt(2.0) * g_ow * abs(beta)

    gm, kc, kw = params.gamma_m / om, params.kappa_c / om, params.kappa_w / om
    dc, dw = params.delta_c / om, params.delta_w / om
    gc, gw = g_c / om, g_w / om
    a = np.array([
        [0.0,  1.0,  0.0,  0.0,  0.0,  0.0],
        [-1.0, -gm,  gc,   0.0,  gw,   0.0],
        [0.0,  0.0, -kc,   dc,   0.0,  0.0],
        [gc,   0.0, -dc,  -kc,   0.0,  0.0],
        [0.0,  0.0,  0.0,  0.0, -kw,   dw],
        [gw,   0.0,  0.0,  0.0, -dw,  -kw],
    ])
    n_m = bose(om)
    n_w = bose(params.omega_w)
    d = np.diag([0.0, gm * (2 * n_m + 1), kc, kc,
                 kw * (2 * n_w + 1), kw * (2 * n_w + 1)])
    try:
        v = lyapunov_bruteforce(a, d)
    except StabilityError:  # no steady state, so no entanglement to report
        return {}
    return {tag: symplectic_log_negativity(v[_BASELINE_BLOCKS[tag]]) for tag in pairs}
