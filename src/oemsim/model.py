"""Physical parameters, derived quantities, and the classical working point.

The system is a mechanical resonator coupled to a driven optical cavity
(radiation pressure) and a driven microwave LC cavity (capacitive coupling),
with a beam of degenerate three-level cascade atoms traversing the optical
cavity. The atoms enter at rate ``r_a`` and decay at rate ``kappa_a``; the
fluctuation dynamics sees them through the steady intracavity atom number
``r_a / kappa_a`` (a rate times a lifetime), which keeps every drift entry a
rate. Two atomic transition coherences act as additional quasi-modes.
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .errors import ConvergenceError, ParameterError, SingularityError

# fields that may be exactly zero (undriven / atom-free configurations)
_NONNEGATIVE = ("power_c", "power_w", "g", "r_a")
# strictly positive structural scales
_POSITIVE = (
    "omega_m", "omega_w", "lambda_oc", "cavity_length", "plate_gap",
    "mu", "mass", "gamma_m", "kappa_c", "kappa_w", "kappa_a",
)
# may take any sign
_ANY_SIGN = ("delta_a1", "delta_a2", "delta_c", "delta_w")

_SQRT2 = math.sqrt(2.0)
#: weight of the new iterate in solve_steady_state_bare's damped update
_BARE_DAMPING = 0.5


@dataclass(frozen=True)
class SystemParameters:
    """All experimental knobs. Angular frequencies and rates in rad/s, SI otherwise.

    delta_c and delta_w are the EFFECTIVE cavity detunings (already including
    the static radiation-pressure shift); they are what the sweeps vary
    directly. Use solve_steady_state_bare to start from bare detunings instead.

    rho_ca0 is the coherence in the phase frame of the intracavity optical
    field: the injected coherence is locked to the phase of alpha_s, in which
    alpha_s, like g_c, is real. The working point and the drift's atomic rows
    agree only under that reading.
    """

    omega_m: float          # mechanical angular frequency
    omega_w: float          # microwave cavity angular frequency
    lambda_oc: float        # optical drive wavelength, m
    cavity_length: float    # optical cavity length, m
    plate_gap: float        # capacitor plate spacing, m
    mu: float               # capacitance participation ratio
    mass: float             # effective mechanical mass, kg
    temperature: float      # bath temperature, K
    gamma_m: float          # mechanical damping rate
    kappa_c: float          # optical cavity decay rate
    kappa_w: float          # microwave cavity decay rate
    kappa_a: float          # atomic decay rate
    power_c: float          # optical drive power, W
    power_w: float          # microwave drive power, W
    g: float                # atom-cavity coupling rate
    r_a: float              # atom injection rate, 1/s
    rho_aa0: float          # initial top-level population
    rho_cc0: float          # initial bottom-level population
    rho_ca0: float          # initial two-photon coherence
    delta_a1: float         # upper-transition atomic detuning
    delta_a2: float         # lower-transition atomic detuning
    delta_c: float          # effective optical detuning
    delta_w: float          # effective microwave detuning

    def __post_init__(self) -> None:
        for name in _POSITIVE + _NONNEGATIVE + _ANY_SIGN + (
                "temperature", "rho_aa0", "rho_cc0", "rho_ca0"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        for name in _POSITIVE:
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be strictly positive")
        for name in _NONNEGATIVE:
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative")
        if self.temperature < 0:
            raise ParameterError("temperature must be nonnegative")
        for name in ("rho_aa0", "rho_cc0"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1]")
        # coherence bound; the common 0.5/0.5/0.5 operating point saturates it
        bound = math.sqrt(self.rho_aa0 * self.rho_cc0) + 1e-12
        if abs(self.rho_ca0) > bound:
            raise ParameterError(
                "rho_ca0 violates the coherence bound |rho_ca0| <= sqrt(rho_aa0*rho_cc0)")

    def replace(self, **changes) -> "SystemParameters":
        return dataclasses.replace(self, **changes)


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SystemParameters))

#: SystemParameters' fields for m points at once, unvalidated: the varied
#: field as a float column of shape (m,), one entry per point, and every other
#: field as a float, the same at every point. derive and solve_steady_state
#: take one in place of a SystemParameters, and dynamics._templates builds the
#: drift and diffusion of its points. They compute each value that no column
#: reaches once, as a float, in float arithmetic, which rounds + - * / and
#: sqrt as numpy does on a column, and the rest in columns; each point's
#: values equal the single-point results bit for bit. dataclasses.replace
#: swaps a field for a column or a float.
ParameterBlock = dataclasses.make_dataclass(
    "ParameterBlock", _FIELD_NAMES, frozen=True, eq=False,
    namespace={"__module__": __name__})


def parameter_block(base: SystemParameters, varied: str,
                    column: np.ndarray | list[float]) -> ParameterBlock:
    """The points of `column` along field `varied`; every other field holds
    base's value as a float. The column is not validated (run_sweep checks
    its extremes)."""
    column = np.asarray(column, dtype=float)
    return ParameterBlock(**{
        name: column if name == varied else float(getattr(base, name))
        for name in _FIELD_NAMES})


@dataclass(frozen=True)
class DerivedQuantities:
    omega_oc: float    # optical drive angular frequency, rad/s
    g_oc_bare: float   # bare optomechanical coupling per unit dimensionless position
    g_ow_bare: float   # bare electromechanical coupling per unit dimensionless position
    e_c: float         # optical drive amplitude
    e_w: float         # microwave drive amplitude


@dataclass(frozen=True)
class SteadyState:
    """Classical working point of the driven system."""

    q_s: float               # mean dimensionless resonator position
    p_s: float               # mean dimensionless resonator momentum (always 0)
    alpha_s: complex         # mean optical amplitude
    beta_s: complex          # mean microwave amplitude
    sigma_ba_s: complex      # mean upper-transition coherence
    sigma_cb_s: complex      # mean lower-transition coherence
    g_c: float               # effective drive-enhanced mechanics-optics coupling, >= 0
    g_w: float               # effective drive-enhanced mechanics-microwave coupling, >= 0


def thermal_occupation(omega: float | np.ndarray,
                       temperature: float | np.ndarray) -> float | np.ndarray:
    """Bose-Einstein occupation of a mode at angular frequency omega.

    Takes floats, or equal-length columns and then returns the column of
    occupations. Returns the exact zero-temperature limit 0.0 at
    temperature == 0. A NaN or infinite omega or temperature is rejected.
    """
    # written so that NaN, which compares false, fails the checks
    if not np.all((omega > 0) & (omega < math.inf)):
        raise ParameterError("omega must be strictly positive and finite")
    if not np.all((temperature >= 0) & (temperature < math.inf)):
        raise ParameterError("temperature must be nonnegative and finite")
    return _occupation(omega, temperature)


def _occupation(omega: float | np.ndarray,
                temperature: float | np.ndarray) -> float | np.ndarray:
    """thermal_occupation without the domain checks, for validated parameters."""
    # The smallest positive float added to kT leaves it unchanged for any
    # T above 1e-284 K; at T = 0 it keeps x finite, and huge enough to give 0.
    minus_x = -HBAR * omega / (K_B * temperature + 5e-324)
    # 1/(e^x - 1) as e^-x / (1 - e^-x), which is e^-x to double precision
    # beyond x ~ 38 and cannot overflow. numpy's exp and expm1 round a float
    # and a column alike; math's differ from them in the last bit.
    return np.exp(minus_x) / -np.expm1(minus_x)


def _sqrt(x: float | np.ndarray) -> float | np.ndarray:
    # math for a float, numpy for a column: both give the correctly rounded
    # IEEE root, and a numpy call on a float costs more than the arithmetic
    return math.sqrt(x) if x.__class__ is float else np.sqrt(x)


def effective_atom_number(params: SystemParameters) -> float:
    """Steady mean number of atoms inside the cavity: injection rate x lifetime."""
    return params.r_a / params.kappa_a


def derive(params: SystemParameters) -> DerivedQuantities:
    """Drive frequency, bare couplings and drive amplitudes.

    The drive amplitudes follow input-output theory,
    E_j = sqrt(2 P_j kappa_j / (hbar omega_drive_j)). The optical drive
    frequency is 2 pi c / lambda_oc; the microwave drive sits close enough to
    omega_w that omega_w is used inside the square root (the detuning
    correction is far below the other tolerances). A ParameterBlock gives a
    column for each quantity that its column reaches and a float for the rest.
    """
    p = params
    omega_oc = 2.0 * math.pi * C_LIGHT / p.lambda_oc
    zpf = _sqrt(HBAR / (p.mass * p.omega_m))
    g_oc_bare = (omega_oc / p.cavity_length) * zpf
    g_ow_bare = (p.mu * p.omega_w / (2.0 * p.plate_gap)) * zpf
    e_c = _sqrt(2.0 * p.power_c * p.kappa_c / (HBAR * omega_oc))
    e_w = _sqrt(2.0 * p.power_w * p.kappa_w / (HBAR * p.omega_w))
    return DerivedQuantities(omega_oc, g_oc_bare, g_ow_bare, e_c, e_w)


def _coherence_coefficients(params: SystemParameters) -> tuple[complex, complex]:
    """Linear-response coefficients of the two atomic coherences.

    sigma_ba_s = a_coef * alpha_s and sigma_cb_s = b_coef * alpha_s, with the
    atomic source strength given by the intracavity atom number:
        a_coef = i g N (rho_ca0 + rho_aa0) / (kappa_a + i delta_a1),
        b_coef = -i g N (rho_ca0 + rho_cc0) / (kappa_a - i delta_a2).
    """
    p = params
    g, r_a = p.g, p.r_a
    if ((g.__class__ is not np.ndarray and g == 0.0)
            or (r_a.__class__ is not np.ndarray and r_a == 0.0)):
        # g N is +0.0 at every point, so both coefficients are zero: scalars,
        # even where a ParameterBlock's atomic fields are columns
        return 0j, 0j
    gn = p.g * effective_atom_number(p)
    kappa_sq = p.kappa_a * p.kappa_a
    s_a = gn * (p.rho_ca0 + p.rho_aa0) / (kappa_sq + p.delta_a1 * p.delta_a1)
    s_b = gn * (p.rho_ca0 + p.rho_cc0) / (kappa_sq + p.delta_a2 * p.delta_a2)
    return (s_a * p.delta_a1 + 1j * (s_a * p.kappa_a),
            s_b * p.delta_a2 - 1j * (s_b * p.kappa_a))


#: error text of a working point at a pole of the optical response
POLE_MESSAGE = "optical response has a pole at these parameters"


def solve_steady_state(params: SystemParameters) -> SteadyState:
    """Closed-form working point at given effective detunings.

    The optical amplitude solves the linear self-consistency with the atomic
    coherences eliminated:
        alpha_s = e_c / (i delta_c + kappa_c + i g (a_coef + b_coef)).
    Raises SingularityError where |denominator| < 1e-30. A ParameterBlock gives
    a SteadyState whose fields are columns, one entry per point, where the
    block's column reaches them, and floats elsewhere. A point at such a pole
    carries NaN in q_s, alpha_s, sigma_ba_s, sigma_cb_s and g_c; a pole that
    no column reaches makes those fields float NaNs.

    Complex quotients and products are written in real arithmetic (+ - * /
    sqrt), which rounds a float and a column alike; CPython and numpy round
    complex division and multiplication differently.
    """
    p = params
    der = derive(p)
    a_coef, b_coef = _coherence_coefficients(p)
    a_r, a_i, b_r, b_i = a_coef.real, a_coef.imag, b_coef.real, b_coef.imag
    # the optical denominator d_r + i d_i
    g = p.g
    d_r = p.kappa_c - g * (a_i + b_i)
    d_i = p.delta_c + g * (a_r + b_r)
    d_sq = d_r * d_r + d_i * d_i
    if d_sq.__class__ is np.ndarray:
        d_sq[d_sq < 1e-60] = np.nan  # at the points of a block that it hits
    elif d_sq < 1e-60:
        if p.__class__ is not ParameterBlock:
            raise SingularityError(POLE_MESSAGE)
        d_sq = math.nan  # at every point of the block
    # alpha_s = u - i v, and beta_s = e_w / (kappa_w + i delta_w)
    e_c, e_w = der.e_c, der.e_w
    scale = e_c / d_sq
    u = scale * d_r
    v = scale * d_i
    kappa_w, delta_w = p.kappa_w, p.delta_w
    w_sq = kappa_w * kappa_w + delta_w * delta_w
    w_scale = e_w / w_sq
    alpha_abs = e_c / _sqrt(d_sq)
    beta_abs = e_w / _sqrt(w_sq)
    q_s = (der.g_oc_bare * alpha_abs * alpha_abs
           + der.g_ow_bare * beta_abs * beta_abs) / p.omega_m
    p_s = 0.0 * p.omega_m  # zero, as a float or a column
    alpha_s = u - 1j * v
    beta_s = w_scale * kappa_w - 1j * (w_scale * delta_w)
    sigma_ba_s = (a_r * u + a_i * v) + 1j * (a_i * u - a_r * v)
    sigma_cb_s = (b_r * u + b_i * v) + 1j * (b_i * u - b_r * v)
    g_c = _SQRT2 * der.g_oc_bare * alpha_abs
    g_w = _SQRT2 * der.g_ow_bare * beta_abs
    return SteadyState(q_s, p_s, alpha_s, beta_s, sigma_ba_s, sigma_cb_s, g_c, g_w)


def solve_steady_state_bare(
    params: SystemParameters,
    delta_oc: float,
    delta_ow: float,
    max_iter: int = 10_000,
) -> SteadyState:
    """Working point from BARE detunings via a damped fixed-point iteration.

    The effective detunings shift with the static displacement:
        delta_c = delta_oc - g_oc_bare * q_s,  delta_w = delta_ow - g_ow_bare * q_s,
    and q_s in turn depends on them. Iterates q until self-consistent.
    Raises ConvergenceError when the classical branch is bistable or runaway.
    """
    der = derive(params)
    q = 0.0
    for _ in range(max_iter):
        trial = params.replace(
            delta_c=delta_oc - der.g_oc_bare * q,
            delta_w=delta_ow - der.g_ow_bare * q,
        )
        ss = solve_steady_state(trial)
        if not math.isfinite(ss.q_s):
            raise ConvergenceError("classical branch diverged in bare-detuning mode")
        # converge two decades below the contract tolerance so that the
        # returned state is a fixed point of the effective-detuning solve
        if abs(ss.q_s - q) < 1e-12 * abs(ss.q_s) + 1e-14:
            return ss
        q = (1.0 - _BARE_DAMPING) * q + _BARE_DAMPING * ss.q_s
    raise ConvergenceError(
        f"bare-detuning fixed point did not converge in {max_iter} iterations "
        "(possible classical bistability)")
