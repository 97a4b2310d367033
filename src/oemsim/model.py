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

import cmath
import math
import dataclasses
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .errors import ParameterError, SingularityError

# fields that may be exactly zero (undriven / atom-free configurations)
_NONNEGATIVE = ("power_c", "power_w", "g", "r_a")
# strictly positive structural scales
_POSITIVE = (
    "omega_m", "omega_w", "lambda_oc", "cavity_length", "plate_gap",
    "mu", "mass", "gamma_m", "kappa_c", "kappa_w", "kappa_a",
)
# may take any sign
_ANY_SIGN = ("delta_a1", "delta_a2", "delta_c", "delta_w")

#: SystemParameters' rule for each field, in the order of its checks: the
#: field must hold a finite int or float (not a bool) in [low, high], and
#: else fails with the message. 5e-324 is the smallest positive float, so
#: low = 5e-324 accepts an int or a float exactly where it is > 0.
_RULES = (
    *((name, 5e-324, math.inf, f"{name} must be strictly positive") for name in _POSITIVE),
    *((name, 0.0, math.inf, f"{name} must be nonnegative") for name in _NONNEGATIVE),
    *((name, -math.inf, math.inf, None) for name in _ANY_SIGN),
    ("temperature", 0.0, math.inf, "temperature must be nonnegative"),
    ("rho_aa0", 0.0, 1.0, "rho_aa0 must lie in [0, 1]"),
    ("rho_cc0", 0.0, 1.0, "rho_cc0 must lie in [0, 1]"),
    ("rho_ca0", -math.inf, math.inf, None),
)
_PLAIN_REALS = (float, int)  # pass the type check without isinstance

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SystemParameters:
    """All experimental knobs. Angular frequencies and rates in rad/s, SI otherwise.

    delta_c and delta_w are the EFFECTIVE cavity detunings (already including
    the static radiation-pressure shift); they are what the sweeps vary
    directly. The bare detunings of the working point follow without
    iteration: delta_c + g_oc_bare * q_s and delta_w + g_ow_bare * q_s
    (derive, solve_steady_state).

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
        # One pass over _RULES. A field that is not a real number or not
        # finite fails at once; an out-of-range field fails only after every
        # field has passed those two checks, and then the first one does.
        # getattr, not self.__dict__: CPython 3.11 reads the attributes of an
        # instance whose __dict__ was asked for about three times as slowly.
        out_of_range = None
        isfinite = math.isfinite  # one lookup, not one per field
        for name, low, high, message in _RULES:
            value = getattr(self, name)
            if value.__class__ not in _PLAIN_REALS and (
                    not isinstance(value, (int, float)) or isinstance(value, bool)):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
            if not isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            if not low <= value <= high and out_of_range is None:
                out_of_range = message
        if out_of_range is not None:
            raise ParameterError(out_of_range)
        # coherence bound; the common 0.5/0.5/0.5 operating point saturates it
        bound = math.sqrt(self.rho_aa0 * self.rho_cc0) + 1e-12
        if abs(self.rho_ca0) > bound:
            raise ParameterError(
                "rho_ca0 violates the coherence bound |rho_ca0| <= sqrt(rho_aa0*rho_cc0)")

    def replace(self, **changes) -> "SystemParameters":
        """A copy with the named fields changed, validated as a new instance.
        The values are taken as they are (an int stays an int), as by
        dataclasses.replace; an unknown field name is a TypeError."""
        # a new dict, not a .copy(), which would keep the key-sharing form
        # that the slow reads above come with
        values = dict(self.__dict__)
        values.update(changes)
        if len(values) != len(self.__dict__):
            unknown = next(name for name in changes if name not in self.__dict__)
            raise TypeError(f"{type(self).__name__}.replace() got an unexpected "
                            f"keyword argument {unknown!r}")
        new = object.__new__(self.__class__)
        object.__setattr__(new, "__dict__", values)  # frozen: no own __setattr__
        new.__post_init__()
        return new


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


def parameter_block(base: SystemParameters, varied: str | None = None,
                    column: np.ndarray | list[float] = ()) -> ParameterBlock:
    """The points of `column` along field `varied`; every other field holds
    base's value as a float. The column is not validated (run_sweep checks
    its extremes). With no varied field, the one point base, every field a
    float (evaluate_point)."""
    if varied is not None:
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
    """thermal_occupation without the domain checks, for validated parameters.
    Floats give a float, taken in float arithmetic: where n overflows, as at
    a huge temperature, it is inf without a warning."""
    # The smallest positive float added to kT leaves it unchanged for any
    # T above 1e-284 K; at T = 0 it keeps x finite, and huge enough to give 0.
    minus_x = -HBAR * omega / (K_B * temperature + 5e-324)
    # 1/(e^x - 1) as e^-x / (1 - e^-x), which is e^-x to double precision
    # beyond x ~ 38 and cannot overflow. numpy's exp and expm1 round a float
    # and a column alike; math's differ from them in the last bit.
    if minus_x.__class__ is np.ndarray:
        return np.exp(minus_x) / -np.expm1(minus_x)
    denominator = -float(np.expm1(minus_x))  # 0 only where x underflows to 0
    return float(np.exp(minus_x)) / denominator if denominator else math.inf


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
    Raises SingularityError (RANGE_MESSAGE) where a float product under a
    division underflows to 0.
    """
    return DerivedQuantities(*_derived(params))


def _derived(params: SystemParameters) -> tuple:
    """derive's quantities, in DerivedQuantities' order, as a plain tuple.
    Raises SingularityError where a float product under HBAR or the mass
    underflows to 0 (a tiny frequency or mass): a column gives inf there."""
    p = params
    omega_oc = 2.0 * math.pi * C_LIGHT / p.lambda_oc
    try:
        zpf = _sqrt(HBAR / (p.mass * p.omega_m))
        e_c = _sqrt(2.0 * p.power_c * p.kappa_c / (HBAR * omega_oc))
        e_w = _sqrt(2.0 * p.power_w * p.kappa_w / (HBAR * p.omega_w))
    except ZeroDivisionError:
        raise SingularityError(RANGE_MESSAGE) from None
    g_oc_bare = (omega_oc / p.cavity_length) * zpf
    g_ow_bare = (p.mu * p.omega_w / (2.0 * p.plate_gap)) * zpf
    return omega_oc, g_oc_bare, g_ow_bare, e_c, e_w


def _coherence_coefficients(params: SystemParameters) -> tuple[complex, complex]:
    """Linear-response coefficients of the two atomic coherences.

    sigma_ba_s = a_coef * alpha_s and sigma_cb_s = b_coef * alpha_s, with the
    atomic source strength given by the intracavity atom number:
        a_coef = i g N (rho_ca0 + rho_aa0) / (kappa_a + i delta_a1),
        b_coef = -i g N (rho_ca0 + rho_cc0) / (kappa_a - i delta_a2).
    """
    p = params
    gn = p.g * effective_atom_number(p)
    kappa_sq = p.kappa_a * p.kappa_a
    try:
        s_a = gn * (p.rho_ca0 + p.rho_aa0) / (kappa_sq + p.delta_a1 * p.delta_a1)
        s_b = gn * (p.rho_ca0 + p.rho_cc0) / (kappa_sq + p.delta_a2 * p.delta_a2)
    except ZeroDivisionError:
        # float fields whose kappa_a**2 + delta**2 underflows to 0; a column
        # gives inf or NaN there instead, and both fail the range check
        s_a = s_b = math.nan
    return (s_a * p.delta_a1 + 1j * (s_a * p.kappa_a),
            s_b * p.delta_a2 - 1j * (s_b * p.kappa_a))


#: error text of a working point at a pole of the optical response
POLE_MESSAGE = "optical response has a pole at these parameters"
#: error text of a working point whose arithmetic leaves floating-point range
RANGE_MESSAGE = "working point leaves floating-point range at these parameters"


def solve_steady_state(params: SystemParameters) -> SteadyState:
    """Closed-form working point at given effective detunings.

    The optical amplitude solves the linear self-consistency with the atomic
    coherences eliminated:
        alpha_s = e_c / (i delta_c + kappa_c + i g (a_coef + b_coef)).
    Raises SingularityError where |denominator| < 1e-30, and where its square
    is not finite: an atomic coefficient or the square overflows, or
    kappa_a**2 + delta_a**2 underflows to 0 (tiny kappa_a and detuning). A
    SystemParameters also raises it where any field of the working point is
    not finite (a drive amplitude that overflows gives inf in q_s), and
    where derive's float arithmetic divides by an underflowed 0. A
    ParameterBlock gives a SteadyState whose fields are columns, one entry
    per point, where the block's column reaches them, and floats elsewhere.
    A point at such a pole carries NaN in q_s, alpha_s, sigma_ba_s,
    sigma_cb_s and g_c; a point out of range carries the same NaNs but inf
    in q_s. Where no column reaches the denominator, the NaNs are floats.
    Where derive's float arithmetic underflows, every point is out of range,
    with NaN in each field but q_s and p_s.

    Complex quotients and products are written in real arithmetic (+ - * /
    sqrt), which rounds a float and a column alike; CPython and numpy round
    complex division and multiplication differently.
    """
    p = params
    try:
        _, g_oc_bare, g_ow_bare, e_c, e_w = _derived(p)
    except SingularityError:
        if p.__class__ is not ParameterBlock:
            raise
        nan = complex(math.nan, math.nan)
        return SteadyState(math.inf, 0.0 * p.omega_m, nan, nan, nan, nan, math.nan, math.nan)
    a_coef, b_coef = _coherence_coefficients(p)
    a_r, a_i, b_r, b_i = a_coef.real, a_coef.imag, b_coef.real, b_coef.imag
    # the optical denominator d_r + i d_i
    g = p.g
    d_r = p.kappa_c - g * (a_i + b_i)
    d_i = p.delta_c + g * (a_r + b_r)
    d_sq = d_r * d_r + d_i * d_i
    if d_sq.__class__ is np.ndarray:
        lost = ~(d_sq < math.inf)  # inf or NaN
        d_sq[lost | (d_sq < 1e-60)] = np.nan  # at the points of a block that they hit
    else:
        lost = not d_sq < math.inf
        if lost or d_sq < 1e-60:
            if p.__class__ is not ParameterBlock:
                raise SingularityError(RANGE_MESSAGE if lost else POLE_MESSAGE)
            d_sq = math.nan  # at every point of the block
    # alpha_s = u - i v, and beta_s = e_w / (kappa_w + i delta_w)
    scale = e_c / d_sq
    u = scale * d_r
    v = scale * d_i
    kappa_w, delta_w = p.kappa_w, p.delta_w
    w_sq = kappa_w * kappa_w + delta_w * delta_w
    w_scale = e_w / w_sq
    alpha_abs = e_c / _sqrt(d_sq)
    beta_abs = e_w / _sqrt(w_sq)
    q_s = (g_oc_bare * alpha_abs * alpha_abs
           + g_ow_bare * beta_abs * beta_abs) / p.omega_m
    if q_s.__class__ is np.ndarray:
        q_s[lost] = math.inf  # a bool lost indexes every point or none
    elif lost:
        q_s = math.inf
    p_s = 0.0 * p.omega_m  # zero, as a float or a column
    alpha_s = u - 1j * v
    beta_s = w_scale * kappa_w - 1j * (w_scale * delta_w)
    sigma_ba_s = (a_r * u + a_i * v) + 1j * (a_i * u - a_r * v)
    sigma_cb_s = (b_r * u + b_i * v) + 1j * (b_i * u - b_r * v)
    g_c = _SQRT2 * g_oc_bare * alpha_abs
    g_w = _SQRT2 * g_ow_bare * beta_abs
    values = (q_s, p_s, alpha_s, beta_s, sigma_ba_s, sigma_cb_s, g_c, g_w)
    if p.__class__ is not ParameterBlock and not all(map(cmath.isfinite, values)):
        raise SingularityError(RANGE_MESSAGE)
    return SteadyState(*values)

