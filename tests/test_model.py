"""Parameters, derived quantities, and the classical working point."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import OMEGA_M, TWO_PI, base_params
from oemsim import (
    ParameterError,
    SingularityError,
    SystemParameters,
    derive,
    effective_atom_number,
    preset,
    solve_steady_state,
    thermal_occupation,
)
from oemsim.sweep import PRESET_NAMES
from oemsim.model import _coherence_coefficients

# high-precision references, computed with 40-digit arithmetic from the
# CODATA values hbar = 1.054571817e-34, kB = 1.380649e-23, c = 2.99792458e8
NBAR_15MK = 30.757594904803614
NBAR_5MK = 9.926307078548584
NBAR_250MK = 520.4156383771234
NBAR_350MK = 728.7817840309986
TEMP_UNIT_OCCUPATION = 0.0006923844177723783  # K; occupation exactly 1 here
OMEGA_OC = 2325495762109695.5                 # 2 pi c / 810 nm
G_OC_BARE = 952.7165259908442
G_OW_BARE = 0.0010296461641507789
E_C_BASE = 1239851588449.213                  # 30 mW, kappa_c = 0.1 omega_m
E_W_BASE = 6746562348910116.0                 # 30 mW, kappa_w = 0.08 omega_m


class TestThermalOccupation:
    def test_reference_values(self):
        assert thermal_occupation(OMEGA_M, 15e-3) == pytest.approx(NBAR_15MK, rel=1e-13)
        assert thermal_occupation(OMEGA_M, 5e-3) == pytest.approx(NBAR_5MK, rel=1e-13)
        assert thermal_occupation(OMEGA_M, 250e-3) == pytest.approx(NBAR_250MK, rel=1e-13)
        assert thermal_occupation(OMEGA_M, 350e-3) == pytest.approx(NBAR_350MK, rel=1e-13)

    def test_unit_occupation_temperature(self):
        assert thermal_occupation(OMEGA_M, TEMP_UNIT_OCCUPATION) == pytest.approx(1.0, rel=1e-12)

    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupation(OMEGA_M, 0.0) == 0.0

    def test_domain_errors(self):
        for omega, temperature in [
                (0.0, 1e-3), (-OMEGA_M, 1e-3), (OMEGA_M, -1e-3),
                # NaN compares false with every bound, and an infinite bath
                # has no occupation number
                (math.nan, 1e-3), (OMEGA_M, math.nan), (OMEGA_M, math.inf),
                (np.array([OMEGA_M, math.nan]), 1e-3),
                (np.full(2, OMEGA_M), np.array([1e-3, math.nan])),
                (np.full(2, OMEGA_M), np.array([1e-3, math.inf]))]:
            with pytest.raises(ParameterError):
                thermal_occupation(omega, temperature)

    def test_columns_give_the_float_values(self):
        temps = np.array([0.0, 1e-6, 15e-3, 0.35])
        column = thermal_occupation(np.full(4, OMEGA_M), temps)
        assert column.tolist() == [thermal_occupation(OMEGA_M, t) for t in temps]
        with pytest.raises(ParameterError):
            thermal_occupation(np.full(4, OMEGA_M), -temps)
        with pytest.raises(ParameterError):
            thermal_occupation(np.array([OMEGA_M, 0.0]), 15e-3)

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(1e-6, 10.0), factor=st.floats(1.01, 100.0))
    def test_monotone_in_temperature_and_frequency(self, t, factor):
        assert thermal_occupation(OMEGA_M, t * factor) > thermal_occupation(OMEGA_M, t)
        assert thermal_occupation(OMEGA_M * factor, t) < thermal_occupation(OMEGA_M, t)


class TestDerivedQuantities:
    def test_drive_frequency_and_bare_couplings(self):
        der = derive(base_params())
        assert der.omega_oc == pytest.approx(OMEGA_OC, rel=1e-13)
        assert der.g_oc_bare == pytest.approx(G_OC_BARE, rel=1e-13)
        assert der.g_ow_bare == pytest.approx(G_OW_BARE, rel=1e-13)

    def test_drive_amplitudes(self):
        der = derive(base_params())
        assert der.e_c == pytest.approx(E_C_BASE, rel=1e-13)
        assert der.e_w == pytest.approx(E_W_BASE, rel=1e-13)

    def test_undriven_amplitudes_are_zero(self):
        der = derive(base_params(power_c=0.0, power_w=0.0))
        assert der.e_c == 0.0
        assert der.e_w == 0.0

    def test_effective_atom_number(self):
        params = base_params()
        assert effective_atom_number(params) == params.r_a / params.kappa_a
        assert effective_atom_number(base_params(r_a=0.0)) == 0.0


class TestSteadyState:
    def test_atom_free_closed_form(self):
        # independent 40-digit evaluation of alpha, beta, q_s at g = 0
        ss = solve_steady_state(base_params(g=0.0, r_a=0.0))
        assert ss.alpha_s.real == pytest.approx(1953.7476138814905, rel=1e-12)
        assert ss.alpha_s.imag == pytest.approx(-19537.4761388149, rel=1e-12)
        assert ss.beta_s.real == pytest.approx(8535363.646317275, rel=1e-12)
        assert ss.beta_s.imag == pytest.approx(-106692045.57896593, rel=1e-12)
        assert ss.q_s == pytest.approx(193579.73893803678, rel=1e-12)
        assert ss.g_c == pytest.approx(26455004.75806219, rel=1e-12)
        assert ss.g_w == pytest.approx(155854.863678707, rel=1e-12)
        assert ss.p_s == 0.0
        assert ss.sigma_ba_s == 0.0
        assert ss.sigma_cb_s == 0.0

    def test_coherences_are_linear_in_cavity_amplitude(self):
        lo = solve_steady_state(base_params(power_c=10e-3))
        hi = solve_steady_state(base_params(power_c=40e-3))
        assert lo.sigma_ba_s / lo.alpha_s == pytest.approx(hi.sigma_ba_s / hi.alpha_s, rel=1e-12)
        assert lo.sigma_cb_s / lo.alpha_s == pytest.approx(hi.sigma_cb_s / hi.alpha_s, rel=1e-12)

    def test_atomic_dressing_shift_is_quadratic_in_coupling(self):
        # near-resonant atoms so the shift rises above float noise
        kw = dict(delta_a1=TWO_PI * 1e6, delta_a2=TWO_PI * 1e6, r_a=1.6e6)
        ref = solve_steady_state(base_params(g=0.0, **kw)).alpha_s
        shift1 = abs(solve_steady_state(base_params(g=TWO_PI * 1e4, **kw)).alpha_s - ref)
        shift2 = abs(solve_steady_state(base_params(g=TWO_PI * 2e4, **kw)).alpha_s - ref)
        assert shift1 > 0.0
        assert shift2 / shift1 == pytest.approx(4.0, rel=5e-3)

    @settings(max_examples=50, deadline=None)
    @given(
        power=st.floats(0.0, 1.0),
        g=st.floats(0.0, TWO_PI * 2e6),
        dc=st.floats(-4.0, 4.0),
        dw=st.floats(-4.0, 4.0),
    )
    def test_effective_couplings_real_nonnegative(self, power, g, dc, dw):
        params = base_params(power_c=power, g=g,
                             delta_c=dc * OMEGA_M, delta_w=dw * OMEGA_M)
        ss = solve_steady_state(params)
        assert ss.g_c >= 0.0
        assert ss.g_w >= 0.0
        assert ss.q_s >= 0.0
        assert ss.p_s == 0.0

    def test_singular_optical_response_rejected(self):
        # with all population in the top level the atomic back-action shifts
        # the pole onto the real axis once kappa_c cancels it exactly
        seed = base_params(rho_aa0=1.0, rho_cc0=0.0, rho_ca0=0.0,
                           delta_c=0.0, kappa_c=1.0)
        a_coef, b_coef = _coherence_coefficients(seed)
        pole = 1j * seed.g * (a_coef + b_coef)
        assert pole.real < 0.0
        tuned = seed.replace(kappa_c=-pole.real, delta_c=-pole.imag)
        with pytest.raises(SingularityError):
            solve_steady_state(tuned)


class TestBareDetunings:
    """The bare detunings of a working point posed at effective detunings
    need no iteration: delta_c + g_oc_bare q_s and delta_w + g_ow_bare q_s."""

    def test_forward_map_recovers_a_self_consistent_bare_point(self):
        # the effective detunings of the self-consistent working point at bare
        # detunings (omega_m, omega_m), from the damped fixed-point iteration
        # that once solved for them
        params = base_params(delta_c=-117629636.86143641, delta_w=62831658.03846138)
        der = derive(params)
        ss = solve_steady_state(params)
        assert params.delta_c + der.g_oc_bare * ss.q_s == pytest.approx(OMEGA_M, rel=1e-12)
        assert params.delta_w + der.g_ow_bare * ss.q_s == pytest.approx(OMEGA_M, rel=1e-12)

    def test_static_shift_at_the_test_base(self):
        # 30 mW displaces the optical cavity by several mechanical frequencies
        ss = solve_steady_state(base_params())
        shift = derive(base_params()).g_oc_bare * ss.q_s
        assert shift / OMEGA_M == pytest.approx(2.9349548533093155, rel=1e-12)

    def test_undriven_system_sits_at_origin(self):
        ss = solve_steady_state(base_params(power_c=0.0, power_w=0.0))
        assert ss.q_s == 0.0
        assert ss.alpha_s == 0.0
        assert ss.beta_s == 0.0


class TestParameterValidation:
    @pytest.mark.parametrize("field,value", [
        ("omega_m", 0.0),
        ("mass", -1e-12),
        ("kappa_a", 0.0),
        ("gamma_m", -1.0),
        ("temperature", -1e-3),
        ("power_c", -1.0),
        ("g", -1.0),
        ("r_a", -1.0),
        ("rho_aa0", 1.5),
        ("rho_cc0", -0.1),
        ("omega_w", float("nan")),
        ("delta_c", float("inf")),
        ("mass", True),
    ])
    def test_rejected_values(self, field, value):
        with pytest.raises(ParameterError):
            base_params(**{field: value})

    def test_coherence_bound(self):
        with pytest.raises(ParameterError):
            base_params(rho_aa0=0.1, rho_cc0=0.1, rho_ca0=0.5)
        # saturating the bound is allowed
        base_params(rho_aa0=0.5, rho_cc0=0.5, rho_ca0=0.5)
        base_params(rho_aa0=0.5, rho_cc0=0.5, rho_ca0=-0.5)

    def test_replace_revalidates(self):
        with pytest.raises(ParameterError):
            base_params().replace(mass=-1.0)

    def test_replace_preserves_other_fields(self):
        changed = base_params().replace(delta_c=-OMEGA_M)
        assert changed.delta_c == -OMEGA_M
        assert changed.kappa_c == base_params().kappa_c


# each field's range, written out here rather than read from oemsim: every
# field of SystemParameters is in exactly one of them
STRICTLY_POSITIVE = ("omega_m", "omega_w", "lambda_oc", "cavity_length", "plate_gap",
                     "mu", "mass", "gamma_m", "kappa_c", "kappa_w", "kappa_a")
NONNEGATIVE = ("power_c", "power_w", "g", "r_a", "temperature")
UNIT_INTERVAL = ("rho_aa0", "rho_cc0")
ANY_SIGN = ("delta_a1", "delta_a2", "delta_c", "delta_w", "rho_ca0")
FIELDS = STRICTLY_POSITIVE + NONNEGATIVE + UNIT_INTERVAL + ANY_SIGN


def _construct(**changes):
    return base_params(**changes)


def _replace(**changes):
    return base_params().replace(**changes)


def _message(make, **changes) -> str:
    with pytest.raises(ParameterError) as info:
        make(**changes)
    return str(info.value)


@pytest.mark.parametrize("make", [_construct, _replace], ids=["constructor", "replace"])
class TestValidationMessages:
    """The exact ParameterError of every field and rule, by either route."""

    def test_the_tables_cover_every_field_once(self, make):
        assert sorted(FIELDS) == sorted(f.name for f in dataclasses.fields(SystemParameters))

    def test_not_a_real_number(self, make):
        for field in FIELDS:
            for value in ["1.0", None, True, False, 1j, [1.0]]:
                assert _message(make, **{field: value}) == (
                    f"{field} must be a real number, got {value!r}")

    def test_not_finite(self, make):
        for field in FIELDS:
            for value in [math.nan, math.inf, -math.inf]:
                assert _message(make, **{field: value}) == (
                    f"{field} must be finite, got {value!r}")

    @pytest.mark.parametrize("fields,values,rule", [
        (STRICTLY_POSITIVE, [0.0, -0.0, 0, -5e-324, -1.0], "must be strictly positive"),
        (NONNEGATIVE, [-5e-324, -1, -1e300], "must be nonnegative"),
        (UNIT_INTERVAL, [-5e-324, -1, 1.0000000000000002, 2], "must lie in [0, 1]"),
    ], ids=["strictly_positive", "nonnegative", "unit_interval"])
    def test_out_of_range(self, make, fields, values, rule):
        for field in fields:
            for value in values:
                assert _message(make, **{field: value}) == f"{field} {rule}"

    @pytest.mark.parametrize("changes", [
        {"rho_ca0": 0.5 + 2e-12},
        {"rho_ca0": -0.6},
        {"rho_aa0": 0.1, "rho_cc0": 0.1},
        {"rho_aa0": 0.0, "rho_cc0": 1.0},
    ])
    def test_coherence_bound(self, make, changes):
        assert _message(make, **changes) == (
            "rho_ca0 violates the coherence bound |rho_ca0| <= sqrt(rho_aa0*rho_cc0)")

    @pytest.mark.parametrize("changes", [
        {f: 5e-324 for f in STRICTLY_POSITIVE},
        {f: 0 for f in NONNEGATIVE},
        {f: -0.0 for f in NONNEGATIVE},
        {"rho_aa0": 0.0, "rho_cc0": 1, "rho_ca0": 0.0},
        {"rho_aa0": 1, "rho_cc0": 0.0, "rho_ca0": -0.0},
        {"rho_aa0": 1.0, "rho_cc0": 1.0, "rho_ca0": -1.0},
        {f: -1e300 for f in ANY_SIGN if f != "rho_ca0"},
        {"omega_m": 10**300, "delta_c": -(10**300), "power_c": 3},
        {"omega_m": np.float64(1.5e7)},  # a float subclass
    ])
    def test_edges_that_pass(self, make, changes):
        params = make(**changes)
        for name, value in changes.items():
            assert getattr(params, name) is value

    @pytest.mark.parametrize("changes,message", [
        # a value that is not a real number or not finite outranks every
        # range error, even one in a field checked before it
        ({"omega_m": -1.0, "delta_c": math.nan}, "delta_c must be finite, got nan"),
        ({"mass": 0.0, "rho_ca0": "x"}, "rho_ca0 must be a real number, got 'x'"),
        ({"rho_aa0": 2.0, "temperature": math.inf}, "temperature must be finite, got inf"),
        # among those, the positive fields, then the nonnegative ones, then
        # the detunings, then temperature and the atomic state
        ({"temperature": math.nan, "gamma_m": math.nan}, "gamma_m must be finite, got nan"),
        ({"kappa_a": None, "omega_w": math.nan}, "omega_w must be finite, got nan"),
        ({"delta_a1": math.inf, "r_a": "1"}, "r_a must be a real number, got '1'"),
        ({"rho_ca0": math.nan, "delta_w": True}, "delta_w must be a real number, got True"),
        # among range errors, the same order
        ({"mass": -1.0, "omega_m": 0.0}, "omega_m must be strictly positive"),
        ({"temperature": -1.0, "g": -1.0}, "g must be nonnegative"),
        ({"rho_cc0": 2.0, "kappa_a": 0.0}, "kappa_a must be strictly positive"),
        ({"rho_cc0": 2.0, "rho_aa0": -1.0}, "rho_aa0 must lie in [0, 1]"),
        ({"rho_aa0": 2.0, "temperature": -1.0}, "temperature must be nonnegative"),
        # a range error outranks the coherence bound
        ({"rho_aa0": 1.5, "rho_ca0": 0.9}, "rho_aa0 must lie in [0, 1]"),
    ])
    def test_first_failure_of_several(self, make, changes, message):
        assert _message(make, **changes) == message


class TestReplace:
    def test_unknown_name_is_a_type_error(self):
        params = base_params()
        with pytest.raises(TypeError, match="'omega'"):
            params.replace(omega=1.0)
        # before any value is validated
        with pytest.raises(TypeError, match="'bogus'"):
            params.replace(mass=-1.0, bogus=1)

    def test_result_is_a_new_frozen_instance(self):
        params = base_params()
        copy = params.replace()
        assert copy == params and copy is not params
        assert hash(copy) == hash(params)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.g = 0.0
        # the original is untouched by a change to the copy's fields
        assert params.replace(g=0.0).g == 0.0 and params.g == base_params().g

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_dataclasses_replace_on_every_preset_base(self, name):
        base = preset(name).base
        changes = [{}, {"temperature": 0}, {"g": 0, "r_a": 0}, {"power_c": 1},
                   {"delta_c": -3}, {"rho_aa0": 1, "rho_cc0": 0, "rho_ca0": 0},
                   {"delta_c": np.float64(0.25)}]
        changes += [{field: getattr(base, field)} for field in FIELDS]
        for change in changes:
            ours = base.replace(**change)
            reference = dataclasses.replace(base, **change)
            assert ours == reference
            assert type(ours) is SystemParameters
            # the same fields, in the same order, holding the same objects
            assert [(k, type(v), v) for k, v in vars(ours).items()] == [
                (k, type(v), v) for k, v in vars(reference).items()]
