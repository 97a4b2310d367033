"""Property-based checks of the per-point pipeline over the parameter domain.

Draws perturb the seven preset base points: the effective optical detuning
across +-2 omega_m and the couplings, rates and temperature over decades
around their preset values.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import oracle_config
from oemsim import (
    SweepSpec,
    build_diffusion,
    build_drift,
    evaluate_point,
    preset,
    run_sweep,
    solve_lyapunov,
    solve_steady_state,
)
from oemsim.gaussian import BIPARTITE_PAIRS
from oemsim.verify import integrate_covariance

PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c")
PAIRS = tuple(BIPARTITE_PAIRS)
# fields a 5-point sweep through each drawn point may run along
SWEEP_FIELDS = ("delta_c", "g", "r_a", "temperature", "kappa_c", "gamma_m", "omega_m")


def decades(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


@st.composite
def parameter_points(draw):
    base = preset(draw(st.sampled_from(PRESETS))).base
    return base.replace(
        delta_c=draw(st.floats(min_value=-2.0, max_value=2.0)) * base.omega_m,
        g=base.g * draw(decades(-2.0, 1.0)),
        r_a=base.r_a * draw(decades(-2.0, 1.0)),
        temperature=base.temperature * draw(decades(-1.0, 1.5)),
        kappa_c=base.kappa_c * draw(decades(-0.5, 0.5)),
        gamma_m=base.gamma_m * draw(decades(-1.0, 1.0)),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(parameter_points(), st.sampled_from(SWEEP_FIELDS))
def test_pipeline_contract_and_time_domain_oracle(params, varied):
    rec = evaluate_point(params, PAIRS)  # must never raise
    # a 5-point sweep from the drawn point along `varied` (half an omega_m for
    # the detuning, half the drawn value otherwise) gives the same records
    start = getattr(params, varied)
    step = 0.5 * params.omega_m if varied == "delta_c" else 0.5 * start
    spec = SweepSpec(name="draw", base=params, varied=varied, start=start,
                     stop=start + step, count=5, axis="si", axis_scale=1.0,
                     pairs=PAIRS, baseline=True)
    for swept in run_sweep(spec).records:
        single = evaluate_point(params.replace(**{varied: swept.x}), PAIRS,
                                baseline=True)
        assert dataclasses.replace(single, x=swept.x) == swept
    if rec.stable is not True:
        return
    for tag, value in rec.e_n.items():
        assert math.isfinite(value) and value >= 0.0, f"{tag}: E_N = {value!r}"
    a = build_drift(params, solve_steady_state(params))
    d = build_diffusion(params)
    v = solve_lyapunov(a, d)
    v_scale = float(np.max(np.abs(v)))
    v_int = integrate_covariance(a, d, oracle_config(a, d, v_scale))
    assert np.max(np.abs(v_int - v)) <= 1e-6 * v_scale


def tenths_of_decades(lo, hi):
    """10**e for e on a 0.1 grid from lo to hi: drawn as an integer, which
    spreads a derandomized run's draws over the decades more evenly than a
    float exponent, whose draws crowd at 10**0."""
    return st.integers(min_value=10 * lo, max_value=10 * hi).map(lambda k: 10.0 ** (k / 10))


def signed(magnitudes):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitudes).map(lambda t: t[0] * t[1])


@st.composite
def atomic_fields(draw):
    """kappa_a over 15 decades, both signs of the atomic detunings, and
    populations with a coherence on or inside its bound."""
    rho_aa0 = draw(st.floats(min_value=0.0, max_value=1.0))
    rho_cc0 = draw(st.floats(min_value=0.0, max_value=1.0))
    share = draw(st.one_of(st.sampled_from((-1.0, 1.0)),
                           st.floats(min_value=-1.0, max_value=1.0)))
    return dict(
        kappa_a=draw(tenths_of_decades(-6, 9)),
        delta_a1=draw(signed(tenths_of_decades(0, 11))),
        delta_a2=draw(signed(tenths_of_decades(0, 11))),
        rho_aa0=rho_aa0,
        rho_cc0=rho_cc0,
        rho_ca0=share * math.sqrt(rho_aa0 * rho_cc0),
    )


BASELINE_SPEC = dataclasses.replace(preset("fig6a"), count=9)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(atomic_fields())
def test_baseline_does_not_depend_on_atomic_fields(atomic):
    """ROADMAP item 5's baseline law, exact: the atom-free columns are the
    same bits at any atomic decay rate, detunings and populations."""
    drawn = run_sweep(dataclasses.replace(
        BASELINE_SPEC, base=BASELINE_SPEC.base.replace(**atomic)))
    reference = run_sweep(BASELINE_SPEC).baseline_e_n
    assert not np.isnan(reference).all()
    assert drawn.baseline_e_n.tobytes() == reference.tobytes()
