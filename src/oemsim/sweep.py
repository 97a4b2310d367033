"""Parameter sweeps, bundled scenario presets, and atom-free baselines.

A sweep varies one parameter of the 10-mode system over a 1-D grid, in blocks
of BLOCK_POINTS points. A block is a model.ParameterBlock: the varied field's
column beside constant columns of the base values. The sweep validates the
column once, at its extremes, and builds no SystemParameters per point. The
block's working points, drifts and diffusions come from one call each, since
model.solve_steady_state, dynamics.build_drift and dynamics.build_diffusion
take a block as well as a single point; a pole of the optical response comes
back per point instead of being raised. One batched eigendecomposition per
block then gives the stability gate and the steady-state covariance
(dynamics.solve_lyapunov_batch); the block's points that fail its residual
check are solved again together, directly, by one batched LU solve of their
Lyapunov operators on the 55 unknowns of a symmetric covariance. The
entanglement of every requested mode pair comes from one batched
log-negativity per pair. The optional atom-free baseline is the same
pipeline on the same block with its g and r_a columns at zero, where the
atomic rows decouple exactly; the independent 6-mode route that checks it
lives in verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .constants import C_LIGHT
from .errors import ParameterError, SimulationError, SingularityError
from . import dynamics, gaussian, model

AXIS_OMEGA_M = "delta_c_over_omega_m"
AXIS_KAPPA_C = "delta_c_over_kappa_c"


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition over one varied parameter of the system."""

    name: str
    base: model.SystemParameters
    varied: str                  # SystemParameters field name being swept
    start: float                 # grid start, in axis units
    stop: float                  # grid stop, in axis units
    count: int                   # number of grid points
    axis: str                    # axis label recorded in outputs
    axis_scale: float            # multiply axis units by this to get rad/s
    pairs: tuple[str, ...]       # mode pairs to report
    baseline: bool = False       # also report the atom-free (g = r_a = 0) values
    notes: tuple[str, ...] = ()  # provenance/interpretation notes for metadata

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ParameterError("sweep grid needs at least 2 points")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ParameterError("sweep grid bounds must be finite")
        if self.start == self.stop:
            raise ParameterError("sweep grid must be strictly monotone")
        if self.varied not in {f.name for f in fields(model.SystemParameters)}:
            raise ParameterError(f"unknown swept parameter {self.varied!r}")
        if not 0 < self.axis_scale < math.inf:
            raise ParameterError("axis_scale must be positive and finite")
        canon = tuple(gaussian.normalize_pair_tag(t) for t in self.pairs)
        if len(set(canon)) != len(canon):
            raise ParameterError("duplicate mode pairs requested")
        object.__setattr__(self, "pairs", canon)

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class PointRecord:
    """Outcome of the pipeline at one grid point.

    Unstable points carry no entanglement values at all (the steady state does
    not exist there); failed points carry an error message instead of data.
    """

    x: float
    stable: bool | None
    max_real_part: float | None              # spectral abscissa, 1/s
    e_n: dict[str, float] = field(default_factory=dict)
    baseline_e_n: dict[str, float] = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    records: tuple[PointRecord, ...]

    def stable_count(self) -> int:
        return sum(1 for r in self.records if r.stable)

    def error_count(self) -> int:
        return sum(1 for r in self.records if r.error is not None)


#: grid points per batched eigendecomposition; bounds the engine's working
#: memory (one batch over a whole 8001-point grid more than doubles peak RSS)
BLOCK_POINTS = 64


def evaluate_point(params: model.SystemParameters, pairs: tuple[str, ...],
                   baseline: bool = False) -> PointRecord:
    """Run the full pipeline at one parameter point.

    Never raises for per-point numerical trouble: instability comes back as a
    flagged record and solver failures as an error record, so grid scans keep
    going.
    """
    pairs = tuple(gaussian.normalize_pair_tag(t) for t in pairs)
    block = model.parameter_block(params, "delta_c", [params.delta_c])  # one point
    return _evaluate_block(block, [math.nan], pairs, baseline)[0]


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate the pipeline over the grid, BLOCK_POINTS points at a time.

    Every record equals what evaluate_point gives at that grid point. `jobs`
    is accepted and validated for compatibility; the engine is serial, and
    neither records nor speed depend on it.
    """
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    xs = spec.grid()
    column = xs * spec.axis_scale
    # each constraint on one field is an interval in that field, so the
    # column's extremes (or its first NaN) stand for every grid point
    for k in sorted({int(column.argmin()), int(column.argmax())}):
        spec.base.replace(**{spec.varied: float(column[k])})
    records: list[PointRecord] = []
    for lo in range(0, len(xs), BLOCK_POINTS):
        block = model.parameter_block(spec.base, spec.varied,
                                      column[lo:lo + BLOCK_POINTS])
        records += _evaluate_block(block, xs[lo:lo + BLOCK_POINTS].tolist(),
                                   spec.pairs, spec.baseline)
    return SweepResult(spec=spec, records=tuple(records))


def _evaluate_block(block: model.ParameterBlock, xs: list[float],
                    pairs: tuple[str, ...], baseline: bool) -> list[PointRecord]:
    """The pipeline on a block of points, with one batched Lyapunov solve.

    Each point poses one drift/diffusion problem and, with baseline, a second
    one at g = 0, r_a = 0: there the atomic rows of the drift decouple
    exactly, so its bosonic blocks are those of the atom-free system.
    Problem k is point k's main problem, m + k its baseline.
    """
    m = len(xs)
    base_pairs = tuple(t for t in pairs if t in gaussian.BOSONIC_PAIRS)
    variants = [block]
    if baseline:
        zero = np.zeros(m)
        variants.append(replace(block, g=zero, r_a=zero))
    working = [model.solve_steady_state(p) for p in variants]
    # the block form marks a pole of the optical response with NaN
    pole = np.isnan(working[0].q_s)
    sol = dynamics.solve_lyapunov_batch(
        np.concatenate([dynamics.build_drift(p, ss) for p, ss in zip(variants, working)]),
        np.concatenate([dynamics.build_diffusion(p) for p in variants]))
    solved = sol.stable & ~np.tile(pole, len(variants))
    solved[list(sol.errors)] = False
    # entanglement per (problem, pair): a float, or the error it raised
    e_n: dict[tuple[int, str], float | SimulationError] = {}
    for tag in pairs:
        rows = np.flatnonzero(solved if tag in base_pairs else solved[:m])
        idx = gaussian.BIPARTITE_PAIRS[tag].indices
        values, _, errors = gaussian.log_negativities(sol.v[np.ix_(rows, idx, idx)])
        for j, i in enumerate(rows.tolist()):
            e_n[i, tag] = errors.get(j, float(values[j]))
    max_real_part = (sol.max_real_part[:m] * block.omega_m).tolist()
    records = []
    for main, x in enumerate(xs):
        if pole[main]:
            records.append(_error_record(x, SingularityError(model.POLE_MESSAGE)))
            continue
        last = main + m if baseline else main
        found = {tag: e_n[main, tag] for tag in pairs if (main, tag) in e_n}
        found_base = ({tag: e_n[last, tag] for tag in base_pairs if (last, tag) in e_n}
                      if baseline else {})
        # the first failure in pipeline order: main solve, main pairs, baseline
        outcomes = (sol.errors.get(main), *found.values(),
                    sol.errors.get(last), *found_base.values())
        failure = next((o for o in outcomes if isinstance(o, SimulationError)), None)
        if failure is not None:
            records.append(_error_record(x, failure))
            continue
        records.append(PointRecord(
            x=x,
            stable=bool(sol.stable[main]),
            max_real_part=max_real_part[main],
            e_n=found,
            baseline_e_n=found_base,
        ))
    return records


def _error_record(x: float, exc: SimulationError) -> PointRecord:
    return PointRecord(x=x, stable=None, max_real_part=None, error=str(exc))


# ---------------------------------------------------------------------------
# scenario presets
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi
_OMEGA_M = _TWO_PI * 1e7

# shared operating point: 10 MHz resonator and microwave cavity, 15 mK bath,
# 10 pg effective mass, 100 nm capacitor gap, 1 mm cavity driven at 810 nm
# with 30 mW on both ports, equal atomic populations and coherence
_COMMON = dict(
    omega_m=_OMEGA_M,
    omega_w=_OMEGA_M,
    lambda_oc=810e-9,
    cavity_length=1e-3,
    plate_gap=100e-9,
    mu=0.008,
    mass=10e-12,
    temperature=15e-3,
    rho_aa0=0.5,
    rho_cc0=0.5,
    rho_ca0=0.5,
    gamma_m=200.0 * math.pi,
    kappa_c=0.1 * _OMEGA_M,
    kappa_w=0.08 * _OMEGA_M,
    kappa_a=_TWO_PI * 1e5,
    power_c=30e-3,
    power_w=30e-3,
    g=_TWO_PI * 8e5,
    r_a=1.6e5,
    delta_a1=_TWO_PI * 1e10,
    delta_a2=_TWO_PI * 1e7,
    delta_c=_OMEGA_M,
    delta_w=_OMEGA_M,
)

_NOTE_GAMMA = ("mechanical damping uses the scenario value 200*pi rad/s, "
               "overriding the quality-factor default omega_m/5e4")
_NOTE_KAPPA_A = ("atomic decay rate is not fixed by this scenario's stated "
                 "parameters; the sibling scenarios' 2*pi*1e5 rad/s is adopted")
_NOTE_KAPPA_C_FRACTION = ("optical decay given as the bare fraction 0.02; "
                          "interpreted as 0.02*omega_m")

_FIG6_KAPPA_C = math.pi * C_LIGHT / (4.07e4 * 1e-3)  # finesse 4.07e4, 1 mm cavity


def _params(**overrides) -> model.SystemParameters:
    merged = dict(_COMMON)
    merged.update(overrides)
    return model.SystemParameters(**merged)


def _fig6_params(temperature: float) -> model.SystemParameters:
    return _params(
        temperature=temperature,
        r_a=1.6e6,
        g=_TWO_PI * 1e5,
        kappa_a=_TWO_PI * 1e6,
        kappa_c=_FIG6_KAPPA_C,
        delta_a1=_TWO_PI * 1e10,
        delta_a2=_TWO_PI * 1e6,
        delta_w=-_OMEGA_M,
    )


def _build_presets() -> dict[str, SweepSpec]:
    presets: dict[str, SweepSpec] = {}
    presets["fig2"] = SweepSpec(
        name="fig2",
        base=_params(),
        varied="delta_c", start=-2.0, stop=2.0, count=401,
        axis=AXIS_OMEGA_M, axis_scale=_OMEGA_M,
        pairs=("mr_oc",), baseline=True,
        notes=(_NOTE_GAMMA, _NOTE_KAPPA_A),
    )
    presets["fig3"] = SweepSpec(
        name="fig3",
        base=_params(
            gamma_m=_OMEGA_M / 5e4,
            kappa_c=0.08 * _OMEGA_M,
            g=_TWO_PI * 1e5,
            r_a=2000.0,
            delta_a1=_TWO_PI * 1e7,
            delta_a2=_TWO_PI * 1e7,
        ),
        varied="delta_c", start=-2.0, stop=2.0, count=401,
        axis=AXIS_OMEGA_M, axis_scale=_OMEGA_M,
        pairs=("mr_mc",), baseline=True,
    )
    presets["fig4"] = SweepSpec(
        name="fig4",
        base=_params(
            kappa_c=0.08 * _OMEGA_M,
            g=_TWO_PI * 1.5e6,
            r_a=1.6e6,
            delta_a2=_TWO_PI * 1e6,
        ),
        varied="delta_c", start=-2.0, stop=2.0, count=401,
        axis=AXIS_OMEGA_M, axis_scale=_OMEGA_M,
        pairs=("oc_mc",), baseline=True,
        notes=(_NOTE_GAMMA, _NOTE_KAPPA_A),
    )
    presets["fig5"] = SweepSpec(
        name="fig5",
        base=_params(
            kappa_c=0.02 * _OMEGA_M,
            g=_TWO_PI * 1e5,
            r_a=1.6e6,
            delta_a1=_TWO_PI * 1e6,
            delta_a2=_TWO_PI * 1e6,
            delta_c=50.0 * 0.02 * _OMEGA_M,
        ),
        varied="delta_c", start=0.0, stop=100.0, count=401,
        axis=AXIS_KAPPA_C, axis_scale=0.02 * _OMEGA_M,
        pairs=("oc_sba", "oc_scb"), baseline=False,
        notes=(_NOTE_GAMMA, _NOTE_KAPPA_C_FRACTION),
    )
    for tag, temp in (("fig6a", 5e-3), ("fig6b", 250e-3), ("fig6c", 350e-3)):
        presets[tag] = SweepSpec(
            name=tag,
            base=_fig6_params(temp),
            varied="delta_c", start=-2.0, stop=2.0, count=401,
            axis=AXIS_OMEGA_M, axis_scale=_OMEGA_M,
            pairs=("mr_oc", "mr_mc", "oc_mc"), baseline=True,
            notes=(_NOTE_GAMMA,),
        )
    return presets


PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c")

PRESET_SUMMARIES = {
    "fig2": "mechanics-optics entanglement vs optical detuning, strong atom beam",
    "fig3": "mechanics-microwave entanglement vs optical detuning, weak atom beam",
    "fig4": "optics-microwave entanglement vs optical detuning, strong coupling",
    "fig5": "optics-atom entanglement vs detuning in optical linewidths",
    "fig6a": "three bosonic pairs vs optical detuning at 5 mK",
    "fig6b": "three bosonic pairs vs optical detuning at 250 mK",
    "fig6c": "three bosonic pairs vs optical detuning at 350 mK",
}


def preset(name: str) -> SweepSpec:
    """Fully-populated sweep spec for a named scenario."""
    key = name.strip().lower()
    specs = _build_presets()
    if key not in specs:
        raise ParameterError(
            f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return specs[key]


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

_PAIR_COLUMNS = ("mr_oc", "mr_mc", "oc_mc", "oc_sba", "oc_scb")


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, ".17g")


def csv_header(spec: SweepSpec) -> list[str]:
    cols = ["x_value", "x_axis", "stable", "max_real_part"]
    cols += [f"en_{tag}" for tag in _PAIR_COLUMNS]
    if spec.baseline:
        cols += [f"en_baseline_{tag}" for tag in gaussian.BOSONIC_PAIRS
                 if tag in spec.pairs]
    return cols


def csv_rows(result: SweepResult) -> list[list[str]]:
    """One row per grid point; absent values (unstable/unrequested) are empty."""
    spec = result.spec
    rows = []
    for rec in result.records:
        row = [_fmt(rec.x), spec.axis]
        if rec.error is not None:
            row += ["", ""]
        else:
            row += ["true" if rec.stable else "false", _fmt(rec.max_real_part)]
        for tag in _PAIR_COLUMNS:
            row.append(_fmt(rec.e_n.get(tag)))
        if spec.baseline:
            for tag in gaussian.BOSONIC_PAIRS:
                if tag in spec.pairs:
                    row.append(_fmt(rec.baseline_e_n.get(tag)))
        rows.append(row)
    return rows


def write_csv(result: SweepResult, path) -> None:
    lines = [",".join(csv_header(result.spec))]
    lines += [",".join(row) for row in csv_rows(result)]
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
