"""Parameter sweeps, bundled scenario presets, and atom-free baselines.

A sweep varies one parameter of the 10-mode system over a 1-D grid. The model
stage runs once per _STAGE_POINTS points, which bounds the memory it holds:
a model.ParameterBlock of those points (the varied field's column beside the
base's other values as floats, validated once, at the grid's extremes) gives
one working point per problem variant (model.solve_steady_state), and the
entries of build_drift and build_diffusion, each computed once. An entry
that no column reaches is a float and goes into a 10x10 template; the rest
stay columns, one value per point (dynamics._Template). The stage's points
are then evaluated in blocks of BLOCK_POINTS: a block copies the templates
into its drift and diffusion stacks and writes in only its slice of the
varying entries, and takes its pole mask, where the optical response has a
pole, from the stage's q_s column. One batched solve per block then gives
the stability gate and the steady-state covariance
(dynamics.solve_lyapunov_batch): one batched eigendecomposition, or, where
the block's end problems are unstable, batched spectra without
eigenvectors and an eigendecomposition of its stable problems alone, with
the same bits either way. That half of the solve depends on the drifts
alone, so in a sweep of one model stage a block whose drift stack an
earlier block posed (along temperature, which reaches only the diffusion,
or fig6b after fig6a) takes it from a memo (_DriftMemo) and solves only the
diffusion half. The block's points that fail its residual
check are solved again together, directly, by one batched LU solve of their
Lyapunov operators on the 55 unknowns of a symmetric covariance. The
entanglement of every (problem, requested mode pair) of the block comes from
one batched log-negativity over one gathered stack of 4x4 blocks. The
optional atom-free baseline, posed only when a bosonic pair is requested, is
a second variant of the same points with g and r_a at 0.0, where the atomic
rows decouple, and vacuum placeholders in their corner; the independent
6-mode route that checks it lives in verify. evaluate_point is a sweep of
one point.

Blocks are independent, and their work is batched numpy and LAPACK calls that
release the interpreter lock, so run_sweep(spec, jobs) with jobs > 1 evaluates
them on a pool of min(jobs, blocks, CPUs) threads, while the calling thread
runs the next model stage. Results are assembled in block order: the columns,
the failures map and the CSV bytes are the same at every jobs value.

A SweepResult holds columns, one entry per grid point, and the CSV is
written from them; per-point PointRecords are derived only when asked for.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial

import numpy as np

from .constants import C_LIGHT
from .errors import ParameterError
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
        if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral):
            raise ParameterError(
                f"sweep grid count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise ParameterError("sweep grid needs at least 2 points")
        for name in ("start", "stop", "axis_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(
                    f"sweep {name} must be a real number, got {value!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ParameterError("sweep grid bounds must be finite")
        if self.start == self.stop:
            raise ParameterError("sweep grid must be strictly monotone")
        if self.varied not in {f.name for f in fields(model.SystemParameters)}:
            raise ParameterError(f"unknown swept parameter {self.varied!r}")
        if not 0 < self.axis_scale < math.inf:
            raise ParameterError("axis_scale must be positive and finite")
        object.__setattr__(self, "pairs", _pair_tags(self.pairs))

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    @property
    def baseline_pairs(self) -> tuple[str, ...]:
        """Pairs with an atom-free column, in CSV order; () without baseline."""
        return _baseline_pairs(self.pairs) if self.baseline else ()


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


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Outcome of a sweep as columns, one entry per grid point.

    An absent value (an unstable or failed point, or an unsolved baseline) is
    NaN; a computed E_N or abscissa never is. `records` gives the same outcome
    as one PointRecord per point, derived from the columns on first access.
    """

    spec: SweepSpec
    x: np.ndarray                 # (n,) grid, axis units
    stable: np.ndarray            # (n,) Hurwitz gate; False where failed
    max_real_part: np.ndarray     # (n,) spectral abscissa, 1/s
    e_n: np.ndarray               # (n, len(spec.pairs))
    baseline_e_n: np.ndarray      # (n, len(spec.baseline_pairs))
    failures: dict[int, str]      # error message by point index, ascending

    @cached_property
    def records(self) -> tuple[PointRecord, ...]:
        return tuple(_records(self.x, self.spec.pairs, self.spec.baseline_pairs,
                              self.stable, self.max_real_part, self.e_n,
                              self.baseline_e_n, self.failures))

    def stable_count(self) -> int:
        return int(np.count_nonzero(self.stable))

    def error_count(self) -> int:
        return len(self.failures)


#: grid points per batched eigendecomposition; bounds the engine's working
#: memory (one batch over a whole 8001-point grid more than doubles peak RSS)
BLOCK_POINTS = 64
#: grid points per model stage, a whole number of blocks: the working points
#: and the varying drift and diffusion entries of a long grid are held for
#: this many points at a time, not for the whole grid
_STAGE_POINTS = 16 * BLOCK_POINTS


def evaluate_point(params: model.SystemParameters, pairs: tuple[str, ...],
                   baseline: bool = False) -> PointRecord:
    """Run the full pipeline at one parameter point.

    Never raises for per-point numerical trouble: instability comes back as a
    flagged record and solver failures as an error record, so grid scans keep
    going. The record's x is delta_c / omega_m, the default sweep axis. The
    point is a sweep of one point along delta_c.
    """
    pairs = _pair_tags(pairs)
    base_pairs = _baseline_pairs(pairs) if baseline else ()
    columns = _evaluate(params, "delta_c", np.array([params.delta_c]), pairs,
                        base_pairs, jobs=1)
    return _records(np.array([params.delta_c / params.omega_m]), pairs, base_pairs,
                    *columns)[0]


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate the pipeline over the grid, BLOCK_POINTS points at a time.

    Every record equals what evaluate_point gives at that grid point. With
    jobs > 1 the blocks run on a pool of min(jobs, blocks, CPUs) threads
    (numpy and LAPACK release the interpreter lock); the result is assembled
    in block order, so it does not depend on jobs. An exception in a block
    propagates, and blocks not yet started are cancelled.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral):
        raise ParameterError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    xs = spec.grid()
    column = xs * spec.axis_scale
    # each constraint on one field is an interval in that field, so the
    # column's extremes (or its first NaN) stand for every grid point
    for k in sorted({int(column.argmin()), int(column.argmax())}):
        spec.base.replace(**{spec.varied: float(column[k])})
    return SweepResult(spec, xs, *_evaluate(spec.base, spec.varied, column, spec.pairs,
                                            spec.baseline_pairs, jobs))


def _pair_tags(pairs) -> tuple[str, ...]:
    """The canonical tags of a list of mode pairs, in its order. Anything but
    an iterable of string tags (a bare string, None, a number, a tag that is
    not a string), an unknown tag or a repeated pair is a ParameterError."""
    if isinstance(pairs, str) or not isinstance(pairs, Iterable):
        raise ParameterError(f"mode pairs must be a sequence of tags, got {pairs!r}")
    tags = []
    for tag in pairs:
        if not isinstance(tag, str):
            raise ParameterError(f"mode pair tags must be strings, got {tag!r}")
        try:
            tags.append(gaussian.normalize_pair_tag(tag))
        except KeyError as exc:
            raise ParameterError(exc.args[0]) from None
    if len(set(tags)) != len(tags):
        raise ParameterError("duplicate mode pairs requested")
    return tuple(tags)


def _baseline_pairs(pairs: tuple[str, ...]) -> tuple[str, ...]:
    """The requested pairs that have an atom-free value, in CSV column order."""
    return tuple(t for t in gaussian.BOSONIC_PAIRS if t in pairs)


def _evaluate(base: model.SystemParameters, varied: str, column: np.ndarray,
              pairs: tuple[str, ...], base_pairs: tuple[str, ...], jobs: int):
    """The columns of SweepResult for the points of `column` along `varied`:
    stable, max_real_part, e_n, baseline_e_n and failures.

    The model stage runs once per _STAGE_POINTS points (_ModelStage), and
    then each of its blocks once (_evaluate_block). In a sweep of one stage
    the drift half of a block's solve comes from _DRIFT_MEMO where a block
    before it posed the same drift stack. With a pool, the calling
    thread runs the model stage of the next _STAGE_POINTS points while the
    pool solves the blocks of the last ones; it waits for the blocks of the
    stage before that first, so at most three stages are held at a time.
    """
    n = len(column)
    one_stage = n <= _STAGE_POINTS
    if not one_stage:  # the memo serves sweeps of one stage alone
        _DRIFT_MEMO.clear()

    def blocks():
        for lo in range(0, n, _STAGE_POINTS):
            stage = _ModelStage.of(base, varied, column[lo:lo + _STAGE_POINTS],
                                   bool(base_pairs))
            slices = [slice(b, b + BLOCK_POINTS)
                      for b in range(0, len(stage.pole), BLOCK_POINTS)]
            if one_stage:
                keys = [stage.drift_key(block) for block in slices]
                _DRIFT_MEMO.keep(keys)
                yield [(stage, block, partial(_DRIFT_MEMO.lookup, key))
                       for block, key in zip(slices, keys)]
            else:
                yield [(stage, block, dynamics._decompose) for block in slices]

    def evaluate(stage: _ModelStage, block: slice, decompose):
        # a frame in this module: the Lyapunov solve's warnings name it
        return _evaluate_block(stage, block, decompose, pairs, base_pairs)

    workers = 1
    if jobs > 1:  # os.cpu_count reads the system's CPU list: only a pool needs it
        workers = min(jobs, -(-n // BLOCK_POINTS), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it costs milliseconds and pulls in logging, which
        # `import oemsim` and a serial sweep never need
        from concurrent import futures
        pool = futures.ThreadPoolExecutor(workers)
        submitted, window = [], []
        try:
            for stage_blocks in blocks():
                window.append([pool.submit(evaluate, *args) for args in stage_blocks])
                submitted += window[-1]
                if len(window) == 2:
                    done, _ = futures.wait(window.pop(0),
                                           return_when=futures.FIRST_EXCEPTION)
                    if any(future.exception() for future in done):
                        break
            futures.wait(submitted, return_when=futures.FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)
        # blocks start in order, so none before a failed one was cancelled
        outcomes = [future.result() for future in submitted]
    else:
        outcomes = (evaluate(*args) for stage_blocks in blocks() for args in stage_blocks)
    parts = []
    failures: dict[int, str] = {}
    for lo, (*cols, found) in zip(range(0, n, BLOCK_POINTS), outcomes):
        parts.append(cols)
        failures.update((lo + i, message) for i, message in found.items())
    return (*map(np.concatenate, zip(*parts)), failures)


# the atom-free problem's atomic rows and columns, and its vacuum placeholders
# there: -I (drift) and I (diffusion) in the atomic corner, zeros elsewhere
_ATOMIC_MODES = np.zeros((10, 10), dtype=bool)
_ATOMIC_MODES[6:] = _ATOMIC_MODES[:, 6:] = True
_VACUUM_DRIFT, _VACUUM_DIFFUSION = np.zeros((2, 10, 10))
_VACUUM_DRIFT[6:, 6:], _VACUUM_DIFFUSION[6:, 6:] = -np.eye(4), np.eye(4)


@dataclass(frozen=True, eq=False)
class _ModelStage:
    """The model stage of consecutive points of a sweep: everything that the
    points' problems need before the Lyapunov solve.

    Problem variants: the main problem and, when the sweep reports a
    baseline, the atom-free problem at g = 0, r_a = 0: there the atomic rows
    and columns of the drift decouple exactly, so its bosonic blocks are
    those of the atom-free system, and no atomic field reaches them. Its
    atomic modes hold the vacuum placeholders: -I (drift) and I (diffusion)
    in their corner, solved by I/2, and zeros in their rows and columns
    outside it. As built, the corner's rates would decide the atom-free gate
    (kappa_a near 0), condition estimate and residual bound, and LAPACK's
    balancing sets rows without off-diagonal entries aside.
    """

    omega_m: np.ndarray        # (n,) omega_m at each point
    temperature: np.ndarray    # (n,) the bath temperature at each point
    pole: np.ndarray           # (n,) the main working point is at a pole
    templates: list            # (drift, diffusion) dynamics._Template per variant

    @classmethod
    def of(cls, base: model.SystemParameters, varied: str, column: np.ndarray,
           baseline: bool) -> "_ModelStage":
        """One working point and one pair of templates per variant, each
        computed once for all of the column's points."""
        block = model.parameter_block(base, varied, column)
        working = model.solve_steady_state(block)
        templates = [dynamics._templates(block, working)]
        if baseline:
            atom_free = replace(block, g=0.0, r_a=0.0)
            drift, diffusion = dynamics._templates(
                atom_free, model.solve_steady_state(atom_free))
            templates.append((drift.with_fixed(_ATOMIC_MODES, _VACUUM_DRIFT),
                              diffusion.with_fixed(_ATOMIC_MODES, _VACUUM_DIFFUSION)))
        # the block form marks a pole with NaN; a float where no column reaches
        return cls(*(np.broadcast_to(value, column.shape) for value in (
            block.omega_m, block.temperature, np.isnan(working.q_s))), templates)

    def drift_key(self, block: slice) -> tuple:
        """What decides the drift stack of a block of the points: the
        block's length and, per variant, the drift template's fixed entries,
        varying slots and slice of values. Equal keys, equal stacks."""
        key = [len(self.pole[block])]
        for drift, _ in self.templates:
            key += [drift.fixed.tobytes(), drift.slots.tobytes()]
            if drift.slots.size:
                key.append(drift.values[:, block].tobytes())
        return tuple(key)

    def stacks(self, block: slice) -> tuple[np.ndarray, np.ndarray]:
        """The drift and diffusion stacks of a block of the points: problem k
        is the block's point k's main problem, m + k its atom-free one."""
        shape = (len(self.templates), len(self.pole[block]), 100)
        a, d = np.empty(shape), np.empty(shape)
        for (drift, diffusion), a_variant, d_variant in zip(self.templates, a, d):
            drift.fill(a_variant, block)
            diffusion.fill(d_variant, block)
        return a.reshape(-1, 10, 10), d.reshape(-1, 10, 10)


def _evaluate_block(stage: _ModelStage, block: slice,
                    decompose: Callable[[np.ndarray], dynamics._Eigenbasis],
                    pairs: tuple[str, ...], base_pairs: tuple[str, ...]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                               dict[int, str]]:
    """The pipeline on a block of a model stage's points, with one batched
    Lyapunov solve and one batched log-negativity; decompose gives the
    drift half of the solve for the block's drift stack.

    Each point poses its stage's problem variants. A problem has at most one
    error: its solve error (a pole of the main problem's optical response
    reads as one, and a non-finite diffusion's error gains the bath
    temperature), or else its first pair error in the requested order. A
    point reports its main problem's error before its baseline's. Returns
    the columns of SweepResult for the block: stable, max_real_part, e_n,
    baseline_e_n and failures.
    """
    a, d = stage.stacks(block)
    m = len(a) // len(stage.templates)
    sol = dynamics.solve_lyapunov_batch(a, d, decompose(a))
    solved = sol.stable.copy()
    solved[list(sol.errors)] = False
    e_n = np.full((m, len(pairs)), np.nan)
    baseline_e_n = np.full((m, len(base_pairs)), np.nan)
    # every solved (problem, pair) of the block: the main pairs in pair
    # order, then the baseline pairs in the same order
    main_rows = np.flatnonzero(solved[:m])
    base_rows = np.flatnonzero(solved[m:]) + m
    targets = [(main_rows, e_n, c, tag) for c, tag in enumerate(pairs)]
    targets += [(base_rows, baseline_e_n, base_pairs.index(tag), tag)
                for tag in pairs if tag in base_pairs]
    sizes = [len(rows) for rows, *_ in targets]
    problems = np.concatenate([np.empty(0, np.intp)] + [rows for rows, *_ in targets])
    idx = np.array([gaussian.BIPARTITE_PAIRS[tag].indices for *_, tag in targets],
                   dtype=np.intp).reshape(-1, 4).repeat(sizes, axis=0)
    values, _, pair_errors = gaussian.log_negativities(
        sol.v[problems[:, None, None], idx[:, :, None], idx[:, None, :]])
    for (rows, out, c, _), end in zip(targets, np.cumsum(sizes)):
        out[rows % m, c] = values[end - len(rows):end]
    # a pole's NaN working point makes the main drift non-finite, so the
    # solve has already failed that problem
    pole = stage.pole[block]
    temperature = stage.temperature[block]
    errors = {}
    for k, exc in sol.errors.items():
        if k < m and pole[k]:
            errors[k] = model.POLE_MESSAGE
        elif isinstance(exc, dynamics._NonFiniteDiffusion):
            errors[k] = f"{exc}; at bath temperature {temperature[k % m].item()!r} K"
        else:
            errors[k] = str(exc)
    for j, exc in sorted(pair_errors.items()):  # a problem's pairs in order
        errors.setdefault(int(problems[j]), str(exc))
    failures: dict[int, str] = {}
    for k in sorted(errors):
        failures.setdefault(k % m, errors[k])
    failed = list(failures)
    stable = sol.stable[:m].copy()
    stable[failed] = False
    max_real_part = sol.max_real_part[:m] * stage.omega_m[block]
    max_real_part[failed] = np.nan
    e_n[failed] = np.nan
    baseline_e_n[failed] = np.nan
    return stable, max_real_part, e_n, baseline_e_n, dict(sorted(failures.items()))


class _DriftMemo:
    """The drift halves of the Lyapunov solve (dynamics._Eigenbasis) of the
    blocks of a sweep of one model stage, by drift key
    (_ModelStage.drift_key), so that a block whose drift stack was already
    decomposed, in its sweep or in the sweep before, runs only the diffusion
    half. Results never depend on it: an eigenbasis is the same bits whoever
    computes it.

    A sweep of one stage (every preset) first drops every key that its
    blocks do not pose, then stores every block's eigenbasis: along
    temperature, which the drift does not see, all its full blocks share one,
    and fig6b and fig6c pose fig6a's. A longer sweep empties the memo and
    decomposes every block itself. So the memo holds at most one stage per
    sweep that runs at a time. The pool's threads share it, under a lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held: dict[tuple, dynamics._Eigenbasis] = {}

    def clear(self) -> None:
        self.keep(())

    def keep(self, keys: Iterable[tuple]) -> None:
        """Drop every held eigenbasis whose key is not in keys."""
        keys = set(keys)
        with self._lock:
            self._held = {key: held for key, held in self._held.items() if key in keys}

    def lookup(self, key: tuple, a: np.ndarray) -> dynamics._Eigenbasis:
        """The eigenbasis of the drift stack a, whose drift key is key."""
        with self._lock:
            held = self._held.get(key)
        if held is None:
            held = dynamics._decompose(a)
            with self._lock:
                self._held[key] = held
        return held


_DRIFT_MEMO = _DriftMemo()


def _records(xs: np.ndarray, pairs: tuple[str, ...], base_pairs: tuple[str, ...],
             stable: np.ndarray, max_real_part: np.ndarray, e_n: np.ndarray,
             baseline_e_n: np.ndarray, failures: dict[int, str]) -> list[PointRecord]:
    """One PointRecord per point of a set of columns, with Python values."""
    records = []
    for i, (x, ok, abscissa, values, base_values) in enumerate(zip(
            xs.tolist(), stable.tolist(), max_real_part.tolist(),
            e_n.tolist(), baseline_e_n.tolist())):
        if i in failures:
            records.append(PointRecord(x=x, stable=None, max_real_part=None,
                                       error=failures[i]))
            continue
        records.append(PointRecord(
            x=x,
            stable=ok,
            max_real_part=abscissa,
            e_n={t: v for t, v in zip(pairs, values) if not math.isnan(v)},
            baseline_e_n={t: v for t, v in zip(base_pairs, base_values)
                          if not math.isnan(v)},
        ))
    return records


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


def _spec(name: str, base: model.SystemParameters, pairs: tuple[str, ...],
          notes: tuple[str, ...] = (_NOTE_GAMMA,), baseline: bool = True,
          start: float = -2.0, stop: float = 2.0, axis: str = AXIS_OMEGA_M,
          axis_scale: float = _OMEGA_M) -> SweepSpec:
    """A preset: delta_c over 401 points, by default from -2 to 2 omega_m."""
    return SweepSpec(name=name, base=base, varied="delta_c", start=start,
                     stop=stop, count=401, axis=axis, axis_scale=axis_scale,
                     pairs=pairs, baseline=baseline, notes=notes)


#: name -> (summary, spec) of every bundled scenario; the specs are frozen,
#: so every preset() call shares them
_PRESETS: dict[str, tuple[str, SweepSpec]] = {
    spec.name: (summary, spec) for summary, spec in (
        ("mechanics-optics entanglement vs optical detuning, strong atom beam",
         _spec("fig2", _params(), ("mr_oc",), (_NOTE_GAMMA, _NOTE_KAPPA_A))),
        ("mechanics-microwave entanglement vs optical detuning, weak atom beam",
         _spec("fig3", _params(gamma_m=_OMEGA_M / 5e4, kappa_c=0.08 * _OMEGA_M,
                               g=_TWO_PI * 1e5, r_a=2000.0, delta_a1=_TWO_PI * 1e7,
                               delta_a2=_TWO_PI * 1e7), ("mr_mc",), ())),
        ("optics-microwave entanglement vs optical detuning, strong coupling",
         _spec("fig4", _params(kappa_c=0.08 * _OMEGA_M, g=_TWO_PI * 1.5e6, r_a=1.6e6,
                               delta_a2=_TWO_PI * 1e6),
               ("oc_mc",), (_NOTE_GAMMA, _NOTE_KAPPA_A))),
        ("optics-atom entanglement vs detuning in optical linewidths",
         _spec("fig5", _params(kappa_c=0.02 * _OMEGA_M, g=_TWO_PI * 1e5, r_a=1.6e6,
                               delta_a1=_TWO_PI * 1e6, delta_a2=_TWO_PI * 1e6,
                               delta_c=50.0 * 0.02 * _OMEGA_M),
               ("oc_sba", "oc_scb"), (_NOTE_GAMMA, _NOTE_KAPPA_C_FRACTION),
               baseline=False, start=0.0, stop=100.0, axis=AXIS_KAPPA_C,
               axis_scale=0.02 * _OMEGA_M)),
        # temperatures as literals: 350 * 1e-3 is not 350e-3
        ("three bosonic pairs vs optical detuning at 5 mK",
         _spec("fig6a", _fig6_params(5e-3), gaussian.BOSONIC_PAIRS)),
        ("three bosonic pairs vs optical detuning at 250 mK",
         _spec("fig6b", _fig6_params(250e-3), gaussian.BOSONIC_PAIRS)),
        ("three bosonic pairs vs optical detuning at 350 mK",
         _spec("fig6c", _fig6_params(350e-3), gaussian.BOSONIC_PAIRS)),
    )
}

PRESET_NAMES = tuple(_PRESETS)
PRESET_SUMMARIES = {name: summary for name, (summary, _) in _PRESETS.items()}


def preset(name: str) -> SweepSpec:
    """Fully-populated sweep spec for a named scenario."""
    key = name.strip().lower()
    if key not in _PRESETS:
        raise ParameterError(
            f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return _PRESETS[key][1]


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

_PAIR_COLUMNS = tuple(gaussian.BIPARTITE_PAIRS)


def _cells(column: np.ndarray) -> list[str]:
    """A float column as CSV cells: %.17g, and empty where NaN (absent)."""
    return [format(v, ".17g") if v == v else "" for v in column.tolist()]


def csv_header(spec: SweepSpec) -> list[str]:
    cols = ["x_value", "x_axis", "stable", "max_real_part"]
    cols += [f"en_{tag}" for tag in _PAIR_COLUMNS]
    cols += [f"en_baseline_{tag}" for tag in spec.baseline_pairs]
    return cols


def _csv_columns(result: SweepResult, lo: int, hi: int) -> list[list[str]]:
    """The cells of each CSV column for rows lo to hi - 1, in csv_header order."""
    spec = result.spec
    rows = slice(lo, hi)
    stable = ["" if i in result.failures else "true" if ok else "false"
              for i, ok in enumerate(result.stable[rows].tolist(), lo)]
    empty = [""] * len(stable)
    columns = [_cells(result.x[rows]), [spec.axis] * len(stable), stable,
               _cells(result.max_real_part[rows])]
    columns += [_cells(result.e_n[rows, spec.pairs.index(tag)])
                if tag in spec.pairs else empty for tag in _PAIR_COLUMNS]
    columns += [_cells(column) for column in result.baseline_e_n[rows].T]
    return columns


def csv_rows(result: SweepResult) -> list[list[str]]:
    """One row per grid point; absent values (unstable/unrequested) are empty."""
    return [list(row) for row in zip(*_csv_columns(result, 0, len(result.x)))]


def write_csv(result: SweepResult, path) -> None:
    """Write csv_header and csv_rows, BLOCK_POINTS rows at a time, so the
    text held in memory does not grow with the grid."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(csv_header(result.spec)) + "\n")
        for lo in range(0, len(result.x), BLOCK_POINTS):
            columns = _csv_columns(result, lo, lo + BLOCK_POINTS)
            handle.write("".join(",".join(row) + "\n" for row in zip(*columns)))
