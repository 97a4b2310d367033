"""Parameter sweeps, bundled scenario presets, and atom-free baselines.

A sweep varies one parameter of the 10-mode system over a 1-D grid: its
points are a model.ParameterBlock (the varied field's column beside the
base's other values as floats, validated once, at the grid's extremes). The
model stage runs once per _STAGE_POINTS points, which bounds the memory it
holds: it gives the points' working point (model.solve_steady_state) and
the entries of build_drift and build_diffusion, each computed once. An entry
that no column reaches is a float and goes into a 10x10 template; the rest
stay columns, one value per point (dynamics._Template). A point whose
entries that link the bosonic modes with the atomic ones are all 0 (every
atom-free point, and any point at g = 0) poses two Lyapunov problems, one
per mode group, 6x6 and 4x4 (dynamics._decoupled); every other point poses
one 10x10 problem. The stage restricts the templates to each group
(_ModeGroup); a group with no varying entry (every group of a single point)
is solved once for all of the stage's points, and the templates of the rest
give each point's largest drift and diffusion entry, which the solve's
finite check and residual bound read. The stage's points are then
evaluated in equal blocks, as few as fit a budget of matrix entries
(_blocks): a block copies each remaining group's templates into its drift
(and, if it goes on to a solve, diffusion) stacks and writes in only its
slice of the varying entries, and reads where its working point failed (a
pole of the optical response, or arithmetic out of floating-point range)
from the stage's q_s column.
Each group's drift stack first gives the stability gate (dynamics._decompose):
one batched eigendecomposition, or, where the block's end problems are
unstable, their spectra kept from that probe, batched spectra without
eigenvectors of the other problems, and an eigendecomposition of the
stable problems alone, with the same bits either way. That half of the
solve depends on the drifts alone, so in a sweep of one model stage a
block whose drift stack an earlier block posed (along temperature, which
reaches only the diffusion, or fig6b after fig6a) takes it from a memo
(_DriftMemo). A block in which no problem passes the gate, no drift is
non-finite and every diffusion is finite ends there: its points are
unstable, with their abscissa, and there is no covariance to compute (nor
a diffusion stack to fill: the finite check reads the templates' maxima).
Otherwise one batched solve per group and block gives the steady-state
covariance (dynamics.solve_lyapunov_batch), and dynamics._join puts the
groups together into 10x10 covariances. The block's points that fail its
residual check are solved again together, directly, by one batched LU
solve of their Lyapunov operators on the 55 unknowns of a symmetric
covariance. The entanglement of every (point, requested mode pair) of the
block comes from one batched log-negativity over one gathered stack of
4x4 blocks, where the block has a solved point.

The optional atom-free baseline, evaluated only when a bosonic pair is
requested, is a second point set: each point's atom-free point (_atom_free),
with the requested bosonic pairs, run through the same stages in the same
call; its problems split, and only their bosonic group is solved, so a
block of it solves a 6x6 stack, and along an atomic field, where every
atom-free point is the same point, its model stage solves that group once.
One merge then puts its values into the baseline columns, in CSV order, and
its errors, tagged _ATOM_FREE_TAG, behind the point's own; the independent
6-mode route that checks it lives in verify. evaluate_point is a point set
of one, every field a float, so its model stage solves each of its groups.

Blocks are independent, and their work is batched numpy and LAPACK calls that
release the interpreter lock, so run_sweep(spec, jobs) evaluates them on N
threads in all, the calling thread one of them: N is jobs, capped by the
CPUs that the process may use and by the blocks of the first _STAGE_POINTS
points. Every sweep, and evaluate_point, runs the same block loop
(_in_order); at N = 1 it starts no thread. Each thread takes the next
block in block order, and whichever takes a range's first block computes
that range's model stages. Results are assembled in block order: the
columns, the failures map and the CSV bytes are the same at every jobs value.

A SweepResult holds columns, one entry per grid point, and the CSV is
written from them; per-point PointRecords are derived only when asked for.
"""

from __future__ import annotations

import math
import numbers
import os
import stat
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from functools import cache, cached_property, partial
from itertools import chain, repeat

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
    baseline: bool = False       # also report the values at the atom-free point
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


#: a block's budget of matrix entries, in 10x10 problems (_blocks): 128
#: problems at 10x10, 355 at 6x6; it bounds the engine's working memory
BLOCK_POINTS = 128
#: grid points per model stage: the working points and the varying drift
#: and diffusion entries of a long grid are held this many points at a time
_STAGE_POINTS = 1024


def _blocks(n: int, order: int) -> list[slice]:
    """n consecutive points in the fewest blocks, of sizes that differ by at
    most one, whose order x order stacks hold BLOCK_POINTS * 100 entries."""
    count = -(-n // (BLOCK_POINTS * 100 // order**2))
    edges = [k * n // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def evaluate_point(params: model.SystemParameters, pairs: tuple[str, ...],
                   baseline: bool = False) -> PointRecord:
    """Run the full pipeline at one parameter point.

    Never raises for per-point numerical trouble: instability comes back as a
    flagged record and solver failures as an error record, so grid scans keep
    going. The record's x is delta_c / omega_m, the default sweep axis. The
    point is a point set of one, with no column: every value of its model
    stage is a float, and the stage solves each of its mode groups.
    """
    pairs = _pair_tags(pairs)
    base_pairs = _baseline_pairs(pairs) if baseline else ()
    columns = _evaluate(model.parameter_block(params), 1, pairs, base_pairs, jobs=1)
    return _records(np.array([params.delta_c / params.omega_m]), pairs, base_pairs,
                    *columns)[0]


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate the pipeline over the grid, a block of points at a time.

    Every record equals what evaluate_point gives at that grid point. The
    blocks run on jobs threads in all, the calling thread one of them,
    capped by the usable CPUs and the blocks of the first _STAGE_POINTS
    points (numpy and LAPACK release the interpreter lock); the result is
    assembled in block order, so it does not depend on jobs. An exception in
    a block propagates once every thread has ended, and no thread starts a
    block after it.
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
    points = model.parameter_block(spec.base, spec.varied, column)
    return SweepResult(spec, xs, *_evaluate(points, len(column), spec.pairs,
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


#: what a point's error message starts with when it comes from its atom-free point
_ATOM_FREE_TAG = "atom-free point: "


def _evaluate(points: model.ParameterBlock, n: int, pairs: tuple[str, ...],
              base_pairs: tuple[str, ...], jobs: int):
    """The columns of SweepResult for the n points of a ParameterBlock:
    stable, max_real_part, e_n, baseline_e_n and failures.

    The point sets: the points with pairs and, when base_pairs is not
    empty, their atom-free points (_atom_free) on their bosonic modes, with
    the requested pairs that are in base_pairs, in the requested order. Each
    set's model stage runs once per _STAGE_POINTS points (_ModelStage), and
    then each of its blocks once (_ModelStage.blocks, _evaluate_block). In a sweep of one
    stage the drift half of each of a block's solves comes from _DRIFT_MEMO
    where a block before it posed the same drift stack. A single point
    neither reads nor prunes the memo: it has no second block to share a
    drift with. The blocks run in one loop (_in_order) on jobs threads in
    all, the calling thread one of them, capped by the usable CPUs
    (_usable_cpus) and by the blocks of the first range of _STAGE_POINTS
    points; at one thread no other starts. Each thread takes the next block
    in block order, and whichever takes a range's first block computes
    that range's model stages while the other threads solve blocks. It
    waits for the blocks of the range two before first, so at most three
    ranges are held at a time. The lowest-index failure, of a block or of
    a range's model stages, is raised.

    Then one merge: the atom-free values become baseline_e_n, in the order
    of base_pairs; a point's own error comes before its atom-free point's,
    which is tagged _ATOM_FREE_TAG; and every column of a failed point is
    absent.
    """
    sets = [(points, pairs, dynamics._ALL_MODES)]
    if base_pairs:
        requested = tuple(tag for tag in pairs if tag in base_pairs)
        sets.append((_atom_free(points), requested, dynamics._GROUPS[0]))
    memo = 2 <= n <= _STAGE_POINTS  # sweeps of one stage and two points or more
    if n > _STAGE_POINTS:
        _DRIFT_MEMO.clear()

    finished, left = threading.Condition(), []  # left: each range's blocks not yet evaluated

    def evaluate(r: int, s: int, lo: int, stage: _ModelStage, block: slice, decompose):
        # a frame in this module: the Lyapunov solve's warnings name it
        try:
            return s, lo, _evaluate_block(stage, block, decompose, sets[s][1])
        finally:
            with finished:
                left[r] -= 1
                finished.notify_all()

    def tasks():
        for r, lo in enumerate(range(0, n, _STAGE_POINTS)):
            with finished:  # the range two before evaluated: at most three held
                finished.wait_for(lambda: r < 2 or not left[r - 2])
            hi = min(lo + _STAGE_POINTS, n)
            stages = [_ModelStage.of(set_points, lo, hi, modes) for set_points, _, modes in sets]
            work = [(r, s, lo + block.start, stage, block)
                    for s, stage in enumerate(stages) for block in stage.blocks()]
            decompose = [repeat(dynamics._decompose) for _ in work]
            if memo:
                keys = [stage.drift_keys(block) for *_, stage, block in work]
                _DRIFT_MEMO.keep(key for block_keys in keys for key in block_keys)
                decompose = [[partial(_DRIFT_MEMO.lookup, key) for key in block_keys]
                             for block_keys in keys]
            left.append(len(work))
            for args, block_decompose in zip(work, decompose):
                yield partial(evaluate, *args, block_decompose)

    stream = tasks()
    stream = chain([next(stream)], stream)  # the first range: its blocks bound the threads
    threads = min(jobs, left[0], _usable_cpus()) if jobs > 1 else 1
    outcomes = _in_order(stream, threads)
    parts = [[] for _ in sets]
    found = [{} for _ in sets]
    for s, lo, (*cols, errors) in outcomes:
        parts[s].append(cols)
        found[s].update((lo + i, message) for i, message in errors.items())
    stable, max_real_part, e_n = map(np.concatenate, zip(*parts[0]))
    failures = found[0]
    baseline_e_n = np.empty((n, 0))
    if base_pairs:
        order = [requested.index(tag) for tag in base_pairs]
        baseline_e_n = np.concatenate([cols[2] for cols in parts[1]])[:, order]
        for i, message in found[1].items():
            failures.setdefault(i, _ATOM_FREE_TAG + message)
        failures = dict(sorted(failures.items()))
    if failures:
        failed = list(failures)
        stable[failed] = False
        for column in (max_real_part, e_n, baseline_e_n):
            column[failed] = np.nan
    return stable, max_real_part, e_n, baseline_e_n, failures


def _in_order(tasks: Iterator[Callable[[], object]], threads: int) -> list:
    """The results of a lazy stream of tasks, in its order, called on
    threads threads in all, the calling thread one of them. Each thread
    takes the next task under a lock, and none takes one once a task, or
    taking one, has failed. After every thread has ended, the failure of
    the first task that failed is raised: tasks are taken in order, so none
    before it was skipped."""
    lock, results, failed = threading.Lock(), {}, {}  # by the task's index
    stream = enumerate(tasks)

    def step() -> bool:
        # a frame of its own, so that no local holds a finished task
        with lock:
            try:
                task = None if failed else next(stream, None)
            except BaseException as exc:  # taking it: after every task taken
                task, failed[math.inf] = None, exc
        if task is None:
            return False
        k, call = task
        try:
            results[k] = call()
        except BaseException as exc:
            failed[k] = exc
        return True

    def run() -> None:
        while step():
            pass

    helpers = [threading.Thread(target=run) for _ in range(threads - 1)]
    for thread in helpers:
        thread.start()
    run()
    for thread in helpers:
        thread.join()
    if failed:
        raise failed[min(failed)]
    return [results[k] for k in sorted(results)]


def _usable_cpus() -> int:
    """The CPUs that this process may run on: its affinity where the
    platform reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _atom_free(params: model.SystemParameters) -> model.SystemParameters:
    """The atom-free point of a SystemParameters or a ParameterBlock: its
    fields with no atoms (g = r_a = 0), and atomic modes that hold the vacuum
    (kappa_a = omega_m, no detuning, population or coherence). In units of
    omega_m their corner is -I (drift) and I (diffusion), and their other
    entries are zeros, so no atomic field of params reaches its problem:
    it splits into the bosonic problem of the atom-free system and the
    corner, a problem of its own solved by I/2, which decides no gate,
    condition estimate or residual bound of the bosonic one, and holds no
    bosonic pair. So a sweep's baseline, the second point set that this
    gives (_evaluate), poses the bosonic problems alone (_ModelStage.of);
    along an atomic field that set holds one point, as floats."""
    return replace(params, g=0.0, r_a=0.0, kappa_a=params.omega_m, delta_a1=0.0,
                   delta_a2=0.0, rho_aa0=0.0, rho_cc0=0.0, rho_ca0=0.0)


@dataclass(frozen=True, eq=False)
class _ModeGroup:
    """A mode group of some of a model stage's problems (all ten modes, or
    one group of dynamics._GROUPS where a problem splits), solved as
    Lyapunov problems of its own: its block of the drift and diffusion
    templates, and either each point's largest |entry| of each, or, where
    no entry of the group varies, its one problem solved once for every
    point."""

    modes: slice                               # the group's quadratures
    points: np.ndarray | None                  # (n,) bool: its points; None: all
    drift: dynamics._Template
    diffusion: dynamics._Template
    # (2, n) the largest |entry| of each point's drift, then of its
    # diffusion, as solve_lyapunov_batch's maxima; not finite where an entry
    # is not. None where solved
    maxima: np.ndarray | None
    solved: dynamics.CovarianceBatch | None    # a batch of one, or None

    @classmethod
    def of(cls, drift: dynamics._Template, diffusion: dynamics._Template,
           modes: slice, points: np.ndarray | None, n: int) -> "_ModeGroup":
        """The group of modes of n points' problems, whose 10x10 templates
        are drift and diffusion."""
        if modes != dynamics._ALL_MODES:
            drift, diffusion = drift.restrict(modes), diffusion.restrict(modes)
        if drift.slots.size or diffusion.slots.size:
            maxima = np.array([drift.abs_max(n), diffusion.abs_max(n)])
            return cls(modes, points, drift, diffusion, maxima, None)
        size = modes.stop - modes.start
        return cls(modes, points, drift, diffusion, None, dynamics.solve_lyapunov_batch(
            drift.fixed.reshape(1, size, size), diffusion.fixed.reshape(1, size, size)))

    def rows(self, block: slice) -> np.ndarray | None:
        """The indices in a block of the points of the group's points; None:
        all of them."""
        return None if self.points is None else np.flatnonzero(self.points[block])


@dataclass(frozen=True, eq=False)
class _ModelStage:
    """The model stage of consecutive points of a point set: everything that
    their problems need before the Lyapunov solve. A value that no column
    reaches is a float (_at reads both)."""

    n: int                             # the number of points
    omega_m: float | np.ndarray        # (n,) or a float: omega_m
    temperature: float | np.ndarray    # (n,) or a float: the bath temperature
    q_s: float | np.ndarray            # (n,) or a float: working point, NaN at a pole, inf out of range
    groups: tuple[_ModeGroup, ...]

    @classmethod
    def of(cls, points: model.ParameterBlock, lo: int, hi: int,
           modes: slice) -> "_ModelStage":
        """The working point and the mode groups of points lo to hi - 1 of a
        ParameterBlock, each computed once for all of them. Where modes is
        all ten: the whole problems of the points that do not split
        (dynamics._decoupled), and the two groups of those that do; where it
        is the bosonic group, for atom-free points (_atom_free), which all
        split, that group alone. Only the groups keep the 10x10 templates,
        each restricted to its modes. Arithmetic that leaves floating-point
        range does not warn: the working point marks it, and the solve fails
        a problem with a non-finite entry."""
        columns = {name: value[lo:hi] for name, value in vars(points).items()
                   if value.__class__ is np.ndarray and (lo or hi < len(value))}
        block = replace(points, **columns) if columns else points
        n = hi - lo
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            working = model.solve_steady_state(block)
            drift, diffusion = dynamics._templates(block, working)
        if modes != dynamics._ALL_MODES:
            groups = (_ModeGroup.of(drift, diffusion, modes, None, n),)
        else:
            split = dynamics._decoupled(drift, diffusion, m=n)
            groups = tuple(_ModeGroup.of(drift, diffusion, group, None if held.all() else held, n)
                           for route, held in (((dynamics._ALL_MODES,), ~split),
                                               (dynamics._GROUPS, split))
                           if held.any() for group in route)
        return cls(n, block.omega_m, block.temperature, working.q_s, groups)

    def blocks(self) -> list[slice]:
        """The stage's points in blocks sized by its largest varying group."""
        order = max((group.modes.stop - group.modes.start for group in self.groups
                     if group.solved is None), default=10)
        return _blocks(self.n, order)

    def drift_keys(self, block: slice) -> list[tuple]:
        """What decides the drift stack of a block of the points, for each
        mode group that the block solves: the block's length, the group's
        drift template's fixed entries, varying slots and slice of values,
        and which of the block's points the group holds. Equal keys, equal
        stacks."""
        m = len(range(self.n)[block])
        keys = []
        for group in self.groups:
            rows = group.rows(block)
            if group.solved is None and (rows is None or rows.size):
                drift = group.drift
                key = (m, drift.fixed.tobytes(), drift.slots.tobytes())
                if drift.slots.size:
                    key += (drift.values[:, block].tobytes(),)
                if rows is not None:
                    key += (rows.tobytes(),)
                keys.append(key)
        return keys

    def stack(self, block: slice, group: _ModeGroup,
              template: dynamics._Template) -> np.ndarray:
        """The stack of a mode group's drift or diffusion (template) at a
        block of the points, at every point of the block."""
        size = group.modes.stop - group.modes.start
        out = np.empty((len(range(self.n)[block]), size * size))
        template.fill(out, block)
        return out.reshape(-1, size, size)


def _at(value: float | np.ndarray, index: slice | int) -> float | np.ndarray:
    """A model stage's column at index, or its float, which stands for
    every point."""
    return value[index] if value.__class__ is np.ndarray else value


@cache
def _pair_columns(pairs: tuple[str, ...], order: int) -> np.ndarray:
    """The flat indices into an order x order covariance of the 4x4 blocks
    of the pairs, in their order: where a block's log-negativities come
    from."""
    columns = np.array([order * i + j for tag in pairs
                        for i in gaussian.BIPARTITE_PAIRS[tag].indices
                        for j in gaussian.BIPARTITE_PAIRS[tag].indices], dtype=np.intp)
    columns.flags.writeable = False  # every block of every sweep of these pairs reads it
    return columns


def _evaluate_block(stage: _ModelStage, block: slice,
                    decompose: Iterable[Callable[[np.ndarray], dynamics._Eigenbasis]],
                    pairs: tuple[str, ...]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
    """The pipeline on a block of a model stage's points, with one batched
    Lyapunov solve per mode group that holds some of the block's points and
    varies (a group solved once for the stage serves every block), and one
    batched log-negativity of its solved points, if it has any. decompose
    gives the drift half of each of those solves in turn, in the order of
    _ModelStage.drift_keys, and every group's gate is read before any solve:
    where no problem of any group is stable, no drift failed and every
    diffusion is finite, the block ends at its gate, with the columns that
    the solve would give (no point stable, the joined abscissa, no E_N, no
    error), and fills no diffusion stack. Else the groups' batches are
    joined (dynamics._join): into one of 10x10 problems, or, for atom-free
    points, the batch of their bosonic group as it is.

    A point has at most one error: its solve error (a working point at a
    pole or out of range reads as one, and a non-finite diffusion's error
    gains the bath temperature), or else its first pair error in the order
    of pairs. Returns stable, max_real_part and e_n for the block's points,
    as the solve left them, and the errors by point. The stage gives the
    solve each problem's maxima, and a block with no error skips the error
    mapping.
    """
    m = len(range(stage.n)[block])
    omega_m = _at(stage.omega_m, block)
    decompose = iter(decompose)
    gates, problems = [], []
    for group in stage.groups:
        rows = group.rows(block)
        if rows is not None and not rows.size:
            continue
        gate, problem = group.solved, None
        if gate is None:
            a = stage.stack(block, group, group.drift)
            maxima = group.maxima[:, block]
            if rows is not None:
                a, maxima = a[rows], maxima[:, rows]
            gate, problem = next(decompose)(a), (group, a, maxima)
        gates.append((group.modes, rows, gate))
        problems.append(problem)
    # problem[2][1]: each problem's largest |entry| of its diffusion
    if not any(gate.stable.any() or gate.errors for _, _, gate in gates) and all(
            problem is None or np.isfinite(problem[2][1]).all() for problem in problems):
        # no problem has a steady state and none fails: the gate's columns
        abscissa = dynamics._joined_abscissa(gates, m)
        return (np.zeros(m, dtype=bool), abscissa * omega_m,
                np.full((m, len(pairs)), np.nan), {})
    parts = []
    for (modes, rows, gate), problem in zip(gates, problems):
        if problem is not None:  # the diffusion stack, which only the solve reads
            group, a, maxima = problem
            d = stage.stack(block, group, group.diffusion)
            if rows is not None:
                d = d[rows]
            gate = dynamics.solve_lyapunov_batch(a, d, gate, maxima)
        parts.append((modes, rows, gate))
    sol = dynamics._join(parts, m)
    solved = sol.stable
    if sol.errors:
        solved = solved.copy()
        solved[list(sol.errors)] = False
    rows = np.flatnonzero(solved)
    e_n = np.full((m, len(pairs)), np.nan) if rows.size < m else None
    pair_errors = {}
    if rows.size:
        # one stack of the 4x4 blocks of every solved (point, requested pair)
        order = sol.v.shape[-1]
        states = sol.v.reshape(m, order * order)
        if e_n is not None:
            states = states.take(rows, axis=0)
        states = states.take(_pair_columns(pairs, order), axis=1)
        values, _, pair_errors = gaussian.log_negativities(states.reshape(-1, 4, 4))
        values = values.reshape(rows.size, len(pairs))
        if e_n is None:
            e_n = values
        else:
            e_n[rows] = values
    max_real_part = sol.max_real_part * omega_m
    if not (sol.errors or pair_errors):
        return sol.stable, max_real_part, e_n, {}
    # a working point at a pole or out of range makes the drift non-finite,
    # so the solve has already failed that problem
    q_s, temperatures = _at(stage.q_s, block), _at(stage.temperature, block)
    errors = {}
    for k, exc in sol.errors.items():
        if math.isnan(_at(q_s, k)):
            errors[k] = model.POLE_MESSAGE
        elif math.isinf(_at(q_s, k)):
            errors[k] = model.RANGE_MESSAGE
        elif isinstance(exc, dynamics._NonFiniteDiffusion):
            temperature = float(_at(temperatures, k))
            errors[k] = f"{exc}; at bath temperature {temperature!r} K"
        else:
            errors[k] = str(exc)
    for j, exc in sorted(pair_errors.items()):  # a point's pairs in order
        errors.setdefault(int(rows[j // len(pairs)]), str(exc))
    return sol.stable, max_real_part, e_n, dict(sorted(errors.items()))


class _DriftMemo:
    """The drift halves of the Lyapunov solves (dynamics._Eigenbasis) of the
    blocks of a sweep of one model stage, by drift key
    (_ModelStage.drift_keys), so that a block whose drift stack was already
    decomposed, in its sweep or in the sweep before, runs only the diffusion
    half. Results never depend on it: an eigenbasis is the same bits whoever
    computes it.

    A sweep of one stage (every preset) first drops every key that its
    blocks do not pose, then stores every block's eigenbasis: along
    temperature, which the drift does not see, all the full blocks of a
    point set share one, and fig6b and fig6c pose fig6a's. A longer sweep
    empties the memo and decomposes every block itself, and a single point
    (evaluate_point) decomposes its own and leaves the memo as it was. So
    the memo holds at most one stage of each point set per sweep that runs
    at a time. A mode group solved once per model stage takes no key. A
    sweep's threads share it, under a lock.
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
        """The eigenbasis of the drift stack a, whose drift key is key;
        dynamics._decompose computes it where none is held."""
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
    text held in memory does not grow with the grid.

    An existing file is rewritten in place (_write_text): a failed write
    leaves only the new bytes written before it failed, but a process killed
    during the write can leave the old file's tail after them.
    """
    def chunks():
        yield ",".join(csv_header(result.spec)) + "\n"
        for lo in range(0, len(result.x), BLOCK_POINTS):
            columns = _csv_columns(result, lo, lo + BLOCK_POINTS)
            yield "".join(",".join(row) + "\n" for row in zip(*columns))

    _write_text(path, chunks(), newline="")


def _write_text(path, chunks: Iterable[str], newline: str | None = None) -> None:
    """Write the text of chunks to path, created if missing, and trim a
    regular file to the bytes written, also when writing raises.

    An existing file is overwritten in place, never opened with O_TRUNC or
    emptied first: emptying a file frees its blocks, which on ext4 mounted
    with discard costs tens of milliseconds once they are on disk, while an
    overwrite frees none; the trim frees only the blocks past the new end.
    A pipe or a device is written and not trimmed. newline is open()'s.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline=newline) as handle:
        try:
            handle.writelines(chunks)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                handle.truncate()  # flushes, then trims at the offset reached
