"""Linearized fluctuation dynamics: drift and diffusion assembly, stability
gate, and the steady-state covariance via the continuous Lyapunov equation.

Quadrature ordering of the 10-dimensional fluctuation vector:
    (q, p, X_c, Y_c, X_w, Y_w, X_a1, Y_a1, X_a2, Y_a2)
i.e. resonator position/momentum, optical cavity, microwave cavity, then the
two atomic transition coherences.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import SimulationError, StabilityError
from .model import (ParameterBlock, SteadyState, SystemParameters, _occupation,
                    effective_atom_number)

#: strict-negativity guard on the spectral abscissa, relative to the rate scale
STABILITY_TOL = 1e-12
#: condition-number estimate above which a Lyapunov solve warns
CONDITION_WARN = 1e12
#: relative residual bound enforced on every Lyapunov solve
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    max_real_part: float  # spectral abscissa, in the units of the input matrix


def _slots(*positions: tuple[int, int]) -> np.ndarray:
    return np.array([10 * i + j for i, j in positions])


# (row, column) of each drift entry, one line per row, in build_drift's order
_DRIFT_SLOTS = _slots(
    (0, 1),
    (1, 0), (1, 1), (1, 2), (1, 4),
    (2, 2), (2, 3), (2, 7), (2, 9),
    (3, 0), (3, 2), (3, 3), (3, 6), (3, 8),
    (4, 4), (4, 5),
    (5, 0), (5, 4), (5, 5),
    (6, 3), (6, 6), (6, 7),
    (7, 2), (7, 6), (7, 7),
    (8, 3), (8, 8), (8, 9),
    (9, 2), (9, 8), (9, 9),
)
# the diagonal but (0, 0), where the resonator position has no noise
_DIFFUSION_SLOTS = _slots(*((k, k) for k in range(1, 10)))
_NO_ERRSTATE = nullcontext()


def _assemble(slots: np.ndarray, entries: list, omega_m: float) -> np.ndarray:
    """Scatter entries / omega_m into a zeroed 10x10 matrix at the flat slots."""
    out = np.zeros(100)
    out[slots] = entries
    out /= omega_m
    return out.reshape(10, 10)


def _drift_entries(params: SystemParameters, ss: SteadyState) -> list:
    """The drift's entries in _DRIFT_SLOTS order, before the division by
    omega_m; each a float or, for a ParameterBlock, a column."""
    p = params
    om = p.omega_m
    g = p.g
    gn = g * effective_atom_number(p)
    return [
        om,
        -om, -p.gamma_m, ss.g_c, ss.g_w,
        -p.kappa_c, p.delta_c, g, g,
        ss.g_c, -p.delta_c, -p.kappa_c, -g, -g,
        -p.kappa_w, p.delta_w,
        ss.g_w, -p.delta_w, -p.kappa_w,
        # upper transition quasi-mode
        gn * (p.rho_ca0 - p.rho_aa0), -p.kappa_a, p.delta_a1,
        gn * (p.rho_ca0 + p.rho_aa0), -p.delta_a1, -p.kappa_a,
        # lower transition quasi-mode (opposite rotation sense)
        gn * (p.rho_cc0 - p.rho_ca0), -p.kappa_a, -p.delta_a2,
        -gn * (p.rho_cc0 + p.rho_ca0), p.delta_a2, -p.kappa_a,
    ]


def _diffusion_entries(params: SystemParameters) -> list:
    """The diffusion's entries in _DIFFUSION_SLOTS order, before the division
    by omega_m; each a float or, for a ParameterBlock, a column."""
    p = params
    temperature = p.temperature
    # a temperature that validation accepts can overflow a thermal factor to
    # inf, or, with a tiny mode frequency, underflow its exponent to 0 and
    # divide by 0; the solve reports that problem's non-finite entries
    # instead. A single point's factors are floats, which do neither with a
    # warning (_occupation); numpy's errstate, which a block's columns need,
    # costs more than the rest of a single point's entries.
    with (np.errstate(over="ignore", divide="ignore") if p.__class__ is ParameterBlock
          else _NO_ERRSTATE):
        mechanical = p.gamma_m * (2.0 * _occupation(p.omega_m, temperature) + 1.0)
        microwave = p.kappa_w * (2.0 * _occupation(p.omega_w, temperature) + 1.0)
    kappa_c, kappa_a = p.kappa_c, p.kappa_a
    return [
        mechanical,
        kappa_c, kappa_c,
        microwave, microwave,
        kappa_a, kappa_a, kappa_a, kappa_a,
    ]


def build_drift(params: SystemParameters, ss: SteadyState) -> np.ndarray:
    """Assemble the 10x10 drift matrix of the linearized dynamics at one point.

    The atomic rows couple to the optical quadratures through g times the
    intracavity atom number; with equal populations and coherence the two
    position-like couplings cancel exactly. Every entry is divided by
    omega_m, which the covariance solution is provably invariant under. A
    sweep builds many points' drifts from a _Template (sweep._ModelStage).
    """
    return _assemble(_DRIFT_SLOTS, _drift_entries(params, ss), params.omega_m)


def build_diffusion(params: SystemParameters) -> np.ndarray:
    """Diagonal noise-correlation matrix matching the drift's quadrature order.

    The mechanical and microwave channels carry thermal factors 2n+1; the
    optical and atomic channels are taken at zero thermal occupation (optical
    and atomic frequencies put their thermal factors at ~1 for any cryogenic
    temperature), so those entries are the bare decay rates. Entries are in
    units of omega_m, as the drift's. One point, as build_drift.
    """
    return _assemble(_DIFFUSION_SLOTS, _diffusion_entries(params), params.omega_m)


@dataclass(frozen=True)
class _Template:
    """The n x n matrices of a ParameterBlock's points as what they share
    and what varies: `fixed` holds every entry / omega_m that is a float (0
    off the entry slots), and values[i] holds, one per point, the entry at
    flat slot slots[i]. A model's templates are 10x10; restrict gives a mode
    group's."""

    fixed: np.ndarray    # (n * n,)
    slots: np.ndarray    # (k,)
    values: np.ndarray   # (k, m)

    @classmethod
    def split(cls, slots: np.ndarray, entries: list, omega_m) -> "_Template":
        """Sort each entry / omega_m by kind: a float goes into `fixed`, a
        column into `values`; where omega_m is a column, every entry is one.
        An entry that no column reaches is a float, in the ParameterBlock and
        its SteadyState alike."""
        fixed = np.zeros(100)
        varying, columns = [], []
        for slot, entry in zip(slots.tolist(), entries):
            value = entry / omega_m  # rounds as a single point's division
            if value.__class__ is np.ndarray:
                varying.append(slot)
                columns.append(value)
            else:
                fixed[slot] = value
        return cls(fixed, np.array(varying, dtype=np.intp), np.array(columns))

    def restrict(self, modes: slice) -> "_Template":
        """The template of the 10x10 matrices' block of rows and columns
        `modes`, a slice of the quadratures."""
        flat, local = _restriction(modes.start, modes.stop)
        slots = local[self.slots]
        inside = slots >= 0
        return _Template(self.fixed[flat], slots[inside], self.values[inside])

    def fill(self, out: np.ndarray, block: slice) -> None:
        """Write the flattened matrices of a block of the points into out, an
        (m, n * n) array: the same bits that build_drift or build_diffusion
        give at those points (or their block of a mode group)."""
        out[...] = self.fixed
        if self.slots.size:
            out[:, self.slots] = self.values[:, block].T

    def abs_max(self, m: int) -> np.ndarray:
        """max |entry| of each of the m points' matrices, the scale that the
        residual bound takes: not finite where an entry is not."""
        fixed = np.abs(self.fixed).max()
        if self.slots.size:
            return np.abs(self.values).max(axis=0, initial=fixed)
        return np.full(m, fixed)


@cache
def _restriction(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """For the block of rows and columns start to stop - 1 of a 10x10
    matrix: the flat index in the matrix of each of the block's entries, in
    the block's flat order, and the flat index in the block of each entry of
    the matrix, -1 outside it."""
    inside = np.arange(start, stop)
    flat = (10 * inside[:, None] + inside).ravel()
    local = np.full(100, -1, dtype=np.intp)
    local[flat] = np.arange(flat.size)
    for table in (flat, local):  # shared by every restricted template
        table.flags.writeable = False
    return flat, local


def _templates(params: SystemParameters, ss: SteadyState) -> tuple[_Template, _Template]:
    """The drift and the diffusion of a ParameterBlock and its SteadyState,
    as _Templates: the entries of build_drift and build_diffusion, computed
    once for all of the block's points."""
    om = params.omega_m
    return (_Template.split(_DRIFT_SLOTS, _drift_entries(params, ss), om),
            _Template.split(_DIFFUSION_SLOTS, _diffusion_entries(params), om))


#: the quadratures of the bosonic modes (resonator, optical and microwave
#: cavity) and of the atomic quasi-modes, and of all ten
_GROUPS = (slice(0, 6), slice(6, 10))
_ALL_MODES = slice(0, 10)
# the entries of a flattened 10x10 matrix that link a bosonic quadrature
# with an atomic one
_LINKS = np.not_equal.outer(np.arange(10) < 6, np.arange(10) < 6).ravel()
_NO_SLOTS = np.empty(0, dtype=np.intp)


def _decoupled(*templates: _Template, m: int = 1) -> np.ndarray:
    """(m,) whether each of m 10x10 problems, whose matrices the templates
    hold, has 0 at every entry that links the bosonic modes with the atomic
    ones, as where g = 0. Such a problem is solved as its two mode groups
    (_GROUPS), each a Lyapunov problem of its own, and its V is 0 at those
    entries too. solve_lyapunov and a sweep's model stage split by this
    rule, so a point's covariance is the same bits on either route."""
    split = np.ones(m, dtype=bool)
    for template in templates:
        if template.fixed[_LINKS].any():
            return ~split
        linked = _LINKS[template.slots]
        if linked.any():
            split &= ~template.values[linked].any(axis=0)
    return split


def _splits(a: np.ndarray, d: np.ndarray) -> bool:
    """Whether one problem is solved as its mode groups (_decoupled)."""
    return a.shape == d.shape == (10, 10) and bool(_decoupled(
        *(_Template(x.ravel(), _NO_SLOTS, _NO_SLOTS) for x in (a, d)))[0])


def is_stable(a: np.ndarray) -> StabilityReport:
    """Hurwitz gate: stable iff the spectral abscissa clears a strict guard.

    Marginal spectra (abscissa within STABILITY_TOL of zero) are reported
    unstable: the steady-state covariance is meaningless there.
    """
    if not np.isfinite(a).all():
        raise SimulationError("drift matrix contains non-finite entries")
    try:
        eigvals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"eigensolver failed on drift matrix: {exc}") from exc
    abscissa = float(eigvals.real.max())
    return StabilityReport(stable=abscissa < -STABILITY_TOL, max_real_part=abscissa)


def solve_lyapunov(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Steady-state covariance V solving a V + V a^T = -d for Hurwitz-stable a.

    A stack of one through solve_lyapunov_batch, per mode group where a
    10x10 problem splits (_decoupled), as a sweep solves it. Raises the
    problem's SimulationError, or StabilityError if a is not Hurwitz stable.
    """
    groups = _GROUPS if _splits(a, d) else (slice(0, len(a)),)
    parts = []
    for modes in groups:  # a loop, not a comprehension: the warnings' stacklevel
        parts.append((modes, None, solve_lyapunov_batch(
            np.ascontiguousarray(a[modes, modes])[None],
            np.ascontiguousarray(d[modes, modes])[None])))
    sol = _join(parts, 1)
    if sol.errors:
        raise sol.errors[0]
    if not sol.stable[0]:
        raise StabilityError(
            f"drift matrix is not Hurwitz stable (spectral abscissa "
            f"{sol.max_real_part[0]:.3e}); no steady-state covariance exists")
    return sol.v[0]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions x of a x = b for a stack of matrices a and right-hand sides b
    of the same number of dimensions, b a stack of one where every member
    shares it. An exactly singular member gets NaN (which fails the residual
    check) without failing the rest of the stack."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full((len(a), *b.shape[1:]), np.nan, dtype=np.result_type(a, b))
        for k, (a_k, b_k) in enumerate(zip(a, np.broadcast_to(b, out.shape))):
            try:
                out[k] = np.linalg.solve(a_k, b_k)
            except np.linalg.LinAlgError:
                pass
        return out


def _kronecker_lyapunov(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The fallback solutions of a v + v a^T = -d for a stack of problems.

    The Lyapunov operator acts on the n(n+1)/2 unknowns v_pq, p <= q, of the
    symmetric solution, one row per equation (i, j), i <= j:
        sum_k a_ik v_kj + v_ik a_jk = -d_ij,
    where v_qp stands for v_pq. All the stack's systems go to one batched LU
    solve with partial pivoting, which is backward stable. The symmetric form
    keeps each system at 55 unknowns for n = 10: a 100 x 100 system is past
    the size from which OpenBLAS threads its LU, and is many times slower.
    """
    rows, cols, index, _, _, _ = _operator_maps(a.shape[-1])
    # a (k, 55, 1) right-hand side reads as a stack of columns in every numpy
    x = _solve(_lyapunov_operators(a), -d[:, rows, cols, None])[..., 0]
    return x[:, index]


def _lyapunov_operators(a: np.ndarray) -> np.ndarray:
    """The Lyapunov operators of a stack of drifts a on the unknowns v_pq,
    p <= q: row (i, j), i <= j, holds the coefficients of
    sum_k a_ik v_kj + v_ik a_jk, with v_qp read as v_pq. Two scatter-adds
    onto zeros place each a_ik and a_jk at its unknown; an entry gets at
    most two nonzero terms, so no entry is a negative zero."""
    k, n, _ = a.shape
    rows, cols, _, row, at_kj, at_ik = _operator_maps(n)
    op = np.zeros((k, rows.size, rows.size))
    op[:, row, at_kj] += a[:, rows]  # a_ik at the unknown of v_kj
    op[:, row, at_ik] += a[:, cols]  # a_jk at the unknown of v_ik
    return op


@cache
def _operator_maps(n: int) -> tuple[np.ndarray, ...]:
    """What _lyapunov_operators takes from n alone: the (i, j) of each
    unknown and equation, i <= j; the unknown of each entry of an n x n
    symmetric matrix; each equation's row of the operator, as a column; and
    the unknowns of v_kj and of v_ik, k = 0 ... n - 1, in each equation's
    row."""
    rows, cols = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    maps = (rows, cols, index, np.arange(rows.size)[:, None], index[:, cols].T,
            index[rows])
    for table in maps:  # shared by every fallback solve
        table.flags.writeable = False
    return maps


def _abs_max(x: np.ndarray) -> np.ndarray:
    """max |entry| of each matrix of a stack."""
    return np.abs(x).max(axis=(-2, -1))


def _residual_and_bound(a: np.ndarray, d: np.ndarray, v: np.ndarray,
                        a_max: np.ndarray, d_max: np.ndarray):
    """Residual max|a v + v a^T + d| of each symmetric v of a stack, and its
    bound; a_max and d_max are _abs_max of a and d."""
    av = a @ v
    # += of the transpose would overlap av, which numpy buffers with a copy
    sym = av + av.transpose(0, 2, 1)
    sym += d
    residual = _abs_max(sym)
    bound = RESIDUAL_TOL * np.maximum(a_max * _abs_max(v), d_max)
    return residual, bound


class _NonFiniteDiffusion(SimulationError):
    """A problem's diffusion has non-finite entries, as (i, j, value), where
    its drift has none, as where a thermal factor overflows. A sweep adds
    the point's bath temperature to the message."""

    def __init__(self, entries: list[tuple[int, int, float]]) -> None:
        self.entries = entries
        super().__init__("diffusion matrix contains non-finite entries: " + ", ".join(
            f"({i}, {j}) = {value}" for i, j, value in entries))

    def shifted(self, first: int) -> "_NonFiniteDiffusion":
        """The error of a mode group whose first quadrature is `first`, with
        the whole problem's indices."""
        return _NonFiniteDiffusion([(i + first, j + first, value)
                                    for i, j, value in self.entries])


@dataclass(frozen=True)
class CovarianceBatch:
    """Stability and steady-state covariance of each problem in a stack."""

    max_real_part: np.ndarray   # (m,) spectral abscissa; NaN where failed
    stable: np.ndarray          # (m,) Hurwitz gate, as in is_stable
    v: np.ndarray               # (m, n, n) covariance; NaN unless stable
    errors: dict[int, SimulationError]  # problems that failed, by index


@dataclass(frozen=True, eq=False)
class _Eigenbasis:
    """The half of solve_lyapunov_batch that depends on a stack of drifts
    alone (_decompose): the gate, and the eigenbasis of the stable problems.
    Nothing that reads one writes to it, so a sweep hands the same one to
    every block whose drift stack is the same (sweep._DRIFT_MEMO)."""

    max_real_part: np.ndarray   # (m,) spectral abscissa; NaN where failed
    stable: np.ndarray          # (m,) Hurwitz gate
    errors: dict[int, str]      # the problems that failed, by index
    # a = s diag(lam) s^-1 for the stable problems, in stack order, complex;
    # None where no problem is stable
    lam: np.ndarray | None      # (k, n)
    s: np.ndarray | None        # (k, n, n)
    s_inv: np.ndarray | None    # (k, n, n)

    def __post_init__(self) -> None:
        for value in (self.max_real_part, self.stable, self.lam, self.s, self.s_inv):
            if value is not None:
                value.flags.writeable = False


def _decompose(a: np.ndarray) -> _Eigenbasis:
    """The finite check, gate and eigenbasis of a stack of drifts a; see
    solve_lyapunov_batch. A stack of more than two finite drifts first takes
    the spectra of its first and last one with eigvals: if neither is
    stable, they are kept, the other spectra come from eigvals on the
    stack's interior, and eig runs on the stable drifts alone; else eig runs
    on the whole stack. The bits are the same either way: the spectra go
    into one complex stack, as numpy's eigvals holds them before it takes
    an all-real result's real part, so the abscissa reduces the same view.
    eigvals frees the interpreter lock where length x order > 500 (measured),
    as on the largest stack of a block of a sweep stage of 84 points or more."""
    m, n, _ = a.shape
    if np.isfinite(a).all():  # the usual stack, taken as it is
        ok, a_ok, errors = slice(None), a, {}
    else:
        finite = np.isfinite(a).all(axis=(1, 2))
        ok = np.flatnonzero(finite)
        a_ok = a[ok]
        errors = dict.fromkeys(np.flatnonzero(~finite).tolist(),
                               "drift matrix contains non-finite entries")
    try:
        ends = np.linalg.eigvals(a_ok[[0, -1]]) if len(a_ok) > 2 else None
        if ends is not None and not _has_stable(ends):
            # neither end of the stack has a steady state, so most of it
            # likely has none: spectra without eigenvectors, the ends' from
            # the probe, then eig on the stable problems alone
            spectra, s = np.empty((len(a_ok), n), dtype=complex), None
            spectra[1:-1] = np.linalg.eigvals(a_ok[1:-1])
            spectra[[0, -1]] = ends
        else:
            spectra, s = np.linalg.eig(a_ok)
        abscissa = spectra.real.max(axis=1)
        if errors:  # NaN at the non-finite drifts
            found, abscissa = abscissa, np.full(m, np.nan)
            abscissa[ok] = found
        stable = abscissa < -STABILITY_TOL  # False where NaN
        count = np.count_nonzero(stable)
        if not count:
            return _Eigenbasis(abscissa, stable, errors, None, None, None)
        if s is None:
            lam, s = np.linalg.eig(a[stable])
        elif count < len(a_ok):
            keep = stable[ok]
            lam, s = spectra[keep], s[keep]
        else:
            lam = spectra
    except np.linalg.LinAlgError as exc:
        errors.update(dict.fromkeys(
            np.arange(m)[ok].tolist(), f"eigensolver failed on drift matrix: {exc}"))
        return _Eigenbasis(np.full(m, np.nan), np.zeros(m, dtype=bool), errors,
                           None, None, None)
    # complex arithmetic throughout, whether or not eig returned real arrays,
    # so a problem's result does not depend on the rest of its stack
    s = s.astype(complex, copy=False)
    # a complex identity, so that solve needs no cast copy of it, and a
    # stack of one, which solve broadcasts over the stack
    s_inv = _solve(s, np.eye(n, dtype=complex)[None])
    return _Eigenbasis(abscissa, stable, errors, lam.astype(complex, copy=False),
                       s, s_inv)


def _eigenbasis_lyapunov(lam: np.ndarray, s: np.ndarray, s_inv: np.ndarray,
                         d: np.ndarray):
    """Symmetric solutions x of a x + x a^T = -d for a stack of drifts
    a = s diag(lam) s^-1 in complex arithmetic, and the pair-sum condition
    estimate of each.

    C = s^-1 d s^-T becomes W = -C / (lam_i + lam_j) in place, divided by
    the negated pair sums, and the products s W and (s W) s^T, and the
    solution, go into the stacks of the pair sums, of C and of the pair
    sums' moduli, which the solve no longer needs. The operations, and so
    the bits, are those of fresh arrays. lam, s and s^-1 are only read.
    """
    c = s_inv @ d @ s_inv.transpose(0, 2, 1)
    # the negated pair sums, filled in two steps: -lam[:, :, None] -
    # lam[:, None, :] buffers both broadcast operands, a stack each.
    # (-lam_i) - lam_j is -(lam_i + lam_j) to the bit but for the sign of a
    # zero imaginary part, so C divided by it is -C / (lam_i + lam_j) with
    # no pass to negate C
    pair_sums = np.negative(lam[:, :, None], out=np.empty_like(c))
    pair_sums -= lam[:, None, :]
    c /= pair_sums
    moduli = np.abs(pair_sums)
    cond = moduli.max(axis=(1, 2)) / moduli.min(axis=(1, 2))
    y = np.matmul(np.matmul(s, c, out=pair_sums), s.transpose(0, 2, 1), out=c).real
    x = np.add(y, y.transpose(0, 2, 1), out=moduli)
    x *= 0.5
    return x, cond


def _has_stable(spectra: np.ndarray) -> bool:
    """Whether any of a stack's spectra passes the Hurwitz gate."""
    return bool((spectra.real.max(axis=1) < -STABILITY_TOL).any())


def solve_lyapunov_batch(a: np.ndarray, d: np.ndarray,
                         eigenbasis: _Eigenbasis | None = None,
                         maxima: tuple[np.ndarray, np.ndarray] | None = None
                         ) -> CovarianceBatch:
    """Hurwitz gate and steady-state covariance for a stack of (a, d) pairs.

    One batched eigendecomposition a = S diag(lam) S^-1 serves the whole
    stack: its eigenvalues give the stability gate, and in its eigenbasis the
    Lyapunov equation is diagonal,
        C = S^-1 d S^-T,  W_ij = -C_ij / (lam_i + lam_j),  V = S W S^T.
    The solve has two halves. The first depends on the drifts alone
    (_decompose): the finite check of a, the gate, and lam, S and S^-1 of
    the stable problems, or the failure of the stack's eigen calls. A caller
    that has it for the same drift stack passes it as `eigenbasis` (a sweep
    whose blocks repeat a drift does), and the solve runs the second half
    alone: C, W and V from d, the residual check, the fallback, the errors
    and the condition warning. The results are the same bits either way.
    The finite check of d and the residual bound read each problem's
    largest |entry| of a and of d (_abs_max), not finite where an entry is
    not; a caller that has them (a sweep's model stage, per point) passes
    them as `maxima`, the pair of (m,) arrays, for the same bits.
    Only stable problems need S. A stack of more than two finite problems
    first takes the spectra of its first and last one with eigvals; if
    neither is stable (a sweep block's ends, on the unstable part of a
    grid), it keeps their spectra, takes the others from eigvals, and eig
    runs on its stable problems alone, or not at all.
    LAPACK's dgeev runs the same balancing, Hessenberg reduction and QR
    iterations with and without eigenvectors, so both routes give the same
    spectra, gate and solutions bit for bit; the probe only decides which
    driver runs. A stack with no stable problem returns after the gate. A
    problem whose diffusion is non-finite fails before the solve, with no
    abscissa, and its error names the non-finite entries.
    C turns into W in place, divided by the negated pair sums, and S W and V
    go into spent stacks (_eigenbasis_lyapunov). Folding the sign into the
    symmetrization instead, V = -(Y + Y^T)/2, would give the same values but
    turn some exact zeros of V into -0.0.
    The pair sums lam_i + lam_j, nonzero where stable, are the eigenvalues of
    the vectorized Lyapunov operator; their extreme moduli's ratio estimates
    its condition. A 10x10 problem whose bosonic and atomic modes no entry
    links (_decoupled), as an atom-free point's (sweep._atom_free), comes
    here as two problems, one per mode group, in stacks of their own
    (solve_lyapunov, sweep._ModelStage), and _join puts them together; the
    condition estimate and the residual bound are then each group's.
    That solve is inaccurate where S is ill-conditioned (near-defective
    drifts), so every point's residual is checked against RESIDUAL_TOL. The
    points that fail it are solved again together, directly: one batched LU
    solve of their Lyapunov operators on the n(n+1)/2 unknowns of a
    symmetric n x n solution (_kronecker_lyapunov), checked against the
    same bound.
    A point whose operator is singular to working precision fails. A stable
    point whose condition estimate exceeds CONDITION_WARN warns. Per-point
    failures come back in `errors` instead of being raised; where LAPACK
    fails in any of the stack's eigen calls, every finite problem of the
    stack fails with it, and the batch carries no abscissa.
    When every problem is finite and stable the solve works on the stack as
    given, without gathering it, and returns its own solution stack as `v`.
    a, d and eigenbasis are never written to.
    """
    if eigenbasis is None:
        eigenbasis = _decompose(a)
    a_max, d_max = (_abs_max(a), _abs_max(d)) if maxima is None else maxima
    m, n, _ = a.shape
    abscissa = eigenbasis.max_real_part.copy()
    stable = eigenbasis.stable.copy()
    errors = {k: SimulationError(message) for k, message in eigenbasis.errors.items()}
    noisy = ~np.isfinite(d_max)
    if noisy.any():
        # a non-finite drift keeps its own error
        for k in np.flatnonzero(noisy & np.isfinite(a_max)).tolist():
            errors[k] = _NonFiniteDiffusion(
                [(i, j, d[k, i, j]) for i, j in np.argwhere(~np.isfinite(d[k])).tolist()])
        abscissa[noisy] = np.nan
        stable[noisy] = False
    count = np.count_nonzero(stable)
    if not count:
        return CovarianceBatch(abscissa, stable, np.full((m, n, n), np.nan), errors)
    lam, s, s_inv = eigenbasis.lam, eigenbasis.s, eigenbasis.s_inv
    if count < len(lam):  # drop the problems with a non-finite diffusion
        keep = stable[eigenbasis.stable]
        lam, s, s_inv = lam[keep], s[keep], s_inv[keep]
    whole = count == m
    if whole:
        # C-contiguous, as a gather leaves it, for the same matmul path
        a_st, d_st = np.ascontiguousarray(a), np.ascontiguousarray(d)
    else:
        a_st, d_st = a[stable], d[stable]
        a_max, d_max = a_max[stable], d_max[stable]
    x, cond = _eigenbasis_lyapunov(lam, s, s_inv, d_st)
    residual, bound = _residual_and_bound(a_st, d_st, x, a_max, d_max)
    passed = residual <= bound
    if not passed.all():
        redo = np.flatnonzero(~passed)  # NaN falls back too
        a_re, d_re = a_st[redo], d_st[redo]
        x[redo] = _kronecker_lyapunov(a_re, d_re)
        residual[redo], bound[redo] = _residual_and_bound(
            a_re, d_re, x[redo], a_max[redo], d_max[redo])
        passed = residual <= bound
        x[~passed] = np.nan
        idx = np.flatnonzero(stable)
        for j in np.flatnonzero(~passed):
            errors[int(idx[j])] = SimulationError(
                f"Lyapunov residual {residual[j]:.3e} exceeds bound {bound[j]:.3e}"
                if np.isfinite(residual[j]) else
                "Lyapunov operator is singular to working precision")
    if whole:
        v = x
    else:
        v = np.full((m, n, n), np.nan)
        v[stable] = x
    for estimate in cond[passed & (cond > CONDITION_WARN)]:
        # names solve_lyapunov's caller, or the sweep that ran the block
        warnings.warn(
            f"Lyapunov system is ill-conditioned (estimate {estimate:.2e}); "
            "covariance entries may lose precision", RuntimeWarning, stacklevel=3)
    return CovarianceBatch(abscissa, stable, v, errors)


def _join(parts: list[tuple[slice, np.ndarray | None, CovarianceBatch]],
          m: int) -> CovarianceBatch:
    """The batch of m problems from the batches of their mode groups, as
    (modes, rows, batch): the group's quadratures, the problems it holds
    (None: all) and its batch, where a batch of one, a group solved once,
    stands for each of them. Every problem is in one group of all ten modes
    or in both groups of _GROUPS, and is 10x10; or, as atom-free points
    (sweep._atom_free), in the bosonic group alone, and is 6x6. A problem
    is stable where each of its groups is; its abscissa is the groups'
    largest, NaN where one has none; its V is block-diagonal, NaN unless
    stable and solved; and its error is its first failed group's, with the
    problem's indices. A lone group of all problems gives its batch as it
    is."""
    if len(parts) == 1 and parts[0][1] is None and len(parts[0][2].stable) == m:
        return parts[0][2]
    stable = np.ones(m, dtype=bool)
    order = max(modes.stop for modes, _, _ in parts)
    v = np.zeros((m, order, order))
    errors = {}
    for modes, rows, batch in parts:
        at = slice(None) if rows is None else rows
        stable[at] &= batch.stable
        v[at, modes, modes] = batch.v
        points = range(m) if rows is None else rows.tolist()
        for k, exc in batch.errors.items():
            if modes.start and isinstance(exc, _NonFiniteDiffusion):
                exc = exc.shifted(modes.start)
            for point in points if len(batch.stable) < len(points) else (points[k],):
                errors.setdefault(point, exc)
    v[~stable] = np.nan
    if errors:
        v[list(errors)] = np.nan
    return CovarianceBatch(_joined_abscissa(parts, m), stable, v, errors)


def _joined_abscissa(parts: list[tuple[slice, np.ndarray | None,
                                        CovarianceBatch | _Eigenbasis]],
                     m: int) -> np.ndarray:
    """The abscissa of m problems from the gates of their mode groups, as
    _join takes them (a group's gate is its batch or its _Eigenbasis): each
    problem's groups' largest, NaN where one has none."""
    abscissa = np.full(m, -np.inf)
    for _, rows, gate in parts:
        at = slice(None) if rows is None else rows
        abscissa[at] = np.maximum(abscissa[at], gate.max_real_part)  # NaN wins
    return abscissa
