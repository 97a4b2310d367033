"""Linearized fluctuation dynamics: drift and diffusion assembly, stability
gate, and the steady-state covariance via the continuous Lyapunov equation.

Quadrature ordering of the 10-dimensional fluctuation vector:
    (q, p, X_c, Y_c, X_w, Y_w, X_a1, Y_a1, X_a2, Y_a2)
i.e. resonator position/momentum, optical cavity, microwave cavity, then the
two atomic transition coherences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError, StabilityError
from .model import (SteadyState, SystemParameters, _occupation,
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
    # inf; the solve reports that problem's non-finite entries instead
    with np.errstate(over="ignore"):
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
    """The 10x10 matrices of a ParameterBlock's points as what they share
    and what varies: `fixed` holds every entry / omega_m that is a float (0
    off the entry slots), and values[i] holds, one per point, the entry at
    flat slot slots[i]."""

    fixed: np.ndarray    # (100,)
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

    def with_fixed(self, mask: np.ndarray, matrix: np.ndarray) -> "_Template":
        """This template with its 10x10 entries where mask is True set to
        matrix's at every point; the varying entries there are dropped."""
        fixed = np.where(mask.ravel(), matrix.ravel(), self.fixed)
        keep = ~mask.ravel()[self.slots]
        return _Template(fixed, self.slots[keep], self.values[keep])

    def fill(self, out: np.ndarray, block: slice) -> None:
        """Write the flattened matrices of a block of the points into out, an
        (m, 100) array: the same bits that build_drift or build_diffusion
        give at those points."""
        out[...] = self.fixed
        if self.slots.size:
            out[:, self.slots] = self.values[:, block].T


def _templates(params: SystemParameters, ss: SteadyState) -> tuple[_Template, _Template]:
    """The drift and the diffusion of a ParameterBlock and its SteadyState,
    as _Templates: the entries of build_drift and build_diffusion, computed
    once for all of the block's points."""
    om = params.omega_m
    return (_Template.split(_DRIFT_SLOTS, _drift_entries(params, ss), om),
            _Template.split(_DIFFUSION_SLOTS, _diffusion_entries(params), om))


def is_stable(a: np.ndarray) -> StabilityReport:
    """Hurwitz gate: stable iff the spectral abscissa clears a strict guard.

    Marginal spectra (abscissa within STABILITY_TOL of zero) are reported
    unstable: the steady-state covariance is meaningless there.
    """
    if not np.all(np.isfinite(a)):
        raise SimulationError("drift matrix contains non-finite entries")
    try:
        eigvals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"eigensolver failed on drift matrix: {exc}") from exc
    abscissa = float(np.max(eigvals.real))
    return StabilityReport(stable=abscissa < -STABILITY_TOL, max_real_part=abscissa)


def solve_lyapunov(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Steady-state covariance V solving a V + V a^T = -d for Hurwitz-stable a.

    A stack of one through solve_lyapunov_batch. Raises the problem's
    SimulationError, or StabilityError if a is not Hurwitz stable.
    """
    sol = solve_lyapunov_batch(a[None], d[None])
    if sol.errors:
        raise sol.errors[0]
    if not sol.stable[0]:
        raise StabilityError(
            f"drift matrix is not Hurwitz stable (spectral abscissa "
            f"{sol.max_real_part[0]:.3e}); no steady-state covariance exists")
    return sol.v[0]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions x of a x = b for a stack of matrices a and right-hand sides b
    of the same number of dimensions. An exactly singular member gets NaN
    (which fails the residual check) without failing the rest of the stack."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan, dtype=np.result_type(a, b))
        for k, (a_k, b_k) in enumerate(zip(a, b)):
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
    n = a.shape[-1]
    rows, cols = np.triu_indices(n)
    i, j = rows[:, None], cols[:, None]  # the equation of each row
    p, q = rows, cols  # the unknown of each column
    eye = np.eye(n)
    op = (a[:, i, p] * eye[j, q] + eye[i, p] * a[:, j, q]
          + (p != q) * (a[:, i, q] * eye[j, p] + eye[i, q] * a[:, j, p]))
    # a (k, 55, 1) right-hand side reads as a stack of columns in every numpy
    x = _solve(op, -d[:, i, j])[..., 0]
    v = np.empty_like(d)
    v[:, rows, cols] = x
    v[:, cols, rows] = x
    return v


def _residual_and_bound(a: np.ndarray, d: np.ndarray, v: np.ndarray):
    """Residual max|a v + v a^T + d| of a symmetric v, and its bound; one or a stack."""
    av = a @ v
    residual = np.abs(av + np.swapaxes(av, -1, -2) + d).max(axis=(-2, -1))
    bound = RESIDUAL_TOL * np.maximum(
        np.abs(a).max(axis=(-2, -1)) * np.abs(v).max(axis=(-2, -1)),
        np.abs(d).max(axis=(-2, -1)))
    return residual, bound


class _NonFiniteDiffusion(SimulationError):
    """A problem's diffusion has non-finite entries where its drift has none,
    as where a thermal factor overflows. A sweep adds the point's bath
    temperature to the message."""


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
    stable, every spectrum comes from eigvals and eig runs on the stable
    drifts alone, else eig runs on the whole stack."""
    m, n, _ = a.shape
    abscissa = np.full(m, np.nan)
    finite = np.isfinite(a).all(axis=(1, 2))
    errors = dict.fromkeys(np.flatnonzero(~finite).tolist(),
                           "drift matrix contains non-finite entries")
    ok = np.flatnonzero(finite)
    a_ok = a if ok.size == m else a[ok]
    try:
        if ok.size > 2 and not _has_stable(np.linalg.eigvals(a_ok[[0, -1]])):
            # neither end of the stack has a steady state, so most of it
            # likely has none: spectra without eigenvectors, then eig on the
            # stable problems alone
            spectra, s = np.linalg.eigvals(a_ok), None
        else:
            spectra, s = np.linalg.eig(a_ok)
        abscissa[ok] = spectra.real.max(axis=1)
        stable = abscissa < -STABILITY_TOL  # False where NaN
        idx = np.flatnonzero(stable)
        if not idx.size:
            return _Eigenbasis(abscissa, stable, errors, None, None, None)
        if s is None:
            lam, s = np.linalg.eig(a[idx])
        elif idx.size < ok.size:
            keep = stable[ok]
            lam, s = spectra[keep], s[keep]
        else:
            lam = spectra
    except np.linalg.LinAlgError as exc:
        errors.update(dict.fromkeys(
            ok.tolist(), f"eigensolver failed on drift matrix: {exc}"))
        return _Eigenbasis(np.full(m, np.nan), np.zeros(m, dtype=bool), errors,
                           None, None, None)
    # complex arithmetic throughout, whether or not eig returned real arrays,
    # so a problem's result does not depend on the rest of its stack
    s = s.astype(complex, copy=False)
    # a complex identity, so that solve needs no cast copy of it
    s_inv = _solve(s, np.broadcast_to(np.eye(n, dtype=complex), s.shape))
    return _Eigenbasis(abscissa, stable, errors, lam.astype(complex, copy=False),
                       s, s_inv)


def _eigenbasis_lyapunov(lam: np.ndarray, s: np.ndarray, s_inv: np.ndarray,
                         d: np.ndarray):
    """Symmetric solutions x of a x + x a^T = -d for a stack of drifts
    a = s diag(lam) s^-1 in complex arithmetic, and the pair-sum condition
    estimate of each.

    C = s^-1 d s^-T becomes W = -C / (lam_i + lam_j) in place, and the
    products s W and (s W) s^T, and the solution, go into the stacks of the
    pair sums, of C and of the pair sums' moduli, which the solve no longer
    needs. The operations, and so the bits, are those of fresh arrays. lam,
    s and s^-1 are only read.
    """
    c = s_inv @ d @ np.swapaxes(s_inv, 1, 2)
    # filled in two steps: lam[:, :, None] + lam[:, None, :] buffers both
    # broadcast operands, a stack each
    pair_sums = np.empty_like(c)
    pair_sums[...] = lam[:, :, None]
    pair_sums += lam[:, None, :]
    np.negative(c, out=c)
    c /= pair_sums
    moduli = np.abs(pair_sums)
    cond = moduli.max(axis=(1, 2)) / moduli.min(axis=(1, 2))
    y = np.matmul(np.matmul(s, c, out=pair_sums), np.swapaxes(s, 1, 2), out=c).real
    x = np.add(y, np.swapaxes(y, 1, 2), out=moduli)
    x *= 0.5
    return x, cond


def _has_stable(spectra: np.ndarray) -> bool:
    """Whether any of a stack's spectra passes the Hurwitz gate."""
    return bool((spectra.real.max(axis=1) < -STABILITY_TOL).any())


def solve_lyapunov_batch(a: np.ndarray, d: np.ndarray,
                         eigenbasis: _Eigenbasis | None = None) -> CovarianceBatch:
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
    Only stable problems need S. A stack of more than two finite problems
    first takes the spectra of its first and last one with eigvals; if
    neither is stable (a sweep block's ends, on the unstable part of a
    grid), the whole stack takes its spectra from eigvals, and eig runs on
    its stable problems alone, or not at all. LAPACK's dgeev runs the same
    balancing, Hessenberg reduction and QR iterations with and without
    eigenvectors, so both routes give the same spectra, gate and solutions
    bit for bit; the probe only decides which driver runs. A stack with no
    stable problem returns after the gate. A problem whose diffusion is
    non-finite fails before the solve, with no abscissa, and its error names
    the non-finite entries.
    C turns into W in place, negated and then divided by the pair sums, and
    S W and V go into spent stacks (_eigenbasis_lyapunov). Folding the sign
    into the symmetrization instead, V = -(Y + Y^T)/2, would give the same
    values but turn some exact zeros of V into -0.0.
    The pair sums lam_i + lam_j, nonzero where stable, are the eigenvalues of
    the vectorized Lyapunov operator; their extreme moduli's ratio estimates
    its condition. LAPACK's balancing sets aside rows and columns with no
    off-diagonal entry, as the vacuum placeholders that stand in for the
    atom-free problems' atomic modes (sweep._ModelStage.of).
    That solve is inaccurate where S is ill-conditioned (near-defective
    drifts), so every point's residual is checked against RESIDUAL_TOL. The
    points that fail it are solved again together, directly: one batched LU
    solve of their Lyapunov operators on the 55 unknowns of a symmetric
    10 x 10 solution (_kronecker_lyapunov), checked against the same bound.
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
    m, n, _ = a.shape
    abscissa = eigenbasis.max_real_part.copy()
    stable = eigenbasis.stable.copy()
    errors = {k: SimulationError(message) for k, message in eigenbasis.errors.items()}
    noisy = ~np.isfinite(d).all(axis=(1, 2))
    if noisy.any():
        # a non-finite drift keeps its own error
        for k in np.flatnonzero(noisy & np.isfinite(a).all(axis=(1, 2))).tolist():
            entries = ", ".join(f"({i}, {j}) = {d[k, i, j]}"
                                for i, j in np.argwhere(~np.isfinite(d[k])).tolist())
            errors[k] = _NonFiniteDiffusion(
                f"diffusion matrix contains non-finite entries: {entries}")
        abscissa[noisy] = np.nan
        stable[noisy] = False
    idx = np.flatnonzero(stable)
    if not idx.size:
        return CovarianceBatch(abscissa, stable, np.full((m, n, n), np.nan), errors)
    lam, s, s_inv = eigenbasis.lam, eigenbasis.s, eigenbasis.s_inv
    if idx.size < len(lam):  # drop the problems with a non-finite diffusion
        keep = stable[eigenbasis.stable]
        lam, s, s_inv = lam[keep], s[keep], s_inv[keep]
    whole = idx.size == m
    if whole:
        # C-contiguous, as a gather leaves it, for the same matmul path
        a_st, d_st = np.ascontiguousarray(a), np.ascontiguousarray(d)
    else:
        a_st, d_st = a[idx], d[idx]
    x, cond = _eigenbasis_lyapunov(lam, s, s_inv, d_st)
    residual, bound = _residual_and_bound(a_st, d_st, x)
    redo = np.flatnonzero(~(residual <= bound))  # NaN falls back too
    if redo.size:
        a_re, d_re = a_st[redo], d_st[redo]
        x[redo] = _kronecker_lyapunov(a_re, d_re)
        residual[redo], bound[redo] = _residual_and_bound(a_re, d_re, x[redo])
    passed = residual <= bound
    x[~passed] = np.nan
    if whole:
        v = x
    else:
        v = np.full((m, n, n), np.nan)
        v[idx] = x
    for j in np.flatnonzero(~passed):
        errors[int(idx[j])] = SimulationError(
            f"Lyapunov residual {residual[j]:.3e} exceeds bound {bound[j]:.3e}"
            if np.isfinite(residual[j]) else
            "Lyapunov operator is singular to working precision")
    for estimate in cond[passed & (cond > CONDITION_WARN)]:
        # names solve_lyapunov's caller, or the sweep that ran the block
        warnings.warn(
            f"Lyapunov system is ill-conditioned (estimate {estimate:.2e}); "
            "covariance entries may lose precision", RuntimeWarning, stacklevel=3)
    return CovarianceBatch(abscissa, stable, v, errors)
