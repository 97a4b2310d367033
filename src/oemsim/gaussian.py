"""Bipartite reduction of the covariance matrix and logarithmic negativity.

Conventions: vacuum quadrature variance 1/2 ([X, Y] = i), separability
threshold at smallest partially-transposed symplectic eigenvalue 1/2, and
natural-log entanglement units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalCovarianceError

#: discriminant of the symplectic eigenvalue may dip this far below zero
#: before it is treated as a broken state rather than roundoff
DISCRIMINANT_TOL = 1e-9


@dataclass(frozen=True)
class BipartitePair:
    """A pair of modes of the 10-mode system, as block offsets into the CM."""

    tag: str
    first: int   # row/col offset of the first mode's 2x2 block (0-based)
    second: int  # row/col offset of the second mode's 2x2 block

    @property
    def indices(self) -> list[int]:
        """Rows/columns of the pair's 4x4 block in the full covariance."""
        return [self.first, self.first + 1, self.second, self.second + 1]


#: the five mode pairs the engine reports on: mechanics-optics,
#: mechanics-microwave, optics-microwave, and optics against each of the
#: two atomic transition quasi-modes
BIPARTITE_PAIRS: dict[str, BipartitePair] = {
    "mr_oc": BipartitePair("mr_oc", 0, 2),
    "mr_mc": BipartitePair("mr_mc", 0, 4),
    "oc_mc": BipartitePair("oc_mc", 2, 4),
    "oc_sba": BipartitePair("oc_sba", 2, 6),
    "oc_scb": BipartitePair("oc_scb", 2, 8),
}

#: pairs whose two members are genuine bosonic modes (present in the
#: atom-free reduction)
BOSONIC_PAIRS = ("mr_oc", "mr_mc", "oc_mc")


def normalize_pair_tag(tag: str) -> str:
    key = tag.strip().lower().replace("-", "_")
    if key not in BIPARTITE_PAIRS:
        raise KeyError(f"unknown mode pair {tag!r}; known: {', '.join(BIPARTITE_PAIRS)}")
    return key


def extract_bipartite(v: np.ndarray, pair: BipartitePair) -> np.ndarray:
    """4x4 covariance of one mode pair: drop the rows/columns of all others."""
    idx = pair.indices
    return v[np.ix_(idx, idx)].copy()


#: the column pairs (j, k), j < k, of a 4x4 matrix's 2x2 minors, as the
#: arrays of j and of k, ordered so that the pair at 5 - i holds the other
#: two columns of the pair at i
_MINOR_COLUMNS = (np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3]))


#: _determinants keeps the closed-form det where its error bound, 24 gamma_8
#: prod_i |cm_ii| with gamma_8 = 8 u / (1 - 8 u) and u the unit roundoff, is
#: at most 1e-11 |det|: where prod_i |cm_ii| is within this ratio of |det|
_CERTIFIED_RATIO = 1e-11 / (24.0 * 8.0 * 2.0**-53 / (1.0 - 8.0 * 2.0**-53))


@dataclass(frozen=True)
class LogNegativity:
    e_n: float         # entanglement measure, >= 0
    eta_minus: float   # smallest symplectic eigenvalue of the partial transpose


def log_negativity(cm: np.ndarray) -> LogNegativity:
    """Logarithmic negativity of a two-mode Gaussian state.

    A stack of one through log_negativities; raises its error, if any.
    """
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (4, 4):
        raise UnphysicalCovarianceError(f"expected a 4x4 matrix, got {cm.shape}")
    e_n, eta_minus, errors = log_negativities(cm[None])
    if errors:
        raise errors[0]
    return LogNegativity(e_n=float(e_n[0]), eta_minus=float(eta_minus[0]))


def log_negativities(cm: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, dict[int, UnphysicalCovarianceError]]:
    """Logarithmic negativity of each two-mode state in a (m, 4, 4) stack.

    Uses the partial-transpose invariant sigma = det v1 + det v2 - 2 det vc
    and the squared symplectic eigenvalues eta_+-^2 = (sigma +- sqrt(sigma^2
    - 4 det cm)) / 2, whose product is det cm (Adesso, Serafini & Illuminati,
    PRA 70, 022318 (2004)). eta_minus^2 is taken as det cm / eta_plus^2, which
    does not cancel where eta_minus << eta_plus, and e_n = max(0,
    -ln(2 eta_minus)). sigma comes in closed form (_invariants) and det cm
    from _determinants, neither from LAPACK. A discriminant within
    -DISCRIMINANT_TOL of zero is clamped to zero (roundoff at degenerate
    symplectic spectra); beyond that the state is rejected as unphysical, and
    so is a state with a NaN or infinite entry, or with eta_plus^2 <= 0 (then
    eta_minus^2 <= 0 too, and eta_plus^2 is reported). Returns (e_n,
    eta_minus, errors), where errors maps the index of each rejected state to
    its error and the two arrays hold NaN there.
    """
    # a non-finite member gives NaN or inf along the way, and fails below
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        sigma, det_cm = _invariants(cm)
        det_cm = _determinants(cm, det_cm)
        disc = sigma * sigma - 4.0 * det_cm
        # clamps every negative discriminant: those below -DISCRIMINANT_TOL
        # fail below, whatever eta_sq they give; sigma * sigma is never
        # -0.0, so no discriminant is
        eta_plus_sq = 0.5 * (sigma + np.sqrt(np.maximum(disc, 0.0)))
        eta_sq = np.where(eta_plus_sq > 0.0, det_cm / eta_plus_sq, eta_plus_sq)
        eta_minus = np.sqrt(eta_sq)
        neg_log = -np.log(2.0 * eta_minus)
    e_n = np.where(neg_log > 0.0, neg_log, 0.0)
    # a determinant below -DISCRIMINANT_TOL gives eta_sq < 0 (or -0.0), so
    # the last test also catches it
    bad = (disc < -DISCRIMINANT_TOL) | ~(eta_sq > 0.0)
    finite = np.isfinite(cm)
    if not finite.all():
        bad |= ~finite.reshape(-1, 16).all(axis=1)
    errors: dict[int, UnphysicalCovarianceError] = {}
    if not bad.any():
        return e_n, eta_minus, errors
    eta_minus[bad] = np.nan
    e_n[bad] = np.nan
    for k in np.flatnonzero(bad):
        if not finite[k].all():
            entries = ", ".join(f"({i}, {j}) = {cm[k, i, j]}"
                                for i, j in np.argwhere(~finite[k]).tolist())
            msg = f"covariance has non-finite entries: {entries}"
        elif det_cm[k] < -DISCRIMINANT_TOL:
            msg = (f"covariance determinant {det_cm[k]:.3e} is negative; "
                   "upstream state is unstable or corrupted")
        elif disc[k] < -DISCRIMINANT_TOL:
            msg = (f"symplectic discriminant {disc[k]:.3e} is strongly negative; "
                   "upstream state is unstable or corrupted")
        else:
            msg = (f"partial transpose has non-positive symplectic eigenvalue "
                   f"(eta^2 = {eta_sq[k]:.3e})")
        errors[int(k)] = UnphysicalCovarianceError(msg)
    return e_n, eta_minus, errors


def _determinants(cm: np.ndarray, det: np.ndarray) -> np.ndarray:
    """det cm of each state of a (m, 4, 4) stack, given its closed form det
    from _invariants: kept where a per-state bound certifies it to a relative
    error of 1e-11 (_CERTIFIED_RATIO), and from _eliminated_det elsewhere.

    The closed form's error is at most gamma_8 perm(|cm|), since each
    Leibniz product is rounded at most 8 times on its way. In a covariance
    matrix, which is positive semidefinite, |cm_ij| <= sqrt(cm_ii cm_jj), so
    each of the 24 Leibniz products is at most prod_i cm_ii in modulus. The
    bound reads only its own state, so the choice does too.
    """
    diag = np.diagonal(cm, axis1=1, axis2=2)
    product = np.abs(diag[:, 0] * diag[:, 1] * diag[:, 2] * diag[:, 3])
    certified = product <= _CERTIFIED_RATIO * np.abs(det)
    if certified.all():
        return det
    det = det.copy()
    det[~certified] = _eliminated_det(cm[~certified])
    return det


def _eliminated_det(cm: np.ndarray) -> np.ndarray:
    """det cm of each state of a (m, 4, 4) stack by Gaussian elimination with
    partial pivoting, written elementwise on the stack, so a state's value
    reads only that state. Backward stable, so its error follows the
    determinant's own condition number, not perm(|cm|) / |det cm|."""
    u = cm.copy()
    states = np.arange(len(u))
    det = np.ones(len(u))
    for k in range(2):
        p = k + np.argmax(np.abs(u[:, k:, k]), axis=1)
        pivot_row = u[states, p]
        # row k moves to p negated, which keeps det: where p == k, the next
        # line writes row k back unchanged
        u[states, p] = -u[:, k]
        u[:, k] = pivot_row
        pivot = pivot_row[:, k]
        det *= pivot
        # an all-zero column has a zero pivot and nothing to eliminate
        factor = u[:, k + 1:, k] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
        u[:, k + 1:, k + 1:] -= factor[:, :, None] * pivot_row[:, None, k + 1:]
    # the last 2x2 by its formula, exact for a relative change of at most 2u
    # in each of its entries, so no pivot is needed
    return det * (u[:, 2, 2] * u[:, 3, 3] - u[:, 2, 3] * u[:, 3, 2])


def _invariants(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma = det v1 + det v2 - 2 det vc and det cm of each state of a
    (m, 4, 4) stack, in closed form from the 2x2 minors of rows 0-1 and of
    rows 2-3: det v1, det vc and det v2 are three of them, and det cm is
    their Laplace expansion along rows 0-1, the six products of a minor and
    its complementary minor added elementwise in one fixed order. So a
    state's values do not depend on the rest of its stack, as with a
    matrix product's summation order they could."""
    # minors[:, r, i]: rows 2r and 2r + 1 at the column pair i of
    # _MINOR_COLUMNS, whose complement is the pair 5 - i
    left, right = cm[:, :, _MINOR_COLUMNS[0]], cm[:, :, _MINOR_COLUMNS[1]]
    minors = left[:, 0::2] * right[:, 1::2] - right[:, 0::2] * left[:, 1::2]
    top, bottom = minors[:, 0], minors[:, 1]
    sigma = top[:, 0] + bottom[:, 5] - 2.0 * top[:, 5]
    terms = top * bottom[:, ::-1]
    det = terms[:, 0] - terms[:, 1] + terms[:, 2] + terms[:, 3] - terms[:, 4] + terms[:, 5]
    return sigma, det
