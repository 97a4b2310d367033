"""Bipartite extraction and logarithmic negativity."""

import itertools
import math
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oemsim import (
    BIPARTITE_PAIRS,
    BOSONIC_PAIRS,
    UnphysicalCovarianceError,
    extract_bipartite,
    log_negativity,
    normalize_pair_tag,
)
from oemsim import gaussian
from oemsim.gaussian import _invariants, log_negativities
from oemsim.sweep import PRESET_NAMES, preset, run_sweep
from oemsim.verify import make_tmsv


def rotation_pair(theta1, theta2):
    out = np.zeros((4, 4))
    for k, th in enumerate((theta1, theta2)):
        c, s = math.cos(th), math.sin(th)
        out[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, s], [-s, c]]
    return out


class TestPairSelection:
    def test_block_offsets(self):
        offsets = {tag: (p.first, p.second) for tag, p in BIPARTITE_PAIRS.items()}
        assert offsets == {
            "mr_oc": (0, 2),
            "mr_mc": (0, 4),
            "oc_mc": (2, 4),
            "oc_sba": (2, 6),
            "oc_scb": (2, 8),
        }
        assert BOSONIC_PAIRS == ("mr_oc", "mr_mc", "oc_mc")

    def test_tag_normalization(self):
        assert normalize_pair_tag("MR-OC") == "mr_oc"
        assert normalize_pair_tag("  oc_scb ") == "oc_scb"
        with pytest.raises(KeyError):
            normalize_pair_tag("mr_sba")

    def test_extraction_indices(self):
        v = np.arange(100.0).reshape(10, 10)
        block = extract_bipartite(v, BIPARTITE_PAIRS["mr_mc"])
        idx = [0, 1, 4, 5]
        assert np.array_equal(block, v[np.ix_(idx, idx)])
        # a copy, not a view
        block[0, 0] = -1.0
        assert v[0, 0] == 0.0


class TestLogNegativity:
    def test_vacuum(self):
        res = log_negativity(0.5 * np.eye(4))
        assert res.e_n == 0.0
        assert res.eta_minus == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_two_mode_squeezed_closed_form(self, r):
        res = log_negativity(make_tmsv(r))
        assert abs(res.e_n - 2.0 * r) <= 1e-9
        assert res.eta_minus == pytest.approx(0.5 * math.exp(-2.0 * r), rel=1e-9)

    @pytest.mark.parametrize("n1,n2", [(0.5, 0.5), (3.0, 3.0), (10.0, 0.0), (2.0, 7.0)])
    def test_thermal_products_are_separable(self, n1, n2):
        cm = np.diag([n1 + 0.5, n1 + 0.5, n2 + 0.5, n2 + 0.5])
        assert log_negativity(cm).e_n == 0.0

    def test_thermalized_squeezing_below_threshold(self):
        # eta = (2n+1) e^{-2r} / 2 > 1/2 here, so exactly zero
        res = log_negativity(make_tmsv(0.3, n_th=2.0))
        assert res.eta_minus > 0.5
        assert res.e_n == 0.0

    def test_entangled_iff_eta_below_half(self):
        res = log_negativity(make_tmsv(1e-6))
        assert res.eta_minus < 0.5 - 1e-12
        assert res.e_n > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.floats(0.0, 2.0),
        theta1=st.floats(-math.pi, math.pi),
        theta2=st.floats(-math.pi, math.pi),
    )
    def test_local_rotation_invariance(self, r, theta1, theta2):
        cm = make_tmsv(r, n_th=0.2)
        rot = rotation_pair(theta1, theta2)
        rotated = rot @ cm @ rot.T
        ref = log_negativity(cm)
        got = log_negativity(rotated)
        # invariance is exact; roundoff in eta grows like eps*s^2/eta^2
        # through the determinant cancellation, so bound accordingly
        eps = float(np.finfo(float).eps)
        s2 = float(np.max(np.abs(cm))) ** 2
        tol = max(100.0 * eps * s2 / max(ref.eta_minus, eps) ** 2, 1e-12)
        assert abs(got.e_n - ref.e_n) <= tol

    def test_mode_swap_invariance(self):
        cm = make_tmsv(0.8, n_th=0.1)
        perm = np.zeros((4, 4))
        perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
        swapped = perm @ cm @ perm.T
        assert log_negativity(swapped).e_n == pytest.approx(
            log_negativity(cm).e_n, abs=1e-12)

    def test_continuity_under_small_perturbation(self):
        cm = make_tmsv(1.0)
        rng = np.random.default_rng(7)
        bump = rng.uniform(-1.0, 1.0, size=(4, 4))
        bump = 0.5 * (bump + bump.T) * 1e-8
        delta = abs(log_negativity(cm + bump).e_n - log_negativity(cm).e_n)
        assert delta <= 1e-5


class TestLogNegativityRejections:
    def test_wrong_shape(self):
        with pytest.raises(UnphysicalCovarianceError):
            log_negativity(np.eye(3))
        with pytest.raises(UnphysicalCovarianceError):
            log_negativity(np.eye(10))

    def test_negative_determinant(self):
        with pytest.raises(UnphysicalCovarianceError, match="determinant"):
            log_negativity(np.diag([2.0, 2.0, 2.0, -2.0]))

    def test_strongly_negative_discriminant(self):
        # blocks aI, bI with correlation cI: the invariant factorizes as
        # (a-b)^2 ((a+b)^2 - 4c^2), negative for a=1, b=2, c^2=2.3
        c = math.sqrt(2.3)
        cm = np.array([
            [1.0, 0.0, c, 0.0],
            [0.0, 1.0, 0.0, c],
            [c, 0.0, 2.0, 0.0],
            [0.0, c, 0.0, 2.0],
        ])
        with pytest.raises(UnphysicalCovarianceError, match="discriminant"):
            log_negativity(cm)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, value):
        # whatever the minors make of it, a non-finite entry is named
        for i, j in itertools.product(range(4), repeat=2):
            cm = make_tmsv(1.0)
            cm[i, j] = value
            with pytest.raises(UnphysicalCovarianceError) as err:
                log_negativity(cm)
            assert str(err.value) == f"covariance has non-finite entries: ({i}, {j}) = {value}"

    def test_collapsed_symplectic_eigenvalue(self):
        cm = np.diag([1e-3, 1e-3, 1e-3, -1e-3])  # det ~ -1e-12, inside clamp
        with pytest.raises(UnphysicalCovarianceError, match="non-positive"):
            log_negativity(cm)


class TestBatchedLogNegativity:
    def test_rejections_stay_with_their_member(self):
        with_nan = make_tmsv(1.0)
        with_nan[0, 2] = math.nan
        with_inf = 0.5 * np.eye(4)
        with_inf[3, 3] = math.inf
        stack = np.array([make_tmsv(1.0), np.diag([2.0, 2.0, 2.0, -2.0]),
                          0.5 * np.eye(4), with_nan, with_inf])
        e_n, eta_minus, errors = log_negativities(stack)
        assert set(errors) == {1, 3, 4}
        assert "determinant" in str(errors[1])
        assert str(errors[3]) == "covariance has non-finite entries: (0, 2) = nan"
        assert str(errors[4]) == "covariance has non-finite entries: (3, 3) = inf"
        for k in errors:
            assert math.isnan(e_n[k]) and math.isnan(eta_minus[k])
        assert abs(e_n[0] - 2.0) <= 1e-9
        assert e_n[2] == 0.0

    def test_members_match_single_evaluations(self):
        rng = np.random.default_rng(3)
        stack = np.array([make_tmsv(r, n_th=n) for r, n in
                          zip(rng.uniform(0.0, 2.0, 9), rng.uniform(0.0, 1.0, 9))])
        e_n, eta_minus, errors = log_negativities(stack)
        assert errors == {}
        for cm, value, eta in zip(stack, e_n, eta_minus):
            single = log_negativity(cm)
            assert (single.e_n, single.eta_minus) == (value, eta)


def exact_det_and_permanent(cm):
    """det cm and the permanent of |cm|, exact in the float entries, each a
    sum over the 24 permutations (Leibniz), independent of the expansion
    under test."""
    entries = [[Fraction(x) for x in row] for row in cm.tolist()]
    det = perm = Fraction(0)
    for sigma in itertools.permutations(range(4)):
        product = math.prod(entries[i][sigma[i]] for i in range(4))
        inversions = sum(sigma[i] > sigma[j] for i, j in itertools.combinations(range(4), 2))
        det += -product if inversions % 2 else product
        perm += abs(product)
    return det, perm


#: the forward error bound of _invariants' det: each of the 24 products of
#: the Leibniz sum is rounded at most 8 times on its way (twice in its 2x2
#: minor, once in the product of the two minors, at most five times in the
#: sum of the six products), so |error| <= gamma_8 * permanent(|cm|), with
#: gamma_k = k u / (1 - k u) and u the unit roundoff
UNIT_ROUNDOFF = Fraction(2) ** -53
GAMMA_8 = 8 * UNIT_ROUNDOFF / (1 - 8 * UNIT_ROUNDOFF)


def preset_pair_states():
    """Every 4x4 state that a sweep of fig2, fig5 and fig6a hands to
    log_negativities: their requested pairs and baseline pairs at every
    solved point."""
    stacks = []
    real = gaussian.log_negativities

    def recording(cm):
        stacks.append(cm.copy())
        return real(cm)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gaussian, "log_negativities", recording)
        for name in ("fig2", "fig5", "fig6a"):
            run_sweep(preset(name))
    return np.concatenate(stacks)


class TestClosedFormDeterminant:
    """det cm comes from the 2x2 minors of rows 0-1 and 2-3 (_invariants),
    not from LAPACK's LU."""

    def test_sweeps_call_no_lapack_determinant(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", refuse)
        results = [run_sweep(preset(name)) for name in PRESET_NAMES]
        results.append(run_sweep(replace(preset("fig5"), start=0.0, stop=100.0, count=8001,
                                         pairs=tuple(BIPARTITE_PAIRS))))
        for result in results:
            assert not result.failures
            assert result.stable.any() and not np.isnan(result.e_n[result.stable]).any()

    def test_preset_states(self):
        # 1723 states. Their perm(|cm|) / |det cm| reaches 5.6e5, at fig2's
        # strongly correlated mr_oc states, so the bound below allows a
        # relative error of 5.0e-10 there; the closed form's worst is
        # 8.1e-13 (LU's, 2.6e-14). A relative error delta of det cm moves
        # E_N by delta / (2 (1 - eta_minus^2 / eta_plus^2)), about delta / 2
        # where eta_minus is well below eta_plus, so 1e-12 keeps the
        # determinant's share of an E_N cell three orders inside the
        # goldens' 1e-9 rule
        states = preset_pair_states()
        assert len(states) == 1723
        _, det = _invariants(states)
        worst = Fraction(0)
        for k, cm in enumerate(states):
            exact, perm = exact_det_and_permanent(cm)
            error = abs(Fraction(det[k]) - exact)
            assert error <= GAMMA_8 * perm, k
            worst = max(worst, error / abs(exact))
        assert worst <= Fraction(1, 10**12)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n_th", [0.0, 1.0, 10.0])
    def test_two_mode_squeezed_states(self, r, n_th):
        # at r = 3 and n_th = 0, perm(|cm|) / det cm is 6.6e9, and the
        # closed form's relative error 2.4e-7 (LU's 4.2e-13). E_N loses as
        # much already in sigma - sqrt(sigma^2 - 4 det cm), which cancels
        # terms of size sigma ~ e^{4r} / 2: with LU's determinant in its
        # place, E_N of all 15 states is the same bits
        cm = make_tmsv(r, n_th)
        exact, perm = exact_det_and_permanent(cm)
        error = abs(Fraction(_invariants(cm[None])[1][0]) - exact)
        assert error <= GAMMA_8 * perm

    def test_near_singular_state(self):
        # a rank-3 product, whose determinant is the rounding of its
        # entries, and the same plus 1e-8 I: no relative accuracy is
        # possible, and the error stays within the forward bound
        u = np.random.default_rng(0).standard_normal((4, 3))
        singular = u @ u.T
        for cm in (singular, singular + 1e-8 * np.eye(4)):
            exact, perm = exact_det_and_permanent(cm)
            assert abs(exact) < 1e-8 * perm
            error = abs(Fraction(_invariants(cm[None])[1][0]) - exact)
            assert error <= GAMMA_8 * perm

    def test_invariants_are_the_block_determinants(self):
        # sigma from the 2x2 blocks' determinants, each the same bits as
        # the minor it is
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((50, 4, 4))
        sigma, _ = _invariants(stack)
        def block_det(cm, i, j):
            b = cm[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            return b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        expected = [block_det(cm, 0, 0) + block_det(cm, 1, 1) - 2.0 * block_det(cm, 0, 1)
                    for cm in stack]
        assert sigma.tolist() == expected


def exact_float_log_negativity(cm):
    """E_N of the float entries of cm in exact arithmetic, up to 60 digits:
    the limit set by rounding the state itself. sigma and det cm are exact
    fractions; eta_minus^2 = det cm / eta_plus^2 in 60-digit decimals."""
    det, _ = exact_det_and_permanent(cm)
    e = [[Fraction(x) for x in row] for row in cm.tolist()]

    def minor(r, c):
        return e[r][c] * e[r + 1][c + 1] - e[r][c + 1] * e[r + 1][c]

    sigma = minor(0, 0) + minor(2, 2) - 2 * minor(0, 2)
    with localcontext() as ctx:
        ctx.prec = 60
        dec = lambda f: Decimal(f.numerator) / Decimal(f.denominator)  # noqa: E731
        eta_plus_sq = (dec(sigma) + dec(sigma * sigma - 4 * det).sqrt()) / 2
        eta_sq = dec(det) / eta_plus_sq
        return float(max(Decimal(0), -(2 * eta_sq.sqrt()).ln()))


def exact_cofactor_condition(cm):
    """(det cm, sum_ij |cm_ij C_ij|), exact in the float entries: the
    determinant's own condition number times |det cm|, with C the
    cofactors."""
    e = [[Fraction(x) for x in row] for row in cm.tolist()]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    cond = sum(abs(e[i][j] * det([row[:j] + row[j + 1:] for k, row in enumerate(e) if k != i]))
               for i in range(4) for j in range(4))
    return det(e), cond


class TestLogNegativityAccuracy:
    """E_N is as accurate as the state's own rounding allows: eta_minus^2 =
    det cm / eta_plus^2 does not cancel, and det cm comes from the closed
    form only where a per-state bound certifies it (_determinants)."""

    @pytest.mark.parametrize("n_th", [0.0, 0.1, 1.0, 10.0])
    def test_two_mode_squeezed_states_up_to_r7(self, n_th):
        # make_tmsv(r, n_th) is the pure state scaled by 2 n_th + 1, so E_N
        # is exactly max(0, 2r - ln(2 n_th + 1)). Rounding the entries of
        # the state alone moves it by up to 1.6e-4 at r = 7; the bound is 3
        # times that, plus 1e-11 for the roundoff of the evaluation itself
        # where the state's rounding happens to cost nothing. The closed-form
        # determinant with (sigma - sqrt(sigma^2 - 4 det cm)) / 2 erred by
        # 6.9e-8 at r = 3 and 6.9e-4 at r = 4, rejected r = 5 and 6.5, and
        # gave 4.51 for 14.0 at r = 7
        for r in np.arange(0.0, 7.01, 0.25):
            cm = make_tmsv(float(r), n_th)
            exact = max(0.0, 2.0 * r - math.log(2.0 * n_th + 1.0))
            limit = abs(exact_float_log_negativity(cm) - exact)
            e_n = log_negativity(cm).e_n  # a physical state is never rejected
            assert abs(e_n - exact) <= 3.0 * limit + 1e-11, r

    def test_elimination_follows_the_condition_number(self):
        # the pivoted elimination is backward stable: its error stays within
        # a few u sum_ij |cm_ij C_ij| (1.12 at worst on these states), where
        # the closed form's grows with perm(|cm|)
        rng = np.random.default_rng(7)
        states = [make_tmsv(r, n_th) for r in (0.0, 1.0, 3.0, 5.0, 7.0, 8.0)
                  for n_th in (0.0, 1.0)]
        # rank 3, with a zero pivot in the second column: det 0, not NaN
        states.append([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 2.0, 0.5], [0.0, 0.0, 0.5, 1.0]])
        for _ in range(40):
            m = rng.standard_normal((4, 4)) * np.exp(rng.uniform(-5.0, 5.0, 4))
            states += [m @ m.T, rng.standard_normal((4, 4))]
        states = np.array(states)
        det = gaussian._eliminated_det(states)
        for k, cm in enumerate(states):
            exact, cond = exact_cofactor_condition(cm)
            assert abs(Fraction(det[k]) - exact) <= 4 * UNIT_ROUNDOFF * cond, k

    def test_each_state_takes_its_own_route(self, monkeypatch):
        # certified states keep the closed form's bits, the others take the
        # elimination's; a state's bits, and its route, do not depend on its
        # stack, so a stack equals its members one by one
        states = np.array([make_tmsv(r, n_th) for r in np.arange(0.0, 7.01, 0.5)
                           for n_th in (0.0, 0.1, 1.0, 10.0)])
        routed = []
        real = gaussian._eliminated_det

        def recording(cm):
            routed.append(cm.copy())
            return real(cm)

        monkeypatch.setattr(gaussian, "_eliminated_det", recording)
        e_n, eta_minus, errors = log_negativities(states)
        assert errors == {}
        eliminated = np.concatenate(routed)
        assert 0 < len(eliminated) < len(states)
        closed = _invariants(states)[1]
        det = gaussian._determinants(states, closed)
        elim = {cm.tobytes() for cm in eliminated}
        for k, cm in enumerate(states):
            expected = real(cm[None])[0] if cm.tobytes() in elim else closed[k]
            assert det[k] == expected, k
            single = log_negativity(cm)
            assert (single.e_n, single.eta_minus) == (e_n[k], eta_minus[k]), k
