"""Identity-layer tests: both sides of the identity at every zero, as one record
of rank-ordered arrays, and the inequality chain and Remark 1's crude cap on it."""

import math
from dataclasses import replace

import numpy as np
import pytest

from laguerre_spacings import (
    LaguerreParams,
    ZeroSet,
    delta,
    delta_extremum,
    verify_identity,
    zeros,
)

# Bisection-oracle roots of x^3 - 9x^2 + 18x - 6 (see test_solver).
CUBIC_ROOTS = (0.4157745567834791, 2.294280360279041, 6.289945082937479)

SWEEP = [(n, a) for n in (10, 20, 50, 100) for a in (1.0, 100.0, 1e3, 1e4)]


def gap_terms(zs):
    """1/(x_k - x_{k+1})^2 at ranks k = 1..n-1."""
    gaps = zs.spacings_descending()
    return 1.0 / (gaps * gaps)


def crude_cap(zs):
    """Remark 1's cap 2 (pi^2/6) / delta^2 with delta = the minimum gap."""
    min_gap = float(np.min(zs.spacings_descending()))
    return (math.pi * math.pi / 3.0) / (min_gap * min_gap)


class TestLhs:
    def test_two_zeros_single_pair(self):
        lhs = verify_identity(zeros(LaguerreParams(2, 0.0))).lhs
        assert lhs.tolist() == pytest.approx([0.125, 0.125], rel=1e-13)

    def test_three_zeros_middle_rank(self):
        lhs = verify_identity(zeros(LaguerreParams(3, 0.0))).lhs
        r1, r2, r3 = CUBIC_ROOTS
        expected = 1.0 / (r2 - r1) ** 2 + 1.0 / (r2 - r3) ** 2
        assert lhs[1] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,alpha", [(50, 1e3), (100, 1.0)])
    def test_rearrangement_stability(self, n, alpha):
        zs = zeros(LaguerreParams(n, alpha))
        lhs = verify_identity(zs).lhs
        for k in (1, n // 2, n):
            idx = zs.n - k
            x_k = zs.zeros[idx]
            gaps = sorted(abs(x_k - x_j) for j, x_j in enumerate(zs.zeros) if j != idx)
            descending_terms = sum(1.0 / (g * g) for g in gaps)
            ascending_terms = sum(1.0 / (g * g) for g in reversed(gaps))
            assert descending_terms == pytest.approx(ascending_terms, rel=1e-12)
            assert lhs[k - 1] == pytest.approx(descending_terms, rel=1e-12)


class TestRhs:
    @pytest.mark.parametrize("n,alpha", [(3, 0.0), (20, -0.5), (50, 1e3)])
    def test_matches_delta_form_at_the_zeros(self, n, alpha):
        # (Delta - 2a')/3 with the paper's Delta = (U^2 - x)(x - V^2)/(4x^2) and
        # 2a' = (alpha+1)/x^2: the same function as the rational form in the record
        zs = zeros(LaguerreParams(n, alpha))
        rhs = verify_identity(zs).rhs
        for x, got in zip(zs.zeros[::-1].tolist(), rhs.tolist()):
            expected = (delta(zs.params, x) - (alpha + 1.0) / (x * x)) / 3.0
            assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, 1e3])
    def test_single_zero_closes_to_nothing(self, alpha):
        assert abs(verify_identity(zeros(LaguerreParams(1, alpha))).rhs[0]) <= 1e-14

    def test_exact_eighth_at_upper_root(self):
        assert verify_identity(zeros(LaguerreParams(2, 0.0))).rhs[0] == pytest.approx(
            0.125, rel=1e-14
        )

    def test_exact_eighth_at_lower_root(self):
        assert verify_identity(zeros(LaguerreParams(2, 0.0))).rhs[1] == pytest.approx(
            0.125, rel=1e-14
        )


class TestIdentity:
    def test_degenerate_single_zero(self):
        check = verify_identity(zeros(LaguerreParams(1, 5.0)))
        assert check.lhs.tolist() == [0.0]
        assert abs(check.rhs[0]) <= 1e-14

    def test_two_zeros_both_sides_eighth(self):
        check = verify_identity(zeros(LaguerreParams(2, 0.0)))
        assert check.lhs.tolist() == pytest.approx([0.125, 0.125], rel=1e-13)
        assert check.rhs.tolist() == pytest.approx([0.125, 0.125], rel=1e-13)
        assert check.max_rel_residual <= 1e-13

    def test_fifty_hundred(self):
        assert verify_identity(zeros(LaguerreParams(50, 100.0))).max_rel_residual <= 1e-8

    @pytest.mark.parametrize("n,alpha", SWEEP)
    def test_residual_budget_across_sweep(self, n, alpha):
        assert verify_identity(zeros(LaguerreParams(n, alpha))).max_rel_residual <= 1e-8

    @pytest.mark.parametrize("n,alpha", SWEEP[:4] + [(2, -0.9), (50, -0.5)])
    def test_positivity_pins_the_window(self, n, alpha):
        # rhs > 0 at every zero forces V^2 < x < U^2 through the factored form.
        check = verify_identity(zeros(LaguerreParams(n, alpha)))
        assert np.all(check.rhs > 0.0)
        assert np.all(check.lhs > 0.0)

    def test_record_holds_float_arrays(self):
        check = verify_identity(zeros(LaguerreParams(5, 1.0)))
        for column in (check.lhs, check.rhs, check.rel_residual):
            assert column.dtype == np.float64 and column.shape == (5,)
        assert type(check.max_rel_residual) is float

    def test_max_residual_keeps_a_later_nan(self):
        # Python's max drops a nan that does not come first; np.max keeps it.
        check = verify_identity(zeros(LaguerreParams(5, 1.0)))
        doctored = check.rel_residual.copy()
        doctored[2] = math.nan
        assert math.isnan(replace(check, rel_residual=doctored).max_rel_residual)


class TestChain:
    """1/gap^2 <= pairwise sum <= sup(Delta)/3 at ranks k < n."""

    def test_two_zero_equality_end(self):
        zs = zeros(LaguerreParams(2, 0.0))
        _, delta_max = delta_extremum(zs.params)
        assert gap_terms(zs)[0] == pytest.approx(0.125, rel=1e-13)
        assert verify_identity(zs).lhs[0] == pytest.approx(0.125, rel=1e-13)
        assert delta_max / 3.0 == pytest.approx(2.0, rel=1e-13)

    def test_all_ranks_ten_one(self):
        zs = zeros(LaguerreParams(10, 1.0))
        lhs = verify_identity(zs).lhs[:-1]
        cap = delta_extremum(zs.params)[1] / 3.0
        assert np.all(gap_terms(zs) <= lhs * (1 + 1e-12))
        assert np.all(lhs <= cap * (1 + 1e-12))

    @pytest.mark.parametrize("n,alpha", SWEEP)
    def test_strict_on_sweep(self, n, alpha):
        zs = zeros(LaguerreParams(n, alpha))
        lhs = verify_identity(zs).lhs[:-1]
        cap = delta_extremum(zs.params)[1] / 3.0
        assert np.all(gap_terms(zs) < lhs)
        assert np.all(lhs < cap)


class TestRemark1:
    def test_two_zero_hand_values(self):
        zs = zeros(LaguerreParams(2, 0.0))
        cap = crude_cap(zs)
        assert float(np.min(zs.spacings_descending())) == pytest.approx(2 * math.sqrt(2),
                                                                         rel=1e-14)
        assert cap == pytest.approx((math.pi**2 / 3) / 8, rel=1e-14)
        assert cap == pytest.approx(0.41123, abs=1e-5)
        assert verify_identity(zs).lhs[0] <= cap

    def test_ten_one_all_ranks(self):
        zs = zeros(LaguerreParams(10, 1.0))
        assert np.all(verify_identity(zs).lhs <= crude_cap(zs))

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 3.0, 1e3])
    def test_single_pair_ratio_below_one(self, alpha):
        zs = zeros(LaguerreParams(2, alpha))
        ratio = verify_identity(zs).lhs[0] / crude_cap(zs)
        assert ratio == pytest.approx(3 / math.pi**2, rel=1e-12)
        assert ratio < 1.0


def test_doctored_zero_set_breaks_the_identity():
    # A zero set whose smallest gap was shrunk still satisfies the ZeroSet
    # invariants, but its pairwise sums no longer match the rhs.
    params = LaguerreParams(3, 0.0)
    doctored = zeros(params).zeros.copy()
    doctored[2] = doctored[1] + 1e-4  # huge gap term at rank 1
    fake = ZeroSet(params=params, zeros=doctored, residuals=np.zeros(3))
    assert verify_identity(fake).max_rel_residual > 1e-8
