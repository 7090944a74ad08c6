"""Identity-layer tests: both sides at every zero, the chain, the crude cap."""

import math
from dataclasses import replace

import numpy as np
import pytest

from laguerre_spacings import (
    CheckFailure,
    DomainError,
    LaguerreParams,
    ParameterError,
    bethe_lhs,
    bethe_rhs,
    delta,
    edge_params,
    inequality_chain,
    max_rel_residual,
    remark1_cap,
    verify_identity,
    zeros,
)

# Bisection-oracle roots of x^3 - 9x^2 + 18x - 6 (see test_solver).
CUBIC_ROOTS = (0.4157745567834791, 2.294280360279041, 6.289945082937479)

SWEEP = [(n, a) for n in (10, 20, 50, 100) for a in (1.0, 100.0, 1e3, 1e4)]


class TestLhs:
    def test_two_zeros_single_pair(self):
        zs = zeros(LaguerreParams(2, 0.0))
        assert bethe_lhs(zs, 1) == pytest.approx(0.125, rel=1e-13)
        assert bethe_lhs(zs, 2) == pytest.approx(0.125, rel=1e-13)

    def test_three_zeros_middle_rank(self):
        zs = zeros(LaguerreParams(3, 0.0))
        r1, r2, r3 = CUBIC_ROOTS
        expected = 1.0 / (r2 - r1) ** 2 + 1.0 / (r2 - r3) ** 2
        assert bethe_lhs(zs, 2) == pytest.approx(expected, rel=1e-12)

    def test_rank_out_of_range(self):
        zs = zeros(LaguerreParams(3, 0.0))
        with pytest.raises(ParameterError):
            bethe_lhs(zs, 0)
        with pytest.raises(ParameterError):
            bethe_lhs(zs, 4)

    @pytest.mark.parametrize("n,alpha", [(50, 1e3), (100, 1.0)])
    def test_rearrangement_stability(self, n, alpha):
        zs = zeros(LaguerreParams(n, alpha))
        for k in (1, n // 2, n):
            idx = zs.n - k
            x_k = zs.zeros[idx]
            gaps = sorted(abs(x_k - x_j) for j, x_j in enumerate(zs.zeros) if j != idx)
            descending_terms = sum(1.0 / (g * g) for g in gaps)
            ascending_terms = sum(1.0 / (g * g) for g in reversed(gaps))
            assert descending_terms == pytest.approx(ascending_terms, rel=1e-12)
            assert bethe_lhs(zs, k) == pytest.approx(descending_terms, rel=1e-12)


class TestRhs:
    @pytest.mark.parametrize("n,alpha", [(3, 0.0), (20, -0.5), (50, 1e3)])
    def test_matches_delta_form_on_window(self, n, alpha):
        # (Delta - 2a')/3 with the paper's Delta = (U^2 - x)(x - V^2)/(4x^2) and
        # 2a' = (alpha+1)/x^2: the same function as the rational form in bethe_rhs
        params = LaguerreParams(n, alpha)
        e = edge_params(params)
        for t in np.linspace(0.02, 0.98, 25):
            x = e.V2 + t * (e.U2 - e.V2)
            expected = (delta(params, x) - (alpha + 1.0) / (x * x)) / 3.0
            assert bethe_rhs(params, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, 1e3])
    def test_single_zero_closes_to_nothing(self, alpha):
        assert abs(bethe_rhs(LaguerreParams(1, alpha), alpha + 1.0)) <= 1e-14

    def test_exact_eighth_at_upper_root(self):
        assert bethe_rhs(LaguerreParams(2, 0.0), 2.0 + math.sqrt(2.0)) == pytest.approx(
            0.125, rel=1e-14
        )

    def test_exact_eighth_at_lower_root(self):
        assert bethe_rhs(LaguerreParams(2, 0.0), 2.0 - math.sqrt(2.0)) == pytest.approx(
            0.125, rel=1e-14
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            bethe_rhs(LaguerreParams(2, 0.0), 0.0)
        with pytest.raises(DomainError):
            bethe_rhs(LaguerreParams(2, 0.0), -1.0)


class TestIdentity:
    def test_degenerate_single_zero(self):
        reports = verify_identity(zeros(LaguerreParams(1, 5.0)))
        assert len(reports) == 1
        assert reports[0].lhs == 0.0
        assert abs(reports[0].rhs) <= 1e-14
        assert reports[0].gap_term is None

    def test_two_zeros_both_sides_eighth(self):
        reports = verify_identity(zeros(LaguerreParams(2, 0.0)))
        for r in reports:
            assert r.lhs == pytest.approx(0.125, rel=1e-13)
            assert r.rhs == pytest.approx(0.125, rel=1e-13)
            assert r.rel_residual <= 1e-13

    def test_fifty_hundred(self):
        reports = verify_identity(zeros(LaguerreParams(50, 100.0)))
        assert max_rel_residual(reports) <= 1e-8

    @pytest.mark.parametrize("n,alpha", SWEEP)
    def test_residual_budget_across_sweep(self, n, alpha):
        reports = verify_identity(zeros(LaguerreParams(n, alpha)))
        assert max_rel_residual(reports) <= 1e-8

    @pytest.mark.parametrize("n,alpha", SWEEP[:4] + [(2, -0.9), (50, -0.5)])
    def test_positivity_pins_the_window(self, n, alpha):
        # rhs > 0 at every zero forces V^2 < x < U^2 through the factored form.
        zs = zeros(LaguerreParams(n, alpha))
        for r in verify_identity(zs):
            if zs.n >= 2:
                assert r.rhs > 0.0
                assert r.lhs > 0.0

    def test_gap_terms_align_with_spacings(self):
        zs = zeros(LaguerreParams(5, 1.0))
        gaps = zs.spacings_descending()
        reports = verify_identity(zs)
        for r in reports[:-1]:
            assert r.gap_term == pytest.approx(1.0 / gaps[r.k - 1] ** 2, rel=1e-15)
        assert reports[-1].gap_term is None

    def test_report_fields_are_floats(self):
        for r in verify_identity(zeros(LaguerreParams(5, 1.0))):
            assert {type(v) for v in (r.lhs, r.rhs, r.rel_residual)} == {float}
            assert r.gap_term is None or type(r.gap_term) is float

    def test_max_residual_keeps_a_later_nan(self):
        # Python's max drops a nan that does not come first.
        reports = verify_identity(zeros(LaguerreParams(5, 1.0)))
        doctored = [replace(r, rel_residual=math.nan) if r.k == 3 else r for r in reports]
        assert math.isnan(max_rel_residual(doctored))


class TestChain:
    def test_two_zero_equality_end(self):
        zs = zeros(LaguerreParams(2, 0.0))
        gap_term, lhs, cap = inequality_chain(zs, 1)
        assert gap_term == pytest.approx(0.125, rel=1e-13)
        assert lhs == pytest.approx(0.125, rel=1e-13)
        assert cap == pytest.approx(2.0, rel=1e-13)

    def test_all_ranks_ten_one(self):
        zs = zeros(LaguerreParams(10, 1.0))
        for k in range(1, 10):
            gap_term, lhs, cap = inequality_chain(zs, k)
            assert gap_term <= lhs * (1 + 1e-12)
            assert lhs <= cap * (1 + 1e-12)

    @pytest.mark.parametrize("n,alpha", SWEEP)
    def test_strict_on_sweep(self, n, alpha):
        zs = zeros(LaguerreParams(n, alpha))
        for k in range(1, n):
            gap_term, lhs, cap = inequality_chain(zs, k)
            assert gap_term < lhs < cap

    def test_rejected_for_single_zero(self):
        with pytest.raises(ParameterError):
            inequality_chain(zeros(LaguerreParams(1, 0.0)), 1)

    def test_rank_must_leave_room_below(self):
        zs = zeros(LaguerreParams(3, 0.0))
        with pytest.raises(ParameterError):
            inequality_chain(zs, 3)


class TestRemark1:
    def test_two_zero_hand_values(self):
        zs = zeros(LaguerreParams(2, 0.0))
        min_gap, cap = remark1_cap(zs)
        assert min_gap == pytest.approx(2 * math.sqrt(2), rel=1e-14)
        assert cap == pytest.approx((math.pi**2 / 3) / 8, rel=1e-14)
        assert cap == pytest.approx(0.41123, abs=1e-5)
        assert bethe_lhs(zs, 1) <= cap

    def test_ten_one_all_ranks(self):
        zs = zeros(LaguerreParams(10, 1.0))
        min_gap, cap = remark1_cap(zs)  # raises CheckFailure on violation
        assert min_gap > 0 and cap > 0

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 3.0, 1e3])
    def test_single_pair_ratio_below_one(self, alpha):
        zs = zeros(LaguerreParams(2, alpha))
        _, cap = remark1_cap(zs)
        assert bethe_lhs(zs, 1) / cap == pytest.approx(3 / math.pi**2, rel=1e-12)
        assert bethe_lhs(zs, 1) / cap < 1.0

    def test_needs_two_zeros(self):
        with pytest.raises(ParameterError):
            remark1_cap(zeros(LaguerreParams(1, 2.0)))


def test_check_failure_is_raised_for_doctored_zero_set():
    # Feed inequality_chain a zero set whose smallest gap was shrunk past the
    # cap; the doctored set still satisfies ZeroSet invariants but breaks
    # the chain, which must surface as CheckFailure.
    from laguerre_spacings import ZeroSet

    params = LaguerreParams(3, 0.0)
    honest = zeros(params)
    doctored = honest.zeros.copy()
    doctored[2] = doctored[1] + 1e-4  # huge gap term at rank 1
    fake = ZeroSet(params=params, zeros=doctored, residuals=np.zeros(3))
    with pytest.raises(CheckFailure):
        inequality_chain(fake, 1)
