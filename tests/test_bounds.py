"""Closed-form bound tests: edge quantities, the window function, spacing bounds."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_spacings import (
    DomainError,
    LaguerreParams,
    ParameterError,
    bound_set,
    bounds,
    cli,
    delta,
    delta_extremum,
    edge_params,
    krasikov_window,
    uniform_spacing_lower,
    zeros,
)

SWEEP = [(n, a) for n in (10, 20, 50, 100) for a in (1.0, 100.0, 1e3, 1e4)]

params_strategy = st.builds(
    LaguerreParams,
    n=st.integers(min_value=1, max_value=40),
    alpha=st.floats(min_value=-0.99, max_value=1e4),
)


class TestEdgeParams:
    def test_unit_case(self):
        e = edge_params(LaguerreParams(1, 0.0))
        assert e.U == pytest.approx(math.sqrt(2) + 1, rel=1e-15)
        assert e.V == pytest.approx(math.sqrt(2) - 1, rel=1e-15)
        assert e.U * e.V == pytest.approx(1.0, rel=1e-15)

    def test_width_identity(self):
        e = edge_params(LaguerreParams(10, 1.0))
        assert e.U2 - e.V2 == pytest.approx(4 * math.sqrt(120), rel=1e-13)

    def test_window_sits_below_smallest_zero(self):
        e = edge_params(LaguerreParams(2, 0.0))
        assert e.V2 == pytest.approx(0.10102051443364424, rel=1e-12)
        assert 2 - math.sqrt(2) > e.V2

    @settings(max_examples=100)
    @given(params=params_strategy)
    def test_product_and_width_identities(self, params):
        e = edge_params(params)
        assert 0 < e.V < e.U
        assert e.U * e.V == pytest.approx(params.alpha + 1.0, rel=1e-13)
        width = 4 * math.sqrt(params.n * (params.n + params.alpha + 1.0))
        assert e.U2 - e.V2 == pytest.approx(width, rel=1e-13)


class TestDelta:
    def test_value_at_mean(self):
        # x = alpha+1 kills the squared term of the rational form, leaving n/x.
        for alpha in (0.0, 0.5, 9.0):
            assert delta(LaguerreParams(1, alpha), alpha + 1.0) == pytest.approx(
                1.0 / (alpha + 1.0), rel=1e-13
            )

    def test_vanishes_at_window_ends(self):
        params = LaguerreParams(6, 2.5)
        e = edge_params(params)
        assert delta(params, e.U2) == 0.0
        assert delta(params, e.V2) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            delta(LaguerreParams(2, 0.0), 0.0)
        with pytest.raises(DomainError):
            delta(LaguerreParams(2, 0.0), -1.0)

    @staticmethod
    def reference(n, alpha, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(400):
            U = mpmath.sqrt(n + mpmath.mpf(alpha) + 1) + mpmath.sqrt(n)
            V = (mpmath.mpf(alpha) + 1) / U
            return (U * U - x) * (x - V * V) / (4 * mpmath.mpf(x) ** 2)

    @pytest.mark.parametrize("n,alpha,x,value", [
        (5, 1.0, 1e160, -0.25), (5, 1e160, 2e160, -0.0625), (5, 1e160, 1e150, -2.5e19),
        (5, 1.0, 1e154, -0.25), (5, 1.0, 1e-154, -1e308), (3, 1e300, 2e300, -0.0625)])
    def test_finite_past_the_squares(self, n, alpha, x, value):
        # The numerator or 4 x^2 overflowed: nan, -inf and -0.0 where the value is finite.
        got = delta(LaguerreParams(n, alpha), x)
        assert got == pytest.approx(value, rel=1e-9)
        assert got == pytest.approx(float(self.reference(n, alpha, x)), rel=4e-16)

    @pytest.mark.parametrize("n,alpha,x", [
        (5, 1.0, 1e-320), (5, 1e-300, 1e-300), (5, 1.0, 1e-160), (3, 1e300, 1e-10)])
    def test_value_past_double_range_refused(self, n, alpha, x):
        # 4 x^2 underflowed to 0 (ZeroDivisionError) or the quotient to -inf.
        assert abs(self.reference(n, alpha, x)) > sys.float_info.max
        refusal = re.escape(f"delta at x = {x!r} lies past double range")
        with pytest.raises(DomainError, match=refusal):
            delta(LaguerreParams(n, alpha), x)

    @staticmethod
    def seeded_inputs():
        """2000 seeded (params, x, near): x log-uniform over the window widened e**3 each
        way; near is true where x lies within alpha - w of alpha (w = U^2 - V^2)."""
        rng = np.random.default_rng(32)
        for _ in range(2000):
            n, alpha = int(rng.integers(1, 2000)), float(-1.0 + 10.0 ** rng.uniform(-15, 12))
            params = LaguerreParams(n, alpha)
            e = edge_params(params)
            x = float(np.exp(rng.uniform(math.log(e.V2) - 3, math.log(e.U2) + 3)))
            yield params, x, abs(alpha - x) + bounds._width(params) < alpha

    def test_normal_range_keeps_the_direct_form(self):
        # Away from alpha (or where alpha <= w) and in the normal range, the bits are
        # those of the direct form; 1674 of the 2000 inputs.
        kept = 0
        for params, x, near in self.seeded_inputs():
            if not near:
                e = edge_params(params)
                assert delta(params, x) == (e.U2 - x) * (x - e.V2) / (4.0 * x * x)
                kept += 1
        assert kept == 1674

    def test_near_alpha_within_8_eps_of_mpmath(self):
        # Near alpha, U^2 - x and x - V^2 cancelled the leading bits U^2 and V^2 share
        # with x: the direct form read up to 1230 eps off on these 326 inputs; the
        # worst now is 5.2 eps.
        near = [(params, x) for params, x, near in self.seeded_inputs() if near]
        assert len(near) == 326
        for params, x in near:
            want = float(self.reference(params.n, params.alpha, x))
            assert abs(delta(params, x) - want) <= 8.0 * sys.float_info.epsilon * abs(want)

    @pytest.mark.parametrize("n,alpha,x,value", [
        (10, 1e40, 1e40, 1.0e-39), (10, 1e33, 1e33, 1.0e-32), (10, 1e20, 1e20, 1.0e-19)])
    def test_window_centre_at_large_alpha(self, n, alpha, x, value):
        # The direct form read 0.0, 2.08e-32 and 1.1e-7 relative off here.
        got = delta(LaguerreParams(n, alpha), x)
        assert abs(got / value - 1.0) <= 1e-9  # pytest.approx would take 0.0 for 1e-39
        assert abs(got / float(self.reference(n, alpha, x)) - 1.0) <= 4e-16


class TestDeltaExtremum:
    def test_hand_case(self):
        x_star, delta_max = delta_extremum(LaguerreParams(1, 0.0))
        assert x_star == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert delta_max == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("n,alpha", SWEEP)
    def test_grid_maximality(self, n, alpha):
        params = LaguerreParams(n, alpha)
        e = edge_params(params)
        x_star, delta_max = delta_extremum(params)
        grid = np.linspace(e.V2, e.U2, 1000)
        values = [delta(params, x) for x in grid[1:-1]]
        assert max(values) <= delta_max * (1 + 1e-12)
        assert delta(params, x_star) == pytest.approx(delta_max, rel=1e-12)

    @settings(max_examples=100)
    @given(params=params_strategy)
    def test_location_inside_window(self, params):
        e = edge_params(params)
        x_star, _ = delta_extremum(params)
        assert e.V2 < x_star < e.U2


class TestUniformBound:
    def test_ten_one(self):
        got = uniform_spacing_lower(LaguerreParams(10, 1.0))
        assert got == pytest.approx(2 * math.sqrt(3) / math.sqrt(120), rel=1e-14)
        assert got == pytest.approx(1 / math.sqrt(10), rel=1e-14)

    def test_two_zero_with_true_spacing(self):
        got = uniform_spacing_lower(LaguerreParams(2, 0.0))
        assert got == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert 2 * math.sqrt(2) >= got

    def test_hundred_ten_thousand(self):
        got = uniform_spacing_lower(LaguerreParams(100, 1e4))
        want = math.sqrt(3) * 10001 / math.sqrt(100 * 10101)
        assert got == pytest.approx(want, rel=1e-14)

    def test_needs_two_zeros(self):
        with pytest.raises(ParameterError):
            uniform_spacing_lower(LaguerreParams(1, 0.0))

    @settings(max_examples=100)
    @given(
        n=st.integers(min_value=2, max_value=40),
        alpha=st.floats(min_value=-0.99, max_value=1e4),
    )
    def test_square_times_delta_max_is_three(self, n, alpha):
        params = LaguerreParams(n, alpha)
        bound = uniform_spacing_lower(params)
        _, delta_max = delta_extremum(params)
        assert bound * bound * delta_max == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_monotone_in_alpha(self, n):
        grid = [-0.9, -0.5, 0.0, 1.0, 10.0, 100.0, 1e3, 1e4]
        values = [uniform_spacing_lower(LaguerreParams(n, a)) for a in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestRangeBound:
    def test_example(self):
        got = bound_set(LaguerreParams(10, 100.0), 1.0).range_lower
        assert got == pytest.approx(math.sqrt(10.0) / math.sqrt(2.0), rel=1e-14)

    def test_boundary_accepted(self):
        got = bound_set(LaguerreParams(10, 10.0), 1.0).range_lower
        assert got == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_out_of_regime_is_none(self):
        # just below alpha = n/C the bound does not apply
        assert bound_set(LaguerreParams(10, 9.999), 1.0).range_lower is None

    def test_proof_constant_dominates(self):
        bs = bound_set(LaguerreParams(10, 100.0), 1.0)
        stated, sharper = bs.range_lower, bs.proof_range_lower
        assert sharper == pytest.approx(stated * math.sqrt(1.5), rel=1e-14)
        assert sharper > stated

    def test_auto_constant(self):
        params = LaguerreParams(10, 50.0)
        assert bound_set(params, "auto").range_lower == pytest.approx(
            bound_set(params, 10.0 / 50.0).range_lower, rel=1e-15
        )

    @pytest.mark.parametrize("n,alpha", [(2, 3.7), (9, 1000.0)])
    def test_auto_constant_applies_where_n_over_c_rounds_above_alpha(self, n, alpha):
        # C = n/alpha puts alpha in the regime by construction, although
        # alpha >= n/C rounds false here
        params, C = LaguerreParams(n, alpha), n / alpha
        assert alpha < n / C
        bs = bound_set(params)
        assert bs.range_lower == math.sqrt(alpha / n) / math.sqrt(C + 1.0)
        assert bs.range_constant == C
        assert bs.proof_range_lower == math.sqrt(1.5 / (C + 1.0)) * math.sqrt(alpha / n)
        assert bs.range_bracket[0] == math.sqrt(n * alpha) / math.sqrt(C + 1.0)

    def test_auto_constant_applies_on_a_sample(self):
        alphas = (0.1, 0.3, 1.0, 3.7, 10.0, 1e2, 1e3, 1e4, 1e6, 1e8)
        for n in range(2, 201):
            for alpha in alphas:
                assert bound_set(LaguerreParams(n, alpha)).range_lower is not None, (n, alpha)

    def test_bad_constant(self):
        with pytest.raises(ParameterError):
            bound_set(LaguerreParams(10, 100.0), -1.0)
        with pytest.raises(ParameterError):
            bound_set(LaguerreParams(10, 100.0), "later")


class TestTelescopedBracket:
    def test_example_values(self):
        lo, hi = bound_set(LaguerreParams(10, 100.0), 1.0).range_bracket
        assert lo == pytest.approx(math.sqrt(1000.0) / math.sqrt(2.0), rel=1e-14)
        assert hi == pytest.approx(6 * math.sqrt(2.0) * math.sqrt(1000.0), rel=1e-14)

    def test_quadratic_range_inside(self):
        lo, hi = bound_set(LaguerreParams(2, 1000.0), 1.0).range_bracket
        true_range = 2 * math.sqrt(1002.0)
        assert lo <= true_range <= hi

    @pytest.mark.parametrize("n,alpha", [(n, a) for n, a in SWEEP if a >= n])
    def test_solver_range_inside_bracket(self, n, alpha):
        params = LaguerreParams(n, alpha)
        lo, hi = bound_set(params, 1.0).range_bracket
        z = zeros(params).zeros
        true_range = z[-1] - z[0]
        width = 4 * math.sqrt(n * (n + alpha + 1.0))
        assert lo <= true_range <= hi
        assert true_range <= width
        assert hi >= width

    def test_regime_required(self):
        assert bound_set(LaguerreParams(10, 5.0), 1.0).range_bracket is None
        assert bound_set(LaguerreParams(1, 100.0), 1.0).range_bracket is None


class TestKrasikovWindow:
    def test_two_zero_case(self):
        params = LaguerreParams(2, 0.0)
        lo, hi = krasikov_window(params)
        z_lo, z_hi = 2 - math.sqrt(2), 2 + math.sqrt(2)
        V = math.sqrt(3) - math.sqrt(2)
        U = math.sqrt(3) + math.sqrt(2)
        w = 4 * math.sqrt(6)
        assert lo == pytest.approx(V**2 + 3 * V ** (4 / 3) * w ** (-1 / 3), rel=1e-13)
        assert hi == pytest.approx(U**2 - 3 * U ** (4 / 3) * w ** (-1 / 3) + 2, rel=1e-13)
        assert lo <= z_lo and z_hi <= hi

    def test_single_zero_case(self):
        lo, hi = krasikov_window(LaguerreParams(1, 0.0))
        assert lo <= 1.0 <= hi

    @settings(max_examples=100)
    @given(params=params_strategy)
    def test_lower_end_exceeds_window_edge(self, params):
        e = edge_params(params)
        lo, _ = krasikov_window(params)
        assert lo > e.V2


class TestBoundSet:
    def test_auto(self):
        bs = bound_set(LaguerreParams(10, 100.0), C="auto")
        assert bs.range_constant == pytest.approx(0.1)
        assert bs.range_lower == pytest.approx(
            bound_set(LaguerreParams(10, 100.0), 0.1).range_lower, rel=1e-15
        )
        assert bs.proof_range_lower > bs.range_lower
        assert bs.uniform_lower > 0
        assert bs.delta_max == pytest.approx(
            delta_extremum(LaguerreParams(10, 100.0))[1], rel=1e-15
        )

    def test_inapplicable_regime_skipped(self):
        bs = bound_set(LaguerreParams(10, 5.0), C=1.0)
        assert bs.range_lower is None
        assert bs.proof_range_lower is None
        assert bs.range_constant is None
        assert bs.range_bracket is None

    def test_auto_with_nonpositive_alpha_skipped(self):
        bs = bound_set(LaguerreParams(10, -0.5), C="auto")
        assert bs.range_lower is None

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310])
    def test_auto_with_subnormal_alpha_skipped(self, alpha):
        # n/alpha overflows to inf: no admissible C, rather than C = inf and bounds of 0
        bs = bound_set(LaguerreParams(3, alpha), C="auto")
        assert bs.range_constant is None
        assert bs.range_lower is None
        assert bs.proof_range_lower is None
        assert bs.range_bracket is None

    def test_none_skips(self):
        bs = bound_set(LaguerreParams(10, 100.0), C=None)
        assert bs.range_lower is None

    @pytest.mark.parametrize("C", ["auto", 0.5, None])
    def test_degree_one_has_no_spacing_bounds(self, C):
        # n = 1 has no spacings; the window and delta fields are still set.
        params = LaguerreParams(1, 1.0)
        bs = bound_set(params, C=C)
        assert bs.uniform_lower is None
        assert bs.range_lower is None
        assert bs.proof_range_lower is None
        assert bs.range_constant is None
        assert bs.range_bracket is None
        assert (bs.krasikov_min_lower, bs.krasikov_max_upper) == krasikov_window(params)
        assert bs.delta_max == delta_extremum(params)[1]

    def test_invalid_constant_raises(self):
        with pytest.raises(ParameterError):
            bound_set(LaguerreParams(10, 100.0), C=0.0)

    @pytest.mark.parametrize("C,shown", [(math.inf, "inf"), (math.nan, "nan"), (0.0, "0.0"),
                                         (-1.0, "-1.0"), (0, "0.0"), (-1, "-1.0"),
                                         pytest.param(10**400, "inf", id="int-past-double"),
                                         pytest.param(Fraction(10**400, 3), "inf",
                                                      id="fraction-past-double")])
    def test_invalid_constant_text(self, C, shown):
        # inf is positive, so the text names finiteness too; the integral and rational C
        # past double range let float()'s OverflowError escape
        with pytest.raises(ParameterError) as exc:
            bound_set(LaguerreParams(10, 100.0), C=C)
        assert str(exc.value) == f"C must be a finite positive number, got {shown}"

    @pytest.mark.parametrize("C", [True, False, 1j, 1.0 + 0.0j, np.array([2.0])])
    def test_constant_that_is_no_real_number_refused(self, C):
        # True ran as C = 1.0, and a complex C escaped as float()'s TypeError
        with pytest.raises(ParameterError) as exc:
            bound_set(LaguerreParams(10, 100.0), C=C)
        assert str(exc.value) == f"C must be a positive number or 'auto', got {C!r}"


class TestPastSquaredAlpha:
    """Past alpha ~ 1.3e154, (alpha+1)^2, n (n+alpha+1) and n alpha overflow a double;
    every bound must still match mpmath (at 50 digits, in forms free of cancellation)."""

    @pytest.mark.parametrize("n", [3, 5, 16384])
    @pytest.mark.parametrize("alpha", [1e160, 1e200, 1e308])
    def test_bounds_match_mpmath(self, n, alpha):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            a, m = mpmath.mpf(alpha), mpmath.mpf(n)
            root = mpmath.sqrt(m * a)
            expected = {  # U^2 V^2 = (alpha+1)^2, U^2 + V^2 = 2 (2n+alpha+1)
                "x_star": (a + 1) ** 2 / (2 * m + a + 1),
                "delta_max": m * (m + a + 1) / (a + 1) ** 2,
                "uniform_lower": mpmath.sqrt(3) * (a + 1) / mpmath.sqrt(m * (m + a + 1)),
                "bracket_lo": root / mpmath.sqrt(m / a + 1),
                "bracket_hi": 6 * mpmath.sqrt(m / a + 1) * root,
            }
            bs = bound_set(LaguerreParams(n, alpha))
            got = {"x_star": bs.x_star, "delta_max": bs.delta_max,
                   "uniform_lower": bs.uniform_lower, "bracket_lo": bs.range_bracket[0],
                   "bracket_hi": bs.range_bracket[1]}
            for name, value in got.items():
                assert math.isfinite(value) and value > 0.0, (name, value)
                assert abs(value / expected[name] - 1) < 1e-15, (name, value)
        assert uniform_spacing_lower(LaguerreParams(n, alpha)) == bs.uniform_lower
        assert delta_extremum(LaguerreParams(n, alpha)) == (bs.x_star, bs.delta_max)
        lo, hi = krasikov_window(LaguerreParams(n, alpha))
        assert math.isfinite(lo) and math.isfinite(hi)

    @pytest.mark.parametrize("n", [1, 5, 16384])
    def test_largest_alpha_keeps_every_bound_finite(self, n, capsys):
        # V rounds up past sqrt(max), so V*V overflowed: the window read (inf, max - 1 ulp),
        # the sharpened lower end inf, and x* = inf, where 1/U^2 and 1/V^2 were subnormal.
        mpmath = pytest.importorskip("mpmath")
        alpha = sys.float_info.max
        with mpmath.workdps(100):
            a = mpmath.mpf(alpha)
            half = 2 * mpmath.sqrt(n * (n + a + 1))
            squares = float(a + 2 * n + 1 + half), float(a + 2 * n + 1 - half)
            x_star = float((a + 1) ** 2 / (2 * n + a + 1))
        params = LaguerreParams(n, alpha)
        e = edge_params(params)
        assert (e.U2, e.V2) == squares
        got = delta_extremum(params)[0]
        assert abs(got / x_star - 1) <= sys.float_info.epsilon
        bs = bound_set(params)
        for value in (*krasikov_window(params), bs.x_star, bs.delta_max):
            assert math.isfinite(value) and value > 0.0, value
        assert cli.main(["bounds", "--n", str(n), f"--alpha={alpha!r}"]) == 0
        assert not re.search(r"\b(inf|nan)\b", capsys.readouterr().out)
