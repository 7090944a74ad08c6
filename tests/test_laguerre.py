"""Evaluation-layer tests: recurrence values, derivatives, equation residuals."""

import math
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from laguerre_spacings import (
    DomainError,
    LaguerreParams,
    ParameterError,
    ScaledValue,
    evaluate,
    evaluate_derivative,
    laguerre_polynomial,
    ode_residual,
    ode_residual_relative,
)
from laguerre_spacings.bounds import edge_params
from laguerre_spacings.laguerre import _FEW_LANES, laguerre_polynomial_compensated


def product_formula_at_zero(n: int, alpha: float) -> ScaledValue:
    """Independent oracle for L_n^(alpha)(0) = prod_{k=1..n} (alpha+k)/k."""
    acc = 1.0
    shift = 0
    for k in range(1, n + 1):
        acc *= (alpha + k) / k
        if acc > 2.0**512:
            m, e = math.frexp(acc)
            acc = m
            shift += e
    return ScaledValue.from_float(acc, shift)


def mp_laguerre(n: int, alpha: float, x: float):
    """Exact L_n^(alpha)(x) from the explicit sum, in rationals, rounded to 60 digits.

    sum_k (-1)^k C(n+alpha, n-k) x^k / k!; the ratio of successive
    coefficients is -(n-k) / ((alpha+k+1)(k+1)). mpmath's hypergeometric
    laguerre fails to converge where the value is exactly zero, e.g. L_1^(2)(3).
    """
    a, t = Fraction(alpha), Fraction(x)
    coeff = Fraction(1)
    for j in range(1, n + 1):
        coeff *= (a + j) / j
    total, power = Fraction(0), Fraction(1)
    for k in range(n + 1):
        total += coeff * power
        coeff *= Fraction(-(n - k)) / ((a + k + 1) * (k + 1))
        power *= t
    with mp.workdps(60):
        return +(mp.mpf(total.numerator) / total.denominator)


def sv_to_mp(sv: ScaledValue):
    return mp.mpf(sv.mantissa) * mp.mpf(2) ** sv.exponent2


class TestScaledValue:
    def test_roundtrip(self):
        for v in (1.0, -1.0, 0.0, 3.5, -1e300, 2.2e-308, math.pi):
            assert ScaledValue.from_float(v).to_float() == v

    def test_normalization_rejected(self):
        with pytest.raises(ParameterError):
            ScaledValue(2.5, 0)
        with pytest.raises(ParameterError):
            ScaledValue(0.5, 0)

    def test_out_of_double_range(self):
        huge = ScaledValue(1.5, 4000)
        assert huge.to_float() == math.inf
        assert ScaledValue(-1.5, 4000).to_float() == -math.inf

    def test_ratio_spans_scales(self):
        a = ScaledValue(1.5, 900)
        b = ScaledValue(1.5, 880)
        assert a.ratio_to(b) == 2.0**20

    @given(st.floats(allow_nan=False, allow_infinity=False,
                     min_value=-1e200, max_value=1e200))
    def test_from_float_normalizes(self, v):
        sv = ScaledValue.from_float(v)
        if v == 0.0:
            assert sv.mantissa == 0.0 and sv.exponent2 == 0
        else:
            assert 1.0 <= abs(sv.mantissa) < 2.0
            assert sv.to_float() == v


class TestParams:
    def test_valid(self):
        p = LaguerreParams(3, -0.5)
        assert p.n == 3 and p.alpha == -0.5

    @pytest.mark.parametrize("n,alpha", [(0, 0.0), (-1, 0.0), (2, -1.0),
                                         (2, -2.0), (2, math.nan), (1.5, 0.0), (2, True)])
    def test_rejects(self, n, alpha):
        with pytest.raises(ParameterError):
            LaguerreParams(n, alpha)

    def test_near_degenerate_flag(self):
        assert LaguerreParams(2, -1.0 + 1e-7).near_degenerate_weight
        assert not LaguerreParams(2, -0.9).near_degenerate_weight


class TestEvaluate:
    def test_degree_zero_is_one(self):
        assert laguerre_polynomial(0, 3.7, 5.0).to_float() == 1.0

    def test_degree_one_root(self):
        assert evaluate(LaguerreParams(1, 2.0), 3.0).to_float() == 0.0

    def test_degree_two_hand_expansion(self):
        # L_2^(0)(x) = x^2/2 - 2x + 1, so L_2^(0)(2) = -1
        assert evaluate(LaguerreParams(2, 0.0), 2.0).to_float() == pytest.approx(-1.0, rel=1e-15)

    @pytest.mark.parametrize("n,alpha", [(5, 0.0), (50, 1.0), (100, 1e4),
                                         (200, 1e4), (200, -0.9)])
    def test_value_at_zero_matches_product_formula(self, n, alpha):
        mine = laguerre_polynomial(n, alpha, 0.0)
        oracle = product_formula_at_zero(n, alpha)
        ratio = mine.ratio_to(oracle)
        assert ratio == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n,alpha,x", [(7, 0.5, 3.0), (30, 2.0, 55.0),
                                           (100, 1e4, 9000.0), (150, 100.0, 300.0)])
    def test_against_extended_precision(self, n, alpha, x):
        exact = mp_laguerre(n, alpha, x)
        mine = sv_to_mp(laguerre_polynomial(n, alpha, x))
        assert abs(mine - exact) <= 1e-10 * abs(exact)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        alpha=st.floats(min_value=0.0, max_value=5.0),
        x=st.floats(min_value=0.0, max_value=30.0),
    )
    @example(n=1, alpha=2.0, x=3.0)  # an exact zero: L_1^(2)(3) = 0
    def test_recurrence_tracks_oracle_within_envelope(self, n, alpha, x):
        # |L_n^(a)(x)| <= L_n^(a)(0) e^(x/2) for a >= 0 bounds the noise scale.
        exact = mp_laguerre(n, alpha, x)
        mine = sv_to_mp(laguerre_polynomial(n, alpha, x))
        envelope = product_formula_at_zero(n, alpha).to_float() * math.exp(x / 2.0)
        assert abs(mine - exact) <= 1e-12 * envelope

    def test_compensated_is_sharper_at_clustered_zeros(self):
        # Evaluation right at a small clustered zero: plain recurrence noise
        # dominates there, the compensated pass must stay at the true scale.
        from laguerre_spacings import zeros

        z0 = float(zeros(LaguerreParams(200, 0.5)).zeros[0])
        exact = mp_laguerre(200, 0.5, z0)
        plain = sv_to_mp(laguerre_polynomial(200, 0.5, z0))
        comp = sv_to_mp(laguerre_polynomial_compensated(200, 0.5, z0))
        assert abs(comp - exact) < 1e-3 * abs(plain - exact)
        assert abs(comp - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    def test_non_real_alpha_rejected(self, evaluator):
        for alpha in (True, "1", np.array([True, False]), np.array([0.5, True], dtype=object)):
            with pytest.raises(ParameterError, match="alpha"):
                evaluator(2, alpha, 1.0)

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    def test_numpy_scalar_alpha_runs_in_double_precision(self, evaluator):
        # a float call is a one-lane array call, so a float32 alpha is widened
        # as an array lane's is, not carried through float32 arithmetic
        assert evaluator(7, np.float32(0.5), 3.0) == evaluator(7, 0.5, 3.0)

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    def test_overflow_names_the_call(self, evaluator):
        # L_1 = 1e160 is past 2**512, so the first step's product overflows.
        with pytest.raises(ParameterError, match=r"left double range at "
                                                 r"\(n, alpha, x\) = \(5, 1e\+160, 1\.0\)"):
            evaluator(5, 1e160, 1.0)

    def test_domain_errors(self):
        p = LaguerreParams(2, 0.0)
        bad = [-1.0, math.nan, math.inf,
               np.array([1.0, -1.0]), np.array([2.0, math.nan]), np.array([math.inf, 0.5]),
               np.concatenate((np.linspace(0.0, 5.0, 19), [-math.inf]))]
        for x in bad:
            with pytest.raises(DomainError):
                evaluate(p, x)
            with pytest.raises(DomainError):
                laguerre_polynomial_compensated(p.n, p.alpha, x)


def _clustered_small_zeros():
    from laguerre_spacings import zeros

    return np.concatenate(([0.0], zeros(LaguerreParams(200, 0.5)).zeros[:40]))


class TestArrayLanes:
    """An array call equals pointwise float calls lane by lane, bit for bit."""

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    @pytest.mark.parametrize("n,alpha,make_points", [
        # lanes rescale at different steps and by different powers of two
        (200, 1e4, lambda: np.concatenate(([0.0], np.linspace(1.0, 3e4, 63)))),
        (200, 0.5, _clustered_small_zeros),
        (1, 2.0, lambda: np.arange(17.0)),  # one step; L_1(3) is an exact zero
        (0, 2.0, lambda: np.linspace(0.0, 40.0, 17)),  # no recurrence step
        (50, 1.0, lambda: np.array([0.0, 3.0, 30.0, 150.0])),  # short: lanes run on floats
        # either side of the plain mode's switch from float lanes to the array pass
        (1000, -0.5, partial(np.linspace, 0.0, 3900.0, _FEW_LANES - 1)),
        (1000, -0.5, partial(np.linspace, 0.0, 3900.0, _FEW_LANES)),
        (1000, -0.5, partial(np.linspace, 0.0, 3900.0, _FEW_LANES + 1)),
    ])
    def test_lanes_match_pointwise_calls(self, evaluator, n, alpha, make_points):
        points = make_points()
        mantissas, exponents = evaluator(n, alpha, points)
        pointwise = [evaluator(n, alpha, float(x)) for x in points]
        assert mantissas.tobytes() == np.array([sv.mantissa for sv in pointwise]).tobytes()
        assert exponents.tolist() == [sv.exponent2 for sv in pointwise]

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    @pytest.mark.parametrize("n,alpha,points", [
        (1, 2.0, np.linspace(0.5, 6.0, 12)),  # the derivative lanes have degree 0
        (2, 0.0, np.linspace(0.1, 5.0, 12)),
        (30, 0.5, np.array([0.0, 0.3, 9.0, 40.0, 90.0])),  # 10 lanes: run on floats
        (200, 1e4, np.linspace(1.0, 3e4, 24)),  # lanes rescale at different steps
    ])
    def test_mixed_degree_and_alpha_lanes(self, evaluator, n, alpha, points):
        # refine's stacked pass: (n, alpha) numerators beside (n - 1, alpha + 1) derivatives
        order = np.random.default_rng(3).permutation(2 * points.size)
        degrees = np.repeat([n, n - 1], points.size)[order]
        alphas = np.repeat([alpha, alpha + 1.0], points.size)[order]
        x = np.concatenate((points, points))[order]
        mantissas, exponents = evaluator(degrees, alphas, x)
        pointwise = [evaluator(d, a, v) for d, a, v in zip(degrees.tolist(), alphas.tolist(), x.tolist())]
        assert mantissas.tobytes() == np.array([sv.mantissa for sv in pointwise]).tobytes()
        assert exponents.tolist() == [sv.exponent2 for sv in pointwise]

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    @pytest.mark.parametrize("n,alpha,match", [
        (np.array([3, True], dtype=object), 1.0, "degree"),
        (np.array([True, False]), 1.0, "degree"),
        (np.array([3, -1]), 1.0, "got -1"),
        (np.array([3.0, 2.0]), 1.0, "degree"),
        (np.array([3, 2]), np.array([0.5, -1.0]), "got -1.0"),
        (3, np.array([0.5, math.nan]), "got nan"),
        (np.array([3, 2]), np.array([math.inf, 0.5]), "got inf"),
    ])
    def test_bad_lane_parameters_rejected(self, evaluator, n, alpha, match):
        with pytest.raises(ParameterError, match=match):
            evaluator(n, alpha, np.linspace(0.0, 5.0, 20))
        with pytest.raises(ParameterError, match=match):
            evaluator(n, alpha, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    def test_lane_out_of_range_leaves_others_alone(self, evaluator):
        # The last lane leaves double range; the others must still rescale as
        # their float calls do instead of overflowing with it.
        degrees, x = np.array([200] * 21), np.array([3e4 + 100 * i for i in range(20)] + [1.0])
        alphas = np.array([1e4] * 20 + [1e200])
        mantissas, exponents = evaluator(degrees, alphas, x)
        pointwise = [evaluator(200, 1e4, v) for v in x[:20].tolist()]
        assert mantissas[:20].tobytes() == np.array([sv.mantissa for sv in pointwise]).tobytes()
        assert exponents[:20].tolist() == [sv.exponent2 for sv in pointwise]
        assert not np.isfinite(mantissas[20])
        with pytest.raises(ParameterError, match="left double range"):
            evaluator(200, 1e200, 1.0)

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    def test_finished_lanes_ride_on_silently(self, evaluator):
        # Once its value is taken, a lane rides on to the top degree: a
        # degree-1 lane at x = 1e300 then overflows, with no warning and no
        # effect on the other lanes.
        degrees = np.tile([0, 1, 2, 7, 200, 201], 8)
        alphas = np.random.default_rng(9).uniform(-0.5, 50.0, degrees.size)
        x = np.random.default_rng(10).uniform(0.0, 900.0, degrees.size)
        x[1::12] = 1e300  # every other degree-1 lane
        assert degrees.size >= _FEW_LANES  # the array pass, in plain mode
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mantissas, exponents = evaluator(degrees, alphas, x)
        pointwise = [evaluator(*lane) for lane in zip(degrees.tolist(), alphas.tolist(), x.tolist())]
        assert mantissas.tobytes() == np.array([sv.mantissa for sv in pointwise]).tobytes()
        assert exponents.tolist() == [sv.exponent2 for sv in pointwise]

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    def test_all_degree_zero_lanes(self, evaluator):
        mantissas, exponents = evaluator(np.zeros(48, dtype=int), np.linspace(-0.5, 9.0, 48),
                                         np.linspace(0.0, 1e300, 48))
        assert mantissas.tolist() == [1.0] * 48 and exponents.tolist() == [0] * 48

    def test_lanes_span_many_scales(self):
        _, exponents = laguerre_polynomial(200, 1e4, np.linspace(0.0, 3e4, 64))
        assert max(exponents) - min(exponents) > 500

    def test_empty_array(self):
        mantissas, exponents = laguerre_polynomial(5, 1.0, np.array([]))
        assert mantissas.size == 0 and exponents.size == 0


class TestDerivative:
    def test_linear_case(self):
        assert evaluate_derivative(LaguerreParams(1, 0.5), 7.0).to_float() == -1.0

    def test_quadratic_at_its_vertex(self):
        # L_2^(0)'(x) = x - 2
        assert evaluate_derivative(LaguerreParams(2, 0.0), 2.0).to_float() == 0.0

    def test_shifted_identity_at_origin(self):
        # L_2^(1)'(0) = -L_1^(2)(0) = -3
        assert evaluate_derivative(LaguerreParams(2, 1.0), 0.0).to_float() == -3.0

    @pytest.mark.parametrize("n,alpha,x", [(4, 0.0, 2.5), (9, 2.5, 11.0), (20, 10.0, 40.0)])
    def test_matches_central_differences(self, n, alpha, x):
        p = LaguerreParams(n, alpha)
        h = x * 1e-7
        numeric = (evaluate(p, x + h).to_float() - evaluate(p, x - h).to_float()) / (2 * h)
        analytic = evaluate_derivative(p, x).to_float()
        assert numeric == pytest.approx(analytic, rel=1e-6)


class TestOdeResidual:
    def test_linear_case_closes(self):
        assert ode_residual(LaguerreParams(1, 0.0), 1.0) == pytest.approx(0.0, abs=1e-16)

    def test_quadratic_case(self):
        assert abs(ode_residual(LaguerreParams(2, 0.0), 1.0)) <= 1e-14

    def test_large_parameters_relative(self):
        assert ode_residual_relative(LaguerreParams(10, 100.0), 150.0) <= 1e-10

    @pytest.mark.parametrize("n,alpha,x", [(2, 0.005, 1e-310), (1, 1e160, 1e-300)])
    def test_point_too_small_for_the_coefficients_rejected(self, n, alpha, x):
        # n/x or (alpha+1)/x overflows: a DomainError naming x, not nan or inf
        for residual in (ode_residual, ode_residual_relative):
            with pytest.raises(DomainError, match=f"evaluation point {x!r} is too small"):
                residual(LaguerreParams(n, alpha), x)

    def test_zero_point_rejected(self):
        with pytest.raises(DomainError):
            ode_residual(LaguerreParams(2, 0.0), 0.0)
        with pytest.raises(DomainError):
            ode_residual_relative(LaguerreParams(2, 0.0), -3.0)

    @pytest.mark.parametrize("n", [1, 5, 25, 100, 200])
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 1.0, 10.0, 100.0, 1e3, 1e4])
    def test_relative_residual_on_window_grid(self, n, alpha):
        params = LaguerreParams(n, alpha)
        edge = edge_params(params)
        width = edge.U2 - edge.V2
        worst = 0.0
        for j in range(50):
            x = edge.V2 + width * (j + 0.5) / 50.0
            worst = max(worst, ode_residual_relative(params, x))
        assert worst <= 1e-10
