"""Evaluation-layer tests: recurrence values, derivatives, the mpmath oracle on window grids."""

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
    laguerre,
    laguerre_polynomial,
    zeros,
)
from laguerre_spacings.bounds import edge_params
from laguerre_spacings.laguerre import _FEW_LANES, _MAX_DEGREE, laguerre_polynomial_compensated


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


def derivative(n: int, alpha: float, x: float) -> float:
    """L_n^(alpha)'(x) = -L_{n-1}^(alpha+1)(x), the shift identity (DLMF 18.9.23)."""
    return -laguerre_polynomial(n - 1, alpha + 1.0, x).to_float()


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
                                         (2, -2.0), (2, math.nan), (1.5, 0.0), (2, True),
                                         (2, 10**400), (2, Fraction(10**400, 3))])
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
        assert laguerre_polynomial(1, 2.0, 3.0).to_float() == 0.0

    def test_degree_two_hand_expansion(self):
        # L_2^(0)(x) = x^2/2 - 2x + 1, so L_2^(0)(2) = -1
        assert laguerre_polynomial(2, 0.0, 2.0).to_float() == pytest.approx(-1.0, rel=1e-15)

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
        # a float call is a one-lane call, so a float32 alpha is widened
        # as an array lane's is, not carried through float32 arithmetic
        assert evaluator(7, np.float32(0.5), 3.0) == evaluator(7, 0.5, 3.0)

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    def test_real_alpha_runs_as_its_double(self, evaluator):
        # an int past int64 or a Fraction is a finite real, not a bad dtype
        points = np.linspace(0.0, 9.0, 50)
        for alpha, double in ((10**20, 1e20), (Fraction(1, 2), 0.5), (-Fraction(9, 10), -0.9)):
            assert evaluator(7, alpha, 3.0) == evaluator(7, double, 3.0)
            for got, want in zip(evaluator(7, alpha, points), evaluator(7, double, points)):
                assert got.tobytes() == want.tobytes()
        with pytest.raises(ParameterError, match="alpha is too large for a double"):
            evaluator(7, 10**400, 3.0)
        with pytest.raises(ParameterError, match="alpha must be > -1, got -2.0"):
            evaluator(7, Fraction(-2), 3.0)

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
                laguerre_polynomial(p.n, p.alpha, x)
            with pytest.raises(DomainError):
                laguerre_polynomial_compensated(p.n, p.alpha, x)

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    @pytest.mark.parametrize("x", [
        True, np.True_, "1.0", 1 + 0j, pytest.param(10**400, id="int_past_double"),
        np.array([True, False]), np.array(["1.0", "2.0"]), np.array([1.0, 2.0], dtype=object),
        np.array([1.0 + 0j, 2.0]), np.ones(60, dtype=complex),
    ])
    def test_non_real_points_rejected(self, evaluator, x):
        # A bool, or an array of bools, strings or objects, ran as its float
        # value, and a complex array dropped its imaginary part with a
        # ComplexWarning; alphas of these kinds were already refused.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="evaluation point must be a finite real"):
                evaluator(3, 0.5, x)


class TestOneRulePerInput:
    """Each input has one rule, so every door gives a bad value the same message."""

    @pytest.mark.parametrize("alpha,message", [
        (math.inf, "alpha must be a finite real, got inf"),
        (math.nan, "alpha must be a finite real, got nan"),
        (-math.inf, "alpha must be a finite real, got -inf"),
        (-1.0, "alpha must be > -1, got -1.0"),
    ])
    def test_bad_alpha_reads_alike_at_every_door(self, alpha, message):
        from laguerre_spacings.bessel import bessel_zero, bessel_zero_table, limit_probe
        from laguerre_spacings.report import SweepConfig

        doors = [
            lambda: LaguerreParams(5, alpha),
            lambda: LaguerreParams(5, np.float64(alpha)),
            lambda: laguerre_polynomial(5, alpha, 1.0),
            lambda: laguerre_polynomial_compensated(5, alpha, 1.0),
            lambda: laguerre_polynomial(5, np.array([0.5, alpha]), np.ones(2)),
            lambda: laguerre_polynomial(5, np.append(np.full(59, 0.5), alpha), np.ones(60)),
            lambda: SweepConfig(n_values=(5,), alpha_values=(1.0, alpha)),
            lambda: SweepConfig(n_values=("5",), alpha_values=("1", str(alpha))),
            lambda: bessel_zero(alpha, 1),
            lambda: bessel_zero_table(alpha, 3),
            lambda: limit_probe(alpha, 1, (10,)),
        ]
        messages = []
        for door in doors:
            with pytest.raises((ParameterError, DomainError)) as info:
                door()
            messages.append(str(info.value).removeprefix("malformed alpha_values: "))
        assert messages == [message] * len(doors)


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
    ])
    def test_lanes_match_pointwise_calls(self, evaluator, n, alpha, make_points):
        points = make_points()
        mantissas, exponents = evaluator(n, alpha, points)
        pointwise = [evaluator(n, alpha, float(x)) for x in points]
        assert mantissas.tobytes() == np.array([sv.mantissa for sv in pointwise]).tobytes()
        assert exponents.tolist() == [sv.exponent2 for sv in pointwise]

    # Either side of the plain mode's switch from the float-lane kernels to _recurrence.
    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    @pytest.mark.parametrize("size", [1, _FEW_LANES - 1, _FEW_LANES, _FEW_LANES + 1])
    def test_door_outputs_match_across_lane_counts(self, evaluator, size):
        # Lane 0 is L_0 and the last lane leaves double range; a one-lane call takes each alone.
        ordinary = [(1000, -0.5, x) for x in np.linspace(0.0, 3900.0, size).tolist()]
        degree_zero, out_of_range = (0, 2.0, 7.0), (200, 1e200, 1.0)
        calls = ([[lane] for lane in ordinary + [degree_zero, out_of_range]] if size == 1
                 else [[degree_zero] + ordinary[1:-1] + [out_of_range]])
        lost = evaluator(np.array([200]), np.array([1e200]), np.array([1.0]))
        for lanes in calls:
            mantissas, exponents = evaluator(*(np.array(v) for v in zip(*lanes)))
            assert mantissas.dtype == np.float64 and exponents.dtype == np.int64
            if lanes[-1] == out_of_range:
                assert not math.isfinite(lost[0][0])
                assert (mantissas[-1:].tobytes(), exponents[-1]) == (lost[0].tobytes(), lost[1][0])
                lanes, mantissas, exponents = lanes[:-1], mantissas[:-1], exponents[:-1]
            pointwise = [evaluator(*lane) for lane in lanes]
            assert mantissas.tobytes() == np.array([sv.mantissa for sv in pointwise]).tobytes()
            assert exponents.tolist() == [sv.exponent2 for sv in pointwise]

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    @pytest.mark.parametrize("key,value,kind", [
        ("x", -1.0, DomainError), ("x", math.nan, DomainError), ("x", math.inf, DomainError),
        ("alpha", -1.0, ParameterError), ("alpha", math.nan, ParameterError),
        ("alpha", math.inf, ParameterError), ("n", -1, ParameterError),
        ("n", True, ParameterError),
    ])
    def test_door_errors_match_across_lane_counts(self, evaluator, key, value, kind):
        # A float call, then calls of 1, _FEW_LANES - 1 and _FEW_LANES + 1 lanes
        # whose last lane is bad (a bool degree stays a scalar: an array of them
        # is an array of another dtype).
        errors = set()
        for size in (None, 1, _FEW_LANES - 1, _FEW_LANES + 1):
            call = {"n": 5, "alpha": 0.5, "x": 1.5}
            if size is not None:
                call["x"] = np.linspace(0.0, 9.0, size)
            if size is None or value is True:
                call[key] = value
            else:
                call[key] = np.append(np.resize(call[key], size - 1), value)
            with pytest.raises(kind) as info:
                evaluator(**call)
            errors.add((type(info.value), str(info.value)))
        assert len(errors) == 1, errors

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
        degrees = np.resize([0, 1, 2, 7, 200, 201], _FEW_LANES)  # the array pass, in plain mode
        alphas = np.random.default_rng(9).uniform(-0.5, 50.0, degrees.size)
        x = np.random.default_rng(10).uniform(0.0, 900.0, degrees.size)
        x[1::12] = 1e300  # every other degree-1 lane
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

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    @pytest.mark.parametrize("n,alpha,x", [
        (3, 0.5, np.ones((2, 3))),
        (3, 0.5, np.ones((8, 8))),
        (np.full((2, 2), 3), 0.5, 1.0),
        (3, np.full((1, 4), 0.5), np.ones(4)),
    ])
    def test_lanes_beyond_one_dimension_rejected(self, evaluator, n, alpha, x):
        with pytest.raises(ParameterError, match="lane arrays must be 1-D"):
            evaluator(n, alpha, x)

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    @pytest.mark.parametrize("n,alpha,x", [
        (np.array([3, 2]), 0.5, np.ones(3)),
        (3, np.array([0.5, 1.0]), np.ones(3)),
        (np.array([3, 2, 1]), np.full(4, 0.5), 1.0),
    ])
    def test_lanes_that_do_not_broadcast_rejected(self, evaluator, n, alpha, x):
        with pytest.raises(ParameterError, match=r"do not broadcast, got shapes \("):
            evaluator(n, alpha, x)

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_narrow_alpha_lanes_run_in_double(self, evaluator, dtype):
        # numpy would keep alpha + 1.0 in float32 (or float16) in the array pass
        alphas, x = np.full(64, 0.3, dtype=dtype), np.linspace(0.0, 80.0, 64)
        mantissas, exponents = evaluator(60, alphas, x)
        pointwise = [evaluator(60, a, v) for a, v in zip(alphas.tolist(), x.tolist())]
        assert mantissas.tobytes() == np.array([sv.mantissa for sv in pointwise]).tobytes()
        assert exponents.tolist() == [sv.exponent2 for sv in pointwise]

    def test_lanes_span_many_scales(self):
        _, exponents = laguerre_polynomial(200, 1e4, np.linspace(0.0, 3e4, 64))
        assert max(exponents) - min(exponents) > 500

    def test_empty_array(self):
        mantissas, exponents = laguerre_polynomial(5, 1.0, np.array([]))
        assert mantissas.size == 0 and exponents.size == 0


class TestDerivative:
    def test_linear_case(self):
        assert derivative(1, 0.5, 7.0) == -1.0

    def test_quadratic_at_its_vertex(self):
        # L_2^(0)'(x) = x - 2
        assert derivative(2, 0.0, 2.0) == 0.0

    def test_shifted_identity_at_origin(self):
        # L_2^(1)'(0) = -L_1^(2)(0) = -3
        assert derivative(2, 1.0, 0.0) == -3.0

    @pytest.mark.parametrize("n,alpha,x", [(4, 0.0, 2.5), (9, 2.5, 11.0), (20, 10.0, 40.0)])
    def test_matches_central_differences(self, n, alpha, x):
        h = x * 1e-7
        numeric = (laguerre_polynomial(n, alpha, x + h).to_float()
                   - laguerre_polynomial(n, alpha, x - h).to_float()) / (2 * h)
        assert numeric == pytest.approx(derivative(n, alpha, x), rel=1e-6)

    @pytest.mark.parametrize("n,alpha,x", [(1, 0.5, 7.0), (4, 0.0, 2.5), (9, 2.5, 11.0),
                                           (20, 10.0, 40.0), (200, 1e4, 9e3)])
    def test_previous_value_gives_the_derivative(self, n, alpha, x):
        # refine's form: x L_n' = n L_n - (n + alpha) L_{n-1} (DLMF 18.9.14)
        value, previous = laguerre_polynomial(n, alpha, x, previous=True)
        with mp.workdps(40):
            got = (n * sv_to_mp(value) - (n + alpha) * sv_to_mp(previous)) / x
            want = -sv_to_mp(laguerre_polynomial(n - 1, alpha + 1.0, x))
            assert abs(got - want) <= 1e-12 * abs(want)


class TestOracleOnWindowGrid:
    @pytest.mark.parametrize("n", [1, 5, 25, 100, 200])
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 1.0, 10.0, 100.0, 1e3, 1e4])
    def test_array_call_matches_mpmath(self, n, alpha):
        # 50 midpoints across the zero window (V^2, U^2). The error is measured
        # against max(|L|, |x L'|), the scale of L near its zeros, where |L|
        # alone vanishes; mp.laguerre at 40 digits is the oracle.
        edge = edge_params(LaguerreParams(n, alpha))
        points = edge.V2 + (edge.U2 - edge.V2) * (np.arange(50) + 0.5) / 50.0
        mantissas, exponents = laguerre_polynomial(n, alpha, points)
        with mp.workdps(40):
            for m, e, x in zip(mantissas.tolist(), exponents.tolist(), points.tolist()):
                exact = mp.laguerre(n, alpha, x)
                scale = max(abs(exact), abs(x * mp.laguerre(n - 1, alpha + 1, x)))
                assert abs(mp.ldexp(m, e) - exact) <= 1e-12 * scale, x


class TestDegreeLimit:
    """Every degree door refuses a degree past _MAX_DEGREE with a ParameterError
    naming it and the limit, before any work sized by the degree."""

    def test_params(self):
        assert LaguerreParams(_MAX_DEGREE, 1.0).n == _MAX_DEGREE
        for n in (_MAX_DEGREE + 1, 2**40):
            with pytest.raises(ParameterError, match=f"degree must be <= {_MAX_DEGREE}, got {n}$"):
                LaguerreParams(n, 1.0)

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    @pytest.mark.parametrize("n", [_MAX_DEGREE + 1, 2**63, 2**70, np.uint64(2**63),
                                   np.array([3, _MAX_DEGREE + 1]), np.array([2**63], dtype=np.uint64)])
    def test_evaluators(self, evaluator, n):
        # an empty x does no step, so a missing check returns instead of hanging
        high = int(np.max(n))
        with pytest.raises(ParameterError, match=f"degree must be <= {_MAX_DEGREE}, got {high}$"):
            evaluator(n, 0.5, np.array([]))
        with pytest.raises(ParameterError, match=f"degree must be <= {_MAX_DEGREE}, got {high}$"):
            evaluator(n, 0.5, np.ones(60) if np.ndim(n) == 0 else np.ones(np.size(n)))

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    def test_limit_itself_evaluates(self, evaluator):
        assert math.isfinite(evaluator(_MAX_DEGREE, 0.5, 1.0).mantissa)
        assert evaluator(np.array([_MAX_DEGREE]), 0.5, np.array([]))[0].size == 0

    def test_sweep_config_and_limit_probe(self):
        from laguerre_spacings.bessel import limit_probe
        from laguerre_spacings.report import SweepConfig

        with pytest.raises(ParameterError, match=f"malformed n_values: degree must be <= {_MAX_DEGREE}"):
            SweepConfig(n_values=(10, 2**40), alpha_values=(1.0,))
        with pytest.raises(ParameterError, match=f"degree must be <= {_MAX_DEGREE}, got {2**40}"):
            limit_probe(0.5, 1, (20, 2**40))


def _reference_plain_lane(n, alpha, x, rescaled_at=None):
    """_plain_lane as a loop that forms every step term itself (no step table), giving
    (value, previous, shift); the list rescaled_at, if given, collects the steps k
    (computing L_{k+1}) at which it rescales down from above 2**512."""
    hi, lo = laguerre._RESCALE_HI, laguerre._RESCALE_LO
    shift, prev, cur, k = 0, 1.0, alpha + 1.0 - x, 1.0
    for _ in range(n - 1):
        k1 = k + 1.0
        prev, cur = cur, ((k + k1 + alpha - x) * cur - (k + alpha) * prev) / k1
        k = k1
        if not lo <= abs(cur) <= hi:
            m = max(abs(prev), abs(cur))
            if m > hi or 0.0 < m < lo:
                e = math.frexp(m)[1]
                prev, cur, shift = math.ldexp(prev, -e), math.ldexp(cur, -e), shift + e
                if rescaled_at is not None and m > hi:
                    rescaled_at.append(int(k) - 1)
    return cur, prev, shift


def _reference_compensated_lane(n, alpha, x):
    """_compensated_lane as a loop that forms every step term itself (no step table)."""
    hi, lo, ldexp = laguerre._RESCALE_HI, laguerre._RESCALE_LO, math.ldexp
    split = 134217729.0

    def two_sum(a, b):
        s = a + b
        bb = s - a
        return s, (a - (s - bb)) + (b - bb)

    def halves(a):
        t = split * a
        h = t - (t - a)
        return h, a - h

    def two_prod_err(ah, al, bh, bl, p):  # the error of the product p of ah + al and bh + bl
        return ((ah * bh - p) + ah * bl + al * bh) + al * bl

    nx = -x
    s, e1 = two_sum(alpha, 1.0)
    cur, e2 = two_sum(s, nx)
    shift, prev, prev_c, cur_c = 0, 1.0, 0.0, e1 + e2
    ph, pl, k = 1.0, 0.0, 1.0
    for _ in range(n - 1):
        k1 = k + 1.0
        s, e0 = two_sum(k + k1, alpha)
        a_main, e = two_sum(s, nx)
        a_err = e0 + e
        b_main, b_err = two_sum(k, alpha)
        t1 = a_main * cur
        ah, al = halves(a_main)
        ch, cl = halves(cur)
        t1e = two_prod_err(ah, al, ch, cl, t1) + (a_main * cur_c + a_err * cur)
        t2 = b_main * prev
        bh, bl = halves(b_main)
        t2e = two_prod_err(bh, bl, ph, pl, t2) + (b_main * prev_c + b_err * prev)
        num, num_e = two_sum(t1, -t2)
        num_e += t1e - t2e
        q = num / k1
        qc = q * k1
        qh, ql = halves(q)
        kh, kl = halves(k1)
        q_err = ((num - qc) - two_prod_err(qh, ql, kh, kl, qc) + num_e) / k1
        prev, prev_c, ph, pl = cur, cur_c, ch, cl
        cur, cur_c = two_sum(q, q_err)
        k = k1
        if not lo <= abs(cur) <= hi:
            m = max(abs(prev), abs(cur))
            if m > hi or 0.0 < m < lo:
                e = math.frexp(m)[1]
                prev, cur, shift = ldexp(prev, -e), ldexp(cur, -e), shift + e
                prev_c, cur_c = ldexp(prev_c, -e), ldexp(cur_c, -e)
                ph, pl = halves(prev)
    return cur + cur_c, shift


# Lanes that rescale partway through a table (n = 200, alpha = 1e4), the
# clustered small zeros, every-step rescaling and a split that overflows.
TABLE_LANES = ([(200, 1e4, x) for x in np.linspace(0.0, 3e4, 13).tolist()]
               + [(200, 0.5, x) for x in np.concatenate(([0.0], zeros(LaguerreParams(200, 0.5)).zeros[:8])).tolist()]
               + [(30, 1e100, 1e99), (5, 1e120, 3e120), (30, 1.0, 1e130), (4, 1.5e300, 1.0),
                  (1000, -0.5, 0.001), (3, -1.0 + 2.0**-52, 0.0), (2, 0.0, 2.0), (2, -0.0, 2.0)])


def _bits(*lane):
    """A kernel's (value, shift) or (value, previous, shift) as comparable bits."""
    return (*(np.float64(v).tobytes() for v in lane[:-1]), lane[-1])


class TestStepTables:
    """Both lane kernels read one per-(degree, alpha) step table from a bounded cache;
    the bits are those of a loop that forms every term itself, whatever the cache holds."""

    KERNELS = [(laguerre._plain_lane, _reference_plain_lane, laguerre._plain_steps),
               (laguerre._compensated_lane, _reference_compensated_lane, laguerre._plain_steps)]

    @pytest.mark.parametrize("kernel,reference,table", KERNELS)
    def test_kernels_match_the_loop(self, kernel, reference, table):
        want = [_bits(*reference(*lane)) for lane in TABLE_LANES]
        table.cache_clear()
        cold = [_bits(*kernel(*lane)) for lane in TABLE_LANES]  # a table built for each key
        warm = [_bits(*kernel(*lane)) for lane in TABLE_LANES[::-1]][::-1]
        assert cold == want and warm == want

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    def test_more_keys_than_the_cache_holds(self, evaluator):
        keys = [(n, a) for n in (1, 2, 40, 200) for a in (-0.5, 0.0, -0.0, 3.0, 1e4)]
        assert len(keys) > 3 * laguerre._TABLES
        points = np.array([0.0, 0.7, 3.0, 250.0, 2.5e4])

        def outcome(order):
            got = {}
            for n, a in order:  # a float call and a short array call (the lane kernels)
                sv = evaluator(n, a, 3.0)
                m, e = evaluator(n, a, points)
                got[n, a] = (sv.mantissa, sv.exponent2, m.tobytes(), e.tobytes())
            return got

        first = outcome(keys)
        assert outcome(keys[::-1]) == first
        laguerre._plain_steps.cache_clear()
        assert outcome(keys) == first
        for n, a in keys:
            if n:
                reference = (_reference_compensated_lane if evaluator is laguerre_polynomial_compensated
                             else _reference_plain_lane)
                value, *_, shift = reference(n, a, 3.0)
                assert ScaledValue.from_float(value, shift) == ScaledValue(*first[n, a][:2])

    def test_cache_is_bounded(self):
        for n in range(2, 3 * laguerre._TABLES + 2):
            laguerre._plain_steps(n, 0.5)
        info = laguerre._plain_steps.cache_info()
        assert info.maxsize == laguerre._TABLES and info.currsize == laguerre._TABLES

    def test_tables_are_immutable_and_sized_by_degree(self):
        rows = laguerre._plain_steps(40, 0.5)
        assert isinstance(rows, tuple) and len(rows) == 39
        assert all(isinstance(row, tuple) and len(row) == 3 for row in rows)
        assert laguerre._plain_steps(1, 0.5) == ()

    def test_every_step_divisor_splits_exactly(self):
        # _compensated_lane takes k + 1 as its own upper Veltkamp half; the
        # reference loops split it, so the kernels match only if the split is exact.
        k1 = np.arange(1.0, _MAX_DEGREE + 2.0)
        h = laguerre._SPLIT * k1
        assert np.array_equal(h - (h - k1), k1) and _MAX_DEGREE + 1 < 2**26

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=300),
           alpha=st.one_of(st.floats(min_value=-1.0, max_value=1e4, exclude_min=True),
                           st.floats(min_value=1e4, max_value=1e300)),
           x=st.one_of(st.floats(min_value=0.0, max_value=1e4), st.floats(min_value=0.0, max_value=1e300)))
    def test_kernels_match_the_loop_anywhere(self, n, alpha, x):
        for kernel, reference, _ in self.KERNELS:
            assert _bits(*kernel(n, alpha, x)) == _bits(*reference(n, alpha, x))


class TestArrayPassInputs:
    """The array pass leaves the caller's arrays alone and gives every layout of them
    the same bits."""

    def test_inputs_are_left_unchanged(self):
        degrees = np.repeat([200, 199], 40)
        alphas, x = np.repeat([1e4, 1e4 + 1.0], 40), np.tile(np.linspace(0.0, 3e4, 40), 2)
        copies = degrees.copy(), alphas.copy(), x.copy()
        laguerre_polynomial(degrees, alphas, x)
        for got, want in zip((degrees, alphas, x), copies):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,alpha", [(200, 1e4), (200, 0.5), (30, 1e100)])
    def test_strided_and_narrow_arrays_match_contiguous_ones(self, n, alpha):
        wide = np.linspace(0.0, 3.0 * (n + alpha), 2 * _FEW_LANES + 2)
        degrees, alphas = np.full(wide.size, n), np.full(wide.size, alpha)
        want = laguerre_polynomial(degrees[::2].copy(), alphas[::2].copy(), wide[::2].copy())
        for args in ((degrees[::2], alphas[::2], wide[::2]),
                     (degrees[::2].astype(np.int32), alphas[::2], wide[::2]),
                     (n, alpha, wide[::2]), (np.array([n]), np.array([alpha]), wide[::2])):
            got = laguerre_polynomial(*args)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("evaluator", [laguerre_polynomial, laguerre_polynomial_compensated])
    def test_one_lane_arrays_broadcast_against_empty(self, evaluator):
        for n, alpha in ((np.array([3]), 0.5), (3, np.array([0.5])), (np.array([3]), np.array([0.5]))):
            mantissas, exponents = evaluator(n, alpha, np.array([]))
            assert mantissas.shape == exponents.shape == (0,)


class TestPreviousValue:
    """previous=True gives L_{n-1}^(alpha)(x) beside L_n^(alpha)(x) from one pass: a lane's
    previous value has the normalized bits of its own call at degree n - 1 (L_{-1} = 0
    for a degree-0 lane), and its value those of the default call."""

    @staticmethod
    def assert_previous_matches(degrees, alphas, x):
        (m, e), (pm, pe) = laguerre_polynomial(degrees, alphas, x, previous=True)
        want = laguerre_polynomial(degrees, alphas, x)
        assert m.tobytes() == want[0].tobytes() and e.tobytes() == want[1].tobytes()
        degrees = np.broadcast_to(degrees, x.shape)
        lower_m, lower_e = laguerre_polynomial(np.maximum(degrees - 1, 0), alphas, x)
        finite = np.isfinite(m) & (degrees > 0)
        assert pm[finite].tobytes() == lower_m[finite].tobytes()
        assert pe[finite].tobytes() == lower_e[finite].tobytes()
        assert not pm[degrees == 0].any() and not pe[degrees == 0].any()
        return m

    @pytest.mark.parametrize("size", [_FEW_LANES - 1, _FEW_LANES + 1])  # lane kernels, _recurrence
    def test_mixed_degrees(self, size):
        rng = np.random.default_rng(size)
        degrees = rng.integers(0, 60, size)
        degrees[:4] = 0, 1, 1, 59
        self.assert_previous_matches(degrees, rng.uniform(-0.9, 3.0, size),
                                     rng.uniform(0.0, 200.0, size))

    def test_lanes_rescale_inside_a_stride(self):
        x = np.sort(np.random.default_rng(19).uniform(0.0, 3e4, 150))
        stride, steps = laguerre._stride(200, np.full(x.size, 1e4), x), []
        for v in x.tolist():
            _reference_plain_lane(200, 1e4, v, steps)
        assert stride > 1 and any(k % stride for k in steps)
        for lanes in (x[:_FEW_LANES - 1], x):
            self.assert_previous_matches(np.full(lanes.size, 200), 1e4, lanes)

    def test_lane_leaving_double_range_beside_finite_lanes(self):
        degrees, alphas = np.full(48, 200), np.append(np.full(47, 1e4), 1e200)
        x = np.append(np.linspace(1.0, 3e4, 47), 1.0)
        for lanes in (slice(48 - _FEW_LANES + 1, None), slice(None)):
            m = self.assert_previous_matches(degrees[lanes], alphas[lanes], x[lanes])
            assert not math.isfinite(m[-1]) and np.isfinite(m[:-1]).all()

    @pytest.mark.parametrize("n,alpha,x", [(0, 2.0, 3.0), (1, 2.0, 3.0), (7, 0.5, 3.0),
                                           (200, 1e4, 3e4), (1000, -0.5, 0.001)])
    def test_float_calls(self, n, alpha, x):
        value, previous = laguerre_polynomial(n, alpha, x, previous=True)
        assert value == laguerre_polynomial(n, alpha, x)
        assert previous == (laguerre_polynomial(n - 1, alpha, x) if n else ScaledValue(0.0, 0))

    def test_float_call_out_of_range_raises(self):
        with pytest.raises(ParameterError, match="left double range"):
            laguerre_polynomial(5, 1e200, 1.0, previous=True)


class TestStridedRescaleCheck:
    """_recurrence tests for rescaling once every _stride(...) steps; every finite lane
    keeps _plain_lane's normalized bits, of its value and of the previous value, and
    the same lanes leave double range."""

    @staticmethod
    def assert_lanes_match(degrees, alphas, x):
        degrees, alphas, x = (np.asarray(v, dtype) for v, dtype in
                              ((degrees, np.int64), (alphas, float), (x, float)))
        (value, previous), shift = laguerre._recurrence(degrees, alphas, x)
        for i, (d, a, v) in enumerate(zip(degrees.tolist(), alphas.tolist(), x.tolist())):
            want_value, want_previous, want_shift = (_reference_plain_lane(d, a, v) if d
                                                     else (1.0, 0.0, 0))
            assert math.isfinite(want_value) == math.isfinite(value[i]), (d, a, v)
            if math.isfinite(want_value):
                for got, want in ((value[i], want_value), (previous[i], want_previous)):
                    assert (laguerre._normalized(float(got), int(shift[i]))
                            == laguerre._normalized(want, want_shift)), (d, a, v)

    def test_lanes_cross_2_512_inside_and_at_stride_boundaries(self):
        rng = np.random.default_rng(19)
        x = np.sort(rng.uniform(0.0, 3e4, 150))
        degrees, alphas = np.full(x.size, 200), np.full(x.size, 1e4)
        stride = laguerre._stride(200, alphas, x)
        assert stride > 1
        steps = []
        for v in x.tolist():
            _reference_plain_lane(200, 1e4, v, steps)
        assert any(k % stride == 0 for k in steps) and any(k % stride for k in steps)
        self.assert_lanes_match(degrees, alphas, x)

    def test_mixed_degrees_end_inside_a_stride(self):
        # refine's stacked pass, with degrees that end at, and between, check steps
        rng = np.random.default_rng(20)
        for n, alpha, top in ((1000, -0.5, 3900.0), (300, 0.5, 1200.0), (120, 1e4, 1.2e4)):
            degrees = rng.integers(0, n + 1, 120)
            degrees[:2] = n, n - 1
            alphas = alpha + rng.integers(0, 2, 120)
            x = rng.uniform(0.0, top, 120)
            stride = laguerre._stride(n, alphas, x)
            assert stride > 1
            assert any(d % stride == 0 for d in degrees) and any(d % stride for d in degrees)
            self.assert_lanes_match(degrees, alphas, x)

    @pytest.mark.parametrize("n,alpha,x", [
        (60, 1e20, np.linspace(0.0, 3e20, 40)),  # a_k - x can vanish at many steps
        (30, 1e100, np.array([0.0, 1e50, 1e99, 1e100, 2e100] + [1.0] * 35)),
        (200, 1e4, np.append(np.linspace(0.0, 3e4, 39), 1e300)),
        (5, 1e150, np.linspace(0.0, 3e150, 40)),
    ])
    def test_stride_falls_back_to_one(self, n, alpha, x):
        alphas = np.full(x.size, alpha)
        assert laguerre._stride(n, alphas, x) == 1
        self.assert_lanes_match(np.full(x.size, n), alphas, x)

    def test_lane_leaving_double_range_beside_finite_lanes(self):
        # On their own the finite lanes check every 30-odd steps; the lane at
        # alpha = 1e200 leaves double range at step 1, inside such a stride, so
        # the bound sets the stride to 1.
        finite = np.linspace(1.0, 3e4, 47)
        degrees, alphas = np.full(48, 200), np.append(np.full(47, 1e4), 1e200)
        x = np.append(finite, 1.0)
        assert laguerre._stride(200, alphas[:47], finite) > 1
        assert laguerre._stride(200, alphas, x) == 1
        self.assert_lanes_match(degrees, alphas, x)
        assert not np.isfinite(laguerre._recurrence(degrees, alphas, x)[0][0, -1])

    def test_seeded_lanes_anywhere(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.choice([3, 20, 100, 400]))
            alpha = float(rng.choice([-1.0 + 10.0 ** rng.uniform(-15, -1), rng.uniform(-0.9, 2.0),
                                      10.0 ** rng.uniform(0, 40)]))
            x = 10.0 ** rng.uniform(-6, np.log10(4.0 * n + 2.0 * alpha + 10.0) + 1.0, 24)
            degrees = rng.integers(0, n + 1, 24)
            self.assert_lanes_match(degrees, alpha + rng.integers(0, 2, 24), x)
