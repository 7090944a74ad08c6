"""Bessel-zero tests: eigenproblem zeros, gap facts, and the scaled-spacing limit."""

import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp
from scipy.special import jv, jvp

import laguerre_spacings
from laguerre_spacings import (
    DomainError,
    LaguerreParams,
    ParameterError,
    bessel,
    bessel_zero,
    bessel_zero_table,
    eigen_zeros,
    gap_facts,
    limit_probe,
    solver,
    uniform_spacing_lower,
    zeros,
)


def scipy_bisect_zero(alpha: float, lo: float, hi: float) -> float:
    """Independent oracle: bisect scipy's J_alpha over a sign-change bracket."""
    flo = jv(alpha, lo)
    assert flo * jv(alpha, hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if flo * jv(alpha, mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, jv(alpha, lo)
    return 0.5 * (lo + hi)


class TestZeros:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 20])
    def test_half_integer_closed_form(self, k):
        # J_{1/2} is proportional to sin(x)/sqrt(x): zeros at k*pi exactly.
        assert bessel_zero(0.5, k) == pytest.approx(k * math.pi, rel=1e-13)

    def test_first_zero_alpha_zero(self):
        got = bessel_zero(0.0, 1)
        assert got == pytest.approx(2.404825557695773, rel=1e-12)
        assert got == pytest.approx(scipy_bisect_zero(0.0, 2.0, 3.0), rel=1e-12)

    def test_second_zero_alpha_zero(self):
        assert bessel_zero(0.0, 2) == pytest.approx(5.520078110286311, rel=1e-12)

    def test_alpha_one(self):
        assert bessel_zero(1.0, 1) == pytest.approx(
            scipy_bisect_zero(1.0, 3.0, 4.5), rel=1e-12
        )

    def test_near_negative_one(self):
        got = bessel_zero(-0.9, 1)
        assert got == pytest.approx(scipy_bisect_zero(-0.9, 0.1, 2.0), rel=1e-10)

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.0])
    def test_residual_bound_via_scipy(self, alpha):
        table = bessel_zero_table(alpha, 20)
        for z in table.zeros:
            scale = max(1.0, abs(jvp(alpha, z)) * z)
            assert abs(jv(alpha, z)) <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", [-1 + 2e-9, -1 + 1e-12])
    def test_first_rank_near_minus_one(self, alpha):
        # j_{alpha,1} ~ 2 sqrt(alpha + 1) -> 0 while j_{alpha,2} -> j_{1,1}; a
        # finder that lands on j_{alpha,2} for rank 1 shifts every rank by one.
        assert bessel_zero(alpha, 1) == pytest.approx(
            scipy_bisect_zero(alpha, 1e-8, 1e-3), rel=1e-12
        )
        assert bessel_zero(alpha, 2) == pytest.approx(3.8317, abs=1e-4)

    @pytest.mark.parametrize("alpha", [-1 + 2e-9, -0.999, -0.9, -0.5, 0.0, 0.37, 1.0])
    def test_every_rank_within_2e_15_of_mpmath(self, alpha):
        # 40-digit roots of J_alpha, started from the computed zeros
        with mp.workdps(40):
            for k in range(1, 21):
                got = bessel_zero(alpha, k)
                root = mp.findroot(lambda x: mp.besselj(alpha, x), mp.mpf(got))
                assert abs(float((got - root) / root)) <= 2e-15, k

    @pytest.mark.parametrize("alpha,k", [(1.5, 1), (-1.0, 1), (0.0, 0), (0.0, 21),
                                         (0.0, 2.5), (0.0, True), (True, 1)])
    def test_domain_rejections(self, alpha, k):
        with pytest.raises(DomainError):
            bessel_zero(alpha, k)

    def test_numpy_integer_rank(self):
        # Refused as "rank must be an integer" where a degree may be any Integral.
        assert bessel_zero(0.5, np.int64(2)) == bessel_zero(0.5, 2)

    @pytest.mark.parametrize("alpha,double", [
        (np.float32(0.5), 0.5), (np.int64(1), 1.0), (Fraction(1, 2), 0.5)])
    def test_real_alpha_runs_as_its_double(self, alpha, double):
        # Refused as "alpha must be a finite real" where LaguerreParams took all three.
        assert bessel_zero(alpha, 3) == bessel_zero(double, 3)
        table = bessel_zero_table(alpha, 5)
        assert type(table.alpha) is float
        assert table.zeros.tobytes() == bessel_zero_table(double, 5).zeros.tobytes()
        probe, want = limit_probe(alpha, 1, (10, 20)), limit_probe(double, 1, (10, 20))
        assert type(probe.alpha) is float and probe.target == want.target
        assert probe.scaled_spacings.tobytes() == want.scaled_spacings.tobytes()


ALPHAS = [float(a) for a in np.random.default_rng(24).uniform(-1.0, 1.0, 40)] + [
    -1.0 + 1e-15, 0.0, 1.0]


class TestTopDeflations:
    # _zeros stops the QL after the MAX_RANK values it keeps; its bits must be
    # those of the full eigen_zeros, certificate or fallback.
    @staticmethod
    def full_ql(alpha):
        return 1.0 / np.sqrt(eigen_zeros(bessel._ikebe_even_block(alpha))[:-21:-1])

    @staticmethod
    def count_yields(monkeypatch):
        yielded = []

        def deflations(block):
            for value in solver._deflations(block):
                yielded.append(value)
                yield value

        monkeypatch.setattr(bessel, "_deflations", deflations)
        return yielded

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_certified_top_is_the_full_ql(self, monkeypatch, alpha):
        yielded = self.count_yields(monkeypatch)
        assert bessel._zeros.__wrapped__(alpha).tobytes() == self.full_ql(alpha).tobytes()
        assert len(yielded) == 20

    @pytest.mark.parametrize("alpha", ALPHAS[::8] + ALPHAS[-3:])
    def test_fallback_is_the_full_ql(self, monkeypatch, alpha):
        yielded = self.count_yields(monkeypatch)
        monkeypatch.setattr(bessel, "_count_below", lambda block, t: -1)
        assert bessel._zeros.__wrapped__(alpha).tobytes() == self.full_ql(alpha).tobytes()
        assert len(yielded) == 50


class TestTable:
    def test_strictly_increasing(self):
        table = bessel_zero_table(0.25, 12)
        assert table.zeros.size == 12
        assert np.all(np.diff(table.zeros) > 0)

    @pytest.mark.parametrize("z", [[1.0, math.nan, 3.0], [1.0, 2.0, math.inf], [math.nan],
                                   [-math.inf, 1.0], [2.0, 1.0], [1.0, 1.0]])
    def test_refuses_zeros_not_finite_and_increasing(self, z):
        # np.min(np.diff(z)) <= 0.0 let a nan gap and an infinite end through
        with pytest.raises(ParameterError, match="zeros must be finite and strictly increasing"):
            bessel.BesselZeroTable(alpha=0.5, zeros=z)

    def test_count_cap(self):
        with pytest.raises(DomainError):
            bessel_zero_table(0.0, 21)
        with pytest.raises(DomainError):
            bessel_zero_table(0.0, 0)
        with pytest.raises(DomainError):
            bessel_zero_table(0.0, True)

    def test_numpy_integer_count(self):
        table = bessel_zero_table(0.5, np.int64(3))
        assert table.zeros.tobytes() == bessel_zero_table(0.5, 3).zeros.tobytes()


class TestGapFacts:
    def test_half_integer_gaps_exactly_pi(self):
        facts = gap_facts(bessel_zero_table(0.5, 10))
        assert facts.gaps == pytest.approx(np.full(9, math.pi), rel=1e-13)
        assert facts.all_gaps_in_band
        assert facts.all_sums_ok

    def test_alpha_one_in_band(self):
        facts = gap_facts(bessel_zero_table(1.0, 10))
        assert facts.all_gaps_in_band
        # first pair sum is comfortably above 1 + alpha = 2
        assert facts.pair_sums[0] >= 2.0

    def test_alpha_zero_first_gap_undershoots_pi(self):
        # The printed lower gap bound fails for |alpha| < 1/2: the first
        # gap of J_0 is 3.11525... < pi. Recorded as a flag, not asserted.
        facts = gap_facts(bessel_zero_table(0.0, 6))
        assert facts.gaps[0] == pytest.approx(3.115252552590538, rel=1e-12)
        assert facts.gaps[0] < math.pi
        assert np.all(facts.gaps <= 2.0 * math.pi)
        assert facts.all_sums_ok
        assert not facts.all_gaps_in_band

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.0])
    def test_sum_facts_hold_everywhere(self, alpha):
        table = bessel_zero_table(alpha, 10)
        facts = gap_facts(table)
        assert facts.all_sums_ok
        # the pi-variant of the intermediate member, 2 sqrt((k - 1/4)^2 pi + alpha^2),
        # stays below the pair sum on this range (not part of the flag)
        k = np.arange(1, table.zeros.size)
        member_pi = 2.0 * np.sqrt((k - 0.25) ** 2 * math.pi + alpha**2)
        assert np.all(member_pi <= facts.pair_sums * (1 + 1e-9))

    @pytest.mark.parametrize("alpha", [-0.9, 0.3, 1.0])
    def test_arrays_match_the_float_loop(self, alpha):
        # Elementwise numpy arithmetic gives the bits of the per-pair float loop.
        z = bessel_zero_table(alpha, 20).zeros.tolist()
        facts = gap_facts(bessel_zero_table(alpha, 20))
        assert facts.gaps.tolist() == [b - a for a, b in zip(z, z[1:])]
        assert facts.pair_sums.tolist() == [b + a for a, b in zip(z, z[1:])]

    def test_needs_two_zeros(self):
        with pytest.raises(ParameterError):
            gap_facts(bessel_zero_table(0.0, 1))


class TestLimitProbe:
    def test_half_integer_probe(self):
        probe = limit_probe(0.5, 1, [25, 50, 100, 200])
        assert probe.target == pytest.approx(3 * math.pi**2, rel=1e-12)
        assert probe.asymptotic_limit == pytest.approx(0.75 * math.pi**2, rel=1e-12)
        devs = probe.deviations
        assert np.all(np.diff(devs) < 0)  # monotone improvement along the grid
        assert devs[-1] <= 0.05
        # the squared-zero difference itself is approached once the quarter
        # from x ~ j^2/(4(n + (alpha+1)/2)) is accounted for
        assert probe.scaled_spacings[-1] / probe.target == pytest.approx(0.25, abs=0.01)

    def test_alpha_zero_probe(self):
        j1 = 2.404825557695773
        j2 = 5.520078110286311
        probe = limit_probe(0.0, 1, [25, 50, 100])
        assert probe.target == pytest.approx(j2 * j2 - j1 * j1, rel=1e-11)
        devs = probe.deviations
        assert np.all(np.diff(devs) < 0)
        assert devs[-1] <= 0.05

    def test_rank_needs_enough_degrees(self):
        with pytest.raises(ParameterError):
            limit_probe(0.5, 3, [3, 10])
        with pytest.raises(ParameterError):
            limit_probe(0.5, 1, [])
        with pytest.raises(ParameterError):
            limit_probe(0.5, True, [3, 10])

    def test_numpy_integer_rank(self):
        probe = limit_probe(0.5, np.int64(1), [10])
        assert type(probe.k) is int
        assert probe.scaled_spacings.tobytes() == limit_probe(0.5, 1, [10]).scaled_spacings.tobytes()

    @pytest.mark.parametrize("grid", [5, None, "abc", np.array(10)])
    def test_grid_that_is_no_collection_refused(self, grid):
        # 5, None and the 0-D array raised an untyped TypeError, and "abc" read as the
        # degrees 'a', 'b' and 'c'
        with pytest.raises(ParameterError, match=re.escape(
                f"degree grid must be a collection of degrees, got {grid!r}")):
            limit_probe(0.5, 1, grid)

    @pytest.mark.parametrize("degree", [40.9, "x", True])
    def test_degree_must_be_an_integer(self, degree):
        # A float degree was truncated (40.9 ran n = 40), and a string raised
        # int()'s untyped ValueError.
        with pytest.raises(ParameterError, match=re.escape(f"got {degree!r}")):
            limit_probe(0.5, 1, [10, degree])

    def test_small_rank_inverse_degree_scaling(self):
        # n * spacing moves by less than 10% between n = 100 and n = 200.
        s = {}
        for n in (100, 200):
            zs = zeros(LaguerreParams(n, 0.0))
            s[n] = n * float(zs.zeros[1] - zs.zeros[0])
        assert abs(s[100] / s[200] - 1.0) < 0.10

    @pytest.mark.parametrize("n", [25, 50, 100, 200])
    def test_scaled_uniform_bound_stays_below(self, n):
        # n * (uniform bound) never crosses n * spacing on the probe grid.
        params = LaguerreParams(n, 0.0)
        zs = zeros(params)
        scaled_bound = n * uniform_spacing_lower(params)
        scaled_gaps = n * np.diff(zs.zeros)
        assert np.all(scaled_gaps > scaled_bound)


def test_import_needs_no_mpmath():
    # A None entry in sys.modules makes any import of mpmath raise ImportError.
    src = str(Path(laguerre_spacings.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); sys.modules['mpmath'] = None; "
            "import laguerre_spacings")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
