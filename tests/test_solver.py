"""Zero-solver tests: Jacobi matrix, QL eigenvalues, Newton certification."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from laguerre_spacings import (
    ConvergenceError,
    LaguerreParams,
    ParameterError,
    RefinementError,
    ZeroSet,
    build_jacobi,
    eigen_zeros,
    laguerre_polynomial,
    refine,
    solver,
    zeros,
)
from laguerre_spacings.bounds import edge_params, krasikov_window
from laguerre_spacings.laguerre import laguerre_polynomial_compensated

# Roots of x^3 - 9x^2 + 18x - 6 frozen from a 200-step bisection oracle
# (the monic form of the degree-3, alpha=0 case).
CUBIC_ROOTS = (0.4157745567834791, 2.294280360279041, 6.289945082937479)

SWEEP = [(n, a) for n in (10, 20, 50, 100) for a in (1.0, 100.0, 1e3, 1e4)]
EDGE_CASES = [(2, -0.9), (2, 0.0), (50, -0.5)]


EPS = float(np.finfo(float).eps)


def reference_step(params: LaguerreParams, z: float, compensated: bool) -> float:
    evaluate = laguerre_polynomial_compensated if compensated else laguerre_polynomial
    value = evaluate(params.n, params.alpha, z)
    dneg = laguerre_polynomial(params.n - 1, params.alpha + 1.0, z)
    if dneg.is_zero():
        raise RefinementError(f"derivative vanished at {z!r} during refinement")
    return -value.ratio_to(dneg)


def reference_refine(params: LaguerreParams, approx) -> ZeroSet:
    """Newton one zero at a time on float calls, with refine's stop test
    (4 eps), cap (20), escalation (residual > 16) and checks."""
    seeds = np.asarray(approx, dtype=float)
    n = params.n
    if seeds.size != n:
        raise RefinementError(f"expected {n} seeds, got {seeds.size}")
    if n > 1 and np.min(np.diff(seeds)) <= 0.0:
        raise RefinementError("seeds are not strictly increasing")
    for a, b in zip(seeds[:-1], seeds[1:]):
        if b - a < 1e3 * EPS * abs(b):
            raise ConvergenceError(f"near-duplicate zeros {a!r} and {b!r}; "
                                   "theory guarantees simple zeros")
    mids = 0.5 * (seeds[:-1] + seeds[1:])
    lo = np.concatenate(([0.0], mids))
    hi = np.concatenate((mids, [math.inf]))
    refined, residuals = [], []
    for i, z in enumerate(seeds.tolist()):
        for compensated in (False, True):
            for _ in range(20):
                step = reference_step(params, z, compensated)
                z -= step
                if not lo[i] < z < hi[i]:
                    raise RefinementError(
                        f"zero {i} drifted to {z!r}, across its neighbors' midpoints")
                if abs(step) <= 4.0 * EPS * abs(z):
                    break
            residual = abs(reference_step(params, z, compensated)) / (EPS * abs(z))
            if residual <= 16.0:
                break
        refined.append(z)
        residuals.append(residual)
    return ZeroSet(params=params, zeros=np.array(refined), residuals=np.array(residuals))


def outcome(polish, params: LaguerreParams, seeds):
    """The zeros' and residuals' bits, or the error's type and message."""
    try:
        zs = polish(params, seeds)
    except (ConvergenceError, ParameterError, RefinementError) as exc:
        return type(exc).__name__, str(exc)
    return zs.zeros.tobytes(), zs.residuals.tobytes()


def ql_seeds(n: int, alpha: float) -> np.ndarray:
    return eigen_zeros(build_jacobi(LaguerreParams(n, alpha)))


def perturbed_seeds(n: int, alpha: float, seed: int, reach: float) -> np.ndarray:
    """QL seeds moved by up to reach local gaps, pushing some zeros across a midpoint."""
    ev = ql_seeds(n, alpha)
    shift = np.random.default_rng(seed).uniform(-reach, reach, n - 1) * np.diff(ev)
    return np.sort(np.concatenate((ev[:1], ev[1:] + shift)))


def cubic(x: float) -> float:
    return ((x - 9.0) * x + 18.0) * x - 6.0


def test_frozen_cubic_roots_still_roots():
    for r in CUBIC_ROOTS:
        assert abs(cubic(r)) < 1e-13
    # and they are genuinely bracketed sign changes
    for r in CUBIC_ROOTS:
        assert cubic(r - 1e-6) * cubic(r + 1e-6) < 0


class TestJacobi:
    def test_single_node(self):
        j = build_jacobi(LaguerreParams(1, 0.0))
        assert j.diag.tolist() == [1.0]
        assert j.offdiag.size == 0

    def test_two_by_two(self):
        j = build_jacobi(LaguerreParams(2, 0.0))
        assert j.diag.tolist() == [1.0, 3.0]
        assert j.offdiag.tolist() == [1.0]

    def test_two_by_two_shifted(self):
        j = build_jacobi(LaguerreParams(2, 3.0))
        assert j.diag.tolist() == [4.0, 6.0]
        assert j.offdiag.tolist() == [2.0]  # sqrt(1 * (1+3))

    def test_entries_formulas(self):
        params = LaguerreParams(7, -0.25)
        j = build_jacobi(params)
        for k in range(7):
            assert j.diag[k] == 2 * k + params.alpha + 1
        for k in range(1, 7):
            assert j.offdiag[k - 1] == pytest.approx(math.sqrt(k * (k + params.alpha)), rel=1e-15)
        assert np.all(j.offdiag > 0)


class TestEigen:
    def test_one_by_one(self):
        assert eigen_zeros(build_jacobi(LaguerreParams(1, 7.3))).tolist() == [8.3]

    def test_quadratic_eigenvalues(self):
        ev = eigen_zeros(build_jacobi(LaguerreParams(2, 0.0)))
        assert ev[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-14)
        assert ev[1] == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-14)

    def test_cubic_eigenvalues_against_bisection(self):
        ev = eigen_zeros(build_jacobi(LaguerreParams(3, 0.0)))
        for got, want in zip(ev, CUBIC_ROOTS):
            assert got == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("n,alpha", [(10, 1.0), (50, -0.5), (40, 1e4), (100, 0.0)])
    def test_against_lapack(self, n, alpha):
        from scipy.linalg import eigvalsh_tridiagonal

        j = build_jacobi(LaguerreParams(n, alpha))
        mine = eigen_zeros(j)
        lapack = np.sort(eigvalsh_tridiagonal(j.diag, j.offdiag))
        width = lapack[-1] - lapack[0]
        assert np.max(np.abs(mine - lapack)) <= 1e-12 * width


class TestRefine:
    def test_linear_converges_from_coarse_seed(self):
        zs = refine(LaguerreParams(1, 2.0), [2.9])
        assert zs.zeros[0] == 3.0

    def test_quadratic_from_coarse_seeds(self):
        zs = refine(LaguerreParams(2, 0.0), [0.6, 3.4])
        assert zs.zeros[0] == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)
        assert zs.zeros[1] == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-14)

    def test_large_alpha_residuals_certified(self):
        params = LaguerreParams(20, 1e4)
        zs = refine(params, eigen_zeros(build_jacobi(params)))
        assert np.max(zs.residuals) <= 64.0

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConvergenceError):
            refine(LaguerreParams(2, 0.0), [1.0, 1.0 + 1e-15])

    def test_duplicate_message_names_first_pair(self):
        seeds = [1.0, 2.0, 2.0 + 1e-14, 3.0, 3.0 + 1e-14]
        first_pair = r"\(2\.0\) and np\.float64\(2\.00000000000001\)"
        with pytest.raises(ConvergenceError, match=first_pair):
            refine(LaguerreParams(5, 0.0), seeds)

    def test_crossing_seed_rejected(self):
        # Both seeds sit in the upper root's basin; the first must cross
        # the midpoint while converging and be reported as a bad seed.
        with pytest.raises(RefinementError):
            refine(LaguerreParams(2, 0.0), [3.0, 3.5])

    def test_wrong_count_rejected(self):
        with pytest.raises(RefinementError):
            refine(LaguerreParams(3, 0.0), [1.0, 2.0])

    def test_nan_seed_rejected_at_the_door(self):
        # not a DomainError from deep inside the evaluator
        with pytest.raises(RefinementError, match="seeds are not strictly increasing"):
            refine(LaguerreParams(3, 0.0), [0.4, math.nan, 6.3])

    @pytest.mark.parametrize("n,seeds", [(1, [math.nan]), (3, [0.4, 2.3, math.inf]),
                                         (3, [-math.inf, 2.3, 6.3])])
    def test_non_finite_seed_rejected_at_the_door(self, n, seeds):
        # no gap test catches these; they must not reach the evaluator either
        with pytest.raises(RefinementError, match="seeds must be finite"):
            refine(LaguerreParams(n, 0.0), seeds)


class TestRefineAgainstReference:
    """refine's lanes, history shortcut included, against the one-zero loop, bit for bit."""

    @pytest.mark.parametrize("n,alpha", SWEEP + [(1000, 1.0)])
    def test_ql_seeds(self, n, alpha):
        params, seeds = LaguerreParams(n, alpha), ql_seeds(n, alpha)
        assert outcome(refine, params, seeds) == outcome(reference_refine, params, seeds)

    @pytest.mark.parametrize("n", [20, 40])
    def test_cycling_lanes(self, n):
        # Small alphas at these sizes leave lanes cycling among a few floats.
        for alpha in (1.0 - 1.9 * np.random.default_rng(n).random(20)).tolist():
            params, seeds = LaguerreParams(n, alpha), ql_seeds(n, alpha)
            assert outcome(refine, params, seeds) == outcome(reference_refine, params, seeds)

    @pytest.mark.parametrize("n,alpha,seeds", [
        (2, 0.0, [3.0, 3.5]),  # drift
        (2, 0.0, [0.6, 2.0]),  # L' vanishes at 2
        (2, 0.0, [1.0, 1.0 + 1e-15]),  # near-duplicate
        (5, 0.0, [1.0, 2.0, 2.0 + 1e-14, 3.0, 3.0 + 1e-14]),
        (3, 0.0, [2.0, 1.0, 3.0]),  # disorder
        (3, 1e155, [1.0, 2.0, 3.0]),  # the recurrence overflows in every lane
        (3, 1e150, [1.0, 1e155, 2e155]),  # ... in some lanes only
    ] + [(n, a, perturbed_seeds(n, a, s, reach)) for n, a in [(10, 1.0), (30, 0.2), (100, 1e3)]
         for s in range(3) for reach in (0.2, 0.9)])
    def test_bad_and_perturbed_seeds(self, n, alpha, seeds):
        params = LaguerreParams(n, alpha)
        expected = outcome(reference_refine, params, seeds)
        assert outcome(refine, params, seeds) == expected

    def test_cycling_lanes_retire_early(self, monkeypatch):
        # At n = 20, alpha = 1 the one-zero loop rides a cycle to the cap;
        # refine stops each lane once its path is known.
        rounds = []
        newton = solver._newton_correction
        monkeypatch.setattr(solver, "_newton_correction",
                            lambda *args: rounds.append(1) or newton(*args))
        refine(LaguerreParams(20, 1.0), ql_seeds(20, 1.0))
        assert len(rounds) <= 6


class TestZeros:
    def test_n1000_bits_pinned(self):
        # Recorded with the one-zero-at-a-time Newton loop. This case has
        # compensated zeros and zeros that run into the 20-iteration cap.
        zs = zeros(LaguerreParams(1000, -0.5))
        digest = hashlib.sha256(zs.zeros.tobytes() + zs.residuals.tobytes()).hexdigest()
        assert digest == "3f025d7e3745814a4e6d15f3017b81054923f593a7710f6848a605cffde9bab5"

    def test_single_zero_closed_form(self):
        zs = zeros(LaguerreParams(1, -0.5))
        assert zs.zeros.tolist() == [0.5]

    def test_two_zeros_closed_form(self):
        zs = zeros(LaguerreParams(2, 1.0))
        assert zs.zeros[0] == pytest.approx(3.0 - math.sqrt(3.0), rel=1e-14)
        assert zs.zeros[1] == pytest.approx(3.0 + math.sqrt(3.0), rel=1e-14)

    def test_sign_change_bracket_ten_zeros(self):
        # Extended-precision oracle: the polynomial changes sign within
        # +-2 ulp of every reported zero.
        zs = zeros(LaguerreParams(10, 1.0))
        with mp.workdps(60):
            for z in zs.zeros:
                lo = np.nextafter(np.nextafter(z, 0.0), 0.0)
                hi = np.nextafter(np.nextafter(z, np.inf), np.inf)
                flo = mp.laguerre(10, mp.mpf(1.0), mp.mpf(float(lo)))
                fhi = mp.laguerre(10, mp.mpf(1.0), mp.mpf(float(hi)))
                assert mp.sign(flo) * mp.sign(fhi) <= 0

    @pytest.mark.parametrize("n,alpha", SWEEP + EDGE_CASES)
    def test_window_and_residuals_across_sweep(self, n, alpha):
        params = LaguerreParams(n, alpha)
        zs = zeros(params)
        edge = edge_params(params)
        assert zs.zeros.size == n
        assert np.all(np.diff(zs.zeros) > 0)
        assert edge.V2 < zs.zeros[0] and zs.zeros[-1] < edge.U2
        lo, hi = krasikov_window(params)
        assert lo <= zs.zeros[0] and zs.zeros[-1] <= hi
        assert np.max(zs.residuals) <= 64.0

    @pytest.mark.parametrize("n,alpha", [(10, 1.0), (50, -0.5), (100, 1e4)])
    def test_interlacing_with_lower_degree(self, n, alpha):
        inner = zeros(LaguerreParams(n - 1, alpha)).zeros
        outer = zeros(LaguerreParams(n, alpha)).zeros
        for i, z in enumerate(inner):
            assert outer[i] < z < outer[i + 1]

    @pytest.mark.parametrize("n,alpha", SWEEP)
    def test_eigen_newton_agreement(self, n, alpha):
        params = LaguerreParams(n, alpha)
        ev = eigen_zeros(build_jacobi(params))
        refined = refine(params, ev).zeros
        edge = edge_params(params)
        assert np.max(np.abs(ev - refined)) <= 1e-10 * (edge.U2 - edge.V2)

    def test_rank_mapping(self):
        zs = zeros(LaguerreParams(5, 0.0))
        assert zs.zero_at_rank(1) == zs.zeros[-1]
        assert zs.zero_at_rank(5) == zs.zeros[0]
        with pytest.raises(IndexError):
            zs.zero_at_rank(0)
        with pytest.raises(IndexError):
            zs.zero_at_rank(6)

    def test_spacings_descending_ordering(self):
        zs = zeros(LaguerreParams(4, 2.0))
        gaps = zs.spacings_descending()
        assert gaps.size == 3
        assert gaps[0] == zs.zeros[-1] - zs.zeros[-2]
        assert gaps[-1] == zs.zeros[1] - zs.zeros[0]

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=25),
        alpha=st.floats(min_value=-0.95, max_value=50.0),
    )
    def test_random_params_invariants(self, n, alpha):
        params = LaguerreParams(n, alpha)
        zs = zeros(params)
        edge = edge_params(params)
        assert zs.zeros.size == n
        if n > 1:
            assert np.min(np.diff(zs.zeros)) > 0
        assert edge.V2 < zs.zeros[0] and zs.zeros[-1] < edge.U2
        assert np.max(zs.residuals) <= 64.0


class TestZeroSetInvariants:
    def test_rejects_disorder(self):
        params = LaguerreParams(2, 0.0)
        with pytest.raises(RefinementError):
            ZeroSet(params=params, zeros=np.array([3.0, 1.0]),
                    residuals=np.zeros(2))

    def test_rejects_out_of_window(self):
        params = LaguerreParams(2, 0.0)
        with pytest.raises(RefinementError):
            ZeroSet(params=params, zeros=np.array([0.001, 3.0]),
                    residuals=np.zeros(2))

    def test_rejects_fat_residuals(self):
        params = LaguerreParams(2, 0.0)
        good = zeros(params)
        with pytest.raises(RefinementError):
            ZeroSet(params=params, zeros=good.zeros,
                    residuals=np.array([1.0, 65.0]))

    def test_rejects_nan_interior_zero(self):
        good = zeros(LaguerreParams(5, 1.0))
        doctored = good.zeros.copy()
        doctored[2] = math.nan
        with pytest.raises(RefinementError, match="strictly increasing"):
            ZeroSet(params=good.params, zeros=doctored, residuals=good.residuals)

    def test_rejects_nan_residual(self):
        good = zeros(LaguerreParams(5, 1.0))
        residuals = good.residuals.copy()
        residuals[2] = math.nan
        with pytest.raises(RefinementError, match="worst residual nan"):
            ZeroSet(params=good.params, zeros=good.zeros, residuals=residuals)

    def test_rejects_negative_residuals(self):
        good = zeros(LaguerreParams(3, 0.0))
        with pytest.raises(RefinementError, match="negative"):
            ZeroSet(params=good.params, zeros=good.zeros,
                    residuals=np.array([-math.inf, -1e9, 0.0]))
