"""Zero-solver tests: Jacobi matrix, QL eigenvalues, Newton certification."""

import bisect
import hashlib
import math
import re
from collections import Counter

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
    bessel,
    build_jacobi,
    eigen_zeros,
    laguerre,
    laguerre_polynomial,
    refine,
    solver,
    zeros,
)
from laguerre_spacings.bounds import edge_params, krasikov_window
from laguerre_spacings.laguerre import _FEW_LANES, _to_double, laguerre_polynomial_compensated

# Roots of x^3 - 9x^2 + 18x - 6 frozen from a 200-step bisection oracle
# (the monic form of the degree-3, alpha=0 case).
CUBIC_ROOTS = (0.4157745567834791, 2.294280360279041, 6.289945082937479)

SWEEP = [(n, a) for n in (10, 20, 50, 100) for a in (1.0, 100.0, 1e3, 1e4)]
EDGE_CASES = [(2, -0.9), (2, 0.0), (50, -0.5)]


EPS = float(np.finfo(float).eps)


def reference_step(params: LaguerreParams, z: float, compensated: bool) -> float:
    """refine's step L/L' on float calls, with x L' = n L - (n + alpha) L_{n-1}."""
    n, alpha = params.n, params.alpha
    evaluate = laguerre_polynomial_compensated if compensated else laguerre_polynomial
    m, e = evaluate(n, alpha, z)
    if z <= (alpha + 1.0) * 2.0**-30:  # the limit at 0, L(0) / L'(0)
        return -(alpha + 1.0) / n
    pm, pe = laguerre_polynomial(n - 1, alpha, z)
    r = _to_double(m / pm, e - pe) if pm else math.inf
    d = n * r - (n + alpha) if abs(r) <= 1.0 else n - (n + alpha) / r
    if d == 0.0:
        raise RefinementError(f"derivative vanished at {z!r} during refinement")
    return z * r / d if abs(r) <= 1.0 else z / d


def shifted_step(params: LaguerreParams, z: float, compensated: bool) -> float:
    """The step L/L' with L' = -L_{n-1}^(alpha+1), an evaluation of its own."""
    evaluate = laguerre_polynomial_compensated if compensated else laguerre_polynomial
    m, e = evaluate(params.n, params.alpha, z)
    dm, de = laguerre_polynomial(params.n - 1, params.alpha + 1.0, z)
    if not dm:
        raise RefinementError(f"derivative vanished at {z!r} during refinement")
    return -_to_double(m / dm, e - de)


def reference_refine(params: LaguerreParams, approx, step=reference_step) -> ZeroSet:
    """Newton one zero at a time on float calls, with refine's stop test
    (4 eps), cap (20), escalation (residual > 16) and checks."""
    seeds = np.asarray(approx, dtype=float)
    n = params.n
    if seeds.size != n:
        raise RefinementError(f"expected {n} seeds, got {seeds.size}")
    if n > 1 and np.min(np.diff(seeds)) <= 0.0:
        raise RefinementError("seeds are not strictly increasing")
    for a, b in zip(seeds[:-1].tolist(), seeds[1:].tolist()):
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
                dz = step(params, z, compensated)
                z -= dz
                if not lo[i] < z < hi[i]:
                    raise RefinementError(
                        f"zero {i} drifted to {z!r}, across its neighbors' midpoints")
                if abs(dz) <= 4.0 * EPS * abs(z):
                    break
            residual = abs(step(params, z, compensated)) / (EPS * abs(z))
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


def lane_evaluations(monkeypatch):
    """The points of the lanes the evaluator's kernels run, as lists (plain, compensated).
    A plain lane is a _plain_lane call or an element of a _recurrence array. Each point
    refine asks a step at runs one plain lane, and a compensated step also runs one
    compensated lane."""
    plain, sharp = [], []
    kernels = laguerre._plain_lane, laguerre._recurrence, laguerre._compensated_lane

    def plain_lane(n, alpha, x):
        plain.append(x)
        return kernels[0](n, alpha, x)

    def recurrence(n, alpha, x):
        plain.extend(x.tolist())
        return kernels[1](n, alpha, x)

    def compensated_lane(n, alpha, x):
        sharp.append(x)
        return kernels[2](n, alpha, x)

    monkeypatch.setattr(laguerre, "_recurrence", recurrence)
    monkeypatch.setattr(laguerre, "_compensated_lane", compensated_lane)
    for module in (laguerre, solver):  # refine's lone steps call solver's own name
        monkeypatch.setattr(module, "_plain_lane", plain_lane, raising=False)
    return plain, sharp


def per_lane(points, seeds) -> list:
    """How many of the points each zero's lane holds: lane i keeps to (mids[i - 1], mids[i])."""
    seeds = np.asarray(seeds, dtype=float).tolist()
    mids = [0.5 * (a + b) for a, b in zip(seeds, seeds[1:])]
    counts = [0] * len(seeds)
    for x in points:
        counts[bisect.bisect(mids, x)] += 1
    return counts


BAD_SEEDS = [
    (2, 0.0, [3.0, 3.5]),  # drift
    (2, 0.0, [0.6, 2.0]),  # L' vanishes at 2
    (2, 0.0, [1.0, 1.0 + 1e-15]),  # near-duplicate
    (5, 0.0, [1.0, 2.0, 2.0 + 1e-14, 3.0, 3.0 + 1e-14]),
    (3, 0.0, [2.0, 1.0, 3.0]),  # disorder
    (3, 1e155, [1.0, 2.0, 3.0]),  # the recurrence overflows in every lane
    (3, 1e150, [1.0, 1e155, 2e155]),  # ... in some lanes only
] + [(n, a, perturbed_seeds(n, a, s, reach)) for n, a in [(10, 1.0), (30, 0.2), (100, 1e3)]
     for s in range(3) for reach in (0.2, 0.9)]
# Degrees up to 120 with alpha = -1 + 10**u, u uniform on [-3, 7).
SEEDED = [(int(n), -1.0 + 10.0**u) for n, u in zip(
    np.random.default_rng(26).integers(1, 121, 60), np.random.default_rng(27).uniform(-3.0, 7.0, 60))]


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

    def test_underflowed_rotation_restarts_the_sweep(self):
        # A subnormal matrix whose QL rotations underflow to h = 0 twice, taking
        # the branch that restores d and restarts the sweep; the bits are pinned
        # and agree with LAPACK to a few subnormal ulps.
        from scipy.linalg import eigvalsh_tridiagonal

        d = np.array([2.042046476e-315, -2.748179943e-315, -6.376607053e-315, 3.0608874e-316])
        e = np.array([5.92501956e-316, 1.62915677e-315, -1.252597715e-315])
        got = eigen_zeros(solver.JacobiMatrix(diag=d, offdiag=e))
        assert hashlib.sha256(got.tobytes()).hexdigest() == (
            "3598f268a1f49eeaeab64eb9c20e8ad1dc4e737ccb15204cfd6c431394d9dca8")
        lapack = np.sort(eigvalsh_tridiagonal(d, e))
        assert np.max(np.abs(got - lapack)) <= 4 * np.finfo(float).smallest_subnormal


class TestCountBelow:
    @staticmethod
    def dense_eigenvalues(m):
        return np.linalg.eigvalsh(np.diag(m.diag) + np.diag(m.offdiag, 1) + np.diag(m.offdiag, -1))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_counts(self, seed):
        # Thresholds between neighbouring eigenvalues and a hair off each one,
        # far enough from it that rounding cannot move the count.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        m = solver.JacobiMatrix(diag=rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3),
                                offdiag=rng.normal(size=n - 1))
        ev = self.dense_eigenvalues(m)
        scale = np.max(np.abs(ev))
        between = (ev[1:] + ev[:-1]) / 2.0
        near = np.concatenate((ev - 1e-9 * scale, ev + 1e-9 * scale))
        ends = [ev[0] - 1.0 - scale, ev[-1] + 1.0 + scale]
        for t in np.concatenate((between, near, ends)).tolist():
            assert solver._count_below(m, t) == np.sum(ev < t), t

    def test_zero_pivots_and_a_nan_threshold(self):
        # T - tI has zero pivots at t = 0 (a zero diagonal); a nan t counts none.
        m = solver.JacobiMatrix(diag=np.zeros(6), offdiag=np.ones(5))
        ev = self.dense_eigenvalues(m)
        for t in (0.0, -1e-300, 1e-300, 1.0, -1.0):
            assert solver._count_below(m, t) == np.sum(ev < t), t
        assert solver._count_below(m, math.nan) == 0


def laguerre_block(n, alpha):
    return build_jacobi(LaguerreParams(n, alpha))


def random_block(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    return solver.JacobiMatrix(diag=rng.normal(size=n) + 3.0 * rng.uniform(0, 1),
                               offdiag=rng.normal(size=n - 1))


# (matrix, count): Laguerre blocks at the probe's ranks, counts up to the dimension,
# Ikebe's block (its QL deflates largest first) and random tridiagonals with
# eigenvalues of both signs (a top of either sign is counted, at top + |top| 2**-10).
SMALLEST_CASES = [
    (laguerre_block(1000, 0.5), 21), (laguerre_block(300, -1.0 + 2.0**-52), 3),
    (laguerre_block(200, 1.0), 7), (laguerre_block(40, -0.999999), 40),
    (laguerre_block(1, 0.5), 1), (laguerre_block(5, 1e4), 2),
    (bessel._ikebe_even_block(0.25), 5),
] + [(random_block(seed), count) for seed in range(6) for count in (1, 2, 5)]


class TestSmallest:
    # _smallest stops the QL once a Sturm count certifies the count smallest
    # values; its bits must be the full sort's first count, certificate or not.
    @staticmethod
    def count_yields(monkeypatch):
        yielded, deflations = [], solver._deflations

        def counted(jacobi):
            for value in deflations(jacobi):
                yielded.append(value)
                yield value

        monkeypatch.setattr(solver, "_deflations", counted)
        return yielded

    @pytest.mark.parametrize("jacobi,count", SMALLEST_CASES)
    def test_bits_are_the_full_sort(self, jacobi, count):
        want = np.sort(eigen_zeros(jacobi))[:count]
        assert solver._smallest(jacobi, count).tobytes() == want.tobytes()

    @pytest.mark.parametrize("jacobi,count", SMALLEST_CASES[::3])
    def test_fallback_is_the_full_ql(self, monkeypatch, jacobi, count):
        want = np.sort(eigen_zeros(jacobi))[:count]
        yielded = self.count_yields(monkeypatch)
        monkeypatch.setattr(solver, "_count_below", lambda jacobi, t: -1)
        assert solver._smallest(jacobi, count).tobytes() == want.tobytes()
        assert len(yielded) == jacobi.dimension


NEGATED_ALPHAS = [float(a) for a in np.random.default_rng(33).uniform(-1.0, 1.0, 200)] + [
    -1.0 + 2.0**-52, -1.0 + 1e-12, 1e-300, 0.5, 1.0]


class TestNegatedDeflations:
    # The Bessel table runs _smallest on Ikebe's block with its diagonal negated:
    # its bits hold only if the QL yields exactly the negated values of T, in order.
    @staticmethod
    def assert_negated(m):
        negated = solver.JacobiMatrix(diag=-m.diag, offdiag=m.offdiag)
        want = -np.array(list(solver._deflations(m)))
        assert np.array(list(solver._deflations(negated))).tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", NEGATED_ALPHAS)
    def test_ikebe_block(self, alpha):
        self.assert_negated(bessel._ikebe_even_block(alpha))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_tridiagonal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        self.assert_negated(solver.JacobiMatrix(
            diag=rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3), offdiag=rng.normal(size=n - 1)))


class TestRefine:
    def test_linear_converges_from_coarse_seed(self):
        zs = refine(LaguerreParams(1, 2.0), [2.9])
        assert zs.zeros[0] == 3.0

    def test_quadratic_from_coarse_seeds(self):
        zs = refine(LaguerreParams(2, 0.0), [0.6, 3.4])
        assert zs.zeros[0] == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)
        assert zs.zeros[1] == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("low", [0.0, 1e-300, 1e-20])
    def test_quadratic_from_a_seed_at_the_origin(self, low):
        # Both sides of x L' = 2 L - 2 L_1 round to the same value here; the step
        # takes its limit at 0, -(alpha + 1) / n.
        zs = refine(LaguerreParams(2, 0.0), [low, 3.4])
        assert zs.zeros[0] == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)

    def test_large_alpha_residuals_certified(self):
        params = LaguerreParams(20, 1e4)
        zs = refine(params, eigen_zeros(build_jacobi(params)))
        assert np.max(zs.residuals) <= 64.0

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConvergenceError):
            refine(LaguerreParams(2, 0.0), [1.0, 1.0 + 1e-15])

    def test_duplicate_message_names_first_pair(self):
        seeds = [1.0, 2.0, 2.0 + 1e-14, 3.0, 3.0 + 1e-14]
        first_pair = r"zeros 2\.0 and 2\.00000000000001;"  # Python floats, not numpy reprs
        with pytest.raises(ConvergenceError, match=first_pair):
            refine(LaguerreParams(5, 0.0), seeds)

    def test_crossing_seed_rejected(self):
        # Both seeds sit in the upper root's basin; the first must cross
        # the midpoint while converging and be reported as a bad seed.
        with pytest.raises(RefinementError):
            refine(LaguerreParams(2, 0.0), [3.0, 3.5])

    def test_wrong_count_rejected(self):
        with pytest.raises(RefinementError, match="expected 3 seeds, got 2"):
            refine(LaguerreParams(3, 0.0), [1.0, 2.0])

    @pytest.mark.parametrize("n,seeds", [(4, [[0.3, 1.7, 4.3, 9.0]]), (4, [[0.3], [1.7], [4.3], [9.0]]),
                                         (1, 2.9)], ids=["row", "column", "scalar"])
    def test_seeds_must_be_one_dimensional(self, n, seeds):
        # Each raised numpy's ValueError (a broadcast, an empty reduction, np.diff of a scalar).
        shape = np.shape(seeds)
        with pytest.raises(RefinementError, match=re.escape(f"seeds must be a 1-D array, got shape {shape}")):
            refine(LaguerreParams(n, 0.0), seeds)

    @pytest.mark.parametrize("seeds,error", [
        (["a"] * 10, "got an array of <U1"),
        ([1.0] * 9 + [object()], "float() argument must be a string or a real number"),
        ([1.0] * 9 + [1j], "got an array of complex128"),
        (zeros(LaguerreParams(3, 1.0)).zeros + 5j, "got an array of complex128"),
        (["0.9", "3.3", "7.8"], "got an array of <U3"),
        (np.array([False, True, True]), "got an array of bool"),
        ([10**400], "int too large to convert to float"),
        (np.array([10**400], dtype=object), "int too large to convert to float"),
    ])
    def test_seeds_that_are_no_numbers_rejected_at_the_door(self, seeds, error):
        # numpy's ValueError or TypeError escaped from the conversion, and for an integer
        # past double range float()'s OverflowError. Of the complex, string and bool rows,
        # the complex seeds lost their imaginary parts with only a ComplexWarning and
        # were certified, the strings passed as numbers, and the bools were refused only
        # as "seeds are not strictly increasing".
        with pytest.raises(RefinementError, match=re.escape(f"seeds must be real numbers: {error}")):
            refine(LaguerreParams(len(seeds), 1.0), seeds)

    def test_nan_seed_rejected_at_the_door(self):
        # not a DomainError from deep inside the evaluator
        with pytest.raises(RefinementError, match="seeds are not strictly increasing"):
            refine(LaguerreParams(3, 0.0), [0.4, math.nan, 6.3])

    @pytest.mark.parametrize("n,alpha,seeds,counts", [
        (20, 1.0, None, (41, 0)),  # lanes ride cycles to the iteration cap
        (40, -0.7, None, (112, 2)),  # escalating lanes
        (1000, -0.5, None, (2690, 64)),
        (2, 0.0, [3.0, 3.5], None),  # zero 0 drifts across the midpoint
    ])
    def test_each_point_is_evaluated_once_per_mode(self, monkeypatch, n, alpha, seeds, counts):
        # The plain and compensated lanes a solve runs. A compensated step runs a plain
        # lane too, so the plain-mode points are the plain lanes less the compensated
        # ones. Lanes keep to disjoint intervals, so any repeat is one lane evaluating a
        # point twice in one mode.
        seeds = ql_seeds(n, alpha) if seeds is None else seeds
        plain, sharp = lane_evaluations(monkeypatch)
        if counts is None:
            with pytest.raises(RefinementError, match="zero 0 drifted"):
                refine(LaguerreParams(n, alpha), seeds)
        else:
            refine(LaguerreParams(n, alpha), seeds)
            assert (len(plain), len(sharp)) == counts
        assert max((Counter(plain) - Counter(sharp)).values()) == 1
        assert len(sharp) == len(set(sharp)) and not Counter(sharp) - Counter(plain)

    @pytest.mark.parametrize("n,seeds", [(1, [math.nan]), (3, [0.4, 2.3, math.inf]),
                                         (3, [-math.inf, 2.3, 6.3])])
    def test_non_finite_seed_rejected_at_the_door(self, n, seeds):
        # no gap test catches these; they must not reach the evaluator either
        with pytest.raises(RefinementError, match="seeds must be finite"):
            refine(LaguerreParams(n, 0.0), seeds)

    @pytest.mark.parametrize("n,seeds", [(1, [-2.5]), (2, [-1.0, 3.0]), (3, [-1e-300, 2.3, 6.3])])
    def test_negative_seed_rejected_at_the_door(self, n, seeds):
        # not a DomainError from inside the evaluator; seed 0 stays allowed
        with pytest.raises(RefinementError, match=re.escape(f"seeds must be >= 0, got {seeds[0]!r}")):
            refine(LaguerreParams(n, 0.0), seeds)


class TestRefineAgainstReference:
    """refine's lanes, each reading repeated points' steps from its memo, against the
    one-zero loop, bit for bit."""

    @pytest.mark.parametrize("n,alpha", SWEEP + [(1000, 1.0)])
    def test_ql_seeds(self, n, alpha):
        params, seeds = LaguerreParams(n, alpha), ql_seeds(n, alpha)
        assert outcome(refine, params, seeds) == outcome(reference_refine, params, seeds)

    @pytest.mark.parametrize("n,alpha", SWEEP + [(1000, 1.0)])
    def test_zeros_match_the_shifted_derivative(self, n, alpha):
        # L' from L_{n-1}^(alpha) moves residual bits only: every zero keeps the bits
        # of the step that evaluates L' = -L_{n-1}^(alpha+1) on its own.
        params, seeds = LaguerreParams(n, alpha), ql_seeds(n, alpha)
        got = refine(params, seeds).zeros
        assert got.tobytes() == reference_refine(params, seeds, shifted_step).zeros.tobytes()

    @pytest.mark.parametrize("n", [20, 40])
    def test_cycling_lanes(self, n):
        # Small alphas at these sizes leave lanes cycling among a few floats.
        for alpha in (1.0 - 1.9 * np.random.default_rng(n).random(20)).tolist():
            params, seeds = LaguerreParams(n, alpha), ql_seeds(n, alpha)
            assert outcome(refine, params, seeds) == outcome(reference_refine, params, seeds)

    @pytest.mark.parametrize("n,alpha,seeds", BAD_SEEDS)
    def test_bad_and_perturbed_seeds(self, n, alpha, seeds):
        params = LaguerreParams(n, alpha)
        expected = outcome(reference_refine, params, seeds)
        assert outcome(refine, params, seeds) == expected

    def test_cycling_lanes_retire_early(self, monkeypatch):
        # At n = 20, alpha = 1 the one-zero loop rides a cycle to the cap;
        # refine stops each lane once its path is known.
        seeds = ql_seeds(20, 1.0)
        plain, _ = lane_evaluations(monkeypatch)
        refine(LaguerreParams(20, 1.0), seeds)
        assert max(per_lane(plain, seeds)) <= 6

    @pytest.mark.parametrize("n,alpha,rounds,lanes", [
        (40, 0.3, 23, (109, 4)), (100, 1.0, 23, (285, 6)), (1000, 1e4, 3, (1904, 0)),
        (20, -0.7, 20, (59, 2)), (40, -0.7, 23, (112, 2)), (20, 0.15, 17, (54, 0)),
        (40, 0.15, 14, (95, 2)), (20, 0.95, 7, (44, 0)), (40, 0.95, 16, (101, 2)),
    ])
    def test_plain_rounds_pinned(self, monkeypatch, n, alpha, rounds, lanes):
        # The longest lane's plain evaluations, which are the rounds a loop batching
        # every lane takes (recorded with the earlier array-masked loop), and the
        # solve's plain and compensated lanes; the bit pins cannot see a rewrite that
        # takes more evaluations to reach the same bits.
        seeds = ql_seeds(n, alpha)
        plain, sharp = lane_evaluations(monkeypatch)
        refine(LaguerreParams(n, alpha), seeds)
        assert (max(per_lane(plain, seeds)), len(plain), len(sharp)) == (rounds, *lanes)


def step_rows(n: int, alpha: float, points: list) -> tuple:
    """Each point's (m, e, pm, pe), the L and L_{n-1} that _step reads, two ways: from
    the lane kernel's row as it stands, (value, shift, previous, shift), as refine's
    stragglers pass it, and from one plain array pass of at least _FEW_LANES lanes (the
    points repeated), normalized, as its batched rounds take it."""
    kernel = [(m, e, pm, e) for m, pm, e in (solver._plain_lane(n, alpha, x) for x in points)]
    lanes = np.resize(np.array(points, dtype=float), max(len(points), _FEW_LANES))
    (m, e), (pm, pe) = laguerre_polynomial(n, alpha, lanes, previous=True)
    return kernel, list(zip(m.tolist(), e.tolist(), pm.tolist(), pe.tolist()))[:len(points)]


def step_outcomes(n: int, alpha: float, points: list, compensated: list, doctor) -> list:
    """_step's outcome at each point, from each of step_rows's two sources, with
    doctor(x, row) applied to each row: the step, or the error's type and text."""
    outcomes = []
    for rows in step_rows(n, alpha, points):
        outcomes.append([])
        for x, sharp, row in zip(points, compensated, rows):
            try:
                outcomes[-1].append(solver._step(n, alpha, x, sharp, *doctor(x, row)))
            except (ParameterError, RefinementError) as exc:
                outcomes[-1].append((type(exc).__name__, str(exc)))
    kernel, array = ([o.hex() if isinstance(o, float) else o for o in out] for out in outcomes)
    assert kernel == array  # the same step bits, or the same error
    return outcomes[0]


class TestStep:
    """_step from a lane kernel's row and from a _FEW_LANES-lane array pass agree."""

    @pytest.mark.parametrize("n,alpha,bad,error", [
        (2, 0.0, None, None),
        (2, 0.0, 2.0, "derivative vanished at 2.0 during refinement"),  # L_2'(2) = 0
        (3, 1e150, 1e155, "left double range at (n, alpha, x) = (3, 1e+150, 1e+155)"),
    ])
    def test_kernel_rows_and_array_pass_agree(self, n, alpha, bad, error):
        # points on alpha's scale, above the ones that take the step's limit at 0
        ordinary = [(1.0 + alpha) * v for v in (0.5, 7.0, 1.5, 0.25, 7.0 + 1e-9)]

        def huge_at_7(x, row):  # L(ordinary[1]) 2**1100 times larger: r overflows
            m, e, pm, pe = row
            return m, e + 1100 if x == ordinary[1] else e, pm, pe

        z = ordinary + ([bad] if bad else []) + ordinary + ([bad] if bad else [])
        steps = step_outcomes(n, alpha, z, [i % 3 == 2 for i in range(len(z))], huge_at_7)
        failed = [step for x, step in zip(z, steps) if x == bad]
        assert len(failed) == (2 if bad else 0) and all(error in text for _, text in failed)
        assert all(isinstance(step, float) for x, step in zip(z, steps) if x != bad)
        assert steps[1] == ordinary[1] / n and math.isfinite(steps[4])  # the limit x / n

    @pytest.mark.parametrize("extra", [0, _FEW_LANES])
    def test_vanishing_previous_value_takes_the_limit_step(self, extra):
        # L_1^(0)(1) = 0 exactly, so r = L_2 / L_1 is infinite at 1: the step is x / n
        # = 0.5, which is L_2(1) / L_2'(1) for L_2^(0)(x) = (x^2 - 4x + 2) / 2.
        z = [0.5, 1.0, 7.0] + [3.0] * extra
        steps = step_outcomes(2, 0.0, z, [i % 2 == 1 for i in range(len(z))], lambda x, row: row)
        assert all(isinstance(step, float) for step in steps) and steps[1] == 0.5
        assert steps[::2][:2] == pytest.approx([0.125 / -1.5, 11.5 / 5.0], rel=1e-15)


class TestTwoPhases:
    """refine batches its rounds while at least _FEW_LANES lanes are pending, then
    steps each remaining lane alone on the lane kernel: against rounds that batch every
    lane (_FEW_LANES = 0), every bit and every error agree."""

    @pytest.mark.parametrize("n,alpha,seeds", [(n, a, None) for n, a in SWEEP + SEEDED]
                             + [(1000, -0.5, None), (1000, 1e4, None)] + BAD_SEEDS)
    def test_batching_every_round_agrees(self, monkeypatch, n, alpha, seeds):
        params = LaguerreParams(n, alpha)
        seeds = ql_seeds(n, alpha) if seeds is None else seeds
        alone = outcome(refine, params, seeds)
        monkeypatch.setattr(solver, "_FEW_LANES", 0)
        assert outcome(refine, params, seeds) == alone

    @pytest.mark.parametrize("compensated", [False, True])
    @pytest.mark.parametrize("n,alpha,x,expected", [
        (2, 0.0, 0.5, 0.125 / -1.5),  # L_2^(0)(x) = (x^2 - 4x + 2) / 2
        (2, 0.0, 2.0, "derivative vanished at 2.0 during refinement"),  # L_2'(2) = 0
        (3, 1e150, 1e155, "left double range at (n, alpha, x) = (3, 1e+150, 1e+155)"),
        (2, 0.0, 7.0, 3.5),  # r overflows (see the doctored row): the step is x / n
        (2, 0.0, 1.0, 0.5),  # L_1^(0)(1) = 0: r is infinite, and the step is x / n
        (2, 0.0, 1e-20, -0.5),  # below (alpha + 1) 2**-30: the limit at 0, -(alpha + 1) / n
        (2, 0.0, 0.0, -0.5),
    ])
    def test_lone_and_batched_steps_agree(self, n, alpha, x, expected, compensated):
        def tiny_at_7(point, row):  # L_1(7) = -6 becomes -6 2**-1060: r = L_2 / L_1 overflows
            m, e, pm, pe = row
            return m, e, pm, pe - 1060 if point == 7.0 else pe

        [step] = step_outcomes(n, alpha, [x], [compensated], tiny_at_7)
        if isinstance(expected, str):
            assert expected in step[1]
        else:
            assert step == pytest.approx(expected, rel=1e-15)


class TestZeros:
    def test_n1000_bits_pinned(self):
        # This case has compensated zeros and zeros that run into the 20-iteration cap.
        # The zeros were recorded with the one-zero-at-a-time Newton loop, whose L' was
        # -L_{n-1}^(alpha+1); the residuals with L' from L_{n-1}^(alpha), whose step
        # rounds differently.
        zs = zeros(LaguerreParams(1000, -0.5))
        assert hashlib.sha256(zs.zeros.tobytes()).hexdigest() == (
            "a36315c7f01b1f2a5fd24ca6aeffa307cabcf8e3e0d787e32a97e4cb8d4d6775")
        assert hashlib.sha256(zs.residuals.tobytes()).hexdigest() == (
            "530af8e18b9f07b12ece59d917d8b1913addb8107349330d64bdec20723c7599")

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

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(1.0), True, "1", None])
    def test_rank_must_be_an_integer(self, k):
        # a float leaked numpy's IndexError text, and True read as rank 1
        zs = zeros(LaguerreParams(5, 0.0))
        with pytest.raises(IndexError, match=f"^{re.escape(f'rank {k!r} outside 1..5')}$"):
            zs.zero_at_rank(k)
        assert zs.zero_at_rank(np.int64(2)) == zs.zeros[3]

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
