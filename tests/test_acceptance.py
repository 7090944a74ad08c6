"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The sweep grid is {10,20,50,100} x {1,100,1e3,1e4} plus the edge
cases (2,-0.9), (2,0), (50,-0.5).
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from mpmath import mp

from laguerre_spacings import (
    LaguerreParams,
    bound_set,
    edge_params,
    figure1,
    krasikov_window,
    laguerre_polynomial,
    limit_probe,
    spacing_rows,
    uniform_spacing_lower,
    verify_identity,
    zeros,
)

GRID = [(n, a) for n in (10, 20, 50, 100) for a in (1.0, 100.0, 1e3, 1e4)]
EDGE_CASES = [(2, -0.9), (2, 0.0), (50, -0.5)]
ALL_PAIRS = GRID + EDGE_CASES

# Bisection-oracle roots of x^3 - 9x^2 + 18x - 6 (degree 3, alpha 0).
CUBIC_ROOTS = (0.4157745567834791, 2.294280360279041, 6.289945082937479)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def zero_sets():
    return {(n, a): zeros(LaguerreParams(n, a)) for n, a in ALL_PAIRS}


def test_criterion_1_bethe_identity(zero_sets):
    with criterion(1, "identity residual <= 1e-8; exact 1/8 case"):
        for pair, zs in zero_sets.items():
            assert verify_identity(zs).max_rel_residual <= 1e-8, pair
        check = verify_identity(zero_sets[(2, 0.0)])
        assert np.all(np.abs(check.lhs - 0.125) <= 1e-13)
        assert np.all(np.abs(check.rhs - 0.125) <= 1e-13)


def test_criterion_2_uniform_dominance(zero_sets):
    with criterion(2, "every spacing strictly above the uniform bound"):
        for (n, a), zs in zero_sets.items():
            bound = uniform_spacing_lower(zs.params)
            assert np.all(zs.spacings_descending() > bound), (n, a)
        table = spacing_rows(zero_sets[(2, 0.0)])
        assert abs(table.ratio[0] - 4.0) <= 4.0 * 1e-13


def test_criterion_3_large_alpha_bound(zero_sets):
    with criterion(3, "large-alpha spacing bound with C=1, both constants"):
        applicable = [(n, a) for n, a in GRID if a >= n]
        assert applicable, "grid must contain large-alpha pairs"
        for n, a in applicable:
            zs = zero_sets[(n, a)]
            gaps = zs.spacings_descending()
            bs = bound_set(zs.params, 1.0)
            stated, sharper = bs.range_lower, bs.proof_range_lower
            assert np.all(gaps >= stated), (n, a)
            assert np.all(gaps >= sharper), (n, a)


def test_criterion_4_zero_windows(zero_sets):
    with criterion(4, "zeros strictly inside (V^2, U^2) and the sharp window"):
        for (n, a), zs in zero_sets.items():
            e = edge_params(zs.params)
            assert e.V2 < zs.zeros[0], (n, a)
            assert zs.zeros[-1] < e.U2, (n, a)
            lo, hi = krasikov_window(zs.params)
            assert lo <= zs.zeros[0], (n, a)
            assert zs.zeros[-1] <= hi, (n, a)


def test_criterion_5_telescoped_bracket(zero_sets):
    with criterion(5, "zero range inside the telescoped bracket (alpha >= n)"):
        for n, a in [(n, a) for n, a in GRID if a >= n]:
            zs = zero_sets[(n, a)]
            lo, hi = bound_set(zs.params, 1.0).range_bracket
            zero_range = float(zs.zeros[-1] - zs.zeros[0])
            width = 4.0 * math.sqrt(n * (n + a + 1.0))
            assert lo <= zero_range <= hi, (n, a)
            assert zero_range <= width, (n, a)
            telescoped = float(np.sum(zs.spacings_descending()))
            assert telescoped == pytest.approx(zero_range, rel=1e-12)


def test_criterion_6_closed_form_zeros():
    with criterion(6, "closed-form zeros for n = 1, 2 and the cubic for n = 3"):
        for a in (-0.9, 0.0, 1.0, 1e4):
            z1 = zeros(LaguerreParams(1, a)).zeros
            assert abs(z1[0] - (a + 1.0)) <= 1e-14 * (a + 1.0)
            z2 = zeros(LaguerreParams(2, a)).zeros
            lo = (a + 2.0) - math.sqrt(a + 2.0)
            hi = (a + 2.0) + math.sqrt(a + 2.0)
            assert abs(z2[0] - lo) <= 1e-13 * lo
            assert abs(z2[1] - hi) <= 1e-13 * hi
        z3 = zeros(LaguerreParams(3, 0.0)).zeros
        for got, want in zip(z3, CUBIC_ROOTS):
            assert abs(got - want) <= 1e-12 * want


def test_criterion_7_bessel_limit_trend():
    with criterion(7, "scaled spacings approach the Bessel squared-zero limit"):
        probe = limit_probe(0.5, 1, (25, 50, 100, 200))
        # j_{1/2,k} = k pi, so the squared-zero difference is 3 pi^2; the
        # scaled spacings approach a quarter of it (x ~ j^2/(4(n+(a+1)/2))),
        # confirmed by the first oracle run before freezing this test.
        assert probe.target == pytest.approx(3.0 * math.pi**2, rel=1e-12)
        devs = probe.deviations
        assert np.all(np.diff(devs) < 0.0)
        assert devs[-1] <= 0.05
        assert abs(4.0 * probe.scaled_spacings[-1] / probe.target - 1.0) <= 0.05


def test_criterion_8_figure_reproduction(tmp_path):
    with criterion(8, "deterministic 4x4 panel data with dominant spacings"):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        figure1(out_a)
        figure1(out_b)
        csvs = sorted(p for p in out_a.iterdir() if p.suffix == ".csv")
        assert len(csvs) == 16
        assert (out_a / "plot_figure1.py").exists()
        for path in csvs:
            twin = out_b / path.name
            assert path.read_bytes() == twin.read_bytes()
        for n in (10, 20, 50, 100):
            for a in (1, 100, 1000, 10000):
                lines = (out_a / f"n{n}_alpha{a}.csv").read_text().splitlines()
                assert len(lines) == n  # header + n-1 rows
                ratios = [float(line.split(",")[3]) for line in lines[1:]]
                assert all(r >= 1.0 for r in ratios)
                if a == 1:
                    spacings = [float(line.split(",")[1]) for line in lines[1:]]
                    # confirmed on the first run: the minimum spacing for
                    # alpha = 1 is the bottom gap, i = n-1
                    assert min(range(len(spacings)), key=spacings.__getitem__) == n - 2


def test_criterion_9_evaluator_oracle(zero_sets):
    with criterion(9, "evaluator within 1e-12 of mpmath on window grids"):
        # error over max(|L|, |x L'|) with L' = -L_{n-1}^(alpha+1): the scale
        # of L near its zeros, where |L| alone vanishes
        for (n, a), zs in zero_sets.items():
            e = edge_params(zs.params)
            points = e.V2 + (e.U2 - e.V2) * (np.arange(50) + 0.5) / 50.0
            mantissas, exponents = laguerre_polynomial(n, a, points)
            with mp.workdps(40):
                for m, ex, x in zip(mantissas.tolist(), exponents.tolist(), points.tolist()):
                    exact = mp.laguerre(n, a, x)
                    scale = max(abs(exact), abs(x * mp.laguerre(n - 1, a + 1, x)))
                    assert abs(mp.ldexp(m, ex) - exact) <= 1e-12 * scale, (n, a, x)
