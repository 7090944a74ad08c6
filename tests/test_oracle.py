"""Paper-grid zeros against an mpmath oracle table (tests/data/paper_grid_zeros.json).

The table holds the 720 zeros of the 16 paper-grid pairs to 30 digits, written by
tests/data/paper_grid_oracle.py (40-digit Newton on the recurrence, each root checked
by a sign change). Tolerances are in ulps of the zeros, never of a spacing: two zeros
each half an ulp off at alpha = 1e4 give a spacing hundreds of its own ulps off.
"""

import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from laguerre_spacings import LaguerreParams, zeros

TABLE = json.loads((Path(__file__).parent / "data" / "paper_grid_zeros.json").read_text())
PAIRS = {(p["n"], p["alpha"]): p["zeros"] for p in TABLE["pairs"]}

# Worst today: 36.5 ulp (n = 100, alpha = 1, index 2), and 43 of the 720 zeros lie more
# than 1 ulp off, so 40 leaves a margin of 3.5 ulp; the worst spacing is 29.1 (same
# pair, index 1). The tolerance falls to 1 once the zeros are right.
ULPS = 40.0


def errors_in_ulps(n, alpha):
    """(per-zero errors in ulps of the zero, per-spacing errors in ulp(z_i) + ulp(z_i+1))."""
    got = zeros(LaguerreParams(n, alpha)).zeros
    with localcontext() as ctx:
        ctx.prec = 50
        exact = [Decimal(z) for z in PAIRS[(n, alpha)]]
        zero_errors = [float(abs(Decimal(z) - x)) / math.ulp(z) for z, x in zip(got.tolist(), exact)]
        ulps = [math.ulp(z) for z in got.tolist()]
        spacing_errors = [
            float(abs(Decimal(d) - (b - a))) / (u + v)
            for d, a, b, u, v in zip(np.diff(got).tolist(), exact, exact[1:], ulps, ulps[1:])]
    return zero_errors, spacing_errors


def test_table_covers_the_paper_grid():
    assert sorted(PAIRS) == [(n, a) for n in (10, 20, 50, 100) for a in (1.0, 100.0, 1e3, 1e4)]
    assert sum(len(z) for z in PAIRS.values()) == 720
    for (n, _), table in PAIRS.items():
        assert len(table) == n
        assert all(len(z.replace(".", "").lstrip("0")) >= 25 for z in table)


@pytest.mark.parametrize("n,alpha", sorted(PAIRS))
def test_zeros_and_spacings_within_40_ulps(n, alpha):
    zero_errors, spacing_errors = errors_in_ulps(n, alpha)
    assert max(zero_errors) <= ULPS, int(np.argmax(zero_errors))
    assert max(spacing_errors, default=0.0) <= ULPS, int(np.argmax(spacing_errors))
