"""Verification of the pairwise inverse-square identity at every zero.

For a polynomial with simple real zeros solving u'' - 2a u' + b u = 0, the
sum over j != k of (x_k - x_j)^-2 equals (Delta(x_k) - 2a'(x_k)) / 3 with
Delta = b - a^2. Ranks follow the descending convention throughout: k = 1 is
the largest zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import CheckFailure, ParameterError
from .laguerre import LaguerreParams, _check_point
from .solver import ZeroSet

# Tiny slack for comparisons between mathematically strict inequalities
# evaluated in floating point.
_CHAIN_SLACK = 1e-12


@dataclass(frozen=True)
class BetheReport:
    """Both sides of the identity at the rank-k zero (k=1 is the largest), as floats.

    gap_term is 1/(x_k - x_{k+1})^2 for k < n and None for the smallest zero.
    rel_residual is |lhs - rhs| / max(lhs, rhs), nan if either side is nan,
    except for n = 1 where both sides vanish identically and the residual is
    reported absolutely.
    """

    k: int
    lhs: float
    rhs: float
    rel_residual: float
    gap_term: float | None


def _pairwise_sums(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum over j != i of (x_i - x_j)^-2 for each index i in rows, nearest first.

    np.cumsum adds a sorted row in sequence, so to the bits of a nearest-first
    loop (np.sum would add pairwise). Chunks hold about 32K gaps.
    """
    sums = np.empty(rows.size)
    step = max(1, 32768 // x.size)  # rows per chunk
    for start in range(0, rows.size, step):
        gaps = np.sort(np.abs(x[rows[start:start + step], None] - x), axis=1)
        gaps[:, 0] = np.inf  # the self-gap: a 0.0 term, as the loop's `total = 0.0`
        sums[start:start + step] = np.cumsum(1.0 / (gaps * gaps), axis=1)[:, -1]
    return sums


def bethe_lhs(zs: ZeroSet, k: int) -> float:
    """Sum over j != k of (x_k - x_j)^-2, largest terms first.

    Accumulation runs nearest neighbors first (descending term magnitude);
    the result is stable against reordering to ~1e-12 relative.
    """
    if zs.n < 2:
        raise ParameterError("the pairwise sum needs at least two zeros")
    if not 1 <= k <= zs.n:
        raise ParameterError(f"rank {k} outside 1..{zs.n}")
    return _pairwise_sums(zs.zeros, np.array([zs.n - k]))[0]


def _rhs(params: LaguerreParams, x):
    """(Delta(x) - 2 a'(x)) / 3 at a float or an array of points x > 0, where
    a = (1 - (alpha+1)/x) / 2, a' = (alpha+1) / (2 x^2) and b = n/x."""
    a = 0.5 * (1.0 - (params.alpha + 1.0) / x)
    return (params.n / x - a * a - 2.0 * ((params.alpha + 1.0) / (2.0 * x * x))) / 3.0


def bethe_rhs(params: LaguerreParams, x_k: float) -> float:
    """(Delta(x_k) - 2 a'(x_k)) / 3 from the rational coefficient forms, at x_k > 0."""
    return _rhs(params, _check_point(x_k, positive=True))


def verify_identity(zs: ZeroSet) -> list[BetheReport]:
    """One report per zero, rank order k = 1..n, from rank-ordered arrays.

    For n = 1 the sum side is empty and the identity degenerates to rhs = 0;
    the report then carries the absolute rhs magnitude as its residual. A nan
    on either side gives a nan residual, which fails every tolerance.
    """
    lhs = _pairwise_sums(zs.zeros, np.arange(zs.n))[::-1]  # rank order
    rhs = _rhs(zs.params, zs.zeros[::-1])  # zeros are > 0
    rel = np.abs(rhs) if zs.n == 1 else np.abs(lhs - rhs) / np.maximum(lhs, rhs)
    gaps = zs.spacings_descending()
    columns = lhs.tolist(), rhs.tolist(), rel.tolist(), (1.0 / (gaps * gaps)).tolist() + [None]
    return [BetheReport(k, *row) for k, row in enumerate(zip(*columns), start=1)]


def max_rel_residual(reports: list[BetheReport]) -> float:
    """The worst rel_residual, nan if any is nan (Python's max skips a nan after the first)."""
    return float(np.max([r.rel_residual for r in reports]))


def inequality_chain(zs: ZeroSet, k: int) -> tuple[float, float, float]:
    """The three members 1/gap^2 <= pairwise sum <= sup(Delta)/3 at rank k < n.

    Returns (gap_term, lhs, cap) and raises CheckFailure if either inequality
    fails beyond floating-point slack.
    """
    if zs.n < 2:
        raise ParameterError("the spacing chain needs at least two zeros")
    if not 1 <= k <= zs.n - 1:
        raise ParameterError(f"rank {k} outside 1..{zs.n - 1}")
    gap = zs.zero_at_rank(k) - zs.zero_at_rank(k + 1)
    gap_term = 1.0 / (gap * gap)
    lhs = bethe_lhs(zs, k)
    _, delta_max = bounds.delta_extremum(zs.params)
    cap = delta_max / 3.0
    if gap_term > lhs * (1.0 + _CHAIN_SLACK):
        raise CheckFailure(f"gap term {gap_term} exceeds pairwise sum {lhs} at rank {k}")
    if lhs > cap * (1.0 + _CHAIN_SLACK):
        raise CheckFailure(f"pairwise sum {lhs} exceeds cap {cap} at rank {k}")
    return gap_term, lhs, cap


def remark1_cap(zs: ZeroSet) -> tuple[float, float]:
    """Crude cap 2 (pi^2/6) / delta^2 with delta = the true minimum gap.

    Returns (min_gap, cap) and raises CheckFailure if any rank's pairwise
    sum exceeds the cap.
    """
    if zs.n < 2:
        raise ParameterError("the crude cap needs at least two zeros")
    min_gap = float(min(zs.spacings_descending()))
    crude_cap = (math.pi * math.pi / 3.0) / (min_gap * min_gap)
    sums = _pairwise_sums(zs.zeros, np.arange(zs.n))[::-1]  # rank order
    for k in np.flatnonzero(sums > crude_cap * (1.0 + _CHAIN_SLACK))[:1].tolist():
        raise CheckFailure(f"pairwise sum {sums[k]} at rank {k + 1} exceeds crude cap {crude_cap}")
    return min_gap, crude_cap
