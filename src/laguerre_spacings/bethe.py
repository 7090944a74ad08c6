"""Verification of the pairwise inverse-square identity at every zero.

For a polynomial with simple real zeros solving u'' - 2a u' + b u = 0, the
sum over j != k of (x_k - x_j)^-2 equals (Delta(x_k) - 2a'(x_k)) / 3 with
Delta = b - a^2. Ranks follow the descending convention throughout: k = 1 is
the largest zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds
from .errors import CheckFailure, DomainError, ParameterError
from .laguerre import LaguerreParams
from .solver import ZeroSet

# Tiny slack for comparisons between mathematically strict inequalities
# evaluated in floating point.
_CHAIN_SLACK = 1e-12


@dataclass(frozen=True)
class ODECoefficients:
    """Coefficient functions of u'' - 2 a u' + b u = 0 for L_n^(alpha)."""

    a_of_x: Callable[[float], float]
    a_prime: Callable[[float], float]
    b_of_x: Callable[[float], float]
    delta_of_x: Callable[[float], float]


@dataclass(frozen=True)
class BetheReport:
    """Both sides of the identity at the rank-k zero (k=1 is the largest).

    gap_term is 1/(x_k - x_{k+1})^2 for k < n and None for the smallest zero.
    rel_residual is |lhs - rhs| / max(lhs, rhs), except for n = 1 where both
    sides vanish identically and the residual is reported absolutely.
    """

    k: int
    lhs: float
    rhs: float
    rel_residual: float
    gap_term: float | None


def ode_coefficients(params: LaguerreParams) -> ODECoefficients:
    """Closures for a, a', b and Delta = b - a^2 at fixed (n, alpha)."""
    n, alpha = params.n, params.alpha

    def a_of_x(x: float) -> float:
        return 0.5 * (1.0 - (alpha + 1.0) / x)

    def a_prime(x: float) -> float:
        return (alpha + 1.0) / (2.0 * x * x)

    def b_of_x(x: float) -> float:
        return n / x

    def delta_of_x(x: float) -> float:
        a = a_of_x(x)
        return b_of_x(x) - a * a

    return ODECoefficients(a_of_x, a_prime, b_of_x, delta_of_x)


def _rank_to_index(zs: ZeroSet, k: int) -> int:
    if not 1 <= k <= zs.n:
        raise ParameterError(f"rank {k} outside 1..{zs.n}")
    return zs.n - k


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
    return _pairwise_sums(zs.zeros, np.array([_rank_to_index(zs, k)]))[0]


def bethe_rhs(params: LaguerreParams, x_k: float) -> float:
    """(Delta(x_k) - 2 a'(x_k)) / 3 from the rational coefficient forms."""
    if not (isinstance(x_k, (int, float)) and math.isfinite(x_k)) or x_k <= 0.0:
        raise DomainError(f"zeros live on (0, inf), got {x_k!r}")
    coeffs = ode_coefficients(params)
    return (coeffs.delta_of_x(x_k) - 2.0 * coeffs.a_prime(x_k)) / 3.0


def verify_identity(zs: ZeroSet) -> list[BetheReport]:
    """One report per zero, rank order k = 1..n.

    For n = 1 the sum side is empty and the identity degenerates to rhs = 0;
    the report then carries the absolute rhs magnitude as its residual.
    """
    sums = _pairwise_sums(zs.zeros, np.arange(zs.n))
    reports = []
    for k in range(1, zs.n + 1):
        x_k = zs.zero_at_rank(k)
        rhs = bethe_rhs(zs.params, x_k)
        if zs.n == 1:
            reports.append(BetheReport(k=k, lhs=0.0, rhs=rhs,
                                       rel_residual=abs(rhs), gap_term=None))
            continue
        lhs = sums[zs.n - k]
        top = max(lhs, rhs)
        rel = abs(lhs - rhs) / top if top > 0.0 else 0.0
        gap_term = None
        if k < zs.n:
            gap = x_k - zs.zero_at_rank(k + 1)
            gap_term = 1.0 / (gap * gap)
        reports.append(BetheReport(k=k, lhs=lhs, rhs=rhs,
                                   rel_residual=rel, gap_term=gap_term))
    return reports


def max_rel_residual(reports: list[BetheReport]) -> float:
    return max(r.rel_residual for r in reports)


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
    for k in range(1, zs.n + 1):
        lhs = bethe_lhs(zs, k)
        if lhs > crude_cap * (1.0 + _CHAIN_SLACK):
            raise CheckFailure(
                f"pairwise sum {lhs} at rank {k} exceeds crude cap {crude_cap}"
            )
    return min_gap, crude_cap
