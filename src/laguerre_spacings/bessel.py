"""First-kind Bessel zeros and the small-zero limit of Laguerre spacings.

Zeros j_{alpha,k} come from the eigenproblem of Ikebe (Math. Comp. 29, 1975; Ikebe,
Kikuchi and Fujishiro, J. Comput. Appl. Math. 38, 1991). The symmetric tridiagonal T
with zero diagonal and off-diagonal entries b_k = 1/(2 sqrt((alpha+k)(alpha+k+1))),
k = 1, 2, ..., has eigenvalues +-1/j_{alpha,k}; truncated to N = 100 rows, it gives
j_{alpha,20} to below 1e-14 across alpha in (-1, 1] (about 1e-10 at N = 80). As Golub
and Kahan showed (SIAM J. Numer. Anal. B 2, 1965), T^2 couples only rows of equal
parity, so an even/odd permutation splits it into two N/2-row tridiagonals that each
hold every 1/j_{alpha,k}^2. The even block (b_0 = 0), with diagonal b_{2i}^2 + b_{2i+1}^2
and off-diagonal b_{2i+1} b_{2i+2}, is the one solved: a quarter of the full QL's cost,
with ranks 1..20 within 1e-15 of 40-digit roots (6.6e-15 at full size). The block is
solved negated, so its largest values come first, by solver._smallest: the QL stops
after the 20 ranks it keeps when a Sturm count certifies them, else it runs on.

limit_probe reads two zeros of L_n^(alpha) per degree, x_{k-1} and x_k in ascending
order from 0, and solves only those where n > k + 1: the QL on the Laguerre Jacobi
matrix stops once a Sturm count certifies its k + 2 smallest eigenvalues
(solver._smallest), and the two ranks alone are Newton-polished from them, each
certified by its residual as a ZeroSet would be. At n = k + 1, where x_k is the
largest zero, the full ZeroSet is solved and certified. So a failure in a zero the
probe does not read does not raise, and the probe costs O(k n) per degree, not
O(n^2): 0.04 s at n = 1600, about 1 s at n = 2**14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import DomainError, ParameterError
from .laguerre import LaguerreParams, _alpha, _degree
from .solver import JacobiMatrix, _polish_rank, _smallest, build_jacobi
from .solver import zeros as solve_zeros

MAX_RANK = 20
_IKEBE_DIMENSION = 100

# Slack for flag comparisons between exact bounds and double arithmetic
# (the alpha = 1/2 gaps equal pi exactly and must not flip the flag).
_FLAG_SLACK = 1e-9


def _is_rank(value, top: int) -> bool:
    """value is a non-bool Integral in 1..top (a numpy integer too, as for a degree)."""
    return isinstance(value, Integral) and not isinstance(value, bool) and 1 <= value <= top


def _require_alpha(alpha) -> float:
    alpha = _alpha(alpha, DomainError)
    if alpha > 1.0:
        raise DomainError(f"alpha must lie in (-1, 1], got {alpha}")
    return alpha


def _ikebe_even_block(alpha: float) -> JacobiMatrix:
    """The even block of T^2 for Ikebe's N-row matrix T: eigenvalues 1/j_{alpha,k}^2."""
    k = np.arange(1, _IKEBE_DIMENSION, dtype=float)
    b = np.concatenate(([0.0], 0.5 / np.sqrt((alpha + k) * (alpha + k + 1.0))))  # b_0 .. b_{N-1}
    return JacobiMatrix(diag=b[0::2] ** 2 + b[1::2] ** 2, offdiag=b[1:-1:2] * b[2::2])


@lru_cache(maxsize=1024)  # an entry is MAX_RANK doubles
def _zeros(alpha: float) -> np.ndarray:
    """j_{alpha,1} .. j_{alpha,MAX_RANK}, ascending and read-only: the full QL's bits."""
    block = _ikebe_even_block(alpha)
    z = 1.0 / np.sqrt(-_smallest(JacobiMatrix(-block.diag, block.offdiag), MAX_RANK))
    z.setflags(write=False)
    return z


def bessel_zero(alpha: float, k: int) -> float:
    """The k-th positive zero of J_alpha for alpha in (-1, 1], 1 <= k <= 20."""
    alpha = _require_alpha(alpha)
    if not _is_rank(k, MAX_RANK):
        raise DomainError(f"rank must be an integer in 1..{MAX_RANK}, got {k!r}")
    return float(_zeros(alpha)[k - 1])


@dataclass(frozen=True)
class BesselZeroTable:
    """The first zeros.size zeros of J_alpha, read-only and strictly increasing."""

    alpha: float
    zeros: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float)
        z.setflags(write=False)
        object.__setattr__(self, "zeros", z)
        if not (np.all(np.isfinite(z)) and (z.size < 2 or np.min(np.diff(z)) > 0.0)):
            raise ParameterError(f"zeros must be finite and strictly increasing, got {z.tolist()}")


def bessel_zero_table(alpha: float, count: int) -> BesselZeroTable:
    """Tabulate j_{alpha,1} .. j_{alpha,count} (count <= 20)."""
    alpha = _require_alpha(alpha)
    if not _is_rank(count, MAX_RANK):
        raise DomainError(f"count must be in 1..{MAX_RANK}, got {count!r}")
    return BesselZeroTable(alpha=alpha, zeros=_zeros(alpha)[:count])


@dataclass(frozen=True)
class GapFactsReport:
    """A zero table's gaps j_{k+1} - j_k and pair sums j_{k+1} + j_k; index k - 1 is pair k.

    The flags compare against pi, 2 pi and 1 + alpha with _FLAG_SLACK; they
    are recorded, not asserted (the band fails for |alpha| < 1/2).
    """

    alpha: float
    gaps: np.ndarray
    pair_sums: np.ndarray

    @property
    def all_gaps_in_band(self) -> bool:
        return bool(np.all((self.gaps >= math.pi * (1.0 - _FLAG_SLACK))
                           & (self.gaps <= 2.0 * math.pi * (1.0 + _FLAG_SLACK))))

    @property
    def all_sums_ok(self) -> bool:
        return bool(np.all(self.pair_sums >= (1.0 + self.alpha) * (1.0 - _FLAG_SLACK)))


def gap_facts(table: BesselZeroTable) -> GapFactsReport:
    """Per-pair gap and sum facts; flags only, assertions belong to tests."""
    z = table.zeros
    if z.size < 2:
        raise ParameterError("gap facts need at least two zeros")
    return GapFactsReport(alpha=table.alpha, gaps=z[1:] - z[:-1], pair_sums=z[1:] + z[:-1])


@dataclass(frozen=True)
class LimitProbe:
    """Scaled spacings (n + (alpha+1)/2) * (k-th smallest gap) along a degree grid.

    target is the squared-zero difference j_{alpha,k+1}^2 - j_{alpha,k}^2.
    The small zeros behave like x ~ j^2 / (4(n + (alpha+1)/2)), so the scaled
    spacings converge to target / 4, exposed as asymptotic_limit.
    """

    alpha: float
    k: int
    n_grid: tuple
    scaled_spacings: np.ndarray
    target: float

    @property
    def asymptotic_limit(self) -> float:
        return self.target / 4.0

    @property
    def deviations(self) -> np.ndarray:
        """|scaled / asymptotic_limit - 1| per grid degree."""
        return np.abs(self.scaled_spacings / self.asymptotic_limit - 1.0)


def limit_probe(alpha: float, k: int, n_grid) -> LimitProbe:
    """Track the k-th smallest spacing of L_n^(alpha) against the Bessel limit.

    Pairs j_{alpha,k} with the k-th smallest zero (the clustered end of the
    spectrum); requires k+1 <= min(n_grid) so the spacing exists everywhere. At a
    degree n > k + 1 only the two zeros of the spacing are solved and certified (a
    Sturm-certified partial QL, then a Newton residual within ZeroSet's cap, else
    RefinementError), to the bits the full ZeroSet gives them; at n = k + 1 the full
    ZeroSet is. A failure in any other zero does not raise.
    """
    alpha = _require_alpha(alpha)
    if isinstance(n_grid, (str, bytes)) or not np.iterable(n_grid):
        raise ParameterError(f"degree grid must be a collection of degrees, got {n_grid!r}")
    grid = tuple(_degree(n, 1) for n in n_grid)
    if not grid:
        raise ParameterError("degree grid is empty")
    if not _is_rank(k, MAX_RANK - 1):
        raise ParameterError(f"rank must be in 1..{MAX_RANK - 1}, got {k!r}")
    k = int(k)
    if k + 1 > min(grid):
        raise ParameterError(f"rank {k} needs degrees of at least {k + 1}")
    j_k = bessel_zero(alpha, k)
    j_next = bessel_zero(alpha, k + 1)
    target = j_next * j_next - j_k * j_k
    scaled = np.empty(len(grid))
    for i, n in enumerate(grid):
        params = LaguerreParams(n=n, alpha=alpha)
        if n == k + 1:  # rank k is the largest zero: no seed above it
            low, high = solve_zeros(params).zeros[k - 1:k + 1].tolist()
        else:
            seeds = _smallest(build_jacobi(params), k + 2).tolist()
            low, high = (_polish_rank(params, seeds, rank) for rank in (k - 1, k))
        scaled[i] = (n + (alpha + 1.0) / 2.0) * (high - low)
    return LimitProbe(alpha=alpha, k=k, n_grid=grid, scaled_spacings=scaled, target=target)
