"""Verification of the pairwise inverse-square identity at every zero.

For a polynomial with simple real zeros solving u'' - 2a u' + b u = 0, the
sum over j != k of (x_k - x_j)^-2 equals (Delta(x_k) - 2a'(x_k)) / 3 with
Delta = b - a^2. verify_identity returns both sides at every zero as arrays in
rank order: index k - 1 holds rank k, and k = 1 is the largest zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laguerre import LaguerreParams
from .solver import ZeroSet


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the identity at every zero, as rank-ordered arrays.

    rel_residual is |lhs - rhs| / max(lhs, rhs), nan where either side is
    nan, except for n = 1, where both sides vanish identically and the
    residual is |rhs|.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    rel_residual: np.ndarray

    @property
    def max_rel_residual(self) -> float:
        """The worst rel_residual; np.max propagates a nan, so a nan fails every tolerance."""
        return float(np.max(self.rel_residual))


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


def _rhs(params: LaguerreParams, x):
    """(Delta(x) - 2 a'(x)) / 3 at an array of points x > 0, where
    a = (1 - (alpha+1)/x) / 2, a' = (alpha+1) / (2 x^2) and b = n/x; a' is formed as
    ((alpha+1)/x) / (2 x) only where 2 x^2 overflows (x past ~1e154)."""
    a = 0.5 * (1.0 - (params.alpha + 1.0) / x)
    with np.errstate(over="ignore"):
        square = 2.0 * x * x
        slope = np.where(square < np.inf, (params.alpha + 1.0) / square,
                         (params.alpha + 1.0) / x / (2.0 * x))
    return (params.n / x - a * a - 2.0 * slope) / 3.0


def verify_identity(zs: ZeroSet) -> IdentityCheck:
    """Both sides of the identity and their relative residual at every zero.

    For n = 1 the sum side is empty and the identity degenerates to rhs = 0.
    """
    lhs = _pairwise_sums(zs.zeros, np.arange(zs.n))[::-1]  # rank order
    rhs = _rhs(zs.params, zs.zeros[::-1])  # zeros are > 0
    rel = np.abs(rhs) if zs.n == 1 else np.abs(lhs - rhs) / np.maximum(lhs, rhs)
    return IdentityCheck(lhs, rhs, rel)
