"""Closed-form edge quantities and spacing lower bounds for L_n^(alpha) zeros.

Everything here is elementary algebra in U = sqrt(n+alpha+1) + sqrt(n) and
V = sqrt(n+alpha+1) - sqrt(n); all derived quantities are computed from U and
V once, so equivalent expressions cannot drift apart through cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .errors import ParameterError
from .laguerre import LaguerreParams, _check_point


@dataclass(frozen=True)
class EdgeParams:
    """U, V and their squares; (V^2, U^2) brackets every zero of L_n^(alpha)."""

    U: float
    V: float
    U2: float
    V2: float


@dataclass(frozen=True)
class BoundSet:
    """All spacing/window bounds for one (n, alpha), ready for reporting.

    uniform_lower and the large-alpha fields are None for n = 1, which has no
    spacings; the large-alpha fields are also None when no admissible C was
    supplied. They are, with C = range_constant and valid when alpha >= n/C:
    range_lower, the gap lower bound (1/sqrt(C+1)) sqrt(alpha/n);
    proof_range_lower, the sharper constant sqrt(3/(2(C+1))) behind it; and
    range_bracket, the telescoped bracket [sqrt(n alpha)/sqrt(C+1),
    6 sqrt(C+1) sqrt(n alpha)] on the zero range x_max - x_min (which also
    never exceeds U^2 - V^2).
    """

    uniform_lower: float | None
    range_lower: float | None
    proof_range_lower: float | None
    range_constant: float | None
    range_bracket: tuple | None
    krasikov_min_lower: float
    krasikov_max_upper: float
    delta_max: float
    x_star: float


def edge_params(params: LaguerreParams) -> EdgeParams:
    """Edge quantities; V is formed as (alpha+1)/U so that U*V = alpha+1 holds
    to a rounding error even when alpha+1 underflows the subtraction."""
    root_sum = math.sqrt(params.n + params.alpha + 1.0)
    root_n = math.sqrt(params.n)
    U = root_sum + root_n
    V = (params.alpha + 1.0) / U
    return EdgeParams(U=U, V=V, U2=U * U, V2=V * V)


def _root_product(a: float, b: float) -> float:
    """sqrt(a * b) for a, b >= 0; sqrt(a) * sqrt(b) only where a * b overflows, so
    every finite product keeps its bits."""
    product = a * b
    return math.sqrt(product) if product < math.inf else math.sqrt(a) * math.sqrt(b)


def _width(params: LaguerreParams) -> float:
    # U^2 - V^2 without cancellation: (U-V)(U+V) = 2 sqrt(n) * 2 sqrt(n+alpha+1).
    return 4.0 * _root_product(params.n, params.n + params.alpha + 1.0)


def delta(params: LaguerreParams, x: float) -> float:
    """(U^2 - x)(x - V^2) / (4 x^2): positive exactly on the zero window."""
    x = _check_point(x, positive=True)
    e = edge_params(params)
    return (e.U2 - x) * (x - e.V2) / (4.0 * x * x)


def delta_extremum(params: LaguerreParams) -> tuple[float, float]:
    """The unique maximum of delta on (0, inf): location and value.

    x* = 2 U^2 V^2 / (U^2 + V^2) is the weighted harmonic mean of U^2 and
    V^2, so it always falls inside the window; the maximum value is
    (U^2 - V^2)^2 / (16 U^2 V^2). Where 2 U^2 V^2 or 16 U^2 V^2 (alpha+1 = U V past
    ~3e153) overflows, they take the forms 2 / (1/U^2 + 1/V^2) and (w / U / (4 V))^2.
    """
    e = edge_params(params)
    twice, scale = 2.0 * e.U2 * e.V2, 16.0 * e.U2 * e.V2
    x_star = twice / (e.U2 + e.V2) if twice < math.inf else 2.0 / (1.0 / e.U2 + 1.0 / e.V2)
    w = _width(params)
    delta_max = w * w / scale if scale < math.inf else (w / e.U / (4.0 * e.V)) ** 2
    return x_star, delta_max


def uniform_spacing_lower(params: LaguerreParams) -> float:
    """The uniform gap lower bound sqrt(3) (alpha+1) / sqrt(n (n+alpha+1))."""
    if params.n < 2:
        raise ParameterError(f"no spacings exist for degree {params.n}")
    product = params.n * (params.n + params.alpha + 1.0)
    if product < math.inf:
        return math.sqrt(3.0) * (params.alpha + 1.0) / math.sqrt(product)
    root = math.sqrt(params.n + params.alpha + 1.0)  # alpha past ~1e304: no product
    return math.sqrt(3.0) * ((params.alpha + 1.0) / root) / math.sqrt(params.n)


def krasikov_window(params: LaguerreParams) -> tuple[float, float]:
    """Sharpened extreme-zero window, one-sided bounds exactly as printed:
    V^2 + 3 V^(4/3) (U^2-V^2)^(-1/3) below, U^2 - 3 U^(4/3) (U^2-V^2)^(-1/3) + 2 above."""
    e = edge_params(params)
    w = _width(params)
    shrink = w ** (-1.0 / 3.0)
    min_lower = e.V2 + 3.0 * e.V ** (4.0 / 3.0) * shrink
    max_upper = e.U2 - 3.0 * e.U ** (4.0 / 3.0) * shrink + 2.0
    return min_lower, max_upper


def bound_set(params: LaguerreParams, C="auto") -> BoundSet:
    """Assemble every bound for one configuration.

    C may be a positive number, "auto" (C = n/alpha), or None to skip the
    large-alpha bounds; they are also skipped when n = 1, when alpha < n/C
    or under "auto" where alpha <= 0 or n/alpha overflows (a subnormal alpha).
    "auto" puts alpha in the regime alpha >= n/C by construction, so that
    test is not made there: it rounds false for some pairs, e.g. (2, 3.7).
    """
    x_star, delta_max = delta_extremum(params)
    kras_lo, kras_hi = krasikov_window(params)
    range_lower = proof_lower = bracket = None
    if isinstance(C, str):
        if C != "auto":
            raise ParameterError(f"C must be a positive number or 'auto', got {C!r}")
        C = params.n / params.alpha if params.alpha > 0.0 else None  # none admissible if alpha <= 0
    elif C is not None:
        if not isinstance(C, Real) or isinstance(C, bool):
            raise ParameterError(f"C must be a positive number or 'auto', got {C!r}")
        try:
            C = float(C)
        except OverflowError:  # an integral or rational C past double range
            C = math.inf
        if not math.isfinite(C) or C <= 0.0:
            raise ParameterError(f"C must be a finite positive number, got {C}")
        if params.alpha < params.n / C:
            C = None
    if params.n < 2 or C == math.inf:
        C = None  # no spacings and no zero range, or n/alpha overflowed under "auto"
    if C is not None:
        range_lower = math.sqrt(params.alpha / params.n) / math.sqrt(C + 1.0)
        proof_lower = math.sqrt(1.5 / (C + 1.0)) * math.sqrt(params.alpha / params.n)
        root = _root_product(params.n, params.alpha)
        bracket = root / math.sqrt(C + 1.0), 6.0 * math.sqrt(C + 1.0) * root
    return BoundSet(
        uniform_lower=uniform_spacing_lower(params) if params.n >= 2 else None,
        range_lower=range_lower,
        proof_range_lower=proof_lower,
        range_constant=C,
        range_bracket=bracket,
        krasikov_min_lower=kras_lo,
        krasikov_max_upper=kras_hi,
        delta_max=delta_max,
        x_star=x_star,
    )
