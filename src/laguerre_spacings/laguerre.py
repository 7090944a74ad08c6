"""Overflow-safe evaluation of generalized Laguerre polynomials.

Values are carried as mantissa * 2**exponent2 pairs so that degrees and
exponents large enough to overflow a raw double (e.g. n=200, alpha=1e4)
stay representable end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import DomainError, ParameterError

# Rescale whenever the running recurrence values leave [2**-512, 2**512];
# one recurrence step multiplies by at most ~2**16 for the supported
# parameter ranges, so intermediate products never reach the double limit.
_RESCALE_HI = 2.0**512
_RESCALE_LO = 2.0**-512
_FEW_LANES = 16  # shorter arrays run lane by lane on floats: numpy's per-call cost dominates


@dataclass(frozen=True)
class LaguerreParams:
    """Degree n >= 1 and exponent alpha > -1 identifying one polynomial."""

    n: int
    alpha: float

    def __post_init__(self):
        if not isinstance(self.n, Integral) or isinstance(self.n, bool):
            raise ParameterError(f"degree must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ParameterError(f"degree must be >= 1, got {self.n}")
        if not isinstance(self.alpha, Real) or not math.isfinite(self.alpha):
            raise ParameterError(f"alpha must be a finite real, got {self.alpha!r}")
        if self.alpha <= -1.0:
            raise ParameterError(f"alpha must be > -1, got {self.alpha}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def near_degenerate_weight(self) -> bool:
        """True when alpha hugs -1 (alpha+1 < 1e-6); reports flag these runs."""
        return self.alpha + 1.0 < 1e-6


@dataclass(frozen=True)
class ScaledValue:
    """A real carried as mantissa * 2**exponent2 with |mantissa| in [1, 2) or 0."""

    mantissa: float
    exponent2: int

    def __post_init__(self):
        m = self.mantissa
        if m != 0.0 and not (1.0 <= abs(m) < 2.0):
            raise ParameterError(f"mantissa {m!r} not normalized to [1,2)")

    @classmethod
    def from_float(cls, value: float, shift: int = 0) -> "ScaledValue":
        if value == 0.0:
            return cls(0.0, 0)
        m, e = math.frexp(value)  # |m| in [0.5, 1)
        return cls(2.0 * m, e - 1 + shift)

    def to_float(self) -> float:
        """Collapse to a double; returns +-inf / 0.0 outside double range."""
        if self.mantissa == 0.0:
            return 0.0
        try:
            return math.ldexp(self.mantissa, self.exponent2)
        except OverflowError:
            return math.copysign(math.inf, self.mantissa)

    def negated(self) -> "ScaledValue":
        return ScaledValue(-self.mantissa, self.exponent2)

    def is_zero(self) -> bool:
        return self.mantissa == 0.0

    @property
    def sign(self) -> int:
        if self.mantissa > 0.0:
            return 1
        if self.mantissa < 0.0:
            return -1
        return 0

    def log2_abs(self) -> float:
        if self.mantissa == 0.0:
            return -math.inf
        return math.log2(abs(self.mantissa)) + self.exponent2

    def ratio_to(self, other: "ScaledValue") -> float:
        """self / other as a double; other must be nonzero."""
        if other.mantissa == 0.0:
            raise ZeroDivisionError("ratio_to a zero ScaledValue")
        q = self.mantissa / other.mantissa
        if q == 0.0:
            return 0.0
        try:
            return math.ldexp(q, self.exponent2 - other.exponent2)
        except OverflowError:
            return math.copysign(math.inf, q)


def _check_point(x: float, positive: bool = False) -> float:
    if not isinstance(x, Real) or not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x!r}")
    x = float(x)
    if positive:
        if x <= 0.0:
            raise DomainError(f"evaluation point must be > 0, got {x}")
    elif x < 0.0:
        raise DomainError(f"evaluation point must be >= 0, got {x}")
    return x


_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _rescale_exponent(prev, cur):
    """The power of two taking max(|prev|, |cur|) back near 1 (0 in lanes left alone), or None."""
    if isinstance(cur, float):
        m = max(abs(prev), abs(cur))
        return math.frexp(m)[1] if m > _RESCALE_HI or 0.0 < m < _RESCALE_LO else None
    m = np.maximum(np.abs(prev), np.abs(cur))
    if m.max(initial=1.0) > _RESCALE_HI or m.min(initial=1.0) < _RESCALE_LO:
        return np.where((m > _RESCALE_HI) | ((m > 0.0) & (m < _RESCALE_LO)), np.frexp(m)[1], 0)
    return None


def _recurrence(n: int, alpha: float, x, compensated: bool):
    """L_n^(alpha)(x) as (value, shift) for value * 2**shift; x is a float or an array.

    An array lane does the float path's operations in the same order, which
    keeps it bit-identical to a float call; regrouping a sum breaks that.
    Plain noise is of order n*eps of the largest intermediate value, which
    near the clustered small zeros can dwarf the local scale |z L'|. The
    compensated mode carries first-order rounding corrections (error-free
    transformations of Ogita, Rump and Oishi) to ~eps of the true value,
    at ~10x the arithmetic cost.
    """
    if n == 0:
        return x * 0.0 + 1.0, 0  # L_0 = 1 in every lane
    ldexp = math.ldexp if isinstance(x, float) else np.ldexp
    shift = 0
    if not compensated:
        prev, cur = 1.0, alpha + 1.0 - x  # L_0, L_1
        for k in range(1, n):
            prev, cur = cur, ((2.0 * k + 1.0 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0)
            e = _rescale_exponent(prev, cur)
            if e is not None:
                prev, cur, shift = ldexp(prev, -e), ldexp(cur, -e), shift + e
        return cur, shift
    prev, prev_c = 1.0, 0.0
    cur, e1 = _two_sum(alpha, 1.0)
    cur, e2 = _two_sum(cur, -x)
    cur_c = e1 + e2
    for k in range(1, n):
        # 2k+1 and k+1 are exact; the alpha and x additions can round.
        s, e0 = _two_sum(2.0 * k + 1.0, alpha)
        a_main, e1 = _two_sum(s, -x)
        a_err = e0 + e1
        b_main, b_err = _two_sum(float(k), alpha)
        c_exact = k + 1.0

        t1, t1e = _two_prod(a_main, cur)
        t1e += a_main * cur_c + a_err * cur
        t2, t2e = _two_prod(b_main, prev)
        t2e += b_main * prev_c + b_err * prev
        num, num_e = _two_sum(t1, -t2)
        num_e += t1e - t2e

        q = num / c_exact
        qc, qce = _two_prod(q, c_exact)
        q_err = (((num - qc) - qce) + num_e) / c_exact

        prev, prev_c = cur, cur_c
        cur, cur_c = _two_sum(q, q_err)

        e = _rescale_exponent(prev, cur)
        if e is not None:
            prev, prev_c = ldexp(prev, -e), ldexp(prev_c, -e)
            cur, cur_c = ldexp(cur, -e), ldexp(cur_c, -e)
            shift += e
    return cur + cur_c, shift


def _evaluate(n: int, alpha: float, x, compensated: bool):
    if not isinstance(n, Integral) or isinstance(n, bool) or n < 0:
        raise ParameterError(f"degree must be an integer >= 0, got {n!r}")
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise ParameterError(f"alpha must be > -1, got {alpha!r}")
    if not isinstance(x, np.ndarray):
        return ScaledValue.from_float(*_recurrence(n, alpha, _check_point(x), compensated))
    x = x.astype(float)
    for bad in x[~(x >= 0.0) | np.isinf(x)][:1]:
        _check_point(float(bad))  # raises the float path's DomainError
    if x.size < _FEW_LANES:
        lanes = [_recurrence(n, alpha, v, compensated) for v in x.tolist()]
        value, shift = np.reshape(lanes, (-1, 2)).T
    else:
        value, shift = _recurrence(n, alpha, x, compensated)
    m, e = np.frexp(value)  # ScaledValue.from_float, lane by lane
    zero = value == 0.0
    return np.where(zero, 0.0, 2.0 * m), np.where(zero, 0, e - 1 + np.int64(shift))


def laguerre_polynomial(n: int, alpha: float, x):
    """Evaluate L_n^(alpha)(x) for any degree n >= 0 by the ascending recurrence.

    Uses (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1} with
    power-of-two rescaling; alpha > -1 and x >= 0 are required. A float x
    gives a ScaledValue. A 1-D array x gives arrays (mantissas, exponents)
    whose lane i is bit for bit the ScaledValue for x[i], or for a lane that
    left double range, the nan or inf mantissa the float call rejects.
    """
    return _evaluate(n, alpha, x, compensated=False)


def laguerre_polynomial_compensated(n: int, alpha: float, x):
    """laguerre_polynomial to ~eps of the true value even near the clustered
    small zeros, by error-free transformations; used for zero certification."""
    return _evaluate(n, alpha, x, compensated=True)


def evaluate(params: LaguerreParams, x: float) -> ScaledValue:
    """L_n^(alpha)(x) as a ScaledValue."""
    return laguerre_polynomial(params.n, params.alpha, x)


def evaluate_derivative(params: LaguerreParams, x: float) -> ScaledValue:
    """d/dx L_n^(alpha)(x), via the shift identity L_n^(a)' = -L_{n-1}^(a+1)."""
    return laguerre_polynomial(params.n - 1, params.alpha + 1.0, x).negated()


def _aligned_terms(params: LaguerreParams, x: float):
    """Second-order-equation terms and their scales on a common binary exponent.

    Returns (term_mantissas, scale_mantissas, common_exponent) for the
    combination u'' - (1-(alpha+1)/x) u' + (n/x) u; scales are the aligned
    magnitudes of u'', u' and u*n/x.
    """
    n, alpha = params.n, params.alpha
    u = laguerre_polynomial(n, alpha, x)
    du = laguerre_polynomial(n - 1, alpha + 1.0, x).negated()
    ddu = laguerre_polynomial(n - 2, alpha + 2.0, x) if n >= 2 else ScaledValue.from_float(0.0)

    def product(coef: float, sv: ScaledValue):
        if coef == 0.0 or sv.is_zero():
            return None
        m, e = math.frexp(coef * sv.mantissa)
        return (2.0 * m, e - 1 + sv.exponent2)

    terms = [
        product(1.0, ddu),
        product(-(1.0 - (alpha + 1.0) / x), du),
        product(n / x, u),
    ]
    scales = [
        product(1.0, ddu),
        product(1.0, du),
        product(n / x, u),
    ]
    exps = [t[1] for t in terms if t is not None] + [s[1] for s in scales if s is not None]
    if not exps:
        return [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0
    common = max(exps)

    def align(t):
        return 0.0 if t is None else math.ldexp(t[0], t[1] - common)

    return [align(t) for t in terms], [abs(align(s)) for s in scales], common


def ode_residual(params: LaguerreParams, x: float) -> float:
    """u'' - (1-(alpha+1)/x) u' + (n/x) u at u = L_n^(alpha); vanishes analytically.

    The result is returned as a double and can overflow to +-inf when the
    polynomial's own magnitude exceeds double range; use
    ode_residual_relative for a scale-free measure.
    """
    x = _check_point(x, positive=True)
    terms, _, common = _aligned_terms(params, x)
    s = sum(terms)
    if s == 0.0:
        return 0.0
    try:
        return math.ldexp(s, common)
    except OverflowError:
        return math.copysign(math.inf, s)


def ode_residual_relative(params: LaguerreParams, x: float) -> float:
    """|ode_residual| / max(|u''|, |u'|, |u|*n/x), computed without overflow."""
    x = _check_point(x, positive=True)
    terms, scales, _ = _aligned_terms(params, x)
    top = max(scales)
    if top == 0.0:
        return 0.0
    return abs(sum(terms)) / top
