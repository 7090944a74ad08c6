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

# Rescale whenever the running recurrence values leave [2**-512, 2**512].
# One step multiplies them by about |2k+1+alpha-x|/(k+1), which is about
# alpha/(k+1) across the zeros, so a step's products (up to 2**512 times
# alpha or x) stay finite only while alpha and x stay below about 2**512
# (~1.3e154; about 2**499 for the compensated mode's error terms). Past
# that a float call raises _range_error's ParameterError.
_RESCALE_HI = 2.0**512
_RESCALE_LO = 2.0**-512
# Shorter plain arrays run lane by lane on floats, where numpy's per-call
# cost dominates. Measured break-even for refine's stacked plain pass at n in
# {100, 1000}: about 48 lanes (40 is not retuned to it).
_FEW_LANES = 40


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
        if (not isinstance(self.alpha, Real) or isinstance(self.alpha, bool)
                or not math.isfinite(self.alpha)):
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
        return _to_double(self.mantissa, self.exponent2)

    def negated(self) -> "ScaledValue":
        return ScaledValue(-self.mantissa, self.exponent2)

    def is_zero(self) -> bool:
        return self.mantissa == 0.0

    def ratio_to(self, other: "ScaledValue") -> float:
        """self / other as a double; other must be nonzero."""
        if other.mantissa == 0.0:
            raise ZeroDivisionError("ratio_to a zero ScaledValue")
        return _to_double(self.mantissa / other.mantissa, self.exponent2 - other.exponent2)


def _to_double(m: float, e: int) -> float:
    """m * 2**e as a double: 0.0 for m == 0, +-inf past double range."""
    if m == 0.0:
        return 0.0
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


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


def _plain_lane(n, alpha, x):
    """L_n^(alpha)(x) = value * 2**shift as (value, shift) at a float x, degree n >= 1.

    The noise is of order n*eps of the largest intermediate value, which near
    the clustered small zeros can dwarf the local scale |z L'|.
    """
    hi, lo, frexp, ldexp = _RESCALE_HI, _RESCALE_LO, math.frexp, math.ldexp
    shift, prev, cur, k = 0, 1.0, alpha + 1.0 - x, 1.0
    for _ in range(n - 1):
        k1 = k + 1.0
        prev, cur = cur, ((k + k1 + alpha - x) * cur - (k + alpha) * prev) / k1
        k = k1
        if not lo <= abs(cur) <= hi:  # see _recurrence; a nan takes the full test
            m = max(abs(prev), abs(cur))
            if m > hi or 0.0 < m < lo:
                e = frexp(m)[1]
                prev, cur, shift = ldexp(prev, -e), ldexp(cur, -e), shift + e
    return cur, shift


def _compensated_lane(n, alpha, x):
    """_plain_lane to ~eps of the true value, at 6-8x its cost: each step carries
    first-order rounding corrections by the error-free transformations (two-sum,
    Veltkamp-split two-product) of Ogita, Rump and Oishi."""
    hi, lo, frexp, ldexp = _RESCALE_HI, _RESCALE_LO, math.frexp, math.ldexp
    split = 134217729.0  # 2**27 + 1, the Veltkamp splitting constant
    nx = -x
    s = alpha + 1.0
    bb = s - alpha
    e1 = (alpha - (s - bb)) + (1.0 - bb)
    cur = s + nx
    bb = cur - s
    shift, prev, prev_c, cur_c = 0, 1.0, 0.0, e1 + ((s - (cur - bb)) + (nx - bb))
    ph, pl, k = 1.0, 0.0, 1.0  # ph + pl: the Veltkamp split of prev, carried from cur's
    for _ in range(n - 1):
        k1 = k + 1.0
        t = k + k1  # 2k+1, exact
        s = t + alpha
        bb = s - t
        e0 = (t - (s - bb)) + (alpha - bb)
        a_main = s + nx
        bb = a_main - s
        a_err = e0 + ((s - (a_main - bb)) + (nx - bb))
        b_main = k + alpha
        bb = b_main - k
        b_err = (k - (b_main - bb)) + (alpha - bb)

        t1 = a_main * cur
        t = split * a_main
        ah = t - (t - a_main)
        al = a_main - ah
        t = split * cur
        ch = t - (t - cur)
        cl = cur - ch
        t1e = ((ah * ch - t1) + ah * cl + al * ch) + al * cl
        t1e += a_main * cur_c + a_err * cur
        t2 = b_main * prev
        t = split * b_main
        bh = t - (t - b_main)
        bl = b_main - bh
        t2e = ((bh * ph - t2) + bh * pl + bl * ph) + bl * pl
        t2e += b_main * prev_c + b_err * prev
        nt2 = -t2
        num = t1 + nt2
        bb = num - t1
        num_e = (t1 - (num - bb)) + (nt2 - bb)
        num_e += t1e - t2e

        q = num / k1
        qc = q * k1
        t = split * q
        qh = t - (t - q)
        ql = q - qh
        t = split * k1
        kh = t - (t - k1)
        kl = k1 - kh
        q_err = (((num - qc) - (((qh * kh - qc) + qh * kl + ql * kh) + ql * kl)) + num_e) / k1

        prev, prev_c, ph, pl = cur, cur_c, ch, cl
        cur = q + q_err
        bb = cur - q
        cur_c = (q - (cur - bb)) + (q_err - bb)
        k = k1
        if not lo <= abs(cur) <= hi:  # see _recurrence; a nan takes the full test
            m = max(abs(prev), abs(cur))
            if m > hi or 0.0 < m < lo:
                e = frexp(m)[1]
                prev, cur, shift = ldexp(prev, -e), ldexp(cur, -e), shift + e
                prev_c, cur_c = ldexp(prev_c, -e), ldexp(cur_c, -e)
                t = split * prev
                ph = t - (t - prev)
                pl = prev - ph
    return cur + cur_c, shift


@np.errstate(all="ignore")  # overflow is silent, as on floats
def _recurrence(n, alpha, x):
    """_plain_lane over the lanes of equal-size degree, alpha and x arrays.

    A lane does _plain_lane's operations in the same order, which keeps it
    bit-identical to _plain_lane; regrouping a sum breaks that. A lane's
    value is taken at its own degree; it then rides on to the top degree,
    where it may overflow but touches no other lane.

    Rescaling: a lane rescales by the power of two taking m = max(|prev|,
    |cur|) back near 1 whenever m leaves [2**-512, 2**512]. |prev| is a |cur|
    that passed this test a step ago, or L_1, which cannot exceed 2**512
    without overflowing the first step's product; so the test can fire only
    where |cur| left the range or is nan, and the loops run it only then;
    where it fires for |cur| > 2**512 alone, m is |cur|. So each lane's
    rescale is its own, whichever gate runs. Over an array, the gate takes
    nan-skipping reductions (fmin, fmax), so a lane that left double range
    never stops the other lanes' rescaling.
    """
    shift, prev, cur = np.zeros(x.size, dtype=np.int64), 1.0, alpha + 1.0 - x  # L_0, L_1
    # degree-0 lanes keep out's L_0 = 1
    out, out_shift = np.ones(x.size), np.zeros(x.size, dtype=np.int64)
    stops, top = set(n.tolist()), n.max(initial=0)
    for k in range(1, top + 1):
        if k in stops:  # lanes of degree k are done
            done = n == k
            out[done], out_shift[done] = cur[done], shift[done]
        if k == top:
            break
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0)
        size = np.abs(cur)
        if np.fmin.reduce(size) < _RESCALE_LO:
            m = np.maximum(np.abs(prev), size)
            e = np.where((m > _RESCALE_HI) | ((m > 0.0) & (m < _RESCALE_LO)), np.frexp(m)[1], 0)
        elif np.fmax.reduce(size) > _RESCALE_HI:  # then m = |cur| wherever m > 2**512
            e = np.where(size > _RESCALE_HI, np.frexp(size)[1], 0)
        else:
            continue
        prev, cur, shift = np.ldexp(prev, -e), np.ldexp(cur, -e), shift + e
    return out, out_shift


def _range_error(n, alpha, x) -> ParameterError:
    """The error of a float call whose recurrence overflowed (see _RESCALE_HI)."""
    return ParameterError(f"the recurrence for L_n^(alpha)(x) left double range at "
                          f"(n, alpha, x) = ({n}, {alpha!r}, {x!r})")


def _evaluate(n, alpha, x, compensated: bool):
    """Lane arrays (mantissas, exponents) of L_n^(alpha)(x), or a ScaledValue when no
    input is an array: a float call is a one-lane array call."""
    low = n.min(initial=0).item() if isinstance(n, np.ndarray) and n.dtype.kind in "iu" else n
    if not isinstance(low, Integral) or isinstance(low, bool) or low < 0:
        raise ParameterError(f"degree must be an integer >= 0, got {low!r}")
    lanes = np.asarray(alpha)  # the first bad lane's alpha stands for all
    if lanes.dtype.kind not in "iuf" or not isinstance(alpha, (Real, np.ndarray)):
        raise ParameterError(f"alpha must be a finite real, got {alpha!r}")
    for a in lanes[~(lanes > -1.0) | np.isinf(lanes)][:1].tolist():
        raise ParameterError(f"alpha must be > -1, got {a!r}")
    points = np.asarray(x if isinstance(x, np.ndarray) else _check_point(x), dtype=float)
    shape = np.broadcast(n, lanes, points).shape
    degrees, lanes, points = (np.broadcast_to(v, shape or (1,)) for v in (n, lanes, points))
    for bad in points[~(points >= 0.0) | np.isinf(points)][:1]:
        _check_point(float(bad))  # the first bad lane raises its DomainError
    if compensated or points.size < _FEW_LANES:  # the array pass is plain only
        kernel = _compensated_lane if compensated else _plain_lane
        per_lane = zip(degrees.tolist(), lanes.tolist(), points.tolist())
        value, shift = np.reshape([kernel(d, a, v) if d else (1.0, 0) for d, a, v in per_lane],
                                  (-1, 2)).T
    else:
        value, shift = _recurrence(degrees, lanes, points)
    m, e = np.frexp(value)  # ScaledValue.from_float, lane by lane
    zero = value == 0.0
    m, e = np.where(zero, 0.0, 2.0 * m), np.where(zero, 0, e - 1 + np.int64(shift))
    if shape:
        return m, e
    if not math.isfinite(m[0]):
        raise _range_error(n, alpha, points.item())
    return ScaledValue(m.item(), e.item())


def laguerre_polynomial(n: int, alpha: float, x):
    """Evaluate L_n^(alpha)(x) for any degree n >= 0 by the ascending recurrence.

    Uses (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1} with
    power-of-two rescaling; alpha > -1 and x >= 0 are required. A 1-D array
    x, or integer-degree and alpha arrays broadcasting with x, give arrays
    (mantissas, exponents): lane i holds L_{n[i]}^(alpha[i])(x[i]), or for a
    lane that left double range, a nan or inf mantissa. A float call (no
    array argument) is a one-lane array call that returns its lane as a
    ScaledValue, or raises ParameterError where the lane left double range.
    """
    return _evaluate(n, alpha, x, compensated=False)


def laguerre_polynomial_compensated(n: int, alpha: float, x):
    """laguerre_polynomial to ~eps of the true value even near the clustered
    small zeros, by error-free transformations; used for zero certification.

    Arrays run lane by lane on floats, about 1 ms per lane at n = 1000.
    """
    return _evaluate(n, alpha, x, compensated=True)


def evaluate(params: LaguerreParams, x: float) -> ScaledValue:
    """L_n^(alpha)(x) as a ScaledValue."""
    return laguerre_polynomial(params.n, params.alpha, x)


def evaluate_derivative(params: LaguerreParams, x: float) -> ScaledValue:
    """d/dx L_n^(alpha)(x), via the shift identity L_n^(a)' = -L_{n-1}^(a+1)."""
    return laguerre_polynomial(params.n - 1, params.alpha + 1.0, x).negated()


def _aligned_terms(params: LaguerreParams, x: float):
    """Second-order-equation terms and their scales on a common binary exponent, at x > 0.

    Returns (term_mantissas, scale_mantissas, common_exponent) for the
    combination u'' - (1-(alpha+1)/x) u' + (n/x) u; scales are the aligned
    magnitudes of u'', u' and u*n/x.
    """
    n, alpha, x = params.n, params.alpha, _check_point(x, positive=True)
    u = laguerre_polynomial(n, alpha, x)
    du = evaluate_derivative(params, x)
    ddu = laguerre_polynomial(n - 2, alpha + 2.0, x) if n >= 2 else ScaledValue.from_float(0.0)
    c_du, c_u = -(1.0 - (alpha + 1.0) / x), n / x
    if not (math.isfinite(c_du) and math.isfinite(c_u)):
        raise DomainError(f"evaluation point {x!r} is too small: n/x or (alpha+1)/x overflows")
    # coefficient * mantissa with its exponent: the three terms, then the three scales
    products = [(c * sv.mantissa, sv.exponent2)
                for c, sv in ((1.0, ddu), (c_du, du), (c_u, u), (1.0, ddu), (1.0, du), (c_u, u))]
    common = max((math.frexp(p)[1] - 1 + e for p, e in products if p != 0.0), default=0)
    aligned = [math.ldexp(p, e - common) for p, e in products]  # one rounding each
    return aligned[:3], [abs(s) for s in aligned[3:]], common


def ode_residual(params: LaguerreParams, x: float) -> float:
    """u'' - (1-(alpha+1)/x) u' + (n/x) u at u = L_n^(alpha); vanishes analytically.

    The result is returned as a double and can overflow to +-inf when the
    polynomial's own magnitude exceeds double range; use
    ode_residual_relative for a scale-free measure.
    """
    terms, _, common = _aligned_terms(params, x)
    return _to_double(sum(terms), common)


def ode_residual_relative(params: LaguerreParams, x: float) -> float:
    """|ode_residual| / max(|u''|, |u'|, |u|*n/x), computed without overflow."""
    terms, scales, _ = _aligned_terms(params, x)
    top = max(scales)
    if top == 0.0:
        return 0.0
    return abs(sum(terms)) / top
