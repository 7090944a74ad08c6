"""Overflow-safe evaluation of generalized Laguerre polynomials.

Values are carried as mantissa * 2**exponent2 pairs so that degrees and
exponents large enough to overflow a raw double (e.g. n=200, alpha=1e4)
stay representable end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
# Plain arrays of fewer lanes run lane by lane on floats, where numpy's
# per-call cost dominates; solver.refine batches its Newton rounds only while
# this many lanes are pending, and steps the rest one by one on the lane kernel.
# Measured break-even on plain calls with previous (each kernel timed on the same
# calls, min of 15, three runs): about 24-28 lanes at n in {20, 40} and 28-32 at n
# in {100, 1000}; on the array pass a 32-lane call costs 0.72-0.81 of the lane
# kernels at n = 20, 0.80-0.97 at n = 40 and 0.83-1.23 at n in {100, 1000}, and a
# 48-lane one 0.38-1.04.
_FEW_LANES = 32
# The largest degree any door accepts, set by the lane kernels' step tables: a
# solve reads one table, which at this degree takes 2.4 MB (144 bytes a step), so
# a full cache holds about 9.6 MB. _compensated_lane needs _MAX_DEGREE + 1 < 2**26,
# where every k + 1 splits exactly and k and 2k + 1 follow from it exactly. The
# interpreted O(n^2) QL takes minutes here (0.5 s at n = 1000).
_MAX_DEGREE = 2**14
# Step tables cached: a solve's plain and compensated lanes all read the one table
# of its (n, alpha); the cache keeps a few solves' tables.
_TABLES = 4
_SPLIT = 134217729.0  # 2**27 + 1, the Veltkamp splitting constant
# The lane bound x < inf as a closed one, for _lanes's comparisons.
_FLOAT_MAX = float(np.finfo(float).max)


def _degree(n, low: int) -> int:
    """n as an int in low.._MAX_DEGREE; a value that is not Integral, or a bool, or one
    out of that range raises ParameterError naming it."""
    if not isinstance(n, Integral) or isinstance(n, bool):
        raise ParameterError(f"degree must be an integer, got {n!r}")
    if n < low:
        raise ParameterError(f"degree must be >= {low}, got {int(n)}")
    if n > _MAX_DEGREE:
        raise ParameterError(f"degree must be <= {_MAX_DEGREE}, got {int(n)}")
    return int(n)


def _alpha(a, error=ParameterError) -> float:
    """a as a double: a non-bool real, finite and > -1; anything else raises error
    naming it."""
    try:
        value = float(a) if isinstance(a, Real) and not isinstance(a, bool) else None
    except OverflowError:
        raise error(f"alpha is too large for a double, got {a!r}") from None
    if value is None or not math.isfinite(value):
        raise error(f"alpha must be a finite real, got {a if value is None else value!r}")
    if value <= -1.0:
        raise error(f"alpha must be > -1, got {value!r}")
    return value


def _check_point(x, positive: bool = False) -> float:
    """x as a double: a non-bool real, finite and >= 0 (> 0 where positive); anything
    else raises DomainError naming it."""
    try:
        value = float(x) if isinstance(x, Real) and not isinstance(x, bool) else None
    except OverflowError:  # a real past double range
        value = None
    if value is None or not 0.0 <= value < math.inf or (positive and value == 0.0):
        raise DomainError(f"evaluation point must be a finite real {'>' if positive else '>='}"
                          f" 0, got {x if value is None else value!r}")
    return value


@dataclass(frozen=True)
class LaguerreParams:
    """Degree n >= 1 and exponent alpha > -1 identifying one polynomial."""

    n: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "n", _degree(self.n, 1))
        object.__setattr__(self, "alpha", _alpha(self.alpha))

    @property
    def near_degenerate_weight(self) -> bool:
        """True when alpha hugs -1 (alpha+1 < 1e-6); reports flag these runs."""
        return self.alpha + 1.0 < 1e-6


def _normalized(value: float, shift: int = 0) -> tuple:
    """value * 2**shift as (mantissa, exponent2), |mantissa| in [1, 2) or 0; a nan or
    inf value keeps it as its mantissa."""
    if value == 0.0:
        return 0.0, 0
    m, e = math.frexp(value)  # |m| in [0.5, 1)
    return 2.0 * m, e - 1 + shift


def _to_double(m: float, e: int) -> float:
    """m * 2**e as a double: 0.0 for m == 0, +-inf past double range."""
    if m == 0.0:
        return 0.0
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


@lru_cache(maxsize=_TABLES)
def _plain_steps(n: int, alpha: float) -> tuple:
    """The lane-free terms of the lane kernels' steps k = 1..n-1, one row (a, b, k1) a
    step: a = (k + k1) + alpha, b = k + alpha and k1 = k + 1.

    A tuple of tuples (144 bytes a step), built once per (n, alpha) and shared
    by every lane and Newton round: _plain_lane, _compensated_lane and
    _recurrence read it. The cache keeps the last _TABLES of them.
    """
    return tuple((k + (k + 1.0) + alpha, k + alpha, k + 1.0) for k in map(float, range(1, n)))


def _plain_lane(n, alpha, x):
    """(value, previous, shift) at a float x, degree n >= 1: L_n^(alpha)(x) = value *
    2**shift and L_{n-1}^(alpha)(x) = previous * 2**shift, the two values the
    recurrence holds when it stops (L_0 = 1 for n = 1).

    A step pays only for its lane: its lane-free terms are a row of
    _plain_steps(n, alpha). The noise is of order n*eps of the largest
    intermediate value, which near the clustered small zeros can dwarf the
    local scale |z L'|.
    """
    hi, lo, frexp, ldexp = _RESCALE_HI, _RESCALE_LO, math.frexp, math.ldexp
    shift, prev, cur = 0, 1.0, alpha + 1.0 - x
    for a, b, k1 in _plain_steps(n, alpha):
        prev, cur = cur, ((a - x) * cur - b * prev) / k1
        if not lo <= abs(cur) <= hi:  # see _recurrence; a nan takes the full test
            m = max(abs(prev), abs(cur))
            if m > hi or 0.0 < m < lo:
                e = frexp(m)[1]
                prev, cur, shift = ldexp(prev, -e), ldexp(cur, -e), shift + e
    return cur, prev, shift


def _compensated_lane(n, alpha, x):
    """_plain_lane to ~eps of the true value, at 9-11x its cost: each step carries
    first-order rounding corrections by the error-free transformations (two-sum,
    Veltkamp-split two-product) of Ogita, Rump and Oishi. A step reads its row
    (s, b, k1) of _plain_steps(n, alpha) and forms the rest of its lane-free terms:
    k = k1 - 1 and 2k+1 = k + k1, exact since k1 < 2**26; s + s_err = (2k+1) +
    alpha and b + b_err = k + alpha as two-sums; b's Veltkamp halves bh + bl. k1
    is its own upper half, with lower half 0."""
    hi, lo, frexp, ldexp, split = _RESCALE_HI, _RESCALE_LO, math.frexp, math.ldexp, _SPLIT
    nx = -x
    s = alpha + 1.0
    bb = s - alpha
    e1 = (alpha - (s - bb)) + (1.0 - bb)
    cur = s + nx
    bb = cur - s
    shift, prev, prev_c, cur_c = 0, 1.0, 0.0, e1 + ((s - (cur - bb)) + (nx - bb))
    ph, pl = 1.0, 0.0  # ph + pl: the Veltkamp split of prev, carried from cur's
    for s, b_main, k1 in _plain_steps(n, alpha):
        k = k1 - 1.0
        t = k + k1  # 2k+1, exact
        bb = s - t
        s_err = (t - (s - bb)) + (alpha - bb)
        bb = b_main - k
        b_err = (k - (b_main - bb)) + (alpha - bb)
        t = split * b_main
        bh = t - (t - b_main)
        bl = b_main - bh
        a_main = s + nx
        bb = a_main - s
        a_err = s_err + ((s - (a_main - bb)) + (nx - bb))

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
        q_err = (((num - qc) - ((qh * k1 - qc) + ql * k1)) + num_e) / k1

        prev, prev_c, ph, pl = cur, cur_c, ch, cl
        cur = q + q_err
        bb = cur - q
        cur_c = (q - (cur - bb)) + (q_err - bb)
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


def _stride(n, alpha, x) -> int:
    """The number K of recurrence steps between two rescale checks of _recurrence
    over the lanes x at degree n: the largest K for which the bounds below keep
    every value, product and difference of a stride normal or zero, and finite,
    in _recurrence and in _plain_lane alike; 1 where they leave no room.

    Over every lane and step k < n, with u = 2**-53: |a_k - x| <= amax and
    b_k <= bmax; b_k >= bmin = 1 + alpha (k = 1); a nonzero |a_k - x| is at least
    2**-52 (a_k >= 2, so it exceeds 1 for x < 1, and else both are multiples of
    2**-52); and, while
    2k+1+alpha < 2**53, a_k grows with k, so a_k - x is 0 at one step at most.
    M_k = max(|L_{k-1}|, |L_k|) grows by at most 2**grow a step and decays by at
    most 2**-decay (see _recurrence). A nonzero L_{k+1} is at least (u/2) min(|a_k -
    x|, b_k) M_k / (k+1) (a nonzero difference of two doubles is at least u/2 of
    the larger), or, where a_k = x, b_k/(k+1) |L_{k-1}|. Following each value back
    to its birth at most four steps earlier, or to L_0 = 1 or L_1 >= (u/2) min(1,
    bmin) M_1, every nonzero value, product and difference at a step is at least
    2**-floor times that step's M. A stride starts from M in [2**-512, 2**512]
    (a check, or M_1 = max(1, |L_1|)), so its products stay below 2**1023 while
    512 + (K-1) grow + log2(amax + bmax) <= 1023 - slack, and above 2**-1022
    while 512 + (K-1) decay + floor <= 1022 - slack; the 2 bits of slack cover
    every (1 +- u) factor and the rounding of these bounds themselves.
    """
    xlo, xhi = float(x.min()), float(x.max())
    if n < 3 or alpha + 2.0 * n + 1.0 >= 2.0**53:
        return 1
    amax = max(2.0 * n + alpha - xlo, xhi - alpha) + 2.0**-50 * (2.0 * n + 2.0 * abs(alpha) + xhi)
    bmin, bmax = 1.0 + alpha, n + alpha
    grow = math.log2(amax + bmax) - 1.0  # (|a_k - x| + b_k) / (k + 1), k + 1 >= 2
    decay = max(0.0, math.log2((n + amax) / bmin))  # b_k / (k + 1 + |a_k - x|)
    tiny = max(52.0, -math.log2(bmin))  # the least nonzero |a_k - x| or b_k
    birth = 54.0 + tiny + math.log2(n)
    pair = (max(0.0, 1.0 - math.log2(bmin)) + 4.0 * grow  # b_k/(k+1) >= min(1, bmin/2)
            + max(birth, 1.0 + math.log2(max(1.0, 1.0 + alpha + xhi))))  # L_0 beside L_1
    floor = tiny + math.log2(n) + pair
    room_hi = 1023.0 - 2.0 - 512.0 - math.log2(amax + bmax)
    room_lo = 1022.0 - 2.0 - 512.0 - floor
    if room_lo < 0.0:
        return 1
    steps = min(room_hi / grow, room_lo / decay if decay else math.inf)
    return max(1, min(n, 1 + int(steps)))


@np.errstate(all="ignore")  # overflow is silent, as on floats
def _recurrence(n, alpha, x):
    """_plain_lane over the lanes of the array x, at one degree n >= 1 and one alpha:
    (value, previous, shift), _plain_lane's three results as lane arrays.

    A lane does _plain_lane's operations in the same order, on the same rows of
    _plain_steps(n, alpha), which keeps its normalized values bit-identical to
    _plain_lane's; regrouping a sum breaks that. A step's products go into
    reused buffers.

    Rescaling: a lane rescales by the power of two taking m = max(|prev|,
    |cur|) back near 1 whenever m leaves [2**-512, 2**512]. _plain_lane tests
    every step; here the test runs once every K = _stride(...) steps, which
    keeps every bit. With a_k = 2k+1+alpha, b_k = k+alpha and M_k = max(|L_{k-1}|,
    |L_k|), (k+1) L_{k+1} = (a_k - x) L_k - b_k L_{k-1} gives
      growth  M_{k+1} <= M_k max(1, (|a_k - x| + b_k) / (k+1)),
      decay   M_{k+1} >= M_k min(1, b_k / (k+1+|a_k - x|)),
    up to (1 +- u)**4. _stride picks K so that, between two checks, no value,
    product or difference overflows or turns subnormal. Every operation then
    rounds the same real number times a power of two, which a power-of-two
    scaling commutes with; so the lane carries _plain_lane's values times
    2**(its shift minus _plain_lane's), and its normalized (mantissa, exponent)
    is _plain_lane's. K shrinks as the bounds widen (large alpha or x, alpha + 1
    tiny); where they leave no room (x past about 2**70, alpha past
    2**53), K = 1 and the test runs every step.

    With K = 1, |prev| is a |cur| that passed the test a step ago, or L_1,
    which cannot exceed 2**512 without overflowing the first step's product;
    so the test can fire only where |cur| left the range or is nan, and it
    gates on |cur|. A stride lets |prev| leave the range too: K > 1 gates on m.
    Either way each lane's rescale is its own. Over an array, the gate takes
    nan-skipping reductions (fmin, fmax), so a lane that left double range
    never stops the other lanes' rescaling.
    """
    subtract, multiply, divide = np.subtract, np.multiply, np.divide
    shift = np.zeros(x.size, dtype=np.int64)
    (prev, t1, t2, mag), cur = np.ones((4, x.size)), alpha + 1.0 - x  # prev holds L_0
    stride = _stride(n, alpha, x)
    for k, (a, b, k1) in enumerate(_plain_steps(n, alpha), 1):
        subtract(a, x, t1)
        multiply(t1, cur, t1)
        multiply(b, prev, t2)
        subtract(t1, t2, t1)
        divide(t1, k1, prev)
        prev, cur = cur, prev
        if k % stride:
            continue
        np.abs(cur, mag)
        if stride > 1:
            np.maximum(np.abs(prev, t2), mag, out=mag)
        if not (np.fmin.reduce(mag) < _RESCALE_LO or np.fmax.reduce(mag) > _RESCALE_HI):
            continue
        m = np.maximum(np.abs(prev), mag)
        e = np.where((m > _RESCALE_HI) | ((m > 0.0) & (m < _RESCALE_LO)), np.frexp(m)[1], 0)
        np.ldexp(prev, -e, prev)
        np.ldexp(cur, -e, cur)
        shift += e
    return cur, prev, shift


def _range_error(n, alpha, x) -> ParameterError:
    """The error of a float call whose recurrence overflowed (see _RESCALE_HI)."""
    return ParameterError(f"the recurrence for L_n^(alpha)(x) left double range at "
                          f"(n, alpha, x) = ({n}, {alpha!r}, {x!r})")


def _lanes(x) -> tuple:
    """(lanes, array): x's lanes as Python values and whether x is a 1-D array. An
    integer or float array gives its tolist() lanes, each checked by _check_point, then
    its shape; any other value, a 0-D array too, is one lane, _check_point(x)."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):
        return [_check_point(x)], False
    lanes = x.reshape(-1).tolist()
    for lane in lanes:
        if not 0.0 <= lane <= _FLOAT_MAX:
            _check_point(lane)
    if x.ndim > 1:
        raise ParameterError(f"lane arrays must be 1-D, got shape {x.shape}")
    return lanes, x.ndim == 1


def _evaluate(n, alpha, x, compensated: bool, previous: bool = False):
    """Lane arrays (mantissas, exponents) of L_n^(alpha)(x) over a 1-D array x, or, for
    any other x, its one lane's pair (mantissa, exponent) as a float and an int. With
    previous (plain mode only), a pair: that result and its like for L_{n-1}^(alpha)(x).

    Every call passes one door on Python values: _degree, _alpha and _lanes read n,
    alpha and x, in that order. Plain calls at degree >= 1 of at least _FEW_LANES
    lanes run _recurrence on an array built from the checked lanes; the others run
    the float-lane kernels.
    """
    n, alpha = _degree(n, 0), _alpha(alpha)
    points, array = _lanes(x)
    if n and not compensated and len(points) >= _FEW_LANES:
        *values, shift = _recurrence(n, alpha, np.array(points, dtype=float))
        values = np.array(values[:2 if previous else 1])
        m, e = np.frexp(values)  # _normalized, lane by lane
        zero = values == 0.0
        m, e = np.where(zero, 0.0, 2.0 * m), np.where(zero, 0, e - 1 + shift)
        return ((m[0], e[0]), (m[1], e[1])) if previous else (m[0], e[0])
    if compensated:
        lanes = [_normalized(*_compensated_lane(n, alpha, v)) if n else (1.0, 0) for v in points]
    else:  # rows (L_n, L_{n-1}, shift); degree 0 has L_0 = 1 beside L_{-1} = 0
        rows = [_plain_lane(n, alpha, v) if n else (1.0, 0.0, 0) for v in points]
        lanes = [_normalized(value, shift) for value, _, shift in rows]
    results = [lanes, [_normalized(prev, shift) for _, prev, shift in rows]] if previous else [lanes]
    if not array:  # a float call: its one lane's pairs
        if not math.isfinite(lanes[0][0]):
            raise _range_error(n, alpha, points[0])
        results = [out[0] for out in results]
    else:
        results = [(np.array([m for m, _ in out], dtype=float),
                    np.array([e for _, e in out], dtype=np.int64)) for out in results]
    return tuple(results) if previous else results[0]


def laguerre_polynomial(n: int, alpha: float, x, *, previous: bool = False):
    """Evaluate L_n^(alpha)(x) for any degree n >= 0 by the ascending recurrence.

    Uses (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1} with
    power-of-two rescaling. A call takes one degree n, an integer in
    0.._MAX_DEGREE, and one alpha, a non-bool real with a finite double > -1;
    x is a non-bool real >= 0 or a 1-D integer or float array of such lanes.
    The inputs are checked in the order n, alpha, x: a bad n or alpha, an array
    of either (0-D too) and an x of more than one dimension raise
    ParameterError, and a bad x lane DomainError. A 1-D x gives arrays
    (mantissas, exponents): lane i holds L_n^(alpha)(x[i]) = mantissas[i] *
    2**exponents[i], |mantissa| in [1, 2) or 0, or for a lane that left double
    range, a nan or inf mantissa. Any other x makes a float call, a one-lane
    call that returns its pair (mantissa, exponent) as a float and an int, or
    raises ParameterError where the lane left double range.

    With previous=True the call returns a pair: that result, then its like for
    L_{n-1}^(alpha)(x), which the same pass holds when it stops (L_{-1} = 0 at
    degree 0). Each equals its own call's normalized bits; together they give
    the derivative, x L_n' = n L_n - (n+alpha) L_{n-1} (DLMF 18.9.14).
    """
    return _evaluate(n, alpha, x, compensated=False, previous=previous)


def laguerre_polynomial_compensated(n: int, alpha: float, x):
    """laguerre_polynomial to ~eps of the true value even near the clustered
    small zeros, by error-free transformations; used for zero certification.

    Arrays run lane by lane on floats, about 0.94-1.04 ms per lane at n = 1000
    (10-11x a plain lane; 64 lanes, min and median of 9, a 2-core x86_64 host).
    """
    return _evaluate(n, alpha, x, compensated=True)
