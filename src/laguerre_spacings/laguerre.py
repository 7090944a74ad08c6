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

# Rescale, downward only, whenever a running recurrence value passes 2**512. No
# upward rescale is needed: M_k = max(|L_{k-1}|, |L_k|) never falls below
# 2**-_DRAWDOWN times an earlier M, so from M >= 1/2 it stays above 2**-121 (see
# _recurrence). One step multiplies the values by about |2k+1+alpha-x|/(k+1), which
# is about alpha/(k+1) across the zeros, so a step's products (up to 2**512 times
# alpha or x) stay finite only while alpha and x stay below about 2**512 (~1.3e154;
# about 2**499 for the compensated mode's error terms). Past that a float call
# raises _range_error's ParameterError.
_RESCALE_HI = 2.0**512
# log2 of the proved bound on M_j / M_k, j <= k, over every degree, alpha and x
# the kernels accept, rounding included (the bound is 119.4 bits).
_DRAWDOWN = 120.0
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
# interpreted O(n^2) QL takes about a minute here (0.23 s at n = 1000 and 3.6 s at
# n = 4000, alpha = 1, process time, min of 5 and 2 on a 2-core x86_64 host).
_MAX_DEGREE = 2**14
# Step tables cached: a solve's plain and compensated lanes all read the one table
# of its (n, alpha); the cache keeps a few solves' tables.
_TABLES = 4
_SPLIT = 134217729.0  # 2**27 + 1, the Veltkamp splitting constant
# The lane bound x < inf as a closed one, for _lanes's comparisons.
_FLOAT_MAX = float(np.finfo(float).max)


def _degree(n, least: int) -> int:
    """n as an int in least.._MAX_DEGREE; a value that is not Integral, or a bool, or
    one out of that range raises ParameterError naming it."""
    if not isinstance(n, Integral) or isinstance(n, bool):
        raise ParameterError(f"degree must be an integer, got {n!r}")
    if n < least:
        raise ParameterError(f"degree must be >= {least}, got {int(n)}")
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
    hi, frexp, ldexp = _RESCALE_HI, math.frexp, math.ldexp
    shift, prev, cur = 0, 1.0, alpha + 1.0 - x
    for a, b, k1 in _plain_steps(n, alpha):
        prev, cur = cur, ((a - x) * cur - b * prev) / k1
        if abs(cur) > hi:  # see _recurrence
            e = frexp(cur)[1]
            prev, cur, shift = ldexp(prev, -e), ldexp(cur, -e), shift + e
    return cur, prev, shift


def _compensated_lane(n, alpha, x):
    """_plain_lane to ~eps of the true value, at 9-11x its cost: each step carries
    first-order rounding corrections by the error-free transformations (two-sum,
    Veltkamp-split two-product) of Ogita, Rump and Oishi. A step reads its row
    (s, b, k1) of _plain_steps(n, alpha) and forms the rest of its lane-free terms:
    k = k1 - 1 and 2k+1 = k + k1, exact since k1 < 2**26; s + s_err = (2k+1) +
    alpha and b + b_err = k + alpha as two-sums; b's Veltkamp halves bh + bl. k1
    is its own upper half, with lower half 0. Past alpha or x ~ 2**485 a product or
    a Veltkamp split can overflow and turn cur nan; the rescale test then reads m =
    max(|prev|, |cur|) = |prev| (max keeps its first argument beside a nan)."""
    hi, frexp, ldexp, split = _RESCALE_HI, math.frexp, math.ldexp, _SPLIT
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
        if not abs(cur) <= hi:  # see _recurrence; a nan cur tests m = |prev|
            m = max(abs(prev), abs(cur))
            if m > hi:
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
    M_k = max(|L_{k-1}|, |L_k|) grows by at most 2**grow a step and never falls
    below 2**-_DRAWDOWN times an earlier M (see _recurrence). A nonzero L_{k+1} is
    at least (u/2) min(|a_k - x|, b_k) M_k / (k+1) (a nonzero difference of two
    doubles is at least u/2 of the larger), or, where a_k = x, b_k/(k+1) |L_{k-1}|. Following each value back
    to its birth at most four steps earlier, or to L_0 = 1 or L_1 >= (u/2) min(1,
    bmin) M_1, every nonzero value, product and difference at a step is at least
    2**-floor times that step's M. A stride starts from M <= 2**512 (a check, or
    M_1 = max(1, |L_1|)), so its products stay below 2**1023 while 512 + (K-1)
    grow + log2(amax + bmax) <= 1023 - slack. Every M is at least 2**-(1 +
    _DRAWDOWN), since the last rescale left M in [1/2, 1) or M_1 >= 1; so every
    nonzero value stays above 2**-1022 while 1 + _DRAWDOWN + floor <= 1022 - slack,
    whatever K is. The 2 bits of slack cover every (1 +- u) factor and the rounding
    of these bounds themselves.
    """
    xlo, xhi = float(x.min()), float(x.max())
    if n < 3 or alpha + 2.0 * n + 1.0 >= 2.0**53:
        return 1
    amax = max(2.0 * n + alpha - xlo, xhi - alpha) + 2.0**-50 * (2.0 * n + 2.0 * abs(alpha) + xhi)
    bmin, bmax = 1.0 + alpha, n + alpha
    grow = math.log2(amax + bmax) - 1.0  # (|a_k - x| + b_k) / (k + 1), k + 1 >= 2
    tiny = max(52.0, -math.log2(bmin))  # the least nonzero |a_k - x| or b_k
    birth = 54.0 + tiny + math.log2(n)
    pair = (max(0.0, 1.0 - math.log2(bmin)) + 4.0 * grow  # b_k/(k+1) >= min(1, bmin/2)
            + max(birth, 1.0 + math.log2(max(1.0, 1.0 + alpha + xhi))))  # L_0 beside L_1
    floor = tiny + math.log2(n) + pair
    if 1.0 + _DRAWDOWN + floor > 1020.0:
        return 1
    room = 1023.0 - 2.0 - 512.0 - math.log2(amax + bmax)
    return max(1, min(n, 1 + int(room / grow)))


@np.errstate(all="ignore")  # overflow is silent, as on floats
def _recurrence(n, alpha, x):
    """_plain_lane over the lanes of the array x, at one degree n >= 1 and one alpha:
    (value, previous, shift), _plain_lane's three results as lane arrays.

    A lane does _plain_lane's operations in the same order, on the same rows of
    _plain_steps(n, alpha), which keeps its normalized values bit-identical to
    _plain_lane's; regrouping a sum breaks that. A step's products go into
    reused buffers.

    Rescaling, downward only: a lane rescales by the power of two taking m into
    [1/2, 1) whenever m passes 2**512. _plain_lane tests every step; here the test
    runs once every K = _stride(...) steps, which keeps every bit. With a_k =
    2k+1+alpha, b_k = k+alpha and M_k = max(|L_{k-1}|, |L_k|), (k+1) L_{k+1} = (a_k -
    x) L_k - b_k L_{k-1} gives growth M_{k+1} <= M_k max(1, (|a_k - x| + b_k) /
    (k+1)) up to (1 +- u)**4, and M never falls below 2**-_DRAWDOWN times an earlier
    M (the floor, below). _stride picks K so that, between two checks, no value,
    product or difference overflows or turns subnormal. Every operation then
    rounds the same real number times a power of two, which a power-of-two
    scaling commutes with; so the lane carries _plain_lane's values times
    2**(its shift minus _plain_lane's), and its normalized (mantissa, exponent)
    is _plain_lane's. K shrinks as the bounds widen (large alpha or x, alpha + 1
    tiny); where they leave no room (x past about 2**70, alpha past
    2**53), K = 1 and the test runs every step.

    With K = 1, m = |cur|: |prev| is a |cur| that passed the test a step ago, or
    L_1, which cannot exceed 2**512 without overflowing the first step's product.
    A stride lets |prev| pass 2**512 too, so K > 1 takes m = max(|prev|, |cur|).
    Either way each lane's rescale is its own, and the gate's reduction (fmax)
    skips nan, so a lane that left double range never stops the others' rescaling.

    The floor: for any y_0 = 1, y_1, ... with (k+1) y_{k+1} = (a_k - x) y_k - b_k
    y_{k-1} + r_k, G_k = (k+alpha) y_{k-1}**2 - (2k+alpha-x) y_{k-1} y_k + k y_k**2
    obeys (k+1) G_{k+1} = (k+alpha) G_k + x y_k**2 + E_k, E_k = r_k (2 b_k (y_k -
    y_{k-1}) - (alpha+x) y_k + r_k), G_1 = x + E_0 (y_{-1} = 0, b_0 = alpha). For L
    (r = 0) that is the Christoffel-Darboux sum k G_k = x sum_{j<k} L_j**2
    prod_{i=j+1}^{k-1} (i+alpha)/i, and always G_k <= (2k+alpha+|2k+alpha-x|) M_k**2,
    so the pair cannot collapse while x is away from 0. The values all three kernels
    carry obey |r_k| <= 4.01 u ((a_k + |a_k - x|) |y_k| + b_k |y_{k-1}|). Then M_j /
    M_k (j <= k <= n <= 2**14) is at most: 1 for x >= (1 + 2**-40)(4n + 2 alpha + 2),
    where |L_k| grows; 2**23.1 for alpha >= 2**26, the product of the per-step
    lower bounds b_k / (k+1+|a_k - x|) on M_{k+1} / M_k; 2**57.2 for x at or above
    the root x_3 ~ 8.02 u (9.5 abar**2 + 5.5 n abar), abar = 2n+1+max(alpha, 0), at
    which the E_j stay below half of the sum's x y_j**2 terms; and 2**119.4 below
    x_3, where the differences y_k - y_{k-1} move slowly and a weighted norm |y_k| +
    W |y_k - y_{k-1}| bounds the backward steps. Hence _DRAWDOWN = 120, M >=
    2**-121, and no value needs rescaling upward; the worst measured M_j / M_k is
    2**71.7 (n = 6473, alpha = -1 + 2**-52, x = 3.3e-19).
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
        if not np.fmax.reduce(mag) > _RESCALE_HI:
            continue
        e = np.where(mag > _RESCALE_HI, np.frexp(mag)[1], 0)
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
