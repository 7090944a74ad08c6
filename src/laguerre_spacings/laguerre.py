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
# Measured break-even on plain calls (each kernel timed on the same calls, min
# of 15, three runs): about 36 lanes at n = 20, 32 at n = 40 and 26-28 at n in
# {100, 1000}; on the array pass a 32-lane call costs 1.10-1.12 of the lane
# kernels at n = 20, 0.98-1.03 at n = 40 and 0.81-0.98 at n in {100, 1000},
# and a 48-lane one 0.43-0.81.
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
# _recurrence forms the coefficients of arrays of up to _BLOCK_LANES lanes in
# blocks of _BLOCK elements (64 KiB): a pass costs 0.63-0.72 of forming them
# step by step at 32-64 lanes and n in {40, 100, 200, 1000}, 0.71-0.76 at 128,
# 0.84-0.88 at 256 and 0.97-1.01 at 400; 1.2-1.3 at 1000 lanes and 1.4-1.6 at 2000.
_BLOCK_LANES = 256
_BLOCK = 8192
# The lane bounds alpha > -1 and x < inf as closed ones, for _lanes's comparisons.
_ALPHA_LOW, _FLOAT_MAX = math.nextafter(-1.0, 0.0), float(np.finfo(float).max)


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
    by every lane, plain or compensated, and Newton round; the cache keeps the
    last _TABLES of them.
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


def _coefficients(alpha, x, top, a, b):
    """The lane arrays ((2k+1)+alpha)-x and k+alpha of _recurrence's steps k = 1..top-1.

    Up to _BLOCK_LANES lanes, one broadcast forms them for a block of steps
    (_BLOCK elements), which saves three numpy calls a step; past that, a
    block's rows cost more than the calls, and they are formed step by step
    into the buffers a and b.
    """
    rows = _BLOCK // x.size if x.size <= _BLOCK_LANES else 0
    if not rows:
        for k in range(1, top):
            yield np.subtract(np.add(2.0 * k + 1.0, alpha, a), x, a), np.add(k, alpha, b)
        return
    for k in range(1, top, rows):
        ks = np.arange(k, min(k + rows, top), dtype=float)[:, None]
        yield from zip(2.0 * ks + 1.0 + alpha - x, ks + alpha)


def _stride(top, alpha, x) -> int:
    """The number K of recurrence steps between two rescale checks of _recurrence
    over these lanes (degrees up to top): the largest K for which the bounds below
    keep every value, product and difference of a stride normal or zero, and
    finite, in _recurrence and in _plain_lane alike; 1 where they leave no room.

    Over every lane and step k < top, with u = 2**-53: |a_k - x| <= amax and
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
    alo, ahi, xlo, xhi = (float(v) for v in (alpha.min(), alpha.max(), x.min(), x.max()))
    if top < 3 or ahi + 2.0 * top + 1.0 >= 2.0**53:
        return 1
    amax = max(2.0 * top + ahi - xlo, xhi - alo) + 2.0**-50 * (2.0 * top + abs(ahi)
                                                                + abs(alo) + xhi)
    bmin, bmax = 1.0 + alo, top + ahi
    grow = math.log2(amax + bmax) - 1.0  # (|a_k - x| + b_k) / (k + 1), k + 1 >= 2
    decay = max(0.0, math.log2((top + amax) / bmin))  # b_k / (k + 1 + |a_k - x|)
    tiny = max(52.0, -math.log2(bmin))  # the least nonzero |a_k - x| or b_k
    birth = 54.0 + tiny + math.log2(top)
    pair = (max(0.0, 1.0 - math.log2(bmin)) + 4.0 * grow  # b_k/(k+1) >= min(1, bmin/2)
            + max(birth, 1.0 + math.log2(max(1.0, 1.0 + ahi + xhi))))  # L_0 beside L_1
    floor = tiny + math.log2(top) + pair
    room_hi = 1023.0 - 2.0 - 512.0 - math.log2(amax + bmax)
    room_lo = 1022.0 - 2.0 - 512.0 - floor
    if room_lo < 0.0:
        return 1
    steps = min(room_hi / grow, room_lo / decay if decay else math.inf)
    return max(1, min(int(top), 1 + int(steps)))


@np.errstate(all="ignore")  # overflow is silent, as on floats
def _recurrence(n, alpha, x):
    """_plain_lane over the lanes of equal-size degree, alpha and x arrays: (values,
    shift), where the rows of values are _plain_lane's value and previous, and a
    degree-0 lane holds L_0 = 1 beside L_{-1} = 0.

    A lane does _plain_lane's operations in the same order, which keeps its
    normalized values bit-identical to _plain_lane's; regrouping a sum breaks
    that. A lane's values are taken at its own degree; it then rides on to the
    top degree, where it may overflow but touches no other lane. A step's
    products go into reused buffers.

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
    gates on |cur|; where it fires for |cur| > 2**512 alone, m is |cur|. A
    stride lets |prev| leave the range too, so for K > 1 the gate reads m.
    Either way each lane's rescale is its own. Over an array, the gate takes
    nan-skipping reductions (fmin, fmax), so a lane that left double range
    never stops the other lanes' rescaling.
    """
    shift, out_shift = np.zeros((2, x.size), dtype=np.int64)
    # prev holds L_0; degree-0 lanes keep out's L_0 = 1 beside L_{-1} = 0
    (prev, t1, t2, mag), cur = np.ones((4, x.size)), alpha + 1.0 - x
    out = np.zeros((2, x.size))
    out[0] = 1.0
    stops, top = set(n.tolist()), n.max(initial=0)
    stride = _stride(top, alpha, x)
    coefficients = _coefficients(alpha, x, top, t1, t2)
    for k in range(1, top + 1):
        if k in stops:  # lanes of degree k are done
            done = n == k
            out[0, done], out[1, done], out_shift[done] = cur[done], prev[done], shift[done]
        if k == top:
            break
        a, b = next(coefficients)
        np.multiply(a, cur, t1)
        np.multiply(b, prev, t2)
        np.subtract(t1, t2, t1)
        np.divide(t1, k + 1.0, prev)
        prev, cur = cur, prev
        if k % stride:
            continue
        np.abs(cur, mag)
        if stride > 1:
            np.maximum(np.abs(prev, t2), mag, out=mag)
        if np.fmin.reduce(mag) < _RESCALE_LO:
            m = np.maximum(np.abs(prev), mag)
            e = np.where((m > _RESCALE_HI) | ((m > 0.0) & (m < _RESCALE_LO)), np.frexp(m)[1], 0)
        elif np.fmax.reduce(mag) > _RESCALE_HI:  # then m = mag wherever m > 2**512
            e = np.where(mag > _RESCALE_HI, np.frexp(mag)[1], 0)
        else:
            continue
        np.ldexp(prev, -e, prev)
        np.ldexp(cur, -e, cur)
        shift += e
    return out, out_shift


def _range_error(n, alpha, x) -> ParameterError:
    """The error of a float call whose recurrence overflowed (see _RESCALE_HI)."""
    return ParameterError(f"the recurrence for L_n^(alpha)(x) left double range at "
                          f"(n, alpha, x) = ({n}, {alpha!r}, {x!r})")


def _lanes(v, kinds: str, rule, low, high) -> tuple:
    """(lanes, size): v's lanes as Python values and its lane count. An array whose
    dtype kind is in kinds gives its tolist() lanes, and its length as size where it is
    1-D (None where 0-D, -1 past one dimension); the first lane outside [low, high], or
    nan, raises rule(lane)'s error. Any other value is one lane, rule(v), of size None."""
    if not (isinstance(v, np.ndarray) and v.dtype.kind in kinds):
        return [rule(v)], None
    lanes = v.reshape(-1).tolist()
    for lane in lanes:
        if not low <= lane <= high:
            rule(lane)
    return lanes, (len(v) if v.ndim == 1 else None if v.ndim == 0 else -1)


def _evaluate(n, alpha, x, compensated: bool, previous: bool = False):
    """Lane arrays (mantissas, exponents) of L_n^(alpha)(x), or, when no input is an
    array, the one lane's pair (mantissa, exponent) as a float and an int: a float call
    is a one-lane call. With previous (plain mode only), a pair: that result and its
    like for L_{n-1}^(alpha)(x) (L_{-1} = 0).

    Every call passes one door on Python values: _lanes reads n, alpha and x, in that
    order, each lane checked by its input's rule (_degree, _alpha, _check_point), so
    the first bad lane raises its rule's error; then their sizes must broadcast.
    Compensated calls and plain calls of fewer than _FEW_LANES lanes run the
    float-lane kernels; longer plain calls run _recurrence on arrays built from the
    checked lanes.
    """
    degrees, n_size = _lanes(n, "iu", lambda v: _degree(v, 0), 0, _MAX_DEGREE)
    alphas, alpha_size = _lanes(alpha, "iuf", _alpha, _ALPHA_LOW, _FLOAT_MAX)
    points, x_size = _lanes(x, "iuf", _check_point, 0.0, _FLOAT_MAX)
    sizes = {size for size in (n_size, alpha_size, x_size) if size is not None}
    if -1 in sizes or len(sizes - {1}) > 1:
        raise ParameterError(f"lane arrays {'must be 1-D' if -1 in sizes else 'do not broadcast'},"
                             f" got shapes {np.shape(n)}, {np.shape(alpha)} and {np.shape(x)}")
    size = max(sizes - {1}, default=1)
    columns = [v if len(v) == size else v * size for v in (degrees, alphas, points)]
    if not compensated and size >= _FEW_LANES:
        values, shift = _recurrence(*(np.array(v, dtype) for v, dtype in
                                      zip(columns, (np.int64, np.float64, np.float64))))
        values = values[:2 if previous else 1]
        m, e = np.frexp(values)  # _normalized, lane by lane
        zero = values == 0.0
        m, e = np.where(zero, 0.0, 2.0 * m), np.where(zero, 0, e - 1 + shift)
        return ((m[0], e[0]), (m[1], e[1])) if previous else (m[0], e[0])
    if compensated:
        lanes = [_normalized(*_compensated_lane(d, float(a), v)) if d else (1.0, 0)
                 for d, a, v in zip(*columns)]
    else:  # rows (L_n, L_{n-1}, shift); a degree-0 lane has L_0 = 1 beside L_{-1} = 0
        rows = [_plain_lane(d, float(a), v) if d else (1.0, 0.0, 0) for d, a, v in zip(*columns)]
        lanes = [_normalized(value, shift) for value, _, shift in rows]
    results = [lanes, [_normalized(prev, shift) for _, prev, shift in rows]] if previous else [lanes]
    if not sizes:  # a float call: its one lane's pairs
        if not math.isfinite(lanes[0][0]):
            raise _range_error(degrees[0], alphas[0], points[0])
        results = [out[0] for out in results]
    else:
        results = [(np.array([m for m, _ in out], dtype=float),
                    np.array([e for _, e in out], dtype=np.int64)) for out in results]
    return tuple(results) if previous else results[0]


def laguerre_polynomial(n: int, alpha: float, x, *, previous: bool = False):
    """Evaluate L_n^(alpha)(x) for any degree n >= 0 by the ascending recurrence.

    Uses (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1} with
    power-of-two rescaling. The degree n is an int or an integer-dtype array
    (lanes at most _MAX_DEGREE); alpha a non-bool real or a real-dtype array,
    each lane a finite double > -1; x a non-bool real >= 0 or a real-dtype
    array of such lanes. The inputs are checked in the order n, alpha, x, each
    array at its first bad lane, which raises ParameterError (n, alpha) or
    DomainError (x); then an array of more than one dimension, or arrays that do
    not broadcast, raise ParameterError. 1-D arrays give arrays (mantissas,
    exponents): lane i holds L_{n[i]}^(alpha[i])(x[i]) = mantissas[i] *
    2**exponents[i], |mantissa| in [1, 2) or 0, or for a lane that left double
    range, a nan or inf mantissa. A float call (no array argument) is a one-lane
    call that returns its lane's pair (mantissa, exponent) as a float and an int,
    or raises ParameterError where the lane left double range.

    With previous=True the call returns a pair: that result, then its like for
    L_{n-1}^(alpha)(x), which the same pass holds when it stops (L_{-1} = 0 for a
    degree-0 lane). Each equals its own call's normalized bits; together they give
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
