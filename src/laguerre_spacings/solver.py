"""Zeros of L_n^(alpha) as Jacobi-matrix eigenvalues, certified by Newton steps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import bounds, forks
from .errors import ConvergenceError, ParameterError, RefinementError
from .laguerre import (
    _FEW_LANES,
    LaguerreParams,
    _plain_lane,
    _range_error,
    _to_double,
    laguerre_polynomial,
    laguerre_polynomial_compensated,
)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_MAX_QL_SWEEPS = 50
_MAX_NEWTON_ITERATIONS = 20
_RESIDUAL_CAP = 64.0  # ulp-equivalents: |L(z)| / (eps * |z * L'(z)|)
_ESCALATE_AT = 16.0  # re-polish with the compensated evaluator above this
_DUPLICATE_FACTOR = 1e3  # gaps below this many eps*|z| indicate eigensolver failure
_HARD_EDGE = 8  # zeros searches the lowest n // _HARD_EDGE ranks while its helper's QL runs
# The crossover, measured in four sets of 24-40 alternating runs a side of zeros with the
# helper and with the gate shut, alpha in {-0.5, 1}, on a 2-core x86_64 VM: the helper lost
# 6-31% at n = 192 in all 4 medians and saved 9-29% at 512 in all 8; at 256, 320 and 384
# it read -28% to +20%, losing in 2 or 3 of 8 medians at each.
_HELPER_LEAST_N = 384


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix; its eigenvalues are simple if no offdiag entry is 0.

    build_jacobi fills it for the zeros of L_n^(alpha): diag[k] = 2k + alpha + 1,
    offdiag[k-1] = sqrt(k(k+alpha)), positive for alpha > -1. The bessel module
    fills it for squared reciprocal Bessel zeros.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def dimension(self) -> int:
        return self.diag.size


def build_jacobi(params: LaguerreParams) -> JacobiMatrix:
    """Assemble the Jacobi matrix for L_n^(alpha)."""
    n, alpha = params.n, params.alpha
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    j = np.arange(1, n, dtype=float)
    offdiag = np.sqrt(j * (j + alpha))
    diag.setflags(write=False)
    offdiag.setflags(write=False)
    return JacobiMatrix(diag=diag, offdiag=offdiag)


def _deflations(jacobi: JacobiMatrix):
    """The eigenvalues of a symmetric tridiagonal matrix, yielded as positions 0, 1, ...
    deflate. No sweep writes below its own l, so each d[l] yielded is final.

    Implicit-shift QL iteration with Wilkinson shift, eigenvalues only. Raises
    ConvergenceError when a position needs more than 50 sweeps, a numerics bug rather
    than a user error. The sweeps run on Python lists, whose element access is several
    times cheaper than numpy scalar indexing. Each sweep's rotations also run the split
    test on the entries they leave behind, in place of the scan that would follow; same
    tests, same order, same bits. A rotation that underflows (h = 0) raises
    ZeroDivisionError at f / h, which restores d and restarts the sweep.

    A rotation runs that split test, h <= eps (|d_j| + |d_j+1|), only where h <= thr =
    4 eps G, with G the largest Gershgorin row sum |d_i| + |e_i-1| + |e_i| of the input;
    the test at j = m, which cannot move the split below m, is skipped. This is sound
    for 2**-900 <= G <= 2**900. G bounds ||T||_2, and each iterate is orthogonally
    similar to T + E, with ||E|| a few eps ||T|| per sweep (Barth, Martin and Wilkinson,
    Numer. Math. 9, 1967), far below G over at most 50 n sweeps; in that range of G no
    sweep overflows or underflows to change that. So every diagonal entry is at most 2G
    in magnitude, and as rounding is monotone, fl(eps fl(|d_j| + |d_j+1|)) <=
    fl(eps 4G) = thr, which is exact there. Hence h > thr means the test would fail. A G
    outside that range, or inf or nan, sets thr = inf: every rotation runs the test.
    """
    n = jacobi.dimension
    diag, offdiag = jacobi.diag.astype(float), jacobi.offdiag.astype(float)
    d, e = diag.tolist(), offdiag.tolist() + [0.0]
    eps, hypot, copysign = _EPS, math.hypot, math.copysign
    with np.errstate(over="ignore"):  # a row sum past double range is inf: no threshold
        rows, off = np.abs(diag), np.abs(offdiag)
        rows[1:] += off
        rows[:-1] += off
        gershgorin = float(np.max(rows, initial=0.0))  # nan if any entry is nan
    thr = 4.0 * eps * gershgorin if 2.0**-900 <= gershgorin <= 2.0**900 else math.inf
    # The split scans from l and from l + 1, when the last sweep's rotations
    # already ran the scan's test on their final values (else None).
    split = above = None
    for l in range(n):
        sweeps = 0
        while True:
            if split is None:  # look for a negligible off-diagonal element to split at
                dm = abs(d[l])
                for m in range(l, n - 1):
                    dn = abs(d[m + 1])
                    if abs(e[m]) <= eps * (dm + dn):
                        break
                    dm = dn
                else:
                    m = n - 1
                above = None
            else:
                m = split
            if m == l:
                split, above = above, None
                break
            sweeps += 1
            if sweeps > _MAX_QL_SWEEPS:
                raise ConvergenceError(
                    f"eigenvalue {l} of {n} not isolated after {_MAX_QL_SWEEPS} QL sweeps"
                )
            # Wilkinson shift from the leading 2x2 block.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            dn = d[m]  # d[j], carried down the sweep: the rotation at i = j - 1 reads it first
            # The scan's test at j, on e[j], d[j] and d[j + 1] as this sweep
            # leaves them, where h <= thr; the lowest hit in (l, m), else m.
            low = m
            try:
                for i in range(m - 1, l - 1, -1):
                    j = i + 1
                    ei = e[i]
                    f = s * ei
                    b = c * ei
                    h = hypot(f, g)
                    e[j] = h
                    s = f / h
                    c = g / h
                    g = dn - p
                    dn = d[i]
                    r = (dn - g) * s + 2.0 * c * b
                    p = s * r
                    dj = g + p
                    g = c * r - b
                    d[j] = dj
                    if h <= thr and j < m and h <= eps * (abs(dj) + abs(d[j + 1])):
                        low = j
            except ZeroDivisionError:  # h == 0: an underflowed rotation
                d[j] -= p
                e[m] = 0.0
                split = None
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
                if m + 1 < n and not 0.0 <= eps * (abs(d[m]) + abs(d[m + 1])):
                    split = None  # a nan: the scan would not stop at m
                else:
                    split, above = (l if abs(g) <= eps * (abs(d[l]) + abs(d[l + 1])) else low), low
        yield d[l]


def eigen_zeros(jacobi: JacobiMatrix) -> np.ndarray:
    """All eigenvalues, sorted ascending: the sort of the final values _deflations
    yields (its QL restarts a sweep on a ZeroDivisionError)."""
    return np.sort(np.fromiter(_deflations(jacobi), float, jacobi.dimension))


def _certified(jacobi: JacobiMatrix, count: int) -> tuple:
    """(values, rest): the values the QL (_deflations) yielded up to the deflation at
    which a Sturm count certified the count smallest among them as the count smallest
    eigenvalues, and the QL suspended there, which yields the others; all n values, and
    rest spent, where no count agreed. _smallest and zeros share it.

    top is the count-th smallest value deflated so far; it is new at the deflation that
    brings the values to count and at each one below it. At a new top the QL stops if
    _count_below finds exactly count eigenvalues below t = top + |top| 2**-10; else it runs
    on, to the end if no count agrees. A count that finds c > count skips the next c - count
    - 1 new tops, which the values it found missing must bring before one can agree (at
    n = 1000, count 3 the QL deflates ranks 17, 16, ..., 0 first). Sound because every
    yield is final: the n yields of a full QL are the eigenvalues of T + E and the count
    is the exact count of T + F, with |E| and |F| a few eps |T| per sweep run (Barth,
    Martin and Wilkinson, Numer. Math. 9, 1967). By Weyl's theorem the (count+1)-th
    smallest yield lies at or above t - |E| - |F|, above top while |top| 2**-10 exceeds
    |E| + |F|, so the count values at or below top are the full sort's first count. The
    margin |top| 2**-10 / (eps |T|), measured:
    - limit_probe's Laguerre matrices (count >= 3, alpha in (-1, 1], n <= 2**14): at
      least 5e4 (n = 2**14, alpha -> -1, count 3), and a stopped QL ran at most 226
      sweeps (99 positions, count 3, alpha 1), so the argument covers every stop there;
    - Ikebe's negated block (count 20, at most 54 sweeps over 304 alphas): 1.6e10 at
      alpha = 1, 4.8e3 at -0.999999, 48 at -1 + 1e-8, 0.48 at -1 + 1e-10 and 1e-6 at
      -1 + 2**-52, as |T| grows like 1/(alpha + 1). So the argument covers the stop down
      to about alpha + 1 = 1e-6 (4.8e3 against 54 sweeps) and not below about 1e-8; the
      Bessel table runs the full QL below alpha + 1 = 1e-6 (bessel._zeros);
    - zeros (count n // 8 + 1, n from 384 to 2**14, alpha + 1 < n // 8): at least
      4.2e10 (n = 2**14, alpha -> -1), far above the at most 50 n <= 8.2e5 sweeps of a
      QL, so the argument covers every stop there. refine also takes the zeros searched
      from these values only where they equal the full QL's bit for bit, so a failed
      certificate would cost time, never a wrong zero.
    """
    rest, values, top, missing = _deflations(jacobi), [], math.nan, 1
    for value in rest:
        values.append(value)
        if len(values) == count or value < top:  # top is new: one fewer value missing
            top = float(np.sort(values)[count - 1])  # a nan sorts last, as in eigen_zeros
            missing -= 1
            if missing <= 0:
                missing = _count_below(jacobi, top + abs(top) * 2.0**-10) - count
                if missing == 0:
                    break
    return values, rest


def _smallest(jacobi: JacobiMatrix, count: int) -> np.ndarray:
    """The count smallest eigenvalues, sorted ascending: np.sort(eigen_zeros(jacobi))[:count]
    bit for bit, from as few QL deflations as _certified's Sturm count certifies. The
    Bessel table runs it on Ikebe's block negated, whose QL yields exactly the negated
    values, and limit_probe on the Laguerre matrix."""
    return np.sort(_certified(jacobi, count)[0])[:count]


def _count_below(jacobi: JacobiMatrix, t: float) -> int:
    """How many eigenvalues lie below t: a Sturm count (Barth, Martin and Wilkinson,
    Numer. Math. 9, 1967) of the negative pivots of LDL^T = T - tI, where a pivot within
    pivmin of 0 becomes -pivmin, as in LAPACK's xLAEBZ; a nan t counts none."""
    e2 = (jacobi.offdiag * jacobi.offdiag).tolist()
    pivmin = _TINY * max(1.0, max(e2, default=0.0))
    count, q = 0, 1.0
    for a, b2 in zip(jacobi.diag.tolist(), [0.0] + e2):
        q = a - b2 / q - t
        if -pivmin < q < pivmin:
            q = -pivmin
        count += q < 0.0
    return count


def _residual_error(worst: float) -> RefinementError:
    return RefinementError(f"worst residual {worst:.3g} exceeds {_RESIDUAL_CAP} ulp-equivalents")


@dataclass(frozen=True)
class ZeroSet:
    """The n zeros of L_n^(alpha), ascending, with per-zero residual diagnostics.

    residuals[i] measures |L(z_i)| in units of eps * |z_i * L'(z_i)|; values
    at or below 64 certify z_i as a floating-point zero, and every instance
    carries that certificate: construction raises RefinementError above the
    cap. Each test fails closed, so a nan or infinite zero, or a residual
    that is nan or outside [0, 64], is refused: the zeros are finite and
    strictly increasing. Note the ascending storage order: descending-rank
    conventions map rank k to index n - k.
    """

    params: LaguerreParams
    zeros: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float)
        r = np.asarray(self.residuals, dtype=float)
        z.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "zeros", z)
        object.__setattr__(self, "residuals", r)
        n = self.params.n
        if z.size != n or r.size != n:
            raise RefinementError(f"expected {n} zeros, got {z.size}")
        if n > 1 and not np.min(np.diff(z)) > 0.0:  # a nan fails too
            raise RefinementError("zeros are not strictly increasing")
        edge = bounds.edge_params(self.params)
        if not (edge.V2 < z[0] and z[-1] < edge.U2):
            raise RefinementError(
                f"zeros escape the bracketing window ({edge.V2}, {edge.U2})"
            )
        if not np.max(r) <= _RESIDUAL_CAP:
            raise _residual_error(np.max(r))
        if not np.min(r) >= 0.0:
            raise RefinementError(f"negative residual {np.min(r):.3g}: a residual is a magnitude")

    @property
    def n(self) -> int:
        return self.params.n

    def spacings_descending(self) -> np.ndarray:
        """Gaps x_{n,i} - x_{n,i+1} for i = 1..n-1, largest zeros first."""
        return np.diff(self.zeros)[::-1].copy()

    def zero_at_rank(self, k: int) -> float:
        """Zero by descending rank: k=1 is the largest, k=n the smallest; k is a non-bool
        Integral, and any other k, or one out of range, raises IndexError naming it."""
        if not (isinstance(k, Integral) and not isinstance(k, bool) and 1 <= k <= self.n):
            raise IndexError(f"rank {k!r} outside 1..{self.n}")
        return float(self.zeros[self.n - k])


def _step(n: int, alpha: float, x: float, compensated: bool, m: float, e: int, pm: float,
          pe: int) -> float:
    """The Newton step L/L' at x from L_n^(alpha)(x) = m 2**e and L_{n-1}(x) = pm 2**pe, or
    from the compensated L where compensated (L only: L_{n-1} is far from its own zeros,
    which interlace with L's); raises if the lane left double range or L' vanished. The
    pairs need not be normalized: m / pm rounds the same real ratio times a power of two.

    x L' = n L - (n + alpha) L_{n-1} (DLMF 18.9.14). With r = L / L_{n-1} a step is
    x r / (n r - (n + alpha)), or x / (n - (n + alpha) / r) for |r| > 1, where r may
    overflow. Below x = (alpha + 1) 2**-30, at least 2**16 times under the smallest
    zero, x L' cancels, and a step is its limit at 0, L(0) / L'(0) = -(alpha + 1) / n,
    within a relative n 2**-30.
    """
    if compensated:
        m, e = laguerre_polynomial_compensated(n, alpha, x)
    if not math.isfinite(m):
        raise _range_error(n, alpha, x)
    if x <= (alpha + 1.0) * 2.0**-30:
        return -(alpha + 1.0) / n
    r = _to_double(m / pm, e - pe) if pm else math.inf
    small = abs(r) <= 1.0
    d = n * r - (n + alpha) if small else n - (n + alpha) / r
    if d == 0.0:
        raise RefinementError(f"derivative vanished at {x!r} during refinement")
    return x * r / d if small else x / d


def _bracket(seeds: list, i: int) -> tuple:
    """Zero i's bracket: the midpoints from the ascending seeds' seeds[i] to its
    neighbours, 0 below the first seed and inf above the last."""
    lo = 0.5 * (seeds[i - 1] + seeds[i]) if i else 0.0
    hi = 0.5 * (seeds[i] + seeds[i + 1]) if i + 1 < len(seeds) else math.inf
    return lo, hi


def _polish(seeds: list, i: int):
    """Newton on zero i from the ascending seeds' seeds[i], held strictly inside its
    _bracket: yields each (point, compensated) it needs a step at, is sent that step,
    and returns (zero, residual, compensated), the mode of its last step. A step
    depends on the point and mode alone, so each mode's memo of evaluated points
    supplies the repeats: a lane that closes a cycle rides it to the iteration cap
    without yielding."""
    z = seeds[i]
    lo, hi = _bracket(seeds, i)
    for compensated in (False, True):
        memo = {}
        for _ in range(_MAX_NEWTON_ITERATIONS):
            step = memo[z] if z in memo else (yield z, compensated)
            memo[z] = step
            z -= step
            if not lo < z < hi:
                raise RefinementError(f"zero {i} drifted to {z!r}, "
                                      "across its neighbors' midpoints")
            if abs(step) <= 4.0 * _EPS * abs(z):
                break
        step = memo[z] if z in memo else (yield z, compensated)
        residual = abs(step) / (_EPS * abs(z))
        # Above _ESCALATE_AT recurrence noise swamped the local scale (clustered
        # small zeros at large n): redo the polish with the sharper evaluator.
        if residual <= _ESCALATE_AT:
            break
    return z, residual, compensated


def _alone(n: int, alpha: float, polish, z: float, compensated: bool):
    """Run a _polish lane to its end on the lane kernel, from the point z and mode it
    asks a step for: returns (zero, residual, compensated). The kernel skips the
    evaluator's checks: a seed is finite and >= 0, and the drift test keeps every later
    point in (0, inf)."""
    try:
        while True:
            m, pm, e = _plain_lane(n, alpha, z)  # L = m 2**e, L_{n-1} = pm 2**e
            z, compensated = polish.send(_step(n, alpha, z, compensated, m, e, pm, e))
    except StopIteration as done:
        return done.value


def _polish_rank(params: LaguerreParams, seeds: list, i: int) -> float:
    """Zero i (ascending) of L_n^(alpha) from the ascending seeds 0..i+1, polished alone
    to the bits refine gives it from the same seeds (_polish reads no seed past i + 1),
    its residual held to ZeroSet's cap."""
    polish = _polish(seeds, i)
    zero, residual, _ = _alone(params.n, params.alpha, polish, *next(polish))
    if not residual <= _RESIDUAL_CAP:
        raise _residual_error(residual)
    return zero


def _search(n: int, alpha: float, seeds: list, ranks) -> tuple:
    """Run the _polish lanes of ranks (ascending) from the ascending seeds, each to the
    bits it would get alone: returns ({rank: (zero, residual, compensated)} of the
    lanes that finished, the lowest failing lane's error or None). While at least
    _FEW_LANES lanes are pending, a round takes L and L_{n-1} at every point they ask
    for from one plain pass; a failing lane drops the lanes above it. Then the
    remaining lanes, all below any that failed, finish alone in rank order on the lane
    kernel until one fails. The kernel skips the evaluator's checks: the seeds are
    finite and >= 0, and the drift test keeps every later point in its bracket, inside
    (0, inf)."""
    polish = {i: _polish(seeds, i) for i in ranks}
    pending, done, error = {i: next(p) for i, p in polish.items()}, {}, None
    while pending and len(pending) >= _FEW_LANES:
        asked, pending = pending, {}
        points = np.array([z for z, _ in asked.values()])
        (m, e), (pm, pe) = laguerre_polynomial(n, alpha, points, previous=True)
        rows = zip(m.tolist(), e.tolist(), pm.tolist(), pe.tolist())
        for (i, (z, compensated)), lane in zip(asked.items(), rows):
            try:
                pending[i] = polish[i].send(_step(n, alpha, z, compensated, *lane))
            except StopIteration as finished:
                done[i] = finished.value
            except (ParameterError, RefinementError) as exc:  # lanes above it cannot matter
                error = exc
                break
    for i, asked in pending.items():  # the stragglers, each alone, in rank order
        try:
            done[i] = _alone(n, alpha, polish[i], *asked)
        except (ParameterError, RefinementError) as exc:
            return done, exc
    return done, error


def refine(params: LaguerreParams, approx, *, searched=None) -> ZeroSet:
    """Polish approximate zeros by Newton iteration and certify residuals.

    Each seed must sit within half the local gap of its true zero. A refined
    value crossing the midpoint toward a neighbor raises RefinementError.
    Every zero runs the one-zero loop of _polish as a lane on _step, to the
    bits it would get alone (_search); of several failing zeros, the lowest
    one's error is raised.

    searched is zeros' hand-over, not for other callers: (head, below), where below
    maps ranks under len(head) - 1 to the (zero, residual, compensated) _search gave
    them from the ascending seeds head. They are taken only where head equals the
    first len(head) seeds bit for bit, so each is this search's own bits (_polish
    reads no seed past i + 1); every other rank is searched here.
    """
    try:
        seeds = np.asarray(approx)
        if seeds.dtype.kind not in "iufO":  # bools, complexes, strings: float() would take them
            raise TypeError(f"got an array of {seeds.dtype}")
        seeds = np.asarray(seeds, dtype=float)  # an object array converts by float()
    except (TypeError, ValueError, OverflowError) as exc:  # a seed that is no real number
        raise RefinementError(f"seeds must be real numbers: {exc}") from None
    n, alpha = params.n, params.alpha
    if seeds.ndim != 1:
        raise RefinementError(f"seeds must be a 1-D array, got shape {seeds.shape}")
    if seeds.size != n:
        raise RefinementError(f"expected {n} seeds, got {seeds.size}")
    if n > 1 and not np.min(np.diff(seeds)) > 0.0:
        raise RefinementError("seeds are not strictly increasing")
    for bad in seeds[~np.isfinite(seeds)][:1].tolist():  # n = 1, or an infinite end
        raise RefinementError(f"seeds must be finite, got {bad!r}")
    if seeds[0] < 0.0:  # the lowest seed; every zero of L_n^(alpha) is positive
        raise RefinementError(f"seeds must be >= 0, got {float(seeds[0])!r}")
    for i in np.flatnonzero(np.diff(seeds) < _DUPLICATE_FACTOR * _EPS * np.abs(seeds[1:]))[:1]:
        a, b = seeds[i:i + 2].tolist()
        raise ConvergenceError(f"near-duplicate zeros {a!r} and {b!r}; "
                               "theory guarantees simple zeros")

    head, below = searched if searched is not None else ((), {})
    if seeds[:len(head)].tobytes() != np.asarray(head, dtype=float).tobytes():
        below = {}  # searched from other seeds
    done, error = _search(n, alpha, seeds.tolist(), [i for i in range(n) if i not in below])
    if error is not None:
        raise error
    done.update(below)
    refined, residuals, _ = zip(*(done[i] for i in range(n)))
    return ZeroSet(params=params, zeros=refined, residuals=residuals)


def _spare_cpus(n: int, alpha: float, count: int):
    """The CPUs this process may use where zeros forks its helper, else None. All must
    hold: n >= _HELPER_LEAST_N (at n = 512 the helper saved 9-29% of zeros, at 192 it
    lost 6-31%, and at 256-384 it read -28% to +20%); alpha + 1 < count, where the QL
    certifies the count + 1 smallest values, the fork point, after 25-52% of its time at
    n = 256-2000, against 42-104% from alpha = count up; this process may fork
    (forks.usable_cpus: it is no forked child, so a sweep's shares fork none); and
    forks.idle_cpus finds 2 CPUs free. That count alone says whether a core is free: a
    running child of this process (a sweep share still solving) is one of the runnable
    tasks it counts, and an exited or sleeping one holds no core. Where another process
    kept every core busy the helper cost time: two large_n runs side by side on 2 CPUs
    took 0.571 s a median op with it against 0.447 s without."""
    if n < _HELPER_LEAST_N or not alpha + 1.0 < count:
        return None
    cpus = forks.usable_cpus()
    if cpus is None or forks.idle_cpus(cpus) < 2:
        return None
    return cpus


def zeros(params: LaguerreParams) -> ZeroSet:
    """All n zeros: Jacobi eigenvalues refined by Newton, invariants enforced.

    Where _spare_cpus finds 2 free CPUs, this process runs the QL until a Sturm count
    certifies the K + 1 smallest eigenvalues, K = n // 8 (_certified), and forks a
    helper, held on the second CPU, that finishes that same QL and pipes back its
    values, while this process, held on the first, searches the ranks below K from its
    own K + 1. refine then searches the ranks from K up on the full QL's values, and
    takes this search's zeros where its seeds are those values bit for bit. So every
    zero is searched and certified here. A helper that dies, fails or cannot be forked
    leaves this process to finish its own copy of the QL: that costs time, never a bit.
    Where this process raises from its pin on, the helper is killed unread and reaped;
    on every path its CPUs are restored, and only then is the helper waited for.
    """
    n, alpha = params.n, params.alpha
    jacobi = build_jacobi(params)
    count = n // _HARD_EDGE
    cpus = _spare_cpus(n, alpha, count)
    if cpus is None:
        return refine(params, eigen_zeros(jacobi))
    values, rest = _certified(jacobi, count + 1)
    head = np.sort(values)[:count + 1]
    helper = None
    try:
        forks.pin({cpus[0]})
        helper = forks.fork(lambda: list(rest), cpus[1])
        below, _ = _search(n, alpha, head.tolist(), range(count))  # refine reruns a failure
    except BaseException:
        if helper is not None:
            forks.reap(helper, wait=False)
        raise
    finally:
        forks.pin(cpus)
    tail = forks.reap(helper, wait=True) if helper is not None else None
    if tail is None:  # no helper's answer: this process finishes its own QL
        tail = list(rest)
    return refine(params, np.sort(np.array(values + tail)), searched=(head, below))
