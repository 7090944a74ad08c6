"""Zeros of L_n^(alpha) as Jacobi-matrix eigenvalues, certified by Newton steps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import bounds
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
    """
    n = jacobi.dimension
    d = jacobi.diag.astype(float).tolist()
    e = jacobi.offdiag.astype(float).tolist() + [0.0]
    eps, hypot, copysign = _EPS, math.hypot, math.copysign
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
            # leaves them; the lowest hit in (l, m], else m.
            low, d_up = m, abs(d[m + 1]) if m + 1 < n else 0.0  # |d[j + 1]|
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
                    if dj < 0.0:  # |dj|: for -0.0 and nan it compares as abs(dj) does
                        dj = -dj
                    if h <= eps * (dj + d_up):
                        low = j
                    d_up = dj
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
                    split, above = (l if abs(g) <= eps * (abs(d[l]) + d_up) else low), low
        yield d[l]


def eigen_zeros(jacobi: JacobiMatrix) -> np.ndarray:
    """All eigenvalues, sorted ascending: the sort of the final values _deflations
    yields (its QL restarts a sweep on a ZeroDivisionError)."""
    return np.sort(np.fromiter(_deflations(jacobi), float, jacobi.dimension))


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
            raise RefinementError(
                f"worst residual {np.max(r):.3g} exceeds {_RESIDUAL_CAP} ulp-equivalents"
            )
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


def _polish(i: int, z: float, lo: float, hi: float):
    """Newton on zero i from the seed z within (lo, hi): yields each (point, compensated)
    it needs a step at, is sent that step, and returns (zero, residual). A step depends
    on the point and mode alone, so each mode's memo of evaluated points supplies the
    repeats: a lane that closes a cycle rides it to the iteration cap without yielding."""
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
    return z, residual


def refine(params: LaguerreParams, approx) -> ZeroSet:
    """Polish approximate zeros by Newton iteration and certify residuals.

    Each seed must sit within half the local gap of its true zero. A refined
    value crossing the midpoint toward a neighbor raises RefinementError.
    Every zero runs the one-zero loop of _polish as a lane on _step, to the
    bits it would get alone; of several failing zeros, the lowest one's error
    is raised. While at least _FEW_LANES lanes are pending, a round takes L and
    L_{n-1} at every point they ask for from one plain pass. Then the remaining
    lanes, all below any that failed, finish alone in index order on the lane
    kernel, which skips the evaluator's checks: the seeds are finite and >= 0,
    and the drift test keeps every later point in (lo, hi), inside (0, inf).
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

    refined = seeds.tolist()
    mids = [0.5 * (a + b) for a, b in zip(refined, refined[1:])]
    lo, hi = [0.0] + mids, mids + [math.inf]
    polish = [_polish(i, refined[i], lo[i], hi[i]) for i in range(n)]
    pending, residuals, error = {i: next(p) for i, p in enumerate(polish)}, [0.0] * n, None
    while pending and len(pending) >= _FEW_LANES:
        asked, pending = pending, {}
        points = np.array([z for z, _ in asked.values()])
        (m, e), (pm, pe) = laguerre_polynomial(n, alpha, points, previous=True)
        rows = zip(m.tolist(), e.tolist(), pm.tolist(), pe.tolist())
        for (i, (z, compensated)), lane in zip(asked.items(), rows):
            try:
                pending[i] = polish[i].send(_step(n, alpha, z, compensated, *lane))
            except StopIteration as done:
                refined[i], residuals[i] = done.value
            except (ParameterError, RefinementError) as exc:  # lanes above it cannot matter
                error = exc
                break
    for i, (z, compensated) in pending.items():  # the stragglers, each alone, in index order
        try:
            while True:
                m, pm, e = _plain_lane(n, alpha, z)  # L = m 2**e, L_{n-1} = pm 2**e
                z, compensated = polish[i].send(_step(n, alpha, z, compensated, m, e, pm, e))
        except StopIteration as done:
            refined[i], residuals[i] = done.value
    if error is not None:
        raise error
    return ZeroSet(params=params, zeros=refined, residuals=residuals)


def zeros(params: LaguerreParams) -> ZeroSet:
    """All n zeros: Jacobi eigenvalues refined by Newton, invariants enforced."""
    approx = eigen_zeros(build_jacobi(params))
    return refine(params, approx)
