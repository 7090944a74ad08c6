"""Zeros of L_n^(alpha) as Jacobi-matrix eigenvalues, certified by Newton steps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import ConvergenceError, RefinementError
from .laguerre import (
    LaguerreParams,
    _range_error,
    laguerre_polynomial,
    laguerre_polynomial_compensated,
)

_EPS = float(np.finfo(float).eps)
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
    fills it for reciprocal Bessel zeros.
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


def eigen_zeros(jacobi: JacobiMatrix) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, sorted ascending.

    Implicit-shift QL iteration with Wilkinson shift, eigenvalues only
    (no eigenvectors). Raises ConvergenceError if any eigenvalue needs
    more than 50 sweeps, which indicates a numerics bug rather than a
    user error. The sweeps run on Python lists, whose element access is
    several times cheaper than numpy scalar indexing. Each sweep's rotations
    also run the split test on the entries they leave behind, in place of
    the scan that would follow; same tests, same order, same bits.
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
            dn = d[m]  # d[i + 1], carried down the sweep: the rotation at i reads it first
            # The scan's test at j = i + 1, on e[j], d[j] and d[j + 1] as
            # this sweep leaves them; the lowest hit in (l, m], else m.
            low, d_up = m, abs(d[m + 1]) if m + 1 < n else 0.0  # |d[j + 1]|
            for i in range(m - 1, l - 1, -1):
                ei = e[i]
                f = s * ei
                b = c * ei
                h = hypot(f, g)
                e[i + 1] = h
                if h == 0.0:
                    # Recover from an underflowed rotation and restart the sweep.
                    d[i + 1] -= p
                    e[m] = 0.0
                    split = None
                    break
                s = f / h
                c = g / h
                g = dn - p
                dn = d[i]
                r = (dn - g) * s + 2.0 * c * b
                p = s * r
                dj = g + p
                g = c * r - b
                d[i + 1] = dj
                dj = abs(dj)
                if h <= eps * (dj + d_up):
                    low = i + 1
                d_up = dj
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
                if m + 1 < n and not 0.0 <= eps * (abs(d[m]) + abs(d[m + 1])):
                    split = None  # a nan: the scan would not stop at m
                else:
                    split, above = (l if abs(g) <= eps * (abs(d[l]) + d_up) else low), low
    return np.sort(np.array(d))


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
        """Zero by descending rank: k=1 is the largest, k=n the smallest."""
        if not 1 <= k <= self.n:
            raise IndexError(f"rank {k} outside 1..{self.n}")
        return float(self.zeros[self.n - k])


def _newton_correction(params: LaguerreParams, z: np.ndarray, compensated: np.ndarray):
    """The Newton steps L/L' at the lanes z, via L' = -L_{n-1}^(alpha+1), and {lane: error}.

    One plain pass gives the plain lanes' numerators and all derivatives. The
    compensated lanes sharpen the numerator only; the derivative is far
    from its own zeros here, so its plain relative accuracy is plenty.
    """
    n, alpha = params.n, params.alpha
    plain = ~compensated
    counts = [np.count_nonzero(plain), z.size]
    both, both_e = laguerre_polynomial(np.repeat([n, n - 1], counts),
                                       np.repeat([alpha, alpha + 1.0], counts),
                                       np.concatenate((z[plain], z)))
    mant, expo = np.empty(z.size), np.zeros(z.size, dtype=np.int64)
    mant[plain], expo[plain] = both[:counts[0]], both_e[:counts[0]]
    if compensated.any():
        mant[compensated], expo[compensated] = laguerre_polynomial_compensated(n, alpha,
                                                                               z[compensated])
    dmant, dexpo = both[counts[0]:], both_e[counts[0]:]
    with np.errstate(all="ignore"):  # as ScaledValue.ratio_to: +0.0 for a zero quotient
        steps = -np.ldexp(mant / dmant + 0.0, expo - dexpo)
    failed = {}  # each lane's error as its float calls raise it, numerator first
    for j in np.flatnonzero(~np.isfinite(mant) | ~np.isfinite(dmant) | (dmant == 0.0)):
        x = float(z[j])
        if not np.isfinite(mant[j]):
            failed[j] = _range_error(n, alpha, x)
        elif not np.isfinite(dmant[j]):
            failed[j] = _range_error(n - 1, alpha + 1.0, x)
        else:
            failed[j] = RefinementError(f"derivative vanished at {x!r} during refinement")
    return steps, failed


def _duplicate_guard(values: np.ndarray) -> None:
    for i in np.flatnonzero(np.diff(values) < _DUPLICATE_FACTOR * _EPS * np.abs(values[1:]))[:1]:
        raise ConvergenceError(f"near-duplicate zeros {values[i]!r} and {values[i + 1]!r}; "
                               "theory guarantees simple zeros")


def refine(params: LaguerreParams, approx) -> ZeroSet:
    """Polish approximate zeros by Newton iteration and certify residuals.

    Each seed must sit within half the local gap of its true zero. A refined
    value crossing the midpoint toward a neighbor raises RefinementError.
    All zeros iterate together as lanes, each with its own stop test and
    escalation, to the bits each would get alone; of several failing zeros,
    the lowest one's error is raised.

    A lane retires as soon as its future is known, which keeps its bits: a
    step depends on the lane's mode and point alone, so a step back onto a
    point evaluated in this mode either ends the polish there (the stop test
    held) or closes a cycle the loop would ride to the iteration cap. The
    point and step where the loop would take the residual are then on
    record, and every point of the cycle has passed the checks.
    """
    seeds = np.asarray(approx, dtype=float)
    n = params.n
    if seeds.size != n:
        raise RefinementError(f"expected {n} seeds, got {seeds.size}")
    if n > 1 and not np.min(np.diff(seeds)) > 0.0:
        raise RefinementError("seeds are not strictly increasing")
    for bad in seeds[~np.isfinite(seeds)][:1].tolist():  # n = 1, or an infinite end
        raise RefinementError(f"seeds must be finite, got {bad!r}")
    _duplicate_guard(seeds)

    mids = 0.5 * (seeds[:-1] + seeds[1:])
    lo = np.concatenate(([0.0], mids))
    hi = np.concatenate((mids, [math.inf]))

    refined, residuals = seeds.copy(), np.empty(n)
    compensated = np.zeros(n, dtype=bool)
    # Newton steps taken in the current mode, set to the cap once the stop
    # test holds (the next evaluation measures the residual) and past it when done.
    iterations = np.zeros(n, dtype=int)
    cap, first_failure, error = _MAX_NEWTON_ITERATIONS, n, None
    # Per lane, the points evaluated in the current mode by iteration, and their steps.
    seen, seen_steps = np.full((n, cap + 1), np.nan), np.empty((n, cap + 1))
    while (lanes := np.flatnonzero(iterations[:first_failure] <= cap)).size:
        z, it = refined[lanes], iterations[lanes]
        steps, failed = _newton_correction(params, z, compensated[lanes])
        seen[lanes, it], seen_steps[lanes, it] = z, steps
        step = it < cap
        z[step] -= steps[step]
        for j in np.flatnonzero(step & ~((lo[lanes] < z) & (z < hi[lanes])))[:1]:
            failed.setdefault(j, RefinementError(f"zero {lanes[j]} drifted to {float(z[j])!r}, "
                                                 "across its neighbors' midpoints"))
        if failed:  # lanes at or above a failed one can no longer matter
            first_failure, error = lanes[min(failed)], failed[min(failed)]
        it[step] += 1
        it[step & (np.abs(steps) <= 4.0 * _EPS * np.abs(z))] = cap
        hit = step[:, None] & (seen[lanes] == z[:, None])  # an unrecorded (NaN) slot never hits
        back = hit.any(axis=1)
        j = hit[back].argmax(axis=1)
        last = j + (cap - j) % (it[back] - j)  # where the loop would measure the residual
        z[back], steps[back] = seen[lanes[back], last], seen_steps[lanes[back], last]
        refined[lanes] = z
        done = ~step | back
        residuals[lanes[done]] = np.abs(steps[done]) / (_EPS * np.abs(z[done]))
        # Recurrence noise swamped the local scale (clustered small zeros at
        # large n); redo the polish with the sharper evaluator.
        again = done & ~compensated[lanes] & ~(residuals[lanes] <= _ESCALATE_AT)
        it[done], it[again] = cap + 1, 0
        compensated[lanes[again]], seen[lanes[again]] = True, np.nan
        iterations[lanes] = it
    if error is not None:
        raise error
    return ZeroSet(params=params, zeros=refined, residuals=residuals)


def zeros(params: LaguerreParams) -> ZeroSet:
    """All n zeros: Jacobi eigenvalues refined by Newton, invariants enforced."""
    approx = eigen_zeros(build_jacobi(params))
    return refine(params, approx)
