"""Zeros of L_n^(alpha) as Jacobi-matrix eigenvalues, certified by Newton steps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .errors import ConvergenceError, ParameterError, RefinementError
from .laguerre import (
    LaguerreParams,
    ScaledValue,
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
    several times cheaper than numpy scalar indexing.
    """
    n = jacobi.dimension
    d = jacobi.diag.astype(float).tolist()
    e = jacobi.offdiag.astype(float).tolist() + [0.0]
    for l in range(n):
        sweeps = 0
        while True:
            # Look for a negligible off-diagonal element to split at.
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _MAX_QL_SWEEPS:
                raise ConvergenceError(
                    f"eigenvalue {l} of {n} not isolated after {_MAX_QL_SWEEPS} QL sweeps"
                )
            # Wilkinson shift from the leading 2x2 block.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # Recover from an underflowed rotation and restart the sweep.
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if not underflow:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return np.sort(np.array(d))


@dataclass(frozen=True)
class ZeroSet:
    """The n zeros of L_n^(alpha), ascending, with per-zero residual diagnostics.

    residuals[i] measures |L(z_i)| in units of eps * |z_i * L'(z_i)|; values
    at or below 64 certify z_i as a floating-point zero. Note the ascending
    storage order: descending-rank conventions map rank k to index n - k.
    """

    params: LaguerreParams
    zeros: np.ndarray
    residuals: np.ndarray
    method: str = field(default="eigen+newton")

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
        if n > 1 and np.min(np.diff(z)) <= 0.0:
            raise RefinementError("zeros are not strictly increasing")
        edge = bounds.edge_params(self.params)
        if not (edge.V2 < z[0] and z[-1] < edge.U2):
            raise RefinementError(
                f"zeros escape the bracketing window ({edge.V2}, {edge.U2})"
            )
        if self.method == "eigen+newton" and np.max(r) > _RESIDUAL_CAP:
            raise RefinementError(
                f"worst residual {np.max(r):.3g} exceeds {_RESIDUAL_CAP} ulp-equivalents"
            )

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

    The compensated lanes sharpen the numerator only; the derivative is far
    from its own zeros here, so its plain relative accuracy is plenty.
    """
    n, alpha = params.n, params.alpha
    mant, expo = np.empty(z.size), np.zeros(z.size, dtype=np.int64)
    for evaluate, lanes in ((laguerre_polynomial, ~compensated),
                            (laguerre_polynomial_compensated, compensated)):
        if lanes.any():
            mant[lanes], expo[lanes] = evaluate(n, alpha, z[lanes])
    dmant, dexpo = laguerre_polynomial(n - 1, alpha + 1.0, z)
    with np.errstate(all="ignore"):  # as ScaledValue.ratio_to: +0.0 for a zero quotient
        steps = -np.ldexp(mant / dmant + 0.0, expo - dexpo)
    failed = {}
    for j in np.flatnonzero(~np.isfinite(mant) | ~np.isfinite(dmant) | (dmant == 0.0)):
        try:  # ScaledValue rejects a nan or inf mantissa as the float call does
            ScaledValue(float(mant[j]), 0), ScaledValue(float(dmant[j]), 0)
            failed[j] = RefinementError(f"derivative vanished at {float(z[j])!r} during refinement")
        except ParameterError as exc:
            failed[j] = exc
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
    """
    seeds = np.asarray(approx, dtype=float)
    n = params.n
    if seeds.size != n:
        raise RefinementError(f"expected {n} seeds, got {seeds.size}")
    if n > 1 and np.min(np.diff(seeds)) <= 0.0:
        raise RefinementError("seeds are not strictly increasing")
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
    while (lanes := np.flatnonzero(iterations[:first_failure] <= cap)).size:
        z = refined[lanes]
        steps, failed = _newton_correction(params, z, compensated[lanes])
        step = iterations[lanes] < cap
        done = lanes[~step]
        residuals[done] = np.abs(steps[~step]) / (_EPS * np.abs(z[~step]))
        # Recurrence noise swamped the local scale (clustered small zeros at
        # large n); redo the polish with the sharper evaluator.
        again = done[~compensated[done] & ~(residuals[done] <= _ESCALATE_AT)]
        iterations[done], iterations[again], compensated[again] = cap + 1, 0, True

        z[step] -= steps[step]
        refined[lanes] = z
        for j in np.flatnonzero(step & ~((lo[lanes] < z) & (z < hi[lanes])))[:1]:
            failed.setdefault(j, RefinementError(f"zero {lanes[j]} drifted to {float(z[j])!r}, "
                                                 "across its neighbors' midpoints"))
        if failed:  # lanes at or above a failed one can no longer matter
            first_failure, error = lanes[min(failed)], failed[min(failed)]
        moved = lanes[step]
        iterations[moved] += 1
        iterations[moved[np.abs(steps[step]) <= 4.0 * _EPS * np.abs(z[step])]] = cap
    if error is not None:
        raise error
    return ZeroSet(params=params, zeros=refined, residuals=residuals)


def zeros(params: LaguerreParams) -> ZeroSet:
    """All n zeros: Jacobi eigenvalues refined by Newton, invariants enforced."""
    approx = eigen_zeros(build_jacobi(params))
    return refine(params, approx)
