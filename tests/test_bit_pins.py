"""Bit pins: sha256 digests of the evaluators', the QL eigensolver's and the ODE residuals' output bits.

The digests were recorded before the hot loops of `laguerre._recurrence` and
`solver.eigen_zeros` were reworked for speed; a rework must keep every bit.
Each evaluator input set lists only lanes that stay inside double range.
"""

import hashlib
import random

import numpy as np
import pytest

from laguerre_spacings import JacobiMatrix, LaguerreParams, build_jacobi, eigen_zeros
from laguerre_spacings.laguerre import (
    laguerre_polynomial,
    laguerre_polynomial_compensated,
    ode_residual,
    ode_residual_relative,
)

PAPER_GRID = [(n, a) for n in (10, 20, 50, 100) for a in (1.0, 100.0, 1e3, 1e4)]


# x = 0, exact zeros, clustered small zeros, and alphas or points large
# enough that the values rescale (downward) every step or two.
FLOAT_CALLS = [(0, 2.0, 3.0), (1, 2.0, 3.0), (2, 0.0, 2.0), (5, 0.0, 0.0), (7, 0.5, 3.0),
               (50, 1.0, 30.0), (100, 1e4, 9000.0), (200, 1e4, 0.0), (200, 1e4, 3e4),
               (200, -0.9, 0.0), (200, 0.5, 0.0137), (1000, -0.5, 0.001), (1000, 1e4, 1.2e4),
               (5, 1e150, 1.0), (30, 1e100, 1e99), (30, 1.0, 1e150), (3, -1.0 + 2.0**-52, 0.0)]


def _lanes(size, n, alpha, top):
    return n, alpha, np.concatenate(([0.0], np.linspace(top / size, top, size - 1)))


def _stacked(size, n, alpha, top):
    """refine's stacked pass: (n, alpha) beside (n - 1, alpha + 1), shuffled."""
    points = np.linspace(0.0, top, size)
    order = np.random.default_rng(size).permutation(2 * size)
    return (np.repeat([n, n - 1], size)[order], np.repeat([alpha, alpha + 1.0], size)[order],
            np.concatenate((points, points))[order])


ARRAY_CALLS = {
    "few_lanes": [_lanes(s, 50, 1.0, 150.0) for s in (2, 10, 15)],
    "many_lanes": [_lanes(s, n, a, top) for s in (16, 17, 64)
                   for n, a, top in ((200, 1e4, 3e4), (200, 0.5, 2.0), (1000, -0.5, 3900.0))],
    "lane_params": [_stacked(s, n, a, top) for s in (5, 24)
                    for n, a, top in ((1, 2.0, 6.0), (30, 0.5, 90.0), (200, 1e4, 3e4))],
    "rescale_every_step": [(30, 1e100, np.array([0.0, 1e50, 1e99, 1e100, 2e100] + [1.0] * 12)),
                           (30, 1.0, np.array([1e120, 1e100, 1e130] + [1.0] * 14)),
                           (5, 1e120, np.linspace(0.0, 3e120, 20))],
    "degree_zero_and_one": [(0, 2.0, np.linspace(0.0, 40.0, 17)), (1, 2.0, np.arange(17.0))],
}

EVALUATOR_DIGESTS = {
    ("plain", "float"): "b064a57efe05d8d842ce2c30f8d1619f50cb267ba2cfa97154609c9b953a00d4",
    ("compensated", "float"): "95cc7f38abd6cb4eedb8ba04eb7977c8aaaa06c1d270a4a612021a84cded1cbb",
    ("plain", "few_lanes"): "5e591210c4f69918ac4bc9edc7daf717df2208496e7f37ab22da42d7293c213e",
    ("compensated", "few_lanes"): "49548945337e97fd17583170532d244e0bd21ddcbc95feff42240ca094d08696",
    ("plain", "many_lanes"): "ff3808ea5b4613a4bb0f225adbf579a30142958ed54a5441b09dc9d41a01adc1",
    ("compensated", "many_lanes"): "43fde83144397f7abb5b03e86530d8fc3a2107ab363947a1e304a980526cc59f",
    ("plain", "lane_params"): "9831dd879009ae6ed9841b017d36c8d3ca2180903264991547ecd5ba9fe5b315",
    ("compensated", "lane_params"): "b3dc04180d765c66e2eabacf37db2e4963862ffbfb4f08ba37149df38a40a1d2",
    ("plain", "rescale_every_step"): "86e85c36c1c912ecb8be51b6be16b99de99c15ac714696ba888134fe64729dae",
    ("compensated", "rescale_every_step"): "8f0afc076dd1fa478cbb128dd5d9a91725213280ab145856f69e9cd260dce2a0",
    ("plain", "degree_zero_and_one"): "df3198163efc661d7e07c7b7248c29f4fbb36a93b35be236ad2bc50960631a31",
    ("compensated", "degree_zero_and_one"): "df3198163efc661d7e07c7b7248c29f4fbb36a93b35be236ad2bc50960631a31",
}

EVALUATORS = {"plain": laguerre_polynomial, "compensated": laguerre_polynomial_compensated}


def _evaluator_bits(mode, group):
    evaluator, parts = EVALUATORS[mode], []
    if group == "float":
        for n, alpha, x in FLOAT_CALLS:
            sv = evaluator(n, alpha, x)
            parts.append(np.float64(sv.mantissa).tobytes() + np.int64(sv.exponent2).tobytes())
    else:
        for n, alpha, x in ARRAY_CALLS[group]:
            mantissas, exponents = evaluator(n, alpha, x)
            assert np.isfinite(mantissas).all()
            parts.append(mantissas.tobytes() + exponents.astype(np.int64).tobytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()


@pytest.mark.parametrize("mode,group", sorted(EVALUATOR_DIGESTS))
def test_evaluator_bits_pinned(mode, group):
    assert _evaluator_bits(mode, group) == EVALUATOR_DIGESTS[mode, group]


def _ikebe(alpha, dimension=100):
    """The Bessel-zero matrix of `bessel` (reciprocal zeros as eigenvalues)."""
    k = np.arange(1, dimension, dtype=float)
    return JacobiMatrix(diag=np.zeros(dimension),
                        offdiag=0.5 / np.sqrt((alpha + k) * (alpha + k + 1.0)))


EIGEN_MATRICES = {
    "paper_grid": lambda: [build_jacobi(LaguerreParams(n, a)) for n, a in PAPER_GRID],
    "n1000_alpha-0.5": lambda: [build_jacobi(LaguerreParams(1000, -0.5))],
    "n1000_alpha1e4": lambda: [build_jacobi(LaguerreParams(1000, 1e4))],
    "ikebe_alpha0.3": lambda: [_ikebe(0.3)],
}

EIGEN_DIGESTS = {
    "paper_grid": "fd3146a9a70d472aa00b9de3ba54f0a6940501856c9f309780b2c67da9c7bd1d",
    "n1000_alpha-0.5": "d1d1318c247291b5d043c29c3bb6e656fd784d654d3d03c2c1feda9e52cac45d",
    "n1000_alpha1e4": "49ffb08740455df59a604d27ec9f850032027bca1d78460f4c8bd981ee2e45c9",
    "ikebe_alpha0.3": "685afb37d6b7d6715da2e44445d8397510e978c78143e94de75ec63eedcf8a12",
}


@pytest.mark.parametrize("group", sorted(EIGEN_DIGESTS))
def test_eigen_zeros_bits_pinned(group):
    bits = b"".join(eigen_zeros(m).tobytes() for m in EIGEN_MATRICES[group]())
    assert hashlib.sha256(bits).hexdigest() == EIGEN_DIGESTS[group]

ODE_DIGEST = "7b8abdba3248ed5b534661fc8d58406fd62412fdcb41b5ba79389309e8ac53e8"


def _ode_corpus(size=400, seed=20140226):
    """Seeded (n, alpha, x) cases for the second-order-equation residuals.

    Degrees 1 and 2 beside n up to 2000; alpha from -1 + 1e-15 to 1e160; x
    from 1e-300 to 1e300, across the zeros, and at x = alpha + 1, where the
    u' coefficient vanishes. x = 0, alpha or x past about 1e154 (where the
    recurrence leaves double range) and x small enough that n/x or
    (alpha+1)/x overflows raise; those errors are pinned too.
    """
    rng = random.Random(seed)
    cases = [(n, a, x) for n in (1, 2) for a in (-1.0 + 1e-15, -0.5, 0.0, 1.0, 1e4, 1e160)
             for x in (0.0, 1e-300, 1e-10, 1.0, a + 1.0, 1e300)]
    while len(cases) < size:
        n = rng.choice((1, 2)) if rng.random() < 0.2 else 1 + int(2000 * rng.random() ** 2)
        a = rng.choice((-1.0 + 10.0 ** rng.uniform(-15.0, 0.0), 10.0 ** rng.uniform(-3.0, 8.0),
                        10.0 ** rng.uniform(8.0, 160.0)))
        x = rng.choice((10.0 ** rng.uniform(-300.0, 300.0), a + 1.0,
                        (a + 1.0) * rng.uniform(0.01, 3.0) + 4.0 * n * rng.random()))
        cases.append((n, a, x))
    return cases


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:  # the error type and message are part of the pin
        return f"{type(exc).__name__}: {exc}"


def test_ode_residual_bits_pinned():
    # Recorded before the equation's terms were aligned by one ldexp each;
    # re-recorded when an overflowing coefficient became a DomainError, which
    # changed exactly 6 outcomes (cases 31, 145 and 233) from -inf/inf.
    text = "\n".join(_outcome(f, LaguerreParams(n, a), x) for n, a, x in _ode_corpus()
                     for f in (ode_residual, ode_residual_relative))
    assert hashlib.sha256(text.encode()).hexdigest() == ODE_DIGEST
