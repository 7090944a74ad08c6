"""Write paper_grid_zeros.json: the 720 zeros of L_n^(alpha) on the paper grid, to 30 digits.

    PYTHONPATH=src python tests/data/paper_grid_oracle.py

For each n in {10, 20, 50, 100} and alpha in {1, 100, 1e3, 1e4}, mpmath Newton at 40
digits on the three-term recurrence, with x L' = n L - (n + alpha) L_{n-1} (DLMF
18.9.14), runs from each zero the package solves until a step falls below 1e-36 of its
point. Each root is then checked by a sign change of L_n across root (1 -+ 1e-30), and
the n roots must be strictly increasing, so the table holds every zero once. Takes a
few seconds.
"""

import json
from pathlib import Path

from mpmath import mp, mpf, nstr

from laguerre_spacings import LaguerreParams, zeros

GRID = [(n, alpha) for n in (10, 20, 50, 100) for alpha in (1.0, 100.0, 1e3, 1e4)]
DIGITS = 30  # significant digits written per zero


def laguerre_pair(n, alpha, x):
    """(L_n^(alpha)(x), L_{n-1}^(alpha)(x)) by the forward recurrence."""
    previous, current = mpf(1), 1 + alpha - x
    for k in range(1, n):
        previous, current = current, ((2 * k + 1 + alpha - x) * current - (k + alpha) * previous) / (k + 1)
    return current, previous


def newton(n, alpha, x):
    for _ in range(100):
        value, previous = laguerre_pair(n, alpha, x)
        step = x * value / (n * value - (n + alpha) * previous)
        x -= step
        if abs(step) <= mpf(10) ** -36 * abs(x):
            return x
    raise RuntimeError(f"no convergence at n = {n}, alpha = {alpha}, x = {x}")


def oracle(n, alpha):
    alpha = mpf(alpha)
    roots = [newton(n, alpha, mpf(seed)) for seed in zeros(LaguerreParams(n, float(alpha))).zeros]
    for root in roots:
        below, _ = laguerre_pair(n, alpha, root * (1 - mpf(10) ** -30))
        above, _ = laguerre_pair(n, alpha, root * (1 + mpf(10) ** -30))
        if not below * above < 0:
            raise RuntimeError(f"no sign change at {root} (n = {n}, alpha = {alpha})")
    if not all(a < b for a, b in zip(roots, roots[1:])):
        raise RuntimeError(f"roots not strictly increasing at n = {n}, alpha = {alpha}")
    return [nstr(root, DIGITS, strip_zeros=False) for root in roots]


def main():
    with mp.workdps(40):
        pairs = [{"n": n, "alpha": alpha, "zeros": oracle(n, alpha)} for n, alpha in GRID]
    path = Path(__file__).with_name("paper_grid_zeros.json")
    path.write_text(json.dumps({"digits": DIGITS, "pairs": pairs}, indent=1) + "\n")
    print(f"wrote {sum(len(p['zeros']) for p in pairs)} zeros to {path}")


if __name__ == "__main__":
    main()
