"""The one check engine: spacing tables, verification checks, CSV and JSON.

check_pair solves one (n, alpha) and runs the requested checks; the verify
command prints its verdicts, and sweep and figure1 run it over a grid, solving
the grid's pairs one process per core this process may use. A pair's spacings
are one SpacingTable of arrays, not an object per gap. Output is deterministic,
and its bytes do not depend on the core count: rows are written with
17-significant-digit decimal floats (round-trip safe), files are written
atomically, and the CSVs and the summary are written in lexicographic
(n, alpha) order regardless of config order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from numbers import Real
from pathlib import Path

import numpy as np

from . import bethe, bounds, forks
from .errors import ParameterError
from .laguerre import LaguerreParams, _alpha, _degree
from .solver import ZeroSet, zeros

ASSERTED_CHECKS = frozenset({"bethe", "bounds", "krasikov"})
VALID_CHECKS = ASSERTED_CHECKS | {"bulk"}  # bulk is an observation with no verdict
DEFAULT_N_VALUES = (10, 20, 50, 100)
DEFAULT_ALPHA_VALUES = (1.0, 100.0, 1e3, 1e4)

BETHE_RESIDUAL_TOL = 1e-8
BULK_FACTOR = 2.0  # "within a factor c" used for the reported bulk statistic

_CSV_HEADER = "i,spacing,uniform_bound,ratio\n"


@dataclass(frozen=True)
class SpacingTable:
    """The n - 1 gaps of one zero set, largest zeros first, against the uniform bound.

    Index i - 1 holds rank i, and i = 1 is the gap below the largest zero;
    ratio is spacing / uniform_bound. For n = 1 both arrays are empty and
    uniform_bound is None.
    """

    spacing: np.ndarray
    ratio: np.ndarray
    uniform_bound: float | None


def _check_names(checks) -> frozenset:
    """checks, a collection of VALID_CHECKS names, as a frozenset, else ParameterError."""
    try:
        if isinstance(checks, str):  # its letters or substrings would be taken for names
            raise TypeError(f"expected a list, got the string {checks!r}")
        names = frozenset(checks)
    except TypeError as exc:  # not a collection, or an unhashable name
        raise ParameterError(f"malformed checks: {exc}") from None
    if not names <= VALID_CHECKS:  # sorted by repr: names of any type compare
        raise ParameterError(f"unknown checks: {sorted(names - VALID_CHECKS, key=repr)}")
    return names


@dataclass(frozen=True)
class SweepConfig:
    """Grid and options for one sweep run. Each value (parse_sweep_config's strings, say)
    is converted here, once; a malformed one, or a string for a list, raises
    ParameterError naming its key."""

    n_values: tuple
    alpha_values: tuple
    checks: frozenset = field(default_factory=lambda: frozenset(VALID_CHECKS))
    epsilon: float = 0.1
    output_dir: Path = Path("sweep-out")

    def __post_init__(self):
        for key, convert in (("n_values", lambda v: tuple(  # a config file's strings parse
                                 _degree(int(n) if isinstance(n, str) else n, 1) for n in v)),
                             ("alpha_values", lambda v: tuple(
                                 _alpha(float(a) if isinstance(a, str) else a) for a in v)),
                             ("epsilon", float), ("output_dir", Path)):
            value = getattr(self, key)
            try:
                if isinstance(value, str) and key in ("n_values", "alpha_values"):
                    raise TypeError(f"expected a list, got the string {value!r}")
                if key == "output_dir" and value == "":  # Path("") is the working directory
                    raise ValueError("expected a directory, got ''")
                object.__setattr__(self, key, convert(value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"malformed {key}: {exc}") from None
        if not self.n_values or not self.alpha_values:
            raise ParameterError("n_values and alpha_values must be non-empty")
        object.__setattr__(self, "checks", _check_names(self.checks))
        if not 0.0 < self.epsilon < 0.5:
            raise ParameterError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")


def spacing_rows(zs: ZeroSet) -> SpacingTable:
    """The spacing table of one zero set (exactly n - 1 gaps)."""
    if zs.n < 2:
        return SpacingTable(np.empty(0), np.empty(0), None)
    ub = bounds.uniform_spacing_lower(zs.params)
    gaps = zs.spacings_descending()
    return SpacingTable(gaps, gaps / ub, ub)


def bulk_stats(zs: ZeroSet, epsilon: float) -> float:
    """Fraction of bulk spacings within a factor BULK_FACTOR of the uniform bound.

    Bulk means ranks i with epsilon*n <= i <= (1-epsilon)*n. Reported as an
    observation; nothing is asserted about its value.
    """
    if not (isinstance(epsilon, Real) and 0.0 < epsilon < 0.5):  # a bool fails the range
        raise ParameterError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    if zs.n < 3:
        raise ParameterError("bulk statistics need n >= 3")
    ub = bounds.uniform_spacing_lower(zs.params)
    rank, lo, hi = np.arange(1, zs.n), epsilon * zs.n, (1.0 - epsilon) * zs.n
    in_bulk = zs.spacings_descending()[(lo <= rank) & (rank <= hi)]
    if not in_bulk.size:
        raise ParameterError("bulk window is empty for this n and epsilon")
    return int(np.count_nonzero(in_bulk <= BULK_FACTOR * ub)) / in_bulk.size


def _format_float(x: float) -> str:
    return format(x, ".17g")


def _alpha_tag(alpha: float) -> str:
    """alpha as a file-name tag: an integer's digits below 2**53, where every integer
    is a double, else the shortest decimal that reads back as the same double (1e+296),
    so distinct alphas never share a CSV name and no tag outgrows a file name."""
    if float(alpha).is_integer() and abs(alpha) < 2.0**53:
        return str(int(alpha))
    return repr(float(alpha))


def pair_filename(n: int, alpha: float) -> str:
    return f"n{n}_alpha{_alpha_tag(alpha)}.csv"


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a fresh temporary file beside path, then rename it onto path.

    The file is created as open() creates one, with mode 0o666 less the umask;
    tempfile.mkstemp's 0o600 would hide every output from the group and others.
    """
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # another writer's name: draw again
            continue
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pair_csv_text(table: SpacingTable) -> str:
    ub = _format_float(table.uniform_bound) if table.spacing.size else ""
    return _CSV_HEADER + "".join(
        f"{i},{_format_float(s)},{ub},{_format_float(r)}\n"
        for i, (s, r) in enumerate(zip(table.spacing.tolist(), table.ratio.tolist()), start=1))


@dataclass(frozen=True)
class PairChecks:
    """One (n, alpha) solved once: its spacing table and each requested check.

    A value is None when its check was not requested (min_ratio is always
    computed, and is None only for n = 1). failed maps each asserted check
    that failed to its detail text, in the order bounds, bethe, krasikov.
    """

    params: LaguerreParams
    table: SpacingTable
    min_ratio: float | None
    max_bethe_residual: float | None
    krasikov_window: tuple | None
    krasikov_ok: bool | None
    bulk_fraction: float | None
    failed: dict


def check_pair(params: LaguerreParams, checks, epsilon: float = 0.1) -> PairChecks:
    """Solve one pair and run the named VALID_CHECKS; every verdict fails closed."""
    checks = _check_names(checks)
    zs = zeros(params)
    table = spacing_rows(zs)
    min_ratio = float(np.min(table.ratio)) if table.ratio.size else None
    failed = {}
    if "bounds" in checks and min_ratio is not None and not min_ratio >= 1.0:
        failed["bounds"] = f"minimum spacing/bound ratio {min_ratio} fell below 1"
    residual = None
    if "bethe" in checks:
        residual = bethe.verify_identity(zs).max_rel_residual
        if not residual <= BETHE_RESIDUAL_TOL:
            failed["bethe"] = f"max identity residual {residual} exceeds {BETHE_RESIDUAL_TOL}"
    window = krasikov_ok = None
    if "krasikov" in checks:
        # ZeroSet already holds the zeros inside (V^2, U^2), so the range is at
        # most U^2 - V^2, which is below the bracket's upper side.
        bs = bounds.bound_set(params)
        window = bs.krasikov_min_lower, bs.krasikov_max_upper
        zero_range = zs.zeros[-1] - zs.zeros[0]
        krasikov_ok = bool(window[0] <= zs.zeros[0] and zs.zeros[-1] <= window[1])
        if not krasikov_ok:
            failed["krasikov"] = "extreme zeros escaped the sharpened window"
        elif bs.range_bracket is not None and not bs.range_bracket[0] <= zero_range:
            krasikov_ok = False
            failed["krasikov"] = (f"zero range {zero_range} fell below the telescoped "
                                  f"bracket's lower side {bs.range_bracket[0]}")
    bulk = bulk_stats(zs, epsilon) if "bulk" in checks and zs.n >= 3 else None
    return PairChecks(params, table, min_ratio, residual, window, krasikov_ok, bulk, failed)


def _deal(grid: list, workers: int) -> list[list]:
    """grid in workers shares, longest processing time first, costing a pair n**2 (the
    QL's rotations and refine's passes both grow so): each pair, largest n first, joins
    the least loaded share. Share 0 gets the first, largest pair; each keeps grid order."""
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for pair in sorted(grid, key=lambda p: p[0], reverse=True):  # stable: ties keep grid order
        k = loads.index(min(loads))
        shares[k].append(pair)
        loads[k] += pair[0] ** 2
    return [sorted(share) for share in shares]


def _solve(share: list, config: SweepConfig) -> dict:
    """{(n, alpha): PairChecks} for share's pairs in order, up to the first that raises;
    the grid walk of _write_pairs solves that one again in-process, where it raises."""
    done = {}
    for n, alpha in share:
        try:
            done[n, alpha] = check_pair(LaguerreParams(n=n, alpha=alpha), config.checks,
                                        config.epsilon)
        except Exception:  # any error: raised again, with its traceback, by the grid walk
            break
    return done


def _solve_shares(grid: list, config: SweepConfig) -> dict:
    """{(n, alpha): PairChecks} solved one process per CPU this process may use, at
    most one a pair; {} where that is one, or where it may not fork
    (forks.usable_cpus).

    This process solves share 0 of _deal (where solver.zeros finds 2 CPUs free, a
    solve there may fork its helper) while a child forked per other share (a forked
    child, so its solves fork no helper) solves its own and pickles its _solve result
    into a pipe. Each pipe is read to EOF and each child reaped; where this
    process raises first, the children left are killed unread and reaped (forks.reap).
    Only a child that exited 0 is trusted. A pair missing from the result (its share's
    error, a dead child, a failed fork) is the caller's to solve.
    """
    cpus = forks.usable_cpus()
    workers = min(len(cpus), len(grid)) if cpus is not None else 1
    if workers == 1:
        return {}
    shares, children = _deal(grid, workers), []
    try:
        for share in shares[1:]:
            child = forks.fork(lambda share=share: _solve(share, config))
            if child is None:  # out of processes: the caller solves the shares left
                break
            children.append(child)
        done = _solve(shares[0], config)
        while children:
            done.update(forks.reap(children.pop(0), wait=True) or {})
    finally:
        for child in children:
            forks.reap(child, wait=False)
    return done


def _write_pairs(config: SweepConfig) -> list[PairChecks]:
    """Check every grid point and write its CSV, in (n, alpha) order.

    The pairs are solved one process per usable core (_solve_shares); the bytes do not
    depend on the core count. The walk in grid order writes each CSV and solves here
    any pair the workers lack, so the first failing pair raises its own error, with
    the CSVs of the pairs before it written, as with one process.
    """
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a user's path: an existing file, say
        raise ParameterError(f"{config.output_dir}: cannot make the output directory: "
                             f"{exc.strerror}") from None
    grid = sorted({(n, a) for n in config.n_values for a in config.alpha_values})
    done = _solve_shares(grid, config)
    results = []
    for n, alpha in grid:
        pair = done.get((n, alpha))
        if pair is None:
            pair = check_pair(LaguerreParams(n=n, alpha=alpha), config.checks, config.epsilon)
        _write_atomic(config.output_dir / pair_filename(n, alpha), _pair_csv_text(pair.table))
        results.append(pair)
    return results


def run_sweep(config: SweepConfig) -> dict:
    """Run every grid point, write one CSV per pair plus summary.json.

    Returns the summary dict; callers decide the exit status from its
    "failures" list. The pairs are solved one process per usable core, and
    identical configs produce byte-identical outputs whatever that count.
    """
    summary = {"pairs": [], "failures": []}
    for pair in _write_pairs(config):
        n, alpha = pair.params.n, pair.params.alpha
        summary["pairs"].append({"n": n, "alpha": alpha, "min_ratio": pair.min_ratio,
                                 "max_bethe_residual": pair.max_bethe_residual,
                                 "krasikov_ok": pair.krasikov_ok,
                                 "bulk_fraction": pair.bulk_fraction})
        summary["failures"] += [{"n": n, "alpha": alpha, "check": check, "detail": detail}
                                for check, detail in pair.failed.items()]
    _write_atomic(config.output_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    return summary


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Render the spacing-versus-bound panels from the CSVs in this directory.

Blue: the spacing i -> x_i - x_(i+1) (largest zeros first).
Red: the uniform lower bound, constant per panel.
"""
import csv
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

N_VALUES = [{n_values}]
ALPHA_VALUES = [{alpha_values}]

here = Path(__file__).parent
fig, axes = plt.subplots(
    len(N_VALUES), len(ALPHA_VALUES), figsize=(16, 12), squeeze=False
)
for r, n in enumerate(N_VALUES):
    for c, alpha in enumerate(ALPHA_VALUES):
        name = f"n{{n}}_alpha{{alpha}}.csv"
        with open(here / name, newline="") as handle:
            rows = list(csv.DictReader(handle))
        i = [int(row["i"]) for row in rows]
        spacing = [float(row["spacing"]) for row in rows]
        bound = float(rows[0]["uniform_bound"])
        ax = axes[r][c]
        ax.plot(i, spacing, color="tab:blue", lw=1.2)
        ax.axhline(bound, color="tab:red", lw=1.2)
        ax.set_yscale("log")
        ax.set_title(f"n={{n}}, alpha={{alpha}}", fontsize=9)
fig.suptitle("spacings (blue) vs uniform lower bound (red)")
fig.tight_layout()
fig.savefig(here / "figure1.png", dpi=150)
print("wrote", here / "figure1.png")
'''


def figure1(output_dir) -> list[Path]:
    """Emit the default 4x4 grid CSVs plus a standalone plot script.

    The pairs are solved one process per usable core, with the same bytes
    whatever that count. The script consumes the CSVs with matplotlib; the
    package itself never imports a rendering dependency.
    """
    config = SweepConfig(DEFAULT_N_VALUES, DEFAULT_ALPHA_VALUES, checks=frozenset(),
                         output_dir=output_dir)
    out = config.output_dir
    written = [out / pair_filename(p.params.n, p.params.alpha) for p in _write_pairs(config)]
    script = _PLOT_SCRIPT.format(
        n_values=", ".join(str(n) for n in DEFAULT_N_VALUES),
        alpha_values=", ".join(_alpha_tag(a) for a in DEFAULT_ALPHA_VALUES),
    )
    script_path = out / "plot_figure1.py"
    _write_atomic(script_path, script)
    written.append(script_path)
    return written


def parse_sweep_config(path) -> SweepConfig:
    """Read a flat key/value config file (lists comma-separated).

    Recognized keys match SweepConfig fields: n_values, alpha_values,
    checks, epsilon, output_dir. Lines starting with '#' are comments. The
    parser only splits the lists; SweepConfig converts every value. A key given
    twice is refused, as is a file that cannot be read as text.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"{path}: cannot read the config: {exc.strerror}") from None
    except UnicodeDecodeError as exc:  # not text in the locale's encoding
        raise ParameterError(f"{path}: cannot read the config: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ParameterError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val.strip()
    unknown = set(values) - {f.name for f in fields(SweepConfig)}
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    missing = {"n_values", "alpha_values"} - set(values)
    if missing:
        raise ParameterError(f"missing config keys: {sorted(missing)}")
    for key in {"n_values", "alpha_values", "checks"} & set(values):
        values[key] = [piece.strip() for piece in values[key].split(",") if piece.strip()]
    return SweepConfig(**values)
