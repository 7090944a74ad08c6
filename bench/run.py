#!/usr/bin/env python3
"""Benchmark of the laguerre_spacings CLI: four workloads, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each op calls ``laguerre_spacings.cli.main(argv)`` in this process with
stdout captured, one op at a time. With --trace 0 the last stdout line is a
JSON object holding the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run. bench/README.md defines every metric.
"""

import os

# Pin BLAS/LAPACK to one thread before numpy loads: the scipy reference rows
# must not compete with the workload for the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import Calibrator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH_DIR / "expected"

SETUP_BEFORE, SETUP_AFTER = 5, 6  # fresh-interpreter imports around the loop
NOMINAL_CAL_S = 1e-3  # setup_s converts the import's cost in cal at this rate
BETHE_TOL = 1e-8  # report.BETHE_RESIDUAL_TOL at the seed commit
EIGVALSH_FACTOR = 256.0  # allowed |zero - scipy eigenvalue| in eps * ||T||; n = 1000 shows ~35
P90_MIN_SAMPLES = 100
TYPED_ERRORS_MODULE = "laguerre_spacings.errors"

END_TO_END = ("setup_s", "op_cal_p50", "zeros_per_cal", "certified_share", "peak_rss_mb")
UNITS = {
    "setup_s": "s", "op_cal_p50": "cal", "zeros_per_cal": "1/cal", "certified_share": "fraction",
    "peak_rss_mb": "MB",
    "solver.eigen_zeros.s": "s", "solver.refine.s": "s", "solver.build_jacobi.s": "s",
    "laguerre.plain.calls": "count", "laguerre.plain.s": "s",
    "laguerre.compensated.calls": "count", "laguerre.compensated.s": "s",
    "laguerre.compensated_share": "fraction", "laguerre.evals_per_zero": "evals/zero",
    "solver.refine.residual_ulp_max": "ulp", "solver.seed_displacement_max": "gap",
    "bethe.verify_identity.s": "s", "bounds.s": "s", "report.self_s": "s",
    "report.bytes_written": "B", "bessel.bessel_zero_table.s": "s",
    "bessel.limit_probe.self_s": "s", "cli.self_s": "s", "cli.main.s": "s",
    "trace.overhead_share": "fraction", "ref.scipy_eigvalsh.s": "s",
    "identity_residual_max": "relative",
}
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)

_BETHE_LINE = re.compile(r"^bethe: max residual (\S+) \((PASS|FAIL) at ", re.M)
_CHECK_LINE = re.compile(r"^(bounds|krasikov): .*\((PASS|FAIL)\)$", re.M)


@dataclass
class Op:
    """One closed-loop request: one or more CLI calls timed together."""

    label: str
    calls: list
    zeros: int  # Laguerre zeros delivered when the op is certified
    n: int = 0
    alpha: float = 0.0
    workdir: Path | None = None


@dataclass
class CallResult:
    rc: int | None
    stdout: str
    stderr: str
    exc: BaseException | None = None


@dataclass
class Record:
    """What one op cost and whether its output held up."""

    label: str
    seconds: float
    status: str  # "certified", "refused" (typed, honest), or "failed"
    detail: str = ""
    zeros: int = 0
    residual: float | None = None
    bytes_written: int = 0
    traced: bool = False
    extra: dict = field(default_factory=dict)
    start: float = 0.0
    net_s: float = 0.0  # seconds without the calibration samples taken during the op
    cost: float = 0.0  # net_s in cal (see calibrate.py); 0 for traced ops


def _verify_outcome(result: CallResult):
    """Classify one ``verify`` call as certified, refused or failed.

    certified: exit 0, every check printed PASS, identity residual within
    tolerance. refused: a package error type was raised, or exit 1 with a
    FAIL line. Anything else (untyped crash, a FAIL with exit 0, a PASS with
    exit 1, missing lines) is a wrong output and counts as failed.
    """
    if result.exc is not None:
        name = type(result.exc).__name__
        if type(result.exc).__module__ == TYPED_ERRORS_MODULE:
            return "refused", name, None
        return "failed", f"untyped {name}: {result.exc}", None
    bethe = _BETHE_LINE.findall(result.stdout)
    checks = _CHECK_LINE.findall(result.stdout)
    if len(bethe) != 1 or len(checks) != 2:
        return "failed", f"exit {result.rc}, unexpected verify output", None
    residual = float(bethe[0][0])
    verdicts = [("bethe", bethe[0][1])] + checks
    failing = [name for name, verdict in verdicts if verdict == "FAIL"]
    if result.rc == 0 and not failing and residual <= BETHE_TOL:
        return "certified", "", residual
    if result.rc == 1 and failing:
        return "refused", "check:" + "+".join(failing), residual
    return "failed", f"exit {result.rc} with failing checks {failing}", residual


class Workload:
    """Inputs, output checks and required spans of one benchmark workload."""

    name = ""
    required_spans: tuple = ()

    def block(self, rng: random.Random) -> list:
        """The next ops; a run measures whole blocks only."""
        raise NotImplementedError

    def prepare(self, op: Op) -> None:
        """Untimed set-up before the op."""

    def check(self, op: Op, results: list, seconds: float) -> Record:
        raise NotImplementedError

    def finish(self, records: list) -> None:
        """Untimed checks after the loop that need scipy (kept out of peak RSS)."""


class PaperSweep(Workload):
    """The paper's 4x4 grid: many small solves, where call overhead, report
    emission and the bethe checks sit beside the solver."""

    name = "paper_sweep"
    required_spans = ("cli.main", "cli.cmd_sweep", "cli.cmd_figure1",
                      "report.parse_sweep_config", "report.run_sweep", "report.figure1",
                      "report.spacing_rows", "report.bulk_stats", "solver.zeros",
                      "solver.build_jacobi", "solver.eigen_zeros", "solver.refine",
                      "laguerre.laguerre_polynomial", "bethe.verify_identity",
                      "bounds.krasikov_window")
    N_VALUES = (10, 20, 50, 100)
    ALPHA_VALUES = (1.0, 100.0, 1e3, 1e4)

    def __init__(self):
        self.expected = json.loads((EXPECTED / "paper_sweep_sha256.json").read_text())
        self.count = 0

    def block(self, rng):
        self.count += 1
        workdir = OUT / "work" / self.name
        cfg = workdir / "sweep.cfg"
        zeros = 2 * len(self.ALPHA_VALUES) * sum(self.N_VALUES)
        return [Op(label=f"grid#{self.count}", zeros=zeros, workdir=workdir,
                   calls=[["sweep", "--config", str(cfg)],
                          ["figure1", "--out", str(workdir / "figure1")]])]

    def prepare(self, op):
        shutil.rmtree(op.workdir, ignore_errors=True)
        op.workdir.mkdir(parents=True)
        (op.workdir / "sweep.cfg").write_text(
            f"n_values = {','.join(str(n) for n in self.N_VALUES)}\n"
            f"alpha_values = {','.join(format(a, 'g') for a in self.ALPHA_VALUES)}\n"
            "checks = bethe,bounds,krasikov,bulk\n"
            f"output_dir = {op.workdir / 'sweep'}\n"
        )

    def check(self, op, results, seconds):
        problems = [f"{call[0]}: exit {r.rc} {type(r.exc).__name__ if r.exc else ''}".strip()
                    for call, r in zip(op.calls, results) if r.rc != 0 or r.exc]
        written = 0
        for sub in ("sweep", "figure1"):
            folder = op.workdir / sub
            got = {}
            if folder.is_dir():
                for path in sorted(folder.iterdir()):
                    data = path.read_bytes()
                    got[path.name] = hashlib.sha256(data).hexdigest()
                    if path.suffix in (".csv", ".json"):
                        written += len(data)
            want = self.expected[sub]
            if got != want:
                bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
                problems.append(f"{sub} digests differ: {bad[:4]}")
        residual = None
        summary = op.workdir / "sweep" / "summary.json"
        try:
            pairs = json.loads(summary.read_text())["pairs"]
            residual = max(p["max_bethe_residual"] for p in pairs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"summary.json unreadable: {exc!r}")
        if residual is not None and residual > BETHE_TOL:
            problems.append(f"identity residual {residual} above {BETHE_TOL}")
        shutil.rmtree(op.workdir, ignore_errors=True)
        return Record(op.label, seconds, "failed" if problems else "certified",
                      "; ".join(problems), op.zeros, residual, written)


class LargeN(Workload):
    """n = 1000, where interpreted O(n^2) QL, Newton and identity work dominate;
    alpha = -0.5 needs compensated evaluations, alpha = 1e4 none."""

    name = "large_n"
    required_spans = ("cli.main", "cli.cmd_verify", "solver.zeros", "solver.build_jacobi",
                      "solver.eigen_zeros", "solver.refine", "laguerre.laguerre_polynomial",
                      "laguerre.laguerre_polynomial_compensated", "bethe.verify_identity",
                      "report.spacing_rows", "bounds.krasikov_window")
    N = 1000
    ALPHAS = (-0.5, 1e4)

    def block(self, rng):
        alphas = list(self.ALPHAS)
        rng.shuffle(alphas)
        return [Op(label=f"n={self.N} alpha={a!r}", zeros=self.N, n=self.N, alpha=a,
                   calls=[["verify", "--n", str(self.N), f"--alpha={a!r}"]])
                for a in alphas]

    def check(self, op, results, seconds):
        status, detail, residual = _verify_outcome(results[0])
        if status == "refused":  # every large_n op is certified at the seed commit
            status, detail = "failed", f"refused: {detail}"
        return Record(op.label, seconds, status, detail, op.zeros, residual)


class BesselProbe(Workload):
    """The mpmath Bessel-zero stack, absent from every other workload; a fresh
    alpha per op keeps its in-process zero cache cold."""

    name = "bessel_probe"
    required_spans = ("cli.main", "cli.cmd_bessel_probe", "bessel.bessel_zero_table",
                      "bessel.bessel_zero", "bessel.gap_facts", "bessel.limit_probe",
                      "solver.zeros", "solver.eigen_zeros", "solver.refine")
    K = 19
    N_GRID = (20, 40)
    COUNT = 20  # zeros the CLI tabulates: min(K + 1, MAX_RANK)

    def __init__(self):
        self.seen = set()

    def block(self, rng):
        while True:
            alpha = 1.0 - 1.9 * rng.random()  # uniform on (-0.9, 1]
            if alpha not in self.seen:
                break
        self.seen.add(alpha)
        return [Op(label=f"alpha={alpha!r}", zeros=sum(self.N_GRID), alpha=alpha,
                   calls=[["bessel-probe", f"--alpha={alpha!r}", "--k", str(self.K),
                           "--ngrid", ",".join(str(n) for n in self.N_GRID)]])]

    def check(self, op, results, seconds):
        r = results[0]
        problems = []
        printed = []
        if r.rc != 0 or r.exc:
            problems.append(f"exit {r.rc} {type(r.exc).__name__ if r.exc else ''}".strip())
        else:
            lines = r.stdout.splitlines()
            head = lines[0] if lines else ""
            if head.startswith("zeros of J_"):
                printed = [float(v) for v in head.split(":", 1)[1].split(",")]
            if len(printed) != self.COUNT:
                problems.append(f"printed {len(printed)} zeros, expected {self.COUNT}")
            rows = [ln for ln in lines if re.match(r"^\s+\d+\s", ln)]
            if len(rows) != len(self.N_GRID):
                problems.append(f"printed {len(rows)} grid rows, expected {len(self.N_GRID)}")
        return Record(op.label, seconds, "failed" if problems else "certified",
                      "; ".join(problems), op.zeros,
                      extra={"alpha": op.alpha, "printed": printed})

    def finish(self, records):
        from scipy.special import jv, jvp

        from laguerre_spacings import bessel

        for rec in records:
            if rec.status != "certified":
                continue
            alpha = rec.extra["alpha"]
            table = bessel.bessel_zero_table(alpha, self.COUNT)  # cached by the op
            problems = []
            for z, shown in zip(table.zeros, rec.extra["printed"]):
                if abs(z - shown) > 1e-11 * z:
                    problems.append(f"printed zero {shown} is not the table's {z}")
                if abs(jv(alpha, z)) > 1e-12 * max(1.0, abs(jvp(alpha, z)) * z):
                    problems.append(f"scipy rejects zero {z!r} of J_{alpha!r}")
            if problems:
                rec.status, rec.detail = "failed", "; ".join(problems[:3])


class WideAlpha(Workload):
    """Huge alpha, where the numerics decide the outcome: 17 of 27 ops are
    refused at the seed commit, so the certified-share gate sees them."""

    name = "wide_alpha"
    required_spans = ("cli.main", "cli.cmd_verify", "solver.zeros", "solver.build_jacobi",
                      "solver.eigen_zeros", "solver.refine", "laguerre.laguerre_polynomial",
                      "bethe.verify_identity")
    N_VALUES = (3, 50, 200)
    ALPHAS = (1e8, 1e12, 1e14, 1e16, 1e20, 1e26, 1e40, 1e100, 1e160)

    def block(self, rng):
        grid = [(n, a) for n in self.N_VALUES for a in self.ALPHAS]
        rng.shuffle(grid)
        return [Op(label=f"n={n} alpha={a:g}", zeros=n, n=n, alpha=a,
                   calls=[["verify", "--n", str(n), f"--alpha={a!r}"]])
                for n, a in grid]

    def check(self, op, results, seconds):
        status, detail, residual = _verify_outcome(results[0])
        return Record(op.label, seconds, status, detail, op.zeros, residual,
                      extra={"n": op.n, "alpha": op.alpha})


WORKLOADS = {w.name: w for w in (PaperSweep, LargeN, BesselProbe, WideAlpha)}


_SETUP_PROBE = """
import time
t = time.perf_counter()
import laguerre_spacings
seconds = time.perf_counter() - t
from calibrate import kernel
kernel()
t = time.perf_counter()
for _ in range(10):
    kernel()
print(repr(seconds), repr((time.perf_counter() - t) / 10))
"""


def measure_setup(repeats: int, warm_up: bool) -> list:
    """(import seconds, cal seconds) of the package in fresh interpreters.

    Each child times its import, then the calibration kernel right after
    it, so that the import's cost can be stated in cal. The first import of
    a checkout writes bytecode caches; warm_up runs one untimed import first
    so that no sample pays for that.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    samples = []
    for i in range(repeats + warm_up):
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        if i or not warm_up:
            samples.append(tuple(float(v) for v in proc.stdout.split()))
    return samples


def call_cli(cli, argv) -> CallResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            return CallResult(exc.code, out.getvalue(), err.getvalue(), None)
        except Exception as exc:  # the op's outcome; classified by the workload
            return CallResult(None, out.getvalue(), err.getvalue(), exc)
    return CallResult(rc, out.getvalue(), err.getvalue(), None)


def run_loop(workload, rng, seconds, cli, tracer=None, after_op=None) -> list:
    """Closed loop, one client: whole blocks until the next would overrun seconds."""
    records = []
    started = time.perf_counter()
    while True:
        block_start = time.perf_counter()
        for op in workload.block(rng):
            workload.prepare(op)
            span = tracer.open("op") if tracer is not None else None
            t0 = time.perf_counter()
            results = [call_cli(cli, argv) for argv in op.calls]
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            record = workload.check(op, results, elapsed)
            record.traced = tracer is not None
            record.start = t0
            if after_op is not None:
                after_op(record)
            records.append(record)
        now = time.perf_counter()
        if now - started + (now - block_start) > seconds:
            return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrated_loop(workload, rng, seconds, cli) -> list:
    """run_loop with machine-speed sampling; fills each record's net_s and cost."""
    with Calibrator() as calibrator:
        records = run_loop(workload, rng, seconds, cli)
    for r in records:
        r.net_s, r.cost = calibrator.cost(r.start, r.start + r.seconds)
    return records


def _certified(records, attr) -> list:
    """attr of the certified ops (of all ops if none is certified)."""
    chosen = [r for r in records if r.status == "certified"] or records
    return [getattr(r, attr) for r in chosen]


def end_to_end(records, setup_samples, rss) -> dict:
    certified = [r for r in records if r.status == "certified"]
    return {
        "setup_s": statistics.median(s / cal for s, cal in setup_samples) * NOMINAL_CAL_S,
        "op_cal_p50": statistics.median(_certified(records, "cost")),
        "zeros_per_cal": sum(r.zeros for r in certified) / sum(r.cost for r in records),
        "certified_share": len(certified) / len(records),
        "peak_rss_mb": rss,
    }


class SolveCapture:
    """Keeps what each traced refine() saw and returned, for untimed analysis."""

    def __init__(self, build_jacobi):
        self.build_jacobi = build_jacobi
        self.pending = []
        self.zeros = 0
        self.residual_max = 0.0
        self.displacement_max = 0.0
        self.scipy_s = 0.0
        self.scipy_worst = 0.0

    def on_refine(self, args, kwargs, result):
        self.pending.append((args[0], args[1], result))

    def drain(self, record) -> None:
        import numpy as np
        from scipy.linalg import eigvalsh_tridiagonal

        eps = float(np.finfo(float).eps)
        for params, seeds, zs in self.pending:
            z = np.asarray(zs.zeros)
            self.zeros += z.size
            self.residual_max = max(self.residual_max, float(np.max(zs.residuals)))
            if z.size > 1:
                gaps = np.diff(z)
                local = np.minimum(np.concatenate(([gaps[0]], gaps)),
                                   np.concatenate((gaps, [gaps[-1]])))
                shift = np.abs(z - np.asarray(seeds, dtype=float)) / local
                self.displacement_max = max(self.displacement_max, float(np.max(shift)))
            jac = self.build_jacobi(params)
            t0 = time.perf_counter()
            ref = eigvalsh_tridiagonal(jac.diag, jac.offdiag)
            self.scipy_s += time.perf_counter() - t0
            norm = float(np.max(np.abs(ref)))
            err = float(np.max(np.abs(z - np.sort(ref)))) / (eps * norm)
            self.scipy_worst = max(self.scipy_worst, err)
            if err > EIGVALSH_FACTOR and record.status == "certified":
                record.status = "failed"
                record.detail = (f"n={params.n} alpha={params.alpha!r}: zeros differ from "
                                 f"eigvalsh_tridiagonal by {err:.3g} eps*||T||")
        self.pending.clear()


def layer_metrics(tracer, capture, untraced, traced, records) -> tuple:
    """Per-layer metrics per traced op, plus the span table behind them."""
    selfs = tracer.self_times()
    calls, self_s, incl_s = {}, {}, {}
    op_id = tracer.names.index("op")
    partition_worst = 0.0
    op_total = op_self_sum = 0.0  # spans of one op follow its root span
    for i in range(len(tracer)):
        name = tracer.span_name(i)
        dur = tracer.end[i] - tracer.start[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        incl_s[name] = incl_s.get(name, 0.0) + dur
        if tracer.name_id[i] == op_id:
            partition_worst = max(partition_worst, abs(op_self_sum - op_total))
            op_total, op_self_sum = dur, 0.0
        op_self_sum += selfs[i]
    partition_worst = max(partition_worst, abs(op_self_sum - op_total))
    if partition_worst > 1e-6:
        raise RuntimeError(f"span self times miss their op's time by {partition_worst} s")

    ops = calls.get("op", 0)

    def per_op(table, name):
        return table.get(name, 0.0) / ops

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix)) / ops

    plain = calls.get("laguerre.laguerre_polynomial", 0)
    comp = calls.get("laguerre.laguerre_polynomial_compensated", 0)
    evals = plain + comp
    base = statistics.median(_certified(untraced, "net_s"))
    residuals = [r.residual for r in records if r.residual is not None]
    metrics = {
        "solver.eigen_zeros.s": per_op(self_s, "solver.eigen_zeros"),
        "solver.refine.s": per_op(self_s, "solver.refine"),
        "solver.build_jacobi.s": per_op(self_s, "solver.build_jacobi"),
        "laguerre.plain.calls": plain / ops,
        "laguerre.plain.s": per_op(incl_s, "laguerre.laguerre_polynomial"),
        "laguerre.compensated.calls": comp / ops,
        "laguerre.compensated.s": per_op(incl_s, "laguerre.laguerre_polynomial_compensated"),
        "laguerre.compensated_share": comp / evals if evals else 0.0,
        "laguerre.evals_per_zero": evals / capture.zeros if capture.zeros else 0.0,
        "solver.refine.residual_ulp_max": capture.residual_max,
        "solver.seed_displacement_max": capture.displacement_max,
        "bethe.verify_identity.s": per_op(incl_s, "bethe.verify_identity"),
        "bounds.s": layer_self("bounds."),
        "report.self_s": layer_self("report."),
        "report.bytes_written": statistics.fmean(r.bytes_written for r in records),
        "bessel.bessel_zero_table.s": per_op(incl_s, "bessel.bessel_zero_table"),
        "bessel.limit_probe.self_s": per_op(self_s, "bessel.limit_probe"),
        "cli.self_s": layer_self("cli."),
        "cli.main.s": per_op(incl_s, "cli.main"),
        "trace.overhead_share": statistics.median(_certified(traced, "seconds")) / base - 1.0,
        "ref.scipy_eigvalsh.s": capture.scipy_s / ops,
        "identity_residual_max": max(residuals, default=0.0),
    }
    table = {name: {"calls_per_op": calls[name] / ops, "self_s_per_op": self_s[name] / ops,
                    "incl_s_per_op": incl_s[name] / ops} for name in sorted(calls)}
    return metrics, table, partition_worst


def provenance(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    sha = "unknown"  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except OSError:
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "platform": platform.platform(),
    }


def _wide_alpha_changes(records) -> dict:
    """Outcomes per (n, alpha) compared with the list recorded at the seed commit."""
    seed = {(e["n"], e["alpha"]): e["outcome"]
            for e in json.loads((EXPECTED / "wide_alpha_seed_outcomes.json").read_text())}
    now = {}
    for r in records:
        now[(r.extra["n"], r.extra["alpha"])] = r.detail if r.status != "certified" else "certified"
    return {f"n={n} alpha={a:g}": f"{seed.get((n, a))} -> {o}"
            for (n, a), o in sorted(now.items()) if seed.get((n, a)) != o}


def run(args) -> dict:
    """Measure one workload; returns the result file's content."""
    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    OUT.mkdir(exist_ok=True)
    # Host speed drifts over seconds; imports on both sides of the loop
    # sample more of it than a burst at the start would.
    setup_samples = measure_setup(SETUP_BEFORE, warm_up=True)
    sys.path.insert(0, str(SRC))
    from laguerre_spacings import cli

    call_cli(cli, ["verify", "--n", "5", "--alpha", "1"])  # parser and lazy imports
    result = {"provenance": provenance(args), "setup_samples_s_cal": setup_samples}
    if not args.trace:
        records = calibrated_loop(workload, rng, args.seconds, cli)
        rss = peak_rss_mb()  # before finish() imports scipy
        setup_samples += measure_setup(SETUP_AFTER, warm_up=False)
        result["setup_wall_s"] = statistics.median(s for s, _ in setup_samples)
        workload.finish(records)
        metrics = end_to_end(records, setup_samples, rss)
    else:
        import numpy  # noqa: F401  (loaded before the traced phase starts)
        import scipy.linalg  # noqa: F401

        from laguerre_spacings import bessel, bethe, bounds, laguerre, report, solver
        from spans import Tracer

        untraced = calibrated_loop(workload, rng, args.seconds / 2, cli)
        tracer = Tracer()
        capture = SolveCapture(solver.build_jacobi)
        tracer.install([cli, report, solver, laguerre, bethe, bounds, bessel],
                       on_return={"solver.refine": capture.on_refine})
        try:
            traced = run_loop(workload, rng, args.seconds / 2, cli, tracer, capture.drain)
        finally:
            tracer.uninstall()
        tracer.check_nesting()
        missing = [s for s in workload.required_spans if s not in tracer.names]
        if missing:
            raise RuntimeError(f"{workload.name}: no span recorded for {missing}; "
                               "was a public function renamed or moved?")
        records = untraced + traced
        workload.finish(records)
        metrics, table, partition = layer_metrics(tracer, capture, untraced, traced, records)
        spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.tsv.gz"
        tracer.write(spans_path)
        result.update(span_table=table, spans_file=str(spans_path.relative_to(ROOT)),
                      partition_error_s=partition, scipy_worst_eps_norm=capture.scipy_worst)
    untraced_ok = [r for r in records if not r.traced and r.status == "certified"]
    secs = sorted(r.net_s for r in untraced_ok)
    result["op_s_samples"] = len(secs)
    if secs:
        result["op_s_p50"] = statistics.median(secs)
        result["cal_ms"] = 1e3 * statistics.fmean(r.net_s / r.cost for r in untraced_ok)
        result["zeros_per_s"] = (sum(r.zeros for r in untraced_ok)
                                 / sum(r.net_s for r in records if not r.traced))
    if len(secs) >= P90_MIN_SAMPLES:
        result["op_s_p90"] = statistics.quantiles(secs, n=10)[-1]
    if workload.name == "wide_alpha":
        result["changes_since_seed"] = _wide_alpha_changes(records)
    result["metrics"] = metrics
    result["records"] = [vars(r) | {"extra": {k: v for k, v in r.extra.items()
                                               if k != "printed"}} for r in records]
    return result


def report_lines(result) -> list:
    metrics = result["metrics"]
    prov = result["provenance"]
    lines = [f"provenance: {json.dumps(prov, sort_keys=True)}"]
    records = result["records"]
    counts = {s: sum(1 for r in records if r["status"] == s)
              for s in ("certified", "refused", "failed")}
    lines.append(f"{prov['workload']}: {len(records)} ops, " +
                 ", ".join(f"{v} {k}" for k, v in counts.items()))
    for name, value in metrics.items():
        lines.append(f"  {name:<34} {value!r:>24} {UNITS[name]}")
    if "setup_wall_s" in result:
        lines.append(f"  {'setup_wall_s':<34} {result['setup_wall_s']!r:>24} s "
                     "(raw import time, not converted to cal)")
    if "op_s_p50" in result:
        lines.append(f"  {'op_s_p50':<34} {result['op_s_p50']!r:>24} s "
                     f"(wall, {result['op_s_samples']} samples; 1 cal = "
                     f"{result['cal_ms']:.3f} ms in this run)")
        lines.append(f"  {'zeros_per_s':<34} {result['zeros_per_s']!r:>24} 1/s (wall)")
    if "op_s_p90" in result:
        lines.append(f"  {'op_s_p90':<34} {result['op_s_p90']!r:>24} s "
                     f"({result['op_s_samples']} samples, untraced)")
    else:
        lines.append(f"  op_s_p90 not reported: {result['op_s_samples']} untraced samples "
                     f"< {P90_MIN_SAMPLES}")
    for r in records:
        if r["status"] == "failed":
            lines.append(f"  FAILED {r['label']}: {r['detail']}")
    for label, change in result.get("changes_since_seed", {}).items():
        lines.append(f"  changed since seed: {label}: {change}")
    if "partition_error_s" in result:
        lines.append(f"  span self times partition the op time to "
                     f"{result['partition_error_s']:.3g} s")
    return lines


def run_all(args) -> int:
    """Each workload in its own interpreter, so caches and peak RSS stay apart."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", repr(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, timeout=600)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "laguerre_spacings" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run(args)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    for line in report_lines(result):
        print(line)
    failed = sum(1 for r in result["records"] if r["status"] == "failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["records"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
