"""zeros' hard-edge helper: where a second CPU is idle the caller runs the QL until a
Sturm count certifies the n // 8 + 1 smallest eigenvalues, forks a helper that finishes
that same QL, and searches the ranks below n // 8 from its own values while it runs.
refine takes those zeros where its seeds equal the caller's bit for bit. Every zero is
searched and certified in the caller. Whatever the helper does (answers, dies, cannot be
forked), the zeros, residuals and errors are those of a solve without it; no child is
left and the caller's CPUs are restored."""

import bisect
import io
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from laguerre_spacings import (
    ConvergenceError,
    LaguerreParams,
    RefinementError,
    build_jacobi,
    eigen_zeros,
    forks,
    refine,
    solver,
    zeros,
)
from laguerre_spacings.report import SweepConfig, run_sweep

CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
pytestmark = pytest.mark.skipif(len(CPUS) < 2 or not hasattr(os, "fork"),
                                reason="the helper needs os.fork and two usable CPUs")


KILLED = "killed unread"


def outcome(solve, params):
    """The zeros' and residuals' bits, or the error's type and message."""
    try:
        zs = solve(params)
    except RefinementError as exc:
        return type(exc).__name__, str(exc)
    return zs.zeros.tobytes(), zs.residuals.tobytes()


def without_helper(params):
    return refine(params, eigen_zeros(build_jacobi(params)))


@pytest.fixture
def helper(monkeypatch, tmp_path):
    """The helper forked from degree 16 up, every usable CPU read as idle; yields a list
    that gains how each helper ended: its answer where reap read it (None where it gave
    none), KILLED where reap killed it unread. After the test no child of this process
    is left and its CPUs are those it had."""
    monkeypatch.setattr(solver, "_HELPER_LEAST_N", 16)
    monkeypatch.setattr(forks, "idle_cpus", len)
    answers, reap = [], forks.reap

    def recorded(child, wait):
        answer = reap(child, wait)
        answers.append(answer if wait else KILLED)
        return answer

    monkeypatch.setattr(forks, "reap", recorded)
    yield answers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.sched_getaffinity(0)) == CPUS


def pid_log(monkeypatch, tmp_path, module, name):
    """A file that gains the pid of the process, any process, at each call of module.name."""
    log, function = tmp_path / f"{name}.log", getattr(module, name)

    def logged(*args):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return function(*args)

    monkeypatch.setattr(module, name, logged)
    return log


def fork_log(monkeypatch, tmp_path):
    """A file that gains one line per os.fork call, in any process."""
    return pid_log(monkeypatch, tmp_path, os, "fork")


def pids_logged(log) -> list:
    return [int(line) for line in log.read_text().splitlines()] if log.exists() else []


def forks_logged(log) -> int:
    return len(pids_logged(log))


def doctor_ranks(monkeypatch, params, ranks):
    """_step raises at any point in the given ranks' brackets."""
    seeds = eigen_zeros(build_jacobi(params)).tolist()
    mids = [0.5 * (a + b) for a, b in zip(seeds, seeds[1:])]
    step = solver._step

    def doctored(n, alpha, x, *rest):
        rank = bisect.bisect(mids, x)
        if rank in ranks:
            raise RefinementError(f"doctored failure at rank {rank}")
        return step(n, alpha, x, *rest)

    monkeypatch.setattr(solver, "_step", doctored)


def doctor_deflations(monkeypatch, act):
    """_deflations calls act(yields so far) before each value it yields, in any process."""
    deflations = solver._deflations

    def doctored(jacobi):
        for done, value in enumerate(deflations(jacobi)):
            act(done)
            yield value

    monkeypatch.setattr(solver, "_deflations", doctored)


# Degrees from 64 to 2000 with alphas below each one's gate, alpha + 1 < n // 8.
CASES = [(64, -0.9), (64, 0.0), (150, 1.0), (300, -0.5), (384, -0.5), (700, 10.0),
         (1000, -0.5), (2000, -0.5)]


class TestBits:
    @pytest.mark.parametrize("n,alpha", CASES)
    def test_an_answering_helper_gives_the_bits_without_it(self, helper, n, alpha):
        params = LaguerreParams(n, alpha)
        want = outcome(without_helper, params)
        assert outcome(zeros, params) == want
        [tail] = helper  # the values the helper's QL yielded
        assert tail is not None and 0 < len(tail) < n - n // 8

    def test_one_ql_per_solve_across_both_processes(self, helper, monkeypatch, tmp_path):
        params = LaguerreParams(300, -0.5)
        log = tmp_path / "yields.log"

        def logged(done):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")

        calls = pid_log(monkeypatch, tmp_path, solver, "_deflations")
        doctor_deflations(monkeypatch, logged)
        zeros(params)
        pids = pids_logged(log)
        assert pids_logged(calls) == [os.getpid()] and len(pids) == params.n
        assert 0 < pids.count(os.getpid()) < params.n // 2

    def test_every_step_runs_in_the_caller(self, helper, monkeypatch, tmp_path):
        log = pid_log(monkeypatch, tmp_path, solver, "_step")
        zeros(LaguerreParams(300, -0.5))
        pids = pids_logged(log)
        assert len(pids) >= 300 and set(pids) == {os.getpid()}
        assert len(helper) == 1 and helper[0] is not None

    def test_a_helper_that_dies_before_it_answers(self, helper, monkeypatch):
        params = LaguerreParams(300, -0.5)
        want, caller = outcome(without_helper, params), os.getpid()
        doctor_deflations(monkeypatch, lambda done: os.getpid() == caller
                          or os.kill(os.getpid(), signal.SIGKILL))
        assert outcome(zeros, params) == want
        assert helper == [None]

    def test_a_failed_fork(self, helper, monkeypatch):
        params = LaguerreParams(300, -0.5)
        want = outcome(without_helper, params)

        def fails():
            raise OSError("doctored fork failure")

        monkeypatch.setattr(os, "fork", fails)
        assert outcome(zeros, params) == want
        assert helper == []

    def test_a_ql_that_raises_after_the_fork(self, helper, monkeypatch, tmp_path):
        # Both copies of the QL raise; the helper exits 1 and the caller's copy raises.
        def fails(done):
            if done == 200:
                raise ConvergenceError("doctored QL failure")

        doctor_deflations(monkeypatch, fails)
        log = fork_log(monkeypatch, tmp_path)
        with pytest.raises(ConvergenceError, match="doctored QL failure"):
            zeros(LaguerreParams(300, -0.5))
        assert forks_logged(log) == 1 and helper == [None]

    @pytest.mark.parametrize("ranks,lowest", [({5, 200}, 5), ({200}, 200), ({37}, 37)])
    def test_the_lowest_failing_rank_raises_as_without_the_helper(self, helper, monkeypatch,
                                                                   ranks, lowest):
        # Rank 37 = 300 // 8 is the lowest that refine, not the caller's early search, runs.
        params = LaguerreParams(300, -0.5)
        doctor_ranks(monkeypatch, params, ranks)
        want = outcome(without_helper, params)
        assert want == ("RefinementError", f"doctored failure at rank {lowest}")
        assert outcome(zeros, params) == want
        assert len(helper) == 1 and helper[0] is not None

    def test_no_child_is_left_when_the_caller_raises(self, helper, monkeypatch, tmp_path):
        # The caller's search of the lowest ranks fails while the helper runs its QL.
        log = fork_log(monkeypatch, tmp_path)

        def fails(n, alpha, seeds, ranks):
            raise KeyError("doctored search failure")

        monkeypatch.setattr(solver, "_search", fails)
        with pytest.raises(KeyError, match="doctored search failure"):
            zeros(LaguerreParams(300, -0.5))
        assert forks_logged(log) == 1 and helper == [KILLED]

    def test_an_interrupt_at_the_pin_restores_the_cpus(self, helper, monkeypatch, tmp_path):
        # The fixture asserts that this process is held on every CPU it had again.
        log, pin, calls = fork_log(monkeypatch, tmp_path), forks.pin, []

        def interrupted(cpus):
            pin(cpus)
            calls.append(sorted(cpus))
            if len(calls) == 1:
                raise KeyboardInterrupt

        monkeypatch.setattr(forks, "pin", interrupted)
        with pytest.raises(KeyboardInterrupt):
            zeros(LaguerreParams(300, -0.5))
        assert calls == [CPUS[:1], CPUS] and forks_logged(log) == 0 and helper == []


class TestGate:
    def test_the_gate_forks_one_helper(self, helper, monkeypatch, tmp_path):
        log = fork_log(monkeypatch, tmp_path)
        zeros(LaguerreParams(200, 1.0))
        assert forks_logged(log) == 1

    @pytest.mark.parametrize("n,alpha", [(15, -0.5), (200, 24.0), (200, 1e4)])
    def test_below_the_degree_or_past_the_alpha_gate(self, helper, monkeypatch, tmp_path, n,
                                                     alpha):
        log = fork_log(monkeypatch, tmp_path)
        zeros(LaguerreParams(n, alpha))
        assert forks_logged(log) == 0 and helper == []

    def test_one_usable_cpu(self, helper, monkeypatch, tmp_path):
        log = fork_log(monkeypatch, tmp_path)
        os.sched_setaffinity(0, {CPUS[0]})
        try:
            zeros(LaguerreParams(200, 1.0))
        finally:
            os.sched_setaffinity(0, CPUS)
        assert forks_logged(log) == 0

    def test_a_sleeping_child_does_not_block_the_helper(self, helper, monkeypatch, tmp_path):
        # Only idle_cpus, read here as every CPU, says whether a core is free.
        params = LaguerreParams(300, -0.5)
        want = outcome(without_helper, params)
        log = fork_log(monkeypatch, tmp_path)
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            got = outcome(zeros, params)
        finally:
            child.kill()
            child.wait(timeout=60)
        assert got == want and forks_logged(log) == 1
        assert len(helper) == 1 and helper[0] is not None

    def test_sweep_shares_fork_no_helper(self, helper, monkeypatch, tmp_path):
        # Every pair passes the gate. The caller forks the shares past the first, and
        # its own share may fork helpers; a share, a forked child, forks nothing.
        log = fork_log(monkeypatch, tmp_path)
        config = SweepConfig([40, 48, 56, 64], [0.0, 1.0], output_dir=tmp_path / "sweep")
        run_sweep(config)
        pids = pids_logged(log)
        assert set(pids) == {os.getpid()} and len(pids) >= min(len(CPUS), 8) - 1

    @pytest.mark.parametrize("idle", [0, 1])
    def test_busy_cpus(self, helper, monkeypatch, tmp_path, idle):
        # Another task on the spare core, or a CPU quota of one: the QL would share a core.
        log = fork_log(monkeypatch, tmp_path)
        monkeypatch.setattr(forks, "idle_cpus", lambda cpus: idle)
        zeros(LaguerreParams(200, 1.0))
        assert forks_logged(log) == 0

    def test_sigchld_ignored(self, helper, monkeypatch, tmp_path):
        # Its children would be reaped by the kernel, not by reap: it forks none.
        params = LaguerreParams(300, -0.5)
        want = outcome(without_helper, params)
        log = fork_log(monkeypatch, tmp_path)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            got = outcome(zeros, params)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert got == want and forks_logged(log) == 0 and helper == []


def fake_files(monkeypatch, files: dict):
    """forks' open reads files {path: text}; any other path is missing."""
    def opened(path, *args, **kwargs):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    monkeypatch.setattr(forks, "open", opened, raising=False)


class TestIdleCpus:
    LOAD = "/proc/loadavg"

    @pytest.mark.parametrize("runnable,quota,idle", [
        (1, "max 100000", 4), (3, "max 100000", 2), (5, "max 100000", 0),
        (1, "150000 100000", 1.5), (2, "400000 100000", 3)])
    def test_cpus_less_quota_and_other_tasks(self, monkeypatch, runnable, quota, idle):
        fake_files(monkeypatch, {self.LOAD: f"0.50 0.40 0.30 {runnable}/90 4242\n",
                                 "/proc/self/cgroup": "0::/\n",
                                 "/sys/fs/cgroup/cpu.max": quota + "\n"})
        assert forks.idle_cpus([0, 1, 2, 3]) == idle

    def test_an_unreadable_count_is_no_idle_cpu(self, monkeypatch):
        fake_files(monkeypatch, {})
        assert forks.idle_cpus([0, 1]) == 0

    def test_v2_quota_of_an_ancestor(self, monkeypatch):
        fake_files(monkeypatch, {"/proc/self/cgroup": "0::/a/b\n",
                                 "/sys/fs/cgroup/a/b/cpu.max": "max 100000\n",
                                 "/sys/fs/cgroup/a/cpu.max": "150000 100000\n",
                                 "/sys/fs/cgroup/cpu.max": "max 100000\n"})
        assert forks._cpu_quota() == 1.5

    def test_v1_quota_at_a_container_root(self, monkeypatch):
        # Without a cgroup namespace the path names the host's cgroup; the mount is ours.
        fake_files(monkeypatch, {"/proc/self/cgroup": "4:memory:/docker/x\n"
                                                      "3:cpu,cpuacct:/docker/x\n",
                                 "/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "100000\n",
                                 "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000\n"})
        assert forks._cpu_quota() == 1.0

    def test_no_quota(self, monkeypatch):
        fake_files(monkeypatch, {"/proc/self/cgroup": "3:cpu:/\n0::/\n",
                                 "/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "-1\n",
                                 "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000\n",
                                 "/sys/fs/cgroup/cpu.max": "max 100000\n"})
        assert forks._cpu_quota() == math.inf


class TestReap:
    @pytest.mark.parametrize("wait", [True, False])
    def test_a_child_reaped_elsewhere_ends_quietly(self, wait):
        child = forks.fork(lambda: 1)
        os.waitpid(child[0], 0)
        assert forks.reap(child, wait) is None

    def test_a_child_answers(self):
        assert forks.reap(forks.fork(lambda: {"a": 1}), wait=True) == {"a": 1}

    @pytest.mark.parametrize("answers", [False, True])
    def test_an_unread_child_is_killed_and_reaped(self, answers):
        # A child that never answers, and one whose answer waits in the pipe unread.
        child = forks.fork((lambda: 1) if answers else (lambda: time.sleep(60)))
        if answers:  # wait until it has exited, leaving it to reap
            os.waitid(os.P_PID, child[0], os.WEXITED | os.WNOWAIT)
        start = time.monotonic()
        assert forks.reap(child, wait=False) is None
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):  # no zombie is left
            os.waitpid(child[0], os.WNOHANG)


class TestSearched:
    """refine takes the zeros searched from a head of seeds only where that head is its
    own seeds' first values bit for bit; every other rank it searches itself."""

    N, ALPHA = 300, -0.5
    PARAMS = LaguerreParams(N, ALPHA)

    def solve(self, monkeypatch, head):
        """The outcome of refine handed the zeros searched from head, as zeros hands them,
        and the ranks below n // 8 that refine searched itself."""
        jacobi, count = build_jacobi(self.PARAMS), self.N // 8
        below, _ = solver._search(self.N, self.ALPHA, head, range(count))
        searched, search = [], solver._search
        monkeypatch.setattr(solver, "_search", lambda n, alpha, seeds, ranks:
                            searched.extend(ranks) or search(n, alpha, seeds, ranks))
        seeds = eigen_zeros(jacobi)
        got = outcome(lambda p: refine(p, seeds, searched=(np.array(head), below)), self.PARAMS)
        return got, sorted(set(searched) & set(range(count)))

    def head(self):
        return eigen_zeros(build_jacobi(self.PARAMS))[:self.N // 8 + 1].tolist()

    def test_the_zeros_from_the_same_seeds_are_taken(self, monkeypatch):
        want = outcome(without_helper, self.PARAMS)
        assert self.solve(monkeypatch, self.head()) == (want, [])

    @pytest.mark.parametrize("rank", [0, 20, 37])
    def test_a_head_one_ulp_off_is_searched_again(self, monkeypatch, rank):
        want = outcome(without_helper, self.PARAMS)
        head = self.head()
        head[rank] = float(np.nextafter(head[rank], math.inf))
        assert self.solve(monkeypatch, head) == (want, list(range(self.N // 8)))
