"""zeros' hard-edge helper: a forked process searches the lowest n // 8 ranks while the
caller runs the full QL, and the caller certifies its zeros. The caller takes answers
only from seeds equal to its own bit for bit, and the helper runs the caller's own
search from them, so an answering helper's zeros are the caller's bits; the residual
check guards against a faulty answer. Whatever the helper does (answers, is late,
dies, fails on a rank), the zeros, residuals and errors are those of a solve without
it; no child is left and the caller's CPUs are restored."""

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
    that gains each helper's answer (None where it gave none). After the test no child
    of this process is left and its CPUs are those it had."""
    monkeypatch.setattr(solver, "_HELPER_LEAST_N", 16)
    monkeypatch.setattr(forks, "idle_cpus", len)
    answers, reap = [], forks.reap

    def recorded(child, wait):
        answer = reap(child, wait)
        answers.append(answer)
        return answer

    monkeypatch.setattr(forks, "reap", recorded)
    yield answers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.sched_getaffinity(0)) == CPUS


def waits_for_the_helper(monkeypatch):
    """Make the caller's poll wait for the helper's answer, so that it always comes."""
    reap = forks.reap
    monkeypatch.setattr(forks, "reap", lambda child, wait: reap(child, True))


def fork_log(monkeypatch, tmp_path):
    """A file that gains one line per os.fork call, in any process."""
    log, fork = tmp_path / "forks.log", os.fork

    def logged():
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", logged)
    return log


def forks_logged(log) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


def doctor_ranks(monkeypatch, params, ranks, everywhere: bool):
    """_step raises at any point in the given ranks' brackets: in the helper only, or
    (everywhere) in the caller too."""
    seeds = eigen_zeros(build_jacobi(params)).tolist()
    mids = [0.5 * (a + b) for a, b in zip(seeds, seeds[1:])]
    caller, step = os.getpid(), solver._step

    def doctored(n, alpha, x, *rest):
        rank = bisect.bisect(mids, x)
        if rank in ranks and (everywhere or os.getpid() != caller):
            raise RefinementError(f"doctored failure at rank {rank}")
        return step(n, alpha, x, *rest)

    monkeypatch.setattr(solver, "_step", doctored)


# Degrees from 64 to 1000 with alphas below each one's gate, alpha + 1 < n // 8.
CASES = [(64, -0.9), (64, 0.0), (150, 1.0), (300, -0.5), (700, 10.0), (1000, -0.5)]


class TestBits:
    @pytest.mark.parametrize("n,alpha", CASES)
    def test_an_answering_helper_gives_the_bits_without_it(self, helper, monkeypatch, n, alpha):
        params = LaguerreParams(n, alpha)
        want = outcome(without_helper, params)
        waits_for_the_helper(monkeypatch)
        assert outcome(zeros, params) == want
        [(seeds, answers)] = helper
        assert len(seeds) == n // 8 + 1 and sorted(answers) == list(range(n // 8))

    def test_a_late_helper_is_killed(self, helper, monkeypatch):
        params = LaguerreParams(300, -0.5)
        want = outcome(without_helper, params)
        monkeypatch.setattr(solver, "_hard_edge", lambda *args: time.sleep(60))
        started = time.perf_counter()
        assert outcome(zeros, params) == want
        assert helper == [None] and time.perf_counter() - started < 30

    def test_a_helper_that_dies_before_it_answers(self, helper, monkeypatch):
        params = LaguerreParams(300, -0.5)
        want = outcome(without_helper, params)
        monkeypatch.setattr(solver, "_hard_edge",
                            lambda *args: os.kill(os.getpid(), signal.SIGKILL))
        waits_for_the_helper(monkeypatch)
        assert outcome(zeros, params) == want
        assert helper == [None]

    def test_a_helper_that_fails_on_a_rank(self, helper, monkeypatch):
        # The helper's search drops rank 3 and the lanes above it; the caller searches them.
        params = LaguerreParams(300, -0.5)
        want = outcome(without_helper, params)
        doctor_ranks(monkeypatch, params, {3}, everywhere=False)
        waits_for_the_helper(monkeypatch)
        assert outcome(zeros, params) == want
        [(_, answers)] = helper
        assert 3 not in answers and len(answers) < 300 // 8

    def test_the_lowest_failing_rank_raises_as_without_the_helper(self, helper, monkeypatch):
        params = LaguerreParams(300, -0.5)
        doctor_ranks(monkeypatch, params, {5, 200}, everywhere=True)
        want = outcome(without_helper, params)
        assert want == ("RefinementError", "doctored failure at rank 5")
        waits_for_the_helper(monkeypatch)
        assert outcome(zeros, params) == want
        assert len(helper) == 1 and 5 not in helper[0][1]

    def test_no_child_is_left_when_the_caller_raises(self, helper, monkeypatch, tmp_path):
        log = fork_log(monkeypatch, tmp_path)

        def fails(jacobi):
            raise RefinementError("doctored QL failure")

        monkeypatch.setattr(solver, "eigen_zeros", fails)
        with pytest.raises(RefinementError, match="doctored QL failure"):
            zeros(LaguerreParams(300, -0.5))
        assert forks_logged(log) == 1 and helper == [None]


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

    def test_a_live_child(self, helper, monkeypatch, tmp_path):
        log = fork_log(monkeypatch, tmp_path)
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            zeros(LaguerreParams(200, 1.0))
        finally:
            child.kill()
            child.wait(timeout=60)
        assert forks_logged(log) == 0

    def test_sweep_shares_fork_no_helper(self, helper, monkeypatch, tmp_path):
        # Every pair passes the gate; only the shares past the first fork, on any process.
        log = fork_log(monkeypatch, tmp_path)
        config = SweepConfig([40, 48, 56, 64], [0.0, 1.0], output_dir=tmp_path / "sweep")
        run_sweep(config)
        assert forks_logged(log) == min(len(CPUS), 8) - 1

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
    def test_a_child_reaped_elsewhere_gives_no_answer(self):
        child = forks.fork(lambda: 1)
        os.waitpid(child[0], 0)
        assert forks.reap(child, wait=True) is None

    def test_a_child_answers(self):
        assert forks.reap(forks.fork(lambda: {"a": 1}), wait=True) == {"a": 1}


class TestFound:
    """refine certifies found's answers in the caller, and searches any it refuses."""

    N, ALPHA = 300, -0.5
    PARAMS = LaguerreParams(N, ALPHA)

    def solve(self, monkeypatch, doctor):
        """The outcome when found() returns the helper's own (seeds, answers) as doctor
        changes them, and the ranks below n // 8 refine searched itself."""
        jacobi = build_jacobi(self.PARAMS)
        head, answers = solver._hard_edge(self.PARAMS, jacobi, self.N // 8)
        searched, search = [], solver._search
        monkeypatch.setattr(solver, "_search", lambda n, alpha, seeds, ranks:
                            searched.extend(ranks) or search(n, alpha, seeds, ranks))
        found = lambda: doctor(head, answers)  # noqa: E731
        got = outcome(lambda p: refine(p, eigen_zeros(jacobi), found=found), self.PARAMS)
        return got, sorted(set(searched) & set(range(self.N // 8)))

    def test_right_answers_are_taken(self, monkeypatch):
        want = outcome(without_helper, self.PARAMS)
        assert self.solve(monkeypatch, lambda head, answers: (head, answers)) == (want, [])

    @pytest.mark.parametrize("rank", [0, 1, 30])
    def test_a_wrong_zero_is_refused(self, monkeypatch, rank):
        # 2**-30 relative off: inside its bracket, its residual far past the cap.
        want = outcome(without_helper, self.PARAMS)

        def wrong(head, answers):
            z, compensated = answers[rank]
            return head, {**answers, rank: (z * (1.0 + 2.0**-30), compensated)}

        assert self.solve(monkeypatch, wrong) == (want, [rank])

    def test_a_zero_outside_its_bracket_is_refused(self, monkeypatch):
        want = outcome(without_helper, self.PARAMS)

        def swapped(head, answers):  # rank 7's zero given as rank 6's: a true zero, wrong rank
            return head, {**answers, 6: answers[7]}

        assert self.solve(monkeypatch, swapped) == (want, [6])

    def test_answers_from_other_seeds_are_ignored(self, monkeypatch):
        want = outcome(without_helper, self.PARAMS)

        def moved(head, answers):
            return [float(np.nextafter(head[0], 1.0))] + head[1:], answers

        assert self.solve(monkeypatch, moved) == (want, list(range(self.N // 8)))
