"""One forked child per call: it runs a function, on a CPU of its own if asked, and
pickles the result into a pipe. The caller ends every child with reap: it reads the
pipe to EOF, or (wait false) kills the child unread, and reaps it.

The sweep's shares (report._solve_shares) and the solve's helper, which finishes the
caller's QL (solver.zeros), both run on these. A child leaves by os._exit on every
path, so it never returns into the caller's stack, and the caller trusts only a child
that exited 0: a dead, failed or killed child costs time, never a result. A child
forks no child of its own.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading

_child = False  # set in each child fork() makes


def usable_cpus() -> list | None:
    """The CPUs this process may run on, sorted, where it may fork; else None. It may
    where os.fork and os.sched_getaffinity exist, it is no child of fork(), it runs one
    thread (a child forked beside a second thread could find a lock that thread held,
    for ever) and SIGCHLD keeps its default action (where it is ignored or handled, a
    child may be reaped by no one or by another waitpid than reap's)."""
    if (_child or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1
            or signal.getsignal(signal.SIGCHLD) is not signal.SIG_DFL):
        return None
    return sorted(os.sched_getaffinity(0))


def _cpu_quota() -> float:
    """The CPUs' worth of time the CPU quotas of this process's cgroups and their
    ancestors allow (Linux: cgroup v2 cpu.max, v1 cpu.cfs_quota_us; docker --cpus
    sets them), inf where none is set or none can be read."""
    try:
        with open("/proc/self/cgroup") as lines:
            entries = [line.rstrip("\n").split(":", 2) for line in lines]
    except OSError:
        return math.inf
    quota = math.inf
    for entry in entries:
        if len(entry) != 3:
            continue
        _, controllers, path = entry
        if not controllers:
            root, v2 = "/sys/fs/cgroup", True
        elif "cpu" in controllers.split(","):
            root, v2 = "/sys/fs/cgroup/cpu", False
        else:
            continue
        parts = [p for p in path.split("/") if p]
        for depth in range(len(parts), -1, -1):  # a container's root may be any of them
            where = os.path.join(root, *parts[:depth])
            try:
                if v2:
                    with open(os.path.join(where, "cpu.max")) as limit:
                        share, period = limit.read().split()
                else:
                    with open(os.path.join(where, "cpu.cfs_quota_us")) as limit:
                        share = limit.read().strip()
                    with open(os.path.join(where, "cpu.cfs_period_us")) as limit:
                        period = limit.read().strip()
                if share != "max" and int(share) > 0:
                    quota = min(quota, int(share) / int(period))
            except (OSError, ValueError):
                continue
    return quota


def idle_cpus(cpus: list) -> float:
    """How many of cpus this process and a child could run on now without waiting:
    len(cpus), at most the cgroups' CPU quota, less the other tasks that are runnable
    right now (Linux: field 4 of /proc/loadavg counts them over the whole system, this
    process among them); 0 where that count cannot be read."""
    try:
        with open("/proc/loadavg") as load:
            runnable = int(load.read().split()[3].split("/")[0])
    except (OSError, ValueError, IndexError):
        return 0
    return min(len(cpus), _cpu_quota()) - (runnable - 1)


def pin(cpus) -> None:
    """Hold this process on cpus; a set the kernel refuses leaves it where it was."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def fork(work, cpu=None):
    """(pid, read end of its pipe) of a child, held on cpu if one is given, that
    pickles work() into the pipe, or None where the fork failed (out of processes,
    say)."""
    global _child
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:  # the child: it never returns into the caller's stack
        status, _child = 1, True
        try:
            os.close(read)
            if cpu is not None:
                pin({cpu})
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(work(), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def reap(child, wait: bool):
    """What the child pickled, or None where it died, failed, was killed unread or was
    reaped by another waitpid first. Where wait is true the pipe is read to EOF; where
    it is false, or the read raises, nothing is read and the child is killed. On every
    path the pipe is closed and the child reaped, so no zombie is left."""
    pid, read = child
    payload = status = None
    try:
        if wait:
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
    finally:
        os.close(read)
        try:
            if payload is None:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
        except (ProcessLookupError, ChildProcessError):  # reaped elsewhere
            pass
    return pickle.loads(payload) if status == 0 and payload is not None else None
