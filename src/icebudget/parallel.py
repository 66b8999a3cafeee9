"""Work run at once in a forked child: the first half of a range of
independent items (`fill`), or one piece of work beside this process's own
(`beside`). `_fork` is the one place that forks. Its child ignores SIGINT,
which this process handles, and Linux SIGKILLs it when this process ends,
so no child outlives the run, whatever ends it."""

from __future__ import annotations

import contextlib
import ctypes
import io
import math
import multiprocessing
import os
import pickle
import signal
import sys

from .errors import StageError

# Two is the only process count whose gain has been measured (2-CPU host),
# and `fill` splits its items in two halves.
MAX_PROCESSES = 2
_CPU_MAX = "/sys/fs/cgroup/cpu.max"  # cgroup v2: "<quota> <period>" or "max …"
_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


def processes() -> int:
    """The CPUs this process may run on, bounded by the cgroup CPU quota
    (rounded up) and by MAX_PROCESSES; 1 anywhere but Linux, where a child
    cannot be made to die with its parent."""
    if sys.platform != "linux":
        return 1
    cpus = min(len(os.sched_getaffinity(0)), MAX_PROCESSES)
    try:
        with open(_CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()[:2]
        return cpus if quota == "max" else min(
            cpus, max(1, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):  # no cgroup v2 file: no quota
        return cpus


def _error_reply(exc: Exception) -> bytes:
    """A child's reply for its error: the error pickled, or a StageError
    with its text if it does not survive that."""
    try:
        reply = pickle.dumps(exc)
        pickle.loads(reply)
    except Exception:
        reply = pickle.dumps(StageError(f"{type(exc).__name__}: {exc}"))
    return reply


def _die_with(parent: int) -> None:
    """Have Linux SIGKILL this process when its parent ends, and end it now
    if its parent is no longer `parent`, which has then ended already."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:
        os._exit(1)


def _child(send, parent, work, niceness):
    """Ignore SIGINT, die with `parent`, lower this process's CPU priority
    by `niceness`, run `work()` with sys.stderr kept, and send what it wrote
    there pickled, then b"" and the result pickled, or the error reply."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with send, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            _die_with(parent)
            os.nice(niceness)
            reply = [b"", pickle.dumps(work())]
        except Exception as exc:
            reply = [_error_reply(exc)]
        for message in [pickle.dumps(err.getvalue()), *reply]:
            send.send_bytes(message)


def _both(alongside, finish):
    """`finish()`'s result, `alongside()` run first; if `alongside()` fails,
    `finish()` still runs, and its error goes first."""
    try:
        alongside()
    except Exception:
        finish()
        raise
    return finish()


def _fork(work, alongside, describe: str, niceness: int = 0):
    """`work()`'s result, with `alongside()` run meanwhile in this process:
    `work()` runs in a child made with the `fork` start method (`_child`)
    and its result comes back pickled. What the child writes to sys.stderr
    is written to this process's once it replies. Its error is raised with
    its type and message, and wins over an error of `alongside()` (`_both`);
    a child that ends without a reply is a StageError naming its work by
    `describe`. The child is joined before this returns or raises, and
    killed first if this process fails, an interrupt included; any child it
    forked dies with it."""
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    with receive:
        with send:
            child = fork.Process(target=_child,
                                 args=(send, os.getpid(), work, niceness))
            child.start()

        def finish():
            try:
                sys.stderr.write(pickle.loads(receive.recv_bytes()))
                reply = receive.recv_bytes()
                result = None if reply else receive.recv_bytes()
            except EOFError:
                child.join()
                raise StageError(
                    f"{describe} in a child process: ended without a reply "
                    f"(exit code {child.exitcode})") from None
            if reply:
                raise pickle.loads(reply)
            return pickle.loads(result)
        try:
            return _both(alongside, finish)
        except BaseException:
            child.kill()
            raise
        finally:
            child.join()


def fill(n: int, work, outputs, describe) -> None:
    """Run `work(lo, hi)`, which fills rows lo..hi-1 of each array in
    `outputs` and reads no other range's, over 0..n-1. With two processes
    (`processes()`) and two items or more, a child (`_fork`) runs the first
    half, 0..n//2-1, and sends back its rows pickled, while this process
    runs the second; otherwise this process runs them all. So the outputs
    are the same bytes for every process count. An error is raised as one
    process would raise it: the first half's before the second's, with its
    type and message; a child that ends without a reply is a StageError
    naming its half by `describe(lo, hi)`."""
    half = n // 2
    if half == 0 or processes() == 1:
        work(0, n)
        return

    def first():
        work(0, half)
        return [out[:half] for out in outputs]
    rows = _fork(first, lambda: work(half, n), describe(0, half))
    for out, part in zip(outputs, rows):
        out[:half] = part


def beside(work, alongside):
    """`work()`'s result, with `alongside()` run meanwhile in this process:
    `work()` runs in a child (`_fork`) at the lowest CPU priority, and so
    does any `fill` child it forks. With one process (`processes()`) both
    run here, `alongside()` first, so that what they leave behind, on
    success or on failure, does not depend on the process count. An error
    of `work()` wins over one of `alongside()`."""
    if processes() == 1:
        return _both(alongside, work)
    return _fork(work, alongside, "forked work", niceness=19)
