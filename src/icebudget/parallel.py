"""Work run at once in forked processes: independent items in contiguous
ranges (`fill`), or one piece of work beside this process's own
(`beside`)."""

from __future__ import annotations

import contextlib
import io
import math
import multiprocessing
import os
import pickle
import signal
import sys

from .errors import StageError

# Two is the only process count whose gain has been measured (2-CPU host).
MAX_PROCESSES = 2
_CPU_MAX = "/sys/fs/cgroup/cpu.max"  # cgroup v2: "<quota> <period>" or "max …"


def processes() -> int:
    """The CPUs this process may run on, bounded by the cgroup CPU quota
    (rounded up) and by MAX_PROCESSES; 1 where it cannot fork."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return 1
    cpus = min(len(os.sched_getaffinity(0)), MAX_PROCESSES)
    try:
        with open(_CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()[:2]
        return cpus if quota == "max" else min(
            cpus, max(1, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):  # no cgroup v2 file: no quota
        return cpus


def _raw(rows) -> memoryview:
    """The rows of a C-contiguous array as writable bytes."""
    return memoryview(rows).cast("B") if rows.size else memoryview(bytearray())


def _error_reply(exc: Exception) -> bytes:
    """A child's reply for its error: the error pickled, or a StageError
    with its text if it does not survive that."""
    try:
        reply = pickle.dumps(exc)
        pickle.loads(reply)
    except Exception:
        reply = pickle.dumps(StageError(f"{type(exc).__name__}: {exc}"))
    return reply


def _range_child(send, work, lo, hi, outputs):
    """Run one range and send b"" and its rows of each output, or the error
    reply."""
    with send:
        try:
            work(lo, hi)
        except Exception as exc:
            send.send_bytes(_error_reply(exc))
            return
        send.send_bytes(b"")
        for out in outputs:
            send.send_bytes(_raw(out[lo:hi]))


def _stage_child(send, work):
    """Lead a new process group at the lowest CPU priority, run `work()`
    with sys.stderr kept, and send what it wrote there pickled, then b""
    and the result pickled, or the error reply."""
    os.setpgid(0, 0)
    os.nice(19)
    with send, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            reply = [b"", pickle.dumps(work())]
        except Exception as exc:
            reply = [_error_reply(exc)]
        for message in [pickle.dumps(err.getvalue()), *reply]:
            send.send_bytes(message)


def _kill(child) -> None:
    """SIGKILL the child and the process group it leads, if it leads one."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:  # no group of that id: it leads none
        child.kill()


@contextlib.contextmanager
def _forked():
    """A list of (receive end, child) pairs, for `_start`. Leaving the
    block joins every child and closes its pipe, killing each first (see
    `_kill`) if the block failed, an interrupt included."""
    children = []
    try:
        yield children
    except BaseException:
        for _, child in children:
            _kill(child)
        raise
    finally:
        for receive, child in children:
            child.join()
            receive.close()


def _start(children, target, *args):
    """Fork a child running `target(send, *args)` and add it, with the
    receive end of its pipe, to `children`; returns that pair."""
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=target, args=(send, *args))
    child.start()
    send.close()
    children.append((receive, child))
    return receive, child


@contextlib.contextmanager
def _replied(child, describe: str):
    """Turn the child's pipe ending early into a StageError naming it by
    `describe`, once it has exited."""
    try:
        yield
    except EOFError:
        child.join()
        raise StageError(
            f"{describe} in a child process: ended without a reply (exit "
            f"code {child.exitcode})") from None


def fill(n: int, work, outputs, describe) -> None:
    """Run `work(lo, hi)`, which fills rows lo..hi-1 of each C-contiguous
    array in `outputs` and reads no other range's, over one contiguous range
    of 0..n-1 per process (`processes()`): this process runs the first, and
    a child made with the `fork` start method each other one, sending back
    only its rows as raw bytes. So the outputs are the same bytes for every
    process count. An error is raised as one process would raise it: the
    lowest failing range's, with its type and message; a child that ends
    without a reply is a StageError naming its range by `describe(lo, hi)`.
    Every child is joined before this returns or raises, and killed first
    if this process fails."""
    parts = min(n, processes())
    if parts <= 1:
        work(0, n)
        return
    bounds = [n * i // parts for i in range(parts + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    with _forked() as children:
        for lo, hi in ranges[1:]:
            _start(children, _range_child, work, lo, hi, outputs)
        work(*ranges[0])
        for (lo, hi), (receive, child) in zip(ranges[1:], children):
            with _replied(child, describe(lo, hi)):
                reply = receive.recv_bytes()
                if not reply:
                    for out in outputs:
                        receive.recv_bytes_into(_raw(out[lo:hi]))
            if reply:
                raise pickle.loads(reply)


def beside(work, alongside):
    """`work()`'s result, with `alongside()` run meanwhile in this process:
    `work()` runs in a child made with the `fork` start method, at the
    lowest CPU priority and leading its own process group, and its result
    comes back pickled. With one process (`processes()`) both run here,
    `alongside()` first, so that what they leave behind, on success or on
    failure, does not depend on the process count.

    What the child writes to sys.stderr is written to this process's once
    it replies, before its result is returned or its error raised. Its
    error is raised with its type and message as one process would raise
    it, and wins over an error of `alongside()`; a child that ends without
    a reply is a StageError. The child is joined before this returns or
    raises; if this process fails, an interrupt included, the child is
    killed first together with its process group, and so with any child it
    forked (`fill`'s)."""
    with _forked() as children:
        if processes() == 1:
            finish = work
        else:
            receive, child = _start(children, _stage_child, work)
            # the group exists before this process can kill it; the
            # child joins it itself too, and may have already
            with contextlib.suppress(OSError):
                os.setpgid(child.pid, child.pid)

            def finish():
                with _replied(child, "forked work"):
                    sys.stderr.write(pickle.loads(receive.recv_bytes()))
                    reply = receive.recv_bytes()
                    result = None if reply else receive.recv_bytes()
                if reply:
                    raise pickle.loads(reply)
                return pickle.loads(result)
        try:
            alongside()
        except Exception:
            finish()  # whose error goes first
            raise
        return finish()
