"""Independent items in contiguous ranges, run at once in forked processes."""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle

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


def _child(send, work, lo, hi, outputs):
    """Run one range and send b"" and its rows of each output, or the error
    pickled (as a StageError with its text if it does not survive that)."""
    try:
        work(lo, hi)
    except Exception as exc:
        try:
            reply = pickle.dumps(exc)
            pickle.loads(reply)
        except Exception:
            reply = pickle.dumps(StageError(f"{type(exc).__name__}: {exc}"))
        send.send_bytes(reply)
    else:
        send.send_bytes(b"")
        for out in outputs:
            send.send_bytes(_raw(out[lo:hi]))
    finally:
        send.close()


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
    (_, mine), *forked = zip(bounds, bounds[1:])
    fork = multiprocessing.get_context("fork")
    children = []
    try:
        for lo, hi in forked:
            receive, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_child,
                                 args=(send, work, lo, hi, outputs))
            child.start()
            send.close()
            children.append((lo, hi, receive, child))
        work(0, mine)
        for lo, hi, receive, child in children:
            try:
                reply = receive.recv_bytes()
                if not reply:
                    for out in outputs:
                        receive.recv_bytes_into(_raw(out[lo:hi]))
            except EOFError:
                child.join()
                raise StageError(
                    f"{describe(lo, hi)} in a child process: ended without "
                    f"a reply (exit code {child.exitcode})") from None
            if reply:
                raise pickle.loads(reply)
    except BaseException:
        for *_, child in children:
            child.kill()
        raise
    finally:
        for *_, receive, child in children:
            child.join()
            receive.close()
