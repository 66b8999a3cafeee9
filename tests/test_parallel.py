import contextlib
import ctypes
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from icebudget import parallel
from icebudget.errors import (BackendError, DecodeError, ParseError,
                              StageError, ValidationError)


def _cpus(monkeypatch, cpus, cpu_max=None, tmp_path=None):
    """Fake an affinity mask of `cpus` CPUs and a cgroup `cpu.max` holding
    `cpu_max` (no file when None)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    path = tmp_path / "cpu.max"
    if cpu_max is not None:
        path.write_text(cpu_max + "\n")
    monkeypatch.setattr(parallel, "_CPU_MAX", str(path))


def _fixed_processes(monkeypatch, processes):
    monkeypatch.setattr(parallel, "processes", lambda: processes)


class TestProcesses:
    @pytest.mark.parametrize("cpus, processes", [(1, 1), (2, 2), (12, 2)])
    def test_processes_capped_at_two(self, monkeypatch, tmp_path, cpus,
                                     processes):
        _cpus(monkeypatch, cpus, tmp_path=tmp_path)
        assert parallel.processes() == processes

    @pytest.mark.parametrize("cpu_max, processes", [
        ("max 100000", 2),
        ("150000 100000", 2),  # 1.5 CPUs round up
        ("50000 100000", 1),
        ("100000 100000", 1),
    ])
    def test_cgroup_quota_bounds_processes(self, monkeypatch, tmp_path,
                                           cpu_max, processes):
        _cpus(monkeypatch, 4, cpu_max, tmp_path)
        assert parallel.processes() == processes

    def test_affinity_bounds_a_larger_quota(self, monkeypatch, tmp_path):
        _cpus(monkeypatch, 1, "400000 100000", tmp_path)
        assert parallel.processes() == 1

    def test_one_process_anywhere_but_linux(self, monkeypatch, tmp_path):
        _cpus(monkeypatch, 4, tmp_path=tmp_path)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert parallel.processes() == 1


def _squares(n, columns=3):
    """A `fill` of n rows: row i of `a` is i*i + column, `b` holds -i."""
    a = np.zeros((n, columns))
    b = np.zeros(n, dtype=np.int64)

    def work(lo, hi):
        for i in range(lo, hi):
            a[i] = i * i + np.arange(columns)
            b[i] = -i
    return work, a, b


def _announce(directory, lo):
    """Write this process's pid to `<lo>.pid` in `directory`, whole: a
    reader that sees the file sees the pid."""
    (directory / f"{lo}.tmp").write_text(str(os.getpid()))
    (directory / f"{lo}.tmp").rename(directory / f"{lo}.pid")


class TestFill:
    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("n, columns", [(0, 3), (1, 3), (10, 3), (10, 0)])
    def test_every_process_count_fills_the_same_bytes(self, monkeypatch, n,
                                                      columns, processes):
        _fixed_processes(monkeypatch, processes)
        work, a, b = _squares(n, columns)
        parallel.fill(n, work, [a, b], lambda lo, hi: "squares")
        want_a = (np.arange(n)[:, None] ** 2 + np.arange(columns)).astype(float)
        assert a.tobytes() == want_a.tobytes()
        assert b.tobytes() == (-np.arange(n)).tobytes()
        assert multiprocessing.active_children() == []

    def test_a_child_runs_the_first_half_and_this_process_the_second(
            self, monkeypatch):
        _fixed_processes(monkeypatch, 2)
        ranges = np.zeros((9, 3), dtype=np.int64)

        def work(lo, hi):
            ranges[lo:hi] = os.getpid(), lo, hi
        parallel.fill(9, work, [ranges], lambda lo, hi: "ranges")
        assert [tuple(r[1:]) for r in ranges.tolist()] == (
            [(0, 4)] * 4 + [(4, 9)] * 5)
        assert set(ranges[4:, 0].tolist()) == {os.getpid()}
        assert ranges[0, 0] != os.getpid()
        assert set(ranges[:4, 0].tolist()) == {ranges[0, 0]}

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("bad", [
        (2, 7),  # one item of each half: the child's error wins
        (5, 8),  # this process's half alone
        (1, 3),  # the child's half alone
    ])
    def test_error_of_the_lowest_failing_item(self, monkeypatch, processes,
                                              bad):
        _fixed_processes(monkeypatch, processes)
        out = np.zeros(9)

        def work(lo, hi):
            for i in range(lo, hi):
                if i in bad:
                    raise ParseError(f"bad item {i}", line=i)
                out[i] = i
        with pytest.raises(ParseError) as info:
            parallel.fill(9, work, [out], lambda lo, hi: "items")
        assert str(info.value) == f"line {bad[0]}: bad item {bad[0]}"
        assert info.value.line == bad[0]
        assert multiprocessing.active_children() == []

    def test_error_that_does_not_pickle_keeps_its_text(self, monkeypatch):
        _fixed_processes(monkeypatch, 2)

        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        def work(lo, hi):
            if not lo:  # the child's half
                raise Unpicklable("this", "that")
        with pytest.raises(StageError, match="^Unpicklable: this and that$"):
            parallel.fill(4, work, [np.zeros(4)], lambda lo, hi: "items")

    def test_child_without_a_reply_is_a_stage_error(self, monkeypatch):
        _fixed_processes(monkeypatch, 2)
        parent = os.getpid()

        def work(lo, hi):
            if os.getpid() != parent:
                os._exit(3)
        with pytest.raises(StageError, match=r"^items 0\.\.1 in a child "
                                             r"process: .*exit code 3\)$"):
            parallel.fill(4, work, [np.zeros(4)],
                          lambda lo, hi: f"items {lo}..{hi - 1}")
        assert multiprocessing.active_children() == []

    def test_interrupt_in_this_processs_half_kills_the_child(
            self, monkeypatch, tmp_path):
        _fixed_processes(monkeypatch, 2)

        def work(lo, hi):
            if not lo:  # the child's half
                _announce(tmp_path, lo)
                time.sleep(60)
            deadline = time.monotonic() + 20
            while (not (tmp_path / "0.pid").exists()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            raise KeyboardInterrupt
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            parallel.fill(2, work, [], lambda lo, hi: "items")
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        with pytest.raises(ProcessLookupError):  # killed, joined and reaped
            os.kill(int((tmp_path / "0.pid").read_text()), 0)

    def test_one_process_forks_nothing(self, monkeypatch):
        def no_fork(*args):
            raise AssertionError("forked with one process")
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        _fixed_processes(monkeypatch, 1)
        work, a, b = _squares(5)
        parallel.fill(5, work, [a, b], lambda lo, hi: "squares")
        assert b.tolist() == [0, -1, -2, -3, -4]


class TestErrorsCrossProcesses:
    @pytest.mark.parametrize("error, fields", [
        (ParseError("bad", line=3), {"line": 3}),
        (ParseError("bad"), {"line": None}),
        (ValidationError("bad"), {}),
        (StageError("bad"), {}),
        (BackendError("bad", transcript={"query_id": 4}),
         {"transcript": {"query_id": 4}}),
        (DecodeError("bad", raw_completion=" maybe"),
         {"raw_completion": " maybe", "transcript": None}),
    ])
    def test_pickle_round_trip_keeps_type_message_and_fields(self, error,
                                                             fields):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert {name: getattr(copy, name) for name in fields} == fields


def _death_signal():
    """The signal this process gets when its parent ends (0 for none)."""
    signal_number = ctypes.c_int()
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.POINTER(ctypes.c_int)]
    prctl.restype = ctypes.c_int
    assert prctl(2, ctypes.byref(signal_number)) == 0  # PR_GET_PDEATHSIG
    return signal_number.value


def _gone(pid, seconds=10):
    """Whether the process `pid` has ended within `seconds`: reaped, or a
    zombie that its new parent has yet to reap."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except (ProcessLookupError, FileNotFoundError):
            return True
        time.sleep(0.01)
    return False


class TestBeside:
    """`beside(work, alongside)`: `work()` runs in a child while this
    process runs `alongside()`, or after it with one process."""

    @pytest.mark.parametrize("processes", [1, 2])
    def test_result_comes_back_and_alongside_runs_here(self, monkeypatch,
                                                       processes):
        _fixed_processes(monkeypatch, processes)
        calls = []

        def work():
            work, a, b = _squares(10)
            work(0, 10)
            return os.getpid(), a, b
        pid, a, b = parallel.beside(work,
                                    lambda: calls.append(os.getpid()))
        want_a = (np.arange(10)[:, None] ** 2 + np.arange(3)).astype(float)
        assert a.tobytes() == want_a.tobytes()
        assert b.tolist() == [-i for i in range(10)]
        assert (pid == os.getpid()) == (processes == 1)
        assert calls == [os.getpid()]  # a child's append would not show
        assert multiprocessing.active_children() == []

    def test_one_process_runs_alongside_then_work_and_forks_nothing(
            self, monkeypatch):
        def no_fork(*args):
            raise AssertionError("forked with one process")
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        _fixed_processes(monkeypatch, 1)
        events = []
        assert parallel.beside(lambda: events.append("work") or 7,
                               lambda: events.append("alongside")) == 7
        assert events == ["alongside", "work"]

    def test_work_and_its_fill_child_run_niced_and_die_with_their_parents(
            self, monkeypatch):
        _fixed_processes(monkeypatch, 2)

        def work():
            where = np.zeros((6, 6), dtype=np.int64)

            def rows(lo, hi):
                where[lo:hi] = (os.getpid(), os.getppid(), os.nice(0),
                                os.getpgid(0), _death_signal(),
                                signal.getsignal(signal.SIGINT)
                                is signal.SIG_IGN)
            parallel.fill(6, rows, [where], lambda lo, hi: "items")
            return os.getpid(), where
        pid, where = parallel.beside(work, lambda: None)
        assert pid != os.getpid()
        assert set(where[3:, 0].tolist()) == {pid}  # fill's second half
        grandchild = where[0, 0]
        assert grandchild not in (pid, os.getpid())
        assert where[:, 1].tolist() == [pid] * 3 + [os.getpid()] * 3
        assert set(where[:, 2].tolist()) == {min(os.nice(0) + 19, 19)}
        assert set(where[:, 3].tolist()) == {os.getpgid(0)}  # this group
        assert set(where[:, 4].tolist()) == {signal.SIGKILL}
        assert set(where[:, 5].tolist()) == {1}  # SIGINT ignored
        assert _death_signal() == 0  # set in the children alone
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("processes", [1, 2])
    def test_a_failing_work_wins_over_a_failing_alongside(self, monkeypatch,
                                                          processes):
        _fixed_processes(monkeypatch, processes)

        def work():
            raise ParseError("bad item 8", line=8)

        def alongside():
            raise ValidationError("alongside failed")
        with pytest.raises(ParseError, match="^line 8: bad item 8$") as info:
            parallel.beside(work, alongside)
        assert info.value.line == 8
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("processes", [1, 2])
    def test_alongside_error_raised_after_the_work(self, monkeypatch,
                                                   tmp_path, processes):
        _fixed_processes(monkeypatch, processes)
        done = tmp_path / "done"

        def alongside():
            raise ValidationError("alongside failed")
        with pytest.raises(ValidationError, match="^alongside failed$"):
            parallel.beside(done.touch, alongside)
        assert done.exists()  # the work ran to its end
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("fails", [False, True])
    def test_stderr_of_the_work_reaches_this_process(self, monkeypatch,
                                                     capsys, processes,
                                                     fails):
        _fixed_processes(monkeypatch, processes)

        def work():
            print("from the work", file=sys.stderr)
            if fails:
                raise ValidationError("work failed")
            return 1
        if fails:
            with pytest.raises(ValidationError, match="^work failed$"):
                parallel.beside(work, lambda: None)
        else:
            assert parallel.beside(work, lambda: None) == 1
        assert capsys.readouterr().err == "from the work\n"

    def test_error_that_does_not_pickle_keeps_its_text(self, monkeypatch):
        _fixed_processes(monkeypatch, 2)

        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        def work():
            raise Unpicklable("this", "that")
        with pytest.raises(StageError, match="^Unpicklable: this and that$"):
            parallel.beside(work, lambda: None)

    def test_child_without_a_reply_is_a_stage_error(self, monkeypatch):
        _fixed_processes(monkeypatch, 2)
        with pytest.raises(StageError, match=r"^forked work in a child "
                                             r"process: .*exit code 3\)$"):
            parallel.beside(lambda: os._exit(3), lambda: None)
        assert multiprocessing.active_children() == []

    def test_interrupt_in_alongside_kills_the_work_and_its_children(
            self, monkeypatch, tmp_path):
        _fixed_processes(monkeypatch, 2)

        def rows(lo, hi):
            _announce(tmp_path, lo)
            time.sleep(60)

        def alongside():
            deadline = time.monotonic() + 20
            while (len(list(tmp_path.glob("*.pid"))) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            raise KeyboardInterrupt
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            parallel.beside(
                lambda: parallel.fill(2, rows, [], lambda lo, hi: "items"),
                alongside)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        # fill's child runs the first half, the work's process the second
        grandchild, child = (int((tmp_path / f"{lo}.pid").read_text())
                             for lo in (0, 1))
        with pytest.raises(ProcessLookupError):  # killed, joined and reaped
            os.kill(child, 0)
        assert _gone(grandchild)  # fill's child, killed as its parent died


_KILLED_RUN = textwrap.dedent("""\
    import os, sys, time
    from pathlib import Path
    from icebudget import parallel

    parallel.processes = lambda: 2
    out = Path(sys.argv[1])

    def rows(lo, hi):
        (out / f"{lo}.tmp").write_text(str(os.getpid()))
        (out / f"{lo}.tmp").rename(out / f"{lo}.pid")
        time.sleep(60)

    parallel.beside(lambda: parallel.fill(2, rows, [], lambda lo, hi: "rows"),
                    lambda: time.sleep(60))
""")


class TestKilledParent:
    """A process killed while `beside`'s child and that child's `fill` child
    run leaves neither behind."""

    @pytest.mark.parametrize("signal_number",
                             [signal.SIGKILL, signal.SIGTERM],
                             ids=["SIGKILL", "SIGTERM"])
    def test_no_child_outlives_its_parent(self, tmp_path, signal_number):
        src = os.path.dirname(os.path.dirname(parallel.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.Popen([sys.executable, "-c", _KILLED_RUN,
                                str(tmp_path)], env=env)
        pids = []
        try:
            deadline = time.monotonic() + 20
            while (len(list(tmp_path.glob("*.pid"))) < 2
                   and time.monotonic() < deadline and run.poll() is None):
                time.sleep(0.01)
            pids = [int(p.read_text()) for p in tmp_path.glob("*.pid")]
            assert len(pids) == 2
            run.send_signal(signal_number)
            assert run.wait(timeout=10) == -signal_number
            assert [pid for pid in pids if not _gone(pid, 5)] == []
        finally:
            run.kill()
            run.wait()
            for pid in pids:  # what a failed check left running
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
