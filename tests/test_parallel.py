import multiprocessing
import os
import pickle
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


def _squares(n, columns=3):
    """A `fill` of n rows: row i of `a` is i*i + column, `b` holds -i."""
    a = np.zeros((n, columns))
    b = np.zeros(n, dtype=np.int64)

    def work(lo, hi):
        for i in range(lo, hi):
            a[i] = i * i + np.arange(columns)
            b[i] = -i
    return work, a, b


class TestFill:
    @pytest.mark.parametrize("processes", [1, 2, 3])
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

    def test_ranges_are_contiguous_and_cover_every_item(self, monkeypatch):
        _fixed_processes(monkeypatch, 3)
        ranges = np.zeros((10, 3), dtype=np.int64)

        def work(lo, hi):
            ranges[lo:hi] = os.getpid(), lo, hi
        parallel.fill(10, work, [ranges], lambda lo, hi: "ranges")
        assert [tuple(r[1:]) for r in ranges.tolist()] == (
            [(0, 3)] * 3 + [(3, 6)] * 3 + [(6, 10)] * 4)
        assert ranges[0, 0] == os.getpid()
        assert len(set(ranges[:, 0].tolist())) == 3

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_error_of_the_lowest_failing_range(self, monkeypatch, processes):
        _fixed_processes(monkeypatch, processes)
        out = np.zeros(9)

        def work(lo, hi):
            for i in range(lo, hi):
                if i in (5, 8):  # ranges 1 of 2, and 1 and 2 of 3
                    raise ParseError(f"bad item {i}", line=i)
                out[i] = i
        with pytest.raises(ParseError) as info:
            parallel.fill(9, work, [out], lambda lo, hi: "items")
        assert str(info.value) == "line 5: bad item 5"
        assert info.value.line == 5
        assert multiprocessing.active_children() == []

    def test_error_that_does_not_pickle_keeps_its_text(self, monkeypatch):
        _fixed_processes(monkeypatch, 2)

        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        def work(lo, hi):
            if lo:
                raise Unpicklable("this", "that")
        with pytest.raises(StageError, match="^Unpicklable: this and that$"):
            parallel.fill(4, work, [np.zeros(4)], lambda lo, hi: "items")

    def test_child_without_a_reply_is_a_stage_error(self, monkeypatch):
        _fixed_processes(monkeypatch, 2)
        parent = os.getpid()

        def work(lo, hi):
            if os.getpid() != parent:
                os._exit(3)
        with pytest.raises(StageError, match=r"^items 2\.\.3 in a child "
                                             r"process: .*exit code 3\)$"):
            parallel.fill(4, work, [np.zeros(4)],
                          lambda lo, hi: f"items {lo}..{hi - 1}")
        assert multiprocessing.active_children() == []

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


class TestAlongside:
    """`fill(..., alongside=f)`: the ranges run in children while this
    process runs `f`, or `f` runs after them with one process."""

    @pytest.mark.parametrize("processes", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_same_bytes_and_one_call_here(self, monkeypatch, n, processes):
        _fixed_processes(monkeypatch, processes)
        work, a, b = _squares(n)
        calls = []
        parallel.fill(n, work, [a, b], lambda lo, hi: "squares",
                      alongside=lambda: calls.append(os.getpid()))
        want_a = (np.arange(n)[:, None] ** 2 + np.arange(3)).astype(float)
        assert a.tobytes() == want_a.tobytes()
        assert b.tobytes() == (-np.arange(n)).tobytes()
        assert calls == [os.getpid()]  # a child's append would not show
        assert multiprocessing.active_children() == []

    def test_one_process_works_then_runs_alongside(self, monkeypatch):
        _fixed_processes(monkeypatch, 1)
        events = []
        parallel.fill(4, lambda lo, hi: events.append(("work", lo, hi)),
                      [], lambda lo, hi: "items",
                      alongside=lambda: events.append(("alongside",)))
        assert events == [("work", 0, 4), ("alongside",)]

    @pytest.mark.parametrize("processes", [2, 3])
    def test_every_range_runs_in_a_child_at_the_lowest_priority(
            self, monkeypatch, processes):
        _fixed_processes(monkeypatch, processes)
        where = np.zeros((6, 2), dtype=np.int64)

        def work(lo, hi):
            where[lo:hi] = os.getpid(), os.nice(0)
        parallel.fill(6, work, [where], lambda lo, hi: "items",
                      alongside=lambda: None)
        pids = set(where[:, 0].tolist())
        assert len(pids) == processes and os.getpid() not in pids
        assert set(where[:, 1].tolist()) == {min(os.nice(0) + 19, 19)}

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_a_failing_range_wins_over_a_failing_alongside(self, monkeypatch,
                                                           processes):
        _fixed_processes(monkeypatch, processes)

        def work(lo, hi):
            if hi == 9:
                raise ParseError("bad item 8", line=8)

        def alongside():
            raise ValidationError("alongside failed")
        with pytest.raises(ParseError, match="^line 8: bad item 8$"):
            parallel.fill(9, work, [], lambda lo, hi: "items",
                          alongside=alongside)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_alongside_error_raised_after_the_ranges(self, monkeypatch,
                                                     processes):
        _fixed_processes(monkeypatch, processes)
        work, a, b = _squares(9)

        def alongside():
            raise ValidationError("alongside failed")
        with pytest.raises(ValidationError, match="^alongside failed$"):
            parallel.fill(9, work, [a, b], lambda lo, hi: "squares",
                          alongside=alongside)
        assert b.tolist() == [-i for i in range(9)]  # every range came back
        assert multiprocessing.active_children() == []

    def test_interrupt_in_alongside_kills_the_children(self, monkeypatch,
                                                       tmp_path):
        _fixed_processes(monkeypatch, 2)

        def work(lo, hi):
            (tmp_path / f"{lo}.pid").write_text(str(os.getpid()))
            time.sleep(60)

        def alongside():
            deadline = time.monotonic() + 20
            while (len(list(tmp_path.glob("*.pid"))) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            raise KeyboardInterrupt
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            parallel.fill(2, work, [], lambda lo, hi: "items",
                          alongside=alongside)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        pids = [int(p.read_text()) for p in tmp_path.glob("*.pid")]
        assert len(pids) == 2
        for pid in pids:  # killed, joined and reaped
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
