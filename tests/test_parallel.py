import multiprocessing
import os
import pickle

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
