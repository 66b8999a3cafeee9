"""Self-tests of the benchmark; run from the checkout root with

    python3 -m pytest -q bench/test_bench.py

Each workload runs in its small size, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import textgen  # noqa: E402
from spans import Tracer, per_layer_names  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _small(workload, trace, *extra):
    return _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "small", *extra)


def test_generator_is_byte_identical_per_seed(tmp_path):
    first = textgen.write_corpus(3, str(tmp_path / "a"), 50, 20)
    second = textgen.write_corpus(3, str(tmp_path / "b"), 50, 20)
    other = textgen.write_corpus(4, str(tmp_path / "c"), 50, 20)
    for a, b, c in zip(first, second, other):
        with open(a, "rb") as fa, open(b, "rb") as fb, open(c, "rb") as fc:
            data = fa.read()
            assert data == fb.read()
            assert data != fc.read()


def test_generator_output_parses_as_a_dataset(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from icebudget.corpus import load_dataset
    train, _ = textgen.write_corpus(1, str(tmp_path), 40, 10)
    dataset = load_dataset(train)
    assert len(dataset) == 40
    assert dataset.labels.verbalizers == textgen.LABELS


def test_per_layer_names_match_benchmark_json():
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert spec == per_layer_names()


def test_tracer_restores_every_binding():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import icebudget.harness
    from icebudget.embedder import EmbeddingStore
    before = (icebudget.harness.top_k, vars(EmbeddingStore)["from_dict"])
    tracer = Tracer()
    tracer.install()
    assert tracer.unwrapped == []
    assert icebudget.harness.top_k is not before[0]
    tracer.uninstall()
    assert (icebudget.harness.top_k, vars(EmbeddingStore)["from_dict"]) == before


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.open("harness.run_experiment")
    inner = tracer.open("retrieval.top_k")
    tracer.close(inner)
    tracer.close(outer)
    tracer.spans[0][2:4] = [0.0, 1.0]
    tracer.spans[1][2:4] = [0.25, 0.5]
    metrics = tracer.layer_metrics(overhead_s=0.0)
    assert metrics["harness.run_experiment_s"] == pytest.approx(0.75)
    assert metrics["retrieval.top_k_s"] == pytest.approx(0.25)
    assert tracer.spans[1][4] == 0  # parent index


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _small(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_forced_digest_mismatch_trips_the_gate():
    proc = _small("text-wide", 0, "--fault", "digest")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "sha256 differs" in proc.stderr


def test_fails_without_printing_in_a_bare_directory(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
