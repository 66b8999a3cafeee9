"""Benchmark worker: runs one workload in this process and writes a result.

Started by `bench/run.py` with BLAS threads pinned to 1 and `src/` of the
checkout on the path. It drives icebudget through `icebudget.cli.main`,
the same entry point as the `icebudget` command, on one thread:

1. set-up: import icebudget, generate the workload's inputs, load its config
   (`--setup-only` stops here);
2. timed loop: whole iterations of the workload's commands, each from an
   empty output directory, while the next one still fits in `--seconds`
   (the time left of the invocation) and at least MIN_RUNS of them, with
   one timer at the request boundary (`distributed_infer` as the harness
   looks it up) and a `SpeedProbe` that sets the reference unit of the
   end-to-end times;
3. with `--trace 1`, the last iteration has every binding in
   `spans.BINDINGS` wrapped;
4. after the timed region: the correctness gates and the learned policy's
   quality, recomputed from its transcripts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import yaml

import textgen
from spans import Tracer
from speed import SpeedProbe

CURVE = "0.5,1.0,1.25,2.0"
TEXT_POLICIES = ["learned", "uniform", "random", "social_learning", "singleton",
                 "proxy_only", "zero_shot"]
# every CHECK_EVERY-th learned query is also ranked by plain numpy
CHECK_EVERY = 10
# the digest gate compares at least this many runs, traced or not
MIN_RUNS = 2
# reference_work runs at the start, between commands and at the end of an
# iteration
PROBE_REPEATS = 5
# --seconds kept free for the gates and quality() after the loop
AFTER_LOOP_S = 6.0


@dataclass(frozen=True)
class Workload:
    text: bool            # generated text corpus instead of the synthetic demo
    curve: bool           # each iteration also runs `report --curve`


WORKLOADS = {
    "demo-cold": Workload(text=False, curve=True),
    "text-wide": Workload(text=True, curve=False),
}

# config overrides per size; "full" runs configs/synthetic.yaml unchanged
DEMO_SMALL = {"num_seeds": 1, "proxy_size": 40,
              "synthetic": {"per_class_train": 30, "per_class_eval": 20},
              "train": {"epochs": 2}}
TEXT_SIZES = {
    "full": {"train": 2400, "eval": 850, "num_seeds": 2, "epochs": 60},
    "small": {"train": 200, "eval": 100, "num_seeds": 1, "epochs": 2},
}


def _text_config(size: str) -> dict:
    # The corpus carries the workload seed; the program's master seed stays
    # fixed, so every corpus is split and trained on the same way.
    spec = TEXT_SIZES[size]
    return {"name": "text-wide", "seed": 0, "num_seeds": spec["num_seeds"],
            "preset": "sst5", "proxy_size": 500 if size == "full" else 40,
            "policies": TEXT_POLICIES,
            "dataset": {"train_path": "data/train.jsonl",
                        "eval_path": "data/eval.jsonl"},
            "embeddings": {"source": "hash", "dim": 64},
            "train": {"epochs": spec["epochs"], "width": 32,
                      "learning_rate": 0.05, "batch_size": 8},
            "backend": {"type": "mock"}, "output_dir": "out/text-wide"}


def _merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def prepare_inputs(workload: Workload, root: str, seed: int, size: str):
    """Write the workload's inputs into the current directory; returns
    (config path, sha256 over the generated input files)."""
    digest = hashlib.sha256()
    if workload.text:
        spec = TEXT_SIZES[size]
        for path in textgen.write_corpus(seed, "data", spec["train"], spec["eval"]):
            digest.update(_sha256(path).encode())
        config = _text_config(size)
    elif size == "full":
        return os.path.join(root, "configs", "synthetic.yaml"), digest.hexdigest()
    else:
        with open(os.path.join(root, "configs", "synthetic.yaml"),
                  encoding="utf-8") as fh:
            config = _merge(yaml.safe_load(fh), DEMO_SMALL)
    with open("config.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)
    digest.update(_sha256("config.yaml").encode())
    return os.path.abspath("config.yaml"), digest.hexdigest()


class BoundaryTimer:
    """The untraced run's one timer: wraps `distributed_infer` where the
    harness looks it up, counting calls, failures and time inside."""

    def __init__(self, harness):
        self.harness = harness
        self.original = harness.distributed_infer
        self.reset(None)

    def reset(self, probe: SpeedProbe | None):
        """Zero the counters; `probe`, if given, samples before queries."""
        self.probe = probe
        self.seconds = 0.0
        self.answered = 0
        self.failed = 0

    def install(self):
        original = self.original

        def timed(*args, **kwargs):
            if self.probe is not None:
                self.probe.maybe_sample()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.failed += 1
                raise
            finally:
                self.seconds += time.perf_counter() - start
            self.answered += 1
            return result

        self.harness.distributed_infer = timed

    def uninstall(self):
        self.harness.distributed_infer = self.original


@dataclass(frozen=True)
class Iteration:
    wall_s: float
    boundary_s: float      # time inside the request boundary
    answered: int
    reference_s: float     # median `reference_work` time during the iteration


class Runner:
    def __init__(self, workload: Workload, config_path: str, cfg,
                 fault: str | None):
        import icebudget.cli
        import icebudget.harness
        self.cli = icebudget.cli
        self.workload = workload
        self.cfg = cfg
        self.fault = fault
        self.out_dir = cfg.output_dir
        base = ["--config", config_path, "--seed", str(cfg.seed)]
        self.commands = [base + ["run"]]
        if workload.curve:
            self.commands.append(base + ["report", "--curve", CURVE])
        self.boundary = BoundaryTimer(icebudget.harness)
        self.cli_calls = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.query_calls = 0
        self.query_failures = 0
        self.checks = 0

    def _expected_queries(self, report) -> int:
        per_policy = sum(self.cfg.partition.num_clients if name == "singleton"
                         else 1 for name in self.cfg.policies)
        return report["num_test_queries"] * self.cfg.num_seeds * per_policy

    def iteration(self, tracer: Tracer | None = None):
        """Run the workload's commands once into an empty output dir."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return self._timed(self.commands, tracer)

    def _timed(self, commands, tracer):
        probe = SpeedProbe()
        # inside a traced query the probe's time would count as the
        # query's own, so the traced iteration samples only between commands
        self.boundary.reset(probe if tracer is None else None)
        self.boundary.install()
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for argv in commands:
                probe.sample(PROBE_REPEATS)
                self._cli(argv, tracer)
            probe.sample(PROBE_REPEATS)
            wall = time.perf_counter() - start - probe.spent_s
        finally:
            if tracer is not None:
                tracer.uninstall()
            self.boundary.uninstall()
        self._check_run(self.boundary.answered + self.boundary.failed)
        return Iteration(wall, self.boundary.seconds, self.boundary.answered,
                         probe.reference_s())

    def _cli(self, argv, tracer):
        self.cli_calls += 1
        index = tracer.open("harness.cli") if tracer is not None else None
        code = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:
            self.failures.append(f"{argv[-1]}: {traceback.format_exc()}")
        finally:
            if tracer is not None:
                tracer.close(index, raised=code is None)
        if code not in (0, None):
            self.failures.append(f"{' '.join(argv)} exited with code {code}")

    def _check_run(self, calls: int):
        """Gates on one `run`: its answered-query count and report digest."""
        self.query_calls += calls
        self.query_failures += self.boundary.failed
        self.checks += 2
        path = os.path.join(self.out_dir, "report.json")
        if not os.path.exists(path):
            self.failures.append("run wrote no report.json")
            return
        if self.fault == "digest" and len(self.digests) == 1:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n")
        self.digests.append(_sha256(path))
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        expected = self._expected_queries(report)
        if self.boundary.answered != expected:
            self.failures.append(f"answered {self.boundary.answered} queries, "
                                 f"expected {expected}")
        if len(set(self.digests)) > 1:
            self.failures.append(f"report.json sha256 differs between runs: "
                                 f"{sorted(set(self.digests))}")

    def quality(self) -> dict:
        """Learned-policy quality from report.json and its transcripts; the
        global top-k comes from `retrieval.top_k` over the full training
        store, cross-checked on a subsample against plain numpy."""
        from icebudget.config import derive_seed
        from icebudget.federation import load_transcripts
        from icebudget.harness import _SeedContext
        from icebudget.retrieval import top_k

        cfg = self.cfg
        with open(os.path.join(self.out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        learned = report["policies"]["learned"]
        queries = report["num_test_queries"]
        recalls = []
        for i in range(cfg.num_seeds):
            seed_dir = os.path.join(self.out_dir, f"seed{i}")
            ctx = _SeedContext(cfg, derive_seed(cfg.seed, f"run{i}"), seed_dir)
            ids, matrix = ctx.train_store.matrix()
            transcripts = load_transcripts(
                os.path.join(seed_dir, "transcripts_learned.jsonl"))
            for n, t in enumerate(transcripts):
                e_q = ctx.test_store.get(t.query_id)
                top = top_k(e_q, cfg.k, ctx.train_ds, ctx.train_store)
                if n % CHECK_EVERY == 0:
                    self.checks += 1
                    problem = _brute_force_disagrees(top, e_q, ids, matrix, cfg.k)
                    if problem:
                        self.failures.append(f"seed {i} query {t.query_id}: {problem}")
                recalls.append(len(set(t.aggregated_ids) & top.id_set()) / cfg.k)
        return {"learned_accuracy": learned["mean_accuracy"],
                "learned_recall": float(np.mean(recalls)),
                "learned_samples_per_query":
                    float(np.mean(learned["per_seed_samples_communicated"])) / queries}


def _brute_force_disagrees(ranked, e_q, ids, matrix, k) -> str | None:
    """None when `ranked` is the top-k by (distance, id) of plain numpy."""
    dists = np.sqrt(((matrix - np.asarray(e_q, dtype=np.float64)) ** 2).sum(axis=1))
    order = np.lexsort((ids, dists))[:k]
    expected = [int(ids[i]) for i in order]
    if ranked.ids == expected:
        return None
    # equal up to rounding in the last bits: tied distances may reorder
    by_id = dict(zip(ids.tolist(), dists.tolist()))
    got = sorted(by_id[i] for i in ranked.ids)
    want = sorted(dists[order].tolist())
    if len(got) == len(want) and np.allclose(got, want, rtol=1e-9, atol=0.0):
        return None
    return f"top_k returned {ranked.ids}, brute force {expected}"


def provenance(root: str, seed: int) -> dict:
    import icebudget
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    source = hashlib.sha256()
    src = os.path.join(root, "src", "icebudget")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            source.update(name.encode() + b"\0" + open(
                os.path.join(src, name), "rb").read())
    head = os.path.join(root, ".git", "HEAD")
    commit = None
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "icebudget": icebudget.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")},
            "threads": {key: os.environ.get(key) for key in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
            "git_commit": commit, "source_sha256": source.hexdigest(),
            "workload_seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark worker")
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--fault", choices=("digest",))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    import icebudget
    from icebudget.config import load_config
    if not os.path.abspath(icebudget.__file__).startswith(os.path.join(root, "src")):
        raise SystemExit(f"icebudget imported from {icebudget.__file__}, "
                         f"not from {root}/src")
    workload = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    config_path, inputs_digest = prepare_inputs(workload, root, args.seed, args.size)
    cfg = load_config(config_path)
    if not workload.text:
        cfg.seed = args.seed  # the synthetic data comes from the master seed
    result = {"inputs_sha256": inputs_digest}
    if args.setup_only:
        return _write(args.result, result)

    runner = Runner(workload, config_path, cfg, args.fault)

    # a traced run ends with one traced iteration, which the loop leaves
    # room for
    untraced_min = MIN_RUNS - args.trace
    iterations = []
    while True:
        iterations.append(runner.iteration())
        elapsed = time.perf_counter() - started
        typical = statistics.median(it.wall_s for it in iterations)
        if len(iterations) >= untraced_min and elapsed + typical * (
                1 + args.trace) + AFTER_LOOP_S > args.seconds:
            break

    loop_end = time.perf_counter()
    walls = [it.wall_s for it in iterations]
    answered = sum(it.answered for it in iterations)
    boundary_s = sum(it.boundary_s for it in iterations)
    reference_s = statistics.median(it.reference_s for it in iterations)
    # end-to-end times in units of the reference work, which cancels the
    # machine's drifting speed; the raw seconds are per-layer metrics
    metrics = {
        "wall_ref": statistics.median(it.wall_s / it.reference_s
                                      for it in iterations),
        "queries_per_ref": answered / sum(it.boundary_s / it.reference_s
                                          for it in iterations)}
    raw = {"run.wall_s": statistics.median(walls),
           "run.queries_per_s": answered / boundary_s if boundary_s else 0.0,
           "run.reference_ms": reference_s * 1e3}
    per_layer = None
    unwrapped = []
    traced_wall = None
    if args.trace:
        tracer = Tracer()
        traced_wall = runner.iteration(tracer=tracer).wall_s
        per_layer = tracer.layer_metrics(traced_wall - raw["run.wall_s"])
        per_layer.update(raw)
        unwrapped = tracer.unwrapped
        tracer.dump(os.path.splitext(args.result)[0] + ".spans.jsonl")

    try:
        quality = runner.quality()
    except Exception:
        runner.failures.append(f"quality: {traceback.format_exc()}")
        quality = {"learned_accuracy": 0.0, "learned_recall": 0.0,
                   "learned_samples_per_query": 0.0}
    metrics.update(quality)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update({
        "metrics": metrics, "per_layer": per_layer, "unwrapped": unwrapped,
        "raw": raw, "iteration_walls_s": walls,
        "iteration_reference_ms": [it.reference_s * 1e3 for it in iterations],
        "traced_wall_s": traced_wall,
        "after_loop_s": time.perf_counter() - loop_end,
        "report_sha256": runner.digests,
        "attempted": runner.query_calls + runner.cli_calls + runner.checks,
        "failed": runner.query_failures + len(runner.failures),
        "failures": runner.failures,
        "provenance": provenance(root, args.seed)})
    return _write(args.result, result)


def _write(path, result) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
