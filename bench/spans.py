"""Outside-in tracing of icebudget's public functions.

`Tracer.install()` replaces each binding in BINDINGS with a wrapper, in the
module where its caller looks it up, and `uninstall()` puts the originals
back. A wrapper records one span: name, start, end, parent span, query id
(shared by every span opened inside one `distributed_infer` call) and
whether it raised. Spans are kept in memory; `layer_metrics()` turns them
into per-layer self times, call counts and work counters, and `dump()`
writes them out.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time

LAYERS = ("corpus", "embedder", "retrieval", "oracle", "allocator",
          "federation", "inference", "harness")
POLICIES = ("learned", "uniform", "random", "singleton", "social_learning",
            "infinite", "proxy_only", "zero_shot")

QUERY_SPAN = "federation.query"


def _calls(key):
    return lambda args, kwargs, result: {key: 1}


def _rows(args, kwargs, result):
    return {"retrieval.top_k_calls": 1, "retrieval.rows_scanned": len(args[2])}


def _merge(args, kwargs, result):
    return {"retrieval.merge_rerank_calls": 1,
            "retrieval.merge_candidates": sum(len(c) for c in args[2])}


def _store_build(args, kwargs, result):
    return {"embedder.store_build_calls": 1,
            "embedder.vectors_validated": len(args[2])}  # (cls, dim, vectors)


def _records(args, kwargs, result):
    return {"oracle.records": len(result)}


def _transcript_bytes(args, kwargs, result):
    return {"federation.transcript_bytes": os.path.getsize(args[1])}


def _query(args, kwargs, result):
    transcript = result[1]
    sent = transcript.total_samples_communicated
    # ICEs the server kept out of what the clients sent (proxy_only sends none)
    return {"federation.samples_communicated": sent,
            "federation.final_ices": len(transcript.final_ice_ids) if sent else 0,
            "federation.fallback_zero_shot": int(transcript.fallback_zero_shot)}


def _prompt(args, kwargs, result):
    return {"inference.prompt_calls": 1, "inference.prompt_chars": len(result)}


# (module where the caller looks the name up, attribute, span name,
#  counter function, whether to record a span or only count)
BINDINGS = (
    ("icebudget.harness", "load_dataset", "corpus.load_dataset", None, True),
    ("icebudget.harness", "partition_noniid", "corpus.partition", None, True),
    ("icebudget.harness", "partition_iid", "corpus.partition", None, True),
    ("icebudget.harness", "sample_proxy", "corpus.partition", None, True),
    ("icebudget.harness", "write_shard_manifest", "corpus.manifest_io", None, True),
    ("icebudget.harness", "load_shard_manifest", "corpus.manifest_io", None, True),
    ("icebudget.harness", "synth_clusters", "corpus.synth_clusters", None, True),
    ("icebudget.harness", "encode_dataset", "embedder.encode_dataset", None, True),
    ("icebudget.embedder", "EmbeddingStore.from_dict", "embedder.store_build",
     _store_build, True),
    ("icebudget.harness", "top_k", "retrieval.top_k", _rows, True),
    ("icebudget.federation", "top_k", "retrieval.top_k", _rows, True),
    ("icebudget.oracle", "top_k", "retrieval.top_k", _rows, True),
    ("icebudget.federation", "merge_rerank", "retrieval.merge_rerank", _merge, True),
    ("icebudget.oracle", "merge_rerank", "retrieval.merge_rerank", _merge, True),
    ("icebudget.harness", "construct_budget_dataset", "oracle.construct",
     _records, True),
    ("icebudget.harness", "save_budget_dataset", "oracle.io", None, True),
    ("icebudget.harness", "load_budget_dataset", "oracle.io", None, True),
    ("icebudget.harness", "train", "allocator.train", None, True),
    ("icebudget.allocator", "batch_loss_and_grads", "allocator.sgd_step",
     _calls("allocator.sgd_steps"), False),
    ("icebudget.harness", "save_model", "allocator.model_io", None, True),
    ("icebudget.harness", "load_model", "allocator.model_io", None, True),
    ("icebudget.federation", "predict_budget", "allocator.predict",
     _calls("allocator.predict_calls"), True),
    ("icebudget.federation", "allocate", "federation.allocate", None, True),
    ("icebudget.federation", "client_retrieve", "federation.client_retrieve",
     _calls("federation.client_retrieve_calls"), True),
    ("icebudget.harness", "distributed_infer", QUERY_SPAN, _query, True),
    ("icebudget.federation", "social_learning_infer", "federation.social_learning",
     None, True),
    ("icebudget.harness", "save_transcripts", "federation.transcripts_io",
     _transcript_bytes, True),
    ("icebudget.harness", "load_transcripts", "federation.transcripts_io", None, True),
    ("icebudget.federation", "load_transcripts", "federation.transcripts_io",
     None, True),
    ("icebudget.federation", "build_prompt", "inference.build_prompt", _prompt, True),
    ("icebudget.federation", "answer_mock", "inference.answer",
     _calls("inference.answer_calls"), True),
    ("icebudget.federation", "answer_http", "inference.answer",
     _calls("inference.answer_calls"), True),
    ("icebudget.harness", "run_experiment", "harness.run_experiment", None, True),
    ("icebudget.harness", "efficiency_curve_from_run", "harness.efficiency_curve",
     None, True),
    ("icebudget.harness", "budget_efficiency_curve", "harness.efficiency_curve",
     None, True),
)

# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "corpus.load_dataset": "corpus.load_dataset_s",
    "corpus.partition": "corpus.partition_s",
    "corpus.manifest_io": "corpus.manifest_io_s",
    "corpus.synth_clusters": "corpus.synth_clusters_s",
    "embedder.encode_dataset": "embedder.encode_dataset_s",
    "embedder.store_build": "embedder.store_build_s",
    "retrieval.top_k": "retrieval.top_k_s",
    "retrieval.merge_rerank": "retrieval.merge_rerank_s",
    "oracle.construct": "oracle.construct_s",
    "oracle.io": "oracle.io_s",
    "allocator.train": "allocator.train_s",
    "allocator.model_io": "allocator.model_io_s",
    "allocator.predict": "allocator.predict_s",
    "federation.allocate": "federation.allocate_s",
    "federation.client_retrieve": "federation.client_retrieve_s",
    QUERY_SPAN: "federation.aggregate_s",
    "federation.social_learning": "federation.aggregate_s",
    "federation.transcripts_io": "federation.transcripts_io_s",
    "inference.build_prompt": "inference.build_prompt_s",
    "inference.answer": "inference.answer_s",
    "harness.run_experiment": "harness.run_experiment_s",
    "harness.efficiency_curve": "harness.efficiency_curve_s",
}

COUNTERS = ("embedder.store_build_calls", "embedder.vectors_validated",
            "retrieval.top_k_calls", "retrieval.rows_scanned",
            "retrieval.merge_rerank_calls", "retrieval.merge_candidates",
            "oracle.records", "allocator.sgd_steps", "allocator.predict_calls",
            "federation.client_retrieve_calls", "federation.samples_communicated",
            "federation.fallback_zero_shot", "federation.transcript_bytes",
            "inference.answer_calls")


def per_layer_names():
    """Every per-layer metric a traced run reports, with its unit."""
    units = {name: "s" for name in set(SELF_TIME_METRIC.values())}
    units.update({name: "count" for name in COUNTERS})
    units["federation.transcript_bytes"] = "bytes"
    units["harness.self_s"] = "s"
    for policy in POLICIES:
        units[f"federation.query_s.{policy}"] = "s"
        units[f"federation.aggregate_s.{policy}"] = "s"
    units.update({"federation.query_p50_ms": "ms", "federation.query_p99_ms": "ms",
                  "federation.ice_yield": "ratio",
                  "inference.prompt_chars_mean": "chars",
                  "trace.overhead_s": "s", "trace.spans": "count",
                  # untraced iterations of the same invocation, in seconds
                  "run.wall_s": "s", "run.queries_per_s": "1/s",
                  "run.reference_ms": "ms", "run.setup_s": "s"})
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    return dict(sorted(units.items()))


class Tracer:
    """Span recorder; single-threaded, one instance per traced region."""

    def __init__(self):
        # [name, site, start, end, parent index, query id, raised, policy]
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.unwrapped: list[dict] = []
        self._stack: list[int] = []
        self._next_query = 0
        self._restore: list[tuple] = []

    def open(self, name, site="bench", policy=None):
        """Start a span; returns its index for close()."""
        parent = self._stack[-1] if self._stack else -1
        if name == QUERY_SPAN:
            query = self._next_query
            self._next_query += 1
        else:
            query = self.spans[parent][5] if parent >= 0 else -1
        self.spans.append([name, site, time.perf_counter(), None, parent, query,
                           False, policy])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index, raised=False):
        span = self.spans[index]
        span[3] = time.perf_counter()
        span[6] = raised
        self._stack.pop()

    def _count(self, counts):
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, func, name, site, counter, record):
        tracer = self

        if not record:
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                tracer._count(counter(args, kwargs, result))
                return result
            return counted

        def traced(*args, **kwargs):
            policy = None
            if name == QUERY_SPAN:
                policy = args[0].policy.variant
            index = tracer.open(name, site, policy)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.close(index, raised=True)
                raise
            tracer.close(index)
            if counter is not None:
                tracer._count(counter(args, kwargs, result))
            return result
        return traced

    def install(self):
        for module_name, attr, name, counter, record in BINDINGS:
            site = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                original = vars(target)[leaf] if owner else getattr(module, leaf)
            except (ImportError, AttributeError, KeyError) as exc:
                self.unwrapped.append({"binding": site,
                                       "why": f"{type(exc).__name__}: {exc}"})
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(original.__func__, name, site, counter, record))
            elif callable(original):
                wrapped = self._wrap(original, name, site, counter, record)
            else:
                self.unwrapped.append({"binding": site, "why": "not callable"})
                continue
            setattr(target, leaf, wrapped)
            self._restore.append((target, leaf, original))

    def uninstall(self):
        for target, leaf, original in reversed(self._restore):
            setattr(target, leaf, original)
        self._restore.clear()

    def layer_metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        metrics = {name: 0.0 for name in per_layer_names()}
        child_time = [0.0] * len(self.spans)
        for name, _, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        query_ms = []
        for i, (name, _, start, end, parent, _, raised, policy) in enumerate(self.spans):
            duration = end - start
            self_time = duration - child_time[i]
            layer = name.split(".", 1)[0]
            if layer == "harness":
                metrics["harness.self_s"] += self_time
            if raised:
                metrics[f"{layer}.errors"] += 1
            metric = SELF_TIME_METRIC.get(name)
            if metric is not None:
                metrics[metric] += self_time
            if name == QUERY_SPAN:
                query_ms.append(duration * 1e3)
            if metric == "federation.aggregate_s":
                # the policy of the query span this aggregation belongs to
                root = i if policy is not None else parent
                if root >= 0 and self.spans[root][7] is not None:
                    metrics[f"federation.aggregate_s.{self.spans[root][7]}"] += self_time
            if policy is not None:
                metrics[f"federation.query_s.{policy}"] += duration
        for key in COUNTERS:
            metrics[key] = self.counters.get(key, 0)
        if query_ms:
            query_ms.sort()
            metrics["federation.query_p50_ms"] = _percentile(query_ms, 0.50)
            metrics["federation.query_p99_ms"] = _percentile(query_ms, 0.99)
        sent = self.counters.get("federation.samples_communicated", 0)
        if sent:
            metrics["federation.ice_yield"] = (
                self.counters.get("federation.final_ices", 0) / sent)
        prompts = self.counters.get("inference.prompt_calls", 0)
        if prompts:
            metrics["inference.prompt_chars_mean"] = (
                self.counters["inference.prompt_chars"] / prompts)
        metrics["trace.overhead_s"] = overhead_s
        metrics["trace.spans"] = len(self.spans)
        return metrics

    def dump(self, path):
        fields = ("name", "site", "start", "end", "parent", "query", "raised",
                  "policy")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
