"""End-to-end experiment orchestration.

run_experiment sets up every seed's data, shards and proxy split, then
builds the budget datasets and trains every seed's allocators in one SGD
loop, then evaluates each policy per seed. Every artifact is cached under
the output directory, and a cached one is served only if it matches the
config. It writes a deterministic JSON report plus transcript JSONL and a
budget-histogram CSV.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import reprlib

import numpy as np

from . import __version__
from .allocator import (AllocatorModel, load_model, save_model, split, train,
                        training_record)
from .config import ExperimentConfig, derive_seed
from .corpus import (Dataset, Example, load_dataset, load_shard_manifest,
                     partition_iid, partition_noniid, sample_proxy,
                     synth_clusters, write_shard_manifest)
from .embedder import (EmbeddingStore, HashEncoder, encode_dataset,
                       load_embeddings)
from .errors import IceBudgetError, StageError, ValidationError
from .federation import (BudgetPolicy, ClientNode, ServerNode,
                         distributed_infer, load_transcripts, save_transcripts)
from .inference import make_backend
from .oracle import (construct_budget_dataset, load_budget_dataset,
                     save_budget_dataset)
from .retrieval import top_k

SCHEMA_VERSION = 1


def evaluate_accuracy(answers) -> float:
    """Fraction of (predicted, gold) pairs that agree."""
    answers = list(answers)
    if not answers:
        raise ValidationError("cannot evaluate accuracy on no answers")
    return sum(1 for predicted, gold in answers if predicted == gold) / len(answers)


def mean_std(values) -> tuple[float, float]:
    """Mean and population standard deviation."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("cannot summarize an empty value list")
    return float(arr.mean()), float(arr.std())


def _check_cached(path, cached: dict, expected: dict):
    """Refuse a cached artifact unless each field equals this run's value."""
    for name, want in expected.items():
        if cached.get(name) != want:
            raise ValidationError(
                f"{path}: cached {name} is {reprlib.repr(cached.get(name))}, "
                f"this run's is {reprlib.repr(want)}")


def _load_files(cfg: ExperimentConfig):
    """(train_ds, train_store, eval_ds, eval_store, encoder) of a file-backed
    config. No part depends on the run seed, so every seed shares them."""
    train_ds = load_dataset(cfg.dataset.train_path)
    eval_ds = load_dataset(cfg.dataset.eval_path)
    # file eval sets get ids offset so train/eval ids never collide
    offset = max(train_ds.ids) + 1
    eval_ds = Dataset(tuple(Example(ex.id + offset, ex.text, ex.label)
                            for ex in eval_ds.examples), eval_ds.labels)
    encoder = None  # the query encoder of hash-encoded text
    if cfg.embeddings.source == "hash":
        encoder = HashEncoder(cfg.embeddings.dim,
                              derive_seed(cfg.seed, "hash-encoder"))
        train_store = encode_dataset(train_ds, encoder)
        eval_store = encode_dataset(eval_ds, encoder)
    else:
        train_store = load_embeddings(cfg.embeddings.train_path)
        eval_ids, eval_matrix = load_embeddings(
            cfg.embeddings.eval_path).matrix()
        eval_store = EmbeddingStore(eval_ids + offset, eval_matrix)
    return train_ds, train_store, eval_ds, eval_store, encoder


class _SeedContext:
    """All artifacts of one seeded run: data, shards, stores, proxy/test.

    `files`, if given, is the `_load_files` result of another seed of the
    same config; `seed_index` names the run in errors."""

    def __init__(self, cfg: ExperimentConfig, run_seed: int, out_dir: str,
                 seed_index: int | None = None, files=None):
        self.cfg = cfg
        self.run_seed = run_seed
        self.out_dir = out_dir
        self.seed_index = seed_index
        self.model: AllocatorModel | None = None  # set by `allocators`
        os.makedirs(out_dir, exist_ok=True)
        self._load_data(files)
        self._partition()
        self._split_proxy()

    @classmethod
    def for_seed(cls, cfg: ExperimentConfig, seed_index: int,
                 files=None) -> "_SeedContext":
        """The context of the config's `seed_index`-th seeded run."""
        if not 0 <= seed_index < cfg.num_seeds:
            raise ValidationError(f"seed index {seed_index} outside "
                                  f"[0, {cfg.num_seeds})")
        return cls(cfg, derive_seed(cfg.seed, f"run{seed_index}"),
                   os.path.join(cfg.output_dir, f"seed{seed_index}"),
                   seed_index, files)

    def _load_data(self, files):
        cfg = self.cfg
        self.files = None
        self.encoder = None
        if cfg.synthetic is not None:
            spec = cfg.synthetic
            means_seed = derive_seed(self.run_seed, "synth-means")
            self.train_ds, self.train_store = synth_clusters(
                spec.num_classes, spec.per_class_train, spec.dim, spec.spread,
                derive_seed(self.run_seed, "synth-train"),
                means_seed=means_seed, scale=spec.scale,
                label_noise=spec.label_noise)
            self.eval_ds, self.eval_store = synth_clusters(
                spec.num_classes, spec.per_class_eval, spec.dim, spec.spread,
                derive_seed(self.run_seed, "synth-eval"),
                id_offset=len(self.train_ds), means_seed=means_seed,
                scale=spec.scale)
        else:
            self.files = files or _load_files(cfg)
            (self.train_ds, self.train_store, self.eval_ds, self.eval_store,
             self.encoder) = self.files
        if self.train_store.dim != self.eval_store.dim:
            raise ValidationError("train/eval embedding dimensions differ")
        self.train_store.check_bound(self.train_ds)
        self.eval_store.check_bound(self.eval_ds)

    def _partition(self):
        cfg = self.cfg
        seed = derive_seed(self.run_seed, "partition")
        manifest_path = os.path.join(self.out_dir, "shards.json")
        if os.path.exists(manifest_path):
            self.shards = load_shard_manifest(self.train_ds, manifest_path)
        else:
            if cfg.partition.scheme == "noniid":
                self.shards = partition_noniid(
                    self.train_ds, cfg.partition.num_clients,
                    cfg.partition.labels_per_client, seed)
            else:
                self.shards = partition_iid(self.train_ds,
                                            cfg.partition.num_clients, seed)
            write_shard_manifest(self.shards, manifest_path)
        self.shard_stores = [self.train_store.subset(s.ids) for s in self.shards]
        self.clients = [ClientNode(i, shard, store)
                        for i, (shard, store)
                        in enumerate(zip(self.shards, self.shard_stores))]

    def _split_proxy(self):
        cfg = self.cfg
        if cfg.proxy_size >= len(self.eval_ds):
            raise ValidationError(
                f"proxy_size {cfg.proxy_size} must be below the evaluation "
                f"pool size {len(self.eval_ds)}")
        self.proxy, self.test = sample_proxy(
            self.eval_ds, cfg.proxy_size, derive_seed(self.run_seed, "proxy"))
        self.proxy_store = self.eval_store.subset(self.proxy.ids)
        self.test_store = self.eval_store.subset(self.test.ids)

    def budget_dataset(self):
        """The proxy's oracle budgets: loaded if cached for this config and
        proxy, otherwise constructed and saved."""
        cfg = self.cfg
        path = os.path.join(self.out_dir, "bproxy.jsonl")
        proxy_ids = self.proxy_store.matrix()[0]
        with _stage("budget-dataset", self.seed_index):
            if os.path.exists(path):
                bproxy = load_budget_dataset(path)
                _check_cached(
                    path, {"k": bproxy.k, "delta": bproxy.delta,
                           "C": bproxy.num_clients,
                           "query_ids": bproxy.query_ids.tolist()},
                    {"k": cfg.k, "delta": cfg.delta,
                     "C": cfg.partition.num_clients,
                     "query_ids": proxy_ids.tolist()})
                return bproxy
            bproxy = construct_budget_dataset(
                self.proxy, self.proxy_store, self.shards, self.shard_stores,
                cfg.k, cfg.delta)
            save_budget_dataset(bproxy, path)
            return bproxy

    def _model_paths(self):
        model_dir = os.path.join(self.out_dir, "models")
        return (os.path.join(model_dir, "allocators.json"),
                os.path.join(model_dir, "allocators.bin"))

    def _client_seeds(self, kind: str) -> list[int]:
        """One `kind` ("shuffle" or "init") seed per client."""
        return [derive_seed(self.run_seed, f"{kind}-{c}")
                for c in range(self.cfg.partition.num_clients)]

    def _cached_model(self, records) -> AllocatorModel | None:
        """The cached allocators if there are any, refused unless they are
        what this run would train from `records`."""
        paths = self._model_paths()
        if not all(map(os.path.exists, paths)):
            return None
        cfg = self.cfg
        model = load_model(*paths)
        expected = {"num_clients": records.num_clients,
                    "num_classes": records.num_classes,
                    "dim": records.embeddings.shape[1],
                    "width": cfg.train.width, "input_scale": _input_scale(cfg)}
        cached = {name: getattr(model, name) for name in expected}
        record = training_record(cfg.train, self._client_seeds("shuffle"))
        for key, value in record.items():
            expected[f"train_config.{key}"] = value
            cached[f"train_config.{key}"] = (model.train_config or {}).get(key)
        _check_cached(paths[0], cached, expected)
        return model

    def make_server(self, policy: BudgetPolicy) -> ServerNode:
        cfg = self.cfg
        server = ServerNode(
            k=cfg.k, alpha=cfg.alpha, policy=policy, delta=cfg.delta,
            backend=make_backend(cfg.backend), labels=self.train_ds.labels,
            ice_order=cfg.ice_order, max_prompt_chars=cfg.max_prompt_chars)
        if policy.variant == "learned":
            server.allocator = allocators([self])[0]
        if policy.variant == "proxy_only":
            server.proxy = self.proxy
            server.proxy_store = self.proxy_store
        return server


def _input_scale(cfg: ExperimentConfig) -> float:
    return 1.0 / cfg.synthetic.scale if cfg.synthetic is not None else 1.0


def seed_contexts(cfg: ExperimentConfig, seed_indices,
                  stage: str = "setup") -> list[_SeedContext]:
    """The contexts of the given seeded runs, each set up in `stage`. The
    seeds of a file-backed config share one load and encoding of its files."""
    contexts, files = [], None
    for i in seed_indices:
        with _stage(stage, i):
            contexts.append(_SeedContext.for_seed(cfg, i, files))
        files = contexts[-1].files
    return contexts


def allocators(contexts) -> list[AllocatorModel]:
    """Each context's stacked allocator model. A context keeps its model once
    it has one. Otherwise it is loaded if cached for this config, and the
    seeds without one are trained together in one SGD loop of S·C rows,
    then saved one artifact pair per seed."""
    todo = []
    for ctx in contexts:
        if ctx.model is None:
            records = ctx.budget_dataset()
            with _stage("train-allocator", ctx.seed_index):
                ctx.model = ctx._cached_model(records)
            if ctx.model is None:
                todo.append((ctx, records))
    if todo:
        cfg = todo[0][0].cfg
        shuffle, init = ([s for ctx, _ in todo for s in ctx._client_seeds(kind)]
                         for kind in ("shuffle", "init"))
        with _stage("train-allocator", None):
            stack = train([records for _, records in todo], cfg.train, shuffle,
                          init, input_scale=_input_scale(cfg),
                          seed_indices=[ctx.seed_index for ctx, _ in todo])
        for (ctx, _), model in zip(todo, split(stack, len(todo))):
            paths = ctx._model_paths()
            with _stage("train-allocator", ctx.seed_index):
                os.makedirs(os.path.dirname(paths[0]), exist_ok=True)
                save_model(model, *paths)
            ctx.model = model
    return [ctx.model for ctx in contexts]


def _policy_for(name: str, run_seed: int, client: int = 0) -> BudgetPolicy:
    if name == "random":
        return BudgetPolicy(name, seed=derive_seed(run_seed, "policy-random"))
    if name == "social_learning":
        return BudgetPolicy(name, seed=derive_seed(run_seed, "policy-social"))
    return BudgetPolicy(name, client=client)


def _evaluate_policy(ctx: _SeedContext, name: str):
    """Run one policy over the whole test set; returns (accuracy, total
    communicated samples, transcripts)."""
    if name == "singleton":
        # averaged over every choice of the single client
        accs, totals = [], []
        all_transcripts = []
        for c in range(len(ctx.clients)):
            server = ctx.make_server(_policy_for(name, ctx.run_seed, client=c))
            answers, transcripts = _run_queries(ctx, server)
            accs.append(evaluate_accuracy(answers))
            totals.append(sum(t.total_samples_communicated for t in transcripts))
            all_transcripts.extend(transcripts)
        return float(np.mean(accs)), float(np.mean(totals)), all_transcripts
    server = ctx.make_server(_policy_for(name, ctx.run_seed))
    answers, transcripts = _run_queries(ctx, server)
    total = sum(t.total_samples_communicated for t in transcripts)
    return evaluate_accuracy(answers), float(total), transcripts


def _run_queries(ctx: _SeedContext, server: ServerNode):
    answers = []
    transcripts = []
    for ex in ctx.test.examples:
        e_q = ctx.test_store.get(ex.id)
        predicted, transcript = distributed_infer(server, ctx.clients, ex, e_q)
        answers.append((predicted, ex.label))
        transcripts.append(transcript)
    return answers, transcripts


def _budget_histogram(transcripts, num_clients: int):
    """Per-client counts of sent budget values."""
    hists = [{} for _ in range(num_clients)]
    for t in transcripts:
        for c, budget in enumerate(t.budgets_sent):
            hists[c][str(budget)] = hists[c].get(str(budget), 0) + 1
    return hists


@contextlib.contextmanager
def _stage(name: str, seed_index: int | None):
    """Prefix any error raised in the block with the stage and seed (none for
    a stage over several seeds). Package errors keep their type (and so
    their CLI exit code); any other error becomes a StageError chained to
    the original."""
    where = f"stage '{name}'"
    if seed_index is not None:
        where += f" (seed {seed_index})"
    try:
        yield
    except IceBudgetError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except Exception as exc:
        raise StageError(f"{where}: {type(exc).__name__}: {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute every stage for every seed and write report + artifacts."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    policy_results = {name: {"per_seed_accuracy": [],
                             "per_seed_samples_communicated": []}
                      for name in cfg.policies}
    histograms = []
    contexts = seed_contexts(cfg, range(cfg.num_seeds))
    if "learned" in cfg.policies:
        allocators(contexts)
    for i, ctx in enumerate(contexts):
        for name in cfg.policies:
            transcript_path = os.path.join(ctx.out_dir,
                                           f"transcripts_{name}.jsonl")
            with _stage(f"evaluate:{name}", i):
                acc, total, transcripts = _evaluate_policy(ctx, name)
            save_transcripts(transcripts, transcript_path)
            policy_results[name]["per_seed_accuracy"].append(acc)
            policy_results[name]["per_seed_samples_communicated"].append(total)
            if name == "learned":
                histograms.append(
                    {"seed_index": i,
                     "per_client": _budget_histogram(
                         transcripts, cfg.partition.num_clients)})

    for name, result in policy_results.items():
        mean, std = mean_std(result["per_seed_accuracy"])
        result["mean_accuracy"] = mean
        result["std_accuracy"] = std

    report = {"schema_version": SCHEMA_VERSION, "version": __version__,
              "name": cfg.name, "config": cfg.to_dict(),
              "policies": policy_results, "budget_histograms": histograms,
              "num_test_queries": len(contexts[0].test)}
    report_path = os.path.join(cfg.output_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_histogram_csv(histograms,
                         os.path.join(cfg.output_dir, "budget_hist.csv"))
    return report


def _write_histogram_csv(histograms, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed_index", "client", "budget_value", "count"])
        for entry in histograms:
            for c, hist in enumerate(entry["per_client"]):
                for budget in sorted(hist, key=int):
                    writer.writerow([entry["seed_index"], c, budget,
                                     hist[budget]])


def budget_efficiency_curve(transcripts, shards, shard_stores, global_dataset,
                            global_store, query_store, k, multipliers):
    """Mean recall of the global top-k set when every recorded per-client
    budget is scaled by each multiplier (rounded up).

    Each (query, client) pair is ranked once, at its largest scaled budget;
    a smaller budget takes a prefix, since the top-k' under (distance, id)
    is the first k' entries of the top-K for any k' <= K.
    """
    multipliers = [float(m) for m in multipliers]
    recalls = [[] for _ in multipliers]
    for t in transcripts:
        e_q = query_store.get(t.query_id)
        global_top = top_k(e_q, k, global_dataset, global_store).id_set()
        unions = [set() for _ in multipliers]
        for shard, store, budget in zip(shards, shard_stores, t.budgets_sent):
            scaled = [math.ceil(m * budget) for m in multipliers]
            if max(scaled, default=0) <= 0:
                continue
            ranked = top_k(e_q, max(scaled), shard, store).ids
            for union, n in zip(unions, scaled):
                union.update(ranked[:max(n, 0)])
        for row, union in zip(recalls, unions):
            row.append(len(union & global_top) / k)
    return [{"multiplier": m,
             "mean_recall": float(np.mean(row)) if row else 0.0}
            for m, row in zip(multipliers, recalls)]


def efficiency_curve_from_run(cfg: ExperimentConfig, seed_index: int,
                              multipliers, transcripts=None):
    """Rebuild the seeded run's shards and compute the efficiency curve from
    its learned-policy transcripts."""
    ctx = _SeedContext.for_seed(cfg, seed_index)
    if transcripts is None:
        path = os.path.join(ctx.out_dir, "transcripts_learned.jsonl")
        if not os.path.exists(path):
            raise ValidationError(f"no learned transcripts at {path}")
        transcripts = load_transcripts(path)
    return budget_efficiency_curve(
        transcripts, ctx.shards, ctx.shard_stores, ctx.train_ds,
        ctx.train_store, ctx.test_store, cfg.k, multipliers)
