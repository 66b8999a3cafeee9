"""End-to-end experiment orchestration.

run_experiment sets up every seed's data, shards and proxy split, then
builds the budget datasets and trains every seed's allocators in one
`train` call, evaluating seed 0's policies but `learned` meanwhile when the
backend is the mock (any other backend is asked nothing before training
ends), then evaluates the rest per seed, `learned` last in each. Shards
and budget datasets are rebuilt by every run (and written as `shards.json`
and `bproxy.jsonl`).
Only the trained allocators are a cache: a saved pair is served only if
it has the blake2b digest its metadata records (of the metadata's other
fields and the blob) and its key, a digest of everything its training
read, equals the key this run would write. Any other pair, damaged ones
too, is retrained and overwritten, and a stderr line says why. It writes a
deterministic JSON report and transcript JSONL.

Each policy pass first has the clients rank the seed's test vectors, one
`retrieval.top_k_many` call per client (`federation.keep_rankings`), then
answers its queries, posting to an HTTP backend through one connection.
The budget tables and the efficiency curve rank their queries the same
way, in this process; allocator training is the one stage that forks.

Setting up a seed's context writes nothing. `run_experiment` and the
`partition`, `build-budget-dataset` and `train-allocator` commands write
its `shards.json` through `save_shards`; `run_experiment` and the last two
commands write its `bproxy.jsonl`. So `report` and `infer` against a
finished run leave the bytes of its files as they are; `infer` writes only
`models/`, and only when it had to train.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .allocator import (AllocatorModel, load_model, save_model, split, train,
                        training_record)
from .config import ExperimentConfig, derive_seed
# `load_shard_manifest`, `load_budget_dataset` and `top_k` are no longer
# called here; they stay imported because `bench/spans.py` traces them in
# this module
from .corpus import (Dataset, Example, load_dataset, load_shard_manifest,
                     partition_iid, partition_noniid, sample_proxy,
                     synth_clusters, write_shard_manifest)
from .embedder import (EmbeddingStore, HashEncoder, encode_dataset,
                       load_embeddings)
from .errors import IceBudgetError, StageError, ValidationError
from .federation import (BudgetPolicy, ClientNode, ServerNode,
                         distributed_infer, keep_rankings, load_transcripts,
                         save_transcripts)
from .inference import make_backend
from .oracle import (construct_budget_dataset, load_budget_dataset,
                     save_budget_dataset)
from .retrieval import top_k, top_k_many

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
        self.trained = False  # whether `allocators` trained `model`
        self._load_data(files)
        self._partition()
        self._split_proxy()

    @classmethod
    def for_seed(cls, cfg: ExperimentConfig, seed_index: int,
                 files=None) -> "_SeedContext":
        """The context of the config's `seed_index`-th seeded run."""
        out_dir = _seed_dir(cfg, seed_index)
        return cls(cfg, derive_seed(cfg.seed, f"run{seed_index}"), out_dir,
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
        if cfg.partition.scheme == "noniid":
            self.shards = partition_noniid(
                self.train_ds, cfg.partition.num_clients,
                cfg.partition.labels_per_client, seed)
        else:
            self.shards = partition_iid(self.train_ds,
                                        cfg.partition.num_clients, seed)
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

    def budget_dataset(self, save: bool):
        """The proxy's oracle budgets, constructed, and written to
        `bproxy.jsonl` if `save`."""
        cfg = self.cfg
        with _stage("budget-dataset", self.seed_index):
            bproxy = construct_budget_dataset(
                self.proxy, self.proxy_store, self.shards, self.shard_stores,
                cfg.k, cfg.delta)
            if save:
                os.makedirs(self.out_dir, exist_ok=True)
                save_budget_dataset(bproxy,
                                    os.path.join(self.out_dir, "bproxy.jsonl"))
            return bproxy

    def _model_paths(self):
        model_dir = os.path.join(self.out_dir, "models")
        return (os.path.join(model_dir, "allocators.json"),
                os.path.join(model_dir, "allocators.bin"))

    def _client_seeds(self, kind: str) -> list[int]:
        """One `kind` ("shuffle" or "init") seed per client."""
        return [derive_seed(self.run_seed, f"{kind}-{c}")
                for c in range(self.cfg.partition.num_clients)]

    def _model_key(self, records) -> str:
        """The key of the allocators this run would train from `records`: a
        digest of their training record, width, input scale and table."""
        cfg = self.cfg
        key = hashlib.blake2b(digest_size=16)
        key.update(json.dumps(
            [training_record(cfg.train, self._client_seeds("shuffle")),
             cfg.train.width, _input_scale(cfg), records.k, records.delta,
             records.embeddings.shape, records.num_clients],
            sort_keys=True).encode())
        for part, dtype in ((records.query_ids, "<i8"),
                            (records.embeddings, "<f8"),
                            (records.raw_counts, "<i8")):
            key.update(np.ascontiguousarray(part, dtype=dtype).tobytes())
        return key.hexdigest()

    def _cached_model(self, key: str) -> AllocatorModel | None:
        """The saved allocators if there are any and they load and carry
        `key`. Any other saved pair is a miss; a stderr line says why."""
        paths = self._model_paths()
        if not any(map(os.path.exists, paths)):
            return None
        try:
            model = load_model(*paths)
            if model.key == key:
                return model
            reason = f"{paths[0]}: saved for another configuration"
        except (OSError, ValidationError) as exc:  # each names its file
            reason = str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"{paths[0]}: {type(exc).__name__}: {exc}"
        print(f"retraining the allocators: {reason}", file=sys.stderr)
        return None

    def make_server(self, policy: BudgetPolicy) -> ServerNode:
        cfg = self.cfg
        server = ServerNode(
            k=cfg.k, alpha=cfg.alpha, policy=policy, delta=cfg.delta,
            backend=make_backend(cfg.backend), labels=self.train_ds.labels,
            ice_order=cfg.ice_order, max_prompt_chars=cfg.max_prompt_chars)
        if policy.variant == "learned":
            server.allocator = allocators([self], save_tables=False)[0]
        if policy.variant == "proxy_only":
            server.proxy = self.proxy
            server.proxy_store = self.proxy_store
        return server


def _seed_dir(cfg: ExperimentConfig, seed_index: int) -> str:
    """The output directory of the config's `seed_index`-th seeded run."""
    if not 0 <= seed_index < cfg.num_seeds:
        raise ValidationError(f"seed index {seed_index} outside "
                              f"[0, {cfg.num_seeds})")
    return os.path.join(cfg.output_dir, f"seed{seed_index}")


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


def save_shards(contexts, stage: str = "setup"):
    """Write each context's `shards.json`, in `stage`."""
    for ctx in contexts:
        with _stage(stage, ctx.seed_index):
            os.makedirs(ctx.out_dir, exist_ok=True)
            write_shard_manifest(ctx.shards,
                                 os.path.join(ctx.out_dir, "shards.json"))


def allocators(contexts, save_tables: bool = True,
               alongside=None) -> list[AllocatorModel]:
    """Each context's stacked allocator model. A context keeps its model once
    it has one. Otherwise its budget dataset is rebuilt (and written if
    `save_tables`) and its saved model loaded if it carries this run's key;
    the seeds without one are trained together in one `train` call of S·C
    rows (and marked `trained`), then saved one artifact pair per seed.
    `alongside`, if given, runs while they train (see `parallel.fill`), or
    once the models are loaded if none needs training."""
    todo = []
    for ctx in contexts:
        if ctx.model is None:
            records = ctx.budget_dataset(save_tables)
            key = ctx._model_key(records)
            with _stage("train-allocator", ctx.seed_index):
                ctx.model = ctx._cached_model(key)
            if ctx.model is None:
                todo.append((ctx, records, key))
    if todo:
        untrained, tables, keys = zip(*todo)
        cfg = untrained[0].cfg
        shuffle, init = ([s for ctx in untrained for s in ctx._client_seeds(kind)]
                         for kind in ("shuffle", "init"))
        with _stage("train-allocator", None):
            stack = train(tables, cfg.train, shuffle, init,
                          input_scale=_input_scale(cfg),
                          seed_indices=[ctx.seed_index for ctx in untrained],
                          alongside=alongside)
        for ctx, key, model in zip(untrained, keys, split(stack, len(todo))):
            model.key = key
            paths = ctx._model_paths()
            with _stage("train-allocator", ctx.seed_index):
                os.makedirs(os.path.dirname(paths[0]), exist_ok=True)
                save_model(model, *paths)
            ctx.model, ctx.trained = model, True
    elif alongside is not None:
        alongside()
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
    """One pass of the server's policy over the test set: the clients rank
    the test vectors first (`keep_rankings`), then each query is answered,
    every request to the backend going through one connection."""
    answers = []
    transcripts = []
    ctx.test_store.check_bound(ctx.test)  # row i is the i-th test example
    _, vectors = ctx.test_store.matrix()
    keep_rankings(server, ctx.clients, vectors)
    with server.backend.connection():
        for ex, e_q in zip(ctx.test.examples, vectors):
            predicted, transcript = distributed_infer(server, ctx.clients, ex,
                                                      e_q)
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
    their CLI exit code) and fields, such as a ParseError's line; any other
    error becomes a StageError chained to the original."""
    where = f"stage '{name}'"
    if seed_index is not None:
        where += f" (seed {seed_index})"
    try:
        yield
    except IceBudgetError as exc:
        prefixed = copy.copy(exc)
        prefixed.args = (f"{where}: {exc}",)
        raise prefixed from exc
    except Exception as exc:
        raise StageError(f"{where}: {type(exc).__name__}: {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute every stage for every seed and write report + artifacts.

    An old `report.json` is removed first, so that the transcripts in the
    directory are those of the config in `report.json`, or of no finished
    run at all."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    report_path = os.path.join(cfg.output_dir, "report.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(report_path)
    policy_results = {name: {"per_seed_accuracy": [],
                             "per_seed_samples_communicated": []}
                      for name in cfg.policies}
    histograms = []
    contexts = seed_contexts(cfg, range(cfg.num_seeds))
    save_shards(contexts)

    def evaluate(i, name):
        with _stage(f"evaluate:{name}", i):
            return (i, name, *_evaluate_policy(contexts[i], name))

    def record(i, name, acc, total, transcripts):
        save_transcripts(transcripts, os.path.join(
            contexts[i].out_dir, f"transcripts_{name}.jsonl"))
        policy_results[name]["per_seed_accuracy"].append(acc)
        policy_results[name]["per_seed_samples_communicated"].append(total)
        if name == "learned":
            histograms.append(
                {"seed_index": i,
                 "per_client": _budget_histogram(
                     transcripts, cfg.partition.num_clients)})

    learned = [name for name in cfg.policies if name == "learned"]
    others = [name for name in cfg.policies if name != "learned"]
    # only the mock answers while training: a training failure must not
    # follow requests sent to a real backend
    overlap = bool(learned) and cfg.backend.type == "mock"
    held, failed = [], []  # seed 0's other results and error, in training

    def evaluate_first():
        try:
            for name in others:
                held.append(evaluate(0, name))
        except Exception as exc:  # raised once training has succeeded
            failed.append(exc)

    if learned:
        allocators(contexts, alongside=evaluate_first if overlap else None)
        for result in held:
            record(*result)
        if failed:
            raise failed[0]
    for i, ctx in enumerate(contexts):
        # `learned` goes last; when overlapped, seed 0's others ran in training
        for name in learned if i == 0 and overlap else others + learned:
            record(*evaluate(i, name))
        for client in ctx.clients:
            client.rankings.clear()  # no later seed asks these clients

    for name, result in policy_results.items():
        mean, std = mean_std(result["per_seed_accuracy"])
        result["mean_accuracy"] = mean
        result["std_accuracy"] = std

    report = {"schema_version": SCHEMA_VERSION, "version": __version__,
              "name": cfg.name, "config": cfg.to_dict(),
              "policies": policy_results, "budget_histograms": histograms,
              "num_test_queries": len(contexts[0].test)}
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return report


def budget_efficiency_curve(transcripts, shards, shard_stores, global_dataset,
                            global_store, query_store, k, multipliers):
    """Mean recall of the global top-k set when every recorded per-client
    budget is scaled by each multiplier (rounded up).

    Each (query, client) pair is ranked once, in one `top_k_many` call per
    client at the client's largest scaled budget; a smaller budget takes a
    prefix, since the top-k' under (distance, id) is the first k' entries
    of the top-K for any k' <= K. The global top-k of every query is one
    `top_k_many` call too.
    """
    transcripts, multipliers = list(transcripts), [float(m) for m in multipliers]
    queries = np.array([query_store.get(t.query_id) for t in transcripts]
                       ).reshape(len(transcripts), query_store.dim)
    global_top = top_k_many(queries, k, global_dataset, global_store)[0]
    # per transcript, per client: each multiplier's scaled budget
    scaled = [[[math.ceil(m * budget) for m in multipliers]
               for budget in t.budgets_sent] for t in transcripts]
    ranked = []  # per client: transcript row -> its ranked ids
    for c, (shard, store) in enumerate(zip(shards, shard_stores)):
        rows = [row for row, budgets in enumerate(scaled)
                if c < len(budgets) and max(budgets[c], default=0) > 0]
        depth = max((max(scaled[row][c]) for row in rows), default=0)
        ranked.append(dict(zip(rows, top_k_many(
            queries.take(rows, axis=0), depth, shard, store)[0])))
    recalls = np.empty((len(transcripts), len(multipliers)))
    for row, budgets in enumerate(scaled):  # one transcript's sets at a time
        unions = [set() for _ in multipliers]
        for client_rows, client_scaled in zip(ranked, budgets):
            if row in client_rows:
                ids = client_rows[row].tolist()
                for union, n in zip(unions, client_scaled):
                    union.update(ids[:max(n, 0)])
        top = set(global_top[row].tolist())
        recalls[row] = [len(union & top) / k for union in unions]
    # each multiplier's recalls as one contiguous row, summed as a list is
    return [{"multiplier": m,
             "mean_recall": float(np.mean(row)) if row.size else 0.0}
            for m, row in zip(multipliers, recalls.T.copy())]


def _learned_transcripts_path(cfg: ExperimentConfig, seed_index: int) -> str:
    """The path of the seeded run's learned-policy transcripts, if the run's
    `report.json` shows a finished run of this config with that policy.
    The configs are compared without their `output_dir`, so a run directory
    that was moved still serves its curve."""
    path = os.path.join(_seed_dir(cfg, seed_index), "transcripts_learned.jsonl")
    if not os.path.exists(path):
        raise ValidationError(f"no learned transcripts at {path}")
    try:
        with open(os.path.join(cfg.output_dir, "report.json"),
                  encoding="utf-8") as fh:
            report = json.load(fh)
    except FileNotFoundError:
        report = {}
    recorded = report.get("config")
    if isinstance(recorded, dict):  # a moved run directory is still its run
        recorded = dict(recorded, output_dir=cfg.output_dir)
    if (recorded != cfg.to_dict()
            or "learned" not in report.get("policies", {})):
        raise StageError(
            f"{path} is not from a finished run of this config with the "
            f"learned policy: the run's report.json is missing, of another "
            f"config, or lists no learned policy")
    return path


def efficiency_curve_from_run(cfg: ExperimentConfig, seed_index: int,
                              multipliers, transcripts_path=None):
    """Rebuild the seeded run's shards and compute the efficiency curve from
    the transcripts at `transcripts_path`, by default its learned-policy
    ones. The file must hold one transcript of each of the seed's test
    queries, with one budget per client (see `load_transcripts`)."""
    if transcripts_path is None:
        transcripts_path = _learned_transcripts_path(cfg, seed_index)
    ctx = _SeedContext.for_seed(cfg, seed_index)
    transcripts = load_transcripts(transcripts_path, ctx.test.ids,
                                   len(ctx.clients))
    return budget_efficiency_curve(
        transcripts, ctx.shards, ctx.shard_stores, ctx.train_ds,
        ctx.train_store, ctx.test_store, cfg.k, multipliers)
