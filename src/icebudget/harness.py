"""End-to-end experiment orchestration.

run_experiment sets up every seed's data, shards and proxy split, then
runs the allocator stage (`allocators`): it builds and writes every seed's
budget table, checks the model cache, trains the seeds without a saved
model in one `train` call and saves them. If the backend is the mock (any
other is asked nothing before that stage ends), the stage runs in a child
(`parallel.beside`) while this process runs every seed's policies but
`learned`; the child sends back the models and its stderr lines, and each
seed's `learned` runs last. A stage error is raised before a model-free
pass's (`beside`), and the child dies with this process. Each pass is
reduced to its `tally` as it finishes, then its transcripts are written
and dropped, so a failed run can leave some, but no `report.json`: that
is `summarize` over the tallies. A tally reads only the transcripts and
the seed's test labels, so a finished run's report is rebuilt from its
transcript files alone.
Every run rebuilds and writes shards and budget tables (`shards.json`,
`bproxy.jsonl`). Only the trained allocators are a cache: a saved pair is
served only if it has the blake2b digest its metadata records (of the
metadata's other fields and the blob) and its key, a digest of everything
its training read, equals the key this run would write. Any other pair,
damaged ones too, is retrained and overwritten, and a stderr line says why.

Each policy pass is planned first (`federation.plan_pass`), from the
seed's `tables`: the first pass to ask a node (a client, or the server's
proxy set) ranks the seed's test vectors on it in one
`retrieval.top_k_many` call, and every later pass of the seed reads that
table. Every query's budgets and final ICEs come from one
`retrieval.rerank_many` call. Then the pass answers each query from its
plan, posting to an HTTP backend through one connection, and
`run_experiment` clears the tables once the seed's last pass has run.
The budget tables and the efficiency curve each take their oracle budgets
from one `oracle.oracle_counts` call, and the curve ranks nothing else.
Only the allocator stage forks, and every query is answered in this
process.

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
import errno
import json
import os
import sys
from collections import Counter

import numpy as np

from . import __version__
from .allocator import (AllocatorModel, load_model, model_key, save_model,
                        split, train)
from .config import ExperimentConfig, derive_seed
# `load_shard_manifest`, `load_budget_dataset` and `top_k` are no longer
# called here; they stay imported because `bench/spans.py` traces them in
# this module
from .corpus import (Dataset, Example, load_dataset, load_shard_manifest,
                     partition_iid, partition_noniid, sample_proxy,
                     synth_clusters, write_shard_manifest)
from .embedder import (EmbeddingStore, HashEncoder, encode_dataset,
                       load_embeddings)
from .errors import IceBudgetError, ParseError, StageError, ValidationError
from .federation import (BudgetPolicy, ClientNode, ServerNode,
                         distributed_infer, load_transcripts, plan_pass,
                         save_transcripts)
from .inference import make_backend
from .oracle import (construct_budget_dataset, load_budget_dataset,
                     oracle_counts, save_budget_dataset)
from .parallel import beside
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
        stores = []
        for path in (cfg.embeddings.train_path, cfg.embeddings.eval_path):
            stores.append(load_embeddings(path))
            if stores[-1].dim != cfg.embeddings.dim:
                raise ValidationError(
                    f"{path}: embedding dimension {stores[-1].dim} differs "
                    f"from embeddings.dim {cfg.embeddings.dim}")
        train_store, (eval_ids, eval_matrix) = stores[0], stores[1].matrix()
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
        # node id -> its table of the test vectors (see `plan_pass`)
        self.tables = {}
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
            # the server's own pool, ranked per pass like a shard
            server.proxy = ClientNode(-1, self.proxy, self.proxy_store)
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


def allocators(contexts, save_tables: bool = True) -> list[AllocatorModel]:
    """Each context's stacked allocator model. A context keeps its model once
    it has one. Otherwise its budget dataset is rebuilt (and written if
    `save_tables`) and its saved model loaded if it carries this run's key;
    the seeds without one are trained together in one `train` call of S·C
    rows (and marked `trained`), then saved one artifact pair per seed."""
    todo = []
    for ctx in contexts:
        if ctx.model is None:
            records = ctx.budget_dataset(save_tables)
            key = model_key(records, ctx.cfg.train,
                            ctx._client_seeds("shuffle"), _input_scale(ctx.cfg))
            with _stage("train-allocator", ctx.seed_index):
                ctx.model = ctx._cached_model(key)
                # a model path its save cannot write fails before training
                for path in filter(os.path.isdir, ctx._model_paths()):
                    raise IsADirectoryError(errno.EISDIR, "Is a directory",
                                            path)
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
                          seed_indices=[ctx.seed_index for ctx in untrained])
        for ctx, key, model in zip(untrained, keys, split(stack, len(todo))):
            model.key = key
            paths = ctx._model_paths()
            with _stage("train-allocator", ctx.seed_index):
                os.makedirs(os.path.dirname(paths[0]), exist_ok=True)
                save_model(model, *paths)
            ctx.model, ctx.trained = model, True
    return [ctx.model for ctx in contexts]


def _policy_for(name: str, run_seed: int, client: int = 0) -> BudgetPolicy:
    if name == "random":
        return BudgetPolicy(name, seed=derive_seed(run_seed, "policy-random"))
    if name == "social_learning":
        return BudgetPolicy(name, seed=derive_seed(run_seed, "policy-social"))
    return BudgetPolicy(name, client=client)


def _evaluate_policy(ctx: _SeedContext, name: str):
    """Run one policy over the whole test set: its passes, one transcript
    list each, one pass per client under `singleton` and one otherwise."""
    clients = range(len(ctx.clients)) if name == "singleton" else [0]
    return [_run_queries(ctx, ctx.make_server(
                _policy_for(name, ctx.run_seed, client=c))) for c in clients]


def _run_queries(ctx: _SeedContext, server: ServerNode):
    """One pass of the server's policy over the test set, as its
    transcripts: the pass is planned first (`plan_pass`, from the seed's
    tables), then each query is answered from its plan, every request to
    the backend going through one connection."""
    ctx.test_store.check_bound(ctx.test)  # row i is the i-th test example
    _, vectors = ctx.test_store.matrix()
    plans = plan_pass(server, ctx.clients, ctx.test.ids, vectors, ctx.tables)
    with server.backend.connection():
        return [distributed_infer(server, ctx.clients, ex, e_q, plan)[1]
                for ex, e_q, plan in zip(ctx.test.examples, vectors, plans)]


def tally(ctx: _SeedContext, passes) -> dict:
    """One policy's report numbers from its `passes` over the seed's test
    set, one transcript list each: the mean over passes of the accuracy
    and of the samples communicated, each client's count of each budget it
    was sent (keyed by the budget's string), and the queries of a pass."""
    gold = {ex.id: ex.label for ex in ctx.test.examples}
    accuracy = [evaluate_accuracy((t.answer_label, gold[t.query_id]) for t in p)
                for p in passes]
    samples = [sum(t.total_samples_communicated for t in p) for p in passes]
    sent = zip(*(t.budgets_sent for p in passes for t in p))
    return {"accuracy": float(np.mean(accuracy)),
            "samples_communicated": float(np.mean(samples)),
            "budget_histogram": [dict(Counter(map(str, c))) for c in sent],
            "queries": len(passes[0])}


def summarize(cfg: ExperimentConfig, tallies) -> dict:
    """The report of a run of `cfg` from the `tally` of each (seed index,
    policy): per policy, each seed's accuracy and samples communicated and
    the accuracy's mean and std over seeds; each seed's `learned` budget
    histograms; and the queries of a pass."""
    policies = {}
    for name in cfg.policies:
        per_seed = [tallies[i, name] for i in range(cfg.num_seeds)]
        mean, std = mean_std(t["accuracy"] for t in per_seed)
        policies[name] = {
            "per_seed_accuracy": [t["accuracy"] for t in per_seed],
            "per_seed_samples_communicated": [t["samples_communicated"]
                                              for t in per_seed],
            "mean_accuracy": mean, "std_accuracy": std}
    histograms = [{"seed_index": i,
                   "per_client": tallies[i, "learned"]["budget_histogram"]}
                  for i in range(cfg.num_seeds) if "learned" in cfg.policies]
    return {"schema_version": SCHEMA_VERSION, "version": __version__,
            "name": cfg.name, "config": cfg.to_dict(), "policies": policies,
            "budget_histograms": histograms,
            "num_test_queries": tallies[0, cfg.policies[0]]["queries"]}


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
    contexts = seed_contexts(cfg, range(cfg.num_seeds))
    save_shards(contexts)

    learned = [name for name in cfg.policies if name == "learned"]
    others = [name for name in cfg.policies if name != "learned"]
    tallies = {}  # (seed index, policy) -> its passes' `tally`

    def run_pass(i, name):
        with _stage(f"evaluate:{name}", i):
            passes = _evaluate_policy(contexts[i], name)
            tallies[i, name] = tally(contexts[i], passes)
        save_transcripts((t for p in passes for t in p), os.path.join(
            contexts[i].out_dir, f"transcripts_{name}.jsonl"))
        if name == (others + learned)[-1]:  # the seed's last pass has run
            contexts[i].tables.clear()

    def model_free():
        for i in range(len(contexts)):
            for name in others:
                run_pass(i, name)

    # only the mock answers beside the allocator stage; a real backend
    # waits for it
    if learned and cfg.backend.type == "mock":
        models = beside(lambda: allocators(contexts), model_free)
        for ctx, model in zip(contexts, models):  # the child's copies
            ctx.model = model
    else:
        if learned:
            allocators(contexts)
        model_free()
    for i in range(len(contexts)):
        for name in learned:
            run_pass(i, name)

    report = summarize(cfg, tallies)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return report


def budget_efficiency_curve(transcripts, shards, shard_stores, query_store,
                            k, multipliers):
    """Mean recall of the global top-k set when every recorded per-client
    budget (one per shard) is scaled by each multiplier and rounded up.

    The shards must partition the corpus, as both partitioners guarantee,
    so the global top-k entries a shard holds are its local top-o, for o
    the client's oracle budget (`oracle_counts`): a budget b recovers
    min(b, o) of them, and a negative one none."""
    transcripts, multipliers = list(transcripts), [float(m) for m in multipliers]
    queries = np.array([query_store.get(t.query_id) for t in transcripts]
                       ).reshape(len(transcripts), query_store.dim)
    for t in transcripts:
        if len(t.budgets_sent) != len(shards):
            raise ValidationError(f"query {t.query_id}: {len(t.budgets_sent)} "
                                  f"budgets for {len(shards)} clients")
    oracle = oracle_counts(queries, k, shards, shard_stores)
    budgets = np.array([t.budgets_sent for t in transcripts],
                       dtype=np.float64).reshape(oracle.shape)
    with np.errstate(over="ignore"):  # a product past the float range is inf
        recalls = [np.clip(np.ceil(m * budgets), 0, oracle).sum(axis=1) / k
                   for m in multipliers]
    return [{"multiplier": m,
             "mean_recall": float(np.mean(r)) if r.size else 0.0}
            for m, r in zip(multipliers, recalls)]


def _learned_transcripts_path(cfg: ExperimentConfig, seed_index: int) -> str:
    """The path of the seeded run's learned-policy transcripts, if the run's
    `report.json` shows a finished run of this config with that policy.
    The configs are compared without their `output_dir`, so a run directory
    that was moved still serves its curve.

    A run with no learned transcripts or no `report.json` is unfinished (a
    ValidationError); a `report.json` that is not a UTF-8 JSON object is a
    ParseError naming it; a report of another config, or of no learned
    policy, is a StageError."""
    path = os.path.join(_seed_dir(cfg, seed_index), "transcripts_learned.jsonl")
    report_path = os.path.join(cfg.output_dir, "report.json")
    if not os.path.exists(path):
        raise ValidationError(f"unfinished run: no learned transcripts at "
                              f"{path}")
    if not os.path.exists(report_path):
        raise ValidationError(f"unfinished run: no {report_path} for {path}")
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except UnicodeDecodeError:
        raise ParseError(f"{report_path}: not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{report_path}: invalid JSON: {exc.msg}",
                         line=exc.lineno) from exc
    if not isinstance(report, dict):
        raise ParseError(f"{report_path}: report must be a JSON object")
    recorded = report.get("config")
    if isinstance(recorded, dict):  # a moved run directory is still its run
        recorded = dict(recorded, output_dir=cfg.output_dir)
    policies = report.get("policies")
    if (recorded != cfg.to_dict() or not isinstance(policies, dict)
            or "learned" not in policies):
        raise StageError(
            f"{path} is not from a finished run of this config with the "
            f"learned policy: the run's report.json is of another config, "
            f"or lists no learned policy")
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
    return budget_efficiency_curve(transcripts, ctx.shards, ctx.shard_stores,
                                   ctx.test_store, cfg.k, multipliers)
