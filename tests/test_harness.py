import copy
import errno
import json
import math
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from icebudget import allocator, federation, harness, parallel
from icebudget.config import (POLICY_VARIANTS, BackendSpec, config_from_dict,
                              derive_seed, load_config)
from icebudget.corpus import load_shard_manifest, synth_clusters
from icebudget.embedder import encode_dataset
from icebudget.errors import (BackendError, DecodeError, ParseError,
                              StageError, ValidationError)
from icebudget.federation import load_transcripts
from icebudget.harness import (_SeedContext, allocators,
                               budget_efficiency_curve,
                               efficiency_curve_from_run, evaluate_accuracy,
                               mean_std, run_experiment, save_shards,
                               seed_contexts)
from icebudget.retrieval import top_k, top_k_many

from conftest import save_dataset


class TestEvaluateAccuracy:
    def test_all_correct(self):
        assert evaluate_accuracy([(1, 1), (0, 0)]) == 1.0

    def test_half_correct(self):
        assert evaluate_accuracy([(1, 1), (0, 1)]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_accuracy([])


class TestMeanStd:
    def test_cross_checked_arithmetic(self):
        values = [0.4, 0.5, 0.9]
        mean, std = mean_std(values)
        assert np.isclose(mean, sum(values) / 3)
        # population standard deviation, computed independently
        expected_var = sum((v - mean) ** 2 for v in values) / 3
        assert np.isclose(std, expected_var ** 0.5)

    def test_single_value(self):
        assert mean_std([0.7]) == (0.7, 0.0)


class TestRunExperiment:
    def test_report_structure(self, tiny_config):
        report = run_experiment(tiny_config)
        assert report["schema_version"] == 1
        assert "uniform" in report["policies"]
        result = report["policies"]["uniform"]
        assert len(result["per_seed_accuracy"]) == tiny_config.num_seeds
        assert 0.0 <= result["mean_accuracy"] <= 1.0
        assert os.path.exists(os.path.join(tiny_config.output_dir,
                                           "report.json"))
        # the histograms are report.json's `budget_histograms` alone
        assert not os.path.exists(os.path.join(tiny_config.output_dir,
                                               "budget_hist.csv"))

    def test_transcripts_written_per_policy(self, tiny_config):
        run_experiment(tiny_config)
        path = os.path.join(tiny_config.output_dir, "seed0",
                            "transcripts_uniform.jsonl")
        transcripts = load_transcripts(path)
        assert len(transcripts) == report_query_count(tiny_config)

    def test_zero_shot_no_communication(self, tiny_config):
        tiny_config.policies = ["zero_shot"]
        report = run_experiment(tiny_config)
        totals = report["policies"]["zero_shot"][
            "per_seed_samples_communicated"]
        assert totals == [0.0] * tiny_config.num_seeds

    def test_learned_policy_emits_histograms(self, tiny_config):
        tiny_config.policies = ["learned"]
        report = run_experiment(tiny_config)
        assert len(report["budget_histograms"]) == tiny_config.num_seeds
        queries = report["num_test_queries"]
        for entry in report["budget_histograms"]:
            for hist in entry["per_client"]:
                assert sum(hist.values()) == queries

    def test_rerun_is_byte_identical(self, tiny_config):
        run_experiment(tiny_config)
        report_path = os.path.join(tiny_config.output_dir, "report.json")
        first = Path(report_path).read_bytes()
        shutil.rmtree(tiny_config.output_dir)
        run_experiment(tiny_config)
        assert Path(report_path).read_bytes() == first

    def test_model_cache_reproduces_models(self, tiny_config):
        tiny_config.policies = ["learned"]
        run_experiment(tiny_config)
        model_dir = os.path.join(tiny_config.output_dir, "seed0", "models")
        blob_path = os.path.join(model_dir, "allocators.bin")
        first = Path(blob_path).read_bytes()
        shutil.rmtree(model_dir)  # drop only the model cache
        allocators(seed_contexts(tiny_config, [0]))
        assert Path(blob_path).read_bytes() == first

    def test_models_are_one_artifact_pair(self, tiny_config):
        tiny_config.policies = ["learned"]
        run_experiment(tiny_config)
        model_dir = os.path.join(tiny_config.output_dir, "seed0", "models")
        assert sorted(os.listdir(model_dir)) == ["allocators.bin",
                                                 "allocators.json"]

    def test_warm_rerun_trains_nothing(self, tiny_config, monkeypatch):
        tiny_config.policies = ["learned"]
        tiny_config.num_seeds = 2
        run_experiment(tiny_config)
        report_path = os.path.join(tiny_config.output_dir, "report.json")
        first = Path(report_path).read_bytes()

        def no_training(*args, **kwargs):
            raise AssertionError("a warm rerun must load the cached models")
        monkeypatch.setattr(harness, "train", no_training)
        run_experiment(tiny_config)
        assert Path(report_path).read_bytes() == first
        contexts = seed_contexts(tiny_config, range(2))
        first_call = allocators(contexts)
        # loaded once, then kept on each context
        assert all(a is b for a, b in zip(allocators(contexts), first_call))

    def test_partly_cached_run_writes_the_files_of_a_fresh_run(
            self, tiny_config, monkeypatch):
        tiny_config.policies = ["learned"]
        tiny_config.num_seeds = 3
        run_experiment(tiny_config)
        fresh = _tree_bytes(tiny_config.output_dir)
        for i in (0, 2):
            shutil.rmtree(os.path.join(tiny_config.output_dir, f"seed{i}",
                                       "models"))
        trained = _count_training(monkeypatch)
        run_experiment(tiny_config)
        assert trained == [[0, 2]]  # one loop for both uncached seeds
        assert _tree_bytes(tiny_config.output_dir) == fresh

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_row_range_runs_one_sgd_loop(self, tiny_config, monkeypatch,
                                              tmp_path, cpus):
        tiny_config.policies = ["learned"]
        tiny_config.num_seeds = 3
        log = tmp_path / "training.jsonl"
        train_rows = allocator._train_rows
        step = allocator._loss_and_grads

        def logged(*entry):  # forked children append to the same file
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps([os.getpid(), *entry]) + "\n")

        def logging_rows(stack, x_train, y_train, x_val, y_val, seeds, cfg):
            logged("rows", list(seeds))
            return train_rows(stack, x_train, y_train, x_val, y_val, seeds,
                              cfg)

        def counting_step(m, x, onehot, grads=None):
            logged("step", x.shape[0])
            return step(m, x, onehot, grads)
        monkeypatch.setattr(parallel, "processes", lambda: cpus)
        monkeypatch.setattr(allocator, "_train_rows", logging_rows)
        monkeypatch.setattr(allocator, "_loss_and_grads", counting_step)
        run_experiment(tiny_config)
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        ranges = {pid: seeds for pid, kind, seeds in entries if kind == "rows"}
        rows = tiny_config.num_seeds * tiny_config.partition.num_clients
        assert len(ranges) == min(cpus, rows)
        # the ranges partition the rows, each a contiguous run in row order
        row_seeds = [seed for ctx in seed_contexts(tiny_config, range(3))
                     for seed in ctx._client_seeds("shuffle")]
        ordered = sorted(ranges.values(), key=lambda r: row_seeds.index(r[0]))
        assert [seed for r in ordered for seed in r] == row_seeds
        batches = math.ceil(tiny_config.proxy_size / tiny_config.train.batch_size)
        for pid, seeds in ranges.items():
            steps = [n for p, kind, n in entries
                     if kind == "step" and p == pid]
            assert steps == [len(seeds)] * (tiny_config.train.epochs * batches)

    @pytest.mark.parametrize("section, key, value", [
        (None, "k", 6),
        (None, "delta", 2),
        (None, "proxy_size", 29),
        ("train", "epochs", 6),
        ("train", "learning_rate", 0.02),
        ("train", "validation_fraction", 0.25),
        ("train", "width", 9),
        ("synthetic", "scale", 2.0),
        (None, "seed", 4),
        ("partition", "labels_per_client", 2),
        ("partition", "scheme", "iid"),
        ("partition", "num_clients", 3),
    ])
    def test_rerun_of_another_config_writes_the_files_of_a_fresh_run(
            self, tiny_config, monkeypatch, section, key, value):
        # one process, which keeps six forks per case out of the suite
        monkeypatch.setattr(parallel, "processes", lambda: 1)
        tiny_config.policies = ["learned"]
        tiny_config.num_seeds = 2
        changed = copy.deepcopy(tiny_config)
        setattr(getattr(changed, section) if section else changed, key, value)
        run_experiment(changed)
        fresh = _tree_bytes(changed.output_dir)
        shutil.rmtree(changed.output_dir)
        run_experiment(tiny_config)
        trained = _count_training(monkeypatch)
        run_experiment(changed)  # into the used directory
        assert trained == [[0, 1]]  # every seed retrained, in one loop
        assert _tree_bytes(changed.output_dir) == fresh

    def test_keyless_models_retrained_to_the_same_bytes(self, tiny_config):
        tiny_config.policies = ["learned"]
        run_experiment(tiny_config)
        fresh = _tree_bytes(tiny_config.output_dir)
        path = os.path.join(tiny_config.output_dir, "seed0", "models",
                            "allocators.json")
        meta = json.loads(Path(path).read_text())
        del meta["key"]  # as saved before models recorded their key
        Path(path).write_text(json.dumps(meta, sort_keys=True) + "\n")
        [ctx] = seed_contexts(tiny_config, [0])
        allocators([ctx])
        assert ctx.trained
        assert _tree_bytes(tiny_config.output_dir) == fresh

    def test_edited_shards_and_budget_dataset_rebuilt(self, tiny_config,
                                                      monkeypatch):
        tiny_config.policies = ["learned"]
        run_experiment(tiny_config)
        fresh = _tree_bytes(tiny_config.output_dir)
        seed_dir = Path(tiny_config.output_dir, "seed0")
        manifest = (seed_dir / "shards.json").read_bytes()
        (seed_dir / "shards.json").write_bytes(manifest[:len(manifest) // 2])
        lines = (seed_dir / "bproxy.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["raw_counts"] = record["classes"] = [0, 0]
        lines[1] = json.dumps(record)  # well formed, but not the oracle's
        (seed_dir / "bproxy.jsonl").write_text("\n".join(lines) + "\n")
        trained = _count_training(monkeypatch)
        run_experiment(tiny_config)
        assert trained == []  # the rebuilt table keys the saved models
        assert _tree_bytes(tiny_config.output_dir) == fresh

    def test_communicated_totals_match_transcripts(self, tiny_config):
        report = run_experiment(tiny_config)
        path = os.path.join(tiny_config.output_dir, "seed0",
                            "transcripts_uniform.jsonl")
        transcripts = load_transcripts(path)
        total = sum(t.total_samples_communicated for t in transcripts)
        assert report["policies"]["uniform"][
            "per_seed_samples_communicated"][0] == total

    def test_stage_errors_carry_stage_name(self, tiny_config):
        tiny_config.proxy_size = 10_000  # larger than the eval pool
        with pytest.raises(ValidationError, match="stage 'setup'"):
            run_experiment(tiny_config)

    @pytest.mark.parametrize("error, fields", [
        (ParseError("bad", line=3), {"line": 3}),
        (DecodeError("bad", raw_completion=" maybe"),
         {"raw_completion": " maybe", "transcript": None}),
        (BackendError("bad", transcript={"query_id": 4}),
         {"transcript": {"query_id": 4}}),
    ])
    def test_stage_errors_keep_their_type_and_fields(self, error, fields):
        with pytest.raises(type(error)) as info:
            with harness._stage("report", 0):
                raise error
        assert str(info.value) == f"stage 'report' (seed 0): {error}"
        assert {name: getattr(info.value, name) for name in fields} == fields
        assert info.value.__cause__ is error


class TestKeptRankings:
    def test_run_writes_the_bytes_of_a_run_that_keeps_none(self, tiny_config,
                                                            monkeypatch):
        tiny_config.policies = list(POLICY_VARIANTS)
        tiny_config.num_seeds = 2
        tiny_config.alpha = 1
        # passes of 20 queries, planned 3 at a time
        monkeypatch.setattr(federation, "_PLAN_ROWS", 3)
        run_experiment(tiny_config)
        kept = _tree_bytes(tiny_config.output_dir)
        shutil.rmtree(tiny_config.output_dir)

        # no pass planned: each query is planned alone, and nothing kept
        def no_plans(server, clients, query_ids, queries, tables):
            return [None] * len(query_ids)
        monkeypatch.setattr(harness, "plan_pass", no_plans)
        run_experiment(tiny_config)
        assert _tree_bytes(tiny_config.output_dir) == kept

    @pytest.mark.parametrize("learned", [True, False])
    @pytest.mark.parametrize("processes", [1, 2])
    def test_each_query_ranked_once_per_client(self, tiny_config, monkeypatch,
                                               processes, learned):
        tiny_config.policies = ["learned"] * learned + [
            "uniform", "random", "social_learning", "singleton", "proxy_only"]
        tiny_config.num_seeds = 2
        tiny_config.alpha = 1
        contexts, calls, holding, misses = [], [], [], []
        released, kept = [], []  # seeds past learned; those still with tables

        def recorded_contexts(*args):
            contexts.extend(seed_contexts(*args))
            return contexts

        def count(d, queries):
            """Record one ranking of each (shard, query) pair."""
            calls.extend((id(d), np.asarray(e_q, dtype=np.float64).tobytes())
                         for e_q in queries)
            holding.append(sum(bool(ctx.tables) for ctx in contexts))

        def counting_top_k(e_q, k, d, store):  # a per-query ranking
            misses.append(id(d))
            return top_k(e_q, k, d, store)

        def counting_top_k_many(queries, k, d, store):  # the pass's batch
            count(d, queries)
            return top_k_many(queries, k, d, store)
        evaluate = harness._evaluate_policy

        def logged_evaluate(ctx, name):
            kept.extend(i for i in released if contexts[i].tables)
            result = evaluate(ctx, name)
            if name == "learned":
                released.append(ctx.seed_index)
            return result
        monkeypatch.setattr(harness, "seed_contexts", recorded_contexts)
        monkeypatch.setattr(harness, "_evaluate_policy", logged_evaluate)
        monkeypatch.setattr(federation, "top_k", counting_top_k)
        monkeypatch.setattr(federation, "top_k_many", counting_top_k_many)
        # the query loop never leaves this process, which counts every call
        monkeypatch.setattr(parallel, "processes", lambda: processes)
        run_experiment(tiny_config)
        assert not misses
        # one per (shard or proxy set, query)
        assert len(calls) == len(set(calls))
        assert len(calls) == sum(len(ctx.test) * (len(ctx.clients) + 1)
                                 for ctx in contexts)
        if learned:
            # a seed's tables are released once its learned pass has run
            assert released == [0, 1]
            assert kept == []
        else:
            # a seed's tables are released before the next seed is evaluated
            assert max(holding) == 1
        assert not any(ctx.tables for ctx in contexts)


class TestHttpPass:
    def test_one_connection_per_pass(self, tiny_config, keepalive_stub_server):
        # the stub keeps each connection open until its client closes it
        url, handler = keepalive_stub_server
        handler.responses = [(200, {"choices": [{"text": " class0"}]})] * 100
        tiny_config.policies = ["uniform", "infinite"]
        tiny_config.backend = BackendSpec(type="http", endpoint=url,
                                          timeout=5, max_retries=0)
        run_experiment(tiny_config)
        queries = len(seed_contexts(tiny_config, [0])[0].test)
        assert len(handler.ports) == 2 * queries
        passes = handler.ports[:queries], handler.ports[queries:]
        # one connection per pass, and a new one for the next pass
        assert [len(set(ports)) for ports in passes] == [1, 1]
        assert passes[0][0] != passes[1][0]


class TestPoliciesBesideTraining:
    """Every seed's policies but `learned` run, seed by seed, while the
    allocator stage runs in a forked child (before it, with one process);
    then each seed's `learned` pass runs, in seed order."""

    @pytest.mark.parametrize("policies", [
        ["learned", "uniform", "infinite"],
        ["uniform", "learned", "infinite"],
        ["uniform", "infinite", "learned"],
        ["uniform", "infinite"],
    ])
    def test_files_depend_on_neither_order_nor_processes(
            self, tiny_config, monkeypatch, policies):
        tiny_config.num_seeds = 2
        tiny_config.alpha = 1
        runs = {}
        for order, processes in ((["infinite", "uniform", "learned"], 1),
                                 (policies, 1), (policies, 2)):
            monkeypatch.setattr(parallel, "processes", lambda: processes)
            tiny_config.policies = order
            report = run_experiment(tiny_config)
            runs[tuple(order), processes] = (
                _tree_bytes(tiny_config.output_dir), report["policies"])
            shutil.rmtree(tiny_config.output_dir)
        default, *_ = runs.values()
        one, two = runs[tuple(policies), 1], runs[tuple(policies), 2]
        assert one == two
        files, results = one
        assert results == {name: default[1][name] for name in policies}
        transcripts = {path: data for path, data in files.items()
                       if "transcripts_" in path}
        assert len(transcripts) == 2 * len(policies)
        assert transcripts == {path: default[0][path] for path in transcripts}

    @pytest.mark.parametrize("processes", [1, 2])
    def test_every_seeds_others_run_before_the_models_are_saved(
            self, tiny_config, monkeypatch, processes):
        tiny_config.num_seeds = 2
        tiny_config.policies = ["learned", "uniform", "infinite"]
        events, loaded = [], []
        evaluate, save = harness._evaluate_policy, harness.save_model

        def logged_evaluate(ctx, name):
            events.append((ctx.seed_index, name))
            loaded.append(ctx.model is not None)
            return evaluate(ctx, name)

        def logged_save(*args):
            events.append("saved")
            return save(*args)
        monkeypatch.setattr(parallel, "processes", lambda: processes)
        monkeypatch.setattr(harness, "_evaluate_policy", logged_evaluate)
        monkeypatch.setattr(harness, "save_model", logged_save)
        run_experiment(tiny_config)
        if processes == 1:
            assert events == [(0, "uniform"), (0, "infinite"),
                              (1, "uniform"), (1, "infinite"), "saved", "saved",
                              (0, "learned"), (1, "learned")]
        else:  # the forked stage saves, out of this process's sight
            assert events == [(0, "uniform"), (0, "infinite"),
                              (1, "uniform"), (1, "infinite"),
                              (0, "learned"), (1, "learned")]
        # what this process sees: the models come back only once every
        # seed's other passes have run
        assert loaded == [False] * 4 + [True] * 2
        for i in range(2):
            assert Path(tiny_config.output_dir, f"seed{i}", "models",
                        "allocators.json").is_file()

    def test_saved_models_still_evaluate_every_policy(self, tiny_config,
                                                      monkeypatch):
        tiny_config.policies = ["learned", "uniform"]
        run_experiment(tiny_config)
        fresh = _tree_bytes(tiny_config.output_dir)
        for path in Path(tiny_config.output_dir, "seed0").glob("transcripts_*"):
            path.unlink()
        trained = _count_training(monkeypatch)
        run_experiment(tiny_config)  # loads the saved models
        assert trained == []
        assert _tree_bytes(tiny_config.output_dir) == fresh

    @pytest.mark.parametrize("processes", [1, 2])
    def test_model_path_that_is_a_directory_fails_before_training(
            self, tiny_config, monkeypatch, processes):
        tiny_config.policies = ["learned", "uniform"]
        tiny_config.num_seeds = 2
        run_experiment(tiny_config)
        blob = os.path.join(tiny_config.output_dir, "seed1", "models",
                            "allocators.bin")
        os.remove(blob)
        os.mkdir(blob)  # a path the models' save cannot write
        evaluated = []
        evaluate = harness._evaluate_policy

        def logged_evaluate(ctx, name):
            evaluated.append((ctx.seed_index, name))
            return evaluate(ctx, name)

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the model path was checked")
        monkeypatch.setattr(parallel, "processes", lambda: processes)
        monkeypatch.setattr(harness, "_evaluate_policy", logged_evaluate)
        monkeypatch.setattr(harness, "train", no_training)
        with pytest.raises(StageError) as info:
            run_experiment(tiny_config)
        assert str(info.value) == (
            f"stage 'train-allocator' (seed 1): IsADirectoryError: "
            f"[Errno {errno.EISDIR}] Is a directory: '{blob}'")
        # at either process count, after every model-free pass
        assert evaluated == [(0, "uniform"), (1, "uniform")]
        assert not os.path.exists(os.path.join(tiny_config.output_dir,
                                               "report.json"))


class TestReportFromTranscripts:
    """`report.json` is `summarize` over each pass's `tally`, so a finished
    run's report is rebuilt from its transcript files alone."""

    @pytest.mark.parametrize("shape", ["tiny_config", "text_config_path"])
    def test_rebuilt_from_the_reloaded_transcripts(self, request, shape):
        cfg = request.getfixturevalue(shape)
        if shape == "text_config_path":
            cfg = load_config(cfg)
        cfg.policies, cfg.num_seeds = list(POLICY_VARIANTS), 2
        run_experiment(cfg)
        written = Path(cfg.output_dir, "report.json").read_bytes()
        report = json.loads(written)
        contexts = seed_contexts(cfg, range(cfg.num_seeds))
        tallies = {}
        for ctx in contexts:
            n = len(ctx.test)
            gold = {ex.id: ex.label for ex in ctx.test.examples}
            for name in cfg.policies:
                path = os.path.join(ctx.out_dir, f"transcripts_{name}.jsonl")
                # plain: singleton's file holds each query once per client
                transcripts = load_transcripts(path)
                passes = [transcripts[j:j + n]
                          for j in range(0, len(transcripts), n)]
                assert len(passes) == (len(ctx.clients)
                                       if name == "singleton" else 1)
                tallies[ctx.seed_index, name] = harness.tally(ctx, passes)
                # each seed's accuracy is the mean over its passes, each
                # pass's its own fraction of right answers
                accuracy = [sum(t.answer_label == gold[t.query_id]
                                for t in p) / n for p in passes]
                assert (report["policies"][name]["per_seed_accuracy"]
                        [ctx.seed_index] == sum(accuracy) / len(accuracy))
            # the histograms count the budgets learned sent, by their string
            learned = [json.loads(line) for line in Path(
                ctx.out_dir, "transcripts_learned.jsonl").read_text(
                    encoding="utf-8").splitlines()]
            assert report["budget_histograms"][ctx.seed_index] == {
                "seed_index": ctx.seed_index,
                "per_client": [
                    dict(Counter(str(r["budgets_sent"][c]) for r in learned))
                    for c in range(len(ctx.clients))]}
        rebuilt = harness.summarize(cfg, tallies)
        assert (json.dumps(rebuilt, sort_keys=True, indent=2) + "\n"
                ).encode("utf-8") == written
        assert rebuilt == report  # its histogram keys are strings too

    def test_tally_means_the_passes_and_counts_every_budget(self,
                                                            tiny_config):
        # two passes over the same ten queries, one and two right: the
        # accuracy is the mean of 0.1 and 0.2, which in floats is not the
        # 3/20 of one accuracy over the twenty answers
        [ctx] = seed_contexts(tiny_config, [0])
        queries = ctx.test.examples[:10]

        def one_pass(right, budgets, samples):
            return [federation.Transcript(
                query_id=ex.id, policy="singleton", budgets_sent=budgets,
                samples_returned=[[], []], final_ice_ids=[], prompt_chars=0,
                answer_label=ex.label if j < right else ex.label + 1,
                total_samples_communicated=samples)
                for j, ex in enumerate(queries)]
        counts = harness.tally(ctx, [one_pass(1, [10, 2], 3),
                                     one_pass(2, [2, 10], 4)])
        assert counts == {"accuracy": (0.1 + 0.2) / 2,
                          "samples_communicated": 35.0,
                          "budget_histogram": [{"10": 10, "2": 10}] * 2,
                          "queries": 10}
        assert counts["accuracy"] != 3 / 20


def _count_training(monkeypatch):
    """A list that gets the seed indices of each later `train` call, all of
    them made in this process."""
    trained = []
    monkeypatch.setattr(parallel, "processes", lambda: 1)

    def counting_train(datasets, *args, **kwargs):
        trained.append(kwargs["seed_indices"])
        return allocator.train(datasets, *args, **kwargs)
    monkeypatch.setattr(harness, "train", counting_train)
    return trained


def _tree_bytes(root):
    """{relative path: bytes} of every file under `root`."""
    return {os.path.relpath(os.path.join(d, name), root):
            Path(d, name).read_bytes()
            for d, _, names in os.walk(root) for name in names}


def report_query_count(cfg):
    spec = cfg.synthetic
    return spec.num_classes * spec.per_class_eval - cfg.proxy_size


def _reference_curve(transcripts, shards, shard_stores, global_dataset,
                     global_store, query_store, k, multipliers):
    """The curve as first written: a fresh top_k for every multiplier."""
    rows = []
    per_query_budgets = [(t.query_id, t.budgets_sent) for t in transcripts]
    global_tops = {}
    for query_id, _ in per_query_budgets:
        e_q = query_store.get(query_id)
        global_tops[query_id] = top_k(e_q, k, global_dataset,
                                      global_store).id_set()
    for m in multipliers:
        recalls = []
        for query_id, budgets in per_query_budgets:
            e_q = query_store.get(query_id)
            union = set()
            for shard, store, budget in zip(shards, shard_stores, budgets):
                scaled = math.ceil(m * budget)
                if scaled > 0:
                    union |= top_k(e_q, scaled, shard, store).id_set()
            recalls.append(len(union & global_tops[query_id]) / k)
        rows.append({"multiplier": float(m),
                     "mean_recall": float(np.mean(recalls)) if recalls else 0.0})
    return rows


class TestEfficiencyCurve:
    @pytest.fixture
    def learned_run(self, tiny_config):
        tiny_config.policies = ["learned"]
        tiny_config.train.epochs = 15
        run_experiment(tiny_config)
        return tiny_config

    def test_zero_multiplier_zero_recall(self, learned_run):
        rows = efficiency_curve_from_run(learned_run, 0, [0.0])
        assert rows[0]["mean_recall"] == 0.0

    def test_huge_multiplier_recalls_everything(self, learned_run):
        # budgets can be zero under the learned policy, so force alpha >= 1
        # runs; a huge multiplier on any positive budget covers each shard
        rows = efficiency_curve_from_run(learned_run, 0, [10_000.0])
        transcripts = load_transcripts(os.path.join(
            learned_run.output_dir, "seed0", "transcripts_learned.jsonl"))
        if all(min(t.budgets_sent) > 0 for t in transcripts):
            assert rows[0]["mean_recall"] == 1.0
        else:
            assert rows[0]["mean_recall"] <= 1.0

    def test_monotone_in_multiplier(self, learned_run):
        rows = efficiency_curve_from_run(learned_run, 0,
                                         [0.5, 1.0, 1.25, 2.0])
        recalls = [r["mean_recall"] for r in rows]
        assert recalls == sorted(recalls)

    @pytest.mark.parametrize("scheme", ["noniid", "iid"])
    def test_equals_reference_curve(self, tiny_config, scheme):
        tiny_config.partition.scheme = scheme
        run_experiment(tiny_config)
        ctx = _SeedContext.for_seed(tiny_config, 0)
        transcripts = load_transcripts(os.path.join(
            tiny_config.output_dir, "seed0", "transcripts_uniform.jsonl"))
        # vary the recorded budgets so prefixes of every length get used,
        # with one negative budget and one deeper than its shard
        for i, t in enumerate(transcripts):
            t.budgets_sent = [(i + c) % 5 for c in range(len(t.budgets_sent))]
        transcripts[0].budgets_sent[0] = -3
        transcripts[1].budgets_sent[1] = len(ctx.shards[1]) + 7
        multipliers = [0.0, 0.5, 1.0, 1.25, 2.0, 3.0]
        assert budget_efficiency_curve(
            transcripts, ctx.shards, ctx.shard_stores, ctx.test_store,
            tiny_config.k, multipliers) == _reference_curve(
            transcripts, ctx.shards, ctx.shard_stores, ctx.train_ds,
            ctx.train_store, ctx.test_store, tiny_config.k, multipliers)

    def _curve_args(self, learned_run):
        ctx = _SeedContext.for_seed(learned_run, 0)
        transcripts = load_transcripts(os.path.join(
            learned_run.output_dir, "seed0", "transcripts_learned.jsonl"))
        return [transcripts, ctx.shards, ctx.shard_stores, ctx.test_store,
                learned_run.k, [0.5, 1.0, 1.25, 2.0]]

    def test_unknown_query_fails(self, learned_run):
        args = self._curve_args(learned_run)
        args[0][-2].query_id = 10**9
        with pytest.raises(ValidationError,
                           match=f"^no embedding for id {10**9}$"):
            budget_efficiency_curve(*args)

    def test_budget_count_other_than_the_clients_fails(self, learned_run):
        args = self._curve_args(learned_run)
        args[0][1].budgets_sent.append(1)
        with pytest.raises(ValidationError, match="3 budgets for 2 clients"):
            budget_efficiency_curve(*args)

    def test_missing_transcripts_rejected(self, tiny_config):
        run_experiment(tiny_config)  # uniform only; no learned transcripts
        with pytest.raises(ValidationError):
            efficiency_curve_from_run(tiny_config, 0, [1.0])


class TestSeedContext:
    def test_for_seed_is_the_indexed_run(self, tiny_config):
        ctx = _SeedContext.for_seed(tiny_config, 0)
        assert ctx.run_seed == derive_seed(tiny_config.seed, "run0")
        assert ctx.out_dir == os.path.join(tiny_config.output_dir, "seed0")

    def test_shards_written_to_manifest(self, tiny_config):
        # setting up a context writes nothing; `save_shards` writes the
        # manifest of the shards every set-up of the seed rebuilds
        run_seed = derive_seed(tiny_config.seed, "run0")
        seed_dir = os.path.join(tiny_config.output_dir, "seed0")
        a = _SeedContext(tiny_config, run_seed, seed_dir)
        b = _SeedContext(tiny_config, run_seed, seed_dir)
        assert [s.ids for s in a.shards] == [s.ids for s in b.shards]
        assert not os.path.exists(tiny_config.output_dir)
        save_shards([a])
        manifest = load_shard_manifest(a.train_ds,
                                       os.path.join(seed_dir, "shards.json"))
        assert [s.ids for s in manifest] == [s.ids for s in a.shards]
        assert os.listdir(seed_dir) == ["shards.json"]

    def test_proxy_and_test_partition_eval_pool(self, tiny_config):
        run_seed = derive_seed(tiny_config.seed, "run0")
        ctx = _SeedContext(tiny_config, run_seed,
                           os.path.join(tiny_config.output_dir, "seed0"))
        assert len(ctx.proxy) == tiny_config.proxy_size
        assert set(ctx.proxy.ids).isdisjoint(ctx.test.ids)
        assert len(ctx.proxy) + len(ctx.test) == len(ctx.eval_ds)

    def test_hash_encoder_encodes_like_the_stores(self, tiny_config, tmp_path):
        assert _SeedContext.for_seed(tiny_config, 0).encoder is None
        train, _ = synth_clusters(3, 20, 4, 0.3, seed=1)
        evals, _ = synth_clusters(3, 15, 4, 0.3, seed=2)
        save_dataset(train, tmp_path / "train.jsonl")
        save_dataset(evals, tmp_path / "eval.jsonl")
        cfg = config_from_dict({
            "num_seeds": 1, "proxy_size": 20,
            "dataset": {"train_path": str(tmp_path / "train.jsonl"),
                        "eval_path": str(tmp_path / "eval.jsonl")},
            "embeddings": {"source": "hash", "dim": 16},
            "output_dir": str(tmp_path / "text")})
        ctx = _SeedContext.for_seed(cfg, 0)
        example = ctx.train_ds.examples[7]
        assert np.array_equal(ctx.encoder.encode_many([example.text])[0],
                              ctx.train_store.get(example.id))

    def test_file_data_loaded_and_encoded_once_per_run(self, tmp_path,
                                                       monkeypatch):
        train, _ = synth_clusters(3, 20, 4, 0.3, seed=1)
        evals, _ = synth_clusters(3, 15, 4, 0.3, seed=2)
        save_dataset(train, tmp_path / "train.jsonl")
        save_dataset(evals, tmp_path / "eval.jsonl")
        cfg = config_from_dict({
            "num_seeds": 3, "proxy_size": 20, "k": 4,
            "partition": {"num_clients": 3, "labels_per_client": 1},
            "dataset": {"train_path": str(tmp_path / "train.jsonl"),
                        "eval_path": str(tmp_path / "eval.jsonl")},
            "embeddings": {"source": "hash", "dim": 16},
            "output_dir": str(tmp_path / "text")})
        encoded = []

        def counting_encode(dataset, encoder):
            encoded.append(len(dataset))
            return encode_dataset(dataset, encoder)
        monkeypatch.setattr(harness, "encode_dataset", counting_encode)
        contexts = seed_contexts(cfg, range(3))
        assert encoded == [len(train), len(evals)]
        alone = _SeedContext.for_seed(cfg, 2)
        for name in ("train_ds", "eval_ds", "proxy", "test"):
            assert getattr(contexts[2], name) == getattr(alone, name)
        for name in ("train_store", "test_store"):
            assert (getattr(contexts[2], name).matrix()[1].tobytes()
                    == getattr(alone, name).matrix()[1].tobytes())

    def test_train_eval_ids_disjoint(self, tiny_config):
        run_seed = derive_seed(tiny_config.seed, "run0")
        ctx = _SeedContext(tiny_config, run_seed,
                           os.path.join(tiny_config.output_dir, "seed0"))
        assert set(ctx.train_ds.ids).isdisjoint(ctx.eval_ds.ids)
