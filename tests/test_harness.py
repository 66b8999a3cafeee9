import copy
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from icebudget import harness
from icebudget.config import config_from_dict, derive_seed
from icebudget.corpus import synth_clusters
from icebudget.errors import ValidationError
from icebudget.federation import load_transcripts
from icebudget.harness import (_SeedContext, budget_efficiency_curve,
                               efficiency_curve_from_run, evaluate_accuracy,
                               mean_std, run_experiment)
from icebudget.retrieval import top_k

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
        assert os.path.exists(os.path.join(tiny_config.output_dir,
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
        run_seed = derive_seed(tiny_config.seed, "run0")
        ctx = _SeedContext(tiny_config, run_seed,
                           os.path.join(tiny_config.output_dir, "seed0"))
        ctx.allocators()
        assert Path(blob_path).read_bytes() == first

    def test_models_are_one_artifact_pair(self, tiny_config):
        tiny_config.policies = ["learned"]
        run_experiment(tiny_config)
        model_dir = os.path.join(tiny_config.output_dir, "seed0", "models")
        assert sorted(os.listdir(model_dir)) == ["allocators.bin",
                                                 "allocators.json"]

    def test_warm_rerun_trains_nothing(self, tiny_config, monkeypatch):
        tiny_config.policies = ["learned"]
        run_experiment(tiny_config)
        report_path = os.path.join(tiny_config.output_dir, "report.json")
        first = Path(report_path).read_bytes()

        def no_training(*args, **kwargs):
            raise AssertionError("a warm rerun must load the cached models")
        monkeypatch.setattr(harness, "train", no_training)
        run_experiment(tiny_config)
        assert Path(report_path).read_bytes() == first

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

    def test_prefixes_equal_per_multiplier_ranking(self, learned_run):
        ctx = _SeedContext(learned_run, derive_seed(learned_run.seed, "run0"),
                           os.path.join(learned_run.output_dir, "seed0"))
        transcripts = load_transcripts(os.path.join(
            learned_run.output_dir, "seed0", "transcripts_learned.jsonl"))
        # vary the recorded budgets so prefixes of every length get used
        for i, t in enumerate(transcripts):
            t.budgets_sent = [(i + c) % 5 for c in range(len(t.budgets_sent))]
        multipliers = [0.0, 0.5, 1.0, 1.25, 2.0, 3.0]
        args = (transcripts, ctx.shards, ctx.shard_stores, ctx.train_ds,
                ctx.train_store, ctx.test_store, learned_run.k, multipliers)
        assert budget_efficiency_curve(*args) == _reference_curve(*args)

    def test_missing_transcripts_rejected(self, tiny_config):
        run_experiment(tiny_config)  # uniform only; no learned transcripts
        with pytest.raises(ValidationError):
            efficiency_curve_from_run(tiny_config, 0, [1.0])


class TestSeedContext:
    def test_for_seed_is_the_indexed_run(self, tiny_config):
        ctx = _SeedContext.for_seed(tiny_config, 0)
        assert ctx.run_seed == derive_seed(tiny_config.seed, "run0")
        assert ctx.out_dir == os.path.join(tiny_config.output_dir, "seed0")

    def test_shards_cached_in_manifest(self, tiny_config):
        run_seed = derive_seed(tiny_config.seed, "run0")
        seed_dir = os.path.join(tiny_config.output_dir, "seed0")
        a = _SeedContext(tiny_config, run_seed, seed_dir)
        b = _SeedContext(tiny_config, run_seed, seed_dir)
        assert [s.ids for s in a.shards] == [s.ids for s in b.shards]
        assert os.path.exists(os.path.join(seed_dir, "shards.json"))

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

    def test_train_eval_ids_disjoint(self, tiny_config):
        run_seed = derive_seed(tiny_config.seed, "run0")
        ctx = _SeedContext(tiny_config, run_seed,
                           os.path.join(tiny_config.output_dir, "seed0"))
        assert set(ctx.train_ds.ids).isdisjoint(ctx.eval_ds.ids)
