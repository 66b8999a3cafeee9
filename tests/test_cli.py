import hashlib
import json
import os

import pytest
import yaml

from icebudget import parallel
from icebudget.cli import main
from icebudget.corpus import synth_clusters
from icebudget.embedder import load_embeddings

from conftest import save_dataset


def write_config(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "name: cli-test\n"
        "seed: 3\n"
        "num_seeds: 1\n"
        "k: 4\n"
        "proxy_size: 30\n"
        "policies: [uniform]\n"
        "partition:\n"
        "  scheme: noniid\n"
        "  num_clients: 2\n"
        "  labels_per_client: 1\n"
        "synthetic:\n"
        "  num_classes: 2\n"
        "  per_class_train: 30\n"
        "  per_class_eval: 25\n"
        "  dim: 4\n"
        "  spread: 0.3\n"
        "embeddings:\n"
        "  source: synthetic\n"
        "  dim: 4\n"
        "train:\n"
        "  epochs: 5\n"
        "  width: 8\n"
        f"output_dir: {tmp_path / 'out'}\n")
    return str(path)


@pytest.fixture
def config_path(tmp_path):
    return write_config(tmp_path)


class TestRun:
    def test_run_writes_report(self, config_path, tmp_path, capsys):
        assert main(["--config", config_path, "run"]) == 0
        report_path = tmp_path / "out" / "report.json"
        assert report_path.exists()
        report = json.loads(report_path.read_text())
        assert "uniform" in report["policies"]
        assert "accuracy" in capsys.readouterr().out

    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.yaml"), "run"]) == 1

    def test_config_required(self):
        assert main(["run"]) == 1

    def test_seed_and_out_overrides(self, config_path, tmp_path):
        out = tmp_path / "elsewhere"
        assert main(["--config", config_path, "--seed", "9",
                     "--out", str(out), "run"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 9


class TestStageErrors:
    def test_unwritable_manifest_is_a_runtime_error(self, config_path, tmp_path,
                                                 capsys):
        # the manifest is written by every run; a directory there fails it
        (tmp_path / "out" / "seed0" / "shards.json").mkdir(parents=True)
        assert main(["--config", config_path, "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: stage 'setup' (seed 0): ")
        assert "Traceback" not in err


    def test_partition_on_unwritable_manifest(self, config_path, tmp_path,
                                             capsys):
        (tmp_path / "out" / "seed0" / "shards.json").mkdir(parents=True)
        assert main(["--config", config_path, "partition"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: stage 'partition' (seed 0): ")
        assert "Traceback" not in err

    def test_report_on_malformed_transcripts(self, config_path, tmp_path,
                                             capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"query_id": 1}\n')
        assert main(["--config", config_path, "report",
                     "--transcripts", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'report' (seed 0): line 1: ")
        assert str(path) in err and "missing field 'policy'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("curve", ["a,b", "nan,1", "inf"])
    def test_bad_curve_without_traceback(self, config_path, tmp_path, capsys,
                                         curve):
        assert main(["--config", config_path, "report", "--curve", curve]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --curve: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()  # rejected before the stage


class TestRebuild:
    def test_corrupt_budget_dataset_rebuilt(self, config_path, tmp_path,
                                            capsys):
        assert main(["--config", config_path, "build-budget-dataset"]) == 0
        path = tmp_path / "out" / "seed0" / "bproxy.jsonl"
        fresh = path.read_bytes()
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["vector"] = record["vector"][:-1]
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["--config", config_path, "train-allocator"]) == 0
        assert capsys.readouterr().out.startswith("seed 0: trained 2 ")
        assert path.read_bytes() == fresh
        assert (tmp_path / "out" / "seed0" / "models" /
                "allocators.bin").exists()

    def test_rerun_with_another_budget_rebuilt(self, config_path, tmp_path):
        # k 4, delta 1 and k 8, delta 2 both give 5 budget classes, so only
        # the budget table tells the saved models apart
        with open(config_path) as fh:
            text = fh.read().replace("policies: [uniform]",
                                     "policies: [learned]")
        path = tmp_path / "learned.yaml"
        path.write_text(text.replace("k: 4\n", "k: 8\ndelta: 2\n"))
        out = tmp_path / "out"
        assert main(["--config", str(path), "run"]) == 0
        fresh = _tree_digests(out)
        out.rename(tmp_path / "fresh")
        path.write_text(text)
        assert main(["--config", str(path), "run"]) == 0
        path.write_text(text.replace("k: 4\n", "k: 8\ndelta: 2\n"))
        assert main(["--config", str(path), "run"]) == 0
        assert _tree_digests(out) == fresh


def _tree_digests(root):
    """{relative path: sha256} of every file under `root`."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestUsage:
    def test_no_subcommand_prints_usage(self, capsys):
        assert main([]) == 1
        captured = capsys.readouterr()
        assert "usage" in (captured.out + captured.err).lower()

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1


class TestPartition:
    def test_prints_shard_sizes(self, config_path, capsys):
        assert main(["--config", config_path, "partition"]) == 0
        assert "shard sizes" in capsys.readouterr().out


class TestEncode:
    def test_encodes_jsonl_dataset(self, tmp_path):
        d, _ = synth_clusters(2, 5, 4, 0.2, seed=1)
        data_path = tmp_path / "data.jsonl"
        save_dataset(d, data_path)
        out_path = tmp_path / "emb.bin"
        assert main(["encode", "--dataset", str(data_path),
                     "--output", str(out_path), "--dim", "16"]) == 0
        store = load_embeddings(out_path)
        assert store.dim == 16
        assert len(store) == 10

    def test_binary_output_is_pinned(self, tmp_path):
        # repeated n-grams, 1- and 2-character texts ("ab" takes the zero-norm
        # fallback at dim 8, seed 0), astral and combining code points; the
        # digest was taken from the one-n-gram-at-a-time encoder
        data_path = tmp_path / "golden.jsonl"
        data_path.write_text(
            '{"text": "ab", "label": 0}\n'
            '{"text": "a", "label": 1}\n'
            '{"text": "the movie was great", "label": 1}\n'
            '{"text": "the movie was awful", "label": 0}\n'
            '{"text": "aaaaaaaa", "label": 0}\n'
            '{"text": "\\ud83d\\ude00 grin \\ud83d\\ude00", "label": 1}\n'
            '{"text": "e\\u0301te\\u0301 na\\u00efve", "label": 1}\n',
            encoding="utf-8")
        out_path = tmp_path / "golden.bin"
        assert main(["encode", "--dataset", str(data_path), "--output",
                     str(out_path), "--dim", "8", "--format", "binary"]) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "f5d7b819fe07b570f6b6ef2dcdd15016f945fdc039c9cb3a57ce3167b35af26d")


    @pytest.mark.parametrize("second_line", [
        "5",                                    # not an object
        '{"text": 5, "label": 0}',              # text not a string
        '{"text": "a \\ud83d b", "label": 0}',  # lone surrogate
        '{"text": "b", "label": true}',         # bool label
    ])
    def test_malformed_record_rejected(self, tmp_path, capsys, second_line):
        data_path = tmp_path / "bad.jsonl"
        data_path.write_text('{"text": "a", "label": 0}\n'
                             + second_line + "\n")
        out_path = tmp_path / "emb.bin"
        assert main(["encode", "--dataset", str(data_path),
                     "--output", str(out_path)]) == 1
        assert "line 2" in capsys.readouterr().err
        assert not out_path.exists()

    def test_header_after_blank_lines(self, tmp_path):
        data_path = tmp_path / "d.jsonl"
        data_path.write_text('\n\n{"label_space": ["x", "y", "z"]}\n'
                             '{"text": "a", "label": 2}\n')
        out_path = tmp_path / "emb.bin"
        assert main(["encode", "--dataset", str(data_path),
                     "--output", str(out_path)]) == 0
        assert len(load_embeddings(out_path)) == 1

    def test_empty_text_names_its_line(self, tmp_path, capsys):
        data_path = tmp_path / "bad.jsonl"
        data_path.write_text('{"text": "a", "label": 0}\n'
                             '{"text": "", "label": 0}\n')
        out_path = tmp_path / "emb.bin"
        assert main(["encode", "--dataset", str(data_path),
                     "--output", str(out_path)]) == 1
        assert "line 2: empty text" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("header", ["[]", '["a", "a"]'])
    def test_invalid_label_space_names_its_line(self, tmp_path, capsys,
                                                header):
        data_path = tmp_path / "bad.jsonl"
        data_path.write_text('\n{"label_space": %s}\n{"text": "a", "label": 0}\n'
                             % header)
        out_path = tmp_path / "emb.bin"
        assert main(["encode", "--dataset", str(data_path),
                     "--output", str(out_path)]) == 1
        assert "line 2" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("header", ["5", '"ab"', '["a", 1]', '{"a": "b"}'])
    def test_malformed_label_space_rejected(self, tmp_path, capsys, header):
        data_path = tmp_path / "bad.jsonl"
        data_path.write_text('{"label_space": %s}\n{"text": "a", "label": 0}\n'
                             % header)
        out_path = tmp_path / "emb.bin"
        assert main(["encode", "--dataset", str(data_path),
                     "--output", str(out_path)]) == 1
        assert "line 1" in capsys.readouterr().err
        assert not out_path.exists()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A good config as a dict, the directory of its finished run and that
    run's report.json bytes."""
    tmp = tmp_path_factory.mktemp("finished")
    with open(write_config(tmp), encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["policies"] = ["uniform", "learned"]  # trains and caches allocators
    path = tmp / "good.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["--config", str(path), "run"]) == 0
    out = tmp / "out"
    return data, out, (out / "report.json").read_bytes()


class TestSettingsCheckedAtLoad:
    @pytest.mark.parametrize("override", [
        {"train": {"epochs": 0}},
        {"train": {"batch_size": 0}},
        {"train": {"width": 0}},
        {"train": {"learning_rate": -1}},
        {"train": {"validation_fraction": 1}},
        {"partition": {"labels_per_client": 0}},
        {"backend": {"type": "http", "endpoint": "ftp://x", "model": "m"}},
        {"ice_order": "sideways"},
        {"max_prompt_chars": 0},
        # a value of the wrong type, even one inside the allowed range
        {"train": {"epochs": 2.5}},
        {"train": {"width": 8.5}},
        {"train": {"batch_size": 2.5}},
        {"k": 8.5},
        {"proxy_size": 40.5},
        {"partition": {"num_clients": 4.0}},
        {"synthetic": {"spread": "x"}},
        {"num_seeds": 1.5},
        {"delta": True},
        {"seed": "abc"},
    ])
    def test_bad_setting_exits_before_any_output(self, finished_run, tmp_path,
                                                 capsys, override):
        data, finished, report = finished_run
        data = {**data, "output_dir": str(tmp_path / "fresh")}
        for key, value in override.items():
            data[key] = ({**data.get(key, {}), **value}
                         if isinstance(value, dict) else value)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["--config", str(path), "run"]) == 1
        assert not (tmp_path / "fresh").exists()
        assert main(["--config", str(path), "--out", str(finished), "run"]) == 1
        assert (finished / "report.json").read_bytes() == report
        assert "Traceback" not in capsys.readouterr().err


class TestStages:
    def test_build_budget_dataset(self, config_path, tmp_path, capsys):
        assert main(["--config", config_path, "build-budget-dataset"]) == 0
        assert (tmp_path / "out" / "seed0" / "bproxy.jsonl").exists()
        assert "budget records" in capsys.readouterr().out

    def test_train_allocator(self, config_path, tmp_path, capsys):
        assert main(["--config", config_path, "train-allocator"]) == 0
        assert (tmp_path / "out" / "seed0" / "models" / "allocators.bin").exists()
        cold = capsys.readouterr().out
        assert cold.startswith("seed 0: trained 2 allocators, final losses ")
        assert main(["--config", config_path, "train-allocator"]) == 0
        assert capsys.readouterr().out == cold.replace("trained", "loaded")


class TestReport:
    def test_curve_after_learned_run(self, config_path, tmp_path, capsys):
        cfg2 = tmp_path / "cfg2.yaml"
        with open(config_path) as fh:
            text = fh.read().replace("policies: [uniform]",
                                     "policies: [learned]")
        cfg2.write_text(text)
        assert main(["--config", str(cfg2), "run"]) == 0
        capsys.readouterr()
        assert main(["--config", str(cfg2), "report",
                     "--curve", "0.5,1.0"]) == 0
        out = capsys.readouterr().out
        assert "multiplier" in out
        assert len(out.strip().splitlines()) == 3  # header + two rows

    def test_report_without_transcripts_fails(self, config_path, capsys):
        assert main(["--config", config_path, "report"]) == 1

    def test_curve_refuses_transcripts_another_run_left(self, config_path,
                                                        tmp_path, capsys):
        # a learned run, then a uniform-only run of another k into the same
        # dir: the learned transcripts left behind are not this config's
        with open(config_path) as fh:
            text = fh.read()
        learned = tmp_path / "learned.yaml"
        learned.write_text(text.replace("policies: [uniform]",
                                        "policies: [uniform, learned]"))
        other = tmp_path / "other.yaml"
        other.write_text(text.replace("k: 4\n", "k: 8\ndelta: 2\n"))
        assert main(["--config", str(learned), "run"]) == 0
        assert main(["--config", str(other), "run"]) == 0
        stale = tmp_path / "out" / "seed0" / "transcripts_learned.jsonl"
        assert stale.exists()
        for path in (other, learned):
            capsys.readouterr()
            assert main(["--config", str(path), "report", "--curve", "1"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("runtime error: stage 'report' (seed 0): ")
            assert "seed0/transcripts_learned.jsonl" in err
            assert "Traceback" not in err

    def test_curve_of_a_moved_run(self, config_path, tmp_path, capsys):
        # report.json records output_dir; a moved run is still the same run
        with open(config_path) as fh:
            text = fh.read().replace("policies: [uniform]",
                                     "policies: [learned]")
        path = tmp_path / "learned.yaml"
        path.write_text(text)
        assert main(["--config", str(path), "run"]) == 0
        capsys.readouterr()
        assert main(["--config", str(path), "report", "--curve", "0.5,1"]) == 0
        unmoved = capsys.readouterr().out
        moved = tmp_path / "moved"
        (tmp_path / "out").rename(moved)
        finished = _tree_digests(moved)
        assert main(["--config", str(path), "--out", str(moved), "report",
                     "--curve", "0.5,1"]) == 0
        assert capsys.readouterr().out == unmoved
        assert _tree_digests(moved) == finished
        assert not (tmp_path / "out").exists()

    def test_curve_needs_the_report_of_a_finished_run(self, config_path,
                                                       tmp_path, capsys):
        with open(config_path) as fh:
            text = fh.read().replace("policies: [uniform]",
                                     "policies: [learned]")
        path = tmp_path / "learned.yaml"
        path.write_text(text)
        assert main(["--config", str(path), "run"]) == 0
        # a rerun that fails after it started leaves no report.json
        path.write_text(text.replace("proxy_size: 30", "proxy_size: 50"))
        assert main(["--config", str(path), "run"]) == 1
        assert not (tmp_path / "out" / "report.json").exists()
        path.write_text(text)
        capsys.readouterr()
        assert main(["--config", str(path), "report", "--curve", "1"]) == 2
        assert "seed0/transcripts_learned.jsonl" in capsys.readouterr().err


@pytest.fixture(scope="module")
def learned_run(tmp_path_factory):
    """The config of a finished one-seed learned run, and its transcripts'
    lines; the tests that use it only read the run."""
    tmp = tmp_path_factory.mktemp("learned")
    with open(write_config(tmp)) as fh:
        text = fh.read().replace("policies: [uniform]", "policies: [learned]")
    path = tmp / "learned.yaml"
    path.write_text(text)
    assert main(["--config", str(path), "run"]) == 0
    lines = (tmp / "out" / "seed0" /
             "transcripts_learned.jsonl").read_text().splitlines()
    return str(path), lines


def _with_query_id(line, query_id):
    record = json.loads(line)
    record["query_id"] = query_id
    return json.dumps(record)


class TestForeignTranscripts:
    """`report --transcripts` reads only a file of the seed's test queries."""

    @pytest.mark.parametrize("edit, line, message", [
        (lambda lines: lines[:3] + [_with_query_id(lines[3], 10**6)]
         + lines[4:], 4, "query id 1000000 is repeated or not a test query"),
        (lambda lines: lines + lines[1:2], None, "is repeated"),
        (lambda lines: lines[:2] + [lines[2].replace(
            '"budgets_sent": [', '"budgets_sent": [1, ')] + lines[3:], 3,
         "3 budgets for 2 clients"),
    ])
    def test_refused_with_the_file_and_the_first_bad_line(
            self, learned_run, tmp_path, capsys, edit, line, message):
        config, lines = learned_run
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text("\n".join(edit(lines)) + "\n")
        line = line or len(lines) + 1
        capsys.readouterr()
        assert main(["--config", config, "report", "--curve", "1",
                     "--transcripts", str(foreign)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage 'report' (seed 0): line {line}: "
                              f"{foreign}: ")
        assert message in err and "Traceback" not in err

    def test_missing_query_refused(self, learned_run, tmp_path, capsys):
        config, lines = learned_run
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text("\n".join(lines[:-1]) + "\n")
        missing = json.loads(lines[-1])["query_id"]
        capsys.readouterr()
        assert main(["--config", config, "report", "--curve", "1",
                     "--transcripts", str(foreign)]) == 1
        assert capsys.readouterr().err == (
            f"error: stage 'report' (seed 0): {foreign}: no transcript of "
            f"test query {missing}\n")

    def test_the_runs_own_transcripts_accepted(self, learned_run, tmp_path,
                                               capsys):
        config, lines = learned_run
        capsys.readouterr()
        assert main(["--config", config, "report", "--curve", "0.5,1"]) == 0
        own = capsys.readouterr().out
        copy = tmp_path / "copy.jsonl"
        copy.write_text("\n".join(reversed(lines)) + "\n\n")
        assert main(["--config", config, "report", "--curve", "0.5,1",
                     "--transcripts", str(copy)]) == 0
        assert capsys.readouterr().out == own


class TestProcessCounts:
    """A failure inside a forked range reaches the CLI as it does from one
    process, and the curve prints the same at every process count."""

    def _outcomes(self, monkeypatch, capsys, argv):
        outcomes = []
        for processes in (1, 2):
            monkeypatch.setattr(parallel, "processes", lambda: processes)
            capsys.readouterr()
            code = main(argv)
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_curve_prints_the_same(self, learned_run, monkeypatch, capsys):
        config, _ = learned_run
        code, out, err = self._outcomes(
            monkeypatch, capsys,
            ["--config", config, "report", "--curve", "0.5,1,1.25,2"])
        assert code == 0 and len(out.splitlines()) == 5

    def test_unknown_query_in_the_second_half(self, learned_run, tmp_path,
                                              monkeypatch, capsys):
        config, lines = learned_run
        foreign = tmp_path / "foreign.jsonl"
        at = len(lines) * 3 // 4
        lines = lines[:at] + [_with_query_id(lines[at], 10**6)] + lines[at + 1:]
        foreign.write_text("\n".join(lines) + "\n")
        code, out, err = self._outcomes(
            monkeypatch, capsys, ["--config", config, "report", "--curve",
                                  "1", "--transcripts", str(foreign)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: stage 'report' (seed 0): line {at + 1}: ")

    def test_empty_text_is_the_encoders_validation_error(
            self, text_config_path, monkeypatch, capsys):
        code, out, err = self._outcomes(
            monkeypatch, capsys, ["--config", text_config_path, "infer",
                                  "--text", "", "--policy", "learned"])
        assert (code, out) == (1, "")
        assert err == "error: stage 'infer' (seed 0): cannot encode empty text\n"


@pytest.fixture
def text_config_path(tmp_path):
    """A JSONL text dataset with hash embeddings: what `infer` accepts."""
    train, _ = synth_clusters(3, 20, 4, 0.3, seed=1)
    evals, _ = synth_clusters(3, 15, 4, 0.3, seed=2)
    save_dataset(train, tmp_path / "train.jsonl")
    save_dataset(evals, tmp_path / "eval.jsonl")
    path = tmp_path / "text.yaml"
    path.write_text(
        "seed: 5\n"
        "num_seeds: 1\n"
        "k: 4\n"
        "proxy_size: 20\n"
        "partition: {scheme: noniid, num_clients: 3, labels_per_client: 1}\n"
        f"dataset: {{train_path: {tmp_path / 'train.jsonl'}, "
        f"eval_path: {tmp_path / 'eval.jsonl'}}}\n"
        "embeddings: {source: hash, dim: 16}\n"
        "train: {epochs: 3, width: 8}\n"
        f"output_dir: {tmp_path / 'out'}\n")
    return str(path)


class TestInfer:
    @pytest.mark.parametrize("policy", ["uniform", "random",
                                        "social_learning", "learned"])
    def test_answers_deterministically(self, text_config_path, capsys,
                                       policy):
        argv = ["--config", text_config_path, "infer",
                "--text", "synthetic sample 3", "--policy", policy]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        transcript = json.loads(outs[0].splitlines()[0])
        assert transcript["policy"] == policy
        assert transcript["query_id"] == -1
        assert outs[0].splitlines()[1].startswith("answer: ")

    @pytest.mark.parametrize("embeddings", [
        "embeddings: {source: synthetic, dim: 4}",
        "embeddings: {source: hash, dim: 4}",
    ])
    def test_synthetic_stores_rejected(self, config_path, tmp_path, capsys,
                                       embeddings):
        with open(config_path) as fh:
            text = fh.read().replace(
                "embeddings:\n  source: synthetic\n  dim: 4\n",
                embeddings + "\n")
        assert embeddings in text
        path = tmp_path / "synthetic.yaml"
        path.write_text(text)
        assert main(["--config", str(path), "infer", "--text", "q"]) == 1
        assert "hash" in capsys.readouterr().err
        assert not (tmp_path / "out" / "seed0" / "shards.json").exists()

    def test_file_embeddings_rejected(self, text_config_path, tmp_path,
                                      capsys):
        with open(text_config_path) as fh:
            text = fh.read().replace(
                "embeddings: {source: hash, dim: 16}",
                "embeddings: {source: file, dim: 16, train_path: a.bin, "
                "eval_path: b.bin}")
        path = tmp_path / "file.yaml"
        path.write_text(text)
        assert main(["--config", str(path), "infer", "--text", "q"]) == 1
        assert "hash" in capsys.readouterr().err
        assert not (tmp_path / "out" / "seed0" / "shards.json").exists()


    def test_unknown_policy_rejected(self, text_config_path, tmp_path):
        assert main(["--config", text_config_path, "infer", "--text", "q",
                     "--policy", "bogus"]) == 1
        assert not (tmp_path / "out" / "seed0" / "shards.json").exists()


class TestReadOnlyCommands:
    def test_report_with_transcripts_writes_nothing(self, config_path,
                                                    tmp_path, capsys):
        with open(config_path) as fh:
            text = fh.read().replace("policies: [uniform]",
                                     "policies: [learned]")
        path = tmp_path / "learned.yaml"
        path.write_text(text)
        assert main(["--config", str(path), "run"]) == 0
        transcripts = tmp_path / "out" / "seed0" / "transcripts_learned.jsonl"
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert main(["--config", str(path), "--out", str(fresh), "report",
                     "--curve", "1", "--transcripts", str(transcripts)]) == 0
        assert "multiplier" in capsys.readouterr().out
        assert list(fresh.iterdir()) == []

    def test_report_and_infer_leave_a_finished_run_as_it_is(
            self, text_config_path, tmp_path, capsys):
        with open(text_config_path) as fh:
            text = fh.read()
        path = tmp_path / "both.yaml"
        path.write_text(text + "policies: [uniform, learned]\n")
        out = tmp_path / "out"
        assert main(["--config", str(path), "run"]) == 0

        def files():  # the bytes and the last write of each file
            return {name: (digest, (out / name).stat().st_mtime_ns)
                    for name, digest in _tree_digests(out).items()}
        finished = files()
        assert "seed0/shards.json" in finished
        assert main(["--config", str(path), "report", "--curve", "1"]) == 0
        for policy in ("uniform", "learned"):
            assert main(["--config", str(path), "infer", "--text", "q",
                         "--policy", policy]) == 0
        assert files() == finished

    def test_infer_writes_only_the_models_it_trained(self, text_config_path,
                                                     tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--config", text_config_path, "infer", "--text", "q",
                "--policy", "learned"]
        assert main(argv) == 0
        trained = _tree_digests(out)
        assert sorted(trained) == ["seed0/models/allocators.bin",
                                   "seed0/models/allocators.json"]
        mtimes = {name: (out / name).stat().st_mtime_ns for name in trained}
        assert main(argv) == 0  # served from the saved models
        assert _tree_digests(out) == trained
        assert {name: (out / name).stat().st_mtime_ns
                for name in trained} == mtimes


class TestSeedIndex:
    @pytest.mark.parametrize("command", [["infer", "--text", "q"], ["report"]])
    @pytest.mark.parametrize("index", ["-1", "1"])
    def test_seed_index_outside_the_run_rejected(self, text_config_path,
                                                 tmp_path, capsys, command,
                                                 index):
        argv = ["--config", text_config_path, *command, "--seed-index", index]
        assert main(argv) == 1  # the config has num_seeds: 1
        assert "seed index" in capsys.readouterr().err
        assert not (tmp_path / "out" / "seed-1").exists()
        assert not (tmp_path / "out" / "seed1").exists()


class TestParaphrase:
    def test_mock_identity(self, config_path, capsys):
        assert main(["--config", config_path, "paraphrase",
                     "--text", "hello there"]) == 0
        assert capsys.readouterr().out.strip() == "hello there"
