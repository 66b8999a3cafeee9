import hashlib
import json
import os
import re
import shutil
import time

import pytest
import yaml

from icebudget import allocator, harness, parallel
from icebudget.cli import main
from icebudget.config import POLICY_VARIANTS, load_config
from icebudget.corpus import LabelSpace, synth_clusters
from icebudget.embedder import load_embeddings
from icebudget.errors import BackendError
from icebudget.inference import MockVoteBackend

from conftest import reference_prompt, save_dataset


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

    def test_non_utf8_config_names_its_file(self, config_path, capsys):
        with open(config_path, "ab") as fh:
            fh.write(b"# caf\xff\n")
        assert main(["--config", config_path, "run"]) == 1
        err = capsys.readouterr().err
        assert f"config file is not UTF-8: {config_path}" in err
        assert "Traceback" not in err

    def test_non_utf8_dataset_line_named(self, text_config_path, tmp_path,
                                         capsys):
        eval_path = tmp_path / "eval.jsonl"
        lines = eval_path.read_bytes().count(b"\n")
        with open(eval_path, "ab") as fh:
            fh.write(b'{"text": "caf\xe9", "label": 0}\n')
        assert main(["--config", text_config_path, "run"]) == 1
        err = capsys.readouterr().err
        assert f"line {lines + 1}: {eval_path}: not UTF-8" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_repeated_policy_is_validation_error(self, config_path, tmp_path,
                                                 capsys):
        path = tmp_path / "cfg.yaml"  # config_path's file
        path.write_text(path.read_text().replace(
            "policies: [uniform]", "policies: [uniform, uniform, learned]"))
        assert main(["--config", config_path, "run"]) == 1
        assert "policy uniform is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("curve", ["a,b", "nan,1", "inf", "-1", "0.5,-2"])
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


def _edit_meta(path, edit):
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta, sort_keys=True) + "\n")


def _without_digest(meta):
    del meta["digest"]


def _doubled_input_scale(meta):
    meta["input_scale"] *= 2


def _other_width_same_size(meta):
    # another width, with the dim that keeps the blob's size:
    # size / 8 = clients * (width * (dim + 2 + width + classes) + classes)
    width, classes = meta["width"], meta["num_classes"]
    per_row = width * (meta["dim"] + 2 + width + classes)
    meta["width"] = next(w for w in range(width - 1, 0, -1)
                         if per_row % w == 0
                         and per_row // w - 2 - w - classes >= 1)
    meta["dim"] = per_row // meta["width"] - 2 - meta["width"] - classes


class TestDamagedModelCache:
    """A damaged allocator pair is a cache miss: the run retrains, writes
    the files of a clean run and names the damaged file on stderr. The
    digest covers the blob and the metadata, so a mismatch names both."""

    @pytest.mark.parametrize("name, damage, reason", [
        ("allocators.bin", lambda p: p.write_bytes(bytes(p.stat().st_size)),
         "{json}: digest differs from that of its metadata and {blob}"),
        ("allocators.bin", lambda p: p.write_bytes(p.read_bytes()[:12]),
         "{blob}: parameter blob has 12 bytes"),
        ("allocators.json", lambda p: p.write_text("{not json\n"),
         "{json}: JSONDecodeError: Expecting property name"),
        ("allocators.json", lambda p: _edit_meta(p, _without_digest),
         "{json}: KeyError: 'digest'"),
        ("allocators.json", lambda p: _edit_meta(p, _doubled_input_scale),
         "{json}: digest differs from that of its metadata and {blob}"),
        ("allocators.json", lambda p: _edit_meta(p, _other_width_same_size),
         "{json}: digest differs from that of its metadata and {blob}"),
    ], ids=["zeroed", "truncated", "not_json", "no_digest", "input_scale",
            "width"])
    def test_retrained_to_a_clean_runs_files(self, config_path, tmp_path,
                                             capsys, name, damage, reason):
        with open(config_path) as fh:
            text = fh.read().replace("policies: [uniform]",
                                     "policies: [learned]")
        with open(config_path, "w") as fh:
            fh.write(text)
        out = tmp_path / "out"
        assert main(["--config", config_path, "run"]) == 0
        clean = _tree_digests(out)
        models = out / "seed0" / "models"
        size = (models / "allocators.bin").stat().st_size
        damage(models / name)
        if name == "allocators.json":
            assert (models / "allocators.bin").stat().st_size == size
        capsys.readouterr()
        assert main(["--config", config_path, "run"]) == 0
        err = capsys.readouterr().err
        assert reason.format(json=models / "allocators.json",
                             blob=models / "allocators.bin") in err
        assert len(err.splitlines()) == 1
        assert _tree_digests(out) == clean


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

    def test_non_utf8_line_names_its_file_and_line(self, tmp_path, capsys):
        data_path = tmp_path / "bad.jsonl"
        data_path.write_bytes(b'{"text": "a", "label": 0}\n\n'
                              b'{"text": "\xff", "label": 0}\n')
        out_path = tmp_path / "emb.bin"
        assert main(["encode", "--dataset", str(data_path),
                     "--output", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert f"line 3: {data_path}: not UTF-8" in err
        assert "Traceback" not in err
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

    def test_finite_multiplier_past_float_range_is_the_whole_shard(
            self, config_path, tmp_path, capsys):
        # 1e308 times a budget overflows to inf; it means the whole shard,
        # as 1000 does at these shard sizes
        cfg2 = tmp_path / "cfg2.yaml"
        with open(config_path) as fh:
            text = fh.read().replace("policies: [uniform]",
                                     "policies: [learned]")
        cfg2.write_text(text)
        assert main(["--config", str(cfg2), "run"]) == 0
        capsys.readouterr()
        assert main(["--config", str(cfg2), "report",
                     "--curve", "1000,1e308"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == ["1000.00",
                                                        f"{1e308:.2f}"]
        assert rows[0].split("\t")[1] == rows[1].split("\t")[1]

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
        # an unfinished run, as one with no learned transcripts is
        assert main(["--config", str(path), "report", "--curve", "1"]) == 1
        assert "seed0/transcripts_learned.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["report.json",
                                         "seed0/transcripts_learned.jsonl"])
    def test_unfinished_run_is_a_validation_error(self, learned_run, tmp_path,
                                                  capsys, missing):
        config, _ = learned_run
        out = tmp_path / "run"
        shutil.copytree(os.path.join(os.path.dirname(config), "out"), out)
        os.remove(out / missing)
        capsys.readouterr()
        assert main(["--config", config, "--out", str(out), "report",
                     "--curve", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: stage 'report' (seed 0): unfinished run: ")
        assert str(out / missing) in err and "Traceback" not in err

    @pytest.mark.parametrize("damage, line, message", [
        (lambda data: data + b"\xff", False, "not UTF-8"),
        (lambda data: data[:300], True, "invalid JSON: "),
        (lambda data: b"[]\n", False, "report must be a JSON object"),
    ], ids=["trailing-0xff", "truncated", "not-an-object"])
    def test_damaged_report_named(self, learned_run, tmp_path, capsys, damage,
                                  line, message):
        config, _ = learned_run
        out = tmp_path / "run"
        shutil.copytree(os.path.join(os.path.dirname(config), "out"), out)
        report = out / "report.json"
        report.write_bytes(damage(report.read_bytes()))
        capsys.readouterr()
        assert main(["--config", config, "--out", str(out), "report",
                     "--curve", "1"]) == 1
        err = capsys.readouterr().err
        prefix = "error: stage 'report' (seed 0): "
        assert err.startswith(prefix + ("line " if line else str(report)))
        assert f"{report}: {message}" in err and "Traceback" not in err


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


def _with(line, **fields):
    return json.dumps({**json.loads(line), **fields})


class TestForeignTranscripts:
    """`report --transcripts` reads only a file of the seed's test queries."""

    @pytest.mark.parametrize("edit, line, message", [
        (lambda lines: lines[:3] + [_with(lines[3], query_id=10**6)]
         + lines[4:], 4, "query id 1000000 is repeated or not a test query"),
        (lambda lines: lines + lines[1:2], None, "is repeated"),
        (lambda lines: lines[:2] + [lines[2].replace(
            '"budgets_sent": [', '"budgets_sent": [1, ')] + lines[3:], 3,
         "3 budgets for 2 clients"),
        # a budget past the float range, and an id past int64
        (lambda lines: lines[:2] + [_with(lines[2], budgets_sent=[
            10**400, 1])] + lines[3:], 3,
         "field 'budgets_sent' must be a list of integers in the int64 range"),
        (lambda lines: lines[:4] + [_with(lines[4], final_ice_ids=[
            2**63])] + lines[5:], 5, "field 'final_ice_ids' must be"),
        # an answer past the float range
        (lambda lines: lines[:2] + [_with(lines[2], answer_label=10**400)]
         + lines[3:], 3, "field 'answer_label' must be an integer in the "
                         "int64 range or null"),
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
        lines = lines[:at] + [_with(lines[at], query_id=10**6)] + lines[at + 1:]
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


class _DownBackend(MockVoteBackend):
    def answer(self, prompt, votes, labels):
        raise BackendError("backend down")


class TestFailuresBesideTraining:
    """Every seed's policies but `learned` run beside the allocator stage,
    each pass's transcripts written as it finishes, so a failed run leaves
    those of the passes that finished (and no `report.json`); what it
    reports and leaves does not depend on the process count."""

    @pytest.fixture
    def run_outcome(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        path = tmp_path / "cfg.yaml"  # config_path's file
        path.write_text(path.read_text().replace(
            "policies: [uniform]", "policies: [learned, infinite, uniform]"))
        make_server = harness._SeedContext.make_server

        def failing_uniform(ctx, policy):
            server = make_server(ctx, policy)
            if policy.variant == "uniform":
                server.backend = _DownBackend()
            return server
        monkeypatch.setattr(harness._SeedContext, "make_server",
                            failing_uniform)

        def outcome():
            """(exit code, stdout, stderr, files) of `run`, the same at 1
            and at 2 processes, each from an empty output directory."""
            outcomes = []
            for processes in (1, 2):
                monkeypatch.setattr(parallel, "processes", lambda: processes)
                capsys.readouterr()
                code = main(["--config", config, "run"])
                outcomes.append((code, *capsys.readouterr(),
                                 sorted(_tree_digests(tmp_path / "out"))))
                shutil.rmtree(tmp_path / "out")
            assert outcomes[0] == outcomes[1]
            return outcomes[0]
        return outcome

    def test_failing_pass_reports_its_own_stage(self, run_outcome):
        code, out, err, files = run_outcome()
        assert (code, out) == (2, "")
        assert re.fullmatch(r"runtime error: stage 'evaluate:uniform' "
                            r"\(seed 0\): query \d+: backend down\n", err)
        assert files == ["seed0/bproxy.jsonl", "seed0/models/allocators.bin",
                         "seed0/models/allocators.json", "seed0/shards.json",
                         "seed0/transcripts_infinite.jsonl"]

    def test_training_error_wins(self, run_outcome, monkeypatch):
        def non_finite(*args):
            raise allocator._NonFinite(0, 0, 0)
        monkeypatch.setattr(allocator, "_train_rows", non_finite)
        code, out, err, files = run_outcome()
        assert (code, out) == (1, "")
        assert err.startswith("error: stage 'train-allocator': seed 0, "
                              "client 0: non-finite training loss at epoch 0")
        assert files == ["seed0/bproxy.jsonl", "seed0/shards.json",
                         "seed0/transcripts_infinite.jsonl"]


class TestExhaustedRetries:
    def test_error_names_the_stage_and_the_query(self, tmp_path, stub_server,
                                                 monkeypatch, capsys):
        url, handler = stub_server
        handler.responses = [(503, {})] * 3
        config = write_config(tmp_path)
        path = tmp_path / "cfg.yaml"  # config_path's file
        path.write_text(path.read_text() + f"backend:\n  type: http\n"
                        f"  endpoint: {url}\n  max_retries: 2\n")
        waits = []
        monkeypatch.setattr(time, "sleep", waits.append)
        [ctx] = harness.seed_contexts(load_config(config), [0])
        capsys.readouterr()
        assert main(["--config", config, "run"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"runtime error: stage 'evaluate:uniform' (seed 0): query "
            f"{ctx.test.ids[0]}: completion request failed with HTTP 503\n")
        assert len(handler.requests) == 3 and waits == [0.5, 1.0]
        assert not (tmp_path / "out" / "report.json").exists()


class TestHttpTrainsFirst:
    """With a backend other than the mock, no seed's policies but `learned`
    run before training ends, so a run whose training fails sends no
    request."""

    @pytest.fixture
    def http_run(self, tmp_path, stub_server, monkeypatch, capsys):
        url, handler = stub_server
        config = write_config(tmp_path)
        path = tmp_path / "cfg.yaml"  # config_path's file
        path.write_text(path.read_text().replace(
            "policies: [uniform]", "policies: [learned, infinite, uniform]")
            .replace("num_seeds: 1", "num_seeds: 2")
            + f"backend:\n  type: http\n  endpoint: {url}\n")

        def run(processes):
            """(exit code, stdout, stderr, files) of `run` from an empty
            output directory."""
            monkeypatch.setattr(parallel, "processes", lambda: processes)
            capsys.readouterr()
            code = main(["--config", config, "run"])
            files = sorted(_tree_digests(tmp_path / "out"))
            shutil.rmtree(tmp_path / "out")
            return (code, *capsys.readouterr(), files)
        return run, handler

    @pytest.mark.parametrize("processes", [1, 2])
    def test_failed_training_sends_nothing(self, http_run, monkeypatch,
                                           processes):
        run, handler = http_run

        def non_finite(*args):
            raise allocator._NonFinite(0, 0, 0)
        monkeypatch.setattr(allocator, "_train_rows", non_finite)
        code, out, err, files = run(processes)
        assert (code, out) == (1, "")
        assert err.startswith("error: stage 'train-allocator': seed 0, "
                              "client 0: non-finite training loss at epoch 0")
        assert files == ["seed0/bproxy.jsonl", "seed0/shards.json",
                         "seed1/bproxy.jsonl", "seed1/shards.json"]
        assert handler.requests == []

    @pytest.mark.parametrize("processes", [1, 2])
    def test_requests_follow_training(self, http_run, monkeypatch, processes):
        run, handler = http_run
        handler.responses = [(200, {"choices": [{"text": " class0"}]})] * 1000
        train = harness.train
        seen = []  # requests sent when training starts and when it ends

        def counted(*args, **kwargs):
            seen.append(len(handler.requests))
            model = train(*args, **kwargs)
            seen.append(len(handler.requests))
            return model
        monkeypatch.setattr(harness, "train", counted)
        code, out, err, files = run(processes)
        assert (code, err) == (0, "")
        assert seen == [0, 0]
        # 2 seeds, 3 policies, 20 test queries
        assert len(handler.requests) == 2 * 3 * 20


# texts that hold the template's placeholders, braces and non-ASCII text
_PROMPT_FRAGMENTS = ("{label}", "{text}", "{lab", "el}", "{", "}", "é",
                     "日本", "😀")


class TestHttpPromptBytes:
    """The prompts an HTTP run posts and records are the replaces' rendering
    of the shard texts the transcripts name, in either ICE order."""

    @pytest.mark.parametrize("ice_order", ["descending", "ascending"])
    def test_posted_and_recorded_prompts(self, tmp_path, stub_server,
                                         ice_order):
        url, handler = stub_server
        handler.responses = [(200, {"choices": [{"text": " pos}"}]})] * 1000
        labels = LabelSpace(3, ("neg {label}", "pos}", "neu {text}"))
        examples = {}  # id -> (text, label): train ids, then eval ids
        for name, count in (("train", 60), ("eval", 24)):
            with open(tmp_path / f"{name}.jsonl", "w",
                      encoding="utf-8") as fh:
                fh.write(json.dumps(
                    {"label_space": list(labels.verbalizers)}) + "\n")
                for i in range(count):
                    text = f"{name} {i % 3} {i} " + "".join(
                        _PROMPT_FRAGMENTS[(i + j) % len(_PROMPT_FRAGMENTS)]
                        for j in range(i % 3 + 1))
                    examples[len(examples)] = (text, i % 3)
                    fh.write(json.dumps({"text": text, "label": i % 3}) + "\n")
        path = tmp_path / "http.yaml"
        path.write_text(
            "seed: 5\n"
            "num_seeds: 1\n"
            "k: 4\n"
            "proxy_size: 20\n"
            "policies: [uniform]\n"
            f"ice_order: {ice_order}\n"
            "partition: {scheme: noniid, num_clients: 3, "
            "labels_per_client: 1}\n"
            f"dataset: {{train_path: {tmp_path / 'train.jsonl'}, "
            f"eval_path: {tmp_path / 'eval.jsonl'}}}\n"
            "embeddings: {source: hash, dim: 16}\n"
            "train: {epochs: 3, width: 8}\n"
            f"backend: {{type: http, endpoint: {url}}}\n"
            f"output_dir: {tmp_path / 'out'}\n")
        assert main(["--config", str(path), "run"]) == 0
        with open(tmp_path / "out" / "seed0" / "transcripts_uniform.jsonl",
                  encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert records and len(records) == len(handler.requests)
        braced = 0
        for record, (_, body) in zip(records, handler.requests):
            ices = [examples[i] for i in record["final_ice_ids"]]
            want = reference_prompt(ices, examples[record["query_id"]][0],
                                    labels)
            assert body["prompt"] == record["prompt_text"] == want
            assert record["prompt_chars"] == len(want)
            braced += any("{label}" in text for text, _ in ices)
        assert braced  # some prompt took the replaces' path


class TestInfer:
    @pytest.mark.parametrize("policy", POLICY_VARIANTS)
    def test_answers_deterministically(self, text_config_path, capsys,
                                       policy):
        argv = ["--config", text_config_path, "infer",
                "--text", "synthetic sample 3", "--policy", policy]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        line = outs[0].splitlines()[0]
        # the line `save_transcripts` would write for it
        assert line == json.dumps(json.loads(line), sort_keys=True)
        transcript = json.loads(line)
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
