import os
import re
import subprocess
import sys

import pytest

import icebudget
from icebudget.config import (PRESETS, TrainConfig, config_from_dict,
                              derive_seed, load_config)
from icebudget.errors import ValidationError

DEMO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "synthetic.yaml")

MINIMAL = {
    "synthetic": {"num_classes": 2, "per_class_train": 10,
                  "per_class_eval": 10, "dim": 4},
}


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "partition") == derive_seed(1, "partition")

    def test_label_separation(self):
        assert derive_seed(1, "partition") != derive_seed(1, "proxy")
        assert derive_seed(1, "partition") != derive_seed(2, "partition")

    def test_fits_in_63_bits(self):
        for master in (0, 1, 2**40):
            for label in ("a", "b", "run0"):
                assert 0 <= derive_seed(master, label) < 2**63


class TestPresets:
    # per-dataset headline hyper-parameters, frozen
    expected = {
        "sst5":   (32, 4, 2, 500, 3, 0),
        "amazon": (8, 2, 3, 750, 2, 0),
        "yelp":   (4, 2, 3, 750, 2, 2),
        "mr":     (32, 4, 1, 500, 3, 0),
        "yahoo":  (4, 2, 5, 750, 2, 2),
        "agnews": (4, 2, 2, 750, 2, 2),
        "subj":   (32, 4, 1, 500, 3, 0),
    }

    def test_preset_values_verbatim(self):
        for name, (k, c, gamma, proxy, delta, alpha) in self.expected.items():
            p = PRESETS[name]
            assert (p["k"], p["num_clients"], p["labels_per_client"],
                    p["proxy_size"], p["delta"], p["alpha"]) == \
                   (k, c, gamma, proxy, delta, alpha)

    def test_preset_merges_into_config(self):
        cfg = config_from_dict({"preset": "yelp", **MINIMAL})
        assert cfg.k == 4 and cfg.delta == 2 and cfg.alpha == 2
        assert cfg.proxy_size == 750
        assert cfg.partition.num_clients == 2
        assert cfg.partition.labels_per_client == 3
        assert cfg.partition.scheme == "noniid"

    def test_explicit_keys_override_preset(self):
        cfg = config_from_dict({"preset": "yelp", "k": 16, **MINIMAL})
        assert cfg.k == 16

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            config_from_dict({"preset": "imdb", **MINIMAL})

    def test_non_mapping_partition_rejected(self):
        for partition in (None, [1], "noniid"):
            with pytest.raises(ValidationError, match="partition"):
                config_from_dict({"preset": "sst5", "partition": partition,
                                  **MINIMAL})

    def test_caller_partition_left_untouched(self):
        data = {"preset": "sst5", "partition": {"num_clients": 3}, **MINIMAL}
        cfg = config_from_dict(data)
        assert data["partition"] == {"num_clients": 3}
        assert cfg.partition.num_clients == 3
        assert cfg.partition.labels_per_client == 2

    def test_presets_set_no_quant_ratio(self):
        cfg = config_from_dict({"preset": "subj", **MINIMAL})
        assert "quant_ratio" not in cfg.to_dict()


class TestValidation:
    def test_minimal_config(self):
        cfg = config_from_dict(dict(MINIMAL))
        assert cfg.k >= 1
        assert cfg.num_seeds == 3  # three-seed default

    def test_needs_exactly_one_data_source(self):
        with pytest.raises(ValidationError):
            config_from_dict({})
        with pytest.raises(ValidationError):
            config_from_dict({**MINIMAL,
                              "dataset": {"train_path": "a", "eval_path": "b"}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({**MINIMAL, "bogus": 1})

    def test_quant_ratio_is_an_unknown_key(self):
        for data in ({**MINIMAL, "quant_ratio": 0.5},
                     {"preset": "sst5", **MINIMAL, "quant_ratio": 0.3}):
            with pytest.raises(ValidationError,
                               match="unknown config key: quant_ratio"):
                config_from_dict(data)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({**MINIMAL, "policies": ["psychic"]})

    def test_bad_numbers_rejected(self):
        for override in ({"k": 0}, {"delta": 0}, {"alpha": -1},
                         {"num_seeds": 0}, {"proxy_size": 0}):
            with pytest.raises(ValidationError):
                config_from_dict({**MINIMAL, **override})

    def test_file_dataset_needs_non_synthetic_embeddings(self):
        with pytest.raises(ValidationError):
            config_from_dict({
                "dataset": {"train_path": "a", "eval_path": "b"}})

    def test_http_backend_needs_endpoint(self):
        with pytest.raises(ValidationError):
            config_from_dict({**MINIMAL, "backend": {"type": "http"}})

    @pytest.mark.parametrize("override", [
        {"partition": {"labels_per_client": 0}},
        {"backend": {"type": "http", "endpoint": "ftp://x", "model": "m"}},
        {"ice_order": "sideways"},
        {"max_prompt_chars": 0},
        {"name": 3},
        {"k": None},
        {"train": {"learning_rate": "0.1"}},
        {"train": {"learning_rate": False}},
        {"backend": {"timeout": "30"}},
        {"embeddings": {"train_path": 1}},
        {"embeddings": 0},
    ])
    def test_stage_settings_checked_at_load(self, override):
        with pytest.raises(ValidationError):
            config_from_dict({**MINIMAL, **override})

    def test_synthetic_embedding_dim_is_the_synthetic_dim(self):
        # synthetic vectors are drawn at synthetic.dim: an embeddings.dim
        # set to another is refused, naming both, and an omitted one
        # records synthetic.dim
        with pytest.raises(ValidationError,
                           match="embeddings.dim 5 differs from "
                                 "synthetic.dim 4"):
            config_from_dict({**MINIMAL, "embeddings": {"dim": 5}})
        for embeddings in ({}, {"dim": 4}, {"source": "synthetic"}):
            cfg = config_from_dict({**MINIMAL, "embeddings": embeddings})
            assert cfg.embeddings.dim == 4
        assert config_from_dict(dict(MINIMAL)).embeddings.dim == 4

    def test_int_is_a_float_and_optional_takes_none(self):
        cfg = config_from_dict({**MINIMAL, "train": {"learning_rate": 1},
                                "embeddings": {"train_path": None}})
        assert cfg.train.learning_rate == 1

    def test_mock_backend_endpoint_unchecked(self):
        cfg = config_from_dict({**MINIMAL, "backend": {"endpoint": "ftp://x"}})
        assert cfg.backend.type == "mock"

    def test_to_dict_is_plain(self):
        cfg = config_from_dict(dict(MINIMAL))
        d = cfg.to_dict()
        assert d["synthetic"]["num_classes"] == 2
        assert isinstance(d["policies"], list)


class TestTrainConfig:
    def test_invalid_values(self):
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0)
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(validation_fraction=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(width=0)


class TestRoundTrip:
    # report.json records cfg.to_dict(); it must load back to the same config
    def test_demo_config(self):
        cfg = load_config(DEMO_CONFIG)
        assert config_from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets(self, preset):
        cfg = config_from_dict({"preset": preset, **MINIMAL})
        assert config_from_dict(cfg.to_dict()) == cfg


def test_import_loads_neither_numpy_nor_requests():
    # the config module is what a process imports to read a config; numpy
    # and requests are loaded only by the stages that use them
    src = os.path.dirname(os.path.dirname(icebudget.__file__))
    code = ("import sys, icebudget.config; "
            "print(sorted({'numpy', 'requests'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_no_requests():
    # every command imports the CLI; only the HTTP backend's post needs
    # requests, which costs about a third of the import
    src = os.path.dirname(os.path.dirname(icebudget.__file__))
    code = "import sys, icebudget.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


class TestLoadConfig:
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "seed: 11\n"
            "k: 6\n"
            "synthetic:\n"
            "  num_classes: 2\n"
            "  per_class_train: 10\n"
            "  per_class_eval: 10\n"
            "  dim: 4\n")
        cfg = load_config(path)
        assert cfg.seed == 11 and cfg.k == 6

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("k: [unclosed\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"name: caf\xe9\nk: 4\n")
        message = f"config file is not UTF-8: {path}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_config(path)

    def test_non_mapping_root(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ValidationError):
            load_config(path)
