"""Experiment configuration, dataset presets, and seed derivation.

Configs are YAML key-value trees validated into ExperimentConfig. A single
master seed deterministically derives every stage's seed through labeled
hashing, so changing one stage never perturbs another.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import yaml

from .errors import ValidationError

# The budget policies, by the names a config lists them under; federation
# validates BudgetPolicy.variant against the same tuple.
POLICY_VARIANTS = ("learned", "uniform", "random", "singleton",
                   "social_learning", "infinite", "proxy_only", "zero_shot")

# Per-dataset hyper-parameters used for the headline runs.
PRESETS = {
    "sst5":   {"k": 32, "num_clients": 4, "labels_per_client": 2,
               "proxy_size": 500, "delta": 3, "alpha": 0},
    "amazon": {"k": 8,  "num_clients": 2, "labels_per_client": 3,
               "proxy_size": 750, "delta": 2, "alpha": 0},
    "yelp":   {"k": 4,  "num_clients": 2, "labels_per_client": 3,
               "proxy_size": 750, "delta": 2, "alpha": 2},
    "mr":     {"k": 32, "num_clients": 4, "labels_per_client": 1,
               "proxy_size": 500, "delta": 3, "alpha": 0},
    "yahoo":  {"k": 4,  "num_clients": 2, "labels_per_client": 5,
               "proxy_size": 750, "delta": 2, "alpha": 2},
    "agnews": {"k": 4,  "num_clients": 2, "labels_per_client": 2,
               "proxy_size": 750, "delta": 2, "alpha": 2},
    "subj":   {"k": 32, "num_clients": 4, "labels_per_client": 1,
               "proxy_size": 500, "delta": 3, "alpha": 0},
}

def derive_seed(master: int, label: str) -> int:
    """Stable 63-bit seed for a named stage."""
    digest = hashlib.blake2b(f"{master}:{label}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class SyntheticSpec:
    num_classes: int = 4
    per_class_train: int = 250
    per_class_eval: int = 200
    dim: int = 8
    spread: float = 0.35
    scale: float = 1.0
    label_noise: float = 0.0  # applied to the training pool only


@dataclass
class DatasetSpec:
    train_path: str
    eval_path: str


@dataclass
class EmbeddingSpec:
    source: str = "synthetic"  # synthetic | hash | file
    dim: int = 8
    train_path: str | None = None
    eval_path: str | None = None

    def __post_init__(self):
        if self.source not in ("synthetic", "hash", "file"):
            raise ValidationError(f"unknown embedding source: {self.source}")
        if self.source == "file" and not (self.train_path and self.eval_path):
            raise ValidationError("file embeddings need train_path and eval_path")


@dataclass
class PartitionConfig:
    scheme: str = "noniid"  # noniid | iid
    num_clients: int = 4
    labels_per_client: int = 1

    def __post_init__(self):
        if self.scheme not in ("noniid", "iid"):
            raise ValidationError(f"unknown partition scheme: {self.scheme}")
        if self.num_clients < 1:
            raise ValidationError("num_clients must be >= 1")
        if self.labels_per_client < 1:
            raise ValidationError("labels_per_client must be >= 1")


@dataclass
class TrainConfig:
    """Allocator training settings, shared by every client of a run; each
    client's shuffle and init seeds are derived per run."""
    epochs: int = 800
    learning_rate: float = 0.01
    batch_size: int = 8
    width: int = 300
    validation_fraction: float = 0.0

    def __post_init__(self):
        if self.epochs <= 0:
            raise ValidationError("epochs must be positive")
        if self.learning_rate < 0:
            raise ValidationError("learning rate must be nonnegative")
        if self.batch_size < 1:
            raise ValidationError("batch size must be >= 1")
        if self.width < 1:
            raise ValidationError("width must be >= 1")
        if not 0 <= self.validation_fraction < 1:
            raise ValidationError("validation_fraction must be in [0, 1)")


@dataclass
class BackendSpec:
    type: str = "mock"  # mock | http
    endpoint: str = ""
    model: str = ""
    auth_env: str = "ICEBUDGET_API_KEY"
    timeout: float = 30.0
    max_retries: int = 3
    max_tokens: int = 8

    def __post_init__(self):
        if self.type not in ("mock", "http"):
            raise ValidationError(f"unknown backend type: {self.type}")
        if self.type != "http":
            return
        if not self.endpoint:
            raise ValidationError("http backend needs an endpoint")
        if not self.endpoint.startswith(("http://", "https://")):
            raise ValidationError(f"malformed endpoint URL: {self.endpoint}")


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    seed: int = 0
    num_seeds: int = 3
    k: int = 8
    delta: int = 1
    alpha: int = 0
    proxy_size: int = 300
    policies: list[str] = field(default_factory=lambda: ["uniform"])
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    synthetic: SyntheticSpec | None = None
    dataset: DatasetSpec | None = None
    embeddings: EmbeddingSpec = field(default_factory=EmbeddingSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    backend: BackendSpec = field(default_factory=BackendSpec)
    output_dir: str = "out"
    ice_order: str = "descending"
    max_prompt_chars: int = 1_000_000

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.delta < 1:
            raise ValidationError("delta must be >= 1")
        if self.alpha < 0:
            raise ValidationError("alpha must be >= 0")
        if self.num_seeds < 1:
            raise ValidationError("num_seeds must be >= 1")
        if self.proxy_size < 1:
            raise ValidationError("proxy_size must be >= 1")
        if not self.policies:
            raise ValidationError("at least one policy required")
        for i, policy in enumerate(self.policies):
            if policy not in POLICY_VARIANTS:
                raise ValidationError(f"unknown policy: {policy}")
            if policy in self.policies[:i]:
                raise ValidationError(f"policy {policy} is listed twice")
        if (self.synthetic is None) == (self.dataset is None):
            raise ValidationError(
                "config needs exactly one of 'synthetic' or 'dataset'")
        if self.dataset is not None and self.embeddings.source == "synthetic":
            raise ValidationError(
                "file datasets need 'hash' or 'file' embeddings")
        if (self.synthetic is not None
                and self.embeddings.dim != self.synthetic.dim):
            raise ValidationError(
                f"embeddings.dim {self.embeddings.dim} differs from "
                f"synthetic.dim {self.synthetic.dim}, the dimension synthetic "
                f"data is drawn at")
        if self.ice_order not in ("descending", "ascending"):
            raise ValidationError("ice_order must be descending or ascending")
        if self.max_prompt_chars < 1:
            raise ValidationError("max_prompt_chars must be >= 1")

    def to_dict(self) -> dict:
        def plain(obj):
            if obj is None or isinstance(obj, (int, float, str, bool)):
                return obj
            if isinstance(obj, list):
                return [plain(v) for v in obj]
            return {key: plain(val) for key, val in vars(obj).items()}

        return plain(self)


# The scalar field types a config value is checked against: an int field
# takes only ints, a float field ints or floats, a str field strings, and
# none of them a bool.
_SCALAR_TYPES = {"int": int, "float": (int, float), "str": str}


def _build(cls, values: dict, where: str = ""):
    """`cls(**values)`, each value first checked against its field's type
    (an optional field also takes None), so a misread setting fails at load
    rather than deep inside a stage."""
    for f in fields(cls):
        name = f.type.removesuffix(" | None")
        value = values.get(f.name)
        if (f.name not in values or name not in _SCALAR_TYPES
                or value is None and name != f.type):
            continue
        if isinstance(value, bool) or not isinstance(value, _SCALAR_TYPES[name]):
            raise ValidationError(f"{where}{f.name} must be {name}, got {value!r}")
    try:
        return cls(**values)
    except TypeError as exc:
        raise ValidationError(f"{where}{exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    preset_name = data.pop("preset", None)
    if preset_name is not None:
        preset = PRESETS.get(str(preset_name).lower())
        if preset is None:
            raise ValidationError(f"unknown preset: {preset_name}")
        for key in ("k", "delta", "alpha", "proxy_size"):
            data.setdefault(key, preset[key])
        part = data.get("partition", {})
        if not isinstance(part, dict):
            raise ValidationError("config section 'partition' must be a mapping")
        # a new dict: the caller's nested mapping stays as it was
        data["partition"] = {"scheme": "noniid",
                             "num_clients": preset["num_clients"],
                             "labels_per_client": preset["labels_per_client"],
                             **part}

    synthetic = data.get("synthetic")
    embeddings = {} if data.get("embeddings") is None else data["embeddings"]
    if isinstance(synthetic, dict) and isinstance(embeddings, dict):
        # an omitted dim is `synthetic.dim`; `__post_init__` refuses another
        data["embeddings"] = {"dim": synthetic.get("dim", SyntheticSpec.dim),
                              **embeddings}
    sections = {"partition": PartitionConfig, "synthetic": SyntheticSpec,
                "dataset": DatasetSpec, "embeddings": EmbeddingSpec,
                "train": TrainConfig, "backend": BackendSpec}
    kwargs = {}
    for key, cls in sections.items():
        section = data.pop(key, None)
        if section is None:  # the field's default
            continue
        if not isinstance(section, dict):
            raise ValidationError(f"config section '{key}' must be a mapping")
        kwargs[key] = _build(cls, section, f"config section '{key}': ")
    known = {f.name for f in fields(ExperimentConfig)} - sections.keys()
    for key in data:
        if key not in known:
            raise ValidationError(f"unknown config key: {key}")
    kwargs.update(data)
    return _build(ExperimentConfig, kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except UnicodeDecodeError:
        raise ValidationError(f"config file is not UTF-8: {path}") from None
    except yaml.YAMLError as exc:
        raise ValidationError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"config root must be a mapping: {path}")
    return config_from_dict(data)
