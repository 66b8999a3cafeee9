"""Datasets, client partitioning, proxy sampling, and the synthetic generator.

A Dataset is an immutable, ordered collection of labeled text examples.
Partitioners split it into per-client shards; `sample_proxy` carves the
server-side proxy set out of a held-out pool.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError, jsonl_values

MAX_ASSIGNMENT_RETRIES = 1000


@dataclass(frozen=True)
class Example:
    id: int
    text: str
    label: int


@dataclass(frozen=True)
class LabelSpace:
    count: int
    verbalizers: tuple[str, ...]

    def __post_init__(self):
        if self.count <= 0:
            raise ValidationError("label space must have at least one class")
        if len(self.verbalizers) != self.count:
            raise ValidationError(
                f"expected {self.count} verbalizers, got {len(self.verbalizers)}"
            )
        if len(set(self.verbalizers)) != self.count:
            raise ValidationError("verbalizers must be pairwise distinct")

    @staticmethod
    def default(count: int) -> "LabelSpace":
        return LabelSpace(count, tuple(f"class{i}" for i in range(count)))


@dataclass(frozen=True)
class Dataset:
    examples: tuple[Example, ...]
    labels: LabelSpace

    def __post_init__(self):
        prev = None
        for ex in self.examples:
            if prev is not None and ex.id <= prev:
                raise ValidationError("example ids must be strictly increasing")
            prev = ex.id
            if not ex.text:
                raise ValidationError(f"example {ex.id}: empty text")
            if not 0 <= ex.label < self.labels.count:
                raise ValidationError(
                    f"example {ex.id}: label {ex.label} outside [0, {self.labels.count})"
                )

    def __len__(self):
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    @property
    def ids(self) -> list[int]:
        return [ex.id for ex in self.examples]

    def id_index(self) -> dict[int, Example]:
        """id -> example, built on first use and kept with the dataset;
        callers must not mutate it."""
        cached = getattr(self, "_id_index", None)
        if cached is None:
            cached = {ex.id: ex for ex in self.examples}
            object.__setattr__(self, "_id_index", cached)
        return cached

    def subset(self, ids) -> "Dataset":
        """Examples with the given ids, kept in original dataset order."""
        wanted = set(ids)
        kept = tuple(ex for ex in self.examples if ex.id in wanted)
        if len(kept) != len(wanted):
            missing = wanted - {ex.id for ex in kept}
            raise ValidationError(f"unknown example ids: {sorted(missing)[:5]}")
        return Dataset(kept, self.labels)


def load_dataset(path) -> Dataset:
    """Read a JSONL dataset: one {"text", "label"} record per line.

    An optional header {"label_space": [...]} on the first non-blank line
    supplies verbalizers; otherwise the label space is inferred as
    0..max(label).
    """
    records = []
    labels = None
    for lineno, obj in jsonl_values(path):
        if not isinstance(obj, dict):
            raise ParseError("record must be a JSON object", line=lineno)
        if not records and labels is None and "label_space" in obj:
            verbalizers = obj["label_space"]
            if not (isinstance(verbalizers, list)
                    and all(isinstance(v, str) for v in verbalizers)):
                raise ParseError("label_space must be a list of strings",
                                 line=lineno)
            try:
                labels = LabelSpace(len(verbalizers), tuple(verbalizers))
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            continue
        if "text" not in obj or "label" not in obj:
            raise ParseError("record needs 'text' and 'label' fields", line=lineno)
        text, label = obj["text"], obj["label"]
        # JSON admits a lone surrogate ("\ud83d"); UTF-8 replaces it
        if (not isinstance(text, str)
                or text.encode(errors="replace").decode() != text):
            raise ParseError("text must be a UTF-8 string", line=lineno)
        if not text:
            raise ParseError("empty text", line=lineno)
        if not isinstance(label, int) or isinstance(label, bool):
            raise ParseError("label must be an integer", line=lineno)
        records.append((lineno, text, label))
    if not records:
        raise ValidationError(f"empty dataset: {path}")

    if labels is None:
        labels = LabelSpace.default(max(r[2] for r in records) + 1)
    examples = []
    for i, (lineno, text, label) in enumerate(records):
        if not 0 <= label < labels.count:
            raise ParseError(
                f"label {label} outside [0, {labels.count})", line=lineno
            )
        examples.append(Example(id=i, text=text, label=label))
    return Dataset(tuple(examples), labels)


def partition_noniid(d: Dataset, num_clients: int, labels_per_client: int,
                     seed: int) -> list[Dataset]:
    """Class-based non-IID split: each client gets samples from exactly
    `labels_per_client` randomly assigned classes; a class held by several
    clients is split into near-equal contiguous parts.

    The class assignment is redrawn until every class is covered, up to
    MAX_ASSIGNMENT_RETRIES attempts.
    """
    gamma = labels_per_client
    num_classes = d.labels.count
    if gamma > num_classes:
        raise ValidationError(
            f"labels_per_client={gamma} exceeds number of classes {num_classes}"
        )
    if num_clients * gamma < num_classes:
        raise ValidationError(
            "assignment cannot cover all classes: "
            f"{num_clients} clients x {gamma} labels < {num_classes} classes"
        )
    rng = np.random.default_rng(seed)
    assignment = None
    for _ in range(MAX_ASSIGNMENT_RETRIES):
        candidate = [
            sorted(rng.choice(num_classes, size=gamma, replace=False).tolist())
            for _ in range(num_clients)
        ]
        covered = set()
        for classes in candidate:
            covered.update(classes)
        if covered == set(range(num_classes)):
            assignment = candidate
            break
    if assignment is None:
        raise ValidationError(
            f"could not cover all {num_classes} classes after "
            f"{MAX_ASSIGNMENT_RETRIES} assignment draws"
        )

    by_class: dict[int, list[Example]] = {c: [] for c in range(num_classes)}
    for ex in d.examples:
        by_class[ex.label].append(ex)

    shard_members: list[list[Example]] = [[] for _ in range(num_clients)]
    for cls in range(num_classes):
        holders = [c for c in range(num_clients) if cls in assignment[c]]
        parts = _split_near_equal(by_class[cls], len(holders))
        for client, part in zip(holders, parts):
            shard_members[client].extend(part)

    shards = []
    for members in shard_members:
        members.sort(key=lambda ex: ex.id)
        shards.append(Dataset(tuple(members), d.labels))
    return shards


def _split_near_equal(items: list, parts: int) -> list[list]:
    """Contiguous split into `parts` pieces; the first len(items) % parts
    pieces take one extra element."""
    base, extra = divmod(len(items), parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(items[start : start + size])
        start += size
    return out


def partition_iid(d: Dataset, num_clients: int, seed: int) -> list[Dataset]:
    """Seeded shuffle then round-robin; shard sizes differ by at most one."""
    if num_clients < 1:
        raise ValidationError("num_clients must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(d.examples))
    shard_members: list[list[Example]] = [[] for _ in range(num_clients)]
    for pos, idx in enumerate(order):
        shard_members[pos % num_clients].append(d.examples[idx])
    shards = []
    for members in shard_members:
        members.sort(key=lambda ex: ex.id)
        shards.append(Dataset(tuple(members), d.labels))
    return shards


def sample_proxy(d: Dataset, n: int, seed: int) -> tuple[Dataset, Dataset]:
    """Draw n examples without replacement as the proxy set; the rest is the
    remainder (both in original order)."""
    if not 0 < n < len(d):
        raise ValidationError(f"proxy size {n} must be in (0, {len(d)})")
    rng = np.random.default_rng(seed)
    chosen_pos = set(rng.choice(len(d.examples), size=n, replace=False).tolist())
    proxy = tuple(ex for i, ex in enumerate(d.examples) if i in chosen_pos)
    rest = tuple(ex for i, ex in enumerate(d.examples) if i not in chosen_pos)
    return Dataset(proxy, d.labels), Dataset(rest, d.labels)


def synth_clusters(num_classes, per_class, dim, spread, seed, id_offset=0,
                   means_seed=None, scale=1.0, label_noise=0.0):
    """Gaussian cluster per class with unit-norm random means; each example's
    embedding is its sampled point.

    Returns (Dataset, EmbeddingStore). `spread` is the per-coordinate std of
    each cluster; 0 collapses every class onto its mean. Passing the same
    `means_seed` to two calls (e.g. a train corpus and a query pool) gives
    them identical class means while the points stay independent. `scale`
    multiplies the whole point cloud, controlling the absolute distance
    magnitudes seen downstream without changing the geometry. `label_noise`
    is the fraction of each class's examples whose point is drawn from a
    uniformly chosen *other* class's cluster while keeping the original
    label, mimicking mislabeled or ambiguous corpus entries.
    """
    from .embedder import EmbeddingStore  # local import to avoid a cycle

    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValidationError("num_classes, per_class, and dim must be positive")
    if spread < 0:
        raise ValidationError("spread must be nonnegative")
    rng = np.random.default_rng(seed)
    means_rng = np.random.default_rng(seed if means_seed is None else means_seed)
    means = means_rng.standard_normal((num_classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)

    examples = []
    vectors = {}
    next_id = id_offset
    if scale <= 0:
        raise ValidationError("scale must be positive")
    if not 0 <= label_noise < 1:
        raise ValidationError("label_noise must be in [0, 1)")
    for cls in range(num_classes):
        centers = np.repeat(means[cls][None, :], per_class, axis=0)
        if label_noise > 0 and num_classes > 1:
            flip = rng.random(per_class) < label_noise
            others = [c for c in range(num_classes) if c != cls]
            centers[flip] = means[rng.choice(others, size=int(flip.sum()))]
        points = scale * (centers + spread * rng.standard_normal((per_class, dim)))
        for j in range(per_class):
            examples.append(
                Example(id=next_id, text=f"synthetic sample {next_id} (class {cls})",
                        label=cls)
            )
            vectors[next_id] = points[j]
            next_id += 1
    dataset = Dataset(tuple(examples), LabelSpace.default(num_classes))
    store = EmbeddingStore.from_dict(dim, vectors)
    return dataset, store


def write_shard_manifest(shards: list[Dataset], path):
    """JSON manifest listing each client's member example ids."""
    manifest = {"num_clients": len(shards),
                "shards": [shard.ids for shard in shards]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True)
        fh.write("\n")


def load_shard_manifest(d: Dataset, path) -> list[Dataset]:
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    return [d.subset(ids) for ids in manifest["shards"]]
