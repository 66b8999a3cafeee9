"""Oracle per-client budgets and the allocator supervision dataset.

The oracle budget of client c for a query is the number of ids shared
between the client's local top-k and the top-k over the whole corpus.
Budgets are quantized by floor division with `delta` to form class labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset
from .embedder import EmbeddingStore
from .errors import ParseError, ValidationError
from .retrieval import merge_rerank, top_k


@dataclass(frozen=True)
class BudgetRecord:
    query_id: int
    embedding: np.ndarray
    raw_counts: tuple[int, ...]
    classes: tuple[int, ...]


@dataclass(frozen=True)
class BudgetDataset:
    records: tuple[BudgetRecord, ...]
    num_clients: int
    k: int
    delta: int

    @property
    def num_classes(self) -> int:
        return self.k // self.delta + 1

    def __len__(self):
        return len(self.records)

    def client_labels(self, client: int) -> np.ndarray:
        return np.array([r.classes[client] for r in self.records], dtype=np.int64)

    def embeddings(self) -> np.ndarray:
        return np.stack([r.embedding for r in self.records])


def quantize(count: int, delta: int) -> int:
    if delta < 1:
        raise ValidationError("delta must be >= 1")
    if count < 0:
        raise ValidationError("count must be nonnegative")
    return count // delta


def dequantize(cls: int, delta: int) -> int:
    """Lower bin edge: class * delta."""
    if delta < 1:
        raise ValidationError("delta must be >= 1")
    if cls < 0:
        raise ValidationError("class must be nonnegative")
    return cls * delta


def oracle_budget(e_q, k, shards, shard_stores, global_dataset, global_store):
    """Per-client count of ids shared between the client's local top-k and
    the global top-k."""
    global_ids = set(global_dataset.ids)
    for shard in shards:
        if not set(shard.ids) <= global_ids:
            raise ValidationError("shard ids are not a subset of the global dataset")
    global_top = top_k(e_q, k, global_dataset, global_store).id_set()
    counts = []
    for shard, store in zip(shards, shard_stores):
        local_top = top_k(e_q, k, shard, store).id_set()
        counts.append(len(local_top & global_top))
    return counts


def construct_budget_dataset(proxy: Dataset, proxy_store: EmbeddingStore,
                             shards, shard_stores, k: int, delta: int,
                             union_store: EmbeddingStore | None = None,
                             ) -> BudgetDataset:
    """One BudgetRecord per proxy example: each client returns its local
    top-k, the server reorders the union down to k, and per-client membership
    counts in that reordered set are quantized with `delta`.

    When the shards partition the retrieval corpus, the reordered set equals
    the global top-k and raw counts equal the oracle budgets.
    """
    if not shards:
        raise ValidationError("need at least one shard")
    if delta < 1:
        raise ValidationError("delta must be >= 1")
    proxy_store.check_bound(proxy)
    if union_store is None:
        ids, matrices = zip(*(store.matrix() for store in shard_stores))
        ids, first = np.unique(np.concatenate(ids), return_index=True)
        union_store = EmbeddingStore(ids, np.concatenate(matrices)[first])

    records = []
    for ex in proxy.examples:
        e_q = proxy_store.get(ex.id)
        locals_ = [top_k(e_q, k, shard, store)
                   for shard, store in zip(shards, shard_stores)]
        s_top = merge_rerank(e_q, k, locals_, union_store).id_set()
        raw = tuple(len(local.id_set() & s_top) for local in locals_)
        classes = tuple(quantize(c, delta) for c in raw)
        records.append(BudgetRecord(query_id=ex.id, embedding=e_q,
                                    raw_counts=raw, classes=classes))
    return BudgetDataset(tuple(records), num_clients=len(shards), k=k, delta=delta)


def save_budget_dataset(b: BudgetDataset, path):
    """JSONL: a header line with (C, k, delta), then one record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"C": b.num_clients, "k": b.k, "delta": b.delta}) + "\n")
        for r in b.records:
            fh.write(json.dumps({"query_id": r.query_id,
                                 "vector": r.embedding.tolist(),
                                 "raw_counts": list(r.raw_counts),
                                 "classes": list(r.classes)}) + "\n")


def load_budget_dataset(path) -> BudgetDataset:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in (l.strip() for l in fh) if line]
    if not lines:
        raise ValidationError(f"empty budget dataset: {path}")
    try:
        header = json.loads(lines[0])
        num_clients, k, delta = header["C"], header["k"], header["delta"]
    except (json.JSONDecodeError, KeyError) as exc:
        raise ParseError(f"bad budget dataset header: {exc}", line=1) from exc
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
            records.append(BudgetRecord(
                query_id=obj["query_id"],
                embedding=np.array(obj["vector"], dtype=np.float64),
                raw_counts=tuple(obj["raw_counts"]),
                classes=tuple(obj["classes"])))
        except (json.JSONDecodeError, KeyError) as exc:
            raise ParseError(f"bad budget record: {exc}", line=lineno) from exc
    return BudgetDataset(tuple(records), num_clients=num_clients, k=k, delta=delta)
