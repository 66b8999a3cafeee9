"""Oracle per-client budgets and the allocator supervision dataset.

The oracle budget of client c for a query counts the entries of the
server's rerank of the union of every client's local top-k
(`retrieval.rerank_union`, the routine the server uses at query time) that
the rerank attributes to c, as the server does to resolve its ICEs, so the
budgets sum to min(k, |union|). When the shards partition the corpus, as both
partitioners guarantee, that rerank is the global top-k, so the budget is
|local top-k ∩ global top-k| and the budgets sum to min(k, corpus size).
Budgets are quantized by floor division with `delta` to form class labels.

`oracle_budget` ranks one query; `construct_budget_dataset` ranks every
proxy query against each shard in one `retrieval.top_k_many` call, whose
rows are `top_k`'s, and gives each row `oracle_budget`'s counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset
from .embedder import EmbeddingStore
from .errors import ParseError, ValidationError, is_int
from .retrieval import RankedSet, rerank_union, top_k, top_k_many


@dataclass(frozen=True)
class BudgetDataset:
    """The allocator supervision set as one table: row i is proxy query
    `query_ids[i]`, its embedding and its oracle budget on each client."""
    query_ids: np.ndarray   # (N,)
    embeddings: np.ndarray  # (N, dim)
    raw_counts: np.ndarray  # (N, C)
    k: int
    delta: int

    @property
    def num_clients(self) -> int:
        return self.raw_counts.shape[1]

    @property
    def num_classes(self) -> int:
        return self.k // self.delta + 1

    @property
    def classes(self) -> np.ndarray:
        """(N, C) class labels: the budgets floor-divided by delta."""
        if self.delta < 1:
            raise ValidationError("delta must be >= 1")
        if np.any(self.raw_counts < 0):
            raise ValidationError("counts must be nonnegative")
        return self.raw_counts // self.delta

    def __len__(self):
        return len(self.query_ids)


def dequantize(cls: int, delta: int) -> int:
    """Lower bin edge: class * delta."""
    if delta < 1:
        raise ValidationError("delta must be >= 1")
    if cls < 0:
        raise ValidationError("class must be nonnegative")
    return cls * delta


def oracle_budget(e_q, k, shards, shard_stores) -> list[int]:
    """Per-client count of the entries of the rerank of the union of every
    client's local top-k that the rerank attributes to the client."""
    return _budgets([top_k(e_q, k, shard, store)
                     for shard, store in zip(shards, shard_stores)], k).tolist()


def _budgets(locals_, k) -> np.ndarray:
    """Per client, the entries of the rerank of `locals_` it owns."""
    return np.bincount(rerank_union(locals_, k)[1], minlength=len(locals_))


def construct_budget_dataset(proxy: Dataset, proxy_store: EmbeddingStore,
                             shards, shard_stores, k: int, delta: int
                             ) -> BudgetDataset:
    """The oracle budgets of every proxy example, in id order, from one
    `top_k_many` ranking of the proxy queries per shard."""
    if not shards:
        raise ValidationError("need at least one shard")
    if delta < 1:
        raise ValidationError("delta must be >= 1")
    proxy_store.check_bound(proxy)
    ids, x = proxy_store.matrix()
    # per shard, the (ids, distances) of each proxy query's local top-k
    ranked = [top_k_many(x, k, shard, store)
              for shard, store in zip(shards, shard_stores)]
    raw = np.empty((len(ids), len(shards)), dtype=np.int64)
    for i in range(len(ids)):
        raw[i] = _budgets([RankedSet(local_ids[i], distances[i])
                           for local_ids, distances in ranked], k)
    return BudgetDataset(ids, x, raw, k=k, delta=delta)


def save_budget_dataset(b: BudgetDataset, path):
    """JSONL: a header line with (C, k, delta), then one record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"C": b.num_clients, "k": b.k, "delta": b.delta}) + "\n")
        for query_id, vector, raw, classes in zip(
                b.query_ids.tolist(), b.embeddings.tolist(),
                b.raw_counts.tolist(), b.classes.tolist()):
            fh.write(json.dumps({"query_id": query_id, "vector": vector,
                                 "raw_counts": raw, "classes": classes}) + "\n")


def load_budget_dataset(path) -> BudgetDataset:
    """Read a file written by `save_budget_dataset`. C, k and delta must be
    positive integers; each record needs an integer query id, a vector of
    finite numbers as long as the first, C raw counts in [0, k] and classes
    equal to raw_counts // delta. A fault raises ParseError with its line."""
    with open(path, encoding="utf-8") as fh:
        lines = [(n, line) for n, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise ValidationError(f"empty budget dataset: {path}")
    head_line = lines[0][0]
    try:
        header = json.loads(lines[0][1])
        num_clients, k, delta = header["C"], header["k"], header["delta"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"bad budget dataset header: {exc}", line=head_line) from exc
    if not all(is_int(v) and v > 0 for v in (num_clients, k, delta)):
        raise ParseError("C, k and delta must be positive integers", line=head_line)
    query_ids, vectors, raws = [], [], []
    for lineno, line in lines[1:]:
        try:
            obj = json.loads(line)
            query_id, vector = obj["query_id"], obj["vector"]
            raw, classes = obj["raw_counts"], obj["classes"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad budget record: {exc}", line=lineno) from exc
        if not is_int(query_id):
            raise ParseError("query_id must be an integer", line=lineno)
        dim = len(vectors[0]) if vectors else None
        if not (isinstance(vector, list) and len(vector) == (dim or len(vector)) > 0
                and all(is_int(x) or isinstance(x, float) and math.isfinite(x)
                        for x in vector)):
            raise ParseError(f"vector must be {dim or 'a nonempty list of'} "
                             "finite numbers", line=lineno)
        if not (isinstance(raw, list) and len(raw) == num_clients
                and all(is_int(c) and 0 <= c <= k for c in raw)):
            raise ParseError(f"raw_counts must be {num_clients} integers in "
                             f"[0, {k}]", line=lineno)
        if classes != [c // delta for c in raw]:
            raise ParseError(f"classes must be raw_counts // {delta}", line=lineno)
        query_ids.append(query_id)
        vectors.append(vector)
        raws.append(raw)
    n = len(query_ids)
    return BudgetDataset(
        np.array(query_ids, dtype=np.int64),
        np.array(vectors, dtype=np.float64).reshape(n, len(vectors[0]) if n else 0),
        np.array(raws, dtype=np.int64).reshape(n, num_clients), k=k, delta=delta)
