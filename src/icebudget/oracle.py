"""Oracle per-client budgets and the allocator supervision dataset.

The oracle budget of client c for a query counts the entries of the
server's rerank of the union of every client's local top-k
(`retrieval.rerank_many`, the routine the server plans its passes with)
that the rerank attributes to c, as the server does to resolve its ICEs, so
the budgets sum to min(k, |union|). When the shards partition the corpus,
as both partitioners guarantee, that rerank is the global top-k, so the
budget is |local top-k ∩ global top-k| and the budgets sum to
min(k, corpus size).
Budgets are quantized by floor division with `delta` to form class labels.

`oracle_budget` ranks and reranks one query (`top_k`, `rerank_union`);
`oracle_counts` ranks a block of queries against each shard in one
`retrieval.top_k_many` call, whose rows are `top_k`'s, reranks them all in
one `rerank_many` call and counts each row's owners, `oracle_budget`'s
counts. It gives the supervision set its budgets
(`construct_budget_dataset`) and the efficiency curve its recalls
(`harness.budget_efficiency_curve`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset
from .embedder import EmbeddingStore
from .errors import ParseError, ValidationError, is_int
from .retrieval import rerank_many, rerank_union, top_k, top_k_many


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


def dequantize(cls, delta: int):
    """Lower bin edge: class * delta, of one class or an array of them."""
    if delta < 1:
        raise ValidationError("delta must be >= 1")
    if np.any(np.less(cls, 0)):
        raise ValidationError("class must be nonnegative")
    return cls * delta


def oracle_budget(e_q, k, shards, shard_stores) -> list[int]:
    """Per-client count of the entries of the rerank of the union of every
    client's local top-k that the rerank attributes to the client."""
    owners = rerank_union([top_k(e_q, k, shard, store)
                           for shard, store in zip(shards, shard_stores)],
                          k)[1]
    return np.bincount(owners, minlength=len(shards)).tolist()


def oracle_counts(queries, k: int, shards, shard_stores) -> np.ndarray:
    """The (m, C) oracle budgets of the rows of `queries`: one `top_k_many`
    ranking per shard, one `rerank_many` of all of them, and one `bincount`
    of each row's owners, `oracle_budget`'s counts."""
    # per shard, the (ids, distances) of each query's local top-k
    ranked = [top_k_many(queries, k, shard, store)
              for shard, store in zip(shards, shard_stores)]
    owners = np.repeat(np.arange(len(shards)),
                       [shard_ids.shape[1] for shard_ids, _ in ranked])
    local_ids, distances = (np.concatenate(part, axis=1)
                            for part in zip(*ranked))
    rows, columns = rerank_many(local_ids, distances,
                                np.ones(local_ids.shape, dtype=bool), k, None)
    raw = np.bincount(rows * len(shards) + owners.take(columns),
                      minlength=len(queries) * len(shards))
    return raw.reshape(len(queries), len(shards))


def construct_budget_dataset(proxy: Dataset, proxy_store: EmbeddingStore,
                             shards, shard_stores, k: int, delta: int
                             ) -> BudgetDataset:
    """The `oracle_counts` of every proxy example, in id order."""
    if not shards:
        raise ValidationError("need at least one shard")
    if delta < 1:
        raise ValidationError("delta must be >= 1")
    proxy_store.check_bound(proxy)
    ids, x = proxy_store.matrix()
    return BudgetDataset(ids, x, oracle_counts(x, k, shards, shard_stores),
                         k=k, delta=delta)


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
