"""Exact nearest-neighbor ranking under L2 distance.

This is the one module that ranks. `top_k` ranks one store: a client's
shard, the proxy set, or the whole corpus. `rerank_union` ranks what the
clients sent back: the server uses it for the final ICEs of every query, and
`oracle` uses it for the supervision set, so both see the same global top-k.
Both go through `rank`, which selects before it sorts: a partial selection
finds the k-th smallest distance, and only the entries not above it are
sorted, so a top-k costs one linear pass plus a sort of about k entries.

Ties are broken by ascending example id so transcripts are reproducible on
any platform. All distance comparisons happen in float64.
"""

from __future__ import annotations

import numpy as np

from .corpus import Dataset
from .embedder import EmbeddingStore
from .errors import ValidationError


class RankedSet:
    """Example ids ascending by (distance, id), held as aligned int64 id and
    float64 distance arrays."""

    __slots__ = ("id_array", "distances")

    def __init__(self, ids=(), distances=()):
        self.id_array = np.asarray(ids, dtype=np.int64)
        self.distances = np.asarray(distances, dtype=np.float64)

    def __len__(self):
        return len(self.id_array)

    @property
    def ids(self) -> list[int]:
        return self.id_array.tolist()

    def id_set(self) -> set[int]:
        return set(self.ids)


def rank(ids: np.ndarray, distances: np.ndarray, k: int) -> RankedSet:
    """The k entries minimizing (distance, id).

    With 0 < k < the entry count, `np.partition` finds the k-th smallest
    distance and only the entries not above it are sorted. That keeps every
    entry tied at the k-th distance, so the id tie-break sees all of them,
    and it keeps every entry when the k-th distance is NaN (NaNs sort last).
    The result equals a full sort's first k entries, byte for byte."""
    if 0 < k < len(distances):
        kth = np.partition(distances, k - 1)[k - 1]
        candidates = np.flatnonzero(~(distances > kth))
        ids, distances = ids[candidates], distances[candidates]
    # lexsort's last key is primary: sort by distance, then id
    order = np.lexsort((ids, distances))[:k]
    return RankedSet(ids[order], distances[order])


def query_vector(e_q, store: EmbeddingStore) -> np.ndarray:
    """`e_q` as a float64 vector of the store's dimension."""
    query = np.asarray(e_q, dtype=np.float64)
    if query.shape != (store.dim,):
        raise ValidationError(
            f"query has shape {query.shape}, store dim is {store.dim}"
        )
    return query


def top_k(e_q, k: int, d: Dataset, store: EmbeddingStore) -> RankedSet:
    """The k entries of `d` minimizing (distance to e_q, id)."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    store.check_bound(d)
    query = query_vector(e_q, store)
    ids, matrix = store.matrix()
    diffs = matrix - query
    return rank(ids, np.sqrt(np.einsum("ij,ij->i", diffs, diffs)), k)


def rerank_union(returned: list[RankedSet], k: int, rng=None):
    """Server side of one round: deduplicate the concatenated client returns
    by id, then order the picked entries by (distance, id) and keep the
    first k.

    The distances are the ones the clients computed, so nothing is looked up
    again. Without `rng` every union entry is a candidate (the reorder
    step); with it, min(k, |union|) entries are drawn uniformly first.
    Returns (union positions into the concatenation, sorted by id; the
    final RankedSet; the index of the client each final entry came from).
    """
    ids = np.concatenate([r.id_array for r in returned])
    distances = np.concatenate([r.distances for r in returned])
    owners = np.repeat(np.arange(len(returned)), [len(r) for r in returned])
    ids, first = np.unique(ids, return_index=True)
    distances, owners = distances[first], owners[first]
    pool = np.arange(len(ids))
    if rng is not None and len(ids):
        pool = rng.choice(len(ids), size=min(k, len(ids)), replace=False)
    final = rank(ids[pool], distances[pool], k)
    order = np.searchsorted(ids, final.id_array)
    return first, final, owners[order]
