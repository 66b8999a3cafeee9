"""Exact top-k nearest-neighbor selection under L2 distance.

Ties are broken by ascending example id so transcripts are reproducible on
any platform. All distance comparisons happen in float64.
"""

from __future__ import annotations

import numpy as np

from .corpus import Dataset
from .embedder import EmbeddingStore
from .errors import ValidationError


class RankedSet:
    """Ordered (example id, distance) pairs, ascending by (distance, id),
    held as aligned int64 id and float64 distance arrays."""

    __slots__ = ("id_array", "distances")

    def __init__(self, entries=()):
        entries = tuple(entries)
        self.id_array = np.array([i for i, _ in entries], dtype=np.int64)
        self.distances = np.array([d for _, d in entries], dtype=np.float64)

    @classmethod
    def from_arrays(cls, ids: np.ndarray, distances: np.ndarray) -> "RankedSet":
        ranked = cls.__new__(cls)
        ranked.id_array, ranked.distances = ids, distances
        return ranked

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self.ids, self.distances.tolist()))

    def __len__(self):
        return len(self.id_array)

    def __iter__(self):
        return iter(self.entries)

    @property
    def ids(self) -> list[int]:
        return self.id_array.tolist()

    def id_set(self) -> set[int]:
        return set(self.ids)


def rank(ids: np.ndarray, distances: np.ndarray, k: int) -> RankedSet:
    """The k entries minimizing (distance, id)."""
    # lexsort's last key is primary: sort by distance, then id
    order = np.lexsort((ids, distances))[:k]
    return RankedSet.from_arrays(ids[order], distances[order])


def distance(a, b) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _rank(query: np.ndarray, ids: np.ndarray, matrix: np.ndarray, k: int) -> RankedSet:
    diffs = matrix - query
    return rank(ids, np.sqrt(np.einsum("ij,ij->i", diffs, diffs)), k)


def top_k(e_q, k: int, d: Dataset, store: EmbeddingStore) -> RankedSet:
    """The k entries of `d` minimizing (distance to e_q, id)."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    store.check_bound(d)
    query = np.asarray(e_q, dtype=np.float64)
    if query.shape != (store.dim,):
        raise ValidationError(
            f"query has shape {query.shape}, store dim is {store.dim}"
        )
    ids, matrix = store.matrix()
    return _rank(query, ids, matrix, k)


def merge_rerank(e_q, k: int, candidates, store: EmbeddingStore) -> RankedSet:
    """Top-k over the deduplicated union of candidate id collections, with
    distances recomputed from the store."""
    union = [c.id_array if isinstance(c, RankedSet)
             else np.asarray(list(c), dtype=np.int64) for c in candidates]
    sub = store.subset(np.concatenate(union) if union else [])
    return _rank(np.asarray(e_q, dtype=np.float64), *sub.matrix(), k)
