"""Exact nearest-neighbor ranking under L2 distance.

This is the one module that ranks. `top_k` ranks one store: a client's
shard, the proxy set, or the whole corpus. `rerank_union` ranks what the
clients sent back: the server uses it for the final ICEs of every query, and
`oracle` uses it for the supervision set, so both see the same global top-k
and attribute each of its entries to the same client. `top_k` and
`rerank_union` order their entries through `rank`, one (distance, id) sort.

`top_k` computes exact distances only for the rows that can make its top
k. A prefilter ranks every row by |x|^2/2 - x.q, one matrix-vector product
against the store's cached squared norms, and keeps the rows within a
certified rounding margin of the k-th smallest value; the exact distances
and `rank` then run on those rows alone, and give the full scan's ids and
distances byte for byte (the proof is in `_prefilter`). Every row is
scanned when there is nothing to cut (k <= 0 or k >= the row count), for a
query with a NaN or an infinity, and for norms large enough to overflow the
prefilter.

Ties are broken by ascending example id so transcripts are reproducible on
any platform. All distance comparisons happen in float64.
"""

from __future__ import annotations

import numpy as np

from .corpus import Dataset
from .embedder import EmbeddingStore
from .errors import ValidationError

_UNIT = 2.0 ** -53  # unit roundoff of float64
_FLOOR = 8 * np.finfo(np.float64).smallest_subnormal
_LIMIT = 2.0 ** 1000  # the prefilter's bound on S + |q|^2


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
    """The k entries minimizing (distance, id); NaN distances sort last."""
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
    """The k entries of `d` minimizing (distance to e_q, id): a full scan's,
    byte for byte, with exact distances computed only for the rows
    `_prefilter` keeps."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    store.check_bound(d)
    query = query_vector(e_q, store)
    ids, matrix = store.matrix()
    rows = _prefilter(query, k, store)
    if rows is not None:
        ids, matrix = ids.take(rows), matrix.take(rows, axis=0)
    diffs = matrix - query
    return rank(ids, np.sqrt(np.einsum("ij,ij->i", diffs, diffs)), k)


def _prefilter(query: np.ndarray, k: int, store: EmbeddingStore):
    """Positions of the rows that can be among the k nearest to `query`, or
    None to scan every row.

    Write q for the query, x_i for row i, E_i for the full scan's squared
    distance (its einsum of squared differences, before the sqrt), and
    P_i = |x_i|^2/2 - x_i.q, one GEMV against the store's cached half norms,
    so that 2 P_i + |q|^2 is the squared distance. With u = 2^-53, d the
    dimension, S the largest |x_i|^2 and gamma_n = n u / (1 - n u),
    rounding error analysis bounds |2 P_i + |q|^2 - E_i| by
    m0 = 4 gamma_{d+2} (S + |q|^2), plus 2d + 1 subnormal steps for
    gradual underflow. The margin m is 32 (d + 4) u (S + |q|^2) plus
    8 (d + 4) subnormal steps, about eight times m0.

    Every row that the full scan ranks in its top k has P_i <= p + m, with
    p the k-th smallest P. The k rows with P <= p have E <= 2p + |q|^2 + m0,
    so the k-th smallest E, e, is at most that. A row j that the full scan
    ranks has a rounded sqrt(E_j) no larger than the rounded sqrt(e), tied
    with it or not; sqrt is monotone and correctly rounded, so E_j <=
    e (1 + 5u) even when the two roots round together. Then 2 P_j + |q|^2
    <= E_j + m0 <= 2p + |q|^2 + 2 m0 + 5u e, so P_j <= p + m0 + 2.5u e.
    As e is about 2 (S + |q|^2) at most, that is far below p + m, and the
    slack covers the rounding of |q|^2, of the norms and of p + m too. So
    the kept rows hold every row the full scan ranks, each tie at its k-th
    distance included, and `rank` over their exact distances returns what
    it returns over all rows. (Each row's exact distance is computed alike
    whichever other rows are kept.)

    All rows are scanned when k <= 0 or k >= the row count, or when
    S + |q|^2 exceeds 2^1000 (a query with a NaN or an infinity has a NaN or
    infinite |q|^2). Below that bound P, m and p + m are finite, so no row
    drops out on a NaN; and nothing warns, since einsum, unlike `@`, raises
    no overflow warning for |q|^2 and a Python float sum overflows
    silently."""
    if not 0 < k < len(store):
        return None
    halves, largest = store.half_norms()
    scale = largest + float(np.einsum("i,i->", query, query))
    if not scale <= _LIMIT:
        return None
    _, matrix = store.matrix()
    p = matrix @ query
    np.subtract(halves, p, out=p)
    margin = ((32 * (store.dim + 4)) * (_UNIT * scale)
              + (store.dim + 4) * _FLOOR)
    return np.flatnonzero(p <= np.partition(p, k - 1)[k - 1] + margin)


def rerank_union(returned: list[RankedSet], k: int, rng=None):
    """Server side of one round: deduplicate the concatenated client returns
    by id, then order the picked entries by (distance, id) and keep the
    first k. Returns (the final RankedSet, for each final entry the index of
    the first client that returned its id).

    The distances are the ones the clients computed, so nothing is looked up
    again. Without `rng` every union entry is a candidate (the reorder
    step); with it, min(k, |union|) entries are drawn uniformly first. A
    RankedSet holds distinct ids in (distance, id) order, so without a draw
    one non-empty return's first k is the rerank, taken as it stands."""
    senders = [c for c, ranked in enumerate(returned) if len(ranked)]
    if rng is None and len(senders) == 1:
        ranked = returned[senders[0]]
        final = RankedSet(ranked.id_array[:k], ranked.distances[:k])
        return final, np.full(len(final), senders[0])
    ids = np.concatenate([r.id_array for r in returned])
    distances = np.concatenate([r.distances for r in returned])
    owners = np.repeat(np.arange(len(returned)), [len(r) for r in returned])
    ids, first = np.unique(ids, return_index=True)
    distances, owners = distances[first], owners[first]
    pool = np.arange(len(ids))
    if rng is not None and len(ids):
        pool = rng.choice(len(ids), size=min(k, len(ids)), replace=False)
    final = rank(ids[pool], distances[pool], k)
    return final, owners[np.searchsorted(ids, final.id_array)]
