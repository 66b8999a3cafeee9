"""Exact nearest-neighbor ranking under L2 distance.

This is the one module that ranks. `top_k_many` ranks a block of queries
against one store, a client's shard or the server's proxy set; each node
of a pass ranks the pass's whole block of test vectors in one call, and
`federation` keeps that block as the node's table. `top_k` is its
one-query form: it checks that the query is one vector of the store's
dimension, and returns the block's single row.
`rerank_many` ranks what the clients sent back, for a block of queries at
once: the server uses it for the final ICEs of a whole pass, and
`oracle.oracle_counts` for the oracle budgets of a block of queries, so
both see the same global top-k and attribute each of its entries to the
same client. It dedupes each query's returns by id, the first client
winning, and orders them with one (query, distance, id) sort;
`rerank_union` is its one-row form.

`top_k_many` computes exact distances only for the rows that can make a
query's top k. A prefilter (`_keep`) ranks every row by |x|^2/2 - x.q
against the store's cached squared norms, one matrix-matrix product per
block of queries, and keeps the rows within a certified rounding margin of
the k-th smallest value; the exact distances and the (query, distance, id)
sort then run on those rows alone, and give the full scan's ids and
distances byte for byte (the proof is in `_keep`). A query keeps every
row, and stays out of the product, when there is nothing to cut (k <= 0 or
k >= the row count), when it holds a NaN or an infinity, and for norms
large enough to overflow the prefilter.

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
# bytes of the temporaries of one block of `top_k_many` (its rows of P and
# of the keep mask, and its kept rows and their queries, gathered) or of
# `rerank_many`
_BLOCK_BYTES = 2 ** 18


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


def top_k(e_q, k: int, d: Dataset, store: EmbeddingStore) -> RankedSet:
    """The k entries of `d` minimizing (distance to e_q, id), for e_q one
    vector of the store's dimension: the one row of `top_k_many`."""
    query = np.asarray(e_q, dtype=np.float64)
    if query.shape != (store.dim,):
        raise ValidationError(
            f"query has shape {query.shape}, store dim is {store.dim}")
    ids, distances = top_k_many(query[None], k, d, store)
    return RankedSet(ids[0], distances[0])


def top_k_many(queries, k: int, d: Dataset, store: EmbeddingStore):
    """Row i holds the min(k, |d|) entries of `d` minimizing (distance to
    queries[i], id), a full scan's byte for byte, as aligned
    (m, min(k, |d|)) int64 id and float64 distance arrays.

    The queries are ranked in blocks sized by their temporaries
    (`_BLOCK_BYTES`): one product prefilters a block (`_keep`), the exact
    distances of its kept (query, row) pairs are computed as a full scan
    computes them, and one sort by (query, distance, id) orders them."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    store.check_bound(d)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != store.dim:
        raise ValidationError(
            f"queries have shape {queries.shape}, store dim is {store.dim}")
    ids, matrix = store.matrix()
    width = min(k, len(ids))
    out_ids = np.empty((len(queries), width), dtype=np.int64)
    out_distances = np.empty((len(queries), width))
    if not width:
        return out_ids, out_distances
    block = max(1, _BLOCK_BYTES // (9 * len(ids) + 16 * width * store.dim))
    for lo in range(0, len(queries), block):
        part = queries[lo:lo + block]
        which, rows = np.divmod(np.flatnonzero(_keep(part, k, store)), len(ids))
        distances = _distances(matrix, rows, part.take(which, axis=0))
        # The pairs come in (query, id) order, as the store's ids ascend, so
        # a stable sort by query, then distance, breaks ties by id; lexsort
        # is stable, and its last key is primary.
        order = np.lexsort((distances, which))
        # each query keeps at least `width` rows, a run of `order`
        starts = np.searchsorted(which, np.arange(len(part)))
        take = order[starts[:, None] + np.arange(width)]
        out_ids[lo:lo + len(part)] = ids.take(rows.take(take))
        out_distances[lo:lo + len(part)] = distances.take(take)
    return out_ids, out_distances


def _distances(matrix: np.ndarray, rows, queries: np.ndarray) -> np.ndarray:
    """The exact distance of each row of `matrix` at the positions `rows` to
    its query: the einsum of the squared differences, then the sqrt, as a
    full scan computes them."""
    diffs = matrix.take(rows, axis=0)
    diffs -= queries
    return np.sqrt(np.einsum("ij,ij->i", diffs, diffs))


def _margin(dim: int, scale):
    """The prefilter's certified margin for S + |q|^2 = `scale` (see
    `_keep`)."""
    return (32 * (dim + 4)) * (_UNIT * scale) + (dim + 4) * _FLOOR


def _keep(queries: np.ndarray, k: int, store: EmbeddingStore) -> np.ndarray:
    """The (m, n) mask of the rows that can be among the k nearest to each
    query, from one matrix-matrix product over the queries it can cut.

    Write q for a query, x_i for row i, E_i for the full scan's squared
    distance (its einsum of squared differences, before the sqrt), and
    P_i = |x_i|^2/2 - x_i.q, the product's entry against the store's cached
    half norms, so that 2 P_i + |q|^2 is the squared distance. With
    u = 2^-53, d the dimension, S the largest |x_i|^2 and
    gamma_n = n u / (1 - n u), rounding error analysis bounds
    |2 P_i + |q|^2 - E_i| by m0 = 4 gamma_{d+2} (S + |q|^2), plus 2d + 1
    subnormal steps for gradual underflow, whatever order the products x_i.q
    are summed in. The margin m (`_margin`) is 32 (d + 4) u (S + |q|^2) plus
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
    whichever other rows are kept, and whichever queries are ranked with
    it.)

    A query keeps every row, and stays out of the product, when k <= 0 or
    k >= the row count, or when S + |q|^2 exceeds 2^1000 (a query with a
    NaN or an infinity has a NaN or infinite |q|^2). Below that bound P, m
    and p + m are finite, so no row drops out on a NaN. Only the sum
    S + |q|^2 can overflow, and silently: einsum, unlike `@`, raises no
    overflow warning for |q|^2."""
    keep = np.ones((len(queries), len(store)), dtype=bool)
    if not 0 < k < len(store):
        return keep
    halves, largest = store.half_norms()
    with np.errstate(over="ignore"):
        scale = largest + np.einsum("ij,ij->i", queries, queries)
    cut = np.flatnonzero(scale <= _LIMIT)
    if len(cut):
        _, matrix = store.matrix()
        p = queries.take(cut, axis=0) @ matrix.T
        np.subtract(halves, p, out=p)
        bound = (np.partition(p, k - 1, axis=1)[:, k - 1]
                 + _margin(store.dim, scale.take(cut)))
        keep[cut] = p <= bound[:, None]
    return keep


def rerank_many(ids, distances, valid, k: int, rngs):
    """The server's rerank of m queries' client returns at once. Row i of
    the (m, w) `ids` and `distances` blocks holds what the clients returned
    for query i, their columns in client order, where the mask `valid` is
    set. Per row: deduplicate by id, the first column winning; unless
    `rngs` is None, draw min(k, |union|) entries of the row's union, in id
    order, with rngs[i] (one seeded draw per query); then order by
    (distance, id) and keep the first k. Returns the (rows, columns) of the
    kept entries, in (row, distance, id) order.

    The distances are the ones the clients computed, so nothing is looked
    up again. The rows are reranked in blocks sized by their temporaries
    (`_BLOCK_BYTES`)."""
    # about ten 8-byte temporaries per entry of a block
    block = max(1, _BLOCK_BYTES // (80 * max(1, valid.shape[1])))
    rows, columns = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(valid), block):
        part_rows, part_columns = _rerank_block(
            ids[lo:lo + block], distances[lo:lo + block],
            valid[lo:lo + block], k,
            None if rngs is None else rngs[lo:lo + block])
        rows.append(part_rows + lo)
        columns.append(part_columns)
    return np.concatenate(rows), np.concatenate(columns)


def _rerank_block(ids, distances, valid, k: int, rngs):
    """`rerank_many` of one block of rows."""
    rows, columns = np.nonzero(valid)  # (row, column) order
    picked = ids[rows, columns]
    # lexsort is stable and its last key primary: by (row, id), and among
    # one row's copies of an id the first column first
    order = np.lexsort((picked, rows))
    rows, columns, picked = rows[order], columns[order], picked[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (picked[1:] != picked[:-1])
    rows, columns, picked = rows[first], columns[first], picked[first]
    if rngs is not None:
        bounds = np.searchsorted(rows, np.arange(len(valid) + 1))
        pool = [start + rng.choice(end - start, size=min(k, end - start),
                                   replace=False)
                for rng, start, end in zip(rngs, bounds[:-1], bounds[1:])
                if end > start]
        pool = np.concatenate(pool) if pool else np.empty(0, dtype=np.intp)
        rows, columns, picked = rows[pool], columns[pool], picked[pool]
    order = np.lexsort((picked, distances[rows, columns], rows))
    rows, columns = rows[order], columns[order]
    keep = np.arange(len(rows)) - np.searchsorted(rows, rows) < k
    return rows[keep], columns[keep]


def rerank_union(returned: list[RankedSet], k: int, rng=None):
    """The one-row form of `rerank_many`, over the clients' returned ranked
    sets (at least one). Returns (the final RankedSet, for each final entry
    the index of the first client that returned its id)."""
    ids = np.concatenate([r.id_array for r in returned])[None]
    distances = np.concatenate([r.distances for r in returned])[None]
    owners = np.repeat(np.arange(len(returned)), [len(r) for r in returned])
    _, columns = rerank_many(ids, distances, np.ones(ids.shape, dtype=bool),
                             k, None if rng is None else [rng])
    return RankedSet(ids[0, columns], distances[0, columns]), owners[columns]
