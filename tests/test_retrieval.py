import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icebudget import parallel, retrieval
from icebudget.corpus import Dataset, Example, LabelSpace
from icebudget.embedder import EmbeddingStore
from icebudget.errors import ValidationError
from icebudget.retrieval import RankedSet, rerank_union, top_k, top_k_many

from conftest import brute_force_topk, make_world, ranked_entries


class TestTopK:
    def test_matches_brute_force(self, small_world):
        d, store = small_world
        rng = np.random.default_rng(0)
        for _ in range(50):
            e_q = rng.standard_normal(store.dim)
            k = int(rng.integers(1, len(d) + 5))
            got = top_k(e_q, k, d, store).ids
            assert got == brute_force_topk(e_q, k, d, store)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 60),
           dim=st.integers(1, 8), k=st.integers(0, 70))
    def test_matches_brute_force_property(self, seed, n, dim, k):
        d, store = make_world(n, dim, seed)
        e_q = np.random.default_rng(seed + 1).standard_normal(dim)
        assert top_k(e_q, k, d, store).ids == brute_force_topk(e_q, k, d, store)

    def test_distance_ties_break_by_id(self):
        # two points equidistant from the query: lower id must come first
        d = Dataset((Example(4, "a", 0), Example(9, "b", 0)),
                    LabelSpace.default(1))
        store = EmbeddingStore.from_dict(1, {4: [1.0], 9: [-1.0]})
        assert top_k([0.0], 2, d, store).ids == [4, 9]

    def test_k_larger_than_corpus(self, small_world):
        d, store = small_world
        assert len(top_k(np.zeros(store.dim), 1000, d, store)) == len(d)

    def test_entries_sorted(self, small_world):
        d, store = small_world
        ranked = top_k(np.zeros(store.dim), 10, d, store)
        dists = ranked.distances.tolist()
        assert dists == sorted(dists)

    def test_negative_k_rejected(self, small_world):
        d, store = small_world
        with pytest.raises(ValidationError):
            top_k(np.zeros(store.dim), -1, d, store)

    def test_unbound_store_rejected(self, small_world):
        d, store = small_world
        with pytest.raises(ValidationError):
            top_k(np.zeros(store.dim), 1, d, store.subset([0, 1]))


def _full_sort(ids, distances, k):
    """The reference: the first k entries of a full (distance, id) sort."""
    order = np.lexsort((ids, distances))[:k]
    return ids[order], distances[order]


def _grid_world(seed):
    """Points drawn with repeats from a coarse grid: many exact distance
    ties, some of them at the k-th distance."""
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(2, 50)), int(rng.integers(1, 4))
    grid = rng.integers(-2, 3, size=(5, dim)) * 0.5
    ids = np.sort(rng.choice(10 * n, size=n, replace=False))
    d = Dataset(tuple(Example(int(i), f"point {i}", 0) for i in ids),
                LabelSpace.default(1))
    return d, EmbeddingStore(ids, grid[rng.integers(len(grid), size=n)]), grid


class TestEqualsFullSort:
    @pytest.mark.parametrize("seed", range(20))
    def test_top_k_equals_full_sort_on_tied_grids(self, seed):
        d, store, grid = _grid_world(seed)
        ids, matrix = store.matrix()
        n, dim = len(d), store.dim
        rng = np.random.default_rng(seed)
        queries = [grid[int(rng.integers(len(grid)))],
                   rng.standard_normal(dim)]
        for bad in (np.nan, np.inf, -np.inf):
            query = rng.standard_normal(dim)
            query[int(rng.integers(dim))] = bad
            queries.append(query)
        for e_q in queries:
            diffs = matrix - e_q
            distances = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            for k in (0, 1, n - 1, n, n + 1):
                got = top_k(e_q, k, d, store)
                want_ids, want_distances = _full_sort(ids, distances, k)
                assert got.id_array.tobytes() == want_ids.tobytes(), k
                assert got.distances.tobytes() == want_distances.tobytes(), k

    @settings(deadline=None, max_examples=200)
    @given(values=st.lists(st.sampled_from(
               [0.0, 0.5, 1.0, 1.0, 2.0, np.inf, np.nan]), max_size=30),
           seed=st.integers(0, 10_000), extra=st.integers(0, 2))
    def test_rerank_equals_full_sort_with_nan_and_inf(self, values, seed,
                                                      extra):
        # NaN and inf distances cannot come from a valid store and a finite
        # query, so the rerank is driven directly with them
        distances = np.array(values, dtype=np.float64)
        ids = np.random.default_rng(seed).permutation(len(values)).astype(
            np.int64)
        for k in range(len(values) + extra + 1):
            got = rerank_union([RankedSet(ids, distances)], k)[0]
            want_ids, want_distances = _full_sort(ids, distances, k)
            assert got.id_array.tobytes() == want_ids.tobytes()
            assert got.distances.tobytes() == want_distances.tobytes()


def _full_scan(e_q, k, store):
    """The reference: every row's distance, then a full sort's first k."""
    ids, matrix = store.matrix()
    diffs = matrix - e_q
    return _full_sort(ids, np.sqrt(np.einsum("ij,ij->i", diffs, diffs)), k)


def _bound(store):
    return Dataset(tuple(Example(int(i), f"point {i}", 0) for i in store.ids),
                   LabelSpace.default(1))


# Each kind of store: how its rows are drawn from (rng, n, dim, exponent)
_ROWS = {
    # a coarse integer grid: many exact ties, at the k-th distance too
    "grid": lambda rng, n, dim, e: rng.integers(-2, 3, (n, dim)) * 1.0,
    # the demo's clusters at its 1e-7 scale
    "demo": lambda rng, n, dim, e: 1e-7 * (
        rng.standard_normal((4, dim))[rng.integers(4, size=n)]
        + 0.2 * rng.standard_normal((n, dim))),
    # a tight grid far from the origin: |x|^2 - 2 x.q cancels down to
    # about the gaps between distances, which tie or round together in sqrt
    "far": lambda rng, n, dim, e: 2.0 ** (e + 535) * (
        1 + 2.0 ** -26 * rng.integers(-3, 4, (n, dim))),
    # squares in the subnormal range, some of them flushed to zero, where
    # the margin's relative part underflows and its floor must hold
    "subnormal": lambda rng, n, dim, e: 2.0 ** e * rng.standard_normal(
        (n, dim)),
    # norms either side of 2^1000 and up to overflow: above it the full
    # scan runs instead
    "huge": lambda rng, n, dim, e: 2.0 ** (e + 1035) * rng.standard_normal(
        (n, dim)),
}


class TestPrefilter:
    """`top_k` ranks only the rows `_keep` keeps for its query (its ids and
    distances are the full scan's, byte for byte: see `TestTopKMany`)."""

    def test_keeps_few_rows(self):
        rng = np.random.default_rng(0)
        store = EmbeddingStore(np.arange(600), rng.standard_normal((600, 64)))
        kept = retrieval._keep(rng.standard_normal((20, 64)), 32,
                               store).sum(axis=1)
        assert (32 <= kept).all() and (kept < 40).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_or_huge_query_scans_all(self, small_world, bad):
        d, store = small_world
        query = np.zeros(store.dim)
        query[1] = bad
        # the bad query keeps every row; a good one beside it is still cut
        keep = retrieval._keep(np.stack([query, np.zeros(store.dim)]), 3,
                               store)
        assert keep[0].all() and not keep[1].all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = top_k(query, 3, d, store)
        want_ids, want_distances = _full_scan(query, 3, store)
        assert got.id_array.tobytes() == want_ids.tobytes()
        assert got.distances.tobytes() == want_distances.tobytes()

    def test_subset_computes_its_own_norms(self, small_world):
        _, store = small_world
        store.half_norms()
        sub = store.subset([3, 5, 8])
        halves, largest = sub.half_norms()
        _, rows = sub.matrix()
        squared = np.einsum("ij,ij->i", rows, rows)
        assert halves.tobytes() == (0.5 * squared).tobytes()
        assert largest == squared.max()

    def test_forked_child_computes_its_own_norms(self, monkeypatch):
        monkeypatch.setattr(parallel, "processes", lambda: 2)
        d, store = make_world(50, 6, seed=4)
        queries = np.random.default_rng(5).standard_normal((4, 6))
        found = np.zeros((4, 5), dtype=np.int64)
        cached = np.zeros(4, dtype=bool)  # norms kept before the call

        def work(lo, hi):
            for i in range(lo, hi):
                cached[i] = store._half_norms is not None
                found[i] = top_k(queries[i], 5, d, store).id_array

        # every range runs in a child while this process waits
        parallel.fill(4, work, [found, cached], lambda lo, hi: "queries",
                      alongside=lambda: None)
        assert store._half_norms is None  # nothing came back with the rows
        assert cached.tolist() == [False, True, False, True]  # two ranges
        for query, ids in zip(queries, found):
            assert ids.tolist() == _full_scan(query, 5, store)[0].tolist()


# A query of a batch: a row of the store, a fresh draw, or a fresh draw with
# one component that sends it to the full scan
_BAD = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "huge": 1e200}


@st.composite
def _batch_cases(draw):
    """(store, queries, k, queries per block) of one kind of store; a batch
    of one query is ranked by `top_k`."""
    kind = draw(st.sampled_from(sorted(_ROWS)))
    n, dim = draw(st.integers(2, 60)), draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    exponent = draw(st.integers(-545, -525))
    size = draw(st.integers(0, 12))
    sources = draw(st.lists(st.sampled_from(["row", "fresh", *sorted(_BAD)]),
                            min_size=size, max_size=size))
    rng = np.random.default_rng(seed)
    rows = _ROWS[kind](rng, n + len(sources), dim, exponent)
    queries = rows[n:].reshape(len(sources), dim)
    for query, source in zip(queries, sources):
        if source == "row":
            query[:] = rows[int(rng.integers(n))]
        elif source in _BAD:
            query[int(rng.integers(dim))] = _BAD[source]
    store = EmbeddingStore(np.arange(n), rows[:n])
    k = draw(st.sampled_from([0, 1, draw(st.integers(1, n - 1)), n - 1, n,
                              n + 3]))
    return store, queries, k, draw(st.integers(1, 5))


def _hard_batch(kind, exponent):
    """8 fresh queries against 30 rows of `kind`, k = 5, 3 queries a block:
    rows that only the margin's floor ("subnormal", where its relative part
    underflows) or only its relative part ("far") keeps in the top k."""
    rows = _ROWS[kind](np.random.default_rng(0), 38, 3, exponent)
    return EmbeddingStore(np.arange(30), rows[:30]), rows[30:], 5, 3


@settings(deadline=None, max_examples=600, derandomize=True)
@given(case=_batch_cases())
@example(case=_hard_batch("subnormal", -537))
@example(case=_hard_batch("far", -535))
def _batch_equals_full_scan(case):
    store, queries, k, per_block = case
    width = min(k, len(store))
    # blocks of `per_block` queries, the last one partial when it can be
    block_bytes = per_block * (9 * len(store) + 16 * width * store.dim)
    with warnings.catch_warnings(), mock.patch.object(
            retrieval, "_BLOCK_BYTES", block_bytes):
        warnings.simplefilter("error")
        if len(queries) == 1:
            got = top_k(queries[0], k, _bound(store), store)
            ids, distances = got.id_array[None], got.distances[None]
        else:
            ids, distances = top_k_many(queries, k, _bound(store), store)
    assert ids.shape == distances.shape == (len(queries), width)
    for query, got_ids, got_distances in zip(queries, ids, distances):
        want_ids, want_distances = _full_scan(query, k, store)
        assert got_ids.tobytes() == want_ids.tobytes()
        assert got_distances.tobytes() == want_distances.tobytes()


class TestTopKMany:
    """Each row of `top_k_many`, and `top_k`'s one row, must be the full
    scan's, byte for byte, in every block, for every kind of store and
    query."""

    def test_equals_full_scan(self):
        _batch_equals_full_scan()

    def test_narrowed_margin_fails(self, monkeypatch):
        # with no margin the filter drops rows the full scan ranks
        monkeypatch.setattr(retrieval, "_UNIT", 0.0)
        monkeypatch.setattr(retrieval, "_FLOOR", 0.0)
        with pytest.raises(AssertionError):
            _batch_equals_full_scan()

    def test_rows_equal_top_k(self, small_world):
        d, store = small_world
        queries = np.random.default_rng(2).standard_normal((30, store.dim))
        for k in (0, 1, 7, len(d), len(d) + 1):
            ids, distances = top_k_many(queries, k, d, store)
            for query, got_ids, got_distances in zip(queries, ids, distances):
                want = top_k(query, k, d, store)
                assert got_ids.tobytes() == want.id_array.tobytes()
                assert got_distances.tobytes() == want.distances.tobytes()

    def test_bad_arguments_rejected(self, small_world):
        d, store = small_world
        with pytest.raises(ValidationError):
            top_k_many(np.zeros((2, store.dim)), -1, d, store)
        with pytest.raises(ValidationError):
            top_k_many(np.zeros(store.dim), 1, d, store)
        with pytest.raises(ValidationError):
            top_k_many(np.zeros((2, store.dim + 1)), 1, d, store)
        with pytest.raises(ValidationError):
            top_k_many(np.zeros((2, store.dim)), 1, d, store.subset([0, 1]))


def _returns(e_q, groups, d, store):
    """Each id group as one client's return: its local top-|group|."""
    return [top_k(e_q, len(g), d.subset(g), store.subset(g)) for g in groups]


class TestMergeRerank:
    """`rerank_union`: the server merges the clients' returns and reranks."""

    def test_equals_topk_over_union(self, small_world):
        d, store = small_world
        rng = np.random.default_rng(2)
        e_q = rng.standard_normal(store.dim)
        groups = [[0, 1, 2, 3], [2, 3, 4, 5], [10, 11]]
        union = sorted({i for g in groups for i in g})
        got = rerank_union(_returns(e_q, groups, d, store), 4)[0]
        expected = top_k(e_q, 4, d.subset(union), store.subset(union))
        assert got.ids == expected.ids

    def test_duplicates_collapse(self, small_world):
        d, store = small_world
        e_q = np.zeros(store.dim)
        once = rerank_union(_returns(e_q, [[0, 1, 2]], d, store), 5)[0]
        twice = rerank_union(_returns(e_q, [[0, 1, 2], [2, 1, 0]], d, store),
                             5)[0]
        assert ranked_entries(once) == ranked_entries(twice)

    def test_accepts_ranked_sets(self, small_world):
        d, store = small_world
        e_q = np.ones(store.dim)
        ranked = top_k(e_q, 3, d, store)
        merged = rerank_union([ranked], 3)[0]
        assert merged.ids == ranked.ids

    def test_empty_candidates(self):
        assert len(rerank_union([RankedSet(), RankedSet()], 3)[0]) == 0


class TestRankedSet:
    def test_ids_and_id_set(self):
        r = RankedSet([3, 1], [0.1, 0.2])
        assert r.ids == [3, 1]
        assert r.id_set() == {1, 3}
        assert len(r) == 2
