import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icebudget.corpus import partition_iid, partition_noniid
from icebudget.embedder import EmbeddingStore
from icebudget.errors import ParseError, ValidationError
from icebudget.oracle import (BudgetDataset, construct_budget_dataset,
                              dequantize, load_budget_dataset, oracle_budget,
                              save_budget_dataset)
from icebudget.retrieval import top_k

from conftest import brute_force_topk, make_world


def quantize(count, delta):
    """One budget's class, through BudgetDataset.classes."""
    table = BudgetDataset(np.zeros(1, dtype=np.int64), np.zeros((1, 1)),
                          np.array([[count]]), k=max(count, 1), delta=delta)
    return int(table.classes[0, 0])


def records(bproxy):
    """[(query id, raw counts, classes)] of a budget dataset, as tuples."""
    return [(q, tuple(raw), tuple(cls)) for q, raw, cls in zip(
        bproxy.query_ids.tolist(), bproxy.raw_counts.tolist(),
        bproxy.classes.tolist())]


def random_partition(dataset, store, num_clients, seed):
    shards = partition_iid(dataset, num_clients, seed)
    return shards, [store.subset(s.ids) for s in shards]


def brute_force_budgets(e_q, k, shards, shard_stores, dataset, store):
    """Independent oracle: per-client overlap computed with python sets and
    the brute-force sorter."""
    global_top = set(brute_force_topk(e_q, k, dataset, store))
    out = []
    for shard, sub in zip(shards, shard_stores):
        local = set(brute_force_topk(e_q, k, shard, sub))
        out.append(len(local & global_top))
    return out


def _reference_construct(proxy, proxy_store, shards, shard_stores, k, delta):
    """The supervision set as it was built before the oracle shared the
    server's rerank: a union store rebuilt from every shard, and the union of
    the local top-k ranked again on distances recomputed from that store.
    Each ranked id counts for the first client whose local top-k holds it.
    Returns [(query id, raw counts, classes)]."""
    ids, matrices = zip(*(store.matrix() for store in shard_stores))
    ids, first = np.unique(np.concatenate(ids), return_index=True)
    union_store = EmbeddingStore(ids, np.concatenate(matrices)[first])
    records = []
    for ex in proxy.examples:
        e_q = proxy_store.get(ex.id)
        locals_ = [top_k(e_q, k, shard, store)
                   for shard, store in zip(shards, shard_stores)]
        sub = union_store.subset(np.concatenate([r.id_array for r in locals_]))
        sub_ids, matrix = sub.matrix()
        diffs = matrix - e_q
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        s_top = sub_ids[np.lexsort((sub_ids, dists))[:k]].tolist()
        owner = {}
        for c, local in enumerate(locals_):
            for example_id in local.ids:
                owner.setdefault(example_id, c)
        raw = tuple(sum(owner[i] == c for i in s_top)
                    for c in range(len(locals_)))
        records.append((ex.id, raw, tuple(c // delta for c in raw)))
    return records


class TestQuantization:
    @settings(deadline=None, max_examples=100)
    @given(count=st.integers(0, 200), delta=st.integers(1, 10))
    def test_roundtrip_lower_edge(self, count, delta):
        cls = quantize(count, delta)
        value = dequantize(cls, delta)
        assert value <= count < value + delta

    def test_known_values(self):
        assert quantize(7, 2) == 3
        assert quantize(0, 3) == 0
        assert dequantize(3, 2) == 6

    def test_delta_one_is_identity(self):
        for c in range(10):
            assert dequantize(quantize(c, 1), 1) == c

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            quantize(1, 0)
        with pytest.raises(ValidationError):
            quantize(-1, 1)
        with pytest.raises(ValidationError):
            dequantize(-1, 1)


class TestOracleBudget:
    def test_matches_brute_force(self):
        d, store = make_world(60, 5, seed=21)
        shards, shard_stores = random_partition(d, store, 3, seed=5)
        rng = np.random.default_rng(3)
        for _ in range(30):
            e_q = rng.standard_normal(5)
            k = int(rng.integers(1, 20))
            got = oracle_budget(e_q, k, shards, shard_stores)
            assert got == brute_force_budgets(e_q, k, shards, shard_stores,
                                              d, store)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), num_clients=st.integers(2, 6),
           k=st.integers(1, 25))
    def test_full_partition_conserves_k(self, seed, num_clients, k):
        # when shards exactly partition the corpus, every global top-k member
        # lives in exactly one shard's local top-k, so the counts sum to k
        d, store = make_world(50, 4, seed)
        shards, shard_stores = random_partition(d, store, num_clients, seed)
        e_q = np.random.default_rng(seed + 7).standard_normal(4)
        counts = oracle_budget(e_q, k, shards, shard_stores)
        assert sum(counts) == min(k, len(d))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), num_clients=st.integers(2, 5),
           k=st.integers(1, 25))
    def test_overlapping_shards_count_each_id_once(self, seed, num_clients,
                                                    k):
        d, store = make_world(30, 3, seed)
        rng = np.random.default_rng(seed)
        shards = [d.subset(rng.choice(d.ids, size=int(rng.integers(1, 30)),
                                      replace=False).tolist())
                  for _ in range(num_clients)]
        stores = [store.subset(s.ids) for s in shards]
        e_q = rng.standard_normal(3)
        union = set().union(*(top_k(e_q, k, s, sub).id_set()
                              for s, sub in zip(shards, stores)))
        counts = oracle_budget(e_q, k, shards, stores)
        assert sum(counts) == min(k, len(union))

    def test_single_client_gets_everything(self):
        d, store = make_world(20, 3, seed=1)
        counts = oracle_budget(np.zeros(3), 5, [d], [store])
        assert counts == [5]


class TestConstructBudgetDataset:
    def test_counts_match_oracle_on_full_partition(self):
        d, store = make_world(60, 4, seed=8)
        proxy, proxy_store = make_world(15, 4, seed=9)
        # give the proxy non-overlapping ids
        from icebudget.corpus import Dataset, Example
        from icebudget.embedder import EmbeddingStore
        proxy = Dataset(tuple(Example(ex.id + 1000, ex.text, ex.label)
                              for ex in proxy), proxy.labels)
        proxy_store = EmbeddingStore.from_dict(
            4, {i + 1000: proxy_store.get(i) for i in proxy_store.ids})
        shards, shard_stores = random_partition(d, store, 3, seed=2)
        k, delta = 6, 2
        bproxy = construct_budget_dataset(proxy, proxy_store, shards,
                                          shard_stores, k, delta)
        assert len(bproxy) == 15
        assert bproxy.num_clients == 3
        for query_id, raw_counts, classes in records(bproxy):
            e_q = proxy_store.get(query_id)
            expected = brute_force_budgets(e_q, k, shards, shard_stores,
                                           d, store)
            assert list(raw_counts) == expected
            assert list(classes) == [c // delta for c in expected]

    def test_num_classes_formula(self):
        d, store = make_world(30, 3, seed=4)
        shards, shard_stores = random_partition(d, store, 2, seed=1)
        proxy = d.subset(d.ids[:5])
        bproxy = construct_budget_dataset(proxy, store.subset(proxy.ids),
                                          shards, shard_stores, k=8, delta=3)
        assert bproxy.num_classes == 8 // 3 + 1  # classes 0, 1, 2

    def test_noniid_shards_work_too(self):
        d, store = make_world(40, 4, seed=30, num_classes=4)
        shards = partition_noniid(d, 4, 2, 11)
        stores = [store.subset(s.ids) for s in shards]
        proxy = d.subset(d.ids[:6])
        bproxy = construct_budget_dataset(proxy, store.subset(proxy.ids),
                                          shards, stores, k=5, delta=1)
        for _, raw_counts, _ in records(bproxy):
            assert sum(raw_counts) == 5


def _shards(d, scheme, rng):
    """Client shards of `d`: an IID or non-IID partition, overlapping random
    subsets, or the whole corpus as one shard."""
    seed = int(rng.integers(1 << 30))
    num_clients = int(rng.integers(2, 6))
    if scheme == "iid":
        return partition_iid(d, num_clients, seed)
    if scheme == "noniid":
        return partition_noniid(d, num_clients, 2, seed)
    if scheme == "overlapping":
        return [d.subset(rng.choice(d.ids, size=int(rng.integers(5, len(d))),
                                    replace=False).tolist())
                for _ in range(num_clients)]
    return [d]


class TestMatchesReferenceConstruction:
    @pytest.mark.parametrize("scheme", ["iid", "noniid", "overlapping",
                                        "single", "k_past_shard"])
    def test_random_worlds(self, scheme):
        rng = np.random.default_rng(["iid", "noniid", "overlapping", "single",
                                     "k_past_shard"].index(scheme))
        for trial in range(12):
            n = int(rng.integers(12, 70))
            d, store = make_world(n, 3, seed=int(rng.integers(1 << 30)),
                                  num_classes=3)
            shards = _shards(d, "iid" if scheme == "k_past_shard" else scheme,
                             rng)
            stores = [store.subset(s.ids) for s in shards]
            largest = max(len(s) for s in shards)
            k = (int(rng.integers(largest + 1, largest + 10))
                 if scheme == "k_past_shard" else int(rng.integers(1, 12)))
            proxy = d.subset(rng.choice(d.ids, size=8, replace=False).tolist())
            delta = int(rng.integers(1, 4))
            bproxy = construct_budget_dataset(
                proxy, store.subset(proxy.ids), shards, stores, k, delta)
            assert records(bproxy) == _reference_construct(
                proxy, store.subset(proxy.ids), shards, stores, k, delta)


class TestRowsEqualOracleBudget:
    """`construct_budget_dataset` ranks the proxy in one batch per shard;
    each of its rows must be `oracle_budget`'s, the per-query reference."""

    @pytest.mark.parametrize("scheme", ["iid", "noniid", "overlapping"])
    def test_random_worlds(self, scheme):
        rng = np.random.default_rng(["iid", "noniid", "overlapping"].index(
            scheme) + 40)
        for trial in range(8):
            n = int(rng.integers(12, 70))
            d, store = make_world(n, 3, seed=int(rng.integers(1 << 30)),
                                  num_classes=3)
            shards = _shards(d, scheme, rng)
            stores = [store.subset(s.ids) for s in shards]
            k = int(rng.integers(1, max(len(s) for s in shards) + 3))
            proxy = d.subset(rng.choice(d.ids, size=9, replace=False).tolist())
            proxy_store = store.subset(proxy.ids)
            bproxy = construct_budget_dataset(proxy, proxy_store, shards,
                                              stores, k, delta=1)
            for query_id, raw in zip(bproxy.query_ids.tolist(),
                                     bproxy.raw_counts.tolist()):
                assert raw == oracle_budget(proxy_store.get(query_id), k,
                                            shards, stores)


class TestBudgetDatasetIo:
    def test_roundtrip(self, tmp_path):
        d, store = make_world(30, 3, seed=12)
        shards, shard_stores = random_partition(d, store, 2, seed=3)
        proxy = d.subset(d.ids[:8])
        bproxy = construct_budget_dataset(proxy, store.subset(proxy.ids),
                                          shards, shard_stores, k=4, delta=2)
        path = tmp_path / "b.jsonl"
        save_budget_dataset(bproxy, path)
        loaded = load_budget_dataset(path)
        assert loaded.num_clients == bproxy.num_clients
        assert loaded.k == bproxy.k and loaded.delta == bproxy.delta
        assert len(loaded) == len(bproxy)
        assert records(loaded) == records(bproxy)
        assert np.array_equal(loaded.embeddings, bproxy.embeddings)

    @pytest.mark.parametrize("line, text", [
        (1, '{"C": 0, "k": 4, "delta": 2}'),
        (1, '{"C": 2, "k": true, "delta": 2}'),
        (1, '{"C": 2, "k": 4, "delta": 1.5}'),
        (1, '[2, 4, 2]'),
        (3, '7'),
        (3, '{"query_id": 5, "raw_counts": [1, 3], "classes": [0, 1]}'),
        (3, '{"query_id": "5", "vector": [1.0, 0.0, 2.0], '
            '"raw_counts": [1, 3], "classes": [0, 1]}'),
        (3, '{"query_id": 5, "vector": [], "raw_counts": [1, 3], '
            '"classes": [0, 1]}'),
        (3, '{"query_id": 5, "vector": [1.0, "x", 0.0], '
            '"raw_counts": [1, 3], "classes": [0, 1]}'),
        (3, '{"query_id": 5, "vector": [1.0, true, 0.0], '
            '"raw_counts": [1, 3], "classes": [0, 1]}'),
        (3, '{"query_id": 5, "vector": [1.0, NaN, 0.0], '
            '"raw_counts": [1, 3], "classes": [0, 1]}'),
        (3, '{"query_id": 5, "vector": [1.0, 0.0], "raw_counts": [1, 3], '
            '"classes": [0, 1]}'),
        (3, '{"query_id": 5, "vector": [1.0, 0.0, 2.0], '
            '"raw_counts": [1, 3, 0], "classes": [0, 1, 0]}'),
        (3, '{"query_id": 5, "vector": [1.0, 0.0, 2.0], '
            '"raw_counts": [1, 5], "classes": [0, 2]}'),
        (3, '{"query_id": 5, "vector": [1.0, 0.0, 2.0], '
            '"raw_counts": [-1, 3], "classes": [-1, 1]}'),
        (3, '{"query_id": 5, "vector": [1.0, 0.0, 2.0], '
            '"raw_counts": [false, 3], "classes": [0, 1]}'),
        (3, '{"query_id": 5, "vector": [1.0, 0.0, 2.0], '
            '"raw_counts": [1, 3], "classes": [1, 1]}'),
    ])
    def test_malformed_record_rejected(self, tmp_path, line, text):
        lines = ['{"C": 2, "k": 4, "delta": 2}',
                 '{"query_id": 4, "vector": [0.5, 1.0, -2.0], '
                 '"raw_counts": [4, 0], "classes": [2, 0]}',
                 '{"query_id": 5, "vector": [1.0, 0.0, 2.0], '
                 '"raw_counts": [1, 3], "classes": [0, 1]}']
        path = tmp_path / "b.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert len(load_budget_dataset(path)) == 2
        lines[line - 1] = text
        # a blank line before the fault must not shift its line number
        path.write_text("\n".join(lines[:line - 1] + ["", lines[line - 1]]
                                  + lines[line:]) + "\n")
        with pytest.raises(ParseError) as exc_info:
            load_budget_dataset(path)
        assert exc_info.value.line == line + 1

    def test_classes_and_embeddings(self):
        d, store = make_world(30, 3, seed=12)
        shards, shard_stores = random_partition(d, store, 2, seed=3)
        proxy = d.subset(d.ids[:8])
        bproxy = construct_budget_dataset(proxy, store.subset(proxy.ids),
                                          shards, shard_stores, k=4, delta=2)
        assert bproxy.classes.shape == (8, 2)
        assert bproxy.embeddings.shape == (8, 3)
        assert np.all(bproxy.classes == bproxy.raw_counts // 2)
        assert bproxy.query_ids.tolist() == proxy.ids
        for query_id, row in zip(proxy.ids, bproxy.embeddings):
            assert np.array_equal(row, store.get(query_id))

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text('{"C": 3, "k": 4, "delta": 2}\n')
        bproxy = load_budget_dataset(path)
        assert len(bproxy) == 0
        assert bproxy.num_clients == 3 and bproxy.classes.shape == (0, 3)
