import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from icebudget import federation
from icebudget.allocator import init_model, predict_budget
from icebudget.config import POLICY_VARIANTS, config_from_dict
from icebudget.corpus import Dataset, Example, LabelSpace, partition_iid
from icebudget.embedder import EmbeddingStore
from icebudget.errors import BackendError, ParseError, ValidationError
from icebudget.inference import MockVoteBackend, build_prompt
from icebudget.federation import (BudgetPolicy, ClientNode, ServerNode,
                                  Transcript, _finish, _per_query_rng,
                                  _random_composition, allocate,
                                  client_retrieve, distributed_infer,
                                  load_transcripts, plan_pass,
                                  save_transcripts)
from icebudget.retrieval import (RankedSet, rerank_many, rerank_union, top_k,
                                 top_k_many)

from conftest import (brute_force_ranking, make_world, ranked_entries,
                      reference_prompt)


def replay_transcript(t: Transcript, clients, e_q, k: int) -> bool:
    """Re-run the recorded budgets against the same shards and confirm the
    returned samples and final ICE set reproduce exactly."""
    returned = [client_retrieve(client, e_q, budget)
                for client, budget in zip(clients, t.budgets_sent)]
    if [r.ids for r in returned] != t.samples_returned:
        return False
    if t.policy == "social_learning":
        return True  # final set depends on the recorded seeded draw
    final, _ = rerank_union(returned, k)
    return sorted(t.final_ice_ids) == sorted(final.ids)


def make_clients(n=30, dim=4, num_clients=3, seed=17, num_classes=3):
    d, store = make_world(n, dim, seed, num_classes=num_classes)
    shards = partition_iid(d, num_clients, seed)
    clients = [ClientNode(i, shard, store.subset(shard.ids))
               for i, shard in enumerate(shards)]
    return d, store, clients


def make_server(k=6, **kwargs):
    return ServerNode(k=k, **kwargs)


class TestAllocate:
    def test_uniform_is_ceil_k_over_c(self):
        d, store, clients = make_clients(num_clients=4)
        server = make_server(k=6, policy=BudgetPolicy("uniform"))
        assert allocate(server.policy, np.zeros((1, 4)), server, clients,
                        [0]).tolist() == [[2] * 4]

    def test_random_sums_to_k(self):
        d, store, clients = make_clients(num_clients=3)
        policy = BudgetPolicy("random", seed=99)
        server = make_server(k=7, policy=policy)
        budgets = allocate(policy, np.zeros((200, 4)), server, clients,
                           range(200))
        assert budgets.sum(axis=1).tolist() == [7] * 200
        assert budgets.min() >= 0

    def test_random_draw_for_text_queries(self):
        # ad-hoc text queries carry query id -1: still a seeded draw
        d, store, clients = make_clients(num_clients=3)
        policy = BudgetPolicy("random", seed=5)
        server = make_server(k=9, policy=policy)
        a = allocate(policy, np.zeros((1, 4)), server, clients, [-1])
        assert a.sum() == 9
        assert a.tolist() == allocate(policy, np.zeros((1, 4)), server,
                                      clients, [-1]).tolist()

    def test_random_deterministic_per_query(self):
        d, store, clients = make_clients(num_clients=3)
        policy = BudgetPolicy("random", seed=5)
        server = make_server(k=9, policy=policy)
        a = allocate(policy, np.zeros((1, 4)), server, clients, [42])
        b = allocate(policy, np.zeros((1, 4)), server, clients, [42])
        assert a.tolist() == b.tolist()

    def test_singleton(self):
        d, store, clients = make_clients(num_clients=3)
        policy = BudgetPolicy("singleton", client=1)
        server = make_server(k=5, policy=policy)
        assert allocate(policy, np.zeros((1, 4)), server, clients,
                        [0]).tolist() == [[0, 5, 0]]

    def test_infinite_requests_whole_shards(self):
        d, store, clients = make_clients(num_clients=3)
        policy = BudgetPolicy("infinite")
        server = make_server(k=5, policy=policy)
        budgets = allocate(policy, np.zeros((1, 4)), server, clients, [0])
        assert budgets.tolist() == [[len(c.shard) for c in clients]]

    def test_zero_shot_and_proxy_only_send_nothing(self):
        d, store, clients = make_clients()
        for variant in ("zero_shot",):
            policy = BudgetPolicy(variant)
            server = make_server(policy=policy)
            assert allocate(policy, np.zeros((1, 4)), server, clients,
                            [0]).tolist() == [[0, 0, 0]]

    def test_learned_requires_allocators(self):
        d, store, clients = make_clients()
        server = make_server(policy=BudgetPolicy("learned"))
        with pytest.raises(ValidationError):
            allocate(server.policy, np.zeros((1, 4)), server, clients, [0])

    def test_singleton_client_bound(self):
        d, store, clients = make_clients(num_clients=2)
        policy = BudgetPolicy("singleton", client=5)
        server = make_server(policy=policy)
        with pytest.raises(ValidationError):
            allocate(policy, np.zeros((1, 4)), server, clients, [0])

    def test_learned_block_plans_each_query_as_alone(self):
        # 150 queries: three plan blocks, the last one ragged
        d, store, clients = make_clients(n=60, num_clients=3, seed=29)
        rng = np.random.default_rng(8)
        model = init_model(4, 16, 7, seeds=[1, 2, 3])
        for param in model.params():
            param += 0.5 * rng.standard_normal(param.shape)
        server = make_server(k=6, alpha=1, policy=BudgetPolicy("learned"),
                             allocator=model, labels=d.labels)
        vectors = rng.standard_normal((150, 4))
        query_ids = list(range(2000, 2150))
        plans = plan_pass(server, clients, query_ids, vectors, {})
        for query_id, e_q, (*_, t) in zip(query_ids, vectors, plans):
            [(*_, alone)] = plan_pass(server, clients, [query_id], e_q[None],
                                      {})
            assert t.budgets_sent == alone.budgets_sent
        assert len({tuple(t.budgets_sent) for *_, t in plans}) > 1


class TestRandomComposition:
    def test_uniform_over_compositions(self):
        # k=6 into 3 parts: C(8,2)=28 equally likely compositions
        k, parts = 6, 3
        rng = np.random.default_rng(1234)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            comp = tuple(_random_composition(k, parts, rng))
            assert sum(comp) == k
            counts[comp] = counts.get(comp, 0) + 1
        support = math.comb(k + parts - 1, parts - 1)
        assert len(counts) == support
        observed = list(counts.values())
        _, p_value = chisquare(observed)
        assert p_value > 1e-3

    def test_single_part(self):
        rng = np.random.default_rng(0)
        assert _random_composition(5, 1, rng) == [5]


class TestClientRetrieve:
    def test_budget_caps_at_shard_size(self):
        d, store, clients = make_clients()
        ranked = client_retrieve(clients[0], np.zeros(4), 1000)
        assert len(ranked) == len(clients[0].shard)

    def test_zero_budget_returns_nothing(self):
        d, store, clients = make_clients()
        assert len(client_retrieve(clients[0], np.zeros(4), 0)) == 0

    def test_negative_budget_rejected(self):
        d, store, clients = make_clients()
        with pytest.raises(ValidationError):
            client_retrieve(clients[0], np.zeros(4), -1)


class TestDistributedInfer:
    def test_reorder_recovery_with_full_budgets(self):
        # per-client budget k over a full partition recovers the global top-k
        d, store, clients = make_clients(n=40, num_clients=4, seed=23)
        rng = np.random.default_rng(3)
        for trial in range(20):
            e_q = rng.standard_normal(4)
            k = int(rng.integers(1, 12))
            server = make_server(k=k, policy=BudgetPolicy("uniform"),
                                 labels=d.labels)
            # force per-client budget = k via a singleton-free direct path
            budgets = [k] * len(clients)
            returned = [client_retrieve(c, e_q, b)
                        for c, b in zip(clients, budgets)]
            final, _ = rerank_union(returned, k)
            assert final.ids == top_k(e_q, k, d, store).ids

    def test_transcript_accounting(self):
        d, store, clients = make_clients(seed=31)
        server = make_server(k=4, policy=BudgetPolicy("uniform"),
                             labels=d.labels)
        query = d.examples[0]
        e_q = store.get(query.id)
        answer, t = distributed_infer(server, clients, query, e_q)
        assert t.policy == "uniform"
        assert t.budgets_sent == [2, 2, 2]
        assert t.total_samples_communicated == sum(len(s)
                                                   for s in t.samples_returned)
        assert len(t.final_ice_ids) == 4
        assert t.answer_label == answer
        # the mock never reads the prompt, so only its length is recorded
        assert t.prompt_text is None
        index = d.id_index()
        ices = [(index[i], 0.0) for i in t.final_ice_ids]
        assert t.prompt_chars == len(build_prompt(ices, query.text, d.labels,
                                                  []))
        assert set(t.final_ice_ids) <= set(t.aggregated_ids)

    def test_ice_order_descending_puts_nearest_last(self):
        d, store, clients = make_clients(seed=31)
        query = d.examples[0]
        e_q = store.get(query.id)
        server = make_server(k=4, policy=BudgetPolicy("uniform"),
                             labels=d.labels, ice_order="descending")
        _, t = distributed_infer(server, clients, query, e_q)
        ranked = top_k(e_q, 4, d.subset(t.aggregated_ids),
                       store.subset(t.aggregated_ids))
        assert t.final_ice_ids == ranked.ids[::-1]

    def test_ice_order_ascending(self):
        d, store, clients = make_clients(seed=31)
        query = d.examples[0]
        e_q = store.get(query.id)
        server = make_server(k=4, policy=BudgetPolicy("uniform"),
                             labels=d.labels, ice_order="ascending")
        _, t = distributed_infer(server, clients, query, e_q)
        ranked = top_k(e_q, 4, d.subset(t.aggregated_ids),
                       store.subset(t.aggregated_ids))
        assert t.final_ice_ids == ranked.ids

    def test_zero_shot_no_traffic(self):
        d, store, clients = make_clients()
        server = make_server(policy=BudgetPolicy("zero_shot"), labels=d.labels)
        answer, t = distributed_infer(server, clients, d.examples[0],
                                      store.get(d.examples[0].id))
        assert t.total_samples_communicated == 0
        assert t.final_ice_ids == []
        assert answer == 0  # mock vote default with no ICEs

    def test_proxy_only_uses_server_proxy(self):
        d, store, clients = make_clients(seed=41)
        proxy = d.subset(d.ids[:10])
        proxy_store = store.subset(proxy.ids)
        server = make_server(k=3, policy=BudgetPolicy("proxy_only"),
                             labels=d.labels,
                             proxy=ClientNode(-1, proxy, proxy_store))
        e_q = store.get(d.examples[15].id)
        _, t = distributed_infer(server, clients, d.examples[15], e_q)
        assert t.total_samples_communicated == 0
        assert t.samples_returned == [[] for _ in clients]
        # descending: the nearest proxy example last
        assert t.final_ice_ids == top_k(e_q, 3, proxy, proxy_store).ids[::-1]

    def test_final_ids_resolved_in_their_own_shard(self):
        _, _, clients = make_clients(seed=41)
        shards = [c.shard for c in clients]
        mine = shards[1].examples[0]
        assert federation._examples(shards, [mine.id], [1]) == [mine]
        # an id the owning shard lacks is refused, even if another has it
        with pytest.raises(ValidationError, match=f"no example with id {mine.id}"):
            federation._examples(shards, [mine.id], [0])

    def test_backend_answers_for_itself(self):
        class FakeBackend:
            def __init__(self):
                self.calls = []

            def answer(self, prompt, votes, labels):
                self.calls.append((prompt, votes, labels))
                return len(votes) % labels.count

        d, store, clients = make_clients(seed=31)
        backend = FakeBackend()
        server = make_server(k=4, policy=BudgetPolicy("uniform"),
                             labels=d.labels, backend=backend,
                             ice_order="ascending")
        query = d.examples[0]
        e_q = store.get(query.id)
        answer, t = distributed_infer(server, clients, query, e_q)
        [(prompt, votes, labels)] = backend.calls
        assert prompt == t.prompt_text
        assert labels is d.labels
        assert answer == t.answer_label == 4 % d.labels.count
        ranked = top_k(e_q, 4, d.subset(t.aggregated_ids),
                       store.subset(t.aggregated_ids))
        assert votes == [(d.id_index()[i].label, dist)
                         for i, dist in ranked_entries(ranked)]

    def test_backend_error_carries_transcript(self):
        class FailingBackend:
            def answer(self, prompt, votes, labels):
                raise BackendError("down")

        d, store, clients = make_clients(seed=31)
        server = make_server(k=4, policy=BudgetPolicy("uniform"),
                             labels=d.labels, backend=FailingBackend())
        with pytest.raises(BackendError) as info:
            distributed_infer(server, clients, d.examples[0],
                              store.get(d.examples[0].id))
        assert info.value.transcript.prompt_text

    def test_prompt_cap_enforced(self):
        d, store, clients = make_clients()
        server = make_server(k=4, policy=BudgetPolicy("uniform"),
                             labels=d.labels, max_prompt_chars=5)
        with pytest.raises(ValidationError):
            distributed_infer(server, clients, d.examples[0],
                              store.get(d.examples[0].id))


class TestSocialLearning:
    def test_budgets_and_selection_size(self):
        d, store, clients = make_clients(n=30, num_clients=3, seed=51)
        server = make_server(k=5,
                             policy=BudgetPolicy("social_learning", seed=2),
                             labels=d.labels)
        query = d.examples[0]
        _, t = distributed_infer(server, clients, query, store.get(query.id))
        assert t.policy == "social_learning"
        assert t.budgets_sent == [math.ceil(5 / 3)] * 3
        assert len(t.final_ice_ids) == min(5, len(t.aggregated_ids))

    def test_selection_is_seeded(self):
        d, store, clients = make_clients(n=30, num_clients=3, seed=51)
        query = d.examples[3]
        e_q = store.get(query.id)
        outs = []
        for _ in range(2):
            server = make_server(
                k=4, policy=BudgetPolicy("social_learning", seed=9),
                labels=d.labels)
            _, t = distributed_infer(server, clients, query, e_q)
            outs.append(t.final_ice_ids)
        assert outs[0] == outs[1]

    def test_selection_subset_of_union(self):
        d, store, clients = make_clients(n=30, num_clients=3, seed=51)
        server = make_server(k=4,
                             policy=BudgetPolicy("social_learning", seed=1),
                             labels=d.labels)
        query = d.examples[7]
        _, t = distributed_infer(server, clients, query, store.get(query.id))
        assert set(t.final_ice_ids) <= set(t.aggregated_ids)


def _reference_social_learning_infer(server, clients, e_q, seed, query=None):
    """The separate social-learning entry point distributed_infer replaced:
    ceil(k/C) per client, then a seeded pick of k from the union."""
    c = len(clients)
    per_client = math.ceil(server.k / c)
    query_id = query.id if isinstance(query, Example) else -1
    returned = [client_retrieve(client, e_q, per_client) for client in clients]
    final, owners = rerank_union(returned, server.k,
                                 _per_query_rng(seed, query_id))
    transcript = Transcript(
        query_id=query_id, policy="social_learning",
        budgets_sent=[per_client] * c,
        samples_returned=[ranked.ids for ranked in returned],
        final_ice_ids=[], prompt_text="", prompt_chars=0,
        answer_label=None,
        total_samples_communicated=sum(len(ranked) for ranked in returned),
        fallback_zero_shot=not len(final))
    examples = [clients[owner].shard.id_index()[example_id]
                for example_id, owner in zip(final.ids, owners.tolist())]
    return _finish(server, query, final, examples, transcript)


class TestSocialLearningMatchesReference:
    def test_random_worlds(self):
        rng = np.random.default_rng(88)
        for trial in range(40):
            n = int(rng.integers(5, 60))
            num_clients = int(rng.integers(1, 5))
            d, store, clients = make_clients(n=n, dim=3,
                                             num_clients=num_clients,
                                             seed=500 + trial)
            k = int(rng.integers(1, 12))
            seed = int(rng.integers(0, 2**63))
            server = make_server(
                k=k, policy=BudgetPolicy("social_learning", seed=seed),
                labels=d.labels,
                ice_order=("ascending", "descending")[trial % 2])
            for query in d.examples[:5]:
                e_q = store.get(query.id)
                want_answer, want = _reference_social_learning_infer(
                    server, clients, e_q, seed, query=query)
                answer, got = distributed_infer(server, clients, query, e_q)
                assert got.to_dict() == want.to_dict()
                assert answer == want_answer
            # an ad-hoc text query (query id -1)
            e_q = rng.standard_normal(3)
            _, want = _reference_social_learning_infer(
                server, clients, e_q, seed, query="free text")
            _, got = distributed_infer(server, clients, "free text", e_q)
            assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("variant", POLICY_VARIANTS)
def test_every_policy_name_runs_and_configures(variant):
    d, store, clients = make_clients(n=40, num_clients=4, seed=23)
    proxy = d.subset(d.ids[:10])
    server = make_server(
        k=5, policy=BudgetPolicy(variant, seed=4, client=2), labels=d.labels,
        allocator=init_model(4, 8, 3, seeds=range(len(clients))),
        proxy=ClientNode(-1, proxy, store.subset(proxy.ids)))
    query = d.examples[20]
    answer, t = distributed_infer(server, clients, query, store.get(query.id))
    assert t.policy == variant
    assert t.answer_label == answer
    assert len(t.budgets_sent) == len(clients)

    synthetic = {"synthetic": {"num_classes": 2}}
    cfg = config_from_dict({**synthetic, "policies": [variant]})
    assert cfg.policies == [variant]
    with pytest.raises(ValidationError, match="unknown policy"):
        config_from_dict({**synthetic, "policies": [variant + "_x"]})


class TestTranscriptIo:
    def _one(self):
        d, store, clients = make_clients(seed=61)
        server = make_server(k=4, policy=BudgetPolicy("uniform"),
                             labels=d.labels)
        query = d.examples[2]
        e_q = store.get(query.id)
        _, t = distributed_infer(server, clients, query, e_q)
        return t, clients, e_q

    def test_roundtrip(self, tmp_path):
        t, _, _ = self._one()
        path = tmp_path / "t.jsonl"
        save_transcripts([t], path)
        loaded = load_transcripts(path)
        assert len(loaded) == 1
        assert loaded[0].to_dict() == t.to_dict()

    def test_dict_has_every_field_and_optional_ones_default(self):
        t, _, _ = self._one()
        record = t.to_dict()
        assert record["schema_version"] == 2
        # no stored union, and no prompt under the mock backend
        assert set(record) - {"schema_version"} == (
            {f.name for f in fields(Transcript)} - {"prompt_text"})
        assert "aggregated_ids" not in record
        t.prompt_text = "a prompt"
        assert t.to_dict()["prompt_text"] == "a prompt"
        del record["fallback_zero_shot"], record["raw_completion"]
        loaded = Transcript.from_dict(record)
        assert loaded.fallback_zero_shot is False
        assert loaded.raw_completion is None
        assert loaded.prompt_text is None
        assert loaded.budgets_sent == t.budgets_sent
        assert loaded.aggregated_ids == t.aggregated_ids

    def test_replay_confirms_recorded_round(self):
        t, clients, e_q = self._one()
        assert replay_transcript(t, clients, e_q, k=4)

    def test_replay_detects_tampering(self):
        t, clients, e_q = self._one()
        t.samples_returned[0] = [999]
        assert not replay_transcript(t, clients, e_q, k=4)

    @pytest.mark.parametrize("version", [3, "2", 2.0, True])
    def test_unknown_schema_rejected(self, version):
        t, _, _ = self._one()
        with pytest.raises(ValidationError,
                           match=f"unknown transcript schema_version {version}"):
            Transcript.from_dict({**t.to_dict(), "schema_version": version})

    @pytest.mark.parametrize("bad, message", [
        ("{not json", "invalid JSON"),
        (b'{"policy": "caf\xe9"}', "not UTF-8"),
        ("[1, 2]", "must be a JSON object"),
        ('{"schema_version": 2, "query_id": 1}', "missing field 'policy'"),
        ({"query_id": "7"}, "field 'query_id' must be an integer"),
        ({"query_id": True}, "field 'query_id' must be an integer"),
        ({"budgets_sent": [1, 2.5]}, "field 'budgets_sent' must be"),
        ({"query_id": 2**63}, "field 'query_id' must be an integer in the "
                              "int64 range"),
        ({"budgets_sent": [1, 10**400]}, "field 'budgets_sent' must be"),
        ({"samples_returned": [2**63]}, "field 'samples_returned' must be"),
        ({"samples_returned": [[-2**63 - 1]]},
         "field 'samples_returned' must be"),
        ({"final_ice_ids": [-2**63 - 1]}, "field 'final_ice_ids' must be"),
        ({"prompt_chars": 2**63}, "field 'prompt_chars' must be"),
        ({"total_samples_communicated": 2**64},
         "field 'total_samples_communicated' must be"),
        ({"samples_returned": [[1], "x"]}, "field 'samples_returned' must be"),
        ({"answer_label": "class0"}, "field 'answer_label' must be"),
        ({"answer_label": 2**63}, "field 'answer_label' must be an integer "
                                  "in the int64 range or null"),
        ({"fallback_zero_shot": 0}, "field 'fallback_zero_shot' must be"),
        ({"schema_version": 3}, "schema_version 3"),
        ({"schema_version": 1}, "unknown transcript schema_version 1"),
        ({"schema_version": ...}, "unknown transcript schema_version None"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, bad, message):
        t, _, _ = self._one()
        good = json.dumps(t.to_dict())
        if isinstance(bad, dict):  # a field given as ... is left out
            bad = json.dumps({key: value for key, value
                              in {**t.to_dict(), **bad}.items()
                              if value is not ...})
        if isinstance(bad, str):
            bad = bad.encode()
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"%s\n\n%s\n%s\n" % (good.encode(), bad,
                                              good.encode()))
        with pytest.raises(ParseError) as info:
            load_transcripts(path)
        assert info.value.line == 3
        assert str(info.value).startswith(f"line 3: {path}: ")
        assert message in str(info.value)


class TestServerValidation:
    def test_bad_k(self):
        with pytest.raises(ValidationError):
            ServerNode(k=0)

    def test_bad_ice_order(self):
        with pytest.raises(ValidationError):
            ServerNode(k=1, ice_order="sideways")

    def test_unknown_policy_variant(self):
        with pytest.raises(ValidationError):
            BudgetPolicy("nonexistent")

    def test_proxy_only_needs_the_proxy(self):
        d, store, clients = make_clients()
        server = make_server(policy=BudgetPolicy("proxy_only"),
                             labels=d.labels)
        with pytest.raises(ValidationError, match="needs the proxy set"):
            plan_pass(server, clients, [0], [np.zeros(4)], {})
        with pytest.raises(ValidationError, match="needs the proxy set"):
            distributed_infer(server, clients, "q", np.zeros(4))


def _reference_candidate_rerank(clients, returned, e_q, k):
    """The dict-based aggregation the array routine replaced: a candidate
    store of every returned vector, distances recomputed from it, then the
    top-k by (distance, id). Returns (sorted union ids, [(id, distance)])."""
    vectors = {}
    for client, ranked in zip(clients, returned):
        for example_id in ranked.ids:
            vectors[example_id] = client.store.get(example_id)
    union = sorted(vectors)
    if not union:
        return union, []
    ids = np.array(union, dtype=np.int64)
    matrix = np.stack([vectors[i] for i in union])
    diffs = matrix - np.asarray(e_q, dtype=np.float64)
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.lexsort((ids, dists))[:k]
    return union, [(int(ids[i]), float(dists[i])) for i in order]


class TestAggregateMatchesCandidateStore:
    def check(self, clients, budgets, e_q, k):
        returned = [client_retrieve(c, e_q, b) for c, b in zip(clients, budgets)]
        final, owners = rerank_union(returned, k)
        _, want_final = _reference_candidate_rerank(clients, returned, e_q, k)
        assert ranked_entries(final) == tuple(want_final)
        for example_id, owner in zip(final.ids, owners.tolist()):
            assert example_id in returned[owner].ids

    def test_random_worlds(self):
        rng = np.random.default_rng(77)
        for trial in range(60):
            n = int(rng.integers(5, 80))
            num_clients = int(rng.integers(1, 5))
            d, store, clients = make_clients(n=n, dim=3,
                                             num_clients=num_clients,
                                             seed=300 + trial)
            k = int(rng.integers(1, 12))
            e_q = rng.standard_normal(3)
            # zero budgets, small budgets and budgets past the shard size
            budgets = [int(b) for b in rng.integers(0, k + 3, size=num_clients)]
            self.check(clients, budgets, e_q, k)
            self.check(clients, [0] * num_clients, e_q, k)
            self.check(clients, [len(c.shard) for c in clients], e_q, k)

    def test_overlapping_candidates(self):
        d, store = make_world(30, 4, seed=5)
        halves = [d.subset(d.ids[:20]), d.subset(d.ids[10:])]
        clients = [ClientNode(i, shard, store.subset(shard.ids))
                   for i, shard in enumerate(halves)]
        rng = np.random.default_rng(6)
        for _ in range(20):
            self.check(clients, [12, 12], rng.standard_normal(4), 7)

    def test_transcript_round_matches(self):
        d, store, clients = make_clients(n=40, num_clients=4, seed=23)
        for variant in ("uniform", "infinite"):
            server = make_server(k=5, policy=BudgetPolicy(variant),
                                 labels=d.labels, ice_order="ascending")
            for query in d.examples[:10]:
                e_q = store.get(query.id)
                _, t = distributed_infer(server, clients, query, e_q)
                returned = [client_retrieve(c, e_q, b)
                            for c, b in zip(clients, t.budgets_sent)]
                union, final = _reference_candidate_rerank(clients, returned,
                                                           e_q, 5)
                if variant == "infinite":
                    # whole shards sent, recorded by their sizes
                    assert t.samples_returned == [len(c.shard) for c in clients]
                    assert t.aggregated_ids is None
                else:
                    assert t.aggregated_ids == union
                assert t.total_samples_communicated == len(union)
                assert t.final_ice_ids == [i for i, _ in final]


def _tied_clients(seed, num_clients=3):
    """Clients over vectors drawn from a small grid, so that many entries
    share a distance (duplicate vectors included) and ties fall at the
    budget; returns (clients, the grid a query is drawn from)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(num_clients, 60))
    dim = int(rng.integers(1, 4))
    grid = rng.integers(-2, 3, size=(6, dim)) * 0.5
    matrix = grid[rng.integers(len(grid), size=n)]
    d = Dataset(tuple(Example(i, f"point {i}", int(rng.integers(2)))
                      for i in range(n)), LabelSpace.default(2))
    store = EmbeddingStore(np.arange(n), matrix)
    shards = partition_iid(d, num_clients, seed)
    return ([ClientNode(i, shard, store.subset(shard.ids))
             for i, shard in enumerate(shards)], grid)


def _same_bytes(got, want):
    return (got.id_array.tobytes() == want.id_array.tobytes()
            and got.distances.tobytes() == want.distances.tobytes())


def _table(clients, queries, k, alpha):
    """The clients' tables of `queries`, as planning a uniform pass with
    budget k and slack alpha fills them."""
    queries = np.asarray(queries, dtype=np.float64)
    tables = {}
    plan_pass(ServerNode(k=k, alpha=alpha), clients,
              list(range(len(queries))), queries, tables)
    return tables


class TestRankingTable:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_budget_served_as_top_k(self, seed):
        clients, grid = _tied_clients(seed)
        rng = np.random.default_rng(1000 + seed)
        k, alpha = int(rng.integers(1, 8)), int(rng.integers(0, 3))
        depth = k + alpha
        # a grid point (ties certain) and an off-grid point
        queries = np.array([grid[int(rng.integers(len(grid)))],
                            rng.standard_normal(grid.shape[1])])
        tables = _table(clients, queries, k, alpha)
        assert sorted(tables) == [client.id for client in clients]
        for client in clients:
            size = len(client.shard)
            ids, distances = tables[client.id]
            assert ids.shape == distances.shape == (2, min(depth, size))
            for row, e_q in enumerate(queries):
                for budget in (0, 1, depth, depth + 1, size, size + 1):
                    if min(budget, size) > ids.shape[1]:
                        continue  # deeper than the table: not served by it
                    served = RankedSet(ids[row, :budget],
                                       distances[row, :budget])
                    assert _same_bytes(served, top_k(
                        e_q, budget, client.shard, client.store)), budget

    @pytest.mark.parametrize("whole", [False, True])
    def test_table_is_read_only_top_k_many(self, whole):
        clients, grid = _tied_clients(3)
        client = clients[0]
        assert len(client.shard) > 4
        depth = len(client.shard) + 2 if whole else 4
        queries = np.array([grid[0], grid[1], grid[0] + 0.25])
        tables = _table([client], queries, depth - 1, 1)
        ids, distances = tables[client.id]
        # the ids and distances a fresh ranking gives, not shard positions
        want_ids, want_distances = top_k_many(queries, depth, client.shard,
                                              client.store)
        assert ids.tobytes() == want_ids.tobytes()
        assert distances.tobytes() == want_distances.tobytes()
        assert ids.shape == (3, min(depth, len(client.shard)))
        assert not (ids.flags.writeable or distances.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            ids[0, 0] = -1

    @pytest.mark.parametrize("missing", [None, 1])
    def test_pass_ranks_only_the_nodes_without_a_table(self, missing,
                                                       monkeypatch):
        # a node with an entry is not ranked again, whatever the block; a
        # node without one ranks the block and gets its entry
        d, store, clients = make_clients(n=40, num_clients=3, seed=29)
        queries = np.random.default_rng(8).standard_normal((3, 4))
        tables = _table(clients, queries, 4, 1)
        kept = dict(tables)
        if missing is not None:
            del tables[missing]
        ranked = []

        def counting_top_k_many(block, depth, d, store):
            ranked.append(id(d))
            return top_k_many(block, depth, d, store)
        monkeypatch.setattr(federation, "top_k_many", counting_top_k_many)
        server = make_server(k=4, alpha=1, labels=d.labels)
        plans = plan_pass(server, clients, [0, 1, 2], queries.copy(), tables)
        assert len(plans) == 3
        assert ranked == [id(clients[c].shard) for c in [missing]
                          if c is not None]
        assert sorted(tables) == sorted(kept)
        for c, table in tables.items():
            if c == missing:
                assert all(got.tobytes() == want.tobytes() and
                           not got.flags.writeable
                           for got, want in zip(table, kept[c]))
            else:
                assert table is kept[c]

    @pytest.mark.parametrize("other", ["depth", "rows"])
    def test_table_of_another_shape_fails_naming_the_node(self, other):
        d, store, clients = make_clients(n=40, num_clients=3, seed=29)
        queries = np.random.default_rng(8).standard_normal((3, 4))
        tables = _table(clients, queries, 4, 1)
        if other == "depth":
            tables[1] = _table(clients, queries, 3, 1)[1]
        else:
            tables[1] = _table(clients, queries[:2], 4, 1)[1]
        server = make_server(k=4, alpha=1, labels=d.labels)
        with pytest.raises(ValidationError, match="^table of node 1 has shape"):
            plan_pass(server, clients, [0, 1, 2], queries, tables)

    @pytest.mark.parametrize("variant", POLICY_VARIANTS)
    def test_unplanned_query_keeps_nothing_and_answers_alike(self, variant):
        # a query with no plan (as `infer` asks) is ranked alone over an
        # empty dict of tables, and writes the transcript of a planned one
        d, store, clients = make_clients(n=60, num_clients=3, seed=37)
        proxy = d.subset(d.ids[:15])
        server = make_server(
            k=5, alpha=2, policy=BudgetPolicy(variant, seed=4, client=1),
            labels=d.labels,
            allocator=init_model(4, 8, 6, seeds=range(len(clients))),
            proxy=ClientNode(-1, proxy, store.subset(proxy.ids)))
        queries = d.examples[20:26]
        vectors = np.array([store.get(q.id) for q in queries])

        def transcripts(plans):
            return [distributed_infer(server, clients, query, e_q, plan)[1]
                    .to_dict()
                    for query, e_q, plan in zip(queries, vectors, plans)]
        cold = transcripts([None] * len(queries))
        tables = {}
        plans = plan_pass(server, clients, [q.id for q in queries], vectors,
                          tables)
        asked = {"zero_shot": [], "proxy_only": [server.proxy]}.get(
            variant, clients)
        assert sorted(tables) == sorted(node.id for node in asked)
        assert transcripts(plans) == cold  # served from the plans


class _RecordingMock(MockVoteBackend):
    """The mock vote, keeping the votes of its last answer."""

    def answer(self, prompt, votes, labels):
        self.votes = votes
        return super().answer(prompt, votes, labels)


def _overlapping_clients(seed):
    """The `test_overlapping_candidates` world: two shards sharing a third
    of the corpus."""
    d, store = make_world(30, 4, seed=seed)
    halves = [d.subset(d.ids[:20]), d.subset(d.ids[10:])]
    return [ClientNode(i, shard, store.subset(shard.ids))
            for i, shard in enumerate(halves)]


class TestOneSender:
    """Without a draw, one client's return among empty ones is the final
    set as it stands, and a singleton pass serves it."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10_000), num_clients=st.integers(1, 4),
           budget=st.integers(1, 12), shift=st.sampled_from([-1, 0, 1]))
    def test_first_k_of_a_full_sort(self, seed, num_clients, budget, shift):
        # points on a coarse grid tie often; k is below, equal to or above
        # the length of the one return
        rng = np.random.default_rng(seed)
        grid = rng.integers(-2, 3, size=(4, 3)) * 0.5
        n = budget + 5 * num_clients
        d = Dataset(tuple(Example(i, f"point {i}", i % 2) for i in range(n)),
                    LabelSpace.default(2))
        store = EmbeddingStore(np.arange(n), grid[rng.integers(4, size=n)])
        clients = [ClientNode(c, shard, store.subset(shard.ids))
                   for c, shard in enumerate(partition_iid(d, num_clients,
                                                           seed))]
        sender = int(rng.integers(num_clients))
        budgets = [0] * num_clients
        budgets[sender] = budget
        e_q = grid[0] if seed % 2 else rng.standard_normal(3)
        returned = [client_retrieve(c, e_q, b)
                    for c, b in zip(clients, budgets)]
        k = max(1, len(returned[sender]) + shift)
        ids, matrix = clients[sender].store.matrix()
        diffs = matrix - e_q
        distances = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        order = np.lexsort((ids, distances))[:min(k, budget)]
        final, owners = rerank_union(returned, k)
        assert final.id_array.tobytes() == ids[order].tobytes()
        assert final.distances.tobytes() == distances[order].tobytes()
        assert owners.tolist() == [sender] * len(final)
        # a singleton pass asking the sender for `budget`, with k = budget
        backend = _RecordingMock()
        server = make_server(k=budget, labels=d.labels, backend=backend,
                             policy=BudgetPolicy("singleton", client=sender),
                             ice_order="ascending")
        _, t = distributed_infer(server, clients, "q", e_q)
        alone = np.lexsort((ids, distances))[:budget]
        assert t.final_ice_ids == ids[alone].tolist()
        shard = clients[sender].shard.id_index()
        assert backend.votes == [(shard[i].label, dist) for i, dist in zip(
            ids[alone].tolist(), distances[alone].tolist())]

    def test_draw_still_reranks(self):
        # with a draw, k of a lone sender's entries are picked at random:
        # from its return in id order, then ranked by (distance, id)
        d, store, clients = make_clients(n=60, dim=3, seed=17)
        e_q = np.random.default_rng(3).standard_normal(3)
        budgets = [12, 0, 0]
        returned = [client_retrieve(c, e_q, b)
                    for c, b in zip(clients, budgets)]
        final, owners = rerank_union(returned, 4, _per_query_rng(0, 0))
        by_id = sorted(ranked_entries(returned[0]))
        picks = _per_query_rng(0, 0).choice(12, size=4, replace=False)
        want = sorted((by_id[i] for i in picks), key=lambda e: (e[1], e[0]))
        assert ranked_entries(final) == tuple(want)
        assert owners.tolist() == [0] * 4
        assert final.ids != returned[0].ids[:4]


class TestInfinitePrefixes:
    """`infinite` is served from each client's top-k prefix; its ICEs,
    their distances and its answer must be those of the whole shards."""

    def check(self, clients, e_q, k, alpha, labels, monkeypatch):
        candidates = []  # the entries that reach the server's rerank

        def counting_rerank(ids, distances, valid, *args):
            candidates.append(int(valid.sum()))
            return rerank_many(ids, distances, valid, *args)
        monkeypatch.setattr(federation, "rerank_many", counting_rerank)
        backend = _RecordingMock()
        server = make_server(k=k, alpha=alpha, policy=BudgetPolicy("infinite"),
                             labels=labels, backend=backend,
                             ice_order="ascending")
        answer, t = distributed_infer(server, clients, "free text", e_q)
        whole = [top_k(e_q, len(c.shard), c.shard, c.store) for c in clients]
        _, want = _reference_candidate_rerank(clients, whole, e_q, k)
        assert t.final_ice_ids == [i for i, _ in want]
        assert [dist for _, dist in backend.votes] == [dist for _, dist in want]
        owner = {i: c for c in clients for i in c.shard.ids}
        want_votes = [(owner[i].shard.id_index()[i].label, dist)
                      for i, dist in want]
        assert answer == MockVoteBackend().answer(None, want_votes, labels)
        # a client deeper than k + alpha is recorded by its count
        depth = k + alpha
        assert t.samples_returned == [
            len(c.shard) if len(c.shard) > depth
            else top_k(e_q, len(c.shard), c.shard, c.store).ids
            for c in clients]
        assert t.total_samples_communicated == sum(len(c.shard)
                                                   for c in clients)
        # only a top-k prefix of a deeper client reaches the server; a
        # shard of k + 1 .. k + alpha entries is not deeper, so it is sent
        # whole, and only without one do at most C·k candidates arrive
        [got] = candidates
        assert got == sum(k if len(c.shard) > depth else len(c.shard)
                          for c in clients)
        if all(len(c.shard) > depth or len(c.shard) <= k for c in clients):
            assert got <= len(clients) * k

    @pytest.mark.parametrize("seed", range(10))
    def test_tied_worlds(self, seed, monkeypatch):
        clients, grid = _tied_clients(seed)
        labels = clients[0].shard.labels
        rng = np.random.default_rng(2000 + seed)
        for alpha in (0, int(rng.integers(1, 4))):
            k = int(rng.integers(1, 9))
            for e_q in (grid[int(rng.integers(len(grid)))],
                        rng.standard_normal(grid.shape[1])):
                self.check(clients, e_q, k, alpha, labels, monkeypatch)

    def test_overlapping_shards(self, monkeypatch):
        rng = np.random.default_rng(6)
        for seed in range(5):
            clients = _overlapping_clients(seed)
            for k, alpha in ((7, 0), (7, 2), (19, 1)):
                self.check(clients, rng.standard_normal(4), k, alpha,
                           clients[0].shard.labels, monkeypatch)

    def test_shards_smaller_than_k(self, monkeypatch):
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(3, 30))
            d, store, clients = make_clients(
                n=n, dim=3, num_clients=int(rng.integers(1, 4)),
                seed=700 + trial)
            k = int(rng.integers(1, n + 5))  # some shards below k, some not
            for alpha in (0, 1, 3):
                self.check(clients, rng.standard_normal(3), k, alpha,
                           d.labels, monkeypatch)

    def test_one_ranking_per_query_and_client(self, monkeypatch):
        d, store, clients = make_clients(n=60, num_clients=3, seed=19)
        calls, misses = [], []

        def counting_top_k(e_q, k, d, store):  # a per-query ranking
            misses.append(np.asarray(e_q).tobytes())
            return top_k(e_q, k, d, store)

        def counting_top_k_many(queries, k, d, store):
            calls.extend((id(d), query.tobytes()) for query in queries)
            return top_k_many(queries, k, d, store)
        monkeypatch.setattr(federation, "top_k", counting_top_k)
        monkeypatch.setattr(federation, "top_k_many", counting_top_k_many)
        queries = d.examples[:8]
        vectors = np.array([store.get(query.id) for query in queries])
        tables = {}  # kept over the passes, as a seed keeps them
        for variant in ("infinite", "uniform", "learned", "social_learning"):
            server = make_server(
                k=5, alpha=1, policy=BudgetPolicy(variant, seed=3),
                labels=d.labels,
                allocator=init_model(4, 8, 6, seeds=range(len(clients))))
            plans = plan_pass(server, clients, [q.id for q in queries],
                              vectors, tables)  # once per pass
            for query, e_q, plan in zip(queries, vectors, plans):
                distributed_infer(server, clients, query, e_q, plan)
        assert not misses
        assert len(calls) == len(set(calls)) == len(queries) * len(clients)


def _reference_budgets(server, clients, query_id, e_q):
    """Each policy's budgets by its rule; `random`'s draw and `learned`'s
    prediction come from the seeded per-query draw and `predict_budget`."""
    variant, k, c = server.policy.variant, server.k, len(clients)
    if variant in ("uniform", "social_learning"):
        return [-(-k // c)] * c
    if variant == "random":
        return _random_composition(
            k, c, _per_query_rng(server.policy.seed, query_id))
    if variant == "learned":
        [budgets] = predict_budget(server.allocator, np.asarray(e_q)[None],
                                   server.delta)
        return (budgets + server.alpha).tolist()
    if variant == "singleton":
        return [k if i == server.policy.client else 0 for i in range(c)]
    if variant == "infinite":
        return [len(client.shard) for client in clients]
    return [0] * c


def _reference_round(server, clients, query, e_q):
    """One query's round done naively: each client's budget prefix of its
    brute-force ranking, a dict union in which the first owner of an id
    wins, a sort by (distance, id) (after `social_learning`'s seeded draw
    over the union in id order), and the mock vote. Returns (budgets, the
    returns as a transcript records them, samples sent, final ids, votes in
    prompt order, fallback, answer, the final ICEs as (text, label) of
    their owners in prompt order)."""
    variant, k = server.policy.variant, server.k
    budgets = _reference_budgets(server, clients, query.id, e_q)
    returned = [[] for _ in clients]
    union = {}  # id -> (distance, example of its first owner)
    if variant == "proxy_only":
        shard = server.proxy.shard
        for dist, i in brute_force_ranking(e_q, shard, server.proxy.store)[:k]:
            union[i] = (dist, shard.id_index()[i])
    elif variant != "zero_shot":
        for c, (client, budget) in enumerate(zip(clients, budgets)):
            prefix = brute_force_ranking(e_q, client.shard,
                                         client.store)[:budget]
            # a budget deeper than k + alpha is recorded by its count
            returned[c] = (len(prefix) if budget > k + server.alpha
                           else [i for _, i in prefix])
            for dist, i in prefix:
                union.setdefault(i, (dist, client.shard.id_index()[i]))
    ids = sorted(union)
    if variant == "social_learning" and ids:
        rng = _per_query_rng(server.policy.seed, query.id)
        ids = [ids[p] for p in rng.choice(len(ids), size=min(k, len(ids)),
                                          replace=False)]
    final = sorted(ids, key=lambda i: (union[i][0], i))[:k]
    votes = [(union[i][1].label, union[i][0]) for i in final]
    answer = MockVoteBackend().answer(None, votes, server.labels)
    if server.ice_order == "descending":
        final, votes = final[::-1], votes[::-1]
    ices = [(union[i][1].text, union[i][1].label) for i in final]
    sent = sum(len(r) if isinstance(r, list) else r for r in returned)
    fallback = variant not in ("proxy_only", "zero_shot") and not final
    return budgets, returned, sent, final, votes, fallback, answer, ices


@st.composite
def _planned_passes(draw):
    """A world of C clients whose shards may overlap (a shared id is one
    vector, but each client's copy has its own label), a proxy set, an
    allocator, k (up to above a shard's size), alpha, the ICE order and a
    pass's queries, two of which may share a vector."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_clients = draw(st.integers(1, 3))
    n = draw(st.integers(num_clients, 24))
    dim = draw(st.integers(1, 3))
    grid = draw(st.booleans())  # coarse grid points tie often
    matrix = (rng.integers(-2, 3, size=(n, dim)) * 0.5 if grid
              else rng.standard_normal((n, dim)))
    store = EmbeddingStore(np.arange(n), matrix)
    labels = LabelSpace.default(3)
    base = rng.integers(3, size=n)
    holders = [[c] for c in rng.permutation(n) % num_clients]
    if draw(st.booleans()):  # overlapping shards
        for i in range(n):
            holders[i] += [c for c in range(num_clients)
                           if c not in holders[i] and rng.random() < 0.4]
    clients = []
    for c in range(num_clients):
        held = [i for i in range(n) if c in holders[i]]
        shard = Dataset(tuple(Example(i, f"client {c} point {i}",
                                      int(base[i] + c) % 3) for i in held),
                        labels)
        clients.append(ClientNode(c, shard, store.subset(held)))
    proxy_ids = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                  replace=False).tolist())
    proxy = Dataset(tuple(Example(i, f"proxy {i}", int(base[i]))
                          for i in proxy_ids), labels)
    k = draw(st.integers(1, n + 3))
    alpha = draw(st.sampled_from([0, 1, 3]))
    server = dict(k=k, alpha=alpha, labels=labels,
                  ice_order=draw(st.sampled_from(["ascending", "descending"])),
                  allocator=init_model(dim, 8, k + 1,
                                       seeds=range(num_clients)),
                  proxy=ClientNode(-1, proxy, store.subset(proxy_ids)))
    m = draw(st.integers(1, 5))
    vectors = np.array([matrix[int(rng.integers(n))]
                        if grid and rng.random() < 0.5
                        else rng.standard_normal(dim) for _ in range(m)])
    if m > 1 and draw(st.booleans()):
        vectors[-1] = vectors[0]  # one vector, two query ids
    queries = [Example(1000 + j, f"query {j}", 0) for j in range(m)]
    return clients, server, queries, vectors


class TestPlanEqualsReference:
    """Every (policy, query) of a planned pass is the naive per-query
    round of `_reference_round`, and a query with no plan, answered before
    the pass is planned, gets the same transcript and answer. The passes
    share one dict of tables, as a seed's passes do."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(world=_planned_passes())
    def test_every_policy_and_query(self, world):
        clients, server_args, queries, vectors = world
        tables = {}
        for variant in POLICY_VARIANTS:
            backend = _RecordingMock()
            server = ServerNode(
                policy=BudgetPolicy(variant, seed=5, client=len(clients) - 1),
                backend=backend, **server_args)
            alone = [distributed_infer(server, clients, query, e_q)
                     for query, e_q in zip(queries, vectors)]
            plans = plan_pass(server, clients, [q.id for q in queries],
                              vectors, tables)
            assert len(plans) == len(queries), variant
            for query, e_q, plan, (alone_answer, alone_t) in zip(
                    queries, vectors, plans, alone):
                answer, t = distributed_infer(server, clients, query, e_q,
                                              plan)
                assert t.to_dict() == alone_t.to_dict(), variant
                assert answer == alone_answer, variant
                (budgets, returned, sent, final, votes, fallback,
                 want_answer, _) = _reference_round(server, clients, query,
                                                    e_q)
                assert t.budgets_sent == budgets, variant
                assert t.samples_returned == returned, variant
                assert t.total_samples_communicated == sent, variant
                assert t.final_ice_ids == final, variant
                # each client's copy of an id has its own label, so the
                # votes name the owner of every ICE
                assert [label for label, _ in backend.votes] == [
                    label for label, _ in votes], variant
                np.testing.assert_allclose(
                    [dist for _, dist in backend.votes],
                    [dist for _, dist in votes], rtol=1e-12, atol=0)
                assert t.fallback_zero_shot == fallback, variant
                assert answer == t.answer_label == want_answer, variant
        assert not any(ids.flags.writeable or distances.flags.writeable
                       for ids, distances in tables.values())


class TestPlannedPromptsMatchReference:
    """Every prompt of a planned pass is `reference_prompt` of the naive
    round's final examples in prompt order, each with the text and label of
    the client that owns it. A server renders each example once, and two
    clients' copies of one id are two examples, which one pass may both
    place in prompts."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(world=_planned_passes())
    def test_every_prompt_of_a_pass(self, world):
        clients, server_args, queries, vectors = world
        tables = {}
        for variant in POLICY_VARIANTS:
            backend = _PromptRecorder()
            server = ServerNode(
                policy=BudgetPolicy(variant, seed=5, client=len(clients) - 1),
                backend=backend, **server_args)
            plans = plan_pass(server, clients, [q.id for q in queries],
                              vectors, tables)
            for query, e_q, plan in zip(queries, vectors, plans):
                distributed_infer(server, clients, query, e_q, plan)
            assert [prompt for prompt, _ in backend.calls] == [
                reference_prompt(
                    _reference_round(server, clients, query, e_q)[-1],
                    query.text, server.labels)
                for query, e_q in zip(queries, vectors)], variant


class _PromptRecorder:
    """A backend that reads the prompt: it keeps each prompt and votes."""

    def __init__(self):
        self.calls = []

    def answer(self, prompt, votes, labels):
        self.calls.append((prompt, votes))
        return 0


# pieces of texts and verbalizers: the placeholders, their halves, braces,
# newlines and non-ASCII characters
_FRAGMENTS = ["{label}", "{text}", "{", "}", "{lab", "el}", "{l", "l}",
              "label", "text", "{{", "é", "日本", "😀", "\n", " ", "a"]
_STRINGS = st.lists(st.one_of(st.sampled_from(_FRAGMENTS),
                              st.text(max_size=3)), max_size=5).map("".join)


class TestPromptMatchesReplaces:
    """The server's one-pass prompt equals the two replaces per ICE of the
    one layout for any texts and verbalizers, in both ICE orders, and an
    ICE label outside the label space fails with the same message."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(verbalizers=st.lists(_STRINGS, min_size=1, max_size=4,
                                unique=True),
           ices=st.lists(st.tuples(_STRINGS, st.integers(0, 3)), max_size=6),
           bad_label=st.sampled_from([None, -1, 4, 7]),
           query_text=_STRINGS,
           ice_order=st.sampled_from(["ascending", "descending"]))
    @example(verbalizers=["{lab", "el}", "{label}"],
             ices=[("{lab", 1), ("{label}", 2), ("el}{text}", 0)],
             bad_label=None, query_text="{label}", ice_order="ascending")
    def test_prompt_and_votes(self, verbalizers, ices, bad_label, query_text,
                              ice_order):
        labels = LabelSpace(len(verbalizers), tuple(verbalizers))
        ices = [(text, label % labels.count) for text, label in ices]
        if bad_label is not None and ices:
            ices[-1] = (ices[-1][0], bad_label)
        examples = [Example(i, text, label)
                    for i, (text, label) in enumerate(ices)]
        distances = [0.5 * i for i in range(len(examples))]
        in_order = list(zip(examples, distances))
        if ice_order == "descending":
            in_order.reverse()
        backend = _PromptRecorder()
        server = make_server(k=max(1, len(examples)), labels=labels,
                             backend=backend, ice_order=ice_order)
        transcript = Transcript(
            query_id=-1, policy="uniform", budgets_sent=[],
            samples_returned=[], final_ice_ids=[], prompt_chars=0,
            answer_label=None, total_samples_communicated=0)
        final = RankedSet([ex.id for ex in examples], distances)
        try:
            want = reference_prompt(
                [(ex.text, ex.label) for ex, _ in in_order], query_text,
                labels)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                _finish(server, query_text, final, examples, transcript)
            assert str(got.value) == str(exc)
            return
        _finish(server, query_text, final, examples, transcript)
        assert backend.calls == [
            (want, [(ex.label, dist) for ex, dist in in_order])]
        assert transcript.prompt_text == want
        assert transcript.prompt_chars == len(want)
        assert transcript.final_ice_ids == [ex.id for ex, _ in in_order]


class _CountedText(str):
    """An example text that counts how often it is rendered."""

    renders = 0

    def replace(self, *args):
        self.renders += 1
        return super().replace(*args)


class TestRenderOncePerServer:
    """A server renders each example once, keyed by the example object and
    the label space: another example with the same id, or the same example
    under another label space, is rendered again."""

    def _prompts(self, server, ice_lists):
        transcript = Transcript(
            query_id=-1, policy="uniform", budgets_sent=[],
            samples_returned=[], final_ice_ids=[], prompt_chars=0,
            answer_label=None, total_samples_communicated=0)
        for examples in ice_lists:
            final = RankedSet([ex.id for ex in examples],
                              [0.5 * i for i in range(len(examples))])
            _finish(server, "q", final, list(examples), transcript)
        return [prompt for prompt, _ in server.backend.calls]

    def test_an_example_is_rendered_once(self):
        labels = LabelSpace.default(2)
        first = Example(3, _CountedText("one {label}"), 1)
        second = Example(4, _CountedText("two"), 0)
        server = make_server(k=2, labels=labels, backend=_PromptRecorder(),
                             ice_order="ascending")
        prompts = self._prompts(server, [[first, second], [second, first],
                                         [first]])
        assert prompts == [
            reference_prompt([(ex.text, ex.label) for ex in examples], "q",
                             labels)
            for examples in ([first, second], [second, first], [first])]
        assert (first.text.renders, second.text.renders) == (1, 1)

    def test_two_copies_of_one_id_keep_their_texts(self):
        labels = LabelSpace.default(2)
        copies = [Example(7, "client 0 copy", 0), Example(7, "client 1 copy", 1)]
        server = make_server(k=1, labels=labels, backend=_PromptRecorder())
        prompts = self._prompts(server, [[copies[0]], [copies[1]],
                                         [copies[0]]])
        assert prompts == [
            reference_prompt([(ex.text, ex.label)], "q", labels)
            for ex in (copies[0], copies[1], copies[0])]

    def test_another_label_space_renders_again(self):
        example = Example(1, "text {label}", 1)
        server = make_server(k=1, labels=LabelSpace(2, ("no", "yes")),
                             backend=_PromptRecorder())
        self._prompts(server, [[example]])
        server.labels = LabelSpace(2, ("bad", "good"))
        self._prompts(server, [[example]])
        assert [prompt for prompt, _ in server.backend.calls] == [
            "text yes\nyes\n\nq\n", "text good\ngood\n\nq\n"]

    def test_a_label_outside_the_space_fails_every_time(self):
        server = make_server(k=1, labels=LabelSpace.default(2),
                             backend=_PromptRecorder())
        example = Example(1, "text", 5)
        for _ in range(2):
            with pytest.raises(ValidationError,
                               match="ICE label 5 outside label space"):
                self._prompts(server, [[example]])


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", " ", "é",
     "日", "😀"])), max_size=8)
_INT64 = st.one_of(st.sampled_from([-1, 0, 2**63 - 1, -(2**63 - 1)]),
                   st.integers(-2**63, 2**63 - 1))
_INT_LISTS = st.lists(_INT64, max_size=4)


@st.composite
def _transcripts(draw):
    """A transcript of any field values a run or a loaded line can hold."""
    return Transcript(
        query_id=draw(_INT64), policy=draw(_TEXT),
        budgets_sent=draw(_INT_LISTS),
        samples_returned=draw(st.lists(st.one_of(_INT64, _INT_LISTS),
                                       max_size=4)),
        final_ice_ids=draw(_INT_LISTS), prompt_chars=draw(_INT64),
        answer_label=draw(st.one_of(st.none(), _INT64)),
        total_samples_communicated=draw(_INT64),
        fallback_zero_shot=draw(st.booleans()),
        raw_completion=draw(st.one_of(st.none(), _TEXT)),
        prompt_text=draw(st.one_of(st.none(), _TEXT)))


def _transcript(**changes):
    return Transcript(**{**dict(
        query_id=1, policy="uniform", budgets_sent=[2, 2],
        samples_returned=[[1, 2], 4], final_ice_ids=[2, 1], prompt_chars=9,
        answer_label=0, total_samples_communicated=6), **changes})


class TestTranscriptLines:
    """`save_transcripts` formats each line itself; every line is what
    `json.dumps(t.to_dict(), sort_keys=True)` writes, and a value json
    refuses is refused."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(transcripts=st.lists(_transcripts(), max_size=3))
    def test_lines_are_sorted_key_json(self, tmp_path_factory, transcripts):
        path = tmp_path_factory.mktemp("lines") / "t.jsonl"
        save_transcripts(transcripts, path)
        assert path.read_text(encoding="ascii") == "".join(
            json.dumps(t.to_dict(), sort_keys=True) + "\n"
            for t in transcripts)
        assert [t.to_dict() for t in load_transcripts(path)] == [
            t.to_dict() for t in transcripts]

    @pytest.mark.parametrize("changes", [
        {"budgets_sent": [True, 1]},
        {"samples_returned": [[1, False], 3, True]},
        {"final_ice_ids": [1.5, -0.0, float("nan")]},
        {"prompt_chars": 2.0, "fallback_zero_shot": 1},
        {"answer_label": np.float64(1.0)},
        {"samples_returned": [{"b": 1, "a": [2]}]},
        {"policy": 3, "raw_completion": ["x"], "prompt_text": ""},
    ])
    def test_other_values_as_json_writes_them(self, changes):
        t = _transcript(**changes)
        assert t.to_json() == json.dumps(t.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("changes", [
        {"query_id": np.int64(5)},
        {"final_ice_ids": [1, np.int64(5)]},
        {"samples_returned": [[1], [np.int64(5)]]},
        {"budgets_sent": [np.float32(1.0)]},
        {"fallback_zero_shot": np.bool_(True)},
    ])
    def test_values_json_refuses_are_refused(self, tmp_path, changes):
        t = _transcript(**changes)
        with pytest.raises(TypeError):
            json.dumps(t.to_dict(), sort_keys=True)
        with pytest.raises(TypeError):
            t.to_json()
        with pytest.raises(TypeError):
            save_transcripts([t], tmp_path / "t.jsonl")
