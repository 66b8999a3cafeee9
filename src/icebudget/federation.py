"""Simulated client/server budgeted retrieval protocol.

The "network" is an in-process request/response exchange recorded in a
Transcript per query. All budget policies (learned allocator plus the
uniform, random, singleton, social-learning, infinite, proxy-only, and
zero-shot baselines) are implemented here, and every one of them answers a
query through `distributed_infer`: a policy only decides how `allocate`
splits the budget and how the server selects the final ICEs.

A budget only truncates a client's ranking of its shard for the query, so a
client ranks each query once. It keeps, per query vector, the ids and
distances of that vector's top-(k + alpha) entries by (distance, id),
exactly as `top_k` returns them, keyed on a digest of the vector's bytes;
k + alpha is the deepest budget any policy but `infinite` sends. Every later
budget inside that prefix is served as a slice of it, with nothing ranked or
measured again. Before a pass whose policy asks clients, `keep_rankings`
has each client rank every query vector of the pass that it keeps no
ranking of in one `top_k_many` call, so that the pass itself ranks
nothing; `run_experiment` releases a seed's rankings before it evaluates
the next seed. `retrieval.rerank_union` alone turns the returns into the
final ICEs, a lone sender's included, and names the client behind each;
its shard's id index, looked up once per query, resolves the example.
One `build_prompt` pass over the final ICEs, in `ice_order`, gives the
prompt and the backend's (label, distance) votes.

Only the global top-k reaches a prompt, and it is the rerank of every
client's local top-k. So a client sent a budget deeper than k + alpha
(only `infinite` sends one) gives the server just its top-k, and its
transcript records how many samples it sent in place of their ids.

A transcript (schema 2) holds only what a run cannot rebuild: the union
the server reranked is derived from `samples_returned`, and the prompt is
recorded only for a backend that reads it (not `MockVoteBackend`). Schema 1
lines still load.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .allocator import AllocatorModel, predict_budget
from .config import POLICY_VARIANTS
from .corpus import Dataset, Example, LabelSpace
from .embedder import EmbeddingStore
from .errors import BackendError, ParseError, ValidationError, is_int
from .inference import MockVoteBackend, PromptTemplate, build_prompt
from .retrieval import (RankedSet, query_vector, rerank_union, top_k,
                        top_k_many)

TEMPLATE = PromptTemplate()  # the layout of every server prompt


@dataclass(frozen=True)
class BudgetPolicy:
    """A budget policy as a plain value: `variant` names the allocation and
    selection rule, `seed` drives the random and social-learning draws,
    `client` is the one client a singleton policy asks."""

    variant: str
    seed: int = 0
    client: int = 0

    def __post_init__(self):
        if self.variant not in POLICY_VARIANTS:
            raise ValidationError(f"unknown policy variant: {self.variant}")


@dataclass
class ClientNode:
    """A client: its shard, the shard's store, and the rankings it keeps
    (see `client_retrieve`)."""

    id: int
    shard: Dataset
    store: EmbeddingStore
    # query digest -> the query's top entries as a read-only RankedSet
    rankings: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.store.check_bound(self.shard)


@dataclass
class ServerNode:
    k: int
    alpha: int = 0
    policy: BudgetPolicy = BudgetPolicy("uniform")
    allocator: AllocatorModel | None = None  # the C clients' stacked model
    delta: int = 1
    proxy: Dataset | None = None
    proxy_store: EmbeddingStore | None = None
    # anything with answer(prompt, votes, labels) -> label index
    backend: object = field(default_factory=MockVoteBackend)
    labels: LabelSpace | None = None
    ice_order: str = "descending"  # distance order in the prompt
    max_prompt_chars: int = 1_000_000

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("server budget k must be >= 1")
        if self.alpha < 0:
            raise ValidationError("alpha must be nonnegative")
        if self.ice_order not in ("descending", "ascending"):
            raise ValidationError("ice_order must be descending or ascending")

    def require_ready(self, num_clients: int):
        if self.policy.variant == "learned":
            if self.allocator is None or self.allocator.num_clients != num_clients:
                raise ValidationError(
                    "learned policy needs one allocator per client")
        if self.policy.variant == "proxy_only":
            if self.proxy is None or self.proxy_store is None:
                raise ValidationError("proxy_only policy needs the proxy set")
        if self.policy.variant == "singleton" and self.policy.client >= num_clients:
            raise ValidationError("singleton client index out of range")


@dataclass
class Transcript:
    query_id: int
    policy: str
    budgets_sent: list[int]
    # per client: the ids it returned, or how many samples it sent when its
    # budget was deeper than the server's k + alpha (see `_gather`)
    samples_returned: list[list[int] | int]
    final_ice_ids: list[int]
    prompt_chars: int
    answer_label: int | None
    total_samples_communicated: int
    fallback_zero_shot: bool = False
    raw_completion: str | None = None
    prompt_text: str | None = None  # None when the backend never reads it

    @property
    def aggregated_ids(self) -> list[int] | None:
        """The sorted distinct ids the clients returned: the union the
        server reranked. None when a client is recorded by its count."""
        if any(isinstance(ids, int) for ids in self.samples_returned):
            return None
        return sorted({i for ids in self.samples_returned for i in ids})

    def to_dict(self):
        # not dataclasses.asdict: that deep-copies every id list
        record = {"schema_version": 2,
                  **{f.name: getattr(self, f.name) for f in fields(self)}}
        if self.prompt_text is None:
            del record["prompt_text"]
        return record

    @staticmethod
    def from_dict(obj) -> "Transcript":
        """A schema 1 or 2 record; a missing optional field takes its
        default, and schema 1's stored union is dropped. A missing required
        field, or a field of the wrong JSON type, is a ValidationError."""
        version = obj.get("schema_version", 1)
        if version not in (1, 2):
            raise ValidationError(f"unknown transcript schema_version {version}")
        values = {}
        for f in fields(Transcript):
            if f.name not in obj:
                if f.default is MISSING:
                    raise ValidationError(f"missing field '{f.name}'")
                continue
            kind, valid = _FIELD_CHECKS[f.name]
            if not valid(obj[f.name]):
                raise ValidationError(f"field '{f.name}' must be {kind}")
            values[f.name] = obj[f.name]
        return Transcript(**values)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(is_int, value))


def _is_optional_str(value) -> bool:
    return value is None or isinstance(value, str)


# each Transcript field: (its JSON type in words, the check of a loaded value)
_FIELD_CHECKS = {
    "query_id": ("an integer", is_int),
    "policy": ("a string", lambda v: isinstance(v, str)),
    "budgets_sent": ("a list of integers", _is_int_list),
    "samples_returned": ("a list of id lists or counts",
                         lambda v: isinstance(v, list) and all(
                             is_int(x) or _is_int_list(x) for x in v)),
    "final_ice_ids": ("a list of integers", _is_int_list),
    "prompt_chars": ("an integer", is_int),
    "answer_label": ("an integer or null", lambda v: v is None or is_int(v)),
    "total_samples_communicated": ("an integer", is_int),
    "fallback_zero_shot": ("a boolean", lambda v: isinstance(v, bool)),
    "raw_completion": ("a string or null", _is_optional_str),
    "prompt_text": ("a string or null", _is_optional_str),
}


def _per_query_rng(seed: int, query_id: int) -> np.random.Generator:
    # Ad-hoc text queries carry id -1; taken modulo 2**64 they still get a
    # seeded draw, and no int64 example id maps to the same entropy.
    return np.random.default_rng(
        np.random.SeedSequence((seed, query_id % 2**64)))


def _random_composition(k: int, parts: int, rng) -> list[int]:
    """Uniform draw from the nonnegative integer compositions of k into
    `parts` parts, via stars and bars."""
    if parts == 1:
        return [k]
    bars = np.sort(rng.choice(k + parts - 1, size=parts - 1, replace=False))
    slots = np.concatenate(([-1], bars, [k + parts - 1]))
    return [int(slots[i + 1] - slots[i] - 1) for i in range(parts)]


def allocate(policy: BudgetPolicy, e_q, server: ServerNode, clients,
             query_id: int = 0) -> list[int]:
    """Per-client budget vector for one query under the given policy."""
    c = len(clients)
    server.require_ready(c)
    variant = policy.variant
    if variant in ("uniform", "social_learning"):
        return [math.ceil(server.k / c)] * c
    if variant == "random":
        rng = _per_query_rng(policy.seed, query_id)
        return _random_composition(server.k, c, rng)
    if variant == "learned":
        return [budget + server.alpha
                for budget in predict_budget(server.allocator, e_q, server.delta)]
    if variant == "singleton":
        return [server.k if i == policy.client else 0 for i in range(c)]
    if variant == "infinite":
        return [len(client.shard) for client in clients]
    if variant in ("proxy_only", "zero_shot"):
        return [0] * c
    raise ValidationError(f"unknown policy variant: {variant}")


def _digest(query: np.ndarray) -> bytes:
    """The key of a float64 query vector's kept rankings."""
    return hashlib.blake2b(query.tobytes(), digest_size=16).digest()


def client_retrieve(client: ClientNode, e_q, budget: int,
                    depth: int = 0) -> RankedSet:
    """Local top-min(budget, |shard|); a zero budget returns nothing.

    The client keeps the ids and distances of the query's top-`depth`
    entries as `top_k` returned them, keyed on a digest of the query
    vector's bytes, and serves any budget inside that prefix (any budget
    at all when the prefix is the whole shard) as a slice of them, which
    is what `top_k` would return. A query without a kept ranking, or a
    budget deeper than its kept prefix, goes to `top_k`. The
    kept prefix is a copy, so a deeper ranking is not held alive by it, and
    it is read-only, as is every slice served from it."""
    if budget < 0:
        raise ValidationError("budget must be nonnegative")
    if budget == 0:
        return RankedSet()
    query = query_vector(e_q, client.store)
    key = _digest(query)
    kept = client.rankings.get(key)
    if kept is not None and min(budget, len(client.shard)) <= len(kept):
        return RankedSet(kept.id_array[:budget], kept.distances[:budget])
    ranked = top_k(query, max(budget, depth), client.shard, client.store)
    if depth:
        kept = RankedSet(ranked.id_array[:depth].copy(),
                         ranked.distances[:depth].copy())
        kept.id_array.flags.writeable = False
        kept.distances.flags.writeable = False
        client.rankings[key] = kept
    return RankedSet(ranked.id_array[:budget], ranked.distances[:budget])


def keep_rankings(server: ServerNode, clients, queries):
    """Before a pass of `server`'s policy over the query vectors (the rows
    of `queries`): if the policy asks clients, have each client rank, in one
    `top_k_many` call, the vectors it keeps no ranking of, and keep their
    top-(k + alpha) entries as `client_retrieve` keeps them, as read-only
    rows of one array under each vector's digest."""
    if server.policy.variant in ("proxy_only", "zero_shot"):
        return
    queries = np.asarray(queries, dtype=np.float64)
    rows = {}  # digest -> the first row with it
    for row, query in enumerate(queries):
        rows.setdefault(_digest(query), row)
    for client in clients:
        missing = [key for key in rows if key not in client.rankings]
        if not missing:
            continue
        ids, distances = top_k_many(
            queries.take([rows[key] for key in missing], axis=0),
            server.k + server.alpha, client.shard, client.store)
        ids.flags.writeable = False
        distances.flags.writeable = False
        client.rankings.update(zip(missing, map(RankedSet, ids, distances)))


def _examples(datasets, ids, owners) -> list[Example]:
    """The example behind each final id, from the dataset of the client
    (its index in `datasets`) that returned it. Each dataset's id index is
    looked up once; an id missing from its dataset is a ValidationError."""
    indexes = [d.id_index() for d in datasets]
    try:
        return [indexes[owner][example_id]
                for example_id, owner in zip(ids, owners)]
    except KeyError as exc:
        raise ValidationError(f"no example with id {exc.args[0]}") from None


def _gather(clients, e_q, budgets, k: int, transcript, rng=None,
            depth: int = 0):
    """Ask every client for its local top-budget (each keeping its top-depth
    ranking), record the round in the transcript and return the final ICEs
    with the examples behind them.

    A client whose budget is deeper than `depth` sends min(budget, |shard|)
    samples, but only its top-k can reach the final k, so the server takes
    that prefix of its kept ranking and records the count alone."""
    returned, recorded = [], []
    for client, budget in zip(clients, budgets):
        if depth and budget > depth:
            ranked = client_retrieve(client, e_q, k, depth)
            recorded.append(min(budget, len(client.shard)))
        else:
            ranked = client_retrieve(client, e_q, budget, depth)
            recorded.append(ranked.ids)
        returned.append(ranked)
    transcript.samples_returned = recorded
    transcript.total_samples_communicated = sum(
        min(budget, len(client.shard))
        for client, budget in zip(clients, budgets))
    final, owners = rerank_union(returned, k, rng)
    transcript.fallback_zero_shot = not len(final)
    return final, _examples([client.shard for client in clients], final.ids,
                            owners.tolist())


def _finish(server: ServerNode, query, final: RankedSet, examples,
            transcript: Transcript):
    """Build the prompt and the votes from the final ranked set and its
    examples in one pass, query the backend, and complete the transcript."""
    labels = server.labels
    if labels is None:
        raise ValidationError("server needs a label space to answer")
    ids, distances = final.ids, final.distances.tolist()
    if server.ice_order == "descending":
        # nearest example ends up adjacent to the query
        ids, distances, examples = ids[::-1], distances[::-1], examples[::-1]
    query_text = query.text if isinstance(query, Example) else str(query)
    votes = []
    prompt = build_prompt(zip(examples, distances), query_text, TEMPLATE,
                          labels, votes)
    if len(prompt) > server.max_prompt_chars:
        raise ValidationError(
            f"prompt of {len(prompt)} chars exceeds cap {server.max_prompt_chars}")
    # the mock votes on the ICEs' labels and distances, never the prompt
    transcript.prompt_text = (None if isinstance(server.backend, MockVoteBackend)
                              else prompt)
    transcript.prompt_chars = len(prompt)
    transcript.final_ice_ids = ids

    try:
        answer = server.backend.answer(prompt, votes, labels)
    except BackendError as exc:
        exc.transcript = transcript
        raise
    transcript.answer_label = answer
    return answer, transcript


def distributed_infer(server: ServerNode, clients, query, e_q):
    """One full budgeted inference round (Alg.-style): allocate budgets,
    gather client returns, select the final k ICEs, prompt, answer.

    The selection reranks the gathered union by (distance, id), except under
    social learning, where the server draws k of the union uniformly at
    random (seeded per query) and orders only those."""
    policy = server.policy
    query_id = query.id if isinstance(query, Example) else -1
    budgets = allocate(policy, e_q, server, clients, query_id=query_id)
    transcript = Transcript(
        query_id=query_id, policy=policy.variant, budgets_sent=list(budgets),
        samples_returned=[[] for _ in clients], final_ice_ids=[],
        prompt_chars=0, answer_label=None, total_samples_communicated=0)

    if policy.variant == "zero_shot":
        final, examples = RankedSet(), []
    elif policy.variant == "proxy_only":
        final = top_k(e_q, server.k, server.proxy, server.proxy_store)
        examples = _examples([server.proxy], final.ids, [0] * len(final))
    else:
        rng = (_per_query_rng(policy.seed, query_id)
               if policy.variant == "social_learning" else None)
        final, examples = _gather(clients, e_q, budgets, server.k, transcript,
                                  rng, depth=server.k + server.alpha)
    return _finish(server, query, final, examples, transcript)


def save_transcripts(transcripts, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in transcripts:
            fh.write(json.dumps(t.to_dict(), sort_keys=True) + "\n")


def load_transcripts(path, query_ids=None, num_clients=None
                     ) -> list[Transcript]:
    """Read a file written by `save_transcripts`. A line that is not JSON,
    not an object, or not a transcript (see `Transcript.from_dict`) raises
    ParseError naming the file and the line. Given `query_ids`, so does a
    line of another query or a repeated one, or with other than
    `num_clients` budgets, and a query no line holds (named by its id)."""
    out = []
    remaining = set(query_ids or ())
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON: {exc.msg}",
                                 line=lineno) from exc
            if not isinstance(obj, dict):
                raise ParseError(f"{path}: transcript must be a JSON object",
                                 line=lineno)
            try:
                t = Transcript.from_dict(obj)
                if query_ids is not None and t.query_id not in remaining:
                    raise ValidationError(f"query id {t.query_id} is repeated "
                                          "or not a test query of this seed")
                if query_ids is not None and len(t.budgets_sent) != num_clients:
                    raise ValidationError(f"{len(t.budgets_sent)} budgets for "
                                          f"{num_clients} clients")
            except ValidationError as exc:
                raise ParseError(f"{path}: {exc}", line=lineno) from exc
            remaining.discard(t.query_id)
            out.append(t)
    if remaining:
        raise ParseError(f"{path}: no transcript of test query "
                         f"{min(remaining)}")
    return out
