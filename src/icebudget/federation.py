"""Simulated client/server budgeted retrieval protocol.

The "network" is an in-process request/response exchange recorded in a
Transcript per query. All budget policies (learned allocator plus the
uniform, random, singleton, social-learning, infinite, proxy-only, and
zero-shot baselines) are implemented here, and every one of them answers a
query through `distributed_infer`: a policy only decides how `allocate`
splits the budget and how the server selects the final ICEs.

A budget only truncates a client's ranking of its shard for the query, so a
client ranks each query once, and a pass is planned before its first
answer. `plan_pass` takes the table of each node the policy asks (`_asked`:
the clients, or the server's proxy set, a `ClientNode` too, under
`proxy_only`) from the `tables` dict its caller passes: the top-(k + alpha)
entries by (distance, id) of each query vector, k + alpha being the deepest
budget any policy but `infinite` sends. A node with no entry ranks the
pass's vectors in one `top_k_many` call, so a caller that keeps the dict
over a seed's passes ranks its test vectors once per node. The plan then
works in blocks of 64 queries: it takes a block's budgets from one
`allocate` call (one `predict_budget` pass under `learned`), gathers each
client's budget prefix of its table rows, and reranks the block in one
`retrieval.rerank_many` call, which also names the client
behind each final ICE; the shards' id indexes resolve the examples.
`plan_pass` returns the plans in query order, and `distributed_infer`
serves the plan it is handed. A query with none (an `infer` query) is
planned alone, as a pass of one over an empty dict, so every query takes
the one path.
One `build_prompt` pass over the final ICEs, in `ice_order`, gives the
prompt and the backend's (label, distance) votes. The server keeps each
ICE's rendered piece in a cache of its own, per label space and keyed by
the example object (two clients' copies of one id may differ), so a pass,
which the harness serves with a server of its own, renders each example
once.

Only the global top-k reaches a prompt, and it is the rerank of every
client's local top-k. So a client sent a budget deeper than k + alpha
(only `infinite` sends one) gives the server just its top-k, and its
transcript records how many samples it sent in place of their ids.

A transcript (schema 2) holds only what a run cannot rebuild: the union
the server reranked is derived from `samples_returned`, and the prompt is
recorded only for a backend that reads it (not `MockVoteBackend`). Schema 1
lines still load. `Transcript.to_json` formats a record's line directly, in
the bytes `json.dumps(to_dict(), sort_keys=True)` would write; the files and
`infer`'s printed line both come from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .allocator import AllocatorModel, predict_budget
from .config import POLICY_VARIANTS
from .corpus import Dataset, Example, LabelSpace
from .embedder import EmbeddingStore
from .errors import (BackendError, ParseError, ValidationError, is_int,
                     jsonl_values)
from .inference import MockVoteBackend, build_prompt
from .retrieval import RankedSet, rerank_many, top_k, top_k_many


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
    """A client: its shard and the shard's store. The server's proxy set is
    one too."""

    id: int
    shard: Dataset
    store: EmbeddingStore

    def __post_init__(self):
        self.store.check_bound(self.shard)


@dataclass
class ServerNode:
    k: int
    alpha: int = 0
    policy: BudgetPolicy = BudgetPolicy("uniform")
    allocator: AllocatorModel | None = None  # the C clients' stacked model
    delta: int = 1
    proxy: ClientNode | None = None  # the server's own pool
    # anything with answer(prompt, votes, labels) -> label index
    backend: object = field(default_factory=MockVoteBackend)
    labels: LabelSpace | None = None
    ice_order: str = "descending"  # distance order in the prompt
    max_prompt_chars: int = 1_000_000
    # (label space, the `build_prompt` cache of the ICEs this server has
    # rendered under it); the harness makes one server per pass
    _pieces: tuple = field(default=(None, None), init=False, repr=False,
                           compare=False)

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
            if self.proxy is None:
                raise ValidationError("proxy_only policy needs the proxy set")
        if self.policy.variant == "singleton" and self.policy.client >= num_clients:
            raise ValidationError("singleton client index out of range")


@dataclass
class Transcript:
    query_id: int
    policy: str
    budgets_sent: list[int]
    # per client: the ids it returned, or how many samples it sent when its
    # budget was deeper than the server's k + alpha (see `_plan`)
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

    def to_json(self) -> str:
        """The record as `json.dumps(self.to_dict(), sort_keys=True)` writes
        it, formatted field by field in that sorted key order: a plain int,
        or a list of plain ints and lists of them, by its repr (which is
        what json writes for them), any other value through a json encoder
        with sort_keys, so strings keep json's ASCII escaping and a value
        json refuses (a numpy scalar) is refused here too."""
        prompt_text = ("" if self.prompt_text is None
                       else f'"prompt_text": {_json(self.prompt_text)}, ')
        return (f'{{"answer_label": {_json(self.answer_label)}, '
                f'"budgets_sent": {_json(self.budgets_sent)}, '
                f'"fallback_zero_shot": {_json(self.fallback_zero_shot)}, '
                f'"final_ice_ids": {_json(self.final_ice_ids)}, '
                f'"policy": {_json(self.policy)}, '
                f'"prompt_chars": {_json(self.prompt_chars)}, {prompt_text}'
                f'"query_id": {_json(self.query_id)}, '
                f'"raw_completion": {_json(self.raw_completion)}, '
                f'"samples_returned": {_json(self.samples_returned)}, '
                '"schema_version": 2, '
                '"total_samples_communicated": '
                f'{_json(self.total_samples_communicated)}}}')

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


_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(v, sort_keys=True)
_INT = {int}


def _is_int_tree(values) -> bool:
    """Whether each item is an int or a list of ints, each of type int
    itself (json writes a bool as true and refuses a numpy integer): then
    the repr of `values` is its JSON."""
    if _INT.issuperset(map(type, values)):  # a flat list, in one C loop
        return True
    return all(type(v) is int or type(v) is list
               and _INT.issuperset(map(type, v)) for v in values)


def _json(value) -> str:
    """`value` as `json.dumps(value, sort_keys=True)` writes it."""
    if type(value) is int or type(value) is list and _is_int_tree(value):
        return repr(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    return _encode(value)


def _is_int64(value) -> bool:
    return is_int(value) and -2**63 <= value < 2**63


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int64, value))


def _is_optional_str(value) -> bool:
    return value is None or isinstance(value, str)


# each Transcript field: (its JSON type in words, the check of a loaded value)
_FIELD_CHECKS = {
    "query_id": ("an integer in the int64 range", _is_int64),
    "policy": ("a string", lambda v: isinstance(v, str)),
    "budgets_sent": ("a list of integers in the int64 range", _is_int_list),
    "samples_returned": ("a list of id lists or counts",
                         lambda v: isinstance(v, list) and all(
                             _is_int64(x) or _is_int_list(x) for x in v)),
    "final_ice_ids": ("a list of integers in the int64 range", _is_int_list),
    "prompt_chars": ("an integer in the int64 range", _is_int64),
    "answer_label": ("an integer in the int64 range or null",
                     lambda v: v is None or _is_int64(v)),
    "total_samples_communicated": ("an integer in the int64 range", _is_int64),
    "fallback_zero_shot": ("a boolean", lambda v: isinstance(v, bool)),
    "raw_completion": ("a string or null", _is_optional_str),
    "prompt_text": ("a string or null", _is_optional_str),
}


# queries per `_plan` call of a pass: it bounds the plan's temporary
# arrays, which for a whole 350-query text pass at once raised the peak RSS
# of a run by about 1 MB
_PLAN_ROWS = 64


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


def allocate(policy: BudgetPolicy, queries, server: ServerNode, clients,
             query_ids) -> np.ndarray:
    """(m, C): each client's budget for each of the m queries `query_ids`,
    with the vectors the rows of `queries`, under the given policy.
    `learned` predicts the whole block in one `predict_budget` call, and
    `random` draws each query's composition from its own seeded stream."""
    c, m = len(clients), len(query_ids)
    server.require_ready(c)
    variant = policy.variant
    budgets = np.zeros((m, c), dtype=np.int64)
    if variant in ("uniform", "social_learning"):
        budgets[:] = math.ceil(server.k / c)
    elif variant == "random":
        budgets[:] = [_random_composition(server.k, c,
                                          _per_query_rng(policy.seed, query_id))
                      for query_id in query_ids]
    elif variant == "learned":
        budgets[:] = predict_budget(server.allocator, queries, server.delta)
        budgets += server.alpha
    elif variant == "singleton":
        budgets[:, policy.client] = server.k
    elif variant == "infinite":
        budgets[:] = [len(client.shard) for client in clients]
    elif variant not in ("proxy_only", "zero_shot"):
        raise ValidationError(f"unknown policy variant: {variant}")
    return budgets


def client_retrieve(client: ClientNode, e_q, budget: int) -> RankedSet:
    """Local top-min(budget, |shard|): `top_k` over the client's shard."""
    if budget < 0:
        raise ValidationError("budget must be nonnegative")
    return top_k(e_q, budget, client.shard, client.store)


def _asked(server: ServerNode, clients) -> list[ClientNode]:
    """The nodes `server`'s policy asks: the clients, the server's proxy set
    under `proxy_only`, or none under `zero_shot`."""
    server.require_ready(len(clients))
    variant = server.policy.variant
    if variant == "zero_shot":
        return []
    return [server.proxy] if variant == "proxy_only" else list(clients)


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


def _plan(server: ServerNode, clients, query_ids, queries: np.ndarray,
          ranked):
    """Each query's (final ICEs, their examples, transcript of the round so
    far) for the query ids and vectors (the rows of `queries`), from one
    `rerank_many` over every query's returns. `ranked` holds, for each node
    the policy asks (`_asked`), its (ids, distances) rows of the queries:
    their top-min(k + alpha, |shard|) entries.

    The budgets come from one `allocate` call over the block. A client sends
    the server its local top-budget, a prefix of its ranking; but only its
    top-k can reach the final k, so a client sent a budget deeper than
    k + alpha (only `infinite` sends one) gives the server that prefix
    alone, and its transcript records how many samples it sent in place of
    their ids. Under `proxy_only` the server takes the top k of
    its own proxy set, and under `zero_shot` nothing."""
    policy, k, depth = server.policy, server.k, server.k + server.alpha
    budgets = allocate(policy, queries, server, clients, query_ids)
    m = len(budgets)
    nodes = _asked(server, clients)
    asked = policy.variant not in ("proxy_only", "zero_shot")
    asks = budgets if asked else np.full((m, len(nodes)), k, dtype=np.int64)
    widths = [node_ids.shape[1] for node_ids, _ in ranked]
    deep = asks > depth
    take = np.minimum(np.where(deep, k, asks), widths)
    # the pass's block: each node's rankings side by side, valid where the
    # node returned them
    starts = np.cumsum([0, *widths]).tolist()
    ids = np.empty((m, starts[-1]), dtype=np.int64)
    distances = np.empty((m, starts[-1]))
    valid = np.empty((m, starts[-1]), dtype=bool)
    for c, (node_ids, node_distances) in enumerate(ranked):
        lo, hi = starts[c], starts[c + 1]
        ids[:, lo:hi], distances[:, lo:hi] = node_ids, node_distances
        valid[:, lo:hi] = np.arange(hi - lo) < take[:, c, None]
    owner = np.repeat(np.arange(len(nodes)), widths)
    rngs = ([_per_query_rng(policy.seed, query_id) for query_id in query_ids]
            if policy.variant == "social_learning" else None)
    rows, columns = rerank_many(ids, distances, valid, k, rngs)
    final_ids, final_distances = ids[rows, columns], distances[rows, columns]
    examples = _examples([node.shard for node in nodes], final_ids.tolist(),
                         owner.take(columns).tolist())
    bounds = np.searchsorted(rows, np.arange(m + 1)).tolist()
    if asked:
        sent = np.minimum(asks, [len(client.shard) for client in clients])
        # the ids each (query, client) return records, in (query, client)
        # order: its whole prefix, unless it is recorded by its count
        counts = np.where(deep, 0, take)
        ends = np.cumsum(counts).reshape(counts.shape)
        recorded = ids[valid & ~deep[:, owner]].tolist()
        returns = [
            [count if sent_all else recorded[end - n:end]
             for count, sent_all, n, end in zip(*row)]
            for row in zip(sent.tolist(), deep.tolist(), counts.tolist(),
                           ends.tolist())]
        totals = sent.sum(axis=1).tolist()
    else:
        returns = [[[] for _ in clients] for _ in range(m)]
        totals = [0] * m
    return [
        (RankedSet(final_ids[lo:hi], final_distances[lo:hi]), examples[lo:hi],
         Transcript(query_id=query_id, policy=policy.variant,
                    budgets_sent=query_budgets, samples_returned=returned,
                    final_ice_ids=[], prompt_chars=0, answer_label=None,
                    total_samples_communicated=total,
                    fallback_zero_shot=asked and lo == hi))
        for query_id, query_budgets, returned, total, lo, hi in zip(
            query_ids, budgets.tolist(), returns, totals, bounds, bounds[1:])]


def plan_pass(server: ServerNode, clients, query_ids, queries, tables):
    """The plans of a pass of `server`'s policy over the queries
    `query_ids`, with the vectors the rows of `queries`, in query order:
    each query's (final ICEs, their examples, transcript of the round so
    far), for `distributed_infer` to serve.

    `tables` maps a node id to that node's table of `queries`: its
    top-min(k + alpha, |shard|) entries of each row, as read-only id and
    distance arrays. Each asked node (`_asked`) with no entry yet ranks the
    whole block in one `top_k_many` call and gets one, so a caller that
    keeps `tables` over its passes of one block of vectors, at one k +
    alpha, ranks them once per node. An entry of another shape (another
    depth or block size) is a ValidationError naming the node; one of the
    right shape is trusted to be of these vectors. The plan then takes
    `_PLAN_ROWS` queries per `_plan` call."""
    nodes = _asked(server, clients)
    queries = np.asarray(queries, dtype=np.float64)
    depth = server.k + server.alpha
    for node in nodes:
        shape = (len(queries), min(depth, len(node.shard)))
        if node.id not in tables:
            ids, distances = top_k_many(queries, depth, node.shard, node.store)
            ids.flags.writeable = distances.flags.writeable = False
            tables[node.id] = ids, distances
        elif any(part.shape != shape for part in tables[node.id]):
            raise ValidationError(f"table of node {node.id} has shape "
                                  f"{tables[node.id][0].shape}, not {shape}")
    ranked = [tables[node.id] for node in nodes]
    plans = []
    for lo in range(0, len(queries), _PLAN_ROWS):
        hi = lo + _PLAN_ROWS
        rows = [(ids[lo:hi], distances[lo:hi]) for ids, distances in ranked]
        plans += _plan(server, clients, query_ids[lo:hi], queries[lo:hi], rows)
    return plans


def _finish(server: ServerNode, query, final: RankedSet, examples,
            transcript: Transcript):
    """Build the prompt and the votes from the final ranked set and its
    examples in one pass, each ICE rendered once per server and label
    space, query the backend, and complete the transcript."""
    labels = server.labels
    if labels is None:
        raise ValidationError("server needs a label space to answer")
    ids, distances = final.ids, final.distances.tolist()
    if server.ice_order == "descending":
        # nearest example ends up adjacent to the query
        ids, distances, examples = ids[::-1], distances[::-1], examples[::-1]
    query_text = query.text if isinstance(query, Example) else str(query)
    rendered_under, pieces = server._pieces
    if rendered_under is not labels:  # a new server, or new labels
        pieces = {}
        server._pieces = labels, pieces
    votes = []
    prompt = build_prompt(zip(examples, distances), query_text, labels, votes,
                          pieces)
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
        if isinstance(query, Example):  # an ad-hoc text query has no id
            exc.args = (f"query {query.id}: {exc}",)
        raise
    transcript.answer_label = answer
    return answer, transcript


def distributed_infer(server: ServerNode, clients, query, e_q, plan=None):
    """One full budgeted inference round (Alg.-style): allocate budgets,
    gather client returns, select the final k ICEs, prompt, answer.

    The selection reranks the gathered union by (distance, id), except under
    social learning, where the server draws k of the union uniformly at
    random (seeded per query) and orders only those. `plan` is the query's
    plan from its pass (`plan_pass`); without one (an `infer` query) the
    query is ranked and planned alone, and nothing of it is kept."""
    if plan is None:
        query_id = query.id if isinstance(query, Example) else -1
        [plan] = plan_pass(server, clients, [query_id],
                           np.asarray(e_q, dtype=np.float64)[None], {})
    return _finish(server, query, *plan)


def save_transcripts(transcripts, path):
    """One `Transcript.to_json` line per transcript, written as it is
    formatted."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in transcripts:
            fh.write(t.to_json() + "\n")


def load_transcripts(path, query_ids=None, num_clients=None
                     ) -> list[Transcript]:
    """Read a file written by `save_transcripts`. A line that is not UTF-8,
    not JSON, not an object, or not a transcript (see
    `Transcript.from_dict`) raises ParseError naming the file and the line.
    Given `query_ids`, so does a line of another query or a repeated one,
    or with other than `num_clients` budgets, and a query no line holds
    (named by its id)."""
    out = []
    remaining = set(query_ids or ())
    for lineno, obj in jsonl_values(path):
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
