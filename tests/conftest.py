"""Shared fixtures: small random retrieval worlds, a JSONL dataset writer,
a tiny experiment config and a text-shaped one, the reference prompt
rendering and a loopback completions endpoint (over HTTP/1.0, or over
HTTP/1.1 with keep-alive) used across the module tests."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from icebudget.config import config_from_dict
from icebudget.corpus import Dataset, Example, LabelSpace, synth_clusters
from icebudget.embedder import EmbeddingStore
from icebudget.errors import ValidationError


def make_world(n, dim, seed, num_classes=2):
    """Random labeled dataset + embedding store with ids 0..n-1."""
    rng = np.random.default_rng(seed)
    examples = tuple(
        Example(id=i, text=f"point {i}", label=int(rng.integers(num_classes)))
        for i in range(n))
    vectors = {i: rng.standard_normal(dim) for i in range(n)}
    dataset = Dataset(examples, LabelSpace.default(num_classes))
    store = EmbeddingStore.from_dict(dim, vectors)
    return dataset, store


def save_dataset(d, path):
    """Write `d` in the JSONL format `corpus.load_dataset` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"label_space": list(d.labels.verbalizers)}) + "\n")
        for ex in d.examples:
            fh.write(json.dumps({"text": ex.text, "label": ex.label}) + "\n")


def brute_force_ranking(e_q, dataset, store):
    """Independent oracle: every (distance, id) of `dataset`, sorted with
    python sorting."""
    scored = []
    for ex in dataset:
        vec = store.get(ex.id)
        dist = float(np.sqrt(np.sum((np.asarray(e_q) - vec) ** 2)))
        scored.append((dist, ex.id))
    scored.sort()
    return scored


def brute_force_topk(e_q, k, dataset, store):
    """The ids of the first k entries of `brute_force_ranking`."""
    return [i for _, i in brute_force_ranking(e_q, dataset, store)[:k]]


def reference_prompt(ices, query_text, labels):
    """The prompt as two replaces per (text, label) ICE render it in the
    one layout: {text}, then {label} over the whole rendered example, then
    the query, joined by blank lines."""
    parts = []
    for text, label in ices:
        if not 0 <= label < labels.count:
            raise ValidationError(f"ICE label {label} outside label space")
        parts.append("{text}\n{label}"
                     .replace("{text}", text)
                     .replace("{label}", labels.verbalizers[label]))
    parts.append("{text}\n".replace("{text}", query_text))
    return "\n\n".join(parts)


def ranked_entries(ranked):
    """A RankedSet as a tuple of (id, distance) pairs."""
    return tuple(zip(ranked.ids, ranked.distances.tolist()))


@pytest.fixture
def small_world():
    return make_world(40, 4, seed=11)


@pytest.fixture
def tiny_config(tmp_path):
    """A config small enough for sub-second end-to-end runs."""
    return config_from_dict({
        "name": "tiny",
        "seed": 3,
        "num_seeds": 1,
        "k": 4,
        "delta": 1,
        "alpha": 0,
        "proxy_size": 30,
        "policies": ["uniform"],
        "partition": {"scheme": "noniid", "num_clients": 2,
                      "labels_per_client": 1},
        "synthetic": {"num_classes": 2, "per_class_train": 30,
                      "per_class_eval": 25, "dim": 4, "spread": 0.3},
        "embeddings": {"source": "synthetic", "dim": 4},
        "train": {"epochs": 5, "width": 8},
        "backend": {"type": "mock"},
        "output_dir": str(tmp_path / "out"),
    })


@pytest.fixture
def text_config_path(tmp_path):
    """A JSONL text dataset with hash embeddings: what `infer` accepts."""
    train, _ = synth_clusters(3, 20, 4, 0.3, seed=1)
    evals, _ = synth_clusters(3, 15, 4, 0.3, seed=2)
    save_dataset(train, tmp_path / "train.jsonl")
    save_dataset(evals, tmp_path / "eval.jsonl")
    path = tmp_path / "text.yaml"
    path.write_text(
        "seed: 5\n"
        "num_seeds: 1\n"
        "k: 4\n"
        "proxy_size: 20\n"
        "partition: {scheme: noniid, num_clients: 3, labels_per_client: 1}\n"
        f"dataset: {{train_path: {tmp_path / 'train.jsonl'}, "
        f"eval_path: {tmp_path / 'eval.jsonl'}}}\n"
        "embeddings: {source: hash, dim: 16}\n"
        "train: {epochs: 3, width: 8}\n"
        f"output_dir: {tmp_path / 'out'}\n")
    return str(path)


class _StubHandler(BaseHTTPRequestHandler):
    """Minimal completions endpoint; behavior driven by class attributes."""

    responses = []  # list of (status, body-dict or None); popped per request
    requests = []
    ports = []  # the client port of each request

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).requests.append((self.path, body))
        type(self).ports.append(self.client_address[1])
        status, payload = (type(self).responses.pop(0)
                           if type(self).responses else (200, None))
        if payload is None:
            payload = {"choices": [{"text": " positive"}]}
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_StubHandler):
    """The stub over HTTP/1.1: a connection stays open between requests
    until the client closes it, or for at most `timeout` idle seconds."""

    protocol_version = "HTTP/1.1"
    timeout = 5


def _serve(handler):
    handler.responses = []
    handler.requests = []
    handler.ports = []
    server = HTTPServer(("127.0.0.1", 0), handler)
    # a short poll, so that `shutdown` returns within ~10 ms, not 0.5 s
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def stub_server():
    yield from _serve(_StubHandler)


@pytest.fixture
def keepalive_stub_server():
    yield from _serve(_KeepAliveHandler)
