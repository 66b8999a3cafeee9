"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s) and asserts. Criteria 5-7 share a frozen synthetic experiment
chosen so the distributed phenomena appear at desk scale: clustered points
scaled far below the mock vote's epsilon (making the vote count-dominated,
like prompt-majority behavior in a real LLM) plus 28% mislabeled points
(so naive per-client retrieval pulls in wrong-label neighbors that global
reranking filters out).
"""

import copy
import math
import os
import shutil
import time

import numpy as np
import pytest

from icebudget.allocator import batch_loss_and_grads, init_model
from icebudget.config import BackendSpec, config_from_dict
from icebudget.corpus import Dataset, Example, LabelSpace, partition_iid
from icebudget.errors import DecodeError
from icebudget.federation import (BudgetPolicy, ClientNode, ServerNode,
                                  _random_composition, allocate,
                                  client_retrieve, distributed_infer)
from icebudget.harness import efficiency_curve_from_run, run_experiment
from icebudget.inference import HttpBackend
from icebudget.oracle import oracle_budget
from icebudget.retrieval import rerank_union, top_k

from conftest import make_world


def check(criterion, ok, detail):
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def brute_force_order(e_q, ids, matrix, k):
    dists = np.sqrt(((matrix - e_q) ** 2).sum(axis=1))
    order = sorted(range(len(ids)), key=lambda i: (dists[i], ids[i]))
    return [int(ids[i]) for i in order[:k]]


# ----------------------------------------------------------------------
# criteria 1-4: component-level oracles
# ----------------------------------------------------------------------


def test_criterion_1_retrieval_oracle_equivalence():
    """1,000 random instances: top_k equals a brute-force full sort."""
    rng = np.random.default_rng(20260826)
    start = time.monotonic()
    worlds = []
    for w in range(20):
        n = int(rng.integers(1, 501))
        dim = int(rng.integers(1, 33))
        worlds.append(make_world(n, dim, seed=w))
    mismatches = 0
    for instance in range(1000):
        d, store = worlds[instance % len(worlds)]
        ids, matrix = store.matrix()
        e_q = rng.standard_normal(store.dim)
        k = int(rng.integers(1, 51))
        if top_k(e_q, k, d, store).ids != brute_force_order(e_q, ids, matrix, k):
            mismatches += 1
    elapsed = time.monotonic() - start
    check(1, mismatches == 0 and elapsed < 5.0,
          f"{mismatches} mismatches over 1000 instances in {elapsed:.2f}s")


def test_criterion_2_oracle_budget_conservation():
    """200 random full partitions: per-client oracle budgets sum to k."""
    rng = np.random.default_rng(7)
    start = time.monotonic()
    violations = 0
    for trial in range(200):
        n = int(rng.integers(30, 120))
        d, store = make_world(n, 6, seed=1000 + trial)
        num_clients = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(25, n) + 1))
        shards = partition_iid(d, num_clients, seed=trial)
        shard_stores = [store.subset(s.ids) for s in shards]
        e_q = rng.standard_normal(6)
        counts = oracle_budget(e_q, k, shards, shard_stores)
        if sum(counts) != k:
            violations += 1
    elapsed = time.monotonic() - start
    check(2, violations == 0 and elapsed < 5.0,
          f"{violations} violations over 200 partitions in {elapsed:.2f}s")


def test_criterion_3_reorder_recovery():
    """Per-client budget k over a full partition recovers the global top-k."""
    rng = np.random.default_rng(13)
    failures = 0
    for trial in range(200):
        n = int(rng.integers(20, 100))
        d, store = make_world(n, 5, seed=2000 + trial)
        num_clients = int(rng.integers(2, 6))
        k = int(rng.integers(1, 16))
        shards = partition_iid(d, num_clients, seed=trial)
        clients = [ClientNode(i, shard, store.subset(shard.ids))
                   for i, shard in enumerate(shards)]
        e_q = rng.standard_normal(5)
        returned = [client_retrieve(c, e_q, k) for c in clients]
        final = rerank_union(returned, k)[0]
        if final.ids != top_k(e_q, k, d, store).ids:
            failures += 1
    check(3, failures == 0, f"{failures} failures over 200 instances")


def test_criterion_4_gradient_check():
    """Analytic gradients vs central finite differences at 20 random
    parameter points (dim 8, width 6, 3 classes): max rel error < 1e-4."""
    rng = np.random.default_rng(99)
    start = time.monotonic()
    worst = 0.0
    x = rng.standard_normal((1, 10, 8))  # one client's batch
    y = rng.integers(0, 3, size=(1, 10))
    eps = 1e-6
    for point in range(20):
        model = init_model(dim=8, width=6, num_classes=3, seeds=[point])
        # perturb away from the ReLU-kink-free init so points are generic
        for p in model.params():
            p += 0.1 * rng.standard_normal(p.shape)
        _, grads = batch_loss_and_grads(model, x, y)
        for param, analytic in zip(model.params(), grads):
            flat = param.ravel()
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                [plus], _ = batch_loss_and_grads(model, x, y)
                flat[i] = orig - eps
                [minus], _ = batch_loss_and_grads(model, x, y)
                flat[i] = orig
                numeric[i] = (plus - minus) / (2 * eps)
            denom = np.maximum(np.abs(numeric), 1e-6)
            worst = max(worst, float(np.max(
                np.abs(analytic.ravel() - numeric) / denom)))
    elapsed = time.monotonic() - start
    check(4, worst < 1e-4 and elapsed < 10.0,
          f"max relative error {worst:.2e} in {elapsed:.2f}s")


# ----------------------------------------------------------------------
# criteria 5-7: frozen distributed experiment (mock backend)
# ----------------------------------------------------------------------

FROZEN = {
    "name": "acceptance",
    "seed": 7,
    "num_seeds": 3,
    "k": 8,
    "delta": 2,
    "alpha": 1,
    "proxy_size": 300,
    "policies": ["infinite", "uniform", "learned"],
    "partition": {"scheme": "noniid", "num_clients": 4,
                  "labels_per_client": 1},
    # eval pool 800 = proxy 300 + 500 test queries
    "synthetic": {"num_classes": 4, "per_class_train": 250,
                  "per_class_eval": 200, "dim": 32, "spread": 0.20,
                  "scale": 1e-7, "label_noise": 0.28},
    "embeddings": {"source": "synthetic", "dim": 32},
    "train": {"epochs": 200, "width": 64, "learning_rate": 0.01,
              "batch_size": 8},
    "backend": {"type": "mock"},
}


@pytest.fixture(scope="module")
def frozen_runs(tmp_path_factory):
    """The shared 3-seed experiment: non-IID with all three policies, plus
    an IID run of the uniform baseline. The infinite policy retrieves every
    shard in full, so its context is the global top-k: centralized ICL."""
    root = tmp_path_factory.mktemp("acceptance")
    noniid = copy.deepcopy(FROZEN)
    noniid["output_dir"] = str(root / "noniid")
    noniid_cfg = config_from_dict(noniid)
    noniid_report = run_experiment(noniid_cfg)

    iid = copy.deepcopy(FROZEN)
    iid["partition"]["scheme"] = "iid"
    iid["policies"] = ["uniform"]
    iid["output_dir"] = str(root / "iid")
    iid_report = run_experiment(config_from_dict(iid))
    return noniid_cfg, noniid_report, iid_report


def test_criterion_5_noniid_gap(frozen_runs):
    """Centralized vs IID-uniform within 2 points; non-IID uniform at least
    10 points below centralized; centralized itself >= 95%."""
    _, noniid_report, iid_report = frozen_runs
    assert noniid_report["num_test_queries"] == 500
    central = noniid_report["policies"]["infinite"]["mean_accuracy"]
    noniid_uniform = noniid_report["policies"]["uniform"]["mean_accuracy"]
    iid_uniform = iid_report["policies"]["uniform"]["mean_accuracy"]
    ok = (central >= 0.95
          and abs(central - iid_uniform) <= 0.02
          and central - noniid_uniform >= 0.10)
    check(5, ok,
          f"centralized={central:.4f}, iid-uniform={iid_uniform:.4f} "
          f"(diff {abs(central - iid_uniform):.4f} <= 0.02), "
          f"non-IID-uniform={noniid_uniform:.4f} "
          f"(gap {central - noniid_uniform:.4f} >= 0.10)")


def test_criterion_6_learned_allocator_benefit(frozen_runs):
    """Learned >= uniform + 5 points and within 3 points of the infinite
    budget, mean over 3 seeds."""
    _, noniid_report, _ = frozen_runs
    learned = noniid_report["policies"]["learned"]["mean_accuracy"]
    uniform = noniid_report["policies"]["uniform"]["mean_accuracy"]
    infinite = noniid_report["policies"]["infinite"]["mean_accuracy"]
    ok = learned - uniform >= 0.05 and infinite - learned <= 0.03
    check(6, ok,
          f"learned={learned:.4f}, uniform={uniform:.4f} "
          f"(margin {learned - uniform:.4f} >= 0.05), "
          f"infinite={infinite:.4f} (deficit {infinite - learned:.4f} <= 0.03)")


def test_criterion_7_budget_efficiency(frozen_runs):
    """Mean global-top-k recall >= 0.90 at multiplier 1.25; mean recall
    monotone nondecreasing across {0.5, 1.0, 1.25, 2.0}."""
    noniid_cfg, _, _ = frozen_runs
    multipliers = [0.5, 1.0, 1.25, 2.0]
    ok = True
    details = []
    for seed_index in range(noniid_cfg.num_seeds):
        rows = efficiency_curve_from_run(noniid_cfg, seed_index, multipliers)
        recalls = [row["mean_recall"] for row in rows]
        at_125 = recalls[multipliers.index(1.25)]
        ok = ok and at_125 >= 0.90 and recalls == sorted(recalls)
        details.append(f"seed{seed_index}: "
                       + "/".join(f"{r:.3f}" for r in recalls))
    check(7, ok, "recall at 0.5/1.0/1.25/2.0 — " + "; ".join(details))


# ----------------------------------------------------------------------
# criteria 8-10: determinism, baseline arithmetic, live HTTP smoke
# ----------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    """Two full runs with an identical config produce byte-identical reports
    and transcripts."""
    spec = {
        "name": "det", "seed": 5, "num_seeds": 2, "k": 4, "delta": 1,
        "alpha": 1, "proxy_size": 40,
        "policies": ["uniform", "learned", "random", "social_learning"],
        "partition": {"scheme": "noniid", "num_clients": 2,
                      "labels_per_client": 1},
        "synthetic": {"num_classes": 2, "per_class_train": 40,
                      "per_class_eval": 40, "dim": 6, "spread": 0.3},
        "embeddings": {"source": "synthetic", "dim": 6},
        "train": {"epochs": 10, "width": 8},
        "backend": {"type": "mock"},
    }
    spec["output_dir"] = str(tmp_path / "out")
    contents = []
    for _ in range(2):
        run_experiment(config_from_dict(copy.deepcopy(spec)))
        files = {}
        for dirpath, _, names in os.walk(spec["output_dir"]):
            for name in sorted(names):
                rel = os.path.relpath(os.path.join(dirpath, name),
                                      spec["output_dir"])
                with open(os.path.join(dirpath, name), "rb") as fh:
                    files[rel] = fh.read()
        contents.append(files)
        shutil.rmtree(spec["output_dir"])  # force a cold second run
    same_names = sorted(contents[0]) == sorted(contents[1])
    diffs = [name for name in contents[0]
             if contents[0][name] != contents[1].get(name)]
    check(8, same_names and not diffs,
          f"{len(contents[0])} artifacts compared, differing: {diffs or 'none'}")


def test_criterion_9_baseline_arithmetic():
    """Uniform sends ceil(k/C); random compositions sum to k over 10,000
    draws; social learning sends ceil(k/C) and selects min(k, union)."""
    problems = []

    d, store = make_world(40, 4, seed=77, num_classes=2)
    shards = partition_iid(d, 4, seed=1)
    clients = [ClientNode(i, s, store.subset(s.ids))
               for i, s in enumerate(shards)]
    for k in (1, 4, 6, 7, 32):
        server = ServerNode(k=k, policy=BudgetPolicy("uniform"),
                            labels=d.labels)
        [budgets] = allocate(server.policy, np.zeros((1, 4)), server, clients,
                             [0]).tolist()
        if budgets != [math.ceil(k / 4)] * 4:
            problems.append(f"uniform k={k}: {budgets}")

    server = ServerNode(k=7, policy=BudgetPolicy("random", seed=3),
                        labels=d.labels)
    draws = allocate(server.policy, np.zeros((10_000, 4)), server, clients,
                     range(10_000)).tolist()
    for query_id, budgets in enumerate(draws):
        if sum(budgets) != 7 or min(budgets) < 0:
            problems.append(f"random draw {query_id}: {budgets}")
            break

    for k in (3, 5, 8):
        server = ServerNode(k=k,
                            policy=BudgetPolicy("social_learning", seed=2),
                            labels=d.labels)
        query = d.examples[0]
        _, t = distributed_infer(server, clients, query, store.get(query.id))
        union = len(t.aggregated_ids)
        if t.budgets_sent != [math.ceil(k / 4)] * 4:
            problems.append(f"social budgets k={k}: {t.budgets_sent}")
        if len(t.final_ice_ids) != min(k, union):
            problems.append(
                f"social selection k={k}: {len(t.final_ice_ids)} of {union}")

    check(9, not problems, f"problems: {problems or 'none'}")


def test_criterion_10_http_smoke(tmp_path):
    """Against a live completions endpoint: 10 two-class queries, at least 8
    decoded verbalizers. Skipped when no endpoint is configured."""
    endpoint = os.environ.get("ICEBUDGET_SMOKE_ENDPOINT")
    if not endpoint:
        print("\n[acceptance 10] SKIP — set ICEBUDGET_SMOKE_ENDPOINT to run")
        pytest.skip("no HTTP endpoint configured")
    model_name = os.environ.get("ICEBUDGET_SMOKE_MODEL", "")

    labels = LabelSpace(2, ("negative", "positive"))
    corpus = [("terrible, boring, a complete waste of time", 0),
              ("dull and lifeless from start to finish", 0),
              ("i hated every minute of it", 0),
              ("clumsy, tedious and badly acted", 0),
              ("a joyless slog with nothing to offer", 0),
              ("an absolute delight from the first scene", 1),
              ("funny, moving and beautifully shot", 1),
              ("a triumph; i would watch it again tomorrow", 1),
              ("charming, clever and full of heart", 1),
              ("one of the best films of the year", 1)]
    queries = ["awful and utterly forgettable",
               "a dreary mess of a movie",
               "painfully slow and predictable",
               "not a single redeeming moment",
               "flat jokes and wooden performances",
               "wonderful, warm and very funny",
               "a gorgeous, uplifting experience",
               "smart writing and terrific acting",
               "left the theater grinning",
               "an instant classic"]

    from icebudget.embedder import HashEncoder, encode_dataset
    examples = tuple(Example(i, text, label)
                     for i, (text, label) in enumerate(corpus))
    d = Dataset(examples, labels)
    encoder = HashEncoder(32, seed=1)
    store = encode_dataset(d, encoder)
    shards = partition_iid(d, 2, seed=0)
    clients = [ClientNode(i, s, store.subset(s.ids))
               for i, s in enumerate(shards)]
    backend = HttpBackend(BackendSpec(type="http", endpoint=endpoint,
                                      model=model_name, timeout=30,
                                      max_retries=2))
    server = ServerNode(k=4, policy=BudgetPolicy("uniform"), backend=backend,
                        labels=labels)
    decoded = 0
    for i, text in enumerate(queries):
        try:
            distributed_infer(server, clients, text,
                              encoder.encode_many([text])[0])
            decoded += 1
        except DecodeError:
            pass
    check(10, decoded >= 8, f"{decoded}/10 queries decoded a verbalizer")
