import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from icebudget import allocator, parallel
from icebudget.allocator import (PARAM_NAMES, batch_loss_and_grads, forward,
                                 init_model, load_model, predict_budget,
                                 save_model, split, train)
from icebudget.config import TrainConfig
from icebudget.errors import StageError, ValidationError
from icebudget.oracle import BudgetDataset


def make_records(x, raw_counts_per_client, k, delta, num_clients):
    raw = np.asarray(raw_counts_per_client, dtype=np.int64)
    return BudgetDataset(np.arange(len(raw)), np.asarray(x, dtype=np.float64),
                         raw.reshape(len(raw), num_clients), k=k, delta=delta)


def clone(m):
    """A copy of the model that owns its parameters and loss history."""
    return dataclasses.replace(
        m, loss_history=list(m.loss_history),
        **{name: getattr(m, name).copy() for name in PARAM_NAMES})


@dataclasses.dataclass
class ClientModel:
    """One client's allocator alone, as the per-client code held it: 2-D
    weights, 1-D biases."""
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    input_scale: float
    loss_history: list = dataclasses.field(default_factory=list)

    def params(self):
        return [getattr(self, name) for name in PARAM_NAMES]


def client_model(stack, c):
    """Client c's row of a stacked model, as a model of its own."""
    return ClientModel(*(p[c].copy() for p in stack.params()),
                       input_scale=stack.input_scale)


def one_client(records, c):
    """The records with only client c's budgets."""
    return dataclasses.replace(records, raw_counts=records.raw_counts[:, [c]])


def separable_records(n, dim, num_classes, seed, margin=3.0):
    """Queries in well-separated blobs; the budget class equals the blob."""
    rng = np.random.default_rng(seed)
    centers = margin * rng.standard_normal((num_classes, dim))
    x, raw = [], []
    k, delta = num_classes - 1, 1
    for _ in range(n):
        cls = int(rng.integers(num_classes))
        x.append(centers[cls] + 0.05 * rng.standard_normal(dim))
        raw.append((cls,))
    return make_records(x, raw, k=k, delta=delta, num_clients=1)


class TestGradients:
    def numeric_grad(self, model, x, y, param, eps=1e-6):
        grad = np.zeros_like(param)
        flat = param.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            [plus], _ = batch_loss_and_grads(model, x, y)
            flat[idx] = orig - eps
            [minus], _ = batch_loss_and_grads(model, x, y)
            flat[idx] = orig
            grad.ravel()[idx] = (plus - minus) / (2 * eps)
        return grad

    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        model = init_model(dim=5, width=4, num_classes=3, seeds=[1])
        # nudge parameters off the zero-bias init: an all-negative hidden row
        # would put the next preactivation exactly on the ReLU kink, where
        # central differences and the subgradient legitimately disagree
        for param in model.params():
            param += 0.1 * rng.standard_normal(param.shape)
        x = rng.standard_normal((1, 6, 5))
        y = rng.integers(0, 3, size=(1, 6))
        _, grads = batch_loss_and_grads(model, x, y)
        for param, analytic in zip(model.params(), grads):
            numeric = self.numeric_grad(model, x, y, param)
            scale = np.maximum(np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_gradients_respect_input_scale(self):
        rng = np.random.default_rng(5)
        model = init_model(dim=4, width=3, num_classes=2, seeds=[2],
                           input_scale=250.0)
        x = 0.004 * rng.standard_normal((1, 5, 4))
        y = rng.integers(0, 2, size=(1, 5))
        _, grads = batch_loss_and_grads(model, x, y)
        for param, analytic in zip(model.params(), grads):
            numeric = self.numeric_grad(model, x, y, param)
            scale = np.maximum(np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_loss_is_cross_entropy(self):
        model = init_model(dim=3, width=4, num_classes=2, seeds=[3])
        x = np.random.default_rng(4).standard_normal((7, 3))
        y = np.array([0, 1, 0, 1, 1, 0, 1])
        [loss], _ = batch_loss_and_grads(model, x[None], y[None])
        probs = forward(model, x)[:, 0]
        expected = -np.mean(np.log(probs[np.arange(7), y]))
        assert np.isclose(loss, expected)


class TestForward:
    def test_probabilities_sum_to_one(self):
        model = init_model(dim=4, width=5, num_classes=3, seeds=[7, 8])
        probs = forward(model, np.ones((1, 4)))
        assert probs.shape == (1, 2, 3)
        assert np.allclose(probs.sum(axis=-1), 1.0)
        assert np.all(probs > 0)

    def test_input_scale_is_w1_reparameterization(self):
        base = init_model(dim=3, width=4, num_classes=2, seeds=[9])
        scaled = clone(base)
        scaled.input_scale = 10.0
        scaled.w1 = base.w1 / 10.0
        e = np.random.default_rng(1).standard_normal((1, 3))
        assert np.allclose(forward(base, e), forward(scaled, e))

    def test_wrong_shape_rejected(self):
        model = init_model(dim=4, width=5, num_classes=3, seeds=[7])
        with pytest.raises(ValidationError):
            forward(model, np.ones((1, 5)))


class TestInit:
    def test_bounds_and_zero_biases(self):
        model = init_model(dim=16, width=300, num_classes=5, seeds=[0])
        assert np.all(np.abs(model.w1) <= 1 / np.sqrt(16))
        assert np.all(np.abs(model.w2) <= 1 / np.sqrt(300))
        assert np.all(model.b1 == 0) and np.all(model.b3 == 0)

    def test_deterministic(self):
        a = init_model(4, 5, 3, seeds=[42])
        b = init_model(4, 5, 3, seeds=[42])
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)


class TestTraining:
    def test_learns_separable_problem(self):
        records = separable_records(120, dim=6, num_classes=3, seed=13)
        cfg = TrainConfig(epochs=60, learning_rate=0.05, batch_size=8, width=16)
        model = train([records], cfg, seeds=[1], init_seeds=[1])
        x = records.embeddings
        y = records.classes[:, 0]
        predicted = np.argmax(forward(model, x)[:, 0], axis=-1)
        assert np.mean(predicted == y) > 0.95
        assert model.loss_history[-1] < model.loss_history[0]

    def test_deterministic_given_seeds(self):
        records = separable_records(40, dim=4, num_classes=2, seed=3)
        cfg = TrainConfig(epochs=10, learning_rate=0.05, batch_size=4, width=8)
        a = train([records], cfg, [5], [2])
        b = train([records], cfg, [5], [2])
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)
        assert a.loss_history == b.loss_history

    def test_shuffle_seed_changes_trajectory(self):
        records = separable_records(40, dim=4, num_classes=2, seed=3)
        cfg = TrainConfig(epochs=5, learning_rate=0.05, batch_size=4, width=8)
        a = train([records], cfg, [5], [2])
        b = train([records], cfg, [6], [2])
        assert a.loss_history != b.loss_history

    def test_zero_learning_rate_is_noop(self):
        records = separable_records(20, dim=4, num_classes=2, seed=3)
        cfg = TrainConfig(epochs=3, learning_rate=0.0, batch_size=4, width=8)
        model = train([records], cfg, [1], [7])
        fresh = init_model(4, 8, records.num_classes, seeds=[7])
        for trained, initial in zip(model.params(), fresh.params()):
            assert np.array_equal(trained, initial)

    def test_validation_split_returns_best(self):
        records = separable_records(60, dim=4, num_classes=2, seed=8)
        cfg = TrainConfig(epochs=20, learning_rate=0.05, batch_size=8,
                          width=8, validation_fraction=0.25)
        model = train([records], cfg, [2], [2])
        assert len(model.loss_history) == 20

    def test_empty_records_rejected(self):
        empty = BudgetDataset(np.zeros(0, dtype=np.int64), np.zeros((0, 4)),
                              np.zeros((0, 1), dtype=np.int64), k=2, delta=1)
        with pytest.raises(ValidationError):
            train([empty], TrainConfig(), [0], [0])


class TestPredictBudget:
    def test_dequantizes_argmax(self):
        model = init_model(dim=2, width=3, num_classes=4, seeds=[1])
        e = np.ones((1, 2))
        cls = int(np.argmax(forward(model, e)[0, 0]))
        assert predict_budget(model, e, delta=3).tolist() == [[cls * 3]]


class TestModelIo:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = TrainConfig(epochs=4, learning_rate=0.05, batch_size=4, width=8)
        model = train([three_client_records(30, dim=4, seed=3)], cfg, [5, 6, 7],
                      [2, 3, 4], input_scale=2.5)
        json_path, blob_path = tmp_path / "m.json", tmp_path / "m.bin"
        save_model(model, json_path, blob_path)
        loaded = load_model(json_path, blob_path)
        assert loaded.num_clients == 3
        assert loaded.input_scale == 2.5
        assert loaded.train_config == model.train_config
        assert loaded.loss_history == model.loss_history
        for pa, pb in zip(loaded.params(), model.params()):
            assert np.array_equal(pa, pb)

    def test_truncated_blob_rejected(self, tmp_path):
        model = init_model(3, 4, 2, seeds=[1, 2])
        save_model(model, tmp_path / "m.json", tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "m.bin").write_bytes(blob[:-8])
        with pytest.raises(ValidationError):
            load_model(tmp_path / "m.json", tmp_path / "m.bin")


# The single-client code the stacked model replaced, kept verbatim as the
# reference: per-client 2-D products and a Python-float loss.
def _reference_logits(m, x):
    x = m.input_scale * x
    z1 = x @ m.w1 + m.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ m.w2 + m.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ m.w3 + m.b3
    return z1, a1, z2, a2, z3


def _reference_init(dim, width, num_classes, seed, input_scale):
    rng = np.random.default_rng(seed)

    def layer(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return ClientModel(w1=layer(dim, width), b1=np.zeros(width),
                       w2=layer(width, width), b2=np.zeros(width),
                       w3=layer(width, num_classes), b3=np.zeros(num_classes),
                       input_scale=float(input_scale))


def _reference_predict_budget(m, e_q, delta):
    *_, z3 = _reference_logits(m, np.asarray(e_q, dtype=np.float64)[None, :])
    shifted = z3 - z3.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    probs = (expz / expz.sum(axis=-1, keepdims=True))[0]
    return int(np.argmax(probs)) * delta, probs


def _reference_batch_loss_and_grads(m, x, y):
    n = x.shape[0]
    z1, a1, z2, a2, z3 = _reference_logits(m, x)
    shifted = z3 - z3.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + z3.max(axis=1)
    loss = float(np.mean(logsumexp - z3[np.arange(n), y]))
    expz = np.exp(z3 - z3.max(axis=-1, keepdims=True))
    dz3 = expz / expz.sum(axis=-1, keepdims=True)
    dz3[np.arange(n), y] -= 1.0
    dz3 /= n
    gw3 = a2.T @ dz3
    gb3 = dz3.sum(axis=0)
    da2 = dz3 @ m.w3.T
    dz2 = da2 * (z2 > 0)
    gw2 = a1.T @ dz2
    gb2 = dz2.sum(axis=0)
    da1 = dz2 @ m.w2.T
    dz1 = da1 * (z1 > 0)
    gw1 = (m.input_scale * x).T @ dz1
    gb1 = dz1.sum(axis=0)
    return loss, [gw1, gb1, gw2, gb2, gw3, gb3]


def _reference_train(records, client, cfg, seed, init_seed, input_scale):
    def epoch_rng(seed, epoch):
        return np.random.default_rng(np.random.SeedSequence((seed, epoch)))

    x = records.embeddings.astype(np.float64)
    y = records.classes[:, client]
    if cfg.validation_fraction > 0 and len(records) > 1:
        n_val = max(1, int(round(cfg.validation_fraction * len(records))))
        order = epoch_rng(seed, 2**32).permutation(len(records))
        val_idx, train_idx = order[:n_val], order[n_val:]
        if len(train_idx) == 0:
            train_idx, val_idx = val_idx, train_idx
    else:
        train_idx = np.arange(len(records))
        val_idx = np.array([], dtype=np.int64)
    model = _reference_init(x.shape[1], cfg.width, records.num_classes,
                            init_seed, input_scale)
    x_train, y_train = x[train_idx], y[train_idx]
    best, best_val = None, np.inf
    for epoch in range(cfg.epochs):
        order = epoch_rng(seed, epoch).permutation(len(x_train))
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grads = _reference_batch_loss_and_grads(
                model, x_train[batch], y_train[batch])
            for param, grad in zip(model.params(), grads):
                param -= cfg.learning_rate * grad
            epoch_loss += loss
            n_batches += 1
        model.loss_history.append(epoch_loss / max(n_batches, 1))
        if len(val_idx):
            val_loss, _ = _reference_batch_loss_and_grads(model, x[val_idx],
                                                          y[val_idx])
            if val_loss < best_val:
                best_val, best = val_loss, clone(model)
    if best is not None:
        best.loss_history = model.loss_history
        return best
    return model


def three_client_records(n, dim, seed):
    """Shared query embeddings with different labels per client."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    raw = rng.integers(0, 4, size=(n, 3))
    return make_records(x, raw, k=3, delta=1, num_clients=3)


class TestStackedTraining:
    @pytest.mark.parametrize("validation_fraction", [0.0, 0.25])
    def test_equals_single_client_loop_bit_for_bit(self, validation_fraction):
        records = three_client_records(37, dim=5, seed=4)  # ragged last batch
        # a large step makes the loss wander, so snapshots are not the last epoch
        cfg = TrainConfig(epochs=12, learning_rate=0.3, batch_size=8, width=6,
                          validation_fraction=validation_fraction)
        seeds = [102, 100, 101]
        init_seeds = [7, 8, 9]
        stacked = train([records], cfg, seeds, init_seeds, input_scale=3.0)
        assert stacked.num_clients == 3
        for c, (shuffle, seed) in enumerate(zip(seeds, init_seeds)):
            expected = _reference_train(records, c, cfg, shuffle, seed, 3.0)
            alone = train([one_client(records, c)], cfg, [shuffle], [seed],
                          input_scale=3.0)
            for got, want, solo in zip(stacked.params(), expected.params(),
                                       alone.params()):
                assert np.array_equal(got[c], want)
                assert np.array_equal(solo[0], want)
            assert [h[c] for h in stacked.loss_history] == expected.loss_history
            assert [h[0] for h in alone.loss_history] == expected.loss_history
        assert stacked.train_config == {
            "epochs": 12, "learning_rate": 0.3, "batch_size": 8,
            "seeds": seeds, "validation_fraction": validation_fraction}

    def test_init_rows_equal_single_client_init(self):
        stack = init_model(5, 6, 3, seeds=[11, 12, 13], input_scale=2.0)
        for c, seed in enumerate([11, 12, 13]):
            want = _reference_init(5, 6, 3, seed, 2.0)
            for got, ref in zip(stack.params(), want.params()):
                assert np.array_equal(got[c], ref)

    def test_stacked_loss_is_per_client(self):
        rng = np.random.default_rng(3)
        stack = init_model(4, 5, 3, seeds=[1, 2])
        x = rng.standard_normal((2, 6, 4))
        y = rng.integers(0, 3, size=(2, 6))
        loss, grads = batch_loss_and_grads(stack, x, y)
        assert loss.shape == (2,)
        for c in range(2):
            want_loss, want_grads = _reference_batch_loss_and_grads(
                client_model(stack, c), x[c], y[c])
            assert loss[c] == want_loss
            for got, want in zip(grads, want_grads):
                assert np.array_equal(got[c], want)

    def test_one_shuffle_and_init_seed_per_client(self):
        records = three_client_records(10, dim=3, seed=1)
        with pytest.raises(ValidationError):
            train([records], TrainConfig(epochs=2, width=4), [1], [1, 2])


class TestSeedMajorTraining:
    @pytest.mark.parametrize("validation_fraction", [0.0, 0.25])
    def test_equals_per_seed_training_bit_for_bit(self, validation_fraction):
        seeds_data = [three_client_records(37, dim=5, seed=s) for s in (4, 5)]
        cfg = TrainConfig(epochs=12, learning_rate=0.3, batch_size=8, width=6,
                          validation_fraction=validation_fraction)
        shuffle = [[102, 100, 101], [7, 3, 5]]
        init = [[7, 8, 9], [1, 2, 6]]
        stacked = train(seeds_data, cfg, shuffle[0] + shuffle[1],
                        init[0] + init[1], input_scale=3.0)
        assert stacked.num_clients == 6
        assert stacked.train_config["seeds"] == shuffle[0] + shuffle[1]
        for s, part in enumerate(split(stacked, 2)):
            alone = train([seeds_data[s]], cfg, shuffle[s], init[s],
                          input_scale=3.0)
            for got, want in zip(part.params(), alone.params()):
                assert np.array_equal(got, want)
            assert part.loss_history == alone.loss_history
            assert part.train_config == alone.train_config
            assert part.input_scale == alone.input_scale

    def test_split_model_saves_like_the_seed_alone(self, tmp_path):
        seeds_data = [three_client_records(20, dim=4, seed=s) for s in (1, 2)]
        cfg = TrainConfig(epochs=3, learning_rate=0.05, batch_size=4, width=5)
        stacked = train(seeds_data, cfg, [1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1])
        alone = train([seeds_data[1]], cfg, [4, 5, 6], [3, 2, 1])
        save_model(split(stacked, 2)[1], tmp_path / "a.json", tmp_path / "a.bin")
        save_model(alone, tmp_path / "b.json", tmp_path / "b.bin")
        for suffix in ("json", "bin"):
            assert ((tmp_path / f"a.{suffix}").read_bytes()
                    == (tmp_path / f"b.{suffix}").read_bytes())

    def test_unequal_datasets_rejected(self):
        a = three_client_records(10, dim=3, seed=1)
        b = three_client_records(11, dim=3, seed=2)
        with pytest.raises(ValidationError, match="equal record counts"):
            train([a, b], TrainConfig(epochs=2, width=4), range(6), range(6))

    def test_one_seed_pair_per_row_of_every_dataset(self):
        data = [three_client_records(10, dim=3, seed=s) for s in (1, 2)]
        with pytest.raises(ValidationError, match="every dataset"):
            train(data, TrainConfig(epochs=2, width=4), range(3), range(3))

    def test_non_finite_loss_names_seed_and_client(self):
        data = [three_client_records(10, dim=3, seed=s) for s in (1, 2)]
        data[1].embeddings[:, :] = np.nan  # only seed 1's rows go bad
        cfg = TrainConfig(epochs=2, width=4)
        with pytest.raises(ValidationError,
                           match=r"^seed 7, client 0: non-finite training "
                                 r"loss at epoch 0, batch starting 0"):
            train(data, cfg, range(6), range(6), seed_indices=[3, 7])
        with pytest.raises(ValidationError, match=r"^seed 1, client 0: "):
            train(data, cfg, range(6), range(6))


def _fixed_processes(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "processes", lambda: cpus)


def _nine_rows():
    """Three seeds of three clients, and one shuffle and init seed per row."""
    data = [three_client_records(37, dim=5, seed=s) for s in (4, 5, 6)]
    return data, [102, 100, 101, 7, 3, 5, 11, 12, 13], list(range(20, 29))


class TestRowRanges:
    """`train` cuts its rows in two halves with two training processes,
    and forks a child for the first."""

    @pytest.mark.parametrize("validation_fraction", [0.0, 0.25])
    def test_every_cpu_count_trains_the_same_bytes(self, monkeypatch,
                                                   validation_fraction):
        data, shuffle, init = _nine_rows()
        cfg = TrainConfig(epochs=12, learning_rate=0.3, batch_size=8, width=6,
                          validation_fraction=validation_fraction)
        models = {}
        # 9 rows: all in one process, or halves of 4 and 5
        for cpus in (1, 2):
            _fixed_processes(monkeypatch, cpus)
            models[cpus] = train(data, cfg, shuffle, init, input_scale=3.0)
            assert multiprocessing.active_children() == []
        one = models.pop(1)
        for model in models.values():
            for got, want in zip(model.params(), one.params()):
                assert got.tobytes() == want.tobytes()
            assert model.loss_history == one.loss_history
            assert model.train_config == one.train_config

    @pytest.mark.parametrize("bad, named", [
        ({0: 20}, "seed 5, client 1"),  # only the child's rows
        ({2: 20}, "seed 7, client 2"),  # only this process's rows
        ({1: 12}, "seed 6, client 1"),
        ({0: 10, 2: 20}, "seed 7, client 2"),  # this process's batch is earlier
        ({0: 3, 2: 20}, "seed 5, client 2"),  # the same batch: lowest row
    ])
    def test_non_finite_loss_named_as_one_loop_names_it(self, monkeypatch,
                                                        bad, named):
        data, shuffle, init = _nine_rows()
        for s, record in bad.items():
            # one bad record: each row meets it in the batch its own
            # shuffle puts it in
            data[s].embeddings[record] = np.nan
        cfg = TrainConfig(epochs=3, width=4)
        for cpus in (1, 2):
            _fixed_processes(monkeypatch, cpus)
            with pytest.raises(ValidationError,
                               match=f"^{named}: non-finite training loss at "
                                     f"epoch 0, batch starting 0 "):
                train(data, cfg, shuffle, init, seed_indices=[5, 6, 7])
            assert multiprocessing.active_children() == []

    def test_child_without_a_reply_is_a_stage_error(self, monkeypatch):
        data, shuffle, init = _nine_rows()
        parent, train_rows = os.getpid(), allocator._train_rows

        def dying_rows(*args):
            if os.getpid() != parent:
                os._exit(3)
            return train_rows(*args)
        monkeypatch.setattr(allocator, "_train_rows", dying_rows)
        _fixed_processes(monkeypatch, 2)
        with pytest.raises(StageError, match=r"seeds \[0, 1\] .*exit code 3"):
            train(data, TrainConfig(epochs=2, width=4), shuffle, init)
        assert multiprocessing.active_children() == []

    def test_children_ended_when_this_process_fails(self, monkeypatch):
        data, shuffle, init = _nine_rows()
        parent, train_rows = os.getpid(), allocator._train_rows

        def failing_rows(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return train_rows(*args)
        monkeypatch.setattr(allocator, "_train_rows", failing_rows)
        _fixed_processes(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            train(data, TrainConfig(epochs=200, width=4), shuffle, init)
        assert multiprocessing.active_children() == []

    def test_one_cpu_forks_nothing(self, monkeypatch):
        data, shuffle, init = _nine_rows()

        def no_fork(*args):
            raise AssertionError("forked with one usable CPU")
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        _fixed_processes(monkeypatch, 1)
        train(data, TrainConfig(epochs=2, width=4), shuffle, init)


class TestStackedPrediction:
    @pytest.mark.parametrize("block", [1, 7, 64, 500])
    @pytest.mark.parametrize("dim, width, num_classes, seeds, input_scale", [
        (5, 6, 4, [1, 2, 3], 1.0),
        (32, 64, 5, [4, 5, 6, 7], 1e7),  # the demo's tiny-magnitude inputs
    ])
    def test_equals_per_client_reference(self, dim, width, num_classes,
                                         seeds, input_scale, block):
        rng = np.random.default_rng(dim + block)
        stack = init_model(dim, width, num_classes, seeds,
                           input_scale=input_scale)
        # off the zero-bias init, so every layer's bias matters
        for param in stack.params():
            param += 0.5 * rng.standard_normal(param.shape) / np.sqrt(width)
        clients = [client_model(stack, c) for c in range(len(seeds))]
        queries = rng.standard_normal((block, dim)) / input_scale
        budgets = predict_budget(stack, queries, delta=2)
        probs = forward(stack, queries)
        assert budgets.shape == probs.shape[:2] == (block, len(seeds))
        for q, e_q in enumerate(queries):
            for c, client in enumerate(clients):
                budget, want = _reference_predict_budget(client, e_q, delta=2)
                assert budgets[q, c] == budget
                assert probs[q, c].tobytes() == want.tobytes()
