"""Per-client budget allocators: 3-layer MLPs over frozen query embeddings.

linear -> ReLU -> linear -> ReLU -> linear -> softmax, trained with plain
minibatch SGD on cross-entropy. Gradients are hand-derived for this fixed
architecture; the loss is computed from logits via log-sum-exp for
numerical stability.

The C clients' allocators of a run are one model: every weight is stacked
along a leading row axis, (C, fan_in, fan_out). Training stacks further:
`train` takes one budget dataset per seed of a run and trains all S·C rows
(seed-major: row s·C + c is seed s, client c), returning one stack that
`split` cuts back into one C-row model per seed. The stacked products use
`@` (np.matmul), which multiplies each row's matrices exactly as a 2-D
product for that client alone would; `einsum` sums the same terms in
another order and differs in the last bits, which would change the trained
models and every report built on them.

One routine, `_loss_and_grads`, holds the loss and gradient math; the SGD
loop and `batch_loss_and_grads` both run it. The loop keeps a range's
parameters in one (rows, P) buffer and their gradients in another, each
parameter and gradient a view of its buffer, so a step writes every
gradient in place and updates every parameter in two numpy calls. Because
no row reads another, `train` runs that loop on the two halves of its
rows at once (`parallel.fill`). Every row takes exactly the steps of one
loop over all rows, so the models and every report built on them are the
same bytes whatever the CPU count.

`forward` takes a block of queries shaped (m, 1, 1, dim) against the
(C, dim, width) weights, so every product is still one query's one-row
product for one client: a query's probabilities are the same bits in a
block of any size. A (C, m, dim) matrix-matrix product would sum in
another order and differ in the last bits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .config import TrainConfig
from .errors import ValidationError
from .oracle import BudgetDataset, dequantize
from .parallel import fill

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass
class AllocatorModel:
    """C allocators stacked: w1 is (C, dim, width), b1 (C, width), and so on."""
    dim: int
    width: int
    num_classes: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    loss_history: list = field(default_factory=list)  # per epoch, C losses
    train_config: dict | None = None
    # Fixed multiplier applied to inputs before the first layer. Because the
    # first layer is linear this is a pure reparameterization of w1; it only
    # conditions training when embeddings have a tiny absolute magnitude.
    input_scale: float = 1.0
    # A digest of everything the model was trained from; None if unrecorded.
    key: str | None = None

    @property
    def num_clients(self) -> int:
        return len(self.w1)

    def params(self):
        return [getattr(self, name) for name in PARAM_NAMES]


def init_model(dim, width, num_classes, seeds, input_scale=1.0) -> AllocatorModel:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases; client
    c's weights are drawn from `seeds[c]`."""
    if dim < 1 or width < 1 or num_classes < 1:
        raise ValidationError("dim, width, and num_classes must be positive")

    def layers(seed):
        rng = np.random.default_rng(seed)
        out = []
        for fan_in, fan_out in ((dim, width), (width, width), (width, num_classes)):
            bound = 1.0 / np.sqrt(fan_in)
            out.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        return out

    w1, w2, w3 = (np.stack(w) for w in zip(*map(layers, seeds)))
    c = len(seeds)
    return AllocatorModel(
        dim=dim, width=width, num_classes=num_classes,
        w1=w1, b1=np.zeros((c, width)), w2=w2, b2=np.zeros((c, width)),
        w3=w3, b3=np.zeros((c, num_classes)), input_scale=float(input_scale))


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes: a matrix, or each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _logits(m: AllocatorModel, x: np.ndarray):
    """Forward pass on inputs `x` already multiplied by the input scale:
    both ReLU activations and the logits, which backprop needs. The bias
    adds and ReLUs run in place."""
    a1 = x @ m.w1
    a1 += m.b1[..., None, :]
    np.maximum(a1, 0.0, out=a1)
    a2 = a1 @ m.w2
    a2 += m.b2[..., None, :]
    np.maximum(a2, 0.0, out=a2)
    z3 = a2 @ m.w3
    z3 += m.b3[..., None, :]
    return a1, a2, z3


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=-1, keepdims=True)


def forward(m: AllocatorModel, queries) -> np.ndarray:
    """(m, C, num_classes): each client's class probabilities for each of
    the m queries, the rows of `queries`. Each (query, client) pair is a
    one-row product, so a query's probabilities do not depend on the block
    it is in."""
    x = np.asarray(queries, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.dim:
        raise ValidationError(f"queries have shape {x.shape}, model dim is "
                              f"{m.dim}")
    *_, z3 = _logits(m, m.input_scale * x[:, None, None, :])
    return _softmax(z3)[:, :, 0]


def _loss_and_grads(m: AllocatorModel, x: np.ndarray, onehot: np.ndarray,
                    grads=None) -> np.ndarray:
    """Each row's mean cross-entropy over its batch; given `grads`, the six
    gradient arrays (stacked like the parameters, in PARAM_NAMES order),
    also writes every parameter's gradient into its array.

    `x` is (rows, batch, dim), already multiplied by the input scale, and
    `onehot` the (rows, batch, classes) one-hot of the labels. The loss
    uses log-sum-exp on logits directly rather than log of the softmax
    output, and the one `exp` of the shifted logits serves both it and the
    softmax. A unit's ReLU mask is `a > 0`, which holds exactly where its
    preactivation is positive.
    """
    n = x.shape[-2]
    a1, a2, z3 = _logits(m, x)
    top = z3.max(axis=-1)
    dz3 = z3 - top[..., None]
    np.exp(dz3, out=dz3)
    total = dz3.sum(axis=-1)
    loss = np.log(total)
    loss += top
    loss -= z3[onehot].reshape(top.shape)
    loss = loss.sum(axis=-1) / n  # the batch mean
    if grads is None:
        return loss

    gw1, gb1, gw2, gb2, gw3, gb3 = grads
    dz3 /= total[..., None]  # the softmax
    dz3 -= onehot
    dz3 /= n
    np.matmul(_t(a2), dz3, out=gw3)
    dz3.sum(axis=-2, out=gb3)
    dz2 = dz3 @ _t(m.w3)
    dz2 *= a2 > 0
    np.matmul(_t(a1), dz2, out=gw2)
    dz2.sum(axis=-2, out=gb2)
    dz1 = dz2 @ _t(m.w2)
    dz1 *= a1 > 0
    np.matmul(_t(x), dz1, out=gw1)
    dz1.sum(axis=-2, out=gb1)
    return loss


def batch_loss_and_grads(m: AllocatorModel, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over each row's batch and gradients for every
    parameter, from `_loss_and_grads`.

    `x` is (rows, batch, dim) and `y` (rows, batch); the loss is one value
    per row and each gradient is stacked like its parameter.
    """
    grads = [np.empty_like(p) for p in m.params()]
    onehot = y[..., None] == np.arange(m.num_classes)
    loss = _loss_and_grads(m, m.input_scale * x, onehot, grads)
    return loss, grads


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, epoch)))


def _split(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train, validation) record indices for one row's shuffle seed."""
    if fraction > 0 and n > 1:
        n_val = max(1, int(round(fraction * n)))
        # epoch indices stay below 2**32, so this stream never collides
        order = _epoch_rng(seed, 2**32).permutation(n)
        val_idx, train_idx = order[:n_val], order[n_val:]
        if len(train_idx) == 0:
            train_idx, val_idx = val_idx, train_idx
        return train_idx, val_idx
    return np.arange(n), np.array([], dtype=np.int64)


def training_record(cfg: TrainConfig, seeds) -> dict:
    """The `train_config` a model trained with `cfg` and shuffle `seeds`
    carries."""
    return {"epochs": cfg.epochs, "learning_rate": cfg.learning_rate,
            "batch_size": cfg.batch_size, "seeds": list(seeds),
            "validation_fraction": cfg.validation_fraction}


def model_key(records: BudgetDataset, cfg: TrainConfig, seeds,
              input_scale: float) -> str:
    """The key of the allocators `train` fits to `records` with `cfg`,
    shuffle `seeds` and `input_scale`: a blake2b digest of their training
    record, width, input scale and table."""
    key = hashlib.blake2b(digest_size=16)
    key.update(json.dumps(
        [training_record(cfg, seeds), cfg.width, input_scale, records.k,
         records.delta, records.embeddings.shape, records.num_clients],
        sort_keys=True).encode())
    for part, dtype in ((records.query_ids, "<i8"),
                        (records.embeddings, "<f8"),
                        (records.raw_counts, "<i8")):
        key.update(np.ascontiguousarray(part, dtype=dtype).tobytes())
    return key.hexdigest()


class _NonFinite(Exception):
    """A batch loss that is not finite, as (epoch, batch start, row)."""


def _train_rows(stack: AllocatorModel, x_train, y_train, x_val, y_val, seeds,
                cfg: TrainConfig) -> np.ndarray:
    """Minibatch SGD on every row of `stack`, in place; returns each row's
    mean batch loss per epoch, (rows, epochs). Raises `_NonFinite` at the
    first batch whose loss is not finite in some row (the lowest such row).

    The rows' parameters are copied into one (rows, P) buffer and trained
    there, as views of it, and copied back at the end."""
    num_rows = stack.num_clients
    rows = np.arange(num_rows)[:, None]
    classes = np.arange(stack.num_classes)
    cuts = np.cumsum([p[0].size for p in stack.params()])[:-1]

    def views(buffer):
        return [part.reshape(p.shape) for part, p in
                zip(np.split(buffer, cuts, axis=1), stack.params())]

    params = np.concatenate([p.reshape(num_rows, -1) for p in stack.params()],
                            axis=1)
    model = replace(stack, **dict(zip(PARAM_NAMES, views(params))))
    grads = np.empty_like(params)
    grad_views = views(grads)
    best = params.copy()
    best_val = np.full(num_rows, np.inf)
    history = np.empty((num_rows, cfg.epochs))
    x_val = stack.input_scale * x_val
    onehot_val = y_val[..., None] == classes
    for epoch in range(cfg.epochs):
        order = np.stack([_epoch_rng(seed, epoch).permutation(x_train.shape[1])
                          for seed in seeds])
        x_epoch = stack.input_scale * x_train[rows, order]
        onehot = y_train[rows, order][..., None] == classes
        epoch_loss = np.zeros(num_rows)
        n_batches = 0
        for start in range(0, order.shape[1], cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            loss = _loss_and_grads(model, x_epoch[:, batch], onehot[:, batch],
                                   grad_views)
            finite = np.isfinite(loss)
            if not finite.all():
                raise _NonFinite(epoch, start, int(np.argmin(finite)))
            grads *= cfg.learning_rate
            params -= grads
            epoch_loss += loss
            n_batches += 1
        history[:, epoch] = epoch_loss / max(n_batches, 1)
        if x_val.shape[1]:
            val_loss = _loss_and_grads(model, x_val, onehot_val)
            better = val_loss < best_val
            best_val[better] = val_loss[better]
            best[better] = params[better]
    if x_val.shape[1]:
        # a row whose validation loss never improved keeps its final epoch
        seen = np.isfinite(best_val)
        params[seen] = best[seen]
    for param, view in zip(stack.params(), model.params()):
        param[...] = view
    return history


def train(datasets: list[BudgetDataset], cfg: TrainConfig, seeds,
          init_seeds, input_scale: float = 1.0,
          seed_indices=None) -> AllocatorModel:
    """Minibatch SGD on every client of every dataset; returns the stack of
    S·C rows, seed-major.

    `datasets` holds one budget dataset per seed, all with the same number
    of records, dimension, clients and classes. `seeds` (shuffle) and
    `init_seeds` hold one seed per row. Each row keeps its own shuffle
    stream and validation split (both from its shuffle seed), init seed,
    labels and best-validation snapshot, so every row's weights are
    bit-identical to training that client alone. `seed_indices` names the
    datasets' seeds in errors (default 0, 1, ...).

    `parallel.fill` runs `_train_rows` on the rows in one range, or in two
    halves at once, on views of the stack and of the training data. A
    non-finite loss raises the ValidationError a single loop would (the
    earliest batch, then the lowest row). `run_experiment` makes this call
    inside the allocator stage that it forks beside the model-free passes
    (`parallel.beside`), so the second half trains in that child and the
    first in one it forks; both die with the run if it is killed.

    Shuffling is reseeded per epoch from the shuffle seed. With a nonzero
    validation_fraction the best-validation-loss parameters are returned,
    otherwise the final-epoch ones.
    """
    datasets, seeds, init_seeds = list(datasets), list(seeds), list(init_seeds)
    if not datasets:
        raise ValidationError("need at least one budget dataset")
    first = datasets[0]
    shape = (len(first), first.embeddings.shape[1:], first.num_clients,
             first.num_classes)
    if any((len(d), d.embeddings.shape[1:], d.num_clients, d.num_classes)
           != shape for d in datasets):
        raise ValidationError("budget datasets trained together need equal "
                              "record counts, dimensions, clients and classes")
    num_clients, num_classes = first.num_clients, first.num_classes
    num_rows = len(datasets) * num_clients
    if len(seeds) != num_rows or len(init_seeds) != num_rows:
        raise ValidationError("need one shuffle seed and one init seed per "
                              "client of every dataset")
    if len(first) == 0:
        raise ValidationError("cannot train on an empty budget dataset")
    if seed_indices is None:
        seed_indices = range(len(datasets))
    x = np.stack([d.embeddings for d in datasets]).astype(np.float64)
    y = np.concatenate([d.classes.T for d in datasets])
    if np.any(y >= num_classes):
        raise ValidationError("class label out of range for num_classes")

    splits = [_split(len(first), cfg.validation_fraction, seed)
              for seed in seeds]
    train_idx = np.stack([t for t, _ in splits])
    val_idx = np.stack([v for _, v in splits])
    owner = np.repeat(np.arange(len(datasets)), num_clients)[:, None]
    x_train = x[owner, train_idx]
    y_train = np.take_along_axis(y, train_idx, axis=1)
    x_val = x[owner, val_idx]
    y_val = np.take_along_axis(y, val_idx, axis=1)

    stack = init_model(x.shape[2], cfg.width, num_classes, init_seeds,
                       input_scale=input_scale)

    history = np.empty((num_rows, cfg.epochs))
    failed = np.full((num_rows, 2), -1)  # a range's (epoch, start) at its row

    def work(lo, hi):  # rows lo..hi-1, on views of the stack and their data
        rows = slice(lo, hi)
        part = replace(stack, **{name: getattr(stack, name)[rows]
                                 for name in PARAM_NAMES})
        try:
            history[rows] = _train_rows(part, x_train[rows], y_train[rows],
                                        x_val[rows], y_val[rows], seeds[rows],
                                        cfg)
        except _NonFinite as exc:
            epoch, start, row = exc.args
            failed[lo + row] = epoch, start

    def describe(lo, hi):
        names = sorted({seed_indices[row // num_clients]
                        for row in range(lo, hi)})
        return f"training the allocators of seeds {names}"

    fill(num_rows, work, [*stack.params(), history, failed], describe)
    failures = [(*at, row) for row, at in enumerate(failed.tolist())
                if at[0] >= 0]
    if failures:
        epoch, start, row = min(failures)
        seed, client = divmod(row, num_clients)
        raise ValidationError(
            f"seed {seed_indices[seed]}, client {client}: non-finite "
            f"training loss at epoch {epoch}, batch starting {start} "
            f"(lr={cfg.learning_rate})")
    stack.loss_history = history.T.tolist()
    stack.train_config = training_record(cfg, seeds)
    return stack


def split(stack: AllocatorModel, parts: int) -> list[AllocatorModel]:
    """The stack cut into `parts` models of equal row count, in row order:
    one C-row model per seed of a seed-major `train`, each with its rows'
    loss history and shuffle seeds."""
    size = stack.num_clients // parts
    models = []
    for first in range(0, parts * size, size):
        rows = slice(first, first + size)
        models.append(replace(
            stack, loss_history=[h[rows] for h in stack.loss_history],
            train_config=dict(stack.train_config,
                              seeds=stack.train_config["seeds"][rows]),
            **{name: getattr(stack, name)[rows] for name in PARAM_NAMES}))
    return models


def predict_budget(m: AllocatorModel, queries, delta: int) -> np.ndarray:
    """(m, C): each client's dequantized argmax class for each of the m
    queries, the rows of `queries`, from one `forward` pass; ties go to the
    lowest class."""
    return dequantize(np.argmax(forward(m, queries), axis=-1), delta)


def _digest(meta: dict, blob: bytes) -> str:
    """blake2b of the metadata's other fields as sorted-key JSON, then the
    parameter blob: what `load_model` builds a model from."""
    fields = {name: value for name, value in meta.items() if name != "digest"}
    text = json.dumps(fields, sort_keys=True).encode("utf-8")
    return hashlib.blake2b(text + b"\0" + blob, digest_size=16).hexdigest()


def save_model(m: AllocatorModel, json_path, blob_path):
    """JSON metadata plus a little-endian f64 blob of the stacked parameters
    in layer order w1, b1, w2, b2, w3, b3 (each row-major, client first).
    The metadata records a blake2b digest of its other fields and the blob,
    so an edit to either file is caught on load."""
    blob = np.concatenate([p.ravel() for p in m.params()]).astype("<f8")
    meta = {"num_clients": m.num_clients, "dim": m.dim, "width": m.width,
            "num_classes": m.num_classes, "train_config": m.train_config,
            "loss_history": m.loss_history, "input_scale": m.input_scale,
            "key": m.key}
    meta["digest"] = _digest(meta, blob.tobytes())
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
    blob.tofile(blob_path)


def load_model(json_path, blob_path) -> AllocatorModel:
    """Read a pair written by `save_model`. A blob without the size its
    metadata implies raises ValidationError naming the blob; a pair without
    the digest the metadata records raises one naming both files."""
    with open(json_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    c, dim, width = meta["num_clients"], meta["dim"], meta["width"]
    classes = meta["num_classes"]
    shapes = [(c, dim, width), (c, width), (c, width, width), (c, width),
              (c, width, classes), (c, classes)]
    sizes = [int(np.prod(shape)) for shape in shapes]
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    if len(blob) != 8 * sum(sizes):
        raise ValidationError(f"{blob_path}: parameter blob has {len(blob)} "
                              f"bytes, expected {8 * sum(sizes)}")
    if _digest(meta, blob) != meta["digest"]:
        raise ValidationError(f"{json_path}: digest differs from that of "
                              f"its metadata and {blob_path}")
    flat = np.frombuffer(blob, dtype="<f8").copy()
    params = {name: part.reshape(shape) for name, part, shape in zip(
        PARAM_NAMES, np.split(flat, np.cumsum(sizes)[:-1]), shapes)}
    return AllocatorModel(dim=dim, width=width, num_classes=classes,
                          loss_history=meta["loss_history"],
                          train_config=meta["train_config"],
                          input_scale=meta["input_scale"], key=meta.get("key"),
                          **params)
