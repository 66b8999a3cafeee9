"""Embedding stores and the deterministic fallback text encoder.

Real encoder output (e.g. from a sentence-transformer run offline) is
ingested from a binary or JSONL file; `hash_encode_many` provides a
dependency-free deterministic stand-in based on signed character n-gram
feature hashing. It counts the n-grams of a whole batch of texts at once
and hashes each distinct n-gram once per call.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .corpus import Dataset
from .errors import ParseError, ValidationError, jsonl_values

BINARY_MAGIC = b"ICEB"


class EmbeddingStore:
    """Immutable map from example id to a fixed-dimension float64 vector.

    Held as one (sorted int64 ids, float64 matrix) pair that is validated
    once, at construction; lookups and subsets are index gathers.
    """

    def __init__(self, ids, matrix):
        ids = np.asarray(ids, dtype=np.int64)
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValidationError("embedding dimension must be positive")
        if ids.shape != (len(matrix),):
            raise ValidationError(
                f"{ids.size} embedding ids for {len(matrix)} vectors")
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise ValidationError(
                f"id {ids[np.argmin(finite)]}: non-finite component")
        order = np.argsort(ids, kind="stable")
        ids, matrix = ids[order], matrix[order]  # gathers copy: we own both
        repeated = ids[1:] == ids[:-1]
        if repeated.any():
            raise ValidationError(
                f"duplicate embedding id {ids[1:][repeated][0]}")
        self._adopt(ids, matrix)

    def _adopt(self, ids: np.ndarray, matrix: np.ndarray):
        """Take ownership of validated, id-sorted arrays."""
        ids.flags.writeable = False
        matrix.flags.writeable = False
        self.dim = matrix.shape[1]
        self._ids = ids
        self._matrix = matrix
        self._bound_to = None  # last dataset check_bound accepted
        self._half_norms = None  # see half_norms

    @classmethod
    def from_dict(cls, dim: int, vectors: dict[int, np.ndarray]) -> "EmbeddingStore":
        ids = sorted(vectors)
        rows = [np.asarray(vectors[i], dtype=np.float64) for i in ids]
        for example_id, row in zip(ids, rows):
            if row.shape != (dim,):
                raise ValidationError(f"id {example_id}: vector has shape "
                                      f"{row.shape}, expected ({dim},)")
        return cls(ids, np.stack(rows) if rows else np.empty((0, dim)))

    def __len__(self):
        return len(self._ids)

    @property
    def ids(self) -> list[int]:
        return self._ids.tolist()

    def _positions(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self._ids, ids)
        found = pos < len(self._ids)
        found[found] = self._ids[pos[found]] == ids[found]
        if not found.all():
            raise ValidationError(f"no embedding for id {ids[~found][0]}")
        return pos

    def get(self, example_id: int) -> np.ndarray:
        return self._matrix[self._positions([example_id])[0]]

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, vectors) as aligned read-only arrays, sorted by id."""
        return self._ids, self._matrix

    def half_norms(self) -> tuple[np.ndarray, float]:
        """Half of each row's squared L2 norm, and the largest squared norm
        (0 for an empty store). Computed on first use and kept, since the
        matrix is read-only; a norm that overflows reads inf, without a
        warning (einsum raises none)."""
        if self._half_norms is None:
            squared = np.einsum("ij,ij->i", self._matrix, self._matrix)
            self._half_norms = (0.5 * squared, float(squared.max(initial=0.0)))
        return self._half_norms

    def subset(self, ids) -> "EmbeddingStore":
        """The entries with the given ids (duplicates collapse)."""
        pos = self._positions(np.unique(np.asarray(ids, dtype=np.int64)))
        sub = object.__new__(EmbeddingStore)  # rows of a validated store
        sub._adopt(self._ids[pos], self._matrix[pos])
        return sub

    def check_bound(self, d: Dataset):
        """Require this store's id set to match the dataset's exactly."""
        if d is self._bound_to:  # both are immutable
            return
        if not np.array_equal(self._ids, d.ids):  # dataset ids are increasing
            raise ValidationError("embedding store is not bound to the dataset: "
                                  "id sets differ")
        self._bound_to = d


def load_embeddings(path) -> EmbeddingStore:
    """Load a store from the binary format (magic 'ICEB') or JSONL."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == BINARY_MAGIC:
        return _load_binary(path)
    return _load_jsonl(path)


def _record_dtype(dim: int) -> np.dtype:
    """One binary record: little-endian u64 id, then dim float32 values."""
    return np.dtype([("id", "<u8"), ("vector", "<f4", (dim,))])


def _load_binary(path) -> EmbeddingStore:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != BINARY_MAGIC:
            raise ParseError(f"not a binary embedding file: {path}")
        _, dim, count = struct.unpack("<4sIQ", header)
        if dim < 1:
            raise ParseError(f"{path}: embedding dimension must be positive")
        record = _record_dtype(dim)
        raw = fh.read(count * record.itemsize)
    if len(raw) != count * record.itemsize:
        raise ParseError(f"truncated embedding file {path}: record "
                         f"{len(raw) // record.itemsize} of {count} is cut short")
    records = np.frombuffer(raw, dtype=record)
    ids, vectors = records["id"], records["vector"].astype(np.float64)
    too_big = ids > np.iinfo(np.int64).max
    if too_big.any():
        index = int(np.argmax(too_big))
        raise ParseError(f"{path}: record {index}: id {ids[index]} exceeds int64")
    bad = ~np.isfinite(vectors).all(axis=1)
    if bad.any():
        index = int(np.argmax(bad))
        raise ParseError(f"{path}: record {index} (id {ids[index]}): "
                         "non-finite component")
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order][1:] == ids[order][:-1]]
    if repeats.size:
        index = int(repeats.min())
        raise ParseError(f"{path}: record {index}: duplicate embedding id "
                         f"{ids[index]}")
    return EmbeddingStore(ids.astype(np.int64), vectors)


def _load_jsonl(path) -> EmbeddingStore:
    rows = []
    first_line: dict[int, int] = {}  # id -> line, in file order
    for lineno, obj in jsonl_values(path):
        if not isinstance(obj, dict) or "id" not in obj or "vector" not in obj:
            raise ParseError("record needs 'id' and 'vector'", line=lineno)
        example_id = obj["id"]
        if (not isinstance(example_id, int) or isinstance(example_id, bool)
                or not -2**63 <= example_id < 2**63):
            raise ParseError("'id' must be a 64-bit integer", line=lineno)
        try:
            vec = np.asarray(obj["vector"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"'vector' is not numeric: {exc}",
                             line=lineno) from exc
        if vec.size == 0:
            raise ParseError(f"id {example_id}: empty vector", line=lineno)
        dim = len(rows[0]) if rows else vec.size
        if vec.shape != (dim,):
            raise ParseError(f"id {example_id}: vector has shape {vec.shape}, "
                             f"expected ({dim},)", line=lineno)
        if not np.isfinite(vec).all():
            raise ParseError(f"id {example_id}: non-finite component",
                             line=lineno)
        if example_id in first_line:
            raise ParseError(f"duplicate embedding id {example_id} (first "
                             f"on line {first_line[example_id]})", line=lineno)
        first_line[example_id] = lineno
        rows.append(vec)
    if not rows:
        raise ValidationError(f"empty embedding file: {path}")
    return EmbeddingStore(list(first_line), np.stack(rows))


def save_embeddings(store: EmbeddingStore, path, format="binary"):
    ids, matrix = store.matrix()
    if format == "binary":
        records = np.empty(len(ids), dtype=_record_dtype(store.dim))
        records["id"] = ids
        records["vector"] = matrix
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sIQ", BINARY_MAGIC, store.dim, len(store)))
            fh.write(records.tobytes())
    elif format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for example_id, vec in zip(ids.tolist(), matrix.tolist()):
                fh.write(json.dumps({"id": example_id, "vector": vec}) + "\n")
    else:
        raise ValidationError(f"unknown embedding format: {format}")


def _stable_bucket(token: str, seed: int, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode("utf-8"),
                             digest_size=8,
                             key=str(seed).encode("utf-8")).digest()
    value = int.from_bytes(digest, "little")
    sign = 1.0 if value & 1 else -1.0
    return (value >> 1) % dim, sign


# an n-gram key packs 21 bits per code point (all of Unicode), and past the
# end of a text shorter than n a value that no code point has
_CHAR_BITS = 21
_PAST_END = (1 << _CHAR_BITS) - 1
# texts are counted in runs of about this many characters, which bounds the
# temporary arrays (about 100 bytes per character) for any batch size
_CHUNK_CHARS = 1 << 13


def hash_encode_many(texts, dim: int, seed: int = 0) -> np.ndarray:
    """Signed feature hashing of character 2- and 3-grams, L2-normalized:
    one row per text, as an (N, dim) float64 array.

    Pure function of (text, dim, seed) per row; uses a keyed blake2b hash so
    results are stable across processes. A text's row is its positive minus
    its negative slot counts (see `_count_ngrams`); counts are integers, so
    the row and its norm are exact in float64, equal to summing the signs
    one n-gram at a time. Each distinct n-gram is hashed once per call.
    """
    if dim < 2:
        raise ValidationError("hash encoder needs dim >= 2")
    texts = list(texts)
    if not all(texts):
        raise ValidationError("cannot encode empty text")
    out = np.empty((len(texts), dim), dtype=np.float64)
    tables = ({}, {})  # per n, n-gram key -> slot code 2*bucket + (sign > 0)
    start = chars = 0
    for stop, text in enumerate(texts, start=1):
        chars += len(text)
        if chars >= _CHUNK_CHARS or stop == len(texts):
            out[start:stop] = _count_ngrams(texts[start:stop], dim, seed,
                                            tables)
            start, chars = stop, 0
    norms = np.sqrt(np.einsum("ij,ij->i", out, out))
    for row in np.flatnonzero(norms == 0.0):
        # all n-gram signs cancelled; fall back to a text-level bucket
        bucket, sign = _stable_bucket(f"t:{texts[row]}", seed, dim)
        out[row, bucket] = sign
        norms[row] = 1.0
    out /= norms[:, None]
    return out


def _count_ngrams(texts, dim: int, seed: int, tables) -> np.ndarray:
    """Each text's positive minus negative slot counts over its 2- and
    3-grams (a text shorter than n has one n-gram, itself), counted at once
    in numpy: each window's code points are packed into one uint64 key, and
    each distinct key not yet in `tables` is hashed and added to it."""
    lengths = np.array([len(t) for t in texts])
    # each text followed by two past-the-end values, so that every window
    # of three code points that starts in a text holds only its own
    ends = np.cumsum(lengths + 2)
    padded = np.full(ends[-1], _PAST_END, dtype=np.uint64)
    real = np.ones(len(padded), dtype=bool)
    real[ends - 1] = real[ends - 2] = False
    padded[real] = np.frombuffer(
        "".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    shift = np.uint64(_CHAR_BITS)
    keys = (padded[:-2] << shift | padded[1:-1]) << shift | padded[2:]
    first = np.zeros(len(keys), dtype=bool)  # where each text starts
    first[ends - lengths - 2] = True
    text_of = np.cumsum(first) - 1
    slots = []
    for n, table in zip((2, 3), tables):
        # a window of n code points, or the whole of a text shorter than n
        kept = real[:-2] & (real[n - 1:len(real) - 3 + n] | first)
        distinct, inverse = np.unique(keys[kept] >> np.uint64(
            _CHAR_BITS * (3 - n)), return_inverse=True)
        codes = np.empty(len(distinct), dtype=np.int64)
        for i, key in enumerate(distinct.tolist()):
            if key not in table:
                gram = "".join(chr(c) for c in (
                    key >> _CHAR_BITS * j & _PAST_END
                    for j in range(n - 1, -1, -1)) if c != _PAST_END)
                bucket, sign = _stable_bucket(f"{n}:{gram}", seed, dim)
                table[key] = 2 * bucket + (sign > 0)
            codes[i] = table[key]
        slots.append(text_of[kept] * 2 * dim + codes[inverse])
    counts = np.bincount(np.concatenate(slots),
                         minlength=len(texts) * 2 * dim).reshape(-1, dim, 2)
    return counts[..., 1] - counts[..., 0]


class HashEncoder:
    """Configured wrapper around hash_encode_many with a fixed (dim, seed)."""

    def __init__(self, dim: int, seed: int = 0):
        if dim < 2:
            raise ValidationError("hash encoder needs dim >= 2")
        self.dim = dim
        self.seed = seed

    def encode_many(self, texts) -> np.ndarray:
        return hash_encode_many(texts, self.dim, self.seed)


def encode_dataset(d: Dataset, encoder) -> EmbeddingStore:
    """One embedding per example id, computed with the encoder's batch
    routine `encode_many`."""
    return EmbeddingStore(d.ids, encoder.encode_many(ex.text for ex in d.examples))
