import collections
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icebudget.corpus import Dataset, Example, LabelSpace
import icebudget.embedder as embedder
from icebudget.embedder import (EmbeddingStore, HashEncoder, _stable_bucket,
                                encode_dataset, hash_encode_many,
                                load_embeddings, save_embeddings)
from icebudget.errors import ParseError, ValidationError


def random_store(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingStore.from_dict(dim, {i: rng.standard_normal(dim)
                                          for i in range(n)})


class TestEmbeddingStore:
    def test_basic_access(self):
        store = EmbeddingStore.from_dict(2, {3: [1.0, 2.0], 1: [0.0, 0.5]})
        assert len(store) == 2
        assert store.ids == [1, 3]
        assert np.array_equal(store.get(3), [1.0, 2.0])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingStore.from_dict(3, {0: [1.0, 2.0]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingStore.from_dict(2, {0: [np.nan, 0.0]})

    def test_matrix_sorted_by_id(self):
        store = EmbeddingStore.from_dict(1, {5: [5.0], 2: [2.0], 9: [9.0]})
        ids, matrix = store.matrix()
        assert ids.tolist() == [2, 5, 9]
        assert matrix[:, 0].tolist() == [2.0, 5.0, 9.0]

    def test_check_bound_requires_exact_match(self):
        d = Dataset((Example(0, "a", 0), Example(1, "b", 0)),
                    LabelSpace.default(1))
        random_store(2, 3).check_bound(d)
        with pytest.raises(ValidationError):
            random_store(3, 3).check_bound(d)  # extra id
        with pytest.raises(ValidationError):
            random_store(1, 3).check_bound(d)  # missing id

    def test_constructor_sorts_and_rejects_duplicates(self):
        store = EmbeddingStore([5, 2], [[5.0], [2.0]])
        assert store.ids == [2, 5] and store.get(5).tolist() == [5.0]
        with pytest.raises(ValidationError):
            EmbeddingStore([1, 1], [[0.0], [1.0]])
        with pytest.raises(ValidationError):
            store.subset([2, 3])  # no embedding for 3

    def test_subset(self):
        store = random_store(5, 2, seed=1)
        sub = store.subset([1, 3])
        assert sorted(sub.ids) == [1, 3]
        assert np.array_equal(sub.get(3), store.get(3))


class TestSerialization:
    def test_jsonl_roundtrip_exact(self, tmp_path):
        store = random_store(10, 4, seed=7)
        path = tmp_path / "emb.jsonl"
        save_embeddings(store, path, format="jsonl")
        loaded = load_embeddings(path)
        assert sorted(loaded.ids) == sorted(store.ids)
        for i in store.ids:
            assert np.array_equal(loaded.get(i), store.get(i))

    def test_binary_roundtrip_float32(self, tmp_path):
        store = random_store(10, 4, seed=7)
        path = tmp_path / "emb.bin"
        save_embeddings(store, path, format="binary")
        loaded = load_embeddings(path)
        assert loaded.dim == 4
        for i in store.ids:
            # binary format stores float32, so compare at that precision
            np.testing.assert_allclose(loaded.get(i), store.get(i),
                                       atol=1e-6, rtol=1e-6)

    def test_binary_detected_by_magic(self, tmp_path):
        store = random_store(3, 2)
        path = tmp_path / "emb"
        save_embeddings(store, path, format="binary")
        assert path.read_bytes()[:4] == b"ICEB"

    def test_truncated_binary_rejected(self, tmp_path):
        store = random_store(3, 2)
        path = tmp_path / "emb.bin"
        save_embeddings(store, path, format="binary")
        (tmp_path / "cut.bin").write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError):
            load_embeddings(tmp_path / "cut.bin")

    def test_empty_jsonl_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_embeddings(path)


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def write_binary(path, dim, records):
    """Raw 'ICEB' file from (id, values) pairs, bypassing the store checks."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQ", b"ICEB", dim, len(records)))
        for example_id, values in records:
            fh.write(struct.pack(f"<Q{dim}f", example_id, *values))


class TestLoaderErrors:
    @pytest.mark.parametrize("bad, message", [
        ({"id": 2, "vector": [1.0]}, "shape"),
        ({"id": 2, "vector": [1.0, float("nan")]}, "non-finite"),
        ({"id": 0, "vector": [1.0, 2.0]}, "duplicate"),
    ])
    def test_jsonl_record_errors_carry_line(self, tmp_path, bad, message):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"id": 0, "vector": [0.0, 1.0]},
                           {"id": 1, "vector": [1.0, 0.0]}, bad])
        with pytest.raises(ParseError, match=f"line 3: .*{message}") as info:
            load_embeddings(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("bad, message", [
        ((2, [1.0, float("inf")]), "record 2 .*non-finite"),
        ((0, [1.0, 2.0]), "record 2: duplicate embedding id 0"),
    ])
    def test_binary_record_errors_name_the_record(self, tmp_path, bad, message):
        path = tmp_path / "emb.bin"
        write_binary(path, 2, [(0, [0.0, 1.0]), (1, [1.0, 0.0]), bad])
        with pytest.raises(ParseError, match=message):
            load_embeddings(path)

    def test_truncated_binary_names_the_record(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_binary(path, 2, [(0, [0.0, 1.0]), (1, [1.0, 0.0])])
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ParseError, match="record 1 of 2"):
            load_embeddings(path)


def _reference_hash_encode(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """The one-n-gram-at-a-time encoder `hash_encode_many` replaced."""
    if dim < 2:
        raise ValidationError("hash encoder needs dim >= 2")
    if not text:
        raise ValidationError("cannot encode empty text")
    vec = np.zeros(dim, dtype=np.float64)
    for n in (2, 3):
        for i in range(max(len(text) - n + 1, 1)):
            bucket, sign = _stable_bucket(f"{n}:{text[i:i + n]}", seed, dim)
            vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        bucket, sign = _stable_bucket(f"t:{text}", seed, dim)
        vec[bucket] = sign
        norm = 1.0
    return vec / norm


# few letters, so that n-grams repeat within and across texts; astral and
# combining code points, so that a character is not a UTF-8 byte or a glyph
_repetitive_text = st.text(
    alphabet=st.sampled_from(["a", "b", " ", "\u00e9", "\u0301",
                              "\U0001F600", "\U00010348"]),
    min_size=1, max_size=12)


class TestHashEncodeMany:
    @settings(deadline=None, max_examples=150)
    @given(texts=st.lists(st.one_of(_repetitive_text,
                                    st.text(min_size=1, max_size=40)),
                          min_size=1, max_size=8),
           dim=st.integers(2, 70), seed=st.integers(0, 2**32))
    def test_equals_the_reference_loop(self, texts, dim, seed):
        batch = hash_encode_many(texts, dim, seed)
        reference = np.stack([_reference_hash_encode(t, dim, seed)
                              for t in texts])
        assert batch.dtype == np.float64 and batch.shape == (len(texts), dim)
        assert batch.tobytes() == reference.tobytes()
        one_by_one = np.stack([hash_encode_many([t], dim, seed)[0]
                               for t in texts])
        assert batch.tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("texts", [
        ["a", "ab", "b", "ba"],  # shorter than 3, or than both n
        ["aaaaaa", "abababab", "aa", "aaa"],  # repeated n-grams
        ["\U0001F600", "x\U0001F600", "\U0001F600\U00010348y",
         "\u00e9\u0301\U0001F600\u00e9"],  # astral and combining
        ["abc", "ab", "ab"],  # "ab" takes the zero-norm fallback at (8, 0)
    ])
    def test_equals_the_reference_on_edge_cases(self, texts):
        batch = hash_encode_many(texts, 8, 0)
        reference = np.stack([_reference_hash_encode(t, 8, 0) for t in texts])
        assert batch.tobytes() == reference.tobytes()

    def test_zero_norm_fallback(self):
        # "2:ab" and "3:ab" land in one bucket with opposite signs at
        # (dim 8, seed 0), so the text-level bucket decides the vector
        (b2, s2), (b3, s3) = (_stable_bucket(t, 0, 8) for t in ("2:ab", "3:ab"))
        assert b2 == b3 and s2 == -s3
        bucket, sign = _stable_bucket("t:ab", 0, 8)
        expected = np.zeros(8)
        expected[bucket] = sign
        batch = hash_encode_many(["abc", "ab", "ab"], 8, 0)
        for row in batch[1:]:
            assert row.tobytes() == expected.tobytes()
            assert row.tobytes() == _reference_hash_encode("ab", 8, 0).tobytes()

    def test_empty_text_in_batch_rejected(self):
        with pytest.raises(ValidationError, match="empty text"):
            hash_encode_many(["fine", "", "also fine"], 8)

    def test_min_dim(self):
        with pytest.raises(ValidationError):
            hash_encode_many(["x"], 1)
        with pytest.raises(ValidationError):
            HashEncoder(1)

    def test_no_texts(self):
        assert hash_encode_many([], 8).shape == (0, 8)

    def test_each_distinct_ngram_hashed_once(self, monkeypatch):
        calls = collections.Counter()

        def counting_bucket(token, seed, dim):
            calls[token] += 1
            return _stable_bucket(token, seed, dim)

        monkeypatch.setattr(embedder, "_stable_bucket", counting_bucket)
        texts = ["banana", "bandana", "banana", "an", "a", "nab"]
        d = Dataset(tuple(Example(i, t, 0) for i, t in enumerate(texts)),
                    LabelSpace.default(1))
        store = encode_dataset(d, HashEncoder(64, seed=2))
        distinct = {f"{n}:{t[i:i + n]}" for t in texts for n in (2, 3)
                    for i in range(max(len(t) - n + 1, 1))}
        assert set(calls) == distinct  # no text hit the zero-norm fallback
        assert set(calls.values()) == {1}
        expected = np.stack([_reference_hash_encode(t, 64, 2) for t in texts])
        assert store.matrix()[1].tobytes() == expected.tobytes()


    @pytest.mark.parametrize("chunk_chars", [1, 4, 11])
    def test_chunks_hash_each_distinct_ngram_once(self, monkeypatch,
                                                  chunk_chars):
        calls = collections.Counter()

        def counting_bucket(token, seed, dim):
            calls[token] += 1
            return _stable_bucket(token, seed, dim)

        monkeypatch.setattr(embedder, "_stable_bucket", counting_bucket)
        monkeypatch.setattr(embedder, "_CHUNK_CHARS", chunk_chars)
        texts = ["banana", "bandana", "a", "banana", "an", "nab", "ab"] * 2
        batch = hash_encode_many(texts, 16, 3)
        expected = np.stack([_reference_hash_encode(t, 16, 3) for t in texts])
        assert batch.tobytes() == expected.tobytes()
        assert set(calls.values()) == {1}


class TestHashEncode:
    def test_unit_norm(self):
        vec = hash_encode_many(["hello world"], 16)[0]
        assert np.isclose(np.linalg.norm(vec), 1.0)

    @settings(deadline=None, max_examples=50)
    @given(text=st.text(min_size=1, max_size=40), dim=st.integers(2, 64),
           seed=st.integers(0, 1000))
    def test_pure_function(self, text, dim, seed):
        a = hash_encode_many([text], dim, seed)[0]
        b = hash_encode_many([text], dim, seed)[0]
        assert np.array_equal(a, b)
        assert np.isclose(np.linalg.norm(a), 1.0)

    def test_seed_changes_encoding(self):
        a = hash_encode_many(["some sentence"], 32, seed=0)[0]
        b = hash_encode_many(["some sentence"], 32, seed=1)[0]
        assert not np.array_equal(a, b)

    def test_similar_texts_closer_than_dissimilar(self):
        base = hash_encode_many(["the quick brown fox jumps"], 64)[0]
        near = hash_encode_many(["the quick brown fox jumped"], 64)[0]
        far = hash_encode_many(["zzzz qqqq xxxx wwww"], 64)[0]
        assert np.linalg.norm(base - near) < np.linalg.norm(base - far)

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            hash_encode_many([""], 8)

    def test_min_dim(self):
        with pytest.raises(ValidationError):
            hash_encode_many(["x"], 1)

    def test_single_char(self):
        # shorter than any n-gram window; must still produce a unit vector
        vec = hash_encode_many(["a"], 8)[0]
        assert np.isclose(np.linalg.norm(vec), 1.0)


class TestEncodeDataset:
    def test_one_vector_per_example(self):
        d = Dataset((Example(0, "alpha", 0), Example(1, "beta", 1)),
                    LabelSpace.default(2))
        store = encode_dataset(d, HashEncoder(16, seed=3))
        assert sorted(store.ids) == [0, 1]
        assert np.array_equal(store.get(0),
                              hash_encode_many(["alpha"], 16, 3)[0])
