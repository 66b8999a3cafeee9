import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icebudget.corpus import (Dataset, Example, LabelSpace, _split_near_equal,
                              load_dataset, partition_iid, partition_noniid,
                              sample_proxy, synth_clusters)
from icebudget.errors import ParseError, ValidationError

from conftest import save_dataset


def label_set(d):
    return {ex.label for ex in d}


def make_dataset(n, num_classes, seed=0):
    rng = np.random.default_rng(seed)
    examples = tuple(Example(i, f"t{i}", int(rng.integers(num_classes)))
                     for i in range(n))
    return Dataset(examples, LabelSpace.default(num_classes))


def balanced_dataset(per_class, num_classes):
    examples = tuple(Example(i, f"t{i}", i % num_classes)
                     for i in range(per_class * num_classes))
    return Dataset(examples, LabelSpace.default(num_classes))


class TestDatasetValidation:
    def test_ids_must_increase(self):
        with pytest.raises(ValidationError):
            Dataset((Example(1, "a", 0), Example(1, "b", 0)),
                    LabelSpace.default(1))

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            Dataset((Example(0, "a", 3),), LabelSpace.default(2))

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            Dataset((Example(0, "", 0),), LabelSpace.default(1))

    def test_verbalizers_must_be_distinct(self):
        with pytest.raises(ValidationError):
            LabelSpace(2, ("same", "same"))

    def test_subset_preserves_order(self):
        d = make_dataset(10, 2)
        sub = d.subset([7, 2, 5])
        assert sub.ids == [2, 5, 7]

    def test_subset_unknown_id(self):
        d = make_dataset(5, 2)
        with pytest.raises(ValidationError):
            d.subset([99])


class TestRoundtrip:
    def test_save_load_identity(self, tmp_path):
        d = make_dataset(20, 3, seed=5)
        path = tmp_path / "d.jsonl"
        save_dataset(d, path)
        loaded = load_dataset(path)
        assert loaded.labels.verbalizers == d.labels.verbalizers
        assert [(e.text, e.label) for e in loaded] == \
               [(e.text, e.label) for e in d]

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok", "label": 0}\nnot json\n')
        with pytest.raises(ParseError) as exc_info:
            load_dataset(path)
        assert exc_info.value.line == 2

    def test_non_utf8_line_reports_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"text": "ok", "label": 0}\n\n'
                         b'{"text": "caf\xe9", "label": 0}\n')
        message = f"line 3: {path}: not UTF-8"
        with pytest.raises(ParseError, match=re.escape(message)) as exc_info:
            load_dataset(path)
        assert exc_info.value.line == 3

    def test_lines_split_at_any_newline(self, tmp_path):
        # "\r\n" and a lone "\r" end a line, as in a text-mode read
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"text": "a", "label": 0}\r\n'
                         b'{"text": "b", "label": 1}\r{"text": "c"}\n')
        with pytest.raises(ParseError, match="line 3: record needs"):
            load_dataset(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "no label"}\n')
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_inferred_label_space(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"text": "a", "label": 2}) + "\n")
        assert load_dataset(path).labels.count == 3


class TestNoniidPartition:
    @settings(deadline=None, max_examples=40)
    @given(num_classes=st.integers(2, 6), num_clients=st.integers(1, 6),
           gamma=st.integers(1, 6), seed=st.integers(0, 10_000))
    def test_partition_is_exact_cover(self, num_classes, num_clients, gamma,
                                      seed):
        if gamma > num_classes or num_clients * gamma < num_classes:
            return
        d = balanced_dataset(12, num_classes)
        shards = partition_noniid(d, num_clients, gamma, seed)
        all_ids = [i for shard in shards for i in shard.ids]
        assert sorted(all_ids) == d.ids  # every example exactly once

    @settings(deadline=None, max_examples=40)
    @given(num_classes=st.integers(2, 6), num_clients=st.integers(1, 6),
           gamma=st.integers(1, 6), seed=st.integers(0, 10_000))
    def test_each_client_has_at_most_gamma_labels(self, num_classes,
                                                  num_clients, gamma, seed):
        if gamma > num_classes or num_clients * gamma < num_classes:
            return
        d = balanced_dataset(12, num_classes)
        shards = partition_noniid(d, num_clients, gamma, seed)
        for shard in shards:
            assert len(label_set(shard)) <= gamma

    def test_every_class_covered(self):
        d = balanced_dataset(10, 4)
        shards = partition_noniid(d, 4, 1, 123)
        covered = set()
        for shard in shards:
            covered |= label_set(shard)
        assert covered == {0, 1, 2, 3}

    def test_deterministic(self):
        d = balanced_dataset(10, 4)
        a = partition_noniid(d, 3, 2, 7)
        b = partition_noniid(d, 3, 2, 7)
        assert [s.ids for s in a] == [s.ids for s in b]

    def test_shared_class_split_near_equal(self):
        # 2 clients, both holding both classes: each class of 11 splits 6/5
        d = balanced_dataset(11, 2)
        shards = partition_noniid(d, 2, 2, 0)
        sizes = sorted(len(s) for s in shards)
        assert sum(sizes) == 22
        assert max(sizes) - min(sizes) <= 2  # at most one per shared class

    def test_impossible_coverage_rejected(self):
        d = balanced_dataset(4, 4)
        with pytest.raises(ValidationError):
            partition_noniid(d, 2, 1, 0)  # 2*1 < 4 classes

    def test_gamma_above_num_classes_rejected(self):
        d = balanced_dataset(4, 2)
        with pytest.raises(ValidationError):
            partition_noniid(d, 2, 3, 0)


class TestSplitNearEqual:
    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(0, 50), parts=st.integers(1, 8))
    def test_sizes_and_order(self, n, parts):
        items = list(range(n))
        out = _split_near_equal(items, parts)
        assert len(out) == parts
        assert [x for part in out for x in part] == items
        sizes = [len(p) for p in out]
        assert max(sizes) - min(sizes) <= 1
        # the remainder goes to the leading parts
        assert sizes == sorted(sizes, reverse=True)


class TestIidPartition:
    def test_sizes_differ_by_at_most_one(self):
        d = make_dataset(23, 3)
        shards = partition_iid(d, 4, 9)
        sizes = [len(s) for s in shards]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1

    def test_exact_cover(self):
        d = make_dataset(30, 3)
        shards = partition_iid(d, 5, 1)
        assert sorted(i for s in shards for i in s.ids) == d.ids


class TestSampleProxy:
    def test_disjoint_and_complete(self):
        d = make_dataset(50, 2)
        proxy, rest = sample_proxy(d, 10, seed=4)
        assert len(proxy) == 10
        assert len(rest) == 40
        assert set(proxy.ids).isdisjoint(rest.ids)
        assert sorted(proxy.ids + rest.ids) == d.ids

    def test_size_bounds(self):
        d = make_dataset(10, 2)
        with pytest.raises(ValidationError):
            sample_proxy(d, 10, seed=0)
        with pytest.raises(ValidationError):
            sample_proxy(d, 0, seed=0)


class TestSynthClusters:
    def test_shapes_and_labels(self):
        d, store = synth_clusters(3, 5, 6, 0.1, seed=2)
        assert len(d) == 15
        assert len(store) == 15
        assert store.dim == 6
        assert label_set(d) == {0, 1, 2}

    def test_deterministic(self):
        d1, s1 = synth_clusters(2, 4, 3, 0.2, seed=9)
        d2, s2 = synth_clusters(2, 4, 3, 0.2, seed=9)
        for i in d1.ids:
            assert np.array_equal(s1.get(i), s2.get(i))

    def test_zero_spread_collapses_to_means(self):
        d, store = synth_clusters(2, 3, 4, 0.0, seed=1)
        by_label = {}
        for ex in d:
            by_label.setdefault(ex.label, []).append(store.get(ex.id))
        for vecs in by_label.values():
            for v in vecs[1:]:
                assert np.allclose(v, vecs[0])

    def test_shared_means_seed_aligns_clusters(self):
        _, s1 = synth_clusters(2, 1, 4, 0.0, seed=1, means_seed=42)
        _, s2 = synth_clusters(2, 1, 4, 0.0, seed=2, means_seed=42)
        # zero spread: points are exactly the means, so they must coincide
        assert np.allclose(s1.get(0), s2.get(0))
        assert np.allclose(s1.get(1), s2.get(1))

    def test_scale_multiplies_distances(self):
        _, s1 = synth_clusters(2, 3, 4, 0.1, seed=5, scale=1.0)
        _, s2 = synth_clusters(2, 3, 4, 0.1, seed=5, scale=1e-3)
        for i in s1.ids:
            assert np.allclose(s2.get(i), 1e-3 * s1.get(i))

    def test_label_noise_moves_points_keeps_labels(self):
        clean_d, clean_s = synth_clusters(4, 200, 8, 0.0, seed=3,
                                          means_seed=3)
        noisy_d, noisy_s = synth_clusters(4, 200, 8, 0.0, seed=3,
                                          means_seed=3, label_noise=0.3)
        assert [e.label for e in noisy_d] == [e.label for e in clean_d]
        moved = sum(1 for i in clean_d.ids
                    if not np.allclose(clean_s.get(i), noisy_s.get(i)))
        # ~30% of 800 points relocated; allow generous sampling slack
        assert 0.2 * 800 < moved < 0.4 * 800

    def test_id_offset(self):
        d, _ = synth_clusters(2, 2, 3, 0.1, seed=0, id_offset=100)
        assert d.ids == [100, 101, 102, 103]

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            synth_clusters(0, 1, 2, 0.1, seed=0)
        with pytest.raises(ValidationError):
            synth_clusters(2, 1, 2, -0.1, seed=0)
        with pytest.raises(ValidationError):
            synth_clusters(2, 1, 2, 0.1, seed=0, scale=0.0)
        with pytest.raises(ValidationError):
            synth_clusters(2, 1, 2, 0.1, seed=0, label_noise=1.0)
