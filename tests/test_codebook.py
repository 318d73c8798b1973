"""Codebook training, quantization, partitioning and the DTRC format."""

from __future__ import annotations

import numpy as np
import pytest

from ramk.codebook import (
    Codebook,
    codebook_digest,
    load_codebook,
    partition,
    quantize,
    quantize_batch,
    save_codebook,
    serialize_codebook,
    train_codebook,
)
from ramk.errors import DimensionError, FormatError, TrainingError

from conftest import make_codebook, make_features


def brute_force_word(centroids: np.ndarray, vector: np.ndarray) -> int:
    """Independent linear scan in float64."""
    best, best_d = -1, np.inf
    for i in range(centroids.shape[0]):
        diff = vector.astype(np.float64) - centroids[i].astype(np.float64)
        d = float(np.sum(diff * diff))
        if d < best_d:
            best, best_d = i, d
    return best


class TestTraining:
    def test_two_separated_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.05, size=(200, 2)) + np.array([0.0, 0.0])
        b = rng.normal(0, 0.05, size=(200, 2)) + np.array([10.0, 10.0])
        points = np.concatenate([a, b])
        cb = train_codebook(points, 2, max_iters=50, seed=1)
        means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
        got = sorted(cb.centroids.tolist(), key=lambda m: m[0])
        np.testing.assert_allclose(got[0], means[0], atol=1e-3)
        np.testing.assert_allclose(got[1], means[1], atol=1e-3)

    def test_single_cluster_is_global_mean(self):
        rng = np.random.default_rng(1)
        points = rng.normal(0, 1, size=(500, 4))
        cb = train_codebook(points, 1, max_iters=10, seed=0)
        np.testing.assert_allclose(cb.centroids[0], points.mean(axis=0), atol=1e-5)

    def test_distortion_non_increasing(self):
        rng = np.random.default_rng(2)
        points = rng.normal(0, 1, size=(300, 8))
        cb = train_codebook(points, 16, max_iters=40, seed=3)
        diffs = np.diff(cb.history)
        assert (diffs <= 0).all(), cb.history

    def test_fewer_distinct_points_than_words(self):
        points = np.tile(np.array([[1.0, 2.0], [3.0, 4.0]]), (10, 1))
        with pytest.raises(TrainingError, match="distinct"):
            train_codebook(points, 3)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(4)
        points = rng.normal(0, 1, size=(400, 6))
        cb1 = train_codebook(points, 8, max_iters=25, seed=42)
        cb2 = train_codebook(points, 8, max_iters=25, seed=42)
        np.testing.assert_array_equal(cb1.centroids, cb2.centroids)
        assert cb1.history == cb2.history

    def test_more_words_than_natural_clusters_still_valid(self):
        rng = np.random.default_rng(5)
        points = rng.normal(0, 1, size=(64, 3))
        cb = train_codebook(points, 32, max_iters=30, seed=7)
        cb.validate()
        assert cb.size == 32


class TestQuantize:
    def test_descriptor_equal_to_centroid(self):
        cb = make_codebook(np.random.default_rng(0), 8, 4)
        assert quantize(cb, cb.centroids[3]) == 3

    def test_tie_goes_to_lowest_index(self):
        cents = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [0.0, 2.0], [2.0, 2.0]], dtype=np.float32)
        cb = Codebook(centroids=cents)
        # (1, 0) is exactly equidistant to words 0 and 1
        assert quantize(cb, np.array([1.0, 0.0])) == 0
        # (1, 1) is equidistant to 0, 1, 3, 4
        assert quantize(cb, np.array([1.0, 1.0])) == 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        cb = make_codebook(rng, 100, 8)
        vectors = rng.normal(0, 1, size=(200, 8))
        labels = quantize_batch(cb, vectors)
        for i in range(vectors.shape[0]):
            assert labels[i] == brute_force_word(cb.centroids, vectors[i])

    def test_exhaustive_oracle_large_codebook(self):
        rng = np.random.default_rng(7)
        cb = make_codebook(rng, 4096, 4)
        vectors = rng.normal(0, 1, size=(50, 4))
        labels = quantize_batch(cb, vectors)
        for i in range(vectors.shape[0]):
            assert labels[i] == brute_force_word(cb.centroids, vectors[i])

    def test_dimension_mismatch(self):
        cb = make_codebook(np.random.default_rng(8), 4, 8)
        with pytest.raises(DimensionError):
            quantize(cb, np.zeros(4))


class TestPartition:
    def test_empty_feature_set(self):
        rng = np.random.default_rng(9)
        cb = make_codebook(rng, 4, 8)
        part = partition(cb, make_features(rng, 0, 8))
        assert part.labels.size == 0

    def test_identical_descriptors_in_one_word(self):
        rng = np.random.default_rng(10)
        cb = make_codebook(rng, 4, 8)
        f = make_features(rng, 5, 8)
        f.vectors[:] = f.vectors[0]
        part = partition(cb, f)
        assert part.labels.tolist() == [part.labels[0]] * 5  # one word holding descriptors 0..4

    def test_counts_sum_to_m_and_true_partition(self):
        rng = np.random.default_rng(11)
        cb = make_codebook(rng, 16, 8)
        f = make_features(rng, 123, 8)
        labels = partition(cb, f).labels
        assert labels.shape == (123,)  # one word per descriptor: disjoint and covering
        assert ((labels >= 0) & (labels < 16)).all()


class TestCodebookFile:
    def test_round_trip_bytes(self, tmp_path):
        cb = make_codebook(np.random.default_rng(12), 32, 16)
        save_codebook(cb, tmp_path / "cb.dtrc")
        loaded = load_codebook(tmp_path / "cb.dtrc")
        np.testing.assert_array_equal(loaded.centroids, cb.centroids)
        assert serialize_codebook(loaded) == serialize_codebook(cb)
        assert codebook_digest(loaded) == codebook_digest(cb)

    def test_truncated_rejected(self, tmp_path):
        cb = make_codebook(np.random.default_rng(13), 4, 4)
        payload = serialize_codebook(cb)
        (tmp_path / "cb.dtrc").write_bytes(payload[:-2])
        with pytest.raises(FormatError):
            load_codebook(tmp_path / "cb.dtrc")

    def test_expected_header_layout(self):
        cb = make_codebook(np.random.default_rng(14), 3, 5)
        payload = serialize_codebook(cb)
        assert payload[:4] == b"DTRC"
        assert len(payload) == 12 + 3 * 5 * 4
