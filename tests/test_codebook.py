"""Codebook training, quantization, partitioning and the DTRC format.

``cdist_nearest`` is the ``cdist`` + ``argmin`` assignment that the
matrix-product nearest-neighbour core replaces; the core must return the
same labels and byte-equal squared distances.  ``oracle_kmeanspp_init``
(conftest) is the unpruned k-means++ seeding that the pruned one must
reproduce draw for draw.
"""

from __future__ import annotations

import dataclasses
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ramk import codebook as codebook_module
from ramk.codebook import (
    _nearest,
    _sequential_sqdist,
    Codebook,
    codebook_digest,
    load_codebook,
    partition,
    quantize_batch,
    save_codebook,
    serialize_codebook,
    train_codebook,
)
from ramk.errors import DimensionError, FormatError, TrainingError

from conftest import make_codebook, make_features, oracle_kmeanspp_init, quantize


def cdist_nearest(points: np.ndarray, refs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest reference per row by a full float64 ``cdist`` matrix."""
    d2 = cdist(points, refs, metric="sqeuclidean")
    labels = np.argmin(d2, axis=1)
    return labels.astype(np.int64), d2[np.arange(points.shape[0]), labels]


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

    def test_descriptors_beyond_float32_range_rejected(self):
        points = np.random.default_rng(17).normal(0, 1, size=(50, 4))
        points[7, 2] = -1e150
        seeding = mock.Mock(side_effect=AssertionError("seeding ran"))
        with mock.patch.object(codebook_module, "_kmeanspp_init", seeding):
            with pytest.raises(TrainingError, match="float32 range"):
                train_codebook(points, 4)

    @pytest.mark.parametrize("shape", [(0, 4), (5, 0)])
    def test_empty_descriptor_array_rejected(self, shape):
        with pytest.raises(TrainingError, match="non-empty"):
            train_codebook(np.zeros(shape), 1)

    def test_descriptors_at_float32_limit_accepted(self):
        big = float(np.finfo(np.float32).max)
        points = np.random.default_rng(18).normal(0, 1, size=(50, 4))
        points[7] = [big, -big, big, 0.0]
        cb = train_codebook(points, 4, max_iters=5, seed=0)
        assert np.isfinite(cb.centroids).all()
        assert [big, -big, big, 0.0] in cb.centroids.tolist()

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


class RecordingRng:
    """A PCG64 generator that records each draw a seeding makes, so two
    seedings compare step by step: its kind ("integers" with its bounds, or
    "weighted" for ``choice(n, p=...)`` and for the ``random()`` that
    ``_kmeanspp_pick`` draws in its place), the drawing function's
    ``closest`` (None before the first seed) and the generator state after
    the draw."""

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        self.calls: list[tuple] = []

    def _record(self, *draw) -> None:
        closest = sys._getframe(2).f_locals.get("closest")  # the frame that called the generator
        self.calls.append((*draw, None if closest is None else closest.tobytes(), self._rng.bit_generator.state))

    def integers(self, *args, **kwargs):
        value = self._rng.integers(*args, **kwargs)
        self._record("integers", args, kwargs)
        return value

    def choice(self, a, p):
        value = self._rng.choice(a, p=p)
        self._record("weighted")
        return value

    def random(self):
        value = self._rng.random()
        self._record("weighted")
        return value


def blobs(rng: np.random.Generator, n: int, d: int, centres: int, spread: float) -> np.ndarray:
    """``n`` points scattered by ``spread`` around ``centres`` N(0, 1) centres."""
    means = rng.normal(0, 1, size=(centres, d))
    return means[rng.integers(0, centres, size=n)] + rng.normal(0, spread, size=(n, d))


def assert_seeding_matches_oracle(points: np.ndarray, c: int, seed: int = 0) -> list[tuple]:
    """Run the pruned and the unpruned seeding on the same stream; at every
    draw the kind, ``closest`` and the generator state after it, and every
    seed, the row each step picked, must be byte-equal.  Returns the
    oracle's draws."""
    got_rng, want_rng = RecordingRng(seed), RecordingRng(seed)
    got = codebook_module._kmeanspp_init(points, c, got_rng)
    want = oracle_kmeanspp_init(points, c, want_rng)
    # One draw per seed: the first pick, then one weighted (or uniform fallback) draw each.
    assert len(want_rng.calls) == c
    for step, (g, w) in enumerate(zip(got_rng.calls, want_rng.calls)):
        assert g == w, f"draw {step} differs"
    assert len(got_rng.calls) == len(want_rng.calls)
    assert all(call[-2] is not None for call in want_rng.calls[1:])  # each draw after the first saw closest
    for step, (g, w) in enumerate(zip(got, want)):
        assert g.tobytes() == w.tobytes(), f"seed {step} differs"
    assert got.tobytes() == want.tobytes()
    return want_rng.calls


def fallbacks(calls: list[tuple]) -> int:
    """Uniform picks after the first: steps whose remaining mass was zero."""
    return sum(call[0] == "integers" for call in calls[1:])


def pick_masses(kind: str, rng: np.random.Generator) -> np.ndarray:
    """Squared distances of a k-means++ step, as ``_kmeanspp_pick`` sees them."""
    n = int(rng.integers(1, 3000))
    if kind == "zeros":
        # Points on a seed: many weights are exactly 0, some runs of them.
        w = rng.random(n) ** 4
        w[rng.random(n) < 0.6] = 0.0
        w[: n // 4] = 0.0
        w[rng.integers(0, n)] = rng.random() + 1e-3
    elif kind == "single":
        w = np.zeros(n)
        w[rng.integers(0, n)] = rng.random() * 10.0 ** rng.integers(-300, 300)
    elif kind == "near-uniform":
        w = 1.0 + rng.normal(0, 1e-12, size=n)
    else:
        # Weights across 600 decades: most of the mass in a few points.
        w = rng.random(n) * 10.0 ** rng.integers(-300, 300, size=n).astype(np.float64)
    return w


class TestKmeansppPick:
    """``_kmeanspp_pick`` draws as ``Generator.choice(n, p=closest / total)``:
    the same pick and the same generator state after it, draw after draw."""

    @pytest.mark.parametrize("kind", ["zeros", "single", "near-uniform", "wide"])
    def test_equals_choice(self, kind):
        for seed in range(250):
            closest = pick_masses(kind, np.random.default_rng([seed, 1]))
            got_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            want_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            for _ in range(5):
                got = codebook_module._kmeanspp_pick(closest, got_rng)
                want = int(want_rng.choice(closest.size, p=closest / closest.sum()))
                assert got == want and closest[got] > 0, f"seed {seed}"
                assert got_rng.bit_generator.state == want_rng.bit_generator.state, f"seed {seed}"

    def test_no_mass_falls_back_to_integers(self):
        for n in (1, 2, 7, 1000):
            got_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(n)))
            want_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(n)))
            for _ in range(5):
                assert codebook_module._kmeanspp_pick(np.zeros(n), got_rng) == int(want_rng.integers(0, n))
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestSeedingOracle:
    @pytest.mark.parametrize("d", [1, 8, 9, 64, 128, 129])
    def test_gaussian_blobs(self, d):
        points = blobs(np.random.default_rng(d), 600, d, 12, 0.1)
        assert fallbacks(assert_seeding_matches_oracle(points, 48, seed=d)) == 0

    @pytest.mark.parametrize("d", [1, 8, 129])
    def test_duplicated_points_with_c_equal_to_distinct_count(self, d):
        rng = np.random.default_rng(20 + d)
        distinct = blobs(rng, 30, d, 5, 0.2)
        points = distinct[rng.permutation(np.repeat(np.arange(30), rng.integers(1, 9, size=30)))]
        assert np.unique(points, axis=0).shape[0] == 30
        assert_seeding_matches_oracle(points, 30, seed=d)

    @pytest.mark.parametrize("d", [1, 2, 8, 9])
    def test_integer_grid(self, d):
        # Small integers: distances are exact, so ties and seeds at exactly
        # twice a point's distance from its owner are common.  Past the
        # distinct count (5 values at D=1) the uniform fallback runs.
        points = np.random.default_rng(30 + d).integers(-2, 3, size=(400, d)).astype(np.float64)
        distinct = np.unique(points, axis=0).shape[0]
        assert_seeding_matches_oracle(points, min(distinct, 40), seed=d)
        calls = assert_seeding_matches_oracle(points, distinct + 3, seed=d)
        assert fallbacks(calls) > 0

    def test_boundary_seed_at_twice_the_distance(self):
        # The point at 1 has closest 1 to a seed at 0; a seed at 2 lies at
        # exactly 2 sqrt(closest), inside the reach, and ties the point's
        # distance, which must keep its value.
        points = np.array([[0.0], [1.0], [2.0], [5.0]])
        for seed in range(20):
            assert_seeding_matches_oracle(points, 4, seed=seed)

    def test_rounding_margin_at_the_midpoint(self):
        # x is the midpoint of a and b = 2x - a, so |a - b| = 2|x - a| and
        # |x - b| = |x - a| exactly, yet the computed |x - b|^2 is one ulp
        # below the computed |x - a|^2 while the computed |a - b| reaches
        # twice the computed |x - a|: without the margin delta, x would be
        # skipped and keep the larger value.  y, near a, shares the last
        # draw with x, so the value x keeps shows in that draw's p.
        a = [1.3664634705496859, -0.6651946734866135]
        x = [0.3515100700930197, 0.9034701816518086]
        b = [-0.6634433303636464, 2.4721350367902306]
        y = [1.4664634705496859, -0.5651946734866135]
        points = np.array([a, x, b, y])
        for seed in range(40):
            assert_seeding_matches_oracle(points, 3, seed=seed)

    def test_absolute_term_when_squares_underflow(self):
        # In units of w = 2^-537 (w^2 the smallest subnormal): x - a =
        # (32, 0.7), whose 0.7^2 = 0.49 underflows to 0, so closest is
        # 1024; b - a = (63.99, 1.4), whose 1.4^2 = 1.96 rounds up to 2,
        # so the computed |a - b| = sqrt(4097) passes 2(1 + delta) * 32;
        # yet x - b = (-31.99, -0.7) gives 1023.36 -> 1023 < 1024.  Only
        # the absolute term t keeps x a candidate.
        w = 2.0 ** -537
        a, x, b, y = [0.0, 0.0], [32 * w, 0.7 * w], [63.99 * w, 1.4 * w], [8 * w, 0.0]
        points = np.array([a, x, b, y])
        for seed in range(40):
            assert_seeding_matches_oracle(points, 3, seed=seed)

    @pytest.mark.parametrize("d", [1, 8, 64, 129])
    def test_subnormal_scale(self, d):
        # Squares near 1e-320 are subnormal; points of one blob differ by
        # ~1e-163, whose squares underflow to zero, so the mass runs out
        # and the uniform fallback runs.
        points = blobs(np.random.default_rng(40 + d), 500, d, 6, 1e-3) * 1e-160
        calls = assert_seeding_matches_oracle(points, 40, seed=d)
        assert fallbacks(calls) > 0

    @pytest.mark.parametrize("d", [1, 9, 128])
    def test_large_scale(self, d):
        points = blobs(np.random.default_rng(50 + d), 500, d, 10, 0.05) * 1e18
        assert_seeding_matches_oracle(points, 40, seed=d)

    @pytest.mark.parametrize("d", [1, 8, 64])
    def test_far_from_the_origin(self, d):
        # |a|^2 + |b|^2 - 2 a.b cancels: near 1e8 its rounding error (~1e3
        # at D=8) dwarfs the squared separations (~1e-2 to 10), so only the
        # subtracted bound keeps the separations from overshooting.
        points = blobs(np.random.default_rng(60 + d), 500, d, 10, 0.05) + 1e8
        assert_seeding_matches_oracle(points, 40, seed=d)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 3, 8, 9, 64, 129]),
        n=st.integers(1, 300),
        c=st.integers(1, 40),
        kind=st.sampled_from(["blobs", "grid", "gaussian"]),
        scale=st.sampled_from([1.0, 1e-160, 1e18]),
        cells=st.sampled_from([1, 7, 64, codebook_module._CHUNK_CELLS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle(self, d, n, c, kind, scale, cells, seed):
        rng = np.random.default_rng(seed)
        if kind == "blobs":
            points = blobs(rng, n, d, 7, 0.05)
        elif kind == "grid":
            points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        else:
            points = rng.normal(0, 1, size=(n, d))
        # Small chunks put row-chunk boundaries inside every distance pass.
        with mock.patch.object(codebook_module, "_CHUNK_CELLS", cells):
            assert_seeding_matches_oracle(points * scale, c, seed=seed)


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


class TestNearest:
    @settings(max_examples=200, deadline=None)
    @given(
        d=st.sampled_from([1, 8, 64, 65, 128]),
        c=st.integers(1, 12),
        m=st.integers(0, 40),
        grid=st.booleans(),
        offset=st.sampled_from([0.0, 1e6]),
        cells=st.sampled_from([1, 7, 64, codebook_module._CHUNK_CELLS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_cdist_oracle(self, d, c, m, grid, offset, cells, seed):
        rng = np.random.default_rng(seed)
        if grid:
            # Small integers: every distance is exact, so equal ones are exact ties.
            refs = rng.integers(-2, 3, size=(c, d)).astype(np.float64)
            points = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
        else:
            refs = rng.normal(0, 1, size=(c, d))
            points = rng.normal(0, 1, size=(m, d))
        refs[-1] = refs[0]  # a duplicated reference (a tie for every row)
        points[::3] = refs[rng.integers(0, c, size=points[::3].shape[0])]
        if m > 1:
            points[-1] = points[0]
        # The common offset stresses the cancellation in |r|^2 - 2 x.r.
        refs += offset
        points += offset
        with mock.patch.multiple(codebook_module, _CHUNK_CELLS=cells, _MIN_ROWS=1):
            labels, d2 = _nearest(points, refs)
        want_labels, want_d2 = cdist_nearest(points, refs)
        assert labels.dtype == np.int64 and labels.shape == (m,)
        np.testing.assert_array_equal(labels, want_labels)
        assert d2.dtype == np.float64 and d2.tobytes() == want_d2.tobytes()

    def test_rows_cross_a_chunk_boundary(self):
        rng = np.random.default_rng(15)
        refs = rng.normal(0, 1, size=(1024, 8))
        points = rng.normal(0, 1, size=(300, 8))  # 64 rows per chunk
        points[63:66] = refs[[5, 6, 5]]
        labels, d2 = _nearest(points, refs)
        want_labels, want_d2 = cdist_nearest(points, refs)
        np.testing.assert_array_equal(labels, want_labels)
        assert d2.tobytes() == want_d2.tobytes()

    def test_only_uncertified_rows_fall_back_to_cdist(self):
        refs = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 5.0]])
        points = np.array(
            [
                [1.0, 0.0],  # an exact tie between words 0 and 1
                [0.1, 4.0],  # clearly word 2
                [1.0 - 1e-15, 0.0],  # word 0 by a gap inside the rounding bound
            ]
        )
        seen = []
        sqdist = codebook_module._sequential_sqdist

        def spy(x, r):
            seen.append(x.copy())
            return sqdist(x, r)

        with mock.patch.object(codebook_module, "_sequential_sqdist", spy):
            labels, d2 = _nearest(points, refs)
        assert labels.tolist() == [0, 2, 0]
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], points[[0, 2]])
        assert d2.tobytes() == cdist_nearest(points, refs)[1].tobytes()


    @settings(max_examples=300, deadline=None)
    @given(
        d=st.sampled_from([1, 8, 64, 65, 128]),
        c=st.integers(1, 12),
        m=st.integers(0, 40),
        grid=st.booleans(),
        scale=st.sampled_from([1.0, 1e30, 1e-40]),
        offset=st.sampled_from([0.0, 1e6]),
        outlier=st.booleans(),
        cells=st.sampled_from([1, 7, 64, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float32_matches_cdist_oracle(self, d, c, m, grid, scale, offset, outlier, cells, seed):
        rng = np.random.default_rng(seed)
        if grid:
            # Small integers: every distance is exact, so equal ones are exact ties.
            refs = rng.integers(-2, 3, size=(c, d)).astype(np.float64)
            points = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
        else:
            refs = rng.normal(0, 1, size=(c, d))
            points = rng.normal(0, 1, size=(m, d))
        refs[-1] = refs[0]  # a duplicated reference (a tie for every row)
        points[::3] = refs[rng.integers(0, c, size=points[::3].shape[0])]
        if m > 1:
            points[-1] = points[0]
        # 1e30 puts (|x| + max|r|)^2 above the float32 guard, 1e-40 makes
        # every component subnormal; the offset leaves float32 no digits
        # for the gaps.
        refs = (refs * scale + offset).astype(np.float32)
        points = (points * scale + offset).astype(np.float32)
        if outlier and m and scale == 1.0:
            # One row outside the guard, whose float32 products would overflow.
            points[m // 2] = np.float32(3e38)
        stages = []
        rank = codebook_module._rank

        def spy(xl, lifted, bound):
            best, unsure = rank(xl, lifted, bound)
            stages.append((lifted.dtype, xl.shape[0], unsure.size))
            return best, unsure

        patches = {"_rank": spy, "_MIN_ROWS": 1}
        if cells is not None:
            patches.update(_CHUNK_CELLS=cells, _F32_CHUNK_BYTES=4 * cells)
        with mock.patch.multiple(codebook_module, **patches):
            labels, d2 = _nearest(points, refs)
        want_labels, want_d2 = cdist_nearest(points.astype(np.float64), refs.astype(np.float64))
        assert labels.dtype == np.int64 and labels.shape == (m,)
        np.testing.assert_array_equal(labels, want_labels)
        assert d2.dtype == np.float64 and d2.tobytes() == want_d2.tobytes()
        certified32 = sum(n - k for dtype, n, k in stages if dtype == np.float32)
        if offset and scale == 1.0 and c > 1:
            assert certified32 == 0  # every row falls through to float64
        if not 2.0**-60 <= (refs.astype(np.float64) ** 2).sum(axis=1).max() <= 2.0**100:
            assert certified32 == 0  # outside the float32 guard

    def test_float32_cascade_sends_only_uncertified_rows_on(self):
        refs = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 5.0]], dtype=np.float32)
        points = np.array(
            [
                [0.1, 4.0],  # clearly word 2: certified in float32
                [1.0 - 4 * 2.0**-24, 0.0],  # word 0 by 2^-20: only float64 certifies it
                [1.0, 0.0],  # an exact tie between words 0 and 1: cdist
            ],
            dtype=np.float32,
        )
        ranked, seen = [], []
        rank = codebook_module._rank
        sqdist = codebook_module._sequential_sqdist

        def rank_spy(xl, lifted, bound):
            ranked.append((lifted.dtype, xl[:, :-1].copy()))
            return rank(xl, lifted, bound)

        def sqdist_spy(x, r):
            seen.append(x.copy())
            return sqdist(x, r)

        with mock.patch.multiple(codebook_module, _rank=rank_spy, _sequential_sqdist=sqdist_spy):
            labels, d2 = _nearest(points, refs)
        assert labels.tolist() == [2, 0, 0]
        assert [dtype for dtype, _ in ranked] == [np.float32, np.float64]
        np.testing.assert_array_equal(ranked[0][1], points)
        np.testing.assert_array_equal(ranked[1][1], points[[1, 2]])
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], points[[2]])
        want_labels, want_d2 = cdist_nearest(points.astype(np.float64), refs.astype(np.float64))
        assert d2.tobytes() == want_d2.tobytes()

    def test_float64_refs_skip_the_float32_product(self):
        rng = np.random.default_rng(17)
        refs = rng.normal(0, 1, size=(20, 8))
        points = rng.normal(0, 1, size=(30, 8)).astype(np.float32)
        dtypes = []
        rank = codebook_module._rank

        def spy(xl, lifted, bound):
            dtypes.append(lifted.dtype)
            return rank(xl, lifted, bound)

        with mock.patch.object(codebook_module, "_rank", spy):
            labels, d2 = _nearest(points, refs)
        assert dtypes == [np.float64]
        want_labels, want_d2 = cdist_nearest(points.astype(np.float64), refs)
        np.testing.assert_array_equal(labels, want_labels)
        assert d2.tobytes() == want_d2.tobytes()

    def test_many_float64_refs_are_ranked_float32_first(self):
        # From _F32_MIN_REFS float64 references on, as k-means's centroids
        # at C=1024, the float32 rounding ranks first; below, float64 alone.
        rng = np.random.default_rng(22)
        limit = codebook_module._F32_MIN_REFS
        points = rng.normal(0, 1, size=(30, 8)).astype(np.float32)
        rank = codebook_module._rank
        for c, first in ((limit - 1, np.float64), (limit, np.float32)):
            refs = rng.normal(0, 1, size=(c, 8))
            dtypes = []

            def spy(xl, lifted, bound):
                dtypes.append(lifted.dtype)
                return rank(xl, lifted, bound)

            with mock.patch.object(codebook_module, "_rank", spy):
                labels, d2 = _nearest(points, refs)
            assert dtypes[0] == first
            want_labels, want_d2 = cdist_nearest(points.astype(np.float64), refs)
            np.testing.assert_array_equal(labels, want_labels)
            assert d2.tobytes() == want_d2.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 8, 64, 65]),
        c=st.integers(2, 40),
        m=st.integers(1, 60),
        scale=st.sampled_from([1.0, 1e-30, 1e25]),
        gap=st.sampled_from([0.0, 2.0**-30, 2.0**-26, 2.0**-24, 2.0**-22]),
        cells=st.sampled_from([1, 7, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float64_refs_ranked_float32_first(self, d, c, m, scale, gap, cells, seed):
        # Training's case: float32 rows against float64 references.  Pairs
        # of references a relative ``gap`` apart round to one float32 row
        # or swap their order when rounded, and rows on a pair's midpoint
        # or on a reference make near-ties that float32 cannot resolve.
        rng = np.random.default_rng(seed)
        refs = rng.normal(0, 1, size=(c, d))
        k = c // 2
        first, second = refs[0:2 * k:2], refs[1:2 * k:2]
        second[...] = first * (1.0 + gap * rng.normal(0, 1, size=first.shape))
        points = rng.normal(0, 1, size=(m, d))
        points[::3] = ((first + second) / 2)[rng.integers(0, k, size=points[::3].shape[0])]
        points[1::4] = refs[rng.integers(0, c, size=points[1::4].shape[0])]
        refs *= scale
        points = (points * scale).astype(np.float32)
        stages = []
        rank = codebook_module._rank

        def spy(xl, lifted, bound):
            best, unsure = rank(xl, lifted, bound)
            stages.append((lifted.dtype, xl.shape[0], unsure.size))
            return best, unsure

        patches = {"_rank": spy, "_MIN_ROWS": 1, "_F32_MIN_REFS": 1}
        if cells is not None:
            patches.update(_CHUNK_CELLS=cells, _F32_CHUNK_BYTES=4 * cells)
        with mock.patch.multiple(codebook_module, **patches):
            labels, d2 = _nearest(points, refs)
        want_labels, want_d2 = cdist_nearest(points.astype(np.float64), refs)
        np.testing.assert_array_equal(labels, want_labels)
        assert d2.dtype == np.float64 and d2.tobytes() == want_d2.tobytes()
        if scale == 1.0:
            assert stages[0][0] == np.float32  # within the guard the float32 product runs first

    def test_float32_rounding_that_swaps_two_references(self):
        # b is nearer x than a (|x - b|^2 = 3.5e-15 < 1.7e-14 = |x - a|^2),
        # but with a and b rounded to float32 the product ranks a first: no
        # rounding bound lets that rank stand.
        x = 1.835411548614502
        a, b = 1.8354114185131043, 1.83541160735471
        refs = np.array([[a], [b], [-5.0]])
        points = np.array([[x], [-4.9]], dtype=np.float32)
        stages = []
        rank = codebook_module._rank

        def spy(xl, lifted, bound):
            best, unsure = rank(xl, lifted, bound)
            stages.append((lifted.dtype, best.tolist(), unsure.tolist()))
            return best, unsure

        with mock.patch.multiple(codebook_module, _rank=spy, _F32_MIN_REFS=1):
            labels, d2 = _nearest(points, refs)
        assert stages[0] == (np.float32, [0, 2], [0])  # a ranked first, and not certified
        assert labels.tolist() == [1, 2]
        want_labels, want_d2 = cdist_nearest(points.astype(np.float64), refs)
        assert want_labels.tolist() == [1, 2] and d2.tobytes() == want_d2.tobytes()

    def test_chunk_rows_stay_within_the_cell_budget(self):
        # C < D: a chunk of C-sized rows would hold far more than
        # _CHUNK_CELLS cells of [x, 1] rows (4096 rows at C=16, D=128).
        rng = np.random.default_rng(21)
        points = rng.normal(0, 1, size=(3600, 128)).astype(np.float32)
        refs = rng.normal(0, 1, size=(16, 128))
        tracemalloc.start()
        try:
            labels, d2 = _nearest(points, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Outputs, the [x, 1] and winners' buffers and the product of one chunk.
        assert peak < 6 * codebook_module._CHUNK_CELLS * 8
        want_labels, want_d2 = cdist_nearest(points.astype(np.float64), refs)
        np.testing.assert_array_equal(labels, want_labels)
        assert d2.tobytes() == want_d2.tobytes()

    def test_quantize_prepares_each_codebook_once(self):
        rng = np.random.default_rng(18)
        cb, other = make_codebook(rng, 16, 8), make_codebook(rng, 16, 8)
        vectors = rng.normal(0, 1, size=(40, 8)).astype(np.float32)
        made = []

        class CountingRefs(codebook_module._Refs):
            def __init__(self, refs):
                made.append(refs)
                super().__init__(refs)

        with mock.patch.object(codebook_module, "_Refs", CountingRefs):
            first = quantize_batch(cb, vectors)
            assert len(made) == 1 and made[0] is cb.centroids
            for _ in range(3):
                np.testing.assert_array_equal(quantize_batch(cb, vectors), first)
            partition(cb, make_features(rng, 10, 8))
            assert len(made) == 1
            quantize_batch(other, vectors)
            assert len(made) == 2 and made[1] is other.centroids

    def test_codebook_fields_cannot_be_reassigned(self):
        cb = make_codebook(np.random.default_rng(19), 4, 8)
        quantize_batch(cb, np.zeros((1, 8), dtype=np.float32))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cb.centroids = np.zeros((4, 8), dtype=np.float32)


def stacked(segments: list[np.ndarray], width: int) -> codebook_module._Refs:
    """The segments, each padded with zero rows to ``width``, as one ``_Refs``."""
    stack = np.zeros((len(segments), width, segments[0].shape[1]), dtype=segments[0].dtype)
    for k, rows in enumerate(segments):
        stack[k, : len(rows)] = rows
    counts = np.array([len(rows) for rows in segments])
    return codebook_module._Refs(stack.reshape(-1, stack.shape[2]), counts)


class TestSegments:
    """A ``_Refs`` of S segments (descriptor matching's stacked
    candidates): each segment's labels and distances are those of one
    ``_nearest`` on its real rows alone and of the ``cdist`` oracle."""

    @settings(max_examples=120, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 8, 65]),
        counts=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        pads=st.integers(0, 30),
        m=st.integers(1, 30),
        grid=st.booleans(),
        scale=st.sampled_from([1.0, 1e25, 1e-30]),
        dtype=st.sampled_from([np.float32, np.float64]),
        special=st.booleans(),
        cells=st.sampled_from([1, 7, 64, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_segments_equal_nearest_alone_and_cdist(
        self, d, counts, pads, m, grid, scale, dtype, special, cells, seed
    ):
        rng = np.random.default_rng(seed)
        segments = []
        for count in counts:
            # Small integers make exact ties; a repeated row ties for every point.
            rows = rng.integers(-2, 3, size=(count, d)) if grid else rng.normal(0, 1, size=(count, d))
            rows[-1] = rows[0]
            segments.append((rows * scale).astype(dtype))
        points = rng.integers(-2, 3, size=(m, d)) if grid else rng.normal(0, 1, size=(m, d))
        points = (points * scale).astype(np.float32)
        pool = np.concatenate(segments)
        points[::3] = pool[rng.integers(0, len(pool), size=points[::3].shape[0])]
        if scale == 1.0:
            points[m // 2] = np.float32(3e38)  # outside the float32 guard
        if special:
            points[rng.integers(0, m, size=2)] = [[np.nan], [np.inf]]
            points[rng.integers(0, m), 0] = -np.inf
        refs = stacked(segments, max(counts) + pads)  # pads make short segments mostly padding
        patches = {"_MIN_ROWS": 1}
        if cells is not None:
            patches.update(_CHUNK_CELLS=cells, _F32_CHUNK_BYTES=4 * cells)
        # The products of a non-finite row signal invalid values (inf * 0);
        # its labels and distances are still the exact stage's.
        with mock.patch.multiple(codebook_module, **patches), np.errstate(invalid="ignore"):
            labels, d2 = _nearest(points, refs)
            alone = [_nearest(points, rows) for rows in segments]
        assert labels.dtype == np.int64 and labels.shape == (m, len(counts))
        assert d2.dtype == np.float64 and d2.shape == (m, len(counts))
        for k, rows in enumerate(segments):
            want_labels, want_d2 = cdist_nearest(points.astype(np.float64), rows.astype(np.float64))
            np.testing.assert_array_equal(labels[:, k], want_labels)
            np.testing.assert_array_equal(alone[k][0], want_labels)
            assert d2[:, k].tobytes() == want_d2.tobytes() == alone[k][1].tobytes()

    def test_float64_settles_a_stacked_pair_and_only_a_tie_is_exact(self):
        # Segment 0 is the three words of test_float32_cascade_sends_only_uncertified_rows_on;
        # segment 1 holds two of them and a pad.
        first = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 5.0]], dtype=np.float32)
        second = np.array([[0.0, 5.0], [2.0, 0.0]], dtype=np.float32)
        points = np.array(
            [
                [0.1, 4.0],  # certified in float32 in both segments
                [1.0 - 4 * 2.0**-24, 0.0],  # word 0 of segment 0 by 2^-20: only float64 certifies it
                [1.0, 0.0],  # an exact tie between words 0 and 1 of segment 0 alone
            ],
            dtype=np.float32,
        )
        ranked, seen = [], []
        rank = codebook_module._rank
        sqdist = codebook_module._sequential_sqdist

        def rank_spy(xl, lifted, bound):
            best, unsure = rank(xl, lifted, bound)
            ranked.append((lifted.dtype, xl[:, :-1].copy(), unsure.tolist()))
            return best, unsure

        def sqdist_spy(x, r):
            seen.append((x.copy(), r.copy()))
            return sqdist(x, r)

        with mock.patch.multiple(codebook_module, _rank=rank_spy, _sequential_sqdist=sqdist_spy):
            labels, d2 = _nearest(points, stacked([first, second], 3))
        assert labels.tolist() == [[2, 0], [0, 1], [0, 1]]
        # Pairs are numbered row * 2 + segment.
        assert [(dtype, unsure) for dtype, _, unsure in ranked] == [(np.float32, [2, 4]), (np.float64, [2])]
        np.testing.assert_array_equal(ranked[0][1], points)
        np.testing.assert_array_equal(ranked[1][1], points[[1, 2]])
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0][0], points[[2]])
        np.testing.assert_array_equal(seen[0][1], first)
        for k, rows in enumerate((first, second)):
            want_labels, want_d2 = cdist_nearest(points.astype(np.float64), rows.astype(np.float64))
            np.testing.assert_array_equal(labels[:, k], want_labels)
            assert d2[:, k].tobytes() == want_d2.tobytes()


class TestSequentialSqdist:
    """The exact stage of ``_nearest`` against scipy's ``cdist``, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 8, 63, 64, 65, 128]),
        c=st.integers(1, 12),
        m=st.integers(0, 12),
        grid=st.booleans(),
        exponent=st.sampled_from([-540, -520, -30, 0, 30, 60]),
        spread=st.booleans(),
        cells=st.sampled_from([1, 7, codebook_module._CHUNK_CELLS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_cdist_bytes(self, d, c, m, grid, exponent, spread, cells, seed):
        rng = np.random.default_rng(seed)
        if grid:
            # Small integers: every distance is exact, so equal ones are exact ties.
            refs = rng.integers(-2, 3, size=(c, d)).astype(np.float64)
            points = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
        else:
            refs = rng.normal(0, 1, size=(c, d))
            points = rng.normal(0, 1, size=(m, d))
        refs[-1] = refs[0]  # a duplicated reference (a tie for every row)
        points[::3] = refs[rng.integers(0, c, size=points[::3].shape[0])]
        # Powers of two scale exactly, so ties stay ties.  At 2^-540 the
        # squares underflow; a spread of exponents across the dimensions
        # makes the result depend on the order of the additions.
        lo = exponent - 40 if spread else exponent
        scale = 2.0 ** rng.integers(lo, exponent + 1, size=d).astype(np.float64)
        refs *= scale
        points *= scale
        with mock.patch.object(codebook_module, "_CHUNK_CELLS", cells):
            got = _sequential_sqdist(points, refs)
        want = cdist(points, refs, metric="sqeuclidean")
        assert got.dtype == np.float64 and got.shape == (m, c)
        assert got.tobytes() == want.tobytes()
        for row in got:
            assert np.argmin(row) == np.flatnonzero(row == row.min())[0]

    def test_ieee_specials_pass_silently(self):
        big = 1e200  # its square overflows
        refs = np.array([[0.0, 1.0], [np.inf, 0.0], [big, -big]])
        points = np.array([[np.inf, 1.0], [np.nan, 0.0], [-big, big], [1.0, 2.0]])
        got = _sequential_sqdist(points, refs)  # RuntimeWarnings are errors here
        np.testing.assert_array_equal(got, cdist(points, refs, metric="sqeuclidean"))

    def test_blocks_bound_the_memory(self):
        # One row against a large codebook: no (C, D) temporary at once.
        rng = np.random.default_rng(20)
        refs = rng.normal(0, 1, size=(1 << 16, 8))
        x = rng.normal(0, 1, size=(1, 8))
        tracemalloc.start()
        try:
            got = _sequential_sqdist(x, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < refs.nbytes // 2
        assert got.tobytes() == cdist(x, refs, metric="sqeuclidean").tobytes()


class TestTrainingOracle:
    @pytest.mark.parametrize("m,c,d,seed", [(400, 8, 6, 42), (3000, 64, 16, 1), (500, 32, 65, 3)])
    def test_equals_cdist_training(self, m, c, d, seed):
        points = np.random.default_rng(seed).normal(0, 1, size=(m, d))
        got = train_codebook(points, c, max_iters=20, seed=seed)
        with mock.patch.object(codebook_module, "_nearest", cdist_nearest):
            want = train_codebook(points, c, max_iters=20, seed=seed)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.history == want.history
        assert got.iterations == want.iterations

    @pytest.mark.parametrize(
        "m,c,d,seed,max_iters,centres",
        [(400, 8, 6, 42, 20, 0), (3000, 64, 16, 1, 20, 0), (500, 32, 65, 3, 20, 0),
         # The benchmark's shape at a smaller scale: clustered float32
         # descriptors, C=256, 5 iterations.
         (4000, 256, 32, 7, 5, 64)],
    )
    def test_equals_unpruned_seeding_training(self, m, c, d, seed, max_iters, centres):
        rng = np.random.default_rng(seed)
        if centres:
            points = blobs(rng, m, d, centres, 0.3).astype(np.float32).astype(np.float64)
        else:
            points = rng.normal(0, 1, size=(m, d))
        got = train_codebook(points, c, max_iters=max_iters, seed=seed)
        with mock.patch.object(codebook_module, "_kmeanspp_init", oracle_kmeanspp_init):
            want = train_codebook(points, c, max_iters=max_iters, seed=seed)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.history == want.history
        assert got.iterations == want.iterations

    @pytest.mark.parametrize("init", ["duplicated", "far"])
    def test_empty_clusters_equal_cdist_training(self, init):
        points = np.random.default_rng(16).normal(0, 1, size=(300, 4))
        empties = []

        def seeded_init(pts, c, rng):
            # A start that leaves words empty, so the reseed reads the distances.
            cents = pts[:c].copy()
            if init == "duplicated":
                cents[3] = cents[1]
                cents[7] = cents[1]
            else:
                cents[2] = 1e3
            return cents

        def counting_oracle(pts, cents):
            labels, d2 = cdist_nearest(pts, cents)
            empties.append(int((np.bincount(labels, minlength=cents.shape[0]) == 0).sum()))
            return labels, d2

        with mock.patch.object(codebook_module, "_kmeanspp_init", seeded_init):
            got = train_codebook(points, 12, max_iters=15, seed=0)
            with mock.patch.object(codebook_module, "_nearest", counting_oracle):
                want = train_codebook(points, 12, max_iters=15, seed=0)
        assert empties[0] > 0
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.history == want.history
        assert got.iterations == want.iterations


def full_copy_train_codebook(descriptors: np.ndarray, c: int, max_iters: int = 50, seed: int = 0) -> Codebook:
    """The training of a float64 copy of the sample: ``np.unique`` for the
    distinct count and one ``np.add.reduceat`` over the whole sorted copy
    per update; the oracle of training in the memory of the sample."""
    points = np.ascontiguousarray(descriptors, dtype=np.float64)
    if points.ndim != 2 or points.size == 0:
        raise TrainingError("training descriptors must be a non-empty (M, D) array")
    if not np.isfinite(points).all():
        raise TrainingError("training descriptors contain non-finite values")
    if np.abs(points).max() > np.finfo(np.float32).max:
        raise TrainingError("training descriptors exceed the float32 range")
    distinct = np.unique(points, axis=0).shape[0]
    if distinct < c:
        raise TrainingError(f"need at least {c} distinct descriptors, found {distinct}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    centroids = codebook_module._kmeanspp_init(points, c, rng)
    history: list[float] = []
    iterations = 0
    for iteration in range(1, max_iters + 1):
        iterations = iteration
        labels, dists = codebook_module._nearest(points, centroids)
        history.append(float(dists.sum()))
        order = np.argsort(labels, kind="stable")
        counts = np.bincount(labels, minlength=c)
        starts = np.zeros(c, dtype=np.int64)
        starts[1:] = np.cumsum(counts)[:-1]
        nonempty = counts > 0
        sums = np.add.reduceat(points[order], starts[nonempty], axis=0)
        new_centroids = centroids.copy()
        new_centroids[nonempty] = sums / counts[nonempty, None]
        if not nonempty.all():
            avail = dists.copy()
            for dead in np.flatnonzero(~nonempty):
                far = int(np.argmax(avail))
                new_centroids[dead] = points[far]
                avail[far] = -np.inf
        centroids = new_centroids
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev <= 0 or (prev - cur) < codebook_module.CONVERGENCE_TOL * prev:
                break
    return Codebook(centroids=centroids.astype(np.float32), iterations=iterations,
                    distortion=history[-1], history=history)


def assert_trains_like_full_copy(points: np.ndarray, c: int, max_iters: int, seed: int) -> Codebook:
    # A read-only view: training must not write to the caller's sample.
    view = points.view()
    view.flags.writeable = False
    got = train_codebook(view, c, max_iters=max_iters, seed=seed)
    want = full_copy_train_codebook(points, c, max_iters=max_iters, seed=seed)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.history == want.history
    assert got.iterations == want.iterations
    return got


def seeded_init(pts: np.ndarray, c: int, rng) -> np.ndarray:
    """A start that leaves words empty: the first c points, with words 3
    and 7 duplicating word 1."""
    cents = pts[:c].astype(np.float64)
    cents[3] = cents[1]
    cents[7] = cents[1]
    return cents


class TestTrainingInPlaceOracle:
    """Training reads the caller's sample without a float64 copy, counts
    distinct rows by hashes and sums clusters in blocks; centroids,
    ``history`` and ``iterations`` equal those of the full-copy training."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m,c,d,seed", [(400, 8, 6, 42), (3000, 64, 16, 1), (500, 32, 65, 3)])
    def test_equals_full_copy_training(self, dtype, m, c, d, seed):
        points = np.random.default_rng(seed).normal(0, 1, size=(m, d)).astype(dtype)
        assert_trains_like_full_copy(points, c, 20, seed)

    def test_non_contiguous_sample(self):
        rng = np.random.default_rng(60)
        for points in (rng.normal(0, 1, size=(800, 24)).astype(np.float32)[:, ::2],
                       rng.normal(0, 1, size=(12, 700)).T, rng.normal(0, 1, size=(1600, 8))[::2]):
            assert not points.flags.c_contiguous
            assert_trains_like_full_copy(points, 16, 10, 3)

    def test_integer_sample(self):
        points = np.random.default_rng(61).integers(-3, 4, size=(900, 5))
        assert_trains_like_full_copy(points, 40, 10, 5)

    def test_search_sp_shape(self):
        points = blobs(np.random.default_rng(62), 9600, 32, 48, 0.5).astype(np.float32)
        assert_trains_like_full_copy(points, 48, 20, 8)

    def test_build_shape(self):
        points = blobs(np.random.default_rng(63), 10_000, 64, 300, 0.3).astype(np.float32)
        assert_trains_like_full_copy(points, 1024, 3, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_clusters(self, dtype):
        points = np.random.default_rng(16).normal(0, 1, size=(300, 4)).astype(dtype)
        with mock.patch.object(codebook_module, "_kmeanspp_init", seeded_init):
            got = assert_trains_like_full_copy(points, 12, 15, 0)
        assert got.iterations > 1

    @pytest.mark.parametrize("cells", [1, 64, 1024])
    def test_clusters_larger_than_a_block(self, cells):
        # One dense cloud holds most rows: with small blocks it, and many
        # others, exceed a block and are widened on their own.
        rng = np.random.default_rng(64)
        points = np.concatenate([rng.normal(0, 1e-3, size=(3000, 8)), rng.normal(0, 5, size=(300, 8))])
        points = points[rng.permutation(points.shape[0])].astype(np.float32)
        with mock.patch.object(codebook_module, "_CHUNK_CELLS", cells):
            assert_trains_like_full_copy(points, 24, 10, 1)

    def test_float32_seeding_equals_float64_seeding(self):
        points = blobs(np.random.default_rng(65), 2000, 32, 20, 0.2).astype(np.float32)
        got_rng, want_rng = RecordingRng(4), RecordingRng(4)
        got = codebook_module._kmeanspp_init(points, 64, got_rng)
        want = oracle_kmeanspp_init(points.astype(np.float64), 64, want_rng)
        assert got_rng.calls == want_rng.calls
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 4000),
        d=st.sampled_from([1, 8, 32, 64, 65, 128]),
        c=st.integers(1, 60),
        skew=st.booleans(),
        exponent=st.integers(-8, 8),
        cells=st.sampled_from([1, 7, 64, 4096, codebook_module._CHUNK_CELLS]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_sums_equal_one_reduceat(self, n, d, c, skew, exponent, cells, dtype, seed):
        rng = np.random.default_rng(seed)
        points = (rng.normal(0, 1, size=(n, d)) * 10.0 ** exponent).astype(dtype)
        # Skewed labels make a few clusters far larger than the rest.
        weights = rng.pareto(0.5, size=c) + 1e-3 if skew else np.ones(c)
        labels = rng.choice(c, size=n, p=weights / weights.sum())
        centroids = rng.normal(0, 1, size=(c, d))
        with mock.patch.object(codebook_module, "_CHUNK_CELLS", cells):
            got, nonempty = codebook_module._cluster_means(points, labels, centroids)
        counts = np.bincount(labels, minlength=c)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        order = np.argsort(labels, kind="stable")
        want = centroids.copy()
        want[counts > 0] = (np.add.reduceat(points.astype(np.float64)[order], starts[counts > 0], axis=0)
                            / counts[counts > 0, None])
        assert nonempty.tolist() == (counts > 0).tolist()
        assert got.tobytes() == want.tobytes()


class TestDistinctCount:
    @staticmethod
    def assert_hash_count(points: np.ndarray) -> None:
        # Equal rows hash alike, so the hash count never exceeds the true
        # count; on these samples no two distinct rows collide.
        assert codebook_module._distinct_hashes(points) == np.unique(points, axis=0).shape[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_rows(self, dtype):
        self.assert_hash_count(np.random.default_rng(70).normal(0, 1, size=(5000, 16)).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_duplicated_rows(self, dtype):
        rng = np.random.default_rng(71)
        distinct = rng.normal(0, 1, size=(300, 7)).astype(dtype)
        self.assert_hash_count(distinct[rng.integers(0, 300, size=2000)])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros_count_as_one(self, dtype):
        points = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [1.0, -0.0]], dtype=dtype)
        assert np.unique(points, axis=0).shape[0] == 3
        self.assert_hash_count(points)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_integer_grid(self, d):
        self.assert_hash_count(np.random.default_rng(72 + d).integers(-3, 4, size=(3000, d)).astype(np.float64))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 9),
        values=st.sampled_from([(0.0, -0.0, 1.0), (0.0, 1.0, 2.0, -1.0), (1e-45, -1e-45, 0.0, 3e38)]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_above_the_true_count(self, n, d, values, dtype, seed):
        points = np.random.default_rng(seed).choice(np.array(values, dtype=dtype), size=(n, d))
        assert codebook_module._distinct_hashes(points) <= np.unique(points, axis=0).shape[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exactly_c_distinct_rows_train_without_unique(self, dtype):
        rng = np.random.default_rng(73)
        distinct = rng.normal(0, 1, size=(20, 4)).astype(dtype)
        points = distinct[rng.integers(0, 20, size=400)]
        points[:20] = distinct  # every row appears
        unique_shapes = []
        unique = np.unique

        def spy(ar, *args, **kwargs):
            unique_shapes.append(np.shape(ar))
            return unique(ar, *args, **kwargs)

        with mock.patch.object(np, "unique", spy):
            cb = train_codebook(points, 20, max_iters=5, seed=0)
        assert cb.size == 20
        assert points.shape not in unique_shapes  # only the codebook's own check ran

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_distinct_row_short_raises_the_count(self, dtype):
        rng = np.random.default_rng(74)
        distinct = rng.normal(0, 1, size=(19, 4)).astype(dtype)
        points = distinct[rng.integers(0, 19, size=400)]
        points[:19] = distinct
        with pytest.raises(TrainingError) as err:
            train_codebook(points, 20)
        assert str(err.value) == "need at least 20 distinct descriptors, found 19"
        with pytest.raises(TrainingError) as want:
            full_copy_train_codebook(points, 20)
        assert str(err.value) == str(want.value)

    def test_signed_zero_rows_fall_short_by_one(self):
        points = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 0.0], [2.0, -0.0], [5.0, 5.0]])
        with pytest.raises(TrainingError, match="need at least 4 distinct descriptors, found 3"):
            train_codebook(points, 4)
        assert train_codebook(points, 3, max_iters=3).size == 3


class TestTrainingMemory:
    def test_sample_is_not_copied(self):
        # A float64 copy, np.unique's copies and a sorted copy per update
        # (full_copy_train_codebook) take about 6x the sample; training reads
        # it in place, beside O(N) vectors and chunk buffers of about
        # _CHUNK_CELLS cells.
        points = blobs(np.random.default_rng(75), 20_000, 32, 64, 0.5).astype(np.float32)
        allowance = 3 * codebook_module._CHUNK_CELLS * 8
        tracemalloc.start()
        try:
            train_codebook(points, 64, max_iters=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < points.nbytes // 2 + allowance


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
