"""Aggregation, selectivity, binarization and kernel similarity.

The oracle ``naive_kernel`` evaluates the aggregated-kernel definition
directly: it re-partitions raw descriptor sets, walks every visual word
of the codebook (not just the populated ones) and applies the
selectivity and normalization from first principles using plain Python
floats, independent of the library's sparse bookkeeping.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ramk.codebook import Codebook, partition
from ramk.errors import ConfigError, DimensionError
from ramk.kernels import (
    ALL_MODES,
    PLAIN_COUNTERPART,
    AggregatedRepresentation,
    SelectivityParams,
    _fold_residuals,
    _selectivity_rows,
    aggregate,
    kernel_similarity,
    is_regional_mode,
    word_match_rows,
)
from ramk.regional import (
    RegionStrategy,
    aggregate_regional,
    as_regional_query,
    region_aggregates,
    regional_similarity,
    select_regions,
)

from conftest import (
    binarize,
    complement_packed,
    gamma_from_entries,
    make_codebook,
    make_features,
    match_sum,
    normalize_residual,
    oracle_gamma,
    oracle_word_match_rows,
    pack_signs,
    packed_inner_scaled,
    random_boxes,
    random_packed_rows,
    selectivity,
    unpack_signs,
    vlad_residual,
)


def rep_of(
    mode: str, dim: int, entries: dict[int, np.ndarray], gamma: float
) -> AggregatedRepresentation:
    """Representation holding ``entries`` as ascending words and rows."""
    words = sorted(entries)
    rows = np.array([entries[w] for w in words]) if words else np.empty((0, dim), np.float32)
    return AggregatedRepresentation(mode, dim, np.array(words, dtype=np.int64), rows, gamma)


def naive_residuals(vectors: np.ndarray, centroids: np.ndarray) -> dict[int, np.ndarray]:
    """Word -> raw residual sum, via an explicit per-descriptor loop."""
    out: dict[int, np.ndarray] = {}
    for v in vectors:
        best, best_d = -1, math.inf
        for i, c in enumerate(centroids):
            d = float(np.sum((v.astype(np.float64) - c.astype(np.float64)) ** 2))
            if d < best_d:
                best, best_d = i, d
        out.setdefault(best, np.zeros(centroids.shape[1]))
        out[best] = out[best] + (v.astype(np.float64) - centroids[best].astype(np.float64))
    return out


def naive_sigma(u: float, alpha: float, tau: float) -> float:
    return math.copysign(abs(u) ** alpha, u) if u > tau else 0.0


def naive_kernel(
    x_vectors: np.ndarray,
    y_vectors: np.ndarray,
    codebook: Codebook,
    mode: str,
    alpha: float = 3.0,
    tau: float = 0.0,
) -> float:
    """Direct evaluation of the match-kernel definition over all words."""
    cents = codebook.centroids
    d = codebook.dim

    def phi(vectors: np.ndarray) -> dict[int, np.ndarray]:
        raw = naive_residuals(vectors, cents)
        out = {}
        for w, r in raw.items():
            r32 = r.astype(np.float32)  # storage precision of the library
            if mode == "vlad":
                if not r32.any():
                    continue
                out[w] = r32.astype(np.float64)
            else:
                n = float(np.linalg.norm(r))
                if n == 0:
                    continue
                unit = (r / n).astype(np.float32).astype(np.float64)
                if mode == "asmk":
                    out[w] = unit
                else:  # asmk-star
                    out[w] = np.where(unit > 0, 1.0, -1.0)
        return out

    def sim(a: np.ndarray, b: np.ndarray) -> float:
        raw = float(np.dot(a, b))
        return raw / d if mode == "asmk-star" else raw

    def apply_sigma(u: float) -> float:
        return u if mode == "vlad" else naive_sigma(u, alpha, tau)

    px, py = phi(x_vectors), phi(y_vectors)

    def gamma(p: dict[int, np.ndarray]) -> float:
        total = sum(apply_sigma(sim(v, v)) for v in p.values())
        return total ** -0.5 if total > 0 else 0.0

    total = 0.0
    for w in range(codebook.size):
        if w in px and w in py:
            total += apply_sigma(sim(px[w], py[w]))
    return gamma(px) * gamma(py) * total


class TestResidualOps:
    def test_vlad_residual_example(self):
        out = vlad_residual(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([2.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 2.0])

    def test_vlad_residual_empty_is_zero(self):
        out = vlad_residual(np.empty((0, 3)), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])

    def test_vlad_residual_descriptor_at_centroid(self):
        c = np.array([1.5, -2.0])
        np.testing.assert_array_equal(vlad_residual(c[None, :], c), [0.0, 0.0])

    def test_normalize_example(self):
        np.testing.assert_allclose(normalize_residual(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_normalize_idempotent_on_unit(self):
        v = np.array([0.6, 0.8])
        np.testing.assert_allclose(normalize_residual(v), v, atol=1e-12)

    def test_normalize_zero_is_absent(self):
        assert normalize_residual(np.zeros(4)) is None


class TestSelectivity:
    def test_examples_exact(self):
        p = SelectivityParams(alpha=3.0, tau=0.0)
        assert selectivity(0.5, p) == 0.125
        assert selectivity(-0.3, p) == 0.0
        assert selectivity(1.0, p) == 1.0
        assert selectivity(0.0, p) == 0.0  # u <= tau

    def test_monotone_above_threshold(self):
        p = SelectivityParams(alpha=3.0, tau=0.1)
        us = np.linspace(0.11, 1.0, 50)
        vals = [selectivity(float(u), p) for u in us]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha,tau", [(3.0, 0.0), (2.0, -0.5), (2.5, 0.25), (1.7, -1.0)])
    def test_rows_bitwise_equal_scalar(self, alpha, tau):
        p = SelectivityParams(alpha=alpha, tau=tau)
        u = np.random.default_rng(12).uniform(-1.5, 1.5, size=5000)
        u[:4] = [tau, 0.0, -0.0, 1.0]
        want = np.array([selectivity(float(x), p) for x in u])
        assert _selectivity_rows(u, p).tobytes() == want.tobytes()

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ConfigError):
            SelectivityParams(alpha=0.5)


class TestBinarize:
    def test_zero_maps_to_minus_one(self):
        np.testing.assert_array_equal(binarize(np.array([0.3, -0.1, 0.0])), [1.0, -1.0, -1.0])

    def test_scale_invariance_and_antisymmetry(self):
        rng = np.random.default_rng(0)
        v = rng.normal(0, 1, size=32)
        v[np.abs(v) < 1e-6] = 0.5  # avoid exact zeros
        np.testing.assert_array_equal(binarize(binarize(v) * 1e-9), binarize(v))
        np.testing.assert_array_equal(binarize(-v), -binarize(v))

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(1)
        for d in (1, 7, 8, 9, 16, 37, 128):
            v = rng.normal(0, 1, size=d)
            packed = pack_signs(v)
            assert packed.size == (d + 7) // 8
            np.testing.assert_array_equal(unpack_signs(packed, d), binarize(v))

    def test_packed_inner_matches_dense(self):
        rng = np.random.default_rng(2)
        for d in (8, 13, 64):
            a, b = rng.normal(0, 1, size=(2, d))
            expected = float(np.dot(binarize(a), binarize(b))) / d
            got = packed_inner_scaled(pack_signs(a), pack_signs(b), d)
            assert got == pytest.approx(expected, abs=0)
            # equivalently 1 - 2 * hamming / d (up to one ulp of reassociation)
            hamming = int((binarize(a) != binarize(b)).sum())
            assert got == pytest.approx(1.0 - 2.0 * hamming / d, abs=1e-15)

    # Row widths of 1, 2, 4, 5, 8 and 16 bytes: uint8, uint16, uint32 and
    # uint64 words, two of them at D=128, and padding bits at D=12 and 33.
    @pytest.mark.parametrize("d", [8, 12, 32, 33, 64, 128])
    def test_packed_match_rows_bitwise_equal_byte_table(self, d):
        rng = np.random.default_rng(d)
        a, b = random_packed_rows(rng, 40, d), random_packed_rows(rng, 40, d)
        a[0], a[1] = b[0], complement_packed(b[1], d)  # Hamming distance 0 and D
        for x, y in [(a, b), (a, b[5]), (a[::3], b[::3]), (a[:0], b[0])]:
            got = word_match_rows("asmk-star", x, y, d)
            want = oracle_word_match_rows("asmk-star", x, y, d)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert word_match_rows("asmk-star", a[:2], b[:2], d).tolist() == [1.0, -1.0]


class TestAggregate:
    def test_asmk_gamma_is_inverse_sqrt_word_count(self):
        rng = np.random.default_rng(3)
        cb = make_codebook(rng, 32, 4)
        f = make_features(rng, 30, 4)
        rep = aggregate(partition(cb, f), cb, "asmk")
        assert rep.gamma == pytest.approx(rep.word_count ** -0.5, abs=1e-6)

    def test_vlad_single_word_example(self):
        cb = Codebook(centroids=np.array([[0.0, 0.0]], dtype=np.float32))
        f = make_features(np.random.default_rng(4), 1, 2)
        f.vectors[0] = [3.0, 4.0]
        rep = aggregate(partition(cb, f), cb, "vlad")
        np.testing.assert_allclose(rep.entries[0], [3.0, 4.0])
        assert rep.gamma == pytest.approx(1 / 5, abs=1e-9)

    def test_self_similarity_is_one_dense_modes(self):
        rng = np.random.default_rng(5)
        cb = make_codebook(rng, 16, 6)
        f = make_features(rng, 40, 6)
        for mode in ("vlad", "asmk"):
            rep = aggregate(partition(cb, f), cb, mode)
            assert kernel_similarity(rep, rep) == pytest.approx(1.0, abs=1e-6)

    def test_empty_image_gamma_zero(self):
        rng = np.random.default_rng(6)
        cb = make_codebook(rng, 8, 4)
        rep = aggregate(partition(cb, make_features(rng, 0, 4)), cb, "asmk")
        assert rep.entries == {}
        assert rep.gamma == 0.0

    def test_zero_residual_word_dropped(self):
        cb = Codebook(centroids=np.array([[1.0, 1.0], [50.0, 50.0]], dtype=np.float32))
        f = make_features(np.random.default_rng(7), 2, 2)
        f.vectors[0] = [0.0, 0.0]
        f.vectors[1] = [2.0, 2.0]  # residuals cancel exactly in word 0
        rep = aggregate(partition(cb, f), cb, "asmk")
        assert 0 not in rep.entries

    def test_fold_adds_a_word_left_to_right(self):
        # Ten rows in one word: 2^53, eight 1.0s, -2^53 in the first column.
        # Left to right each 1.0 is lost in 2^53 and the sum is 0.0; the
        # exact sum, and any order that adds the 1.0s first, give 8.0.
        cb = Codebook(centroids=np.zeros((1, 2), dtype=np.float32))
        f = make_features(np.random.default_rng(8), 10, 2)
        f.vectors[:, 0] = [2.0 ** 53] + [1.0] * 8 + [-(2.0 ** 53)]
        f.vectors[:, 1] = 1.0
        rows = f.vectors.astype(np.float64)
        left_to_right = rows[0]
        for row in rows[1:]:
            left_to_right = left_to_right + row
        assert left_to_right.tolist() == [0.0, 10.0] and math.fsum(rows[:, 0]) == 8.0
        regions = select_regions(f, RegionStrategy.parse("whole"))
        for rep in [aggregate(partition(cb, f), cb, "vlad"), *region_aggregates(f, regions, cb, "vlad")]:
            assert rep.words.tolist() == [0] and rep.rows.tolist() == [left_to_right.tolist()]


    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_fold_keeps_two_images_of_a_block_apart(self, mode):
        # Images 0 and 1 of one block both populate word 3.  Keyed image * C +
        # word, each image sums only its own rows and divides by its own
        # region count (2 and 3): the rows a fold of that image alone stores.
        c, rng = 8, np.random.default_rng(27)
        rows = rng.normal(size=(5, 16))
        words = np.array([3, 1, 3, 3, 3])
        image = np.array([0, 0, 1, 0, 1])
        divisors = np.array([2, 3])[image]
        keys, stored = _fold_residuals(mode, image * c + words, rows, divisors)
        assert keys.tolist() == [1, 3, c + 3]
        for i in (0, 1):
            own_words, own = _fold_residuals(mode, words[image == i], rows[image == i], divisors[image == i])
            assert own_words.tolist() == (keys[keys // c == i] % c).tolist()
            assert own.tobytes() == stored[keys // c == i].tobytes()
        if mode == "r-vlad":
            want = [rows[1] / 2, (rows[0] + rows[3]) / 2, (rows[2] + rows[4]) / 3]
            assert stored.tobytes() == np.array(want).astype(np.float32).tobytes()


class TestKernelSimilarity:
    def test_disjoint_word_sets_zero(self):
        rng = np.random.default_rng(8)
        a = rep_of("asmk", 4, {0: np.array([1, 0, 0, 0], np.float32)}, 1.0)
        b = rep_of("asmk", 4, {1: np.array([1, 0, 0, 0], np.float32)}, 1.0)
        assert kernel_similarity(a, b) == 0.0

    def test_mode_mismatch_rejected(self):
        a = rep_of("asmk", 4, {}, 0.0)
        b = rep_of("vlad", 4, {}, 0.0)
        with pytest.raises(ConfigError):
            kernel_similarity(a, b)

    @pytest.mark.parametrize(
        "similarity,x_mode,y_mode",
        [
            (kernel_similarity, "asmk", "asmk"),
            (regional_similarity, "asmk", "r-asmk"),
            (regional_similarity, "r-asmk", "r-asmk"),
        ],
    )
    def test_dimension_mismatch_is_dimension_error(self, similarity, x_mode, y_mode):
        # The plain and the regional kernel raise the same error class,
        # whether the regional query side is lifted from a plain one or not.
        x = rep_of(x_mode, 4, {0: np.array([1, 0, 0, 0], np.float32)}, 1.0)
        y = rep_of(y_mode, 5, {0: np.array([1, 0, 0, 0, 0], np.float32)}, 1.0)
        with pytest.raises(DimensionError):
            similarity(x, y)

    @pytest.mark.parametrize("mode", ["vlad", "asmk", "asmk-star"])
    def test_matches_naive_oracle(self, mode):
        rng = np.random.default_rng(9)
        for trial in range(15):
            c = int(rng.integers(2, 24))
            d = int(rng.integers(2, 8))
            cb = make_codebook(rng, c, d)
            fx = make_features(rng, int(rng.integers(0, 30)), d)
            fy = make_features(rng, int(rng.integers(0, 30)), d)
            expected = naive_kernel(fx.vectors, fy.vectors, cb, mode)
            rx = aggregate(partition(cb, fx), cb, mode)
            ry = aggregate(partition(cb, fy), cb, mode)
            got = kernel_similarity(rx, ry)
            assert got == pytest.approx(expected, abs=1e-6), (mode, trial)

    def test_vlad_equals_dense_concatenation(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            c, d = 12, 4
            cb = make_codebook(rng, c, d)
            fx = make_features(rng, 25, d)
            fy = make_features(rng, 25, d)
            rx = aggregate(partition(cb, fx), cb, "vlad")
            ry = aggregate(partition(cb, fy), cb, "vlad")
            dense_x, dense_y = np.zeros(c * d), np.zeros(c * d)
            for w, v in rx.entries.items():
                dense_x[w * d : (w + 1) * d] = v.astype(np.float64)
            for w, v in ry.entries.items():
                dense_y[w * d : (w + 1) * d] = v.astype(np.float64)
            expected = float(np.dot(dense_x, dense_y)) * rx.gamma * ry.gamma
            assert kernel_similarity(rx, ry) == pytest.approx(expected, abs=1e-9)

    def test_asmk_word_contributions_bounded(self):
        rng = np.random.default_rng(11)
        cb = make_codebook(rng, 16, 6)
        fx = make_features(rng, 40, 6)
        fy = make_features(rng, 40, 6)
        rx = aggregate(partition(cb, fx), cb, "asmk")
        ry = aggregate(partition(cb, fy), cb, "asmk")
        for w in rx.entries.keys() & ry.entries.keys():
            u = float(np.dot(rx.entries[w].astype(np.float64), ry.entries[w].astype(np.float64)))
            assert -1.0 - 1e-9 <= u <= 1.0 + 1e-9
            assert 0.0 <= selectivity(u) <= 1.0 + 1e-9

    def test_dropping_zero_rows_never_changes_similarity(self):
        # A sparse map with an extra explicitly-zero word must score the same.
        row = np.array([1.0, 2.0], np.float32)
        base = rep_of("vlad", 2, {0: row}, 1.0)
        padded = rep_of("vlad", 2, {0: row, 5: np.zeros(2, np.float32)}, 1.0)
        other = rep_of(
            "vlad", 2, {0: np.array([2.0, 1.0], np.float32), 5: np.array([3.0, 3.0], np.float32)}, 1.0
        )
        assert kernel_similarity(base, other) == kernel_similarity(padded, other)

    def test_gamma_from_entries_binary_counts_words(self):
        entries = {1: pack_signs(np.array([1.0, -1.0, 1.0, 1.0])), 7: pack_signs(np.ones(4))}
        assert gamma_from_entries("asmk-star", entries, 4, SelectivityParams()) == pytest.approx(2 ** -0.5)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize(
        "params",
        [
            SelectivityParams(),
            SelectivityParams(alpha=2.0, tau=0.0),
            SelectivityParams(alpha=2.5, tau=-0.3),
            SelectivityParams(alpha=1.7, tau=0.35),
            SelectivityParams(alpha=3.0, tau=1.0),
        ],
        ids=["default", "square", "negative-tau", "fractional-alpha", "unit-tau"],
    )
    def test_gamma_bitwise_equals_per_word_loop(self, mode, params):
        rng = np.random.default_rng(11)
        cb = make_codebook(rng, 24, 8)
        strategy = RegionStrategy.parse("detector:0.1")
        reps = []
        for m in (0, 1, 60, 200):
            f = make_features(rng, m, 8, boxes=random_boxes(rng, 4, 64, 48))
            if is_regional_mode(mode):
                reps.append(aggregate_regional(f, select_regions(f, strategy), cb, mode, params))
                plain = aggregate(partition(cb, f), cb, PLAIN_COUNTERPART[mode], params)
                reps.append(as_regional_query(plain, mode, params))
            else:
                reps.append(aggregate(partition(cb, f), cb, mode, params))
        assert reps[0].entries == {} and reps[0].gamma == 0.0
        for rep in reps:
            want = oracle_gamma(mode, rep.entries, params)
            assert np.float64(rep.gamma).tobytes() == np.float64(want).tobytes()
        # Rows of any norm, so the self-matches spread over the selectivity's
        # range, in dicts whose keys are not in ascending order.
        entry_maps = [dict(sorted(rep.entries.items(), reverse=True)) for rep in reps]
        for k in (1, 1, 2, 3, 5, 8, 24) * 4:
            words = rng.choice(cb.size, size=k, replace=False).tolist()
            rows = rng.normal(0, 1, size=(k, 8)) * rng.uniform(0.05, 1.5, size=(k, 1))
            if mode in ("asmk-star", "r-asmk-star"):
                stored = np.packbits(rows > 0, axis=1, bitorder="little")
            else:
                stored = rows.astype(np.float32)
            entry_maps.append(dict(zip(words, stored)))
        for entries in entry_maps:
            got = gamma_from_entries(mode, entries, 8, params)
            want = oracle_gamma(mode, entries, params)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # Every kernel of every pair equals the per-word running sum, over
        # the aggregates and one round of the random maps.
        pool = reps + [
            rep_of(mode, 8, entries, oracle_gamma(mode, entries, params))
            for entries in entry_maps[len(reps) : len(reps) + 7]
        ]
        gammas = [oracle_gamma(mode, rep.entries, params) for rep in pool]
        for x, gx in zip(pool, gammas):
            for y, gy in zip(pool, gammas):
                total = match_sum(mode, x.entries, y.entries, 8, params)
                want = np.float64(gx * gy * total).tobytes()
                assert np.float64(kernel_similarity(x, y, params)).tobytes() == want
                if is_regional_mode(mode):
                    got = regional_similarity(x, y, params)
                    raw = regional_similarity(x, y, params, normalize=False)
                    assert np.float64(got).tobytes() == want
                    assert np.float64(raw).tobytes() == np.float64(total).tobytes()
