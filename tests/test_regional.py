"""Region selection and regional aggregated kernels.

The central oracle evaluates average pooling literally: the query's
plain kernel against each stored region separately, averaged over the
region count.  The regional aggregate must reproduce it exactly for the
vlad family (that identity is what makes single-descriptor-per-image
storage possible), and the degenerate single-region case must collapse
to the plain kernels.

``oracle_entries`` rebuilds stored entries one word at a time from the
residual primitives; the vectorized fold must match it bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from ramk.codebook import Codebook, WordPartition, partition
from ramk.errors import ConfigError
from ramk.features_io import RegionBox
from ramk.kernels import (
    ALL_MODES,
    DEFAULT_SELECTIVITY,
    PLAIN_COUNTERPART,
    aggregate,
    is_regional_mode,
    kernel_similarity,
)
from ramk.regional import (
    RegionSet,
    RegionStrategy,
    aggregate_regional,
    as_regional_query,
    assign_to_region,
    region_aggregates,
    region_descriptor_indices,
    regional_similarity,
    rmac_grid,
    select_regions,
)

from conftest import (
    make_codebook,
    make_features,
    normalize_residual,
    oracle_gamma,
    pack_signs,
    random_boxes,
    unpack_signs,
    vlad_residual,
)


def avg_pooled_similarity(query_repr, features, regions, codebook, mode) -> float:
    """Literal average pooling: plain kernel against every region, / R."""
    part = partition(codebook, features)
    total = 0.0
    for r in range(regions.count):
        idx = region_descriptor_indices(features, regions, r)
        region_repr = aggregate(WordPartition(part.labels[idx], part.vectors[idx]), codebook, mode)
        total += kernel_similarity(query_repr, region_repr)
    return total / regions.count


def store_oracle(mode: str, v: np.ndarray) -> np.ndarray | None:
    """Stored entry of one word's float64 residual, or None if dropped."""
    if mode in ("vlad", "r-vlad", "naive-r-asmk"):
        stored = v.astype(np.float32)
        return stored if stored.any() else None
    unit = normalize_residual(v)
    if unit is None:
        return None
    return pack_signs(unit) if mode in ("asmk-star", "r-asmk-star") else unit.astype(np.float32)


def oracle_entries(features, regions, codebook, mode) -> list[dict[int, np.ndarray]]:
    """Per-word entries of every region (plain mode) or of the regional
    fold (regional mode), one word at a time."""
    labels = partition(codebook, features).labels
    cents = codebook.centroids.astype(np.float64)
    base = "asmk" if mode == "r-asmk-star" else PLAIN_COUNTERPART.get(mode, mode)
    per_region = []
    for r in range(regions.count):
        idx = region_descriptor_indices(features, regions, r)
        entries = {}
        for w in sorted(set(labels[idx].tolist())):
            members = idx[labels[idx] == w]
            stored = store_oracle(base, vlad_residual(features.vectors[members], cents[w]))
            if stored is not None:
                entries[w] = stored
        per_region.append(entries)
    if not is_regional_mode(mode):
        return per_region
    acc: dict[int, np.ndarray] = {}
    for entries in per_region:
        gamma = oracle_gamma(base, entries, DEFAULT_SELECTIVITY)
        if gamma == 0.0:
            continue
        for w, vec in entries.items():
            contrib = gamma * vec.astype(np.float64)
            acc[w] = acc[w] + contrib if w in acc else contrib
    folded = {w: store_oracle(mode, acc[w] / regions.count) for w in sorted(acc)}
    return [{w: v for w, v in folded.items() if v is not None}]


def assert_entries_bitwise(got: dict[int, np.ndarray], expected: dict[int, np.ndarray]) -> None:
    assert list(got) == list(expected)
    for w, v in expected.items():
        assert got[w].dtype == v.dtype and got[w].tobytes() == v.tobytes(), w


def random_regions(rng, features, n_extra: int) -> RegionSet:
    regions = select_regions(features, RegionStrategy(kind="whole"))
    regions.boxes.extend(random_boxes(rng, n_extra, features.width, features.height))
    return regions


class TestStrategyParsing:
    def test_parse_round_trip(self):
        for text in ("whole", "detector:0.5", "rmac:2", "topk:3"):
            assert str(RegionStrategy.parse(text)) == text

    def test_bad_strings_rejected(self):
        for text in ("detector:1.5", "detector:.", "detector:1e", "rmac:0", "rmac:4", "grid:1",
                     "topk:-1"):
            with pytest.raises(ConfigError):
                RegionStrategy.parse(text)


class TestSelectRegions:
    def test_whole_only(self):
        f = make_features(np.random.default_rng(0), 5, 4)
        regions = select_regions(f, RegionStrategy.parse("whole"))
        assert regions.count == 1
        assert regions.boxes[0].score == 1.0

    def test_detector_threshold_filter(self):
        f = make_features(
            np.random.default_rng(1),
            5,
            4,
            boxes=[RegionBox(0, 0, 10, 10, 0.7), RegionBox(5, 5, 20, 20, 0.4)],
        )
        regions = select_regions(f, RegionStrategy.parse("detector:0.5"))
        assert regions.count == 2
        assert regions.boxes[1].score == pytest.approx(0.7)

    def test_no_boxes_pass_threshold_is_whole_only(self):
        f = make_features(np.random.default_rng(2), 5, 4, boxes=[RegionBox(0, 0, 5, 5, 0.2)])
        regions = select_regions(f, RegionStrategy.parse("detector:0.9"))
        assert regions.count == 1

    def test_detector_boxes_sorted_by_score_then_area(self):
        boxes = [
            RegionBox(0, 0, 2, 2, 0.5),
            RegionBox(0, 0, 8, 8, 0.9),
            RegionBox(0, 0, 4, 4, 0.5),
        ]
        f = make_features(np.random.default_rng(3), 5, 4, boxes=boxes)
        regions = select_regions(f, RegionStrategy.parse("detector:0.0"))
        scores = [b.score for b in regions.boxes[1:]]
        assert scores == [pytest.approx(0.9), pytest.approx(0.5), pytest.approx(0.5)]
        assert regions.boxes[2].area > regions.boxes[3].area  # tie by area desc

    def test_topk(self):
        f = make_features(np.random.default_rng(4), 5, 4, boxes=random_boxes(np.random.default_rng(5), 6, 64, 48))
        regions = select_regions(f, RegionStrategy.parse("topk:2"))
        assert regions.count == 3

    def test_rmac_level_one_square_image(self):
        f = make_features(np.random.default_rng(6), 5, 4, width=100, height=100)
        regions = select_regions(f, RegionStrategy.parse("rmac:1"))
        # whole image + single level-1 square covering the image
        assert regions.count == 2
        b = regions.boxes[1]
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (0.0, 0.0, 100.0, 100.0)

    def test_rmac_grid_overlap_and_order(self):
        boxes = rmac_grid(200.0, 100.0, 2)
        side_l1 = 100.0
        l1 = [b for b in boxes if (b.ymax - b.ymin) == pytest.approx(side_l1)]
        # level-1 squares sweep x with >= 40% overlap
        assert len(l1) >= 2
        for a, b in zip(l1, l1[1:]):
            overlap = (a.xmax - b.xmin) / side_l1
            assert overlap >= 0.4 - 1e-9
        # deterministic: level-ascending, row-major
        assert boxes == rmac_grid(200.0, 100.0, 2)


class TestAssignToRegion:
    def test_closed_min_open_max(self):
        f = make_features(np.random.default_rng(7), 2, 4)
        f.positions[0] = [10.0, 20.0]
        f.positions[1] = [30.0, 40.0]
        box = RegionBox(10.0, 20.0, 30.0, 40.0, 1.0)
        idx = assign_to_region(f, box)
        np.testing.assert_array_equal(idx, [0])  # corner in, max edge out

    # Edges one float64 step above the float32 point 0.1: float32 cannot
    # hold them, so comparing in float32 would round each onto the point.
    @pytest.mark.parametrize("edge", ["xmin", "xmax", "ymin", "ymax"])
    def test_edge_between_float32_values_agrees_with_contains(self, edge):
        f = make_features(np.random.default_rng(7), 1, 4)
        p = np.float32(0.1)
        f.positions[0] = [p, p]
        above = float(np.nextafter(np.float64(p), 1.0))
        assert np.float32(above) == p
        sides = {"xmin": 0.0, "ymin": 0.0, "xmax": 1.0, "ymax": 1.0, edge: above}
        box = RegionBox(sides["xmin"], sides["ymin"], sides["xmax"], sides["ymax"], 1.0)
        inside = box.contains(float(p), float(p))
        assert inside == edge.endswith("max")
        assert assign_to_region(f, box).tolist() == ([0] if inside else [])

    def test_whole_box_contains_interior_descriptors(self):
        f = make_features(np.random.default_rng(8), 50, 4)
        box = RegionBox(0.0, 0.0, 64.0, 48.0, 1.0)
        assert assign_to_region(f, box).size == 50

    def test_region_zero_is_every_descriptor(self):
        f = make_features(np.random.default_rng(9), 20, 4)
        regions = select_regions(f, RegionStrategy.parse("whole"))
        np.testing.assert_array_equal(region_descriptor_indices(f, regions, 0), np.arange(20))

    def test_whole_region_superset_of_any_box(self):
        rng = np.random.default_rng(10)
        f = make_features(rng, 40, 4)
        regions = select_regions(f, RegionStrategy.parse("whole"))
        whole = set(region_descriptor_indices(f, regions, 0))
        for box in random_boxes(rng, 5, 64, 48):
            assert whole >= set(assign_to_region(f, box))


class TestAggregateRegional:
    def test_r_vlad_single_region_bitwise(self):
        rng = np.random.default_rng(11)
        cb = make_codebook(rng, 16, 6)
        f = make_features(rng, 30, 6)
        plain = aggregate(partition(cb, f), cb, "vlad")
        regions = select_regions(f, RegionStrategy.parse("whole"))
        regional = aggregate_regional(f, regions, cb, "r-vlad")
        assert regional.entries.keys() == plain.entries.keys()
        for w, v in plain.entries.items():
            expected = (plain.gamma * v.astype(np.float64)).astype(np.float32)
            np.testing.assert_array_equal(regional.entries[w], expected)

    def test_r_asmk_single_region_equals_plain_map(self):
        rng = np.random.default_rng(12)
        cb = make_codebook(rng, 16, 6)
        f = make_features(rng, 30, 6)
        plain = aggregate(partition(cb, f), cb, "asmk")
        regions = select_regions(f, RegionStrategy.parse("whole"))
        regional = aggregate_regional(f, regions, cb, "r-asmk")
        assert regional.entries.keys() == plain.entries.keys()
        for w, v in plain.entries.items():
            np.testing.assert_allclose(regional.entries[w], v, atol=1e-6)

    def test_r_asmk_star_single_region_bit_identical(self):
        rng = np.random.default_rng(13)
        cb = make_codebook(rng, 16, 6)
        f = make_features(rng, 30, 6)
        plain = aggregate(partition(cb, f), cb, "asmk-star")
        regions = select_regions(f, RegionStrategy.parse("whole"))
        regional = aggregate_regional(f, regions, cb, "r-asmk-star")
        assert regional.entries.keys() == plain.entries.keys()
        for w, v in plain.entries.items():
            np.testing.assert_array_equal(regional.entries[w], v)

    def test_region_dilution(self):
        # Extra regions empty in a word leave the r-asmk residual unchanged
        # and shrink the r-vlad residual norm by exactly R/(R+k).
        rng = np.random.default_rng(14)
        cb = make_codebook(rng, 8, 4)
        f = make_features(rng, 20, 4)
        base_regions = select_regions(f, RegionStrategy.parse("whole"))
        empty_box = RegionBox(62.9, 46.9, 63.9, 47.9, 1.0)  # no descriptors inside
        assert assign_to_region(f, empty_box).size == 0
        for k in (1, 4, 9):
            diluted = RegionSet(boxes=base_regions.boxes + [empty_box] * k)
            for word in aggregate(partition(cb, f), cb, "asmk").entries:
                r_asmk_base = aggregate_regional(f, base_regions, cb, "r-asmk")
                r_asmk_dil = aggregate_regional(f, diluted, cb, "r-asmk")
                np.testing.assert_allclose(
                    r_asmk_dil.entries[word], r_asmk_base.entries[word], atol=1e-6
                )
                r_vlad_base = aggregate_regional(f, base_regions, cb, "r-vlad")
                r_vlad_dil = aggregate_regional(f, diluted, cb, "r-vlad")
                n_base = np.linalg.norm(r_vlad_base.entries[word].astype(np.float64))
                n_dil = np.linalg.norm(r_vlad_dil.entries[word].astype(np.float64))
                assert n_dil * (1 + k) == pytest.approx(n_base, rel=1e-6)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_fold_bitwise_equals_per_word_oracle(self, mode):
        # Plain modes are checked per region (regional search), regional
        # modes on the fold; the regions overlap and one is empty.  An
        # image without descriptors, but with a detector box, goes through
        # both paths too.
        rng = np.random.default_rng(36)
        d = 6
        cents = np.vstack([make_codebook(rng, 12, d).centroids, np.full((1, d), 100.0, np.float32)])
        cb = Codebook(centroids=cents)
        f = make_features(rng, 60, d)
        offset = np.zeros(d, np.float32)
        offset[0] = 0.125
        f.vectors[0] = cents[12] + offset
        f.vectors[1] = cents[12] - offset  # word 12's residual cancels exactly
        assert (partition(cb, f).labels == 12).sum() == 2
        regions = random_regions(rng, f, 3)
        empty_box = RegionBox(62.9, 46.9, 63.9, 47.9, 1.0)
        assert assign_to_region(f, empty_box).size == 0
        regions.boxes += [regions.boxes[1], empty_box]
        blank = make_features(rng, 0, d, boxes=[RegionBox(8.0, 6.0, 40.0, 30.0, 0.9)])
        blank_regions = select_regions(blank, RegionStrategy.parse("detector:0.5"))
        assert blank_regions.count == 2
        for image, image_regions in [(f, regions), (blank, blank_regions)]:
            expected = oracle_entries(image, image_regions, cb, mode)
            if is_regional_mode(mode):
                got = [aggregate_regional(image, image_regions, cb, mode)]
                assert got[0].region_count == image_regions.count
            else:
                got = region_aggregates(image, image_regions, cb, mode)
                assert 12 not in got[0].entries and got[-1].entries == {}
            assert len(got) == len(expected)
            for rep, entries in zip(got, expected):
                assert_entries_bitwise(rep.entries, entries)
                assert rep.gamma == oracle_gamma(mode, entries, DEFAULT_SELECTIVITY)
        if is_regional_mode(mode):
            plain = aggregate(partition(cb, f), cb, PLAIN_COUNTERPART[mode])
            oracle = dict(plain.entries)
            if mode == "r-vlad":
                scaled = {w: store_oracle(mode, plain.gamma * v.astype(np.float64)) for w, v in oracle.items()}
                oracle = {w: v for w, v in scaled.items() if v is not None}
            assert_entries_bitwise(as_regional_query(plain, mode).entries, oracle)

    def test_empty_region_counts_toward_averaging(self):
        rng = np.random.default_rng(15)
        cb = make_codebook(rng, 8, 4)
        f = make_features(rng, 10, 4)
        regions = select_regions(f, RegionStrategy.parse("whole"))
        empty_box = RegionBox(62.9, 46.9, 63.9, 47.9, 1.0)
        two = RegionSet(boxes=regions.boxes + [empty_box])
        one = aggregate_regional(f, regions, cb, "r-vlad")
        halved = aggregate_regional(f, two, cb, "r-vlad")
        for w, v in one.entries.items():
            np.testing.assert_allclose(
                halved.entries[w].astype(np.float64) * 2.0, v.astype(np.float64), rtol=1e-6
            )


class TestRegionalSimilarity:
    @pytest.mark.parametrize("r_extra", [0, 1, 3, 7])
    def test_avg_pooling_collapse_for_vlad(self, r_extra):
        rng = np.random.default_rng(16 + r_extra)
        cb = make_codebook(rng, 12, 5)
        fq = make_features(rng, 25, 5, image_id="q")
        fy = make_features(rng, 35, 5, image_id="y")
        regions = random_regions(rng, fy, r_extra)
        q_plain = aggregate(partition(cb, fq), cb, "vlad")
        q_lifted = as_regional_query(q_plain, "r-vlad")
        expected = avg_pooled_similarity(q_plain, fy, regions, cb, "vlad")
        y_reg = aggregate_regional(fy, regions, cb, "r-vlad")
        got = regional_similarity(q_lifted, y_reg, normalize=False)
        assert got == pytest.approx(expected, abs=1e-5)

    def test_disjoint_supports_zero(self):
        rng = np.random.default_rng(30)
        cb = make_codebook(rng, 4, 3)
        from ramk.kernels import AggregatedRepresentation

        row = np.array([[1, 0, 0]], np.float32)
        x = AggregatedRepresentation("r-asmk", 3, np.array([0]), row, 1.0, 1)
        y = AggregatedRepresentation("r-asmk", 3, np.array([1]), row, 1.0, 2)
        assert regional_similarity(x, y) == 0.0

    def test_symmetric_self_similarity_normalized(self):
        rng = np.random.default_rng(31)
        cb = make_codebook(rng, 12, 5)
        f = make_features(rng, 30, 5)
        regions = random_regions(rng, f, 3)
        rep = aggregate_regional(f, regions, cb, "r-asmk")
        assert regional_similarity(rep, rep, normalize=True) == pytest.approx(1.0, abs=1e-6)

    def test_raw_self_similarity_counts_words(self):
        rng = np.random.default_rng(32)
        cb = make_codebook(rng, 12, 5)
        f = make_features(rng, 30, 5)
        regions = random_regions(rng, f, 2)
        rep = aggregate_regional(f, regions, cb, "r-asmk")
        raw = regional_similarity(rep, rep, normalize=False)
        assert raw == pytest.approx(rep.word_count, abs=1e-6)

    def test_query_conversion_mode_checked(self):
        rng = np.random.default_rng(33)
        cb = make_codebook(rng, 8, 4)
        f = make_features(rng, 10, 4)
        vlad = aggregate(partition(cb, f), cb, "vlad")
        with pytest.raises(ConfigError):
            as_regional_query(vlad, "r-asmk")

    def test_aggregation_entry_points_check_their_modes(self):
        rng = np.random.default_rng(35)
        cb = make_codebook(rng, 8, 4)
        f = make_features(rng, 10, 4)
        regions = random_regions(rng, f, 2)
        with pytest.raises(ConfigError):
            region_aggregates(f, regions, cb, "r-asmk")
        with pytest.raises(ConfigError):
            aggregate_regional(f, regions, cb, "asmk")

    def test_naive_query_side_uses_normalized_residuals(self):
        rng = np.random.default_rng(34)
        cb = make_codebook(rng, 12, 5)
        fq = make_features(rng, 20, 5)
        fy = make_features(rng, 30, 5)
        regions = random_regions(rng, fy, 2)
        q = aggregate(partition(cb, fq), cb, "asmk")
        y = aggregate_regional(fy, regions, cb, "naive-r-asmk")
        lifted = as_regional_query(q, "naive-r-asmk")
        np.testing.assert_array_equal(
            sorted(lifted.entries.keys()), sorted(q.entries.keys())
        )
        got = regional_similarity(q, y)
        assert np.isfinite(got)

    def test_star_binarization_consistency(self):
        rng = np.random.default_rng(35)
        cb = make_codebook(rng, 12, 8)
        f = make_features(rng, 30, 8)
        regions = random_regions(rng, f, 2)
        star = aggregate_regional(f, regions, cb, "r-asmk-star")
        dense = aggregate_regional(f, regions, cb, "r-asmk")
        assert star.entries.keys() == dense.entries.keys()
        for w, packed in star.entries.items():
            signs = unpack_signs(packed, 8)
            expected = np.where(dense.entries[w] > 0, 1.0, -1.0)
            np.testing.assert_array_equal(signs, expected)
