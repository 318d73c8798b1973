"""Average precision, protocols and the relevance analysis.

``oracle_ap`` is an independent implementation of average precision by
enumeration: junk removed, precision recorded at each positive's rank,
mean over the full positive set.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramk.errors import ConfigError, DataError
from ramk.evaluation import (
    PROTOCOL_HARD,
    PROTOCOL_MEDIUM,
    analyze_relevance,
    average_precision,
    evaluate,
    precision_at,
    relevance_csv,
)
from ramk.features_io import GroundTruth, ImageFeatures, QueryGroundTruth, RegionBox
from ramk.index import RankedResult
from ramk.rerank import match_features, ransac_affine

from conftest import make_features


def oracle_ap(ranked, positives, junk):
    kept = [r for r in ranked if r not in junk]
    if not positives:
        return None
    precisions = []
    found = 0
    for rank, image_id in enumerate(kept, start=1):
        if image_id in positives:
            found += 1
            precisions.append(found / rank)
    return sum(precisions) / len(positives)


class TestAveragePrecision:
    def test_pos_neg_pos(self):
        assert average_precision(["p1", "n", "p2"], {"p1", "p2"}, set()) == pytest.approx(
            (1 + 2 / 3) / 2
        )

    def test_junk_removed_before_scoring(self):
        assert average_precision(["p1", "j", "p2"], {"p1", "p2"}, {"j"}) == pytest.approx(1.0)

    def test_all_positives_first(self):
        assert average_precision(["a", "b", "n1", "n2"], {"a", "b"}, set()) == 1.0

    def test_empty_positives_signaled(self):
        assert average_precision(["a", "b"], set(), set()) is None

    def test_missing_positives_count_as_zero(self):
        # one positive retrieved at rank 1, one absent entirely
        assert average_precision(["p1", "n"], {"p1", "p2"}, set()) == pytest.approx(0.5)

    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            average_precision(["a", "a"], {"a"}, set())

    def test_ap_is_one_iff_positives_lead(self):
        assert average_precision(["p", "n"], {"p"}, set()) == 1.0
        assert average_precision(["n", "p"], {"p"}, set()) < 1.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_matches_oracle_with_junk_injection(self, seed):
        rng = np.random.default_rng(seed)
        universe = [f"i{k}" for k in range(30)]
        ranked = list(rng.permutation(universe))
        positives = set(rng.choice(universe, size=rng.integers(1, 10), replace=False))
        junk = set(rng.choice([u for u in universe if u not in positives],
                              size=rng.integers(0, 8), replace=False))
        got = average_precision(ranked, positives, junk)
        assert got == pytest.approx(oracle_ap(ranked, positives, junk), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_junk_invariance(self, seed):
        rng = np.random.default_rng(seed)
        base = [f"i{k}" for k in range(12)]
        ranked = list(rng.permutation(base))
        positives = set(rng.choice(base, size=4, replace=False))
        bare = average_precision(ranked, positives, set())
        junked = list(ranked)
        junk = {f"junk{k}" for k in range(5)}
        for j in sorted(junk):
            junked.insert(int(rng.integers(0, len(junked) + 1)), j)
        assert average_precision(junked, positives, junk) == pytest.approx(bare, abs=1e-12)
        assert precision_at(junked, positives, junk) == pytest.approx(
            precision_at(ranked, positives, set()), abs=1e-12
        )


class TestEvaluate:
    def _gt(self):
        return GroundTruth(
            queries={
                "q1": QueryGroundTruth(frozenset({"e1"}), frozenset({"h1"}), frozenset({"j1"})),
                "q2": QueryGroundTruth(frozenset({"e2"}), frozenset(), frozenset()),
            }
        )

    def test_medium_and_hard_sets(self):
        gt = self._gt()
        results = [
            RankedResult("q1", [("e1", 0.9), ("h1", 0.8), ("j1", 0.7), ("x", 0.6)]),
            RankedResult("q2", [("e2", 0.9), ("x", 0.1)]),
        ]
        medium = evaluate(results, gt, PROTOCOL_MEDIUM)
        assert medium.mean_ap == pytest.approx(1.0)
        assert medium.excluded == ()
        hard = evaluate(results, gt, PROTOCOL_HARD)
        # q2 has no hard positives -> excluded; q1 ranks h1 at rank 1 once
        # junk (j1) and easy (e1) are removed
        assert hard.excluded == ("q2",)
        assert hard.per_query_ap["q1"] == pytest.approx(1.0)

    def test_mp10_fixed_denominator(self):
        gt = GroundTruth(
            queries={"q": QueryGroundTruth(frozenset({"a", "b"}), frozenset(), frozenset())}
        )
        results = [RankedResult("q", [("a", 1.0), ("b", 0.9), ("c", 0.8)])]
        metrics = evaluate(results, gt, PROTOCOL_MEDIUM)
        assert metrics.mean_p10 == pytest.approx(2 / 10)

    def test_unknown_query_rejected(self):
        gt = self._gt()
        with pytest.raises(DataError, match="ground-truth"):
            evaluate([RankedResult("nope", [("a", 1.0)])], gt, PROTOCOL_MEDIUM)

    def test_query_order_invariance(self):
        gt = self._gt()
        results = [
            RankedResult("q1", [("e1", 0.9), ("x", 0.8), ("h1", 0.7)]),
            RankedResult("q2", [("x", 0.9), ("e2", 0.1)]),
        ]
        a = evaluate(results, gt, PROTOCOL_MEDIUM)
        b = evaluate(list(reversed(results)), gt, PROTOCOL_MEDIUM)
        assert a.mean_ap == pytest.approx(b.mean_ap)
        assert a.mean_p10 == pytest.approx(b.mean_p10)

    def test_bad_protocol_rejected(self):
        with pytest.raises(ConfigError):
            evaluate([RankedResult("q1", [])], self._gt(), "extreme")

    def test_truncated_ranking_warns_and_lower_bounds(self, caplog):
        gt = GroundTruth(
            queries={"q": QueryGroundTruth(frozenset({"a", "b"}), frozenset(), frozenset())}
        )
        with caplog.at_level("WARNING"):
            metrics = evaluate([RankedResult("q", [("a", 1.0)])], gt, PROTOCOL_MEDIUM)
        assert metrics.per_query_ap["q"] == pytest.approx(0.5)  # missing positive scores zero
        assert any("absent" in m for m in caplog.messages)


def _paired_features(rng, n_planted=12, n_clutter=20):
    """Two same-object feature sets: planted block affine-consistent."""
    d = 6
    planted = rng.normal(0, 2, size=(n_planted, d))
    canon = rng.uniform(0.1, 0.9, size=(n_planted, 2))

    def instance(box, clutter_seed):
        crng = np.random.default_rng(clutter_seed)
        pos = np.concatenate(
            [
                box[:2] + canon * (box[2:] - box[:2]),
                crng.uniform(0, 640, size=(n_clutter, 2)) * [1, 0.75],
            ]
        )
        vecs = np.concatenate(
            [
                planted + crng.normal(0, 0.05, size=planted.shape),
                crng.normal(0, 2, size=(n_clutter, d)),
            ]
        )
        att = np.concatenate(
            [crng.uniform(120, 280, size=n_planted), crng.uniform(0, 140, size=n_clutter)]
        )
        return ImageFeatures(
            image_id=f"p{clutter_seed}",
            vectors=vecs.astype(np.float32),
            positions=pos.astype(np.float32),
            scales=np.ones(n_planted + n_clutter, np.float32),
            attentions=att.astype(np.float32),
            boxes=[RegionBox(float(box[0]), float(box[1]), float(box[2]), float(box[3]), 0.9)],
            width=640,
            height=480,
        )

    a = instance(np.array([50.0, 60.0, 300.0, 260.0]), 1)
    b = instance(np.array([200.0, 100.0, 520.0, 400.0]), 2)
    return a, b


def oracle_relevance_counts(pairs, edges, inlier_tol, seed):
    """Per-feature loop: (inside_rel, inside_tot, outside_rel, outside_tot) per bin."""
    n_bins = len(edges) - 1
    counts = np.zeros((4, n_bins), dtype=np.int64)
    for pair_index, (first, second) in enumerate(pairs):
        matches = match_features(first, second)
        model, inliers = ransac_affine(
            np.array([first.positions[qi] for qi, _ in matches], dtype=np.float64).reshape(-1, 2),
            np.array([second.positions[ci] for _, ci in matches], dtype=np.float64).reshape(-1, 2),
            inlier_tol=inlier_tol,
            seed=seed + pair_index,
        )
        relevant = {int(matches[i, 0]) for i in inliers} if model is not None else set()
        for fi in range(first.count):
            att = float(first.attentions[fi])
            if att < edges[0] or att > edges[-1]:
                continue
            b = min(int(np.searchsorted(edges, att, side="right")) - 1, n_bins - 1)
            x, y = float(first.positions[fi, 0]), float(first.positions[fi, 1])
            row = 0 if any(box.contains(x, y) for box in first.boxes) else 2
            counts[row, b] += fi in relevant
            counts[row + 1, b] += 1
    return counts


class TestAnalyzeRelevance:
    def test_matches_per_feature_loop_on_edges(self):
        rng = np.random.default_rng(4)
        a, b = _paired_features(rng)
        a.boxes.append(RegionBox(250.0, 200.0, 400.0, 330.0, 0.5))
        # Clutter features on the corners and edges of both boxes (min
        # edges closed, max edges open), some in the overlap.
        edge_points = [
            (50, 60), (300, 60), (50, 260), (300, 260), (175, 260), (300, 150),
            (250, 200), (400, 330), (250, 330), (400, 200), (275, 260), (300, 250),
        ]
        a.positions[12 : 12 + len(edge_points)] = edge_points
        # Attentions on every bin edge (the top edge closes the last bin),
        # just outside the range, and on edges among the planted features.
        edges = [0.0, 50.0, 100.0, 200.0, 300.0]
        a.attentions[12:24] = [0, 50, 100, 200, 300, 300, -1, 300.5, 0, 50, 100, 200]
        a.attentions[:4] = [100, 200, 300, 0]
        pairs = [(a, b), (b, a), (a, a)]
        table = analyze_relevance(pairs, edges, inlier_tol=10.0, seed=3)
        got = np.array(
            [[t.inside_relevant, t.inside_count, t.outside_relevant, t.outside_count] for t in table]
        ).T
        want = oracle_relevance_counts(pairs, edges, 10.0, 3)
        np.testing.assert_array_equal(got, want)
        assert want[0].sum() > 0 and want[2].sum() > 0  # relevant features on both sides


    def test_synthetic_pair_inside_dominates(self):
        rng = np.random.default_rng(0)
        pairs = [_paired_features(rng)]
        table = analyze_relevance(pairs, [0, 100, 200, 300], inlier_tol=10.0, seed=3)
        populated = [b for b in table if b.populated]
        assert populated, "expected at least one populated bin"
        for b in populated:
            if b.inside_count and b.inside_relevant:
                assert b.ratio > 1.0

    def test_no_boxes_all_features_outside(self):
        rng = np.random.default_rng(1)
        a, b = _paired_features(rng)
        a.boxes = []
        table = analyze_relevance([(a, b)], [0, 300], inlier_tol=10.0)
        assert table[0].inside_count == 0

    def test_pair_without_model_counts_nonrelevant(self):
        rng = np.random.default_rng(2)
        a = make_features(rng, 2, 6)  # too few matches for any model
        b = make_features(rng, 2, 6)
        table = analyze_relevance([(a, b)], [0, 300], inlier_tol=5.0)
        assert sum(t.inside_relevant + t.outside_relevant for t in table) == 0

    def test_bins_validation_and_csv(self):
        with pytest.raises(ConfigError):
            analyze_relevance([], [1.0])
        with pytest.raises(ConfigError):
            analyze_relevance([], [0.0, float("nan"), 100.0])
        table = analyze_relevance([], [0, 50, 100, 200])
        assert len(table) == 3
        csv = relevance_csv(table)
        assert csv.splitlines()[0].startswith("bin_low,bin_high")
        assert len(csv.splitlines()) == 4
