"""Feature matching, affine RANSAC and spatial re-ranking.

``oracle_ransac`` is the per-iteration RANSAC loop that ``ransac_affine``
replaces with a batched pass: one ``choice`` call, a collinearity test, a
least-squares solve and a reprojection score per iteration, the first
strictly better count winning.  The batched pass must return the same
inliers and byte-equal models.

``oracle_sample_models`` and ``oracle_score_masks`` are the earlier batched
pass: models built on ``(k, 3, 2)`` point stacks, compressed after the
collinearity test, with translations from one ``(1, 2) @ (2, 2)`` product
per sample, and scored with one ``(n, 2) @ (2, 2)`` product and a square
root per hypothesis.  The column form keeps every sample in place and
reads translations off its block product; on the samples it keeps it must give their picks, models, translations, masks
and final result bit for bit.
"""

from __future__ import annotations

import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ramk import rerank
from ramk.codebook import _Refs
from ramk.errors import DimensionError
from ramk.features_io import ImageFeatures
from ramk.index import RankedResult
from ramk.rerank import (
    _COLLINEAR_FRAC,
    _MIN_DET,
    _SCORE_CELLS,
    AffineModel,
    default_inlier_tol,
    match_features,
    ransac_affine,
    spatial_rerank,
)

from conftest import make_features


def features_from(vectors: np.ndarray, positions: np.ndarray, image_id: str = "img") -> ImageFeatures:
    m = vectors.shape[0]
    return ImageFeatures(
        image_id=image_id,
        vectors=vectors.astype(np.float32),
        positions=positions.astype(np.float32),
        scales=np.ones(m, dtype=np.float32),
        attentions=np.full(m, 100.0, dtype=np.float32),
        boxes=[],
        width=1000,
        height=1000,
    )


def planted_correspondences(
    rng: np.random.Generator, n_inliers: int, n_outliers: int, noise: float = 0.5
) -> tuple[tuple[np.ndarray, np.ndarray], AffineModel, int]:
    """Matched (src, dst) points following a random affine map plus
    uniform outliers."""
    matrix = np.array([[1.2, 0.3], [-0.2, 0.9]])
    t = np.array([40.0, -25.0])
    model = AffineModel(matrix=matrix, translation=t)
    src = rng.uniform(0, 500, size=(n_inliers + n_outliers, 2))
    dst = src @ matrix.T + t
    dst[:n_inliers] += rng.normal(0, noise, size=(n_inliers, 2))
    dst[n_inliers:] = rng.uniform(-200, 900, size=(n_outliers, 2))
    return (src, dst), model, n_inliers


def oracle_solve(src: np.ndarray, dst: np.ndarray) -> AffineModel | None:
    design = np.hstack([src, np.ones((src.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, dst, rcond=None)
    model = AffineModel(matrix=coef[:2].T, translation=coef[2])
    if not np.isfinite(coef).all() or abs(model.determinant) <= _MIN_DET:
        return None
    return model


def oracle_ransac(corr, iterations, inlier_tol, seed):
    """Per-iteration RANSAC over matched ``corr = (src, dst)`` points;
    returns (model, inliers, winning sample or None)."""
    empty = np.empty(0, dtype=np.int64)
    src, dst = corr
    n = src.shape[0]
    if n < 3:
        return None, empty, None
    spread = (src[:, 0].max() - src[:, 0].min()) * (src[:, 1].max() - src[:, 1].min())
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    best_count, best_mask, best_pick = 0, None, None
    for _ in range(iterations):
        pick = rng.choice(n, size=3, replace=False)
        p = src[pick]
        area = 0.5 * abs(
            (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
        )
        if area <= _COLLINEAR_FRAC * spread:
            continue
        model = oracle_solve(p, dst[pick])
        if model is None:
            continue
        mask = np.linalg.norm(model.apply(src) - dst, axis=1) <= inlier_tol
        if int(mask.sum()) > best_count:
            best_count, best_mask, best_pick = int(mask.sum()), mask, pick
    if best_mask is None or best_count < 3:
        return None, empty, None
    refit = oracle_solve(src[best_mask], dst[best_mask])
    if refit is None:
        return None, empty, best_pick
    inliers = np.flatnonzero(np.linalg.norm(refit.apply(src) - dst, axis=1) <= inlier_tol)
    if inliers.size < 3:
        return None, empty, best_pick
    return refit, inliers, best_pick


def oracle_sample_models(src, dst, picks):
    """Affine maps through ``picks`` on ``(k, 3, 2)`` point stacks: the
    collinear samples are dropped before the solve, the rest after it."""
    s = src[picks]
    u1, u2 = s[:, 1] - s[:, 0], s[:, 2] - s[:, 0]
    det = u1[:, 0] * u2[:, 1] - u2[:, 0] * u1[:, 1]
    spread = np.ptp(src[:, 0]) * np.ptp(src[:, 1])
    keep = 0.5 * np.abs(det) > _COLLINEAR_FRAC * spread
    picks, s, u1, u2, det = picks[keep], s[keep], u1[keep], u2[keep], det[keep, None]
    d = dst[picks]
    v1, v2 = d[:, 1] - d[:, 0], d[:, 2] - d[:, 0]
    at = np.empty((det.shape[0], 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        at[:, 0] = (v1 * u2[:, 1:] - v2 * u1[:, 1:]) / det
        at[:, 1] = (v2 * u1[:, :1] - v1 * u2[:, :1]) / det
        t = d[:, 0] - np.matmul(s[:, 0, None], at)[:, 0]
        det_a = at[:, 0, 0] * at[:, 1, 1] - at[:, 0, 1] * at[:, 1, 0]
    valid = np.isfinite(at).all(axis=(1, 2)) & np.isfinite(t).all(axis=1)
    valid &= np.abs(det_a) > _MIN_DET
    return picks[valid], at[valid], t[valid]


def oracle_score_masks(src, dst, at, t, inlier_tol, cells=_SCORE_CELLS):
    """``(k, n)`` inlier masks from one stacked ``(n, 2) @ (2, 2)`` product
    per hypothesis, in blocks of ``cells // n`` hypotheses."""
    n = src.shape[0]
    block = max(1, cells // n)
    masks = [np.zeros((0, n), dtype=bool)]
    for lo in range(0, at.shape[0], block):
        diff = np.matmul(src, at[lo : lo + block]) + t[lo : lo + block, None] - dst
        err = np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])
        masks.append(err <= inlier_tol)
    return np.concatenate(masks)


def oracle_batched_ransac(corr, iterations, inlier_tol, seed, cells=_SCORE_CELLS):
    """``ransac_affine`` on the two oracles above and NumPy's own picks."""
    empty = np.empty(0, dtype=np.int64)
    src, dst = corr
    n = src.shape[0]
    if n < 3:
        return None, empty
    picks, at, t = oracle_sample_models(src, dst, choice_loop(n, iterations, seed))
    masks = oracle_score_masks(src, dst, at, t, inlier_tol, cells)
    counts = masks.sum(axis=1)
    if counts.size == 0 or counts.max() < 3:
        return None, empty
    best = int(np.argmax(counts))
    refit = oracle_solve(src[masks[best]], dst[masks[best]])
    if refit is None:
        refit = oracle_solve(src[picks[best]], dst[picks[best]])
        if refit is None:
            return None, empty
    inliers = np.flatnonzero(np.linalg.norm(refit.apply(src) - dst, axis=1) <= inlier_tol)
    if inliers.size < 3:
        return None, empty
    return refit, inliers


def assert_same_result(got, want) -> None:
    (model, inliers), (want_model, want_inliers) = got, want[:2]
    np.testing.assert_array_equal(inliers, want_inliers)
    assert (model is None) == (want_model is None)
    if model is not None:
        assert model.matrix.tobytes() == want_model.matrix.tobytes()
        assert model.translation.tobytes() == want_model.translation.tobytes()


def _oracle_case(name: str, n: int, seed: int):
    """Seeded correspondences for the bitwise oracle comparison."""
    rng = np.random.default_rng(seed)
    if name == "outliers":  # at least half outliers
        corr, _, _ = planted_correspondences(rng, n // 2, n - n // 2, noise=1.0)
        return corr
    src = rng.uniform(0, 500, size=(n, 2)).astype(np.float32).astype(np.float64)
    if name == "collinear":
        src[:, 1] = 0.5 * src[:, 0] + 7.0
        return src, src * 1.5 + 3.0
    if name == "collapsed":  # most points map to one spot: singular models
        dst = src @ np.array([[0.9, 0.2], [-0.1, 1.1]]).T + 5.0
        dst[: (3 * n) // 5] = [250.0, 250.0]
        return src, dst
    # duplicated: every point appears twice, half of them as outliers
    dst = src @ np.array([[0.9, 0.2], [-0.1, 1.1]]).T + 5.0
    dst[n // 4 :] = rng.uniform(0, 600, size=(n - n // 4, 2))
    return np.concatenate([src, src]), np.concatenate([dst, dst])


ORACLE_CASES = (
    [("outliers", n, 100, 1000 + n) for n in range(3, 61)]
    + [("outliers", n, it, 7) for n in (5, 24, 60) for it in (1, 7, 1000)]
    + [("collinear", n, it, 8) for n in (3, 12) for it in (7, 1000)]
    + [("duplicated", n, it, 9) for n in (4, 20) for it in (1, 7, 1000)]
    + [("collapsed", n, 1000, 11) for n in (5, 30)]
    # enough correspondences that 1000 hypotheses span several score blocks
    + [("outliers", _SCORE_CELLS // 250, 1000, 10)]
)


class TestMatchFeatures:
    def test_identical_sets_all_zero_distance(self):
        f = make_features(np.random.default_rng(0), 15, 8)
        matches = match_features(f, f, max_distance=1.0)
        assert matches.shape == (15, 2) and matches.dtype == np.int64
        np.testing.assert_array_equal(matches, np.stack([np.arange(15)] * 2, axis=1))

    def test_beyond_threshold_empty(self):
        a = features_from(np.eye(4)[:2] * 10, np.zeros((2, 2)))
        b = features_from(np.eye(4)[2:] * 10, np.zeros((2, 2)))
        assert match_features(a, b, max_distance=1.0).shape == (0, 2)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        q = make_features(rng, 30, 6)
        c = make_features(rng, 40, 6)
        got = dict(match_features(q, c).tolist())
        for qi in range(q.count):
            dists = [
                float(np.sum((q.vectors[qi].astype(np.float64) - c.vectors[ci].astype(np.float64)) ** 2))
                for ci in range(c.count)
            ]
            assert got[qi] == int(np.argmin(dists))

    @pytest.mark.parametrize("max_distance", [math.inf, 3.0])
    def test_duplicated_candidates_match_cdist_oracle(self, max_distance):
        rng = np.random.default_rng(4)
        q = make_features(rng, 60, 8)
        c = make_features(rng, 40, 8)
        c.vectors[20:30] = c.vectors[:10]  # each of the first ten twice
        c.vectors[35] = c.vectors[0]  # and the first one three times
        q.vectors[:10] = c.vectors[:10]  # exact hits on duplicated rows
        q.vectors[10:20] = (c.vectors[:10] + c.vectors[30:40]) / 2  # near-ties
        d2 = cdist(q.vectors.astype(np.float64), c.vectors.astype(np.float64), metric="sqeuclidean")
        nearest = np.argmin(d2, axis=1)
        dists = np.sqrt(d2[np.arange(q.count), nearest])
        want = [[qi, int(nearest[qi])] for qi in range(q.count) if dists[qi] <= max_distance]
        got = match_features(q, c, max_distance=max_distance)
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert got[:10, 1].tolist() == list(range(10))  # ties to the lowest index

    def test_empty_inputs(self):
        rng = np.random.default_rng(2)
        full = make_features(rng, 5, 4)
        empty = make_features(rng, 0, 4)
        for got in (match_features(empty, full), match_features(full, empty)):
            assert got.shape == (0, 2) and got.dtype == np.int64


class TestRansacAffine:
    def test_exact_affine_no_outliers(self):
        rng = np.random.default_rng(3)
        corr, model, n_in = planted_correspondences(rng, 40, 0, noise=0.0)
        got, inliers = ransac_affine(*corr, iterations=200, inlier_tol=1e-3, seed=0)
        assert inliers.size == 40
        np.testing.assert_allclose(got.matrix, model.matrix, atol=1e-6)
        np.testing.assert_allclose(got.translation, model.translation, atol=1e-6)

    def test_fewer_than_three_matches_none(self):
        rng = np.random.default_rng(4)
        corr, _, _ = planted_correspondences(rng, 2, 0)
        model, inliers = ransac_affine(*corr, iterations=100, inlier_tol=3.0, seed=0)
        assert model is None and inliers.size == 0

    def test_collinear_points_give_none(self):
        src = np.stack([np.linspace(0, 100, 10), np.linspace(0, 100, 10)], axis=1)
        model, inliers = ransac_affine(src, src, iterations=200, inlier_tol=1.0, seed=1)
        assert model is None

    def test_planted_model_with_outliers_small(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            corr, _, n_in = planted_correspondences(rng, 70, 30)
            _, inliers = ransac_affine(*corr, iterations=1000, inlier_tol=3.0, seed=seed)
            true_found = np.intersect1d(inliers, np.arange(n_in)).size
            hits += true_found >= 0.95 * n_in
        assert hits >= 19

    def test_returned_inliers_satisfy_tolerance(self):
        rng = np.random.default_rng(5)
        corr, _, _ = planted_correspondences(rng, 50, 20)
        model, inliers = ransac_affine(*corr, iterations=500, inlier_tol=3.0, seed=2)
        src, dst = corr
        err = np.linalg.norm(model.apply(src) - dst, axis=1)
        assert (err[inliers] <= 3.0).all()

    @pytest.mark.parametrize("name,n,iterations,seed", ORACLE_CASES)
    def test_bitwise_equals_per_iteration_oracle(self, name, n, iterations, seed):
        corr = _oracle_case(name, n, seed)
        tol = 3.0 if name != "collinear" else 1.0
        for ransac_seed in (seed, seed + 1):
            got = ransac_affine(*corr, iterations=iterations, inlier_tol=tol, seed=ransac_seed)
            assert_same_result(got, oracle_ransac(corr, iterations, tol, ransac_seed))

    def test_degenerate_refit_falls_back_to_winning_sample(self, monkeypatch):
        # Noise-free inliers: every all-inlier sample reaches the top count,
        # so the winner is the first of many ties, spread over five score
        # blocks of 200 hypotheses.  The first three points are collinear
        # inliers.
        rng = np.random.default_rng(15)
        n = _SCORE_CELLS // 200
        src = rng.uniform(0, 500, size=(n, 2))
        src[:3] = [[10.0, 10.0], [20.0, 20.0], [30.0, 30.0]]
        dst = src @ np.array([[1.2, 0.3], [-0.2, 0.9]]).T + [40.0, -25.0]
        dst[n // 2 :] = rng.uniform(0, 600, size=(n - n // 2, 2))
        corr = (src, dst)
        want_model, _, pick = oracle_ransac(corr, 1000, 2.0, 3)
        assert want_model is not None and pick is not None

        solve = rerank._solve_affine
        monkeypatch.setattr(
            rerank, "_solve_affine", lambda s, d: None if s.shape[0] > 3 else solve(s, d)
        )
        model, inliers = ransac_affine(*corr, iterations=1000, inlier_tol=2.0, seed=3)
        exact = oracle_solve(src[pick], dst[pick])
        assert model.matrix.tobytes() == exact.matrix.tobytes()
        assert model.translation.tobytes() == exact.translation.tobytes()
        err = np.linalg.norm(exact.apply(src) - dst, axis=1)
        np.testing.assert_array_equal(inliers, np.flatnonzero(err <= 2.0))

    def test_dropped_near_collinear_samples_never_win(self):
        # Forty points on a line with 1e-3 of jitter, mapped exactly, and
        # three far points mapped at random: a near-collinear sample of line
        # points passes through them all but is dropped, while every kept
        # sample takes a far point, tilts the map across the line and fits
        # a handful.  The dropped samples keep their place in the scoring,
        # so only their -1 counts keep them from winning.
        rng = np.random.default_rng(21)
        src = np.empty((43, 2))
        src[:40] = np.stack([rng.uniform(0, 1000, 40), 500 + rng.uniform(-1e-3, 1e-3, 40)], axis=1)
        src[40:] = [[0.0, 0.0], [1000.0, 1000.0], [300.0, 900.0]]
        dst = src @ np.array([[1.2, 0.3], [-0.2, 0.9]]).T + [40.0, -25.0]
        dst[40:] = rng.uniform(0, 1000, (3, 2))
        corr, tol, spread = (src, dst), 1e-5, 1000.0 * 1000.0
        best = {True: 0, False: 0}  # most inliers of a kept / dropped sample
        for pick in choice_loop(43, 1000, 4):
            p = src[pick]
            area = 0.5 * abs(
                (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
            )
            model = oracle_solve(p, dst[pick])
            if model is not None:
                count = int((np.linalg.norm(model.apply(src) - dst, axis=1) <= tol).sum())
                kept = bool(area > _COLLINEAR_FRAC * spread)
                best[kept] = max(best[kept], count)
        assert best[False] == 40 and best[True] < 10
        got = ransac_affine(*corr, iterations=1000, inlier_tol=tol, seed=4)
        assert 3 <= got[1].size < 10
        assert_same_result(got, oracle_batched_ransac(corr, 1000, tol, 4))
        assert_same_result(got, oracle_ransac(corr, 1000, tol, 4))

    def test_samples_with_infinite_translations_never_win(self):
        # dst = A (src - 5) with entries of A near 1e307: the exact t of a
        # sample can lie beyond the float64 range while its A is finite.
        # At inlier_tol = inf an infinite error still counts, so such a
        # sample can top the count; it must be dropped as the oracle drops
        # it.  Overflow is the point here, so its warnings are silenced.
        would_win = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for seed in range(40):
                rng = np.random.default_rng(seed)
                src = rng.uniform(0, 10, (10, 2))
                dst = (src - 5) @ (rng.uniform(-1, 1, (2, 2)) * 10.0 ** rng.uniform(306, 308)).T
                if not np.isfinite(dst).all():
                    continue
                _, keep, _, t, masks = column_form(src, dst, choice_loop(10, 20, seed), math.inf)
                counts = np.where(keep, masks.sum(axis=0), -1)
                top = int(np.argmax(counts))
                would_win += counts[top] >= 3 and not np.isfinite(t[top]).all()
                got = ransac_affine(src, dst, iterations=20, inlier_tol=math.inf, seed=seed)
                assert_same_result(got, oracle_batched_ransac((src, dst), 20, math.inf, seed))
        assert would_win > 0

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(6)
        corr, _, _ = planted_correspondences(rng, 50, 30)
        a = ransac_affine(*corr, iterations=300, inlier_tol=3.0, seed=9)
        b = ransac_affine(*corr, iterations=300, inlier_tol=3.0, seed=9)
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[0].matrix, b[0].matrix)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tolerance_finds_no_model(self, tol):
        rng = np.random.default_rng(3)
        corr, _, _ = planted_correspondences(rng, 40, 0, noise=0.0)
        model, inliers = ransac_affine(*corr, iterations=50, inlier_tol=tol, seed=0)
        assert model is None and inliers.size == 0


def column_case(kind: str, n: int, rng: np.random.Generator):
    """Matched points ``(src, dst, inlier_tol)`` of a shape the column form
    must handle bit for bit."""
    if kind == "grid":  # integer grid: moved points err by exactly 5 = tol
        src = np.stack(np.divmod(np.arange(n), 8), axis=1) * 7.0
        dst = src + [10.0, -4.0]
        dst[rng.random(n) < 0.3] += [3.0, 4.0]
        far = rng.random(n) < 0.2
        dst[far] += rng.integers(-50, 50, size=(int(far.sum()), 2))
        return src, dst, 5.0
    if kind == "collinear":  # all on one line but a few
        x = rng.uniform(0, 500, n)
        src = np.stack([x, 0.5 * x + 7.0], axis=1)
        off = rng.random(n) < 0.1
        src[off, 1] += rng.uniform(-50, 50, int(off.sum()))
        return src, src * 1.5 + 3.0, 2.0
    if kind == "duplicated":  # rows repeated, so some samples repeat a point
        base = rng.uniform(0, 500, size=(max(2, n // 3), 2))
        src = base[rng.integers(0, base.shape[0], n)]
    elif kind == "near 1e6":
        src = 1e6 + rng.uniform(-500, 500, size=(n, 2))
    elif kind == "near 1e-3":
        src = 1e-3 + rng.uniform(-5e-4, 5e-4, size=(n, 2))
    else:
        src = rng.uniform(0, 500, size=(n, 2))
    scale = np.ptp(src) or 1.0
    dst = src @ np.array([[1.2, 0.3], [-0.2, 0.9]]).T + [0.1 * scale, -0.05 * scale]
    dst += rng.normal(0, 1e-3 * scale, size=(n, 2))
    outliers = rng.random(n) < 0.4
    dst[outliers] = src[outliers] + rng.uniform(-scale, scale, size=(int(outliers.sum()), 2))
    return src, dst, 6e-3 * scale


COLUMN_KINDS = ("uniform", "grid", "collinear", "duplicated", "near 1e6", "near 1e-3")


def column_form(src, dst, picks, tol):
    """The column form's pieces for ``picks``: ``A^T`` and the keep mask of
    every sample, and the blocks of ``_inlier_masks`` as (block starts,
    translations, masks) over all samples."""
    at, keep = rerank._sample_models(src, dst, picks, np.ptp(src[:, 0]) * np.ptp(src[:, 1]))
    blocks = list(rerank._inlier_masks(src, dst, at, picks[:, 0], tol))
    t = np.concatenate([np.zeros((0, 2))] + [t for _, _, t in blocks])
    masks = np.concatenate([np.zeros((src.shape[0], 0), dtype=bool)] + [m for _, m, _ in blocks], axis=1)
    return at, keep, [lo for lo, _, _ in blocks], t, masks


class TestColumnForm:
    """The column form of ``_sample_models`` and ``_inlier_masks`` against
    the stacked-point oracles, on every shape that could split them."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(COLUMN_KINDS),
        n=st.integers(3, 300),
        iterations=st.sampled_from([0, 1, 7, 1000]),
        cells=st.sampled_from([_SCORE_CELLS, 4096, 300, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_stacked_oracle(self, kind, n, iterations, cells, seed):
        src, dst, tol = column_case(kind, n, np.random.default_rng(seed))
        picks = rerank._sample_picks([n], iterations, [seed])
        np.testing.assert_array_equal(picks, choice_loop(n, iterations, seed))
        with mock.patch.object(rerank, "_SCORE_CELLS", cells):
            at, keep, starts, t, got_masks = column_form(src, dst, picks, tol)
            result = ransac_affine(src, dst, iterations=iterations, inlier_tol=tol, seed=seed)
        assert starts == list(range(0, iterations, max(1, cells // n)))
        assert (at.shape, keep.shape, t.shape, got_masks.shape) == (
            (iterations, 2, 2), (iterations,), (iterations, 2), (n, iterations)
        )
        # The oracle's kept samples, with t from one (1, 2) @ (2, 2) product
        # per sample: the block product must give the same bits.
        kept = keep & np.isfinite(t).all(axis=1)
        want = oracle_sample_models(src, dst, picks)
        for g, w in zip((picks[kept], at[kept], t[kept]), want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes()
        want_masks = oracle_score_masks(src, dst, *want[1:], tol, cells)
        np.testing.assert_array_equal(got_masks[:, kept].T, want_masks)
        np.testing.assert_array_equal(got_masks[:, kept].sum(axis=0), want_masks.sum(axis=1))
        assert_same_result(result, oracle_batched_ransac((src, dst), iterations, tol, seed, cells))

    def test_grid_errors_meet_the_tolerance_exactly(self):
        # The boundary case the grid shape is there for: errors equal to
        # inlier_tol must count as inliers in both forms.
        src, dst, tol = column_case("grid", 120, np.random.default_rng(5))
        picks = rerank._sample_picks([120], 1000, [5])
        _, at, t = oracle_sample_models(src, dst, picks)
        diff = np.matmul(src, at) + t[:, None] - dst
        err = np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])
        assert (err == tol).any()
        _, keep, _, got_t, masks = column_form(src, dst, picks, tol)
        np.testing.assert_array_equal(masks[:, keep & np.isfinite(got_t).all(axis=1)].T, err <= tol)


def choice_loop(n: int, iterations: int, seed: int) -> np.ndarray:
    """NumPy's own picks: one ``choice(n, 3, replace=False)`` per iteration."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    picks = [rng.choice(n, size=3, replace=False) for _ in range(iterations)]
    return np.array(picks, dtype=np.int64).reshape(-1, 3)


class TestSamplePicks:
    @pytest.mark.parametrize("seed_base", [0, 1 << 32, 987_654_321])
    def test_equals_choice_loop(self, seed_base):
        for n in range(3, 301):
            seed = seed_base + n
            # Each call of the loop draws on from where the previous one
            # stopped, so shorter runs are prefixes of the 7-iteration one.
            want = choice_loop(n, 7, seed)
            for iterations in (0, 1, 7):
                got = rerank._sample_picks([n], iterations, [seed])
                assert got.dtype == np.int64 and got.shape == (iterations, 3)
                np.testing.assert_array_equal(got, want[:iterations], err_msg=f"n={n}")

    # At n = 3 * 2^30 Lemire rejects and redraws about one 32-bit draw in
    # four; beyond 2^32 the draws are 64-bit.
    @pytest.mark.parametrize("n", [3, 4, 16, 262, 300, 3 << 30, 1 << 33])
    def test_equals_choice_loop_over_1000_iterations(self, n):
        for seed in (n, 5):
            got = rerank._sample_picks([n], 1000, [seed])
            assert got.dtype == np.int64 and got.shape == (1000, 3)
            np.testing.assert_array_equal(got, choice_loop(n, 1000, seed))


class TestRawWordDraws:
    """``_sample_picks`` reads raw PCG64 words and takes the ``integers``
    path only where a draw is rejected or the bounds are out of range."""

    @staticmethod
    def picks_and_calls(n: int, iterations: int, seed: int):
        """The picks, and the bounds of each ``Generator.integers`` call made."""
        calls = []

        class Spy(np.random.Generator):
            def integers(self, low, high=None, *args, **kwargs):
                calls.append(np.asarray(high).tolist())
                return super().integers(low, high, *args, **kwargs)

        with mock.patch.object(np.random, "Generator", Spy):
            picks = rerank._sample_picks([n], iterations, [seed])
        return picks, calls

    @pytest.mark.parametrize("n", [4, 5, 16, 300, 1 << 20, 1 << 31])
    def test_draws_with_no_rejection_never_call_integers(self, n):
        for seed in (n, 7):
            # 2^32 mod e is below 2^13 for every bound here, so a draw is
            # rejected with odds below 2e-6, and these seeds meet none.
            picks, calls = self.picks_and_calls(n, 1000, seed)
            assert calls == []
            np.testing.assert_array_equal(picks, choice_loop(n, 1000, seed))

    # 2^32 mod e over 2^32 is ~0.4% per draw near 2^24 and 25% at 3 * 2^29.
    @pytest.mark.parametrize("n", [(1 << 24) + 3, 3 << 29])
    def test_rejected_draws_fall_back_to_integers(self, n):
        for seed in (n, 11):
            picks, calls = self.picks_and_calls(n, 1000, seed)
            assert calls == [[n - 2, n - 1, n, 3, 2]]
            assert picks.dtype == np.int64 and picks.shape == (1000, 3)
            np.testing.assert_array_equal(picks, choice_loop(n, 1000, seed))

    # Beyond 2^31, w * e may pass 2^63; near 2^32 Lemire rejects almost nothing.
    @pytest.mark.parametrize("n", [3, (1 << 31) + 1, (1 << 32) - 5])
    def test_bounds_outside_the_fast_path_call_integers(self, n):
        picks, calls = self.picks_and_calls(n, 1000, 5)
        assert calls == [[n - 2, n - 1, n, 3, 2]]
        np.testing.assert_array_equal(picks, choice_loop(n, 1000, 5))

    def test_an_odd_draw_count_leaves_a_half_word_unread(self):
        # 5 draws per iteration: an odd iteration count reads half of its
        # last word, and shorter runs stay prefixes of longer ones.
        want = choice_loop(16, 8, 3)
        for iterations in range(9):
            picks, calls = self.picks_and_calls(16, iterations, 3)
            assert calls == [] and picks.shape == (iterations, 3)
            np.testing.assert_array_equal(picks, want[:iterations])


class TestSpatialRerank:
    def _setup(self, rng):
        db = {}
        base = make_features(rng, 20, 6, image_id="a")
        db["a"] = base
        # b is the query under a known affine map; c is unrelated
        moved = ImageFeatures(
            image_id="b",
            vectors=base.vectors.copy(),
            positions=(base.positions * 1.1 + 3.0).astype(np.float32),
            scales=base.scales.copy(),
            attentions=base.attentions.copy(),
            boxes=[],
            width=64,
            height=48,
        )
        db["b"] = moved
        db["c"] = make_features(rng, 20, 6, image_id="c")
        return db

    def test_depth_zero_unchanged(self):
        rng = np.random.default_rng(7)
        db = self._setup(rng)
        ranked = RankedResult("q", [("c", 0.9), ("b", 0.8), ("a", 0.7)])
        out = spatial_rerank(ranked, db["a"], lambda i: db.get(i), depth=0)
        assert out is ranked

    def test_identical_candidate_ranked_first_with_m_inliers(self):
        rng = np.random.default_rng(8)
        db = self._setup(rng)
        query_features = db["a"]
        ranked = RankedResult("q", [("c", 0.9), ("a", 0.5), ("b", 0.4)])
        out = spatial_rerank(ranked, query_features, lambda i: db.get(i), depth=3, inlier_tol=2.0)
        assert out.ranking[0][0] == "a"
        assert math.floor(out.ranking[0][1]) == 20  # all M correspondences inliers

    def test_equal_inliers_order_by_kernel_score(self):
        rng = np.random.default_rng(9)
        db = self._setup(rng)
        unrelated_query = make_features(rng, 12, 6, image_id="q")
        ranked = RankedResult("q", [("c", 0.9), ("a", 0.8), ("b", 0.7)])
        out = spatial_rerank(
            ranked, unrelated_query, lambda i: db.get(i), depth=3, iterations=50, inlier_tol=1e-6
        )
        groups: dict[int, list[str]] = {}
        for image_id, score in out.ranking:
            groups.setdefault(math.floor(score), []).append(image_id)
        for _, ids in groups.items():
            original_order = [i for i, _ in ranked.ranking if i in ids]
            assert ids == original_order

    def test_permutation_no_adds_or_drops(self):
        rng = np.random.default_rng(10)
        db = self._setup(rng)
        ranked = RankedResult("q", [("a", 0.9), ("b", 0.8), ("c", 0.7)])
        out = spatial_rerank(ranked, db["b"], lambda i: db.get(i), depth=2)
        assert sorted(i for i, _ in out.ranking) == ["a", "b", "c"]

    def test_scores_non_increasing_and_tail_preserved(self):
        rng = np.random.default_rng(11)
        db = self._setup(rng)
        ranked = RankedResult("q", [("c", 0.9), ("a", 0.8), ("b", 0.7)])
        out = spatial_rerank(ranked, db["a"], lambda i: db.get(i), depth=2, inlier_tol=2.0)
        scores = [s for _, s in out.ranking]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert out.ranking[-1][0] == "b"  # tail position untouched

    def test_missing_candidate_flagged(self):
        rng = np.random.default_rng(12)
        db = self._setup(rng)
        ranked = RankedResult("q", [("a", 0.9), ("missing", 0.8), ("b", 0.7)])
        out = spatial_rerank(ranked, db["a"], lambda i: db.get(i), depth=3, inlier_tol=2.0)
        assert out.flagged == ("missing",)
        assert "missing" in [i for i, _ in out.ranking]

    def test_thread_count_invariant(self, monkeypatch):
        # Candidates are verified on the calling thread whatever `threads`
        # asks for: starting a thread fails the test.
        def no_threads(self):
            raise AssertionError("spatial_rerank started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        rng = np.random.default_rng(13)
        db = self._setup(rng)
        ranked = RankedResult("q", [("a", 0.9), ("missing", 0.85), ("b", 0.8), ("c", 0.7)])
        one = spatial_rerank(ranked, db["b"], lambda i: db.get(i), depth=4, threads=1)
        four = spatial_rerank(ranked, db["b"], lambda i: db.get(i), depth=4, threads=4)
        assert one.ranking == four.ranking
        assert one.flagged == four.flagged == ("missing",)

    def test_default_tolerance_from_dimensions(self):
        f = make_features(np.random.default_rng(14), 5, 4, width=200, height=100)
        assert default_inlier_tol(f) == pytest.approx(10.0)


def per_candidate_rerank(ranked, query, corpus, depth, iterations, inlier_tol, seed, max_distance):
    """The per-candidate loop that ``spatial_rerank``'s blocks replace:
    ``match_features``, then ``ransac_affine`` with the candidate's own
    seed, one candidate at a time, then the stable sort by inliers.
    Returns (ranking, flagged)."""
    depth = min(depth, len(ranked.ranking))
    head, tail = ranked.ranking[:depth], ranked.ranking[depth:]
    seeds = np.random.SeedSequence(seed).spawn(depth)
    flagged, scored = [], []
    for pos, (image_id, score) in enumerate(head):
        candidate = corpus(image_id)
        if candidate is None:
            flagged.append(image_id)
            scored.append((image_id, 0, score))
            continue
        pairs = match_features(query, candidate, max_distance)
        _, inliers = ransac_affine(
            query.positions[pairs[:, 0]].astype(np.float64),
            candidate.positions[pairs[:, 1]].astype(np.float64),
            iterations=iterations,
            inlier_tol=inlier_tol,
            seed=int(seeds[pos].generate_state(1)[0]),
        )
        scored.append((image_id, int(inliers.size), score))
    scored.sort(key=lambda t: -t[1])
    ranking = [(iid, float(inl + rerank._squash(s))) for iid, inl, s in scored]
    ranking += [(iid, float(rerank._squash(s))) for iid, s in tail]
    return ranking, tuple(flagged)


def random_head(rng: np.random.Generator, d: int = 6):
    """A query, a corpus and a ranking over it: candidates that hold a
    moved, noisy subset of the query's features plus clutter (so unequal
    row counts and, under a finite ``max_distance``, a different number
    of matches each, some below 3), unrelated ones, one with no rows and
    one the corpus cannot load."""
    query = make_features(rng, int(rng.integers(4, 16)), d, width=200, height=200, image_id="q")
    db = {}
    for i in range(int(rng.integers(3, 12))):
        kind = rng.choice(["moved", "moved", "random"])
        if kind == "moved":
            keep = rng.random(query.count) < rng.uniform(0.1, 1.0)
            clutter = make_features(rng, int(rng.integers(0, 25)), d, width=200, height=200)
            vectors = query.vectors[keep] + rng.normal(0, 0.05, (int(keep.sum()), d)).astype(np.float32)
            positions = query.positions[keep] * 1.1 + rng.normal(3.0, 0.3, (int(keep.sum()), 2))
            db[f"c{i}"] = features_from(
                np.concatenate([vectors, clutter.vectors]),
                np.concatenate([positions, clutter.positions]),
                image_id=f"c{i}",
            )
        else:
            db[f"c{i}"] = make_features(rng, int(rng.integers(1, 40)), d, width=200, height=200, image_id=f"c{i}")
    db["empty"] = make_features(rng, 0, d, image_id="empty")
    ids = list(db) + ["missing"]
    ranking = [(ids[j], 1.0 - 0.01 * k) for k, j in enumerate(rng.permutation(len(ids)))]
    return query, db, RankedResult("q", ranking)


def block_spies():
    """Patches for ``_match_block`` and ``_ransac_block`` that record each
    matching block's candidate count and each RANSAC block's match counts."""
    sizes = {"match": [], "ransac": []}
    match_block, ransac_block = rerank._match_block, rerank._ransac_block

    def match_spy(q, candidates, max_distance):
        sizes["match"].append(len(candidates))
        return match_block(q, candidates, max_distance)

    def ransac_spy(matched, *args):
        sizes["ransac"].append([src.shape[0] for src, _ in matched])
        return ransac_block(matched, *args)

    return sizes, {"_match_block": match_spy, "_ransac_block": ransac_spy}


class TestBlockedRerank:
    """``spatial_rerank`` verifies its head in blocks of candidates; its
    rankings and flags must be those of the per-candidate loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_distance=st.sampled_from([math.inf, 0.4, 1.5]),
        iterations=st.sampled_from([1, 20, 100]),
        budgets=st.sampled_from([(_SCORE_CELLS, rerank._MATCH_CELLS), (300, 150), (2000, 400)]),
    )
    def test_equals_per_candidate_loop(self, seed, max_distance, iterations, budgets):
        rng = np.random.default_rng(seed)
        query, db, ranked = random_head(rng)
        depth = int(rng.integers(1, len(ranked.ranking) + 2))
        want = per_candidate_rerank(ranked, query, db.get, depth, iterations, 4.0, seed % 1000, max_distance)
        with mock.patch.multiple(rerank, _SCORE_CELLS=budgets[0], _MATCH_CELLS=budgets[1]):
            got = spatial_rerank(
                ranked, query, db.get, depth, iterations=iterations, inlier_tol=4.0,
                seed=seed % 1000, max_distance=max_distance,
            )
        assert (got.ranking, got.flagged) == want

    def test_small_budgets_span_several_blocks(self):
        # Candidates of up to 20 rows and 12 query rows: a matching budget
        # of 600 cells holds two or three candidates, and 2000 RANSAC cells
        # at 100 iterations hold two candidates of up to 10 matches.
        rng = np.random.default_rng(31)
        query = make_features(rng, 12, 6, width=200, height=200, image_id="q")
        db = {}
        for i, m in enumerate([12, 5, 20, 8, 0, 12, 15, 9]):
            extra = make_features(rng, max(0, m - 12), 6, width=200, height=200)
            rows = max(0, min(m, 12) - i % 3)
            db[f"c{i}"] = features_from(
                np.concatenate([query.vectors[:rows], extra.vectors]),
                np.concatenate([query.positions[:rows] * 0.9 + 7.0, extra.positions]),
                image_id=f"c{i}",
            )
        ids = list(db)
        ids.insert(3, "missing")
        ranked = RankedResult("q", [(iid, 1.0 - 0.01 * k) for k, iid in enumerate(ids)])
        want = per_candidate_rerank(ranked, query, db.get, len(ids), 100, 2.0, 5, 0.5)
        sizes, spies = block_spies()
        with mock.patch.multiple(rerank, _MATCH_CELLS=600, _SCORE_CELLS=2000, **spies):
            got = spatial_rerank(ranked, query, db.get, len(ids), iterations=100, inlier_tol=2.0, seed=5, max_distance=0.5)
        assert (got.ranking, got.flagged) == want
        assert got.flagged == ("missing",)
        match, ransac = sizes["match"], [len(n) for n in sizes["ransac"]]
        assert sum(match) == sum(ransac) == len(db)
        assert len(match) > 1 and max(match) > 1
        assert len(ransac) > 1 and max(ransac) > 1

    def test_default_budgets_verify_the_benchmark_head_in_blocks_of_four(self):
        # 10 candidates of 16 matches at 1000 iterations: one matching block,
        # RANSAC blocks of 4, 4 and 2 (_SCORE_CELLS // (16 * 1000) = 4).
        rng = np.random.default_rng(32)
        query = make_features(rng, 16, 8, image_id="q")
        db = {f"c{i}": make_features(rng, 80, 8, image_id=f"c{i}") for i in range(10)}
        for candidate in db.values():
            candidate.vectors[:16] = query.vectors
        ranked = RankedResult("q", [(f"c{i}", 1.0 - 0.01 * i) for i in range(10)])
        sizes, spies = block_spies()
        with mock.patch.multiple(rerank, **spies):
            got = spatial_rerank(ranked, query, db.get, 10)
        assert sizes == {"match": [10], "ransac": [[16] * 4, [16] * 4, [16] * 2]}
        assert (got.ranking, got.flagged) == per_candidate_rerank(
            ranked, query, db.get, 10, 1000, default_inlier_tol(query), 0, math.inf
        )


def cdist_pairs(query: ImageFeatures, candidate: ImageFeatures, max_distance: float) -> list[list[int]]:
    """Matched (query, candidate) index pairs from an exhaustive ``cdist``."""
    if query.count == 0 or candidate.count == 0:
        return []
    d2 = cdist(query.vectors.astype(np.float64), candidate.vectors.astype(np.float64), metric="sqeuclidean")
    nearest = np.argmin(d2, axis=1)
    dist = np.sqrt(d2[np.arange(query.count), nearest])
    return [[i, int(nearest[i])] for i in range(query.count) if dist[i] <= max_distance]


class TestStackedCertificate:
    """One product certifies each candidate's segment against the stacked
    bound; every pair it cannot certify takes ``_nearest`` alone."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        scales=st.lists(st.sampled_from([1.0, 1e-3, 1e6, 1e15, 1e20]), min_size=1, max_size=5),
        max_distance=st.sampled_from([math.inf, 0.5]),
    )
    def test_pairs_equal_match_features_and_cdist(self, seed, d, scales, max_distance):
        rng = np.random.default_rng(seed)
        query = make_features(rng, int(rng.integers(1, 10)), d, image_id="q")
        candidates = []
        for k, scale in enumerate(scales):
            rows = make_features(rng, int(rng.integers(1, 12)), d, image_id=f"c{k}").vectors
            picks = query.vectors[rng.integers(0, query.count, 3)]
            # A few ulps off query rows (none of them is 0).
            near = (picks.view(np.int32) + rng.integers(-3, 4, picks.shape, dtype=np.int32)).view(np.float32)
            vectors = np.concatenate([rows, picks, near, rows[:2], picks[:1]])  # duplicated rows
            vectors = (vectors * scale).astype(np.float32)
            candidates.append(features_from(vectors[rng.permutation(len(vectors))], np.zeros((len(vectors), 2))))
        # Candidate 0 holds query row 0 twice, exactly: that tie is never
        # certified, so at least one pair takes the fallback.
        tied = np.concatenate([candidates[0].vectors, query.vectors[:1], query.vectors[:1]])
        candidates[0] = features_from(tied, np.zeros((len(tied), 2)))
        fallback, bounds = [], []
        nearest, certify = rerank._nearest, rerank._certify

        def nearest_spy(points, refs, distances=True):
            fallback.append(points.shape[0])
            return nearest(points, refs, distances)

        def certify_spy(g, bound):
            bounds.append((g.dtype, bound.copy()))
            return certify(g, bound)

        with mock.patch.multiple(rerank, _nearest=nearest_spy, _certify=certify_spy):
            got = rerank._match_block(query, candidates, max_distance)
        assert sum(fallback) >= 1
        # The premise of the stacked certificate: each segment's bound is at
        # least the one _nearest would use for that candidate alone.
        x = query.vectors.astype(np.float64)
        bound = np.concatenate([b for _, b in bounds]).reshape(query.count, len(candidates))
        unit = _Refs(np.ones((1, d), dtype=np.float32))  # the bound's coefficients at this D
        coef, floor = (unit.coef32, 0.0) if bounds[0][0] == np.float32 else (unit.coef64, unit.floor64)
        for k, candidate in enumerate(candidates):
            s2 = (np.sqrt(np.vecdot(x, x)) + _Refs(candidate.vectors).max_norm) ** 2
            assert (bound[:, k] >= coef * s2 + floor).all()
        for pairs, candidate in zip(got, candidates):
            assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
            assert pairs.tolist() == match_features(query, candidate, max_distance).tolist()
            assert pairs.tolist() == cdist_pairs(query, candidate, max_distance)

    def test_empty_and_mismatched_candidates(self):
        rng = np.random.default_rng(33)
        query = make_features(rng, 5, 4)
        full, empty = make_features(rng, 7, 4), make_features(rng, 0, 4)
        got = rerank._match_block(query, [empty, full, empty], math.inf)
        assert [p.shape for p in got] == [(0, 2), (5, 2), (0, 2)]
        assert got[1].tolist() == cdist_pairs(query, full, math.inf)
        assert [p.shape for p in rerank._match_block(make_features(rng, 0, 4), [full], math.inf)] == [(0, 2)]
        with pytest.raises(DimensionError):
            rerank._match_block(query, [full, make_features(rng, 3, 5)], math.inf)


class TestBlockSampling:
    """Block ``_sample_picks`` and ``_sample_models`` against per-seed,
    per-candidate calls, bit for bit."""

    # n = 3 draws nothing for its first bound; (1 << 24) + 3 makes Lemire
    # reject draws for both of its seeds below (see TestRawWordDraws).
    NS = [16, (1 << 24) + 3, 3, 40, 4, 16, (1 << 24) + 3, 300]
    SEEDS = [(1 << 24) + 3, 11, 5, 987_654_321, 0, 7, (1 << 24) + 3, 1 << 32]

    @pytest.mark.parametrize("iterations", [0, 1, 7, 1000])
    def test_picks_equal_per_seed_calls(self, iterations):
        calls = []

        class Spy(np.random.Generator):
            def integers(self, low, high=None, *args, **kwargs):
                calls.append(np.asarray(high).tolist())
                return super().integers(low, high, *args, **kwargs)

        with mock.patch.object(np.random, "Generator", Spy):
            got = rerank._sample_picks(self.NS, iterations, self.SEEDS)
        assert got.dtype == np.int64 and got.shape == (len(self.NS) * iterations, 3)
        want = [rerank._sample_picks([n], iterations, [s]) for n, s in zip(self.NS, self.SEEDS)]
        assert got.tobytes() == np.concatenate(want).tobytes()
        for k, (n, s) in enumerate(zip(self.NS, self.SEEDS)):
            if n < 1 << 20:
                np.testing.assert_array_equal(got[k * iterations : (k + 1) * iterations], choice_loop(n, iterations, s))
        if iterations == 1000:
            # Only the n = 3 candidate and the rejecting ones redraw.
            assert calls == [[n - 2, n - 1, n, 3, 2] for n in self.NS if n == 3 or n == (1 << 24) + 3]

    def test_rejecting_block_member_equals_choice(self):
        n = (1 << 24) + 3
        got = rerank._sample_picks([16, n, 3], 1000, [4, n, 9])
        np.testing.assert_array_equal(got[1000:2000], choice_loop(n, 1000, n))

    @pytest.mark.parametrize("kind", COLUMN_KINDS)
    def test_models_equal_per_candidate_calls(self, kind):
        rng = np.random.default_rng(34)
        ns, seeds, iterations = [3, 16, 40, 7, 16], [1, 2, 3, 4, 5], 300
        cases = [column_case(kind, n, rng)[:2] for n in ns]
        spreads = [np.ptp(src[:, 0]) * np.ptp(src[:, 1]) for src, _ in cases]
        picks = rerank._sample_picks(ns, iterations, seeds)
        starts = np.cumsum(ns) - ns
        at, keep = rerank._sample_models(
            np.concatenate([src for src, _ in cases]),
            np.concatenate([dst for _, dst in cases]),
            picks + np.repeat(starts, iterations)[:, None],
            np.repeat(spreads, iterations),
        )
        for k, ((src, dst), spread) in enumerate(zip(cases, spreads)):
            own = slice(k * iterations, (k + 1) * iterations)
            want_at, want_keep = rerank._sample_models(src, dst, picks[own], spread)
            assert at[own].tobytes() == want_at.tobytes()
            np.testing.assert_array_equal(keep[own], want_keep)

    def test_ransac_block_equals_per_candidate_calls(self):
        rng = np.random.default_rng(35)
        matched = [planted_correspondences(rng, n // 2, n - n // 2)[0] for n in (0, 2, 3, 16, 40, 5, 16)]
        # A candidate spread over a unit square beside one over 1e5: judged
        # against the block's spread instead of its own, every triangle of
        # the small one would count as collinear.
        small = rng.uniform(0, 1, (12, 2))
        matched[3:3] = [(small, small @ np.array([[0.9, 0.1], [-0.2, 1.1]]) + 0.5), (small * 1e5, small * 1e5 + 3)]
        seeds = [9, 8, 7, 2, 1, 6, 5, 4, 3]
        got = rerank._ransac_block(matched, 500, 3.0, seeds)
        for result, corr, seed in zip(got, matched, seeds):
            assert_same_result(result, ransac_affine(*corr, iterations=500, inlier_tol=3.0, seed=seed))
            assert_same_result(result, oracle_ransac(corr, 500, 3.0, seed))
