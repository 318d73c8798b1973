"""Spatial verification: descriptor matching and affine RANSAC re-ranking.

Candidates from the filtering stage are re-scored by the number of
geometrically consistent feature correspondences.  Matching is
threshold-filtered nearest neighbor in descriptor space (no ratio
test) and yields a ``(k, 2)`` array of (query, candidate) descriptor
index pairs; the geometric model is a full 2-D affine map estimated
from 3-point samples of the matched position arrays and refined by
least squares on the best inlier set.

RANSAC works on coordinate columns: each hypothesis's entries come from
element-wise formulas over 1-D arrays of all samples, and a block of
hypotheses is scored by one ``(n, 2) @ (2, 2k)`` product followed by
element-wise steps on ``(n, k)`` error columns, with no per-iteration
Python loop.  Its models and inliers are those of a loop that calls
``choice`` and solves and scores one sample at a time, bit for bit:

- the bounded draws of the samples are one multiply-shift pass over raw
  PCG64 words, the arithmetic of Lemire's method that ``choice`` runs on
  the same stream, with ``Generator.integers`` taking over where that
  method would reject a draw and draw again;
- a sample's translation is read off the scoring product at the row of
  its first point, the same two-term dot product that a per-sample
  product computes (OpenBLAS rounds them alike; the tests pin it);
- dropped samples keep their place with a count of -1, so the first
  kept sample with the most inliers wins.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .codebook import _nearest
from .errors import DimensionError
from .features_io import ImageFeatures
from .index import RankedResult

logger = logging.getLogger(__name__)

# Triangle area below this fraction of the point-spread area counts as collinear.
_COLLINEAR_FRAC = 1e-6
_MIN_DET = 1e-9
# Hypotheses are scored in blocks of at most this many (hypothesis,
# correspondence) errors, which bounds the error matrix for large match sets.
_SCORE_CELLS = 1 << 16


@dataclass(frozen=True)
class AffineModel:
    """x' = A x + t with a non-degenerate 2x2 linear part."""

    matrix: np.ndarray      # (2, 2) float64
    translation: np.ndarray  # (2,) float64

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.matrix.T + self.translation

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.matrix))


def match_features(
    query: ImageFeatures, candidate: ImageFeatures, max_distance: float = math.inf
) -> np.ndarray:
    """Nearest candidate descriptor for each query descriptor, kept when
    the Euclidean distance is within ``max_distance``.

    Returns a ``(k, 2)`` int64 array of (query index, candidate index)
    rows in ascending query order; several query descriptors may map to
    the same candidate descriptor.
    """
    if query.count == 0 or candidate.count == 0:
        return np.empty((0, 2), dtype=np.int64)
    if query.dim != candidate.dim:
        raise DimensionError(f"descriptor dimensions differ: {query.dim} vs {candidate.dim}")
    nearest, d2 = _nearest(query.vectors, candidate.vectors)
    kept = np.flatnonzero(np.sqrt(d2) <= max_distance)
    pairs = np.empty((kept.size, 2), dtype=np.int64)
    pairs[:, 0] = kept
    pairs[:, 1] = nearest[kept]
    return pairs


def _solve_affine(src: np.ndarray, dst: np.ndarray) -> AffineModel | None:
    """Least-squares affine fit (exact for 3 points)."""
    design = np.hstack([src, np.ones((src.shape[0], 1))])
    try:
        coef, *_ = np.linalg.lstsq(design, dst, rcond=None)
    except np.linalg.LinAlgError:
        return None
    matrix = coef[:2].T
    model = AffineModel(matrix=matrix, translation=coef[2])
    if not np.isfinite(coef).all() or abs(model.determinant) <= _MIN_DET:
        return None
    return model


def _sample_models(
    src: np.ndarray, dst: np.ndarray, picks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact affine maps through the 3-point samples ``picks`` (k, 3).

    Returns the transposed linear parts ``A^T`` (k, 2, 2) of all k
    samples in sample order, so that ``src @ At + t`` applies them, and a
    (k,) mask that is False for the samples to drop: those whose query
    triangle is collinear and those whose ``|det A| <= _MIN_DET`` (or is
    NaN).  ``ransac_affine`` also drops a sample whose translation, which
    ``_inlier_masks`` reads off its scoring product, is not finite.  That
    drops every sample whose ``A^T`` is not finite, which the mask does
    not test: each entry of ``A^T`` feeds one component of
    ``t = d - x A^T``, and a non-finite factor gives a non-finite product
    and sum.

    Column layout: each coordinate (x, y, x', y') of each pick column is
    gathered into a 1-D array over all k samples, and each entry of
    ``A^T`` comes from the element-wise formula a single sample would use,
    so every kept model has the bits of a one-sample solve.  Nothing is
    compressed, so a collinear sample may divide by a zero determinant;
    those floating-point warnings are silenced.
    """
    sx, sy = src.T
    dx, dy = dst.T
    p0, p1, p2 = picks.T
    x0, y0, x0d, y0d = sx[p0], sy[p0], dx[p0], dy[p0]
    u1x, u1y, u2x, u2y = sx[p1] - x0, sy[p1] - y0, sx[p2] - x0, sy[p2] - y0
    v1x, v1y, v2x, v2y = dx[p1] - x0d, dy[p1] - y0d, dx[p2] - x0d, dy[p2] - y0d
    # Twice the signed triangle area: the collinearity test and the
    # solve's determinant.
    det = u1x * u2y - u2x * u1y
    at = np.empty((picks.shape[0], 2, 2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # A = [v1 v2] [u1 u2]^-1, stored as A^T: at[:, j] is column j of A.
        np.divide(v1x * u2y - v2x * u1y, det, out=at[:, 0, 0])
        np.divide(v1y * u2y - v2y * u1y, det, out=at[:, 0, 1])
        np.divide(v2x * u1x - v1x * u2x, det, out=at[:, 1, 0])
        np.divide(v2y * u1x - v1y * u2x, det, out=at[:, 1, 1])
        det_a = at[:, 0, 0] * at[:, 1, 1] - at[:, 0, 1] * at[:, 1, 0]
    keep = 0.5 * np.abs(det) > _COLLINEAR_FRAC * (np.ptp(sx) * np.ptp(sy))
    keep &= np.abs(det_a) > _MIN_DET
    return at, keep


def _sample_picks(n: int, iterations: int, seed: int) -> np.ndarray:
    """The ``(iterations, 3)`` int64 picks of one ``choice(n, 3,
    replace=False)`` call per iteration on a fresh PCG64 generator, bit
    for bit, from one block of raw generator words and array operations.

    ``choice(n, 3, replace=False)`` runs Floyd's algorithm: draws in
    [0, j] for j = n-3, n-2, n-1, where a draw equal to an earlier pick
    takes j instead.  A 2-step shuffle follows: draws in [0, 2] and then
    [0, 1] swap into positions 2 and 1.  These are five bounded draws per
    iteration, with exclusive bounds e = n-2, n-1, n, 3, 2, made by
    Lemire's method (Lemire, "Fast random integer generation in an
    interval", ACM TOMACS 2019) as NumPy implements it: for bounds of 32
    bits or fewer, each draw takes the next uint32 w of the stream and
    returns ``(w * e) >> 32``, unless the low 32 bits of ``w * e`` fall
    below ``2^32 mod e``, when it draws again.  PCG64 makes its uint32s
    by splitting each 64-bit word, low half first.  So for 4 <= n <= 2^31
    the draws are one multiply-shift over the halves of
    ``ceil(5 * iterations / 2)`` raw words, as long as none of them is
    rejected.  Otherwise (a rejection; n = 3, whose bound of 1 draws
    nothing; or n > 2^31, where ``w * e`` may not fit int64) one
    ``integers`` call with the array of the five bounds makes the same
    draws on a fresh generator of the same seed, redraws included.  The
    fix-ups and the swaps are ``np.where`` selections on the five draw
    columns.
    """
    iterations = max(iterations, 0)
    bounds = np.array([n - 2, n - 1, n, 3, 2])
    draws = None
    if 4 <= n <= 1 << 31:
        bitgen = np.random.PCG64(np.random.SeedSequence(seed))
        words = bitgen.random_raw((5 * iterations + 1) // 2).astype("<u8", copy=False)
        # w * e < 2^32 * 2^31 fits int64.
        m = words.view("<u4")[: 5 * iterations].reshape(iterations, 5) * bounds
        if not ((m & 0xFFFFFFFF) < (1 << 32) % bounds).any():
            draws = m >> 32
    if draws is None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        draws = rng.integers(0, bounds, size=(iterations, 5))
    p0, p1, p2, c2, c1 = draws.T
    p1 = np.where(p1 == p0, n - 2, p1)
    p2 = np.where((p2 == p0) | (p2 == p1), n - 1, p2)
    # Swap position c2 with position 2, then position c1 with position 1.
    p0, p1, p2 = (
        np.where(c2 == 0, p2, p0),
        np.where(c2 == 1, p2, p1),
        np.where(c2 == 0, p0, np.where(c2 == 1, p1, p2)),
    )
    first = c1 == 0
    return np.stack([np.where(first, p1, p0), np.where(first, p0, p1), p2], axis=1)


def _inlier_masks(
    src: np.ndarray, dst: np.ndarray, at: np.ndarray, p0: np.ndarray, inlier_tol: float
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(lo, masks, t)`` per block of hypotheses ``at`` (as
    ``_sample_models`` returns them), where ``t`` (k, 2) holds the
    translations of hypotheses ``lo`` to ``lo + k``, each mapping its
    sample's first correspondence ``p0`` onto its target, and
    ``masks[i, h]`` tells whether correspondence i lies within
    ``inlier_tol`` of hypothesis ``lo + h``.

    One product ``src @ F`` maps every correspondence under every
    hypothesis of a block: column ``c * k + h`` of the (2, 2k) factor F is
    column c of hypothesis h's ``A^T``.  Each entry is the same two-term
    dot product ``x a_0c + y a_1c`` that one ``(n, 2) @ (2, 2)`` product
    per hypothesis computes, and OpenBLAS's kernels give it the same bits
    on every shape tried (``tests/test_rerank.py`` pins it against that
    stacked form).  So ``t = d - x A^T`` is read at row ``p0`` of the
    product rather than computed by one more product per sample.  The
    rest is element-wise in the stacked form's order,
    ``sqrt((m_x + t_x - x')^2 + (m_y + t_y - y')^2)``, done in place: a
    block allocates only its product, its error and its masks, where more
    large temporaries made glibc hand memory back to the OS on every call
    and fault it in again (~150 page faults per call at n = 16).  Dropped
    samples are scored too; their infinities and NaNs are silenced.
    """
    n = src.shape[0]
    block = max(1, _SCORE_CELLS // n)
    for lo in range(0, at.shape[0], block):
        k = min(block, at.shape[0] - lo)
        first = p0[lo : lo + k]
        # Flat index of row first[h], column h, in the (n, 2k) product.
        flat = first * (2 * k) + np.arange(k)
        with np.errstate(over="ignore", invalid="ignore"):
            diff = src @ at[lo : lo + k].transpose(1, 2, 0).reshape(2, 2 * k)
            t = dst[first] - diff.take(np.stack([flat, flat + k], axis=1))
            diff = diff.reshape(n, 2, k)  # [i, c, h]: coordinate c of hypothesis h's error
            diff += t.T
            diff -= dst[:, :, None]
            diff *= diff
            err = diff[:, 0] + diff[:, 1]
        yield lo, np.sqrt(err, out=err) <= inlier_tol, t


def ransac_affine(
    src: np.ndarray,
    dst: np.ndarray,
    iterations: int = 1000,
    inlier_tol: float = 3.0,
    seed: int = 0,
) -> tuple[AffineModel | None, np.ndarray]:
    """Estimate an affine map ``dst ~ A src + t`` from noisy matched
    points, given as two ``(k, 2)`` float64 arrays with row i of each
    forming one correspondence.

    All ``iterations`` samples of 3 correspondences are drawn first, from
    one block of raw generator words whose bounded draws give the picks
    of one ``choice(n, 3, replace=False)`` call per iteration, bit for bit
    (``_sample_picks``).  Every sample is solved exactly on coordinate
    columns (``_sample_models``) and scored against every correspondence,
    one matrix product per block of hypotheses (``_inlier_masks``).  Samples with collinear query points or a
    degenerate model count -1 inliers, so the first kept sample with the
    most reprojection inliers wins, and its model is refit by least
    squares on its inliers.
    Returns (None, empty) when fewer than 3 correspondences exist or no
    model reaches 3 inliers.  Deterministic for a fixed seed.
    """
    n = src.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if n < 3:
        return None, empty

    picks = _sample_picks(n, iterations, seed)
    at, keep = _sample_models(src, dst, picks)

    best_count = 0
    best = -1
    best_mask: np.ndarray | None = None
    for lo, masks, t in _inlier_masks(src, dst, at, picks[:, 0], inlier_tol):
        counts = masks.sum(axis=0)
        counts[~(keep[lo : lo + counts.size] & np.isfinite(t).all(axis=1))] = -1
        j = int(np.argmax(counts))
        if counts[j] > best_count:
            best_count = int(counts[j])
            best = lo + j
            best_mask = masks[:, j]
    if best_mask is None or best_count < 3:
        return None, empty

    refit = _solve_affine(src[best_mask], dst[best_mask])
    if refit is None:
        # Degenerate refit: fall back to the exact solve on the winning
        # sample, whose query points passed the collinearity test and whose
        # exact model is the winning hypothesis.
        sample = picks[best]
        refit = _solve_affine(src[sample], dst[sample])
        if refit is None:
            return None, empty
    err = np.linalg.norm(refit.apply(src) - dst, axis=1)
    inliers = np.flatnonzero(err <= inlier_tol)
    if inliers.size < 3:
        return None, empty
    return refit, inliers


def default_inlier_tol(features: ImageFeatures) -> float:
    """5% of the larger query dimension, falling back to content extent."""
    if features.width is not None and features.height is not None:
        return 0.05 * max(features.width, features.height)
    if features.count:
        extent = max(
            float(features.positions[:, 0].max()), float(features.positions[:, 1].max())
        )
        return max(0.05 * extent, 1.0)
    return 1.0


def _squash(score: float) -> float:
    """Order-preserving map of a kernel score into (0, 1)."""
    return 0.5 + score / (2.0 * (1.0 + abs(score)))


def spatial_rerank(
    ranked: RankedResult,
    query_features: ImageFeatures,
    corpus: Callable[[str], ImageFeatures | None],
    depth: int,
    *,
    iterations: int = 1000,
    inlier_tol: float | None = None,
    seed: int = 0,
    max_distance: float = math.inf,
    threads: int = 1,
) -> RankedResult:
    """Re-rank the top ``depth`` candidates by (inlier count, kernel score).

    The reported score of every result becomes ``inliers + squash(kernel
    score)`` with ``squash`` order-preserving into (0, 1), so the output
    scores stay non-increasing while realizing the lexicographic order;
    the tail beyond ``depth`` keeps its original order with zero
    verified inliers.  Candidates are verified in ranking order on the
    calling thread: RANSAC is many small NumPy calls that hold the GIL, so
    threads would not run them in parallel.  ``threads`` has no effect and
    stays only for callers that still pass it.  Candidates whose features
    cannot be loaded keep a zero inlier count and are reported in
    ``flagged``.  ``depth`` of 0 returns the input untouched.
    """
    if depth <= 0:
        return ranked
    depth = min(depth, len(ranked.ranking))
    head = ranked.ranking[:depth]
    tail = ranked.ranking[depth:]
    tol = inlier_tol if inlier_tol is not None else default_inlier_tol(query_features)
    seeds = np.random.SeedSequence(seed).spawn(depth)
    flagged: list[str] = []
    scored = []
    for pos, (image_id, score) in enumerate(head):
        candidate = corpus(image_id)
        if candidate is None:
            flagged.append(image_id)
            scored.append((image_id, 0, score))
            continue
        pairs = match_features(query_features, candidate, max_distance)
        _, inliers = ransac_affine(
            query_features.positions[pairs[:, 0]].astype(np.float64),
            candidate.positions[pairs[:, 1]].astype(np.float64),
            iterations=iterations,
            inlier_tol=tol,
            seed=int(seeds[pos].generate_state(1)[0]),
        )
        scored.append((image_id, int(inliers.size), score))
    # Stable sort by inlier count keeps the original (score desc, id asc)
    # order among equal counts: exactly the lexicographic rule.
    scored.sort(key=lambda t: -t[1])
    new_ranking = [(iid, float(inl + _squash(s))) for iid, inl, s in scored]
    new_ranking.extend((iid, float(_squash(s))) for iid, s in tail)
    return RankedResult(query_id=ranked.query_id, ranking=new_ranking, flagged=tuple(flagged))
