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

``spatial_rerank`` loads its head in ranking order and verifies it in
blocks of candidates.  Each candidate's inliers are those of
``match_features`` and then ``ransac_affine`` with its own seed, which
are the blocks of one.

Matching a block.  The candidates' rows are stacked, each candidate
padded with zero rows to the longest, into one ``codebook._Refs``, and
one lifted product per chunk of query rows gives every
``g_j = |r_j|^2 - 2 x.r_j`` of every candidate, in float32 when the
query rows are float32 and the stack's float32 lift lies within the
guard, as in ``_nearest``.  The pad columns are set to +inf, and each
candidate's segment takes ``_rank``'s argmin, runner-up and certificate
(``codebook._certify``) against the bound of the stack, which uses
``S = (|x| + R)^2`` with R the largest row norm of the whole stack.

Why a pair certified in the stack is certified for its candidate alone.
The derivation in ``codebook.py`` bounds the rounding error of each
computed ``g_j``, and of each ``_sequential_sqdist`` value ``c_j``, by
terms in ``|x|`` and ``|r_j|`` (plus an absolute term for underflow), and
reaches ``S`` only through ``|r_j| <= R``.  Let ``R_k`` be the largest
norm of candidate k's rows and ``S_k = (|x| + R_k)^2``.  As
``R >= R_k``, ``S >= S_k``, so the bounds ``e`` and ``e'`` stated in
``S`` hold for every row of the segment.  If the segment's best ``g_b``
is below every other ``g_j`` of the segment by more than the bound, the
chain::

    c_j >= G_j + |x|^2 - e' >= g_j - e - e' + |x|^2
        >  g_b + e + e' + |x|^2 >= G_b + e' + |x|^2 >= c_b

runs over the segment's rows alone, so ``b`` is the argmin of the
candidate's ``c_j``.  That is the label ``_nearest`` returns for the
candidate alone: it certifies the same argmin or recomputes every
``c_j`` and takes the lowest index among ties, and a tie is never
certified.  The float32 guard holds for the stack as a whole: the lift
is rounded to float32 only when ``2^-60 <= R^2 <= 2^100``, and rows are
ranked in float32 only when ``|x| <= 2^50 - R``.  So every row has
``2^-60 <= S <= 2^100``, which is all that the overflow and underflow
arguments use.  The zero pad rows do not raise R.  Their ``g`` is
replaced by +inf before the argmin, so a pad is never a winner, nor a
runner-up in a segment of two or more rows.  A segment of one row has
an infinite gap, so it is certified when its ``g`` is finite; a
non-finite ``g`` gives a NaN gap and is not.  A larger R only widens the
bound: the stack certifies fewer pairs than each candidate alone would,
never a wrong one.  The pairs it does not certify take ``_nearest`` on
their candidate alone.  Each pair's distance is the sequential float64
sum of squared differences to its winner, the ``d2`` of ``_nearest``, so
``max_distance`` keeps the same pairs.

RANSAC on a block.  One ``_sample_picks`` call draws the samples of all
of the block's (n, seed) pairs, each seed's raw words from its own
generator.  One ``_sample_models`` call solves them on the stacked
position columns, each pick offset to its candidate's rows and each
collinearity test against its own candidate's spread.  Every entry is
the element-wise formula of one candidate's call, so the picks and
models equal per-candidate calls bit for bit.  Scoring, the argmax and
the refit run per candidate: one scoring product over a whole head was
measured slower than one per candidate.

Block sizes.  A matching block holds about _MATCH_CELLS products: query
rows, times candidates, times the rows of the longest candidate (or
D + 1 if more).  At the benchmark's 16 query rows and 80-row candidates
a head of 10 is one block; at about 1000 rows each, a block is one
candidate.  A RANSAC block holds at most ``_SCORE_CELLS // (n *
iterations)`` candidates, n the most matches among them, and at least
one: four at n = 16 and 1000 iterations, one at n = 1000.  With the
whole head of 10 in one RANSAC block, the benchmark's peak RSS rose by
2.6 MB (+5.4%).  A block's sampling and solving also work in place
where that keeps the bits (shifts, subtractions, the offset picks), and
free the raw words before the fix-ups: a block of 4 candidates of 16
matches peaks at 780 KB of temporaries, against 854 KB with separate
arrays.  Whether glibc hands that memory back to the OS after a block,
and faults it in again for the next, depends on the process's earlier
allocations.  A fresh ``ramk search --sp --sp-depth 10`` over 122
queries, started in four ways, took 7k-38k minor faults with separate
arrays, 1.9k-7.3k in place, and 6.9k-86k verifying one candidate at a
time (2-core x86-64 VM).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .codebook import _F32_CHUNK_BYTES, _certify, _nearest, _Refs
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
# Matching blocks and their query-row chunks hold about this many
# (row, candidate row) products, and as many float64 cells of winners'
# rows: _nearest's float32 chunk budget.
_MATCH_CELLS = _F32_CHUNK_BYTES // 4


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
    the same candidate descriptor.  This is ``_match_block`` on a block of
    one candidate.
    """
    return _match_block(query, [candidate], max_distance)[0]


def _match_block(
    query: ImageFeatures, candidates: list[ImageFeatures], max_distance: float
) -> list[np.ndarray]:
    """``match_features(query, c, max_distance)`` for each candidate ``c``.

    The candidates' rows are stacked into one ``_Refs``, each padded with
    zero rows to the longest, and one lifted product per chunk of query
    rows ranks every (row, candidate) pair: its pad columns are set to
    +inf and ``_certify`` takes each segment's argmin and runner-up
    against the stacked bound (module docstring).  The pairs it cannot
    certify take ``_nearest`` on their candidate alone.  A chunk holds
    about _MATCH_CELLS cells of products and of the float64 winners'
    rows, whose sequential sums of squared differences are the distances
    ``_nearest`` returns.
    """
    pairs = [np.empty((0, 2), dtype=np.int64) for _ in candidates]
    live = [k for k, c in enumerate(candidates) if c.count]
    if query.count == 0 or not live:
        return pairs
    for k in live:
        if candidates[k].dim != query.dim:
            raise DimensionError(f"descriptor dimensions differ: {query.dim} vs {candidates[k].dim}")
    x = query.vectors
    m, d = x.shape
    counts = np.array([candidates[k].count for k in live])
    segments, width = counts.size, int(counts.max())
    stack = np.zeros((segments, width, d), dtype=np.result_type(*(candidates[k].vectors for k in live)))
    for i, k in enumerate(live):
        stack[i, : counts[i]] = candidates[k].vectors
    refs = _Refs(stack.reshape(-1, d))
    pad = np.flatnonzero(np.arange(width) >= counts[:, None])
    # Offsets of each segment's first row in the stack.
    first = np.arange(segments) * width
    xl64 = np.ones((m, d + 1))
    x64 = xl64[:, :d]
    x64[...] = x
    x_norm = np.sqrt(np.vecdot(x64, x64))
    s2 = (x_norm + refs.max_norm) ** 2
    if x.dtype == np.float32 and refs.lifted32 is not None and x_norm.max() <= refs.norm_limit:
        xl, lifted, bound = xl64.astype(np.float32), refs.lifted32, refs.coef32 * s2
    else:
        xl, lifted, bound = xl64, refs.lifted, refs.coef64 * s2 + refs.floor64
    labels = np.empty((m, segments), dtype=np.int64)
    d2 = np.empty((m, segments))
    step = max(1, _MATCH_CELLS // (segments * max(width, d + 1)))
    for lo in range(0, m, step):
        g = np.matmul(xl[lo : lo + step], lifted)
        g[:, pad] = np.inf
        best, unsure = _certify(g.reshape(-1, width), np.repeat(bound[lo : lo + step], segments))
        best = best.reshape(-1, segments)
        rows, segs = np.divmod(unsure, segments)
        for i in np.unique(segs):
            r = rows[segs == i]
            best[r, i] = _nearest(x[lo : lo + step][r], candidates[live[i]].vectors, distances=False)[0]
        labels[lo : lo + step] = best
        # A sequential sum of squares in the order of the dimensions, as in _nearest.
        diff = refs.rows[best + first]
        np.subtract(x64[lo : lo + step, None], diff, out=diff)
        diff *= diff
        d2[lo : lo + step] = np.cumsum(diff, axis=2, out=diff)[..., -1]
    kept = np.sqrt(d2) <= max_distance
    for i, k in enumerate(live):
        rows = np.flatnonzero(kept[:, i])
        pairs[k] = np.stack([rows, labels[rows, i]], axis=1)
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
    src: np.ndarray, dst: np.ndarray, picks: np.ndarray, spread: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact affine maps through the 3-point samples ``picks`` (k, 3),
    whose collinearity is judged against ``spread``: the point-spread area
    ``ptp(x) * ptp(y)`` of each sample's own matches, one value or (k,).

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
    so every kept model has the bits of a one-sample solve.  So the rows
    of several candidates' matches can share the columns: a block's picks
    index the stacked rows, and each sample keeps its candidate's spread.
    Nothing is compressed, so a collinear sample may divide by a zero
    determinant; those floating-point warnings are silenced.
    """
    p0, p1, p2 = picks.T
    # The second and third points minus the first, per coordinate, in
    # place: a block's samples hold one first-point column at a time.
    rel = []
    for col in (*src.T, *dst.T):
        first = col[p0]
        for p in (p1, p2):
            rel.append(col[p])
            rel[-1] -= first
    u1x, u2x, u1y, u2y, v1x, v2x, v1y, v2y = rel
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
    keep = 0.5 * np.abs(det) > _COLLINEAR_FRAC * spread
    keep &= np.abs(det_a) > _MIN_DET
    return at, keep


def _sample_picks(ns: np.ndarray | list[int], iterations: int, seeds: list[int]) -> np.ndarray:
    """The int64 picks of one ``choice(n, 3, replace=False)`` call per
    iteration on a fresh PCG64 generator of ``seed``, bit for bit, for
    each (n, seed) pair of ``ns`` and ``seeds`` in turn: ``(len(ns) *
    iterations, 3)`` rows, each pair's ``iterations >= 0`` rows together,
    from one block of raw generator words per seed and array operations
    over all of them.

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
    a seed's draws are one multiply-shift over the halves of
    ``ceil(5 * iterations / 2)`` raw words, as long as none of them is
    rejected.  Otherwise (a rejection; n = 3, whose bound of 1 draws
    nothing; or n > 2^31, where ``w * e`` may not fit int64) one
    ``integers`` call with the array of the five bounds makes that seed's
    draws on a fresh generator of the same seed, redraws included.  The
    fix-ups and the swaps are ``np.where`` selections on the five draw
    columns of all pairs at once.
    """
    ns = np.asarray(ns, dtype=np.int64)
    bounds = np.array([[n - 2, n - 1, n, 3, 2] for n in ns.tolist()], dtype=np.int64).reshape(-1, 5)
    words = np.stack([
        np.random.PCG64(np.random.SeedSequence(seed)).random_raw((5 * iterations + 1) // 2) for seed in seeds
    ]).astype("<u8", copy=False)
    # w * e < 2^32 * 2^31 fits int64, and its low 32 bits are the wrapped
    # uint32 product; the draws of larger bounds are redrawn.
    e = np.minimum(bounds, 1 << 31)[:, None]
    w = words.view("<u4")[:, : 5 * iterations].reshape(ns.size, iterations, 5)
    low = w * e.astype(np.uint32)
    redraw = (low < (1 << 32) % bounds[:, None]).any(axis=(1, 2)) | (ns < 4) | (ns > 1 << 31)
    draws = w * e
    draws >>= 32
    del words, w, low  # before the fix-ups, to keep a block's peak low (module docstring)
    for k in np.flatnonzero(redraw):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seeds[k])))
        draws[k] = rng.integers(0, bounds[k], size=(iterations, 5))
    n = np.repeat(ns, iterations)
    p0, p1, p2, c2, c1 = draws.reshape(-1, 5).T
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
    one matrix product per block of hypotheses (``_inlier_masks``).
    Samples with collinear query points or a degenerate model count -1
    inliers, so the first kept sample with the most reprojection inliers
    wins, and its model is refit by least squares on its inliers.
    Returns (None, empty) when fewer than 3 correspondences exist or no
    model reaches 3 inliers.  Deterministic for a fixed seed.  This is
    ``_ransac_block`` on a block of one.
    """
    return _ransac_block([(src, dst)], iterations, inlier_tol, [seed])[0]


def _ransac_block(
    matched: list[tuple[np.ndarray, np.ndarray]], iterations: int, inlier_tol: float, seeds: list[int]
) -> list[tuple[AffineModel | None, np.ndarray]]:
    """``ransac_affine(src, dst, iterations, inlier_tol, seed)`` for each
    ``(src, dst)`` of ``matched`` and seed of ``seeds``.  The samples of
    every candidate with 3 or more correspondences are drawn in one
    ``_sample_picks`` call and solved in one ``_sample_models`` call on the
    stacked position columns; scoring, the argmax and the refit run per
    candidate (``_fit_best``)."""
    results = [(None, np.empty(0, dtype=np.int64)) for _ in matched]
    live = [k for k, (src, _) in enumerate(matched) if src.shape[0] >= 3]
    if not live:
        return results
    iterations = max(iterations, 0)
    ns = np.array([matched[k][0].shape[0] for k in live])
    starts = np.cumsum(ns) - ns
    src = np.concatenate([matched[k][0] for k in live])
    dst = np.concatenate([matched[k][1] for k in live])
    # ptp(x) * ptp(y) of each candidate's matches.
    extent = np.maximum.reduceat(src, starts) - np.minimum.reduceat(src, starts)
    picks = _sample_picks(ns, iterations, [seeds[k] for k in live])
    picks += np.repeat(starts, iterations)[:, None]  # rows of the stacked columns
    at, keep = _sample_models(src, dst, picks, np.repeat(extent[:, 0] * extent[:, 1], iterations))
    for i, k in enumerate(live):
        own = slice(i * iterations, (i + 1) * iterations)
        results[k] = _fit_best(*matched[k], picks[own] - starts[i], at[own], keep[own], inlier_tol)
    return results


def _fit_best(
    src: np.ndarray, dst: np.ndarray, picks: np.ndarray, at: np.ndarray, keep: np.ndarray, inlier_tol: float
) -> tuple[AffineModel | None, np.ndarray]:
    """Score one candidate's solved samples, keep the first with the most
    inliers and refit it by least squares: ``ransac_affine``'s result."""
    empty = np.empty(0, dtype=np.int64)
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


def _runs(items: Iterable, width: Callable[[object], int], budget: int) -> Iterator[list]:
    """Consecutive runs of ``items`` whose length times their largest
    ``width`` stays within ``budget``, each at least one item long;
    ``items`` is read at most one item past the run it yields."""
    run: list = []
    widest = 0
    for item in items:
        w = width(item)
        if run and (len(run) + 1) * max(widest, w) > budget:
            yield run
            run, widest = [], 0
        run.append(item)
        widest = max(widest, w)
    if run:
        yield run


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
    verified inliers.  Candidates load in ranking order and are verified
    in blocks (module docstring) on the calling thread: RANSAC is many
    small NumPy calls that hold the GIL, so threads would not run them in
    parallel.  ``threads`` has no effect and stays only for callers that
    still pass it.  Each candidate's inliers are those of
    ``match_features`` and then ``ransac_affine`` with its own seed.
    Candidates whose features cannot be loaded keep a zero inlier count
    and are reported in ``flagged``.  ``depth`` of 0 returns the input
    untouched.
    """
    if depth <= 0:
        return ranked
    depth = min(depth, len(ranked.ranking))
    head = ranked.ranking[:depth]
    tail = ranked.ranking[depth:]
    tol = inlier_tol if inlier_tol is not None else default_inlier_tol(query_features)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(depth)]
    flagged: list[str] = []

    def loaded() -> Iterator[tuple[int, ImageFeatures]]:
        for pos, (image_id, _) in enumerate(head):
            candidate = corpus(image_id)
            if candidate is None:
                flagged.append(image_id)
            else:
                yield pos, candidate

    # A matching block spans one chunk of _match_block's query rows.
    m, row = query_features.count, query_features.dim + 1
    matched = []  # (head position, query points, candidate points)
    for block in _runs(loaded(), lambda item: m * max(row, item[1].count), _MATCH_CELLS):
        found = _match_block(query_features, [c for _, c in block], max_distance)
        for (pos, candidate), pairs in zip(block, found):
            src = query_features.positions[pairs[:, 0]].astype(np.float64)
            matched.append((pos, src, candidate.positions[pairs[:, 1]].astype(np.float64)))
    inliers = [0] * depth
    for block in _runs(matched, lambda item: iterations * item[1].shape[0], _SCORE_CELLS):
        found = _ransac_block([(src, dst) for _, src, dst in block], iterations, tol, [seeds[p] for p, _, _ in block])
        for (pos, _, _), (_, verified) in zip(block, found):
            inliers[pos] = verified.size
    # Stable sort by inlier count keeps the original (score desc, id asc)
    # order among equal counts: exactly the lexicographic rule.
    scored = sorted(
        ((image_id, inliers[pos], score) for pos, (image_id, score) in enumerate(head)), key=lambda t: -t[1]
    )
    new_ranking = [(iid, float(inl + _squash(s))) for iid, inl, s in scored]
    new_ranking.extend((iid, float(_squash(s))) for iid, s in tail)
    return RankedResult(query_id=ranked.query_id, ranking=new_ranking, flagged=tuple(flagged))
