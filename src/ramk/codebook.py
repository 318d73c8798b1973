"""Visual-word codebook: k-means training and exact nearest-neighbor quantization.

Training is Lloyd's algorithm with k-means++ initialization on the
PCG64 generator, double-precision accumulation in a fixed order, and an
empty-cluster rule that reseeds the dead centroid at the point farthest
from its assigned centroid.  Quantization always returns the exact
argmin of the squared Euclidean distance, breaking ties toward the
lowest centroid index; a descriptor is assigned to exactly one word.

k-means assignment, quantization and descriptor matching share one
nearest-neighbour routine, ``_nearest``.  It ranks the references of a
row by ``g = |r|^2 - 2 x.r`` (the exact L2 search of Johnson, Douze and
Jegou, "Billion-scale similarity search with GPUs", 2017) and certifies
the winner.  A reference set is prepared once (``_Refs``; a ``Codebook``
keeps its own): the float64 rows, their computed squared norms ``s``,
``R = max |r|`` and the lifted (D+1, C) matrix ``L = [-2 R^T; s]``.  A
chunk of points lifted by a trailing 1 gives every ``g`` in one matrix
product with ``L``.  When the points are float32, and the references are
float32 too or (k-means's float64 centroids) at least _F32_MIN_REFS,
that product runs in float32 first, against ``L`` rounded to float32;
rows it cannot certify take the float64 product, and rows that fail
there are recomputed with ``_sequential_sqdist``.  That routine and the
returned squared distances are the sequential float64 sum of squared
differences, which equals scipy's ``cdist(..., "sqeuclidean")`` bit for
bit (the tests pin it).  So labels and distances do not depend on the
BLAS library, its thread count or the stage that certified a row.

The certificate uses Higham's bound ("Accuracy and Stability of
Numerical Algorithms", section 3.1): with unit roundoff u and
``gamma_n = n u / (1 - n u)``, a sum of n products computed in any order,
fused or not, is within ``gamma_n`` times the sum of their magnitudes.
Let ``S = (|x| + R)^2`` and ``G_j = |r_j|^2 - 2 x.r_j``, exact.  If every
computed ``g_j`` is within ``e`` of ``G_j`` and every
``_sequential_sqdist`` value ``c_j`` within ``e'`` of
``|x - r_j|^2 = G_j + |x|^2``, a row whose best ``g_b`` is below every
other ``g_j`` by more than ``2e + 2e'`` has::

    c_j >= G_j + |x|^2 - e' >= g_j - e - e' + |x|^2
        >  g_b + e + e' + |x|^2 >= G_b + e' + |x|^2 >= c_b,

the same argmin as ``_sequential_sqdist``.  Exact ties and near-ties
are never certified.  ``_sequential_sqdist`` rounds each difference,
square and addition once, so ``e' <= gamma_(D+2) S + D 2^-1075``
(2^-1075 bounds an underflowing square).

- float64 (u = 2^-53).  The computed ``s`` is within ``gamma_D |r|^2`` of
  ``|r|^2``, and the product of the D+1 lifted terms adds
  ``gamma_(D+1) (2 |x||r| + s)``; as ``gamma_a + gamma_b + gamma_a gamma_b
  <= gamma_(a+b)``, ``e <= gamma_(2D+1) S + (2D+1) 2^-1075``.  The
  certificate is ``gap > 4 gamma_(2D+4) S + 4 (2D+4) 2^-1074``: the three
  spare units absorb the rounding of the gap, of ``|x|`` and of the bound.
- float32 (u = 2^-24; ``gamma_n[2^-53]`` is float64's gamma).  The stored
  ``-2 r~`` is ``-2 r`` rounded once to float32 (exact for float32
  references), so ``|r~ - r| <= u |r|`` and ``|r~| <= (1 + u) |r|``, and the
  stored ``s`` is the float64 sum rounded once to float32, within
  ``(u + gamma_D[2^-53] (1 + u)) |r|^2`` of ``|r|^2``.  The product of the
  D+1 terms adds ``gamma_(D+1) (1 + u) (1 + gamma_D[2^-53]) S``, and the two
  float32 roundings together ``u (|r|^2 + 2 |x||r|) <= u S``, so
  ``e <= gamma_(D+2) S + 2 gamma_D[2^-53] S`` plus what underflows.  The
  certificate is ``gap > 2 (gamma_(D+4) + gamma_(D+4)[2^-53]) S``: the
  second term covers ``e'``, and the two spare float32 units (about
  ``4u S``) cover the float32 rounding of the gap, the float64 term of
  ``e`` (below 2^-35 S for D <= 2^16) and the underflow below.
- The float32 guard.  A row is certified in float32 only when
  ``2^-60 <= S <= 2^100`` and D <= 2^16; other rows, non-finite ones
  included, take the float64 product.  No partial sum of the product
  exceeds ``(1 + gamma_(D+1)) S < 2^101``, and ``|2 r| <= 2^51``, far
  below the float32 maximum (~2^128): nothing overflows.  Even when
  subnormal inputs and results are flushed to zero, each of the D+1
  products and D additions, and each stored entry of ``L``, loses at most
  ``2^-126 (1 + 2 sqrt(S)) <= 2^-124 max(1, S)``; in total at most
  ``(3D+2) 2^-124 max(1, S) <= (3D+2) 2^-64 S < 2^-46 S``, below
  ``2^-22 u S``.
- The reference count.  float64 references (k-means centroids) are
  rounded to float32 only from _F32_MIN_REFS = 256 on; below that every
  row of a k-means pass takes the float64 product: with few columns the
  float32 product saves little, and NumPy's argmin over short float32
  rows is slower than over float64 ones (103 against 25 us for a
  1365 x 48 block).  One assignment pass of a 9,600 x 32 float32 sample
  took 7.1 ms float32-first against 3.6 ms in float64 at C=48, 5.5
  against 6.6 ms at C=256 and 13.9 against 28.7 ms at C=1024; of a
  10,000 x 64 one, 10.6 against 5.6 ms at C=48, 8.6 against 11.2 ms at
  C=256 and 21.2 against 33.3 ms at C=1024 (distances included, one BLAS
  thread, 2-core x86-64 VM).  Quantization and descriptor matching,
  whose references are float32, rank float32-first at any C.

On the 120k descriptors of the benchmark's LARGE reference corpus
against its trained codebook (D=64, C=1024), 1.13% of rows fail the
float32 certificate and none fail the float64 one.  In the five Lloyd
passes over the benchmark's 10,000 x 64 training sample (C=1024), against
float64 centroids rounded to float32, 125 of 50,000 rows (0.25%) fail it,
and none fail the float64 one.

k-means++ seeding skips the points that a new seed provably cannot bring
nearer (Elkan, "Using the triangle inequality to accelerate k-means",
2003; Raff, "Exact Acceleration of K-Means++ and K-Means||", 2021).
Each point keeps ``closest``, its computed ``sum (x - a)^2`` to its
owner seed ``a``, and its reach ``r = (sqrt(closest) + t) * 2(1 + delta)``
with ``delta = 2^-20`` and ``t = 2^-520``.  A new seed ``b`` recomputes
``np.sum((x - b) ** 2)`` only for the points whose owner lies within
``sqrt(sum (a - b)^2) < r``; a strict ``<`` replaces ``closest`` and the
owner.  So ``closest`` equals the unpruned ``np.minimum(closest,
sum (x - b)^2)`` bit for bit at every step, and with it every
``rng.choice`` probability, as long as no skipped point's computed
``sum (x - b)^2`` falls below its ``closest``.  (NumPy reduces each row
of a contiguous array on its own, so row sums over a subset or a chunk
of rows equal those over the full array.)  Each pick is
``_kmeanspp_pick``'s: the cumulative sum, normalisation and search that
``rng.choice(n, p=closest / total)`` runs, on the same draw, without the
checks of ``p`` that took about half of each call.

Why none does: let ``d_a = |x - a|``, ``d_b = |x - b|``, ``s = |a - b|``
(exact), ``g = gamma_(D+2)`` and ``E = D 2^-1074``.  Training rejects
components beyond the float32 range, so nothing overflows.  The
subtractions and additions round by a factor (1 +- u) at most and are
exact when the result is subnormal; a square rounds by (1 +- u) or, when
it underflows, by at most 2^-1075.  So every computed squared sum of an
exact ``S`` lies in ``[(1 - g) S - E, (1 + g) S + E]``, whatever the
summation order, and the square root, the ``+ t`` and the product by the
exact ``2(1 + delta)`` each round by (1 +- u).  The separation the
seeding compares is ``sqrt(q)`` for a computed ``q <= s^2`` (below), so it
is at most ``(1 + u) s``, within the bound ``(1 + u) (sqrt(1 + g) s +
sqrt(E))`` that a computed ``sqrt(sum (a - b)^2)`` meets.  A skipped point
has computed ``s >= r``, so with
``kappa = 2(1 + delta)(1 - u)^3 / ((1 + u) sqrt(1 + g))``::

    s   >= kappa (sqrt(closest) + t) - sqrt(E)
    d_b >= s - d_a
        >= (kappa sqrt(1 - g) - 1) d_a + kappa t - (kappa + 1) sqrt(E)

using ``sqrt(closest) >= sqrt(1 - g) d_a - sqrt(E)``.  As the computed
``sum (x - b)^2 >= (1 - g) d_b^2 - E`` and ``closest <= (1 + g) d_a^2 + E``,
the first is at least the second once
``d_b >= sqrt((1 + g) / (1 - g)) d_a + sqrt(2E / (1 - g))``, which the
bound above gives when ``kappa sqrt(1 - g) - 1 >= sqrt((1 + g) / (1 - g))``
(true when ``delta >= 3g + 8u``) and ``kappa t >= (kappa + 2.5) sqrt(E)``
(true when ``t >= 3 sqrt(E)``).  Both hold for any ``D <= 2^28``, where
``g < 2^-24`` and ``sqrt(E) <= 2^-523``; a codebook file holds
``D <= 65535``.

The separations of a new seed ``b`` from the ``i`` earlier seeds ``a``
come from one (i, D) x (D,) product instead of three passes over
``a - b``: with ``n_a``, ``n_b`` the computed squared norms and ``p`` the
computed ``a.b``, ``v = (n_a + n_b) - 2p`` and
``q = v - (4 gamma_(D+3) (n_a + n_b) + 8 D 2^-1074)``, floored at 0.  Let
``N = |a|^2 + |b|^2`` and ``T = 2^-1074``.  Each of the three dot
products is within ``gamma_D`` times its sum of product magnitudes (at
most ``N``, ``N`` and ``|a||b| <= N / 2``) plus ``D T`` for the products
that underflow; scaling by 2 is exact, and the sum and the difference
round by (1 +- u).  So ``|v - s^2| <= 2 gamma_(D+2) N + 6 D T``, using
``s^2 <= 2N``.  The subtracted bound, rounded three times, is at least
``2 gamma_(D+3) N + 6 D T``, and a positive ``v`` minus it rounds up by
at most (1 + u), which the spare ``2uN`` covers: ``q <= s^2``.  A wider
bound only makes more points candidates, so ``closest`` stays exact.

Training holds the caller's sample once: float32 is read as given (other
dtypes become float64) and widened, exactly, a chunk of rows at a time into
per-chunk buffers (``np.take(..., mode="clip")`` fills one with no temporary).
Cluster sums are np.add.reduceat over rows sorted by label, which adds a
cluster's first row to the sum of the rest (pairwise from 9 rows on in NumPy
2.4) and each column on its own: summed in blocks of whole clusters or slabs
of columns, every cluster keeps the sum of the whole sorted sample.

Codebook files ("DTRC", little-endian)::

    magic 4 bytes b"DTRC" | version u16 | C u32 | D u16 | C*D float32
"""

from __future__ import annotations

import hashlib
import logging
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, FormatError, TrainingError
from .features_io import ImageFeatures, read_file, write_atomic

logger = logging.getLogger(__name__)

CODEBOOK_MAGIC = b"DTRC"
CODEBOOK_VERSION = 1
_CB_HEADER = struct.Struct("<4sHIH")

# Relative distortion improvement below which training stops.
CONVERGENCE_TOL = 1e-6


@dataclass(frozen=True)
class Codebook:
    """C visual words of dimension D, plus training metadata when trained here.

    Frozen, and its centroids are not written in place: the state
    prepared for quantization (``_refs``) is built once, on first use.
    """

    centroids: np.ndarray  # (C, D) float32
    iterations: int | None = None
    distortion: float | None = None
    history: list[float] = field(default_factory=list)

    @property
    def size(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    def validate(self) -> None:
        if self.centroids.ndim != 2 or self.size < 1 or self.dim < 1:
            raise DataError("codebook centroids must be a non-empty 2-D array")
        if not np.isfinite(self.centroids).all():
            raise DataError("codebook contains non-finite centroid components")
        if np.unique(self.centroids, axis=0).shape[0] != self.size:
            raise DataError("codebook contains duplicate centroids")

    @cached_property
    def _refs(self) -> _Refs:
        return _Refs(self.centroids)


# Row chunks of the float64 nearest-neighbour search hold about
# _CHUNK_CELLS distance cells: a 512 KB block and its temporaries stay in
# cache (on a 2-core x86-64 VM, 1 << 22 cells made k-means assignment
# 1.3-1.9x slower at C=1024 and C=48, and 1 << 19 cells 1.12x slower at
# C=48, 3% faster at C=1024).  float32 chunks hold _F32_CHUNK_BYTES of
# distances, one chunk per 400-descriptor image at C=1024: there the
# per-chunk NumPy calls cost more than the cache (quantization took
# 0.70 ms per image at 512 KB chunks, 0.59 ms at 2 MB, and the same from
# 2 MB up on 8192 rows).  A chunk keeps at least _MIN_ROWS rows, so the
# matrix product reuses each reference across rows (single rows ran 5.7x
# slower at C=65536), and never more than _MAX_CELLS cells, nor more rows
# than fit the chunk's cells as [x, 1] rows (at C < D, C-sized rows alone
# made 4096-row chunks at C=16, D=128).
_CHUNK_CELLS = 1 << 16
_F32_CHUNK_BYTES = 1 << 21
_MIN_ROWS = 64
_MAX_CELLS = 1 << 22
# Unit roundoffs of float64 and float32, and the smallest float64
# subnormal, which bounds the absolute error of a product that underflows.
_UNIT_ROUNDOFF = 2.0 ** -53
_F32_UNIT_ROUNDOFF = 2.0 ** -24
_TINY = 2.0 ** -1074
# A row is ranked in float32 only when (|x| + max|r|)^2 lies in
# [_F32_LO, _F32_HI], D <= _F32_MAX_DIM, and the references are float32
# or at least _F32_MIN_REFS: there nothing in the float32 product
# overflows, what underflows stays below 2^-22 of its rounding bound, and
# rounding float64 references pays for itself (module docstring).
_F32_LO = 2.0 ** -60
_F32_HI = 2.0 ** 100
_F32_MAX_DIM = 1 << 16
_F32_MIN_REFS = 256
# k-means++ pruning: a point is recomputed against a new seed only when
# the seed is nearer its owner than (sqrt(closest) + _REACH_FLOOR) *
# _REACH_SCALE, the margin delta = 2^-20 and the absolute term 2^-520
# of the derivation in the module docstring.  Both constants are exact.
_REACH_SCALE = 2.0 * (1.0 + 2.0 ** -20)
_REACH_FLOOR = 2.0 ** -520
_F32_MAX = float(np.finfo(np.float32).max)


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * u / (1.0 - n * u)


class _Refs:
    """A reference set (C, D) prepared for ``_nearest``: its float64 rows,
    their squared norms and the largest norm; the lifted (D+1, C) matrix
    ``[-2 R^T; |r|^2]`` in float64, built on first use; and its float32
    rounding, kept when the references are float32 or at least
    _F32_MIN_REFS, and lie within the float32 guard (None otherwise)."""

    def __init__(self, refs: np.ndarray):
        self.rows = np.ascontiguousarray(refs, dtype=np.float64)
        self.sq = np.vecdot(self.rows, self.rows)
        max_sq = float(self.sq.max())
        self.max_norm = math.sqrt(max_sq)
        # Rounding bounds per unit (|x| + max|r|)^2: n = 2D + 4 for the
        # float64 product, n = D + 4 for the float32 one (module docstring).
        c, d = refs.shape
        self.coef64 = 4.0 * _gamma(2 * d + 4, _UNIT_ROUNDOFF)
        self.floor64 = 4.0 * (2 * d + 4) * _TINY
        self.lifted32 = None
        wanted = refs.dtype == np.float32 or c >= _F32_MIN_REFS
        if wanted and d <= _F32_MAX_DIM and _F32_LO <= max_sq <= _F32_HI:
            self.lifted32 = self._lift(np.float32)
            self.coef32 = 2.0 * (_gamma(d + 4, _F32_UNIT_ROUNDOFF) + _gamma(d + 4, _UNIT_ROUNDOFF))
            # Rows with |x| <= norm_limit have (|x| + max|r|)^2 <= _F32_HI.
            self.norm_limit = math.sqrt(_F32_HI) - self.max_norm

    def _lift(self, dtype) -> np.ndarray:
        c, d = self.rows.shape
        lifted = np.empty((d + 1, c), dtype=dtype)
        # Scaling by -2 is exact, so x . (-2 r) has the error bound of -2 (x . r);
        # a float32 lift rounds -2 r and the float64 |r|^2 once each.
        np.multiply(self.rows.T, -2.0, out=lifted[:d])
        lifted[d] = self.sq
        return lifted

    @cached_property
    def lifted(self) -> np.ndarray:
        return self._lift(np.float64)


def _rank(xl: np.ndarray, lifted: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the smallest ``g = xl @ lifted`` per row, and the rows
    (as positions) whose gap to the second smallest is not above
    ``bound``: exact ties, near-ties and non-finite rows."""
    g = np.matmul(xl, lifted)
    best = np.argmin(g, axis=1)
    # Flat positions of each row's start, then of its best and runner-up:
    # on short rows, np.min(axis=1) took 2.5x as long as argmin + gather.
    at = np.arange(0, g.size, g.shape[1])
    flat = g.reshape(-1)
    pos = at + best
    first = flat[pos]
    flat[pos] = np.inf
    at += np.argmin(g, axis=1)
    gap = flat[at] - first
    return best, np.flatnonzero(~(gap > bound))


def _nearest(
    points: np.ndarray, refs: np.ndarray | _Refs, distances: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Nearest row of ``refs`` (C, D) for each row of ``points`` (M, D):
    the exact argmin of the squared Euclidean distance with ties to the
    lowest index, as int64 labels, and with ``distances`` the squared
    distance to it as ``_sequential_sqdist`` computes it (else None).
    ``refs`` is an array or a prepared ``_Refs``; when both sides are
    float32, rows are ranked in float32 first (module docstring)."""
    if not isinstance(refs, _Refs):
        refs = _Refs(refs)
    m, d = points.shape
    labels = np.empty(m, dtype=np.int64)
    d2 = np.empty(m, dtype=np.float64) if distances else None
    single = points.dtype == np.float32 and refs.lifted32 is not None
    c = refs.rows.shape[0]
    cells = _F32_CHUNK_BYTES // 4 if single else _CHUNK_CELLS
    step = max(1, min(max(_MIN_ROWS, cells // c), _MAX_CELLS // c, cells // (d + 1)))
    # Chunk buffers: [x, 1] rows in float64 (x64 is its first d columns) and float32; winners' rows.
    xl64 = np.ones((min(step, m), d + 1))
    xl32 = np.ones(xl64.shape, dtype=np.float32) if single else None
    winners = np.empty((xl64.shape[0], d)) if distances else None
    for lo in range(0, m, step):
        x = points[lo:lo + step]
        xl = xl64[:x.shape[0]]
        x64 = xl[:, :d]
        x64[...] = x
        x_norm = np.sqrt(np.vecdot(x64, x64))
        s2 = (x_norm + refs.max_norm) ** 2
        if single and x_norm.max() <= refs.norm_limit:
            xl32[:x.shape[0], :d] = x
            best, unsure = _rank(xl32[:x.shape[0]], refs.lifted32, refs.coef32 * s2)
            if unsure.size:
                # The float64 product for the rows float32 cannot certify.
                best64, still = _rank(xl[unsure], refs.lifted, refs.coef64 * s2[unsure] + refs.floor64)
                best[unsure] = best64
                unsure = unsure[still]
        else:
            best, unsure = _rank(xl, refs.lifted, refs.coef64 * s2 + refs.floor64)
        if unsure.size:
            best[unsure] = np.argmin(_sequential_sqdist(x64[unsure], refs.rows), axis=1)
        labels[lo:lo + step] = best
        if distances:
            # A sequential sum of squares in the order of the dimensions, as in _sequential_sqdist.
            diff = np.take(refs.rows, best, axis=0, out=winners[:x.shape[0]], mode="clip")
            np.subtract(x64, diff, out=diff)
            diff *= diff
            d2[lo:lo + step] = np.cumsum(diff, axis=1, out=diff)[:, -1]
    return labels, d2


def _sequential_sqdist(x: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Every squared distance between the rows of ``x`` (M, D) and of
    ``refs`` (C, D), float64, as ``cdist(x, refs, "sqeuclidean")`` computes
    it: the sum of squared differences added in the order of the
    dimensions, each difference, square and addition rounded once.  Blocks
    of rows and references hold about _CHUNK_CELLS (row, reference,
    dimension) cells; IEEE specials pass silently, as in ``cdist``."""
    m, d = x.shape
    c = refs.shape[0]
    out = np.empty((m, c), dtype=np.float64)
    cols = max(1, min(c, _CHUNK_CELLS // d))
    rows = max(1, _CHUNK_CELLS // (cols * d))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, m, rows):
            for at in range(0, c, cols):
                diff = x[lo:lo + rows, None] - refs[None, at:at + cols]
                diff *= diff
                out[lo:lo + rows, at:at + cols] = np.cumsum(diff, axis=-1)[..., -1]
    return out


def _squared_distances(points: np.ndarray, rows: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """``np.sum((points[rows] - seed) ** 2, axis=1)`` in float64, the same
    sums, in row chunks of about _CHUNK_CELLS cells that stay in cache (the
    unchunked expression made seeding 1.3-1.45x slower at 10k x 64,
    C=1024, on a 2-core x86-64 VM)."""
    out = np.empty(rows.size, dtype=np.float64)
    step = max(1, _CHUNK_CELLS // points.shape[1])
    raw = np.empty((min(step, rows.size), points.shape[1]), dtype=points.dtype)
    wide = np.empty(raw.shape)
    for lo in range(0, rows.size, step):
        pick = rows[lo:lo + step]
        diff = wide[:pick.size]
        # Widened before the subtraction: a mixed float32 - float64 subtract is slower.
        diff[...] = np.take(points, pick, axis=0, out=raw[:pick.size], mode="clip")
        diff -= seed
        diff *= diff
        np.sum(diff, axis=1, out=out[lo:lo + step])
    return out


def _kmeanspp_pick(closest: np.ndarray, rng: np.random.Generator) -> int:
    """A point drawn with probability ``closest / closest.sum()``: the pick
    and generator state of ``rng.choice(n, p=closest / total)``, by the
    arithmetic choice runs after its checks of ``p`` (a sum, a sign and a
    NaN scan, about half of each call), which ``closest`` always passes.
    Uniform when every point is at distance zero."""
    total = closest.sum()
    if total <= 0:
        return int(rng.integers(0, closest.size))
    cdf = np.cumsum(closest / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeanspp_init(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds (Arthur and Vassilvitskii, 2007), skipping each
    point whose ``closest`` the triangle inequality proves unchanged (see
    the module docstring); ``closest`` equals the unpruned update
    ``np.minimum(closest, np.sum((points - seed) ** 2, axis=1))`` bit for
    bit at every step, and each pick is ``rng.choice(n, p=closest / total)``'s."""
    n, d = points.shape
    centroids = np.empty((c, d), dtype=np.float64)
    # Each seed's computed squared norm, and the rounding bound of a
    # separation per unit of |a|^2 + |b|^2 plus its absolute term (module docstring).
    norms = np.empty(c)
    coef = 4.0 * _gamma(d + 3, _UNIT_ROUNDOFF)
    floor = 8.0 * d * _TINY
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    norms[0] = centroids[0] @ centroids[0]
    closest = _squared_distances(points, np.arange(n), centroids[0])
    # The seed each point's closest was computed against, and its reach.
    owner = np.zeros(n, dtype=np.int32)
    reach = (np.sqrt(closest) + _REACH_FLOOR) * _REACH_SCALE
    for i in range(1, c):
        centroids[i] = points[_kmeanspp_pick(closest, rng)]
        seed = centroids[i]
        norms[i] = seed @ seed
        # |a|^2 + |b|^2 - 2 a.b less its rounding bound, at most |a - b|^2.
        both = norms[:i] + norms[i]
        sep = np.sqrt(np.maximum(both - 2.0 * (centroids[:i] @ seed) - (coef * both + floor), 0.0))
        cand = np.flatnonzero(np.take(sep, owner) < reach)  # np.take: half the time of sep[owner] with int32 owners
        d2 = _squared_distances(points, cand, seed)
        nearer = d2 < closest[cand]
        moved = cand[nearer]
        closest[moved] = d2[nearer]
        owner[moved] = i
        reach[moved] = (np.sqrt(d2[nearer]) + _REACH_FLOOR) * _REACH_SCALE
        del cand, d2, nearer, moved  # up to N each: not held through the next draw
    return centroids


def _cluster_means(
    points: np.ndarray, labels: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each nonempty cluster's row of ``centroids`` set, in place, to its mean, and
    the mask of nonempty clusters: np.add.reduceat (a left-to-right loop, as in
    kernels, made training ~20% slower) over blocks of whole clusters of about
    _CHUNK_CELLS cells, a larger cluster alone and a slab of columns at a time."""
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=centroids.shape[0])
    words = np.flatnonzero(counts)
    ends = np.cumsum(counts)[words]
    starts = ends - counts[words]
    d = points.shape[1]
    wide = np.empty(max(_CHUNK_CELLS, int(counts.max())))
    first = 0
    while first < words.size:
        last = max(first + 1, int(np.searchsorted(ends, starts[first] + _CHUNK_CELLS // d, side="right")))
        lo, hi = starts[first], ends[last - 1]
        at, group = starts[first:last] - lo, words[first:last]
        step = max(1, min(d, _CHUNK_CELLS // (hi - lo)))
        for j in range(0, d, step):
            block = wide[:(hi - lo) * min(step, d - j)].reshape(hi - lo, -1)
            block[...] = points[order[lo:hi], j:j + step]
            centroids[group, j:j + step] = np.add.reduceat(block, at, axis=0) / counts[group, None]
        first = last
    return centroids, counts > 0


def _distinct_hashes(points: np.ndarray) -> int:
    """The number of distinct 64-bit hashes of the rows of ``points``, -0.0
    read as 0.0 as ``np.unique`` compares them: at most the number of distinct
    rows.  Each column's bits are xored into one (N,) hash, then mixed by the
    two multiply steps of splitmix64's finalizer (Steele, Lea and Flood, 2014)."""
    h = np.zeros(points.shape[0], dtype=np.uint64)
    shifted = np.empty_like(h)
    column = np.empty(points.shape[0], dtype=points.dtype)
    for j in range(points.shape[1]):
        np.add(points[:, j], 0.0, out=column)  # -0.0 + 0.0 is 0.0
        h ^= column.view(f"u{points.itemsize}")
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            h ^= np.right_shift(h, shift, out=shifted)
            h *= np.uint64(mult)
    h.sort()
    return 1 + int(np.count_nonzero(h[1:] != h[:-1]))


def train_codebook(
    descriptors: np.ndarray, c: int, max_iters: int = 50, seed: int = 0
) -> Codebook:
    """Run k-means over the sampled descriptor collection.

    Stops at ``max_iters`` or when the relative distortion improvement
    drops below 1e-6.  Deterministic for a fixed seed.
    """
    points = np.asarray(descriptors)
    points = np.ascontiguousarray(points, dtype=np.float32 if points.dtype == np.float32 else np.float64)
    if points.ndim != 2 or points.size == 0:
        raise TrainingError("training descriptors must be a non-empty (M, D) array")
    top, bottom = points.max(), points.min()  # both NaN when any value is
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise TrainingError("training descriptors contain non-finite values")
    if max(top, -bottom) > _F32_MAX:
        # Centroids are stored as float32, and the seeding's pruning
        # bound assumes no squared distance overflows.
        raise TrainingError(f"training descriptors exceed the float32 range (|x| > {_F32_MAX:.7g})")
    if c < 1:
        raise TrainingError("codebook size must be >= 1")
    if max_iters < 1:
        raise TrainingError("max_iters must be >= 1")
    if _distinct_hashes(points) < c:
        distinct = np.unique(points, axis=0).shape[0]
        if distinct < c:
            raise TrainingError(f"need at least {c} distinct descriptors, found {distinct}")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    centroids = _kmeanspp_init(points, c, rng)
    history: list[float] = []
    iterations = 0
    for iteration in range(1, max_iters + 1):
        iterations = iteration
        labels, dists = _nearest(points, centroids)
        distortion = float(dists.sum())
        history.append(distortion)
        logger.debug("k-means iteration %d distortion %.6g", iteration, distortion)

        new_centroids, nonempty = _cluster_means(points, labels, centroids.copy())
        if not nonempty.all():
            # Reseed each empty centroid at the point farthest from its
            # assigned centroid, removing it from further consideration.
            avail = dists.copy()
            for dead in np.flatnonzero(~nonempty):
                far = int(np.argmax(avail))
                new_centroids[dead] = points[far]
                avail[far] = -np.inf
        centroids = new_centroids

        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev <= 0 or (prev - cur) < CONVERGENCE_TOL * prev:
                break

    codebook = Codebook(
        centroids=centroids.astype(np.float32),
        iterations=iterations,
        distortion=history[-1],
        history=history,
    )
    codebook.validate()
    return codebook


def quantize_batch(codebook: Codebook, vectors: np.ndarray) -> np.ndarray:
    """Exact nearest visual word per descriptor row (lowest index on ties)."""
    vectors = np.asarray(vectors)
    if vectors.dtype != np.float32:
        vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise DataError("expected a (M, D) descriptor array")
    if vectors.shape[1] != codebook.dim:
        raise DimensionError(
            f"descriptor dimension {vectors.shape[1]} != codebook dimension {codebook.dim}"
        )
    return _nearest(vectors, codebook._refs, distances=False)[0].astype(np.int32)


@dataclass
class WordPartition:
    """Single-assignment grouping of an image's descriptors by visual word."""

    labels: np.ndarray   # (M,) int32
    vectors: np.ndarray  # (M, D) float32, the source descriptors

    @property
    def count(self) -> int:
        return int(self.labels.shape[0])


def partition(codebook: Codebook, features: ImageFeatures) -> WordPartition:
    labels = quantize_batch(codebook, features.vectors)
    return WordPartition(labels=labels, vectors=features.vectors)


# ---------------------------------------------------------------------------
# DTRC serialization
# ---------------------------------------------------------------------------


def serialize_codebook(codebook: Codebook) -> bytes:
    codebook.validate()
    header = _CB_HEADER.pack(CODEBOOK_MAGIC, CODEBOOK_VERSION, codebook.size, codebook.dim)
    return header + codebook.centroids.astype("<f4").tobytes()


def codebook_digest(codebook: Codebook) -> bytes:
    """SHA-256 of the canonical serialization; identifies codebook provenance."""
    return hashlib.sha256(serialize_codebook(codebook)).digest()


def save_codebook(codebook: Codebook, path: str | Path) -> None:
    write_atomic(path, serialize_codebook(codebook), "codebook")


def load_codebook(path: str | Path) -> Codebook:
    path = Path(path)
    data = read_file(path, "codebook")
    if len(data) < _CB_HEADER.size:
        raise FormatError(f"{path}: file shorter than the codebook header")
    magic, version, c, d = _CB_HEADER.unpack_from(data, 0)
    if magic != CODEBOOK_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {CODEBOOK_MAGIC!r}")
    if version != CODEBOOK_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = _CB_HEADER.size + c * d * 4
    if len(data) != expected:
        raise FormatError(f"{path}: size {len(data)} != expected {expected} for C={c}, D={d}")
    centroids = np.frombuffer(data, dtype="<f4", offset=_CB_HEADER.size).reshape(c, d)
    codebook = Codebook(centroids=np.ascontiguousarray(centroids, dtype=np.float32))
    try:
        codebook.validate()
    except DataError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return codebook
