"""Visual-word codebook: k-means training and exact nearest-neighbor quantization.

Training is Lloyd's algorithm with k-means++ initialization on the
PCG64 generator, double-precision accumulation in a fixed order, and an
empty-cluster rule that reseeds the dead centroid at the point farthest
from its assigned centroid.  Quantization always returns the exact
argmin of the squared Euclidean distance, breaking ties toward the
lowest centroid index; a descriptor is assigned to exactly one word.

k-means assignment, quantization and descriptor matching share one
nearest-neighbour routine, ``_nearest``.  It ranks the references of a
row by ``g = |r|^2 - 2 x.r``, one float64 matrix product per chunk (the
exact L2 search of Johnson, Douze and Jegou, "Billion-scale similarity
search with GPUs", 2017), and certifies the winner.  With
``gamma_n = n*u / (1 - n*u)`` (u = 2^-53), the dot-product error bound
puts the computed ``g`` within
``gamma_(D+1) (|r|^2 + 2|x||r|)`` of the exact ``|x - r|^2 - |x|^2``
whatever the summation order, and the sequential ``cdist`` sum within
``gamma_(D+2) |x - r|^2`` of the exact ``|x - r|^2``; both are at most
``gamma_(D+2) (|x| + max|r|)^2 =: e``.  A row whose best and second-best
``g`` are more than ``4e`` apart therefore has the same argmin as
``cdist``.  Rows that are not certified (near-ties, exact ties,
non-finite or huge values) are recomputed with ``cdist``.  The returned
squared distances are the sequential sum of squared differences, which
equals ``cdist``'s value bit for bit.  So labels and distances do not
depend on the BLAS library or its thread count.

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
of rows equal those over the full array.)

Why none does: let ``d_a = |x - a|``, ``d_b = |x - b|``, ``s = |a - b|``
(exact), ``g = gamma_(D+2)`` and ``E = D 2^-1074``.  Training rejects
components beyond the float32 range, so nothing overflows.  The
subtractions and additions round by a factor (1 +- u) at most and are
exact when the result is subnormal; a square rounds by (1 +- u) or, when
it underflows, by at most 2^-1075.  So every computed squared sum of an
exact ``S`` lies in ``[(1 - g) S - E, (1 + g) S + E]``, whatever the
summation order, and the square root, the ``+ t`` and the product by the
exact ``2(1 + delta)`` each round by (1 +- u).  A skipped point has
computed ``s >= r``, so with
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

Codebook files ("DTRC", little-endian)::

    magic 4 bytes b"DTRC" | version u16 | C u32 | D u16 | C*D float32
"""

from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, DimensionError, FormatError, TrainingError
from .features_io import ImageFeatures, read_file, write_atomic

logger = logging.getLogger(__name__)

CODEBOOK_MAGIC = b"DTRC"
CODEBOOK_VERSION = 1
_CB_HEADER = struct.Struct("<4sHIH")

# Relative distortion improvement below which training stops.
CONVERGENCE_TOL = 1e-6


@dataclass
class Codebook:
    """C visual words of dimension D, plus training metadata when trained here."""

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


# Row chunks of the nearest-neighbour search hold about _CHUNK_CELLS
# distance cells: a 512 KB block and its temporaries stay in cache (on a
# 2-core x86-64 VM, 1 << 22 cells made k-means assignment 1.3-1.9x
# slower at C=1024 and C=48).  A chunk keeps at least _MIN_ROWS rows,
# so the matrix product reuses each reference across rows (single rows
# ran 5.7x slower at C=65536), and never more than _MAX_CELLS cells
# (32 MB).
_CHUNK_CELLS = 1 << 16
_MIN_ROWS = 64
_MAX_CELLS = 1 << 22
# Unit roundoff of float64, and the smallest subnormal, which bounds the
# absolute error of a product that underflows.
_UNIT_ROUNDOFF = 2.0 ** -53
_TINY = 2.0 ** -1074
# k-means++ pruning: a point is recomputed against a new seed only when
# the seed is nearer its owner than (sqrt(closest) + _REACH_FLOOR) *
# _REACH_SCALE, the margin delta = 2^-20 and the absolute term 2^-520
# of the derivation in the module docstring.  Both constants are exact.
_REACH_SCALE = 2.0 * (1.0 + 2.0 ** -20)
_REACH_FLOOR = 2.0 ** -520
_F32_MAX = float(np.finfo(np.float32).max)


def _nearest(points: np.ndarray, refs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row of ``refs`` (C, D) for each row of ``points`` (M, D),
    both float64: the exact argmin of the squared Euclidean distance with
    ties to the lowest index, as int64 labels, and the squared distance
    to it as ``cdist(..., "sqeuclidean")`` computes it (see the module
    docstring for the certificate)."""
    m, d = points.shape
    labels = np.empty(m, dtype=np.int64)
    d2 = np.empty(m, dtype=np.float64)
    ref_sq = np.einsum("ij,ij->i", refs, refs)
    # Scaling by -2 is exact, so x @ (-2 r).T has the error bound of -2 (x @ r.T).
    neg2_refs_t = (-2.0 * refs).T
    ref_max = float(np.sqrt(ref_sq.max()))
    # n = D + 4: the two extra units absorb the O(D u) relative rounding
    # of the norms, of the bound itself and of the gap; the absolute term
    # covers underflowing products in either computation.
    n = d + 4
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    c = refs.shape[0]
    step = max(1, min(max(_MIN_ROWS, _CHUNK_CELLS // c), _MAX_CELLS // c))
    for lo in range(0, m, step):
        x = points[lo:lo + step]
        rows = np.arange(x.shape[0])
        g = np.matmul(x, neg2_refs_t)
        g += ref_sq
        best = np.argmin(g, axis=1)
        first = g[rows, best]
        g[rows, best] = np.inf
        gap = g.min(axis=1) - first
        x_norm = np.sqrt(np.einsum("ij,ij->i", x, x))
        bound = 4.0 * gamma * (x_norm + ref_max) ** 2 + 4.0 * n * _TINY
        unsure = np.flatnonzero(~(gap > bound))
        if unsure.size:
            best[unsure] = np.argmin(cdist(x[unsure], refs, metric="sqeuclidean"), axis=1)
        labels[lo:lo + step] = best
        # A sequential sum of squares in the order of the dimensions, like cdist's.
        diff = x - refs[best]
        diff *= diff
        d2[lo:lo + step] = np.cumsum(diff, axis=1)[:, -1]
    return labels, d2


def _squared_distances(points: np.ndarray, rows: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """``np.sum((points[rows] - seed) ** 2, axis=1)``, the same sums, in
    row chunks of about _CHUNK_CELLS cells that stay in cache (the
    unchunked expression made seeding 1.3-1.45x slower at 10k x 64,
    C=1024, on a 2-core x86-64 VM)."""
    out = np.empty(rows.size, dtype=np.float64)
    step = max(1, _CHUNK_CELLS // points.shape[1])
    for lo in range(0, rows.size, step):
        diff = points.take(rows[lo:lo + step], axis=0)
        diff -= seed
        diff *= diff
        np.sum(diff, axis=1, out=out[lo:lo + step])
    return out


def _kmeanspp_init(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds (Arthur and Vassilvitskii, 2007), skipping each
    point whose ``closest`` the triangle inequality proves unchanged (see
    the module docstring); ``closest`` equals the unpruned update
    ``np.minimum(closest, np.sum((points - seed) ** 2, axis=1))`` bit for
    bit at every step."""
    n = points.shape[0]
    centroids = np.empty((c, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest = _squared_distances(points, np.arange(n), centroids[0])
    # The seed each point's closest was computed against, and its reach.
    owner = np.zeros(n, dtype=np.int64)
    reach = (np.sqrt(closest) + _REACH_FLOOR) * _REACH_SCALE
    for i in range(1, c):
        total = closest.sum()
        if total <= 0:
            # All remaining mass at distance zero: fall back to uniform choice.
            pick = int(rng.integers(0, n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[i] = points[pick]
        seed = centroids[i]
        sep = np.sqrt(np.sum((centroids[:i] - seed) ** 2, axis=1))
        cand = np.flatnonzero(sep[owner] < reach)
        d2 = _squared_distances(points, cand, seed)
        nearer = d2 < closest[cand]
        moved = cand[nearer]
        closest[moved] = d2[nearer]
        owner[moved] = i
        reach[moved] = (np.sqrt(d2[nearer]) + _REACH_FLOOR) * _REACH_SCALE
    return centroids


def train_codebook(
    descriptors: np.ndarray, c: int, max_iters: int = 50, seed: int = 0
) -> Codebook:
    """Run k-means over the sampled descriptor collection.

    Stops at ``max_iters`` or when the relative distortion improvement
    drops below 1e-6.  Deterministic for a fixed seed.
    """
    points = np.ascontiguousarray(descriptors, dtype=np.float64)
    if points.ndim != 2 or points.size == 0:
        raise TrainingError("training descriptors must be a non-empty (M, D) array")
    if not np.isfinite(points).all():
        raise TrainingError("training descriptors contain non-finite values")
    if np.abs(points).max() > _F32_MAX:
        # Centroids are stored as float32, and the seeding's pruning
        # bound assumes no squared distance overflows.
        raise TrainingError(f"training descriptors exceed the float32 range (|x| > {_F32_MAX:.7g})")
    if c < 1:
        raise TrainingError("codebook size must be >= 1")
    if max_iters < 1:
        raise TrainingError("max_iters must be >= 1")
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

        # Deterministic per-cluster sums: stable sort by label, then segment
        # reduction in ascending original order within each cluster.
        order = np.argsort(labels, kind="stable")
        counts = np.bincount(labels, minlength=c)
        starts = np.zeros(c, dtype=np.int64)
        starts[1:] = np.cumsum(counts)[:-1]
        nonempty = counts > 0
        sums = np.add.reduceat(points[order], starts[nonempty], axis=0)
        new_centroids = centroids.copy()
        new_centroids[nonempty] = sums / counts[nonempty, None]

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
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise DataError("expected a (M, D) descriptor array")
    if vectors.shape[1] != codebook.dim:
        raise DimensionError(
            f"descriptor dimension {vectors.shape[1]} != codebook dimension {codebook.dim}"
        )
    labels, _ = _nearest(vectors, codebook.centroids.astype(np.float64))
    return labels.astype(np.int32)


@dataclass
class WordPartition:
    """Single-assignment grouping of an image's descriptors by visual word."""

    labels: np.ndarray   # (M,) int32
    vectors: np.ndarray  # (M, D) float32, the source descriptors

    @property
    def count(self) -> int:
        return int(self.labels.shape[0])

    def subset(self, indices: np.ndarray) -> "WordPartition":
        return WordPartition(labels=self.labels[indices], vectors=self.vectors[indices])


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
