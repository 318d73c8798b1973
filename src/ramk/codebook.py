"""Visual-word codebook: k-means training and exact nearest-neighbor quantization.

Training is Lloyd's algorithm with k-means++ initialization on the
PCG64 generator, double-precision accumulation in a fixed order, and an
empty-cluster rule that reseeds the dead centroid at the point farthest
from its assigned centroid.  Quantization always returns the exact
argmin of the squared Euclidean distance, breaking ties toward the
lowest centroid index; a descriptor is assigned to exactly one word.

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
from .features_io import ImageFeatures

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


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact squared distances to the nearest centroid; ties pick the lowest index."""
    d2 = cdist(points, centroids, metric="sqeuclidean")
    labels = np.argmin(d2, axis=1)
    return labels.astype(np.int64), d2[np.arange(points.shape[0]), labels]


def _kmeanspp_init(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((c, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, c):
        total = closest.sum()
        if total <= 0:
            # All remaining mass at distance zero: fall back to uniform choice.
            pick = int(rng.integers(0, n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[i] = points[pick]
        closest = np.minimum(closest, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


def train_codebook(
    descriptors: np.ndarray, c: int, max_iters: int = 50, seed: int = 0
) -> Codebook:
    """Run k-means over the sampled descriptor collection.

    Stops at ``max_iters`` or when the relative distortion improvement
    drops below 1e-6.  Deterministic for a fixed seed.
    """
    points = np.ascontiguousarray(descriptors, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise TrainingError("training descriptors must be a non-empty (M, D) array")
    if not np.isfinite(points).all():
        raise TrainingError("training descriptors contain non-finite values")
    if c < 1:
        raise TrainingError("codebook size must be >= 1")
    distinct = np.unique(points, axis=0).shape[0]
    if distinct < c:
        raise TrainingError(f"need at least {c} distinct descriptors, found {distinct}")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    centroids = _kmeanspp_init(points, c, rng)
    history: list[float] = []
    iterations = 0
    for iteration in range(1, max_iters + 1):
        iterations = iteration
        labels, dists = _assign(points, centroids)
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
        sums = np.zeros((c, points.shape[1]), dtype=np.float64)
        if points.shape[0]:
            seg = np.add.reduceat(points[order], starts[nonempty], axis=0)
            sums[nonempty] = seg
        new_centroids = centroids.copy()
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]

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


# Descriptor-chunk size bound for quantization, in distance-matrix cells.
_CHUNK_CELLS = 1 << 22


def quantize_batch(codebook: Codebook, vectors: np.ndarray) -> np.ndarray:
    """Exact nearest visual word per descriptor row (lowest index on ties)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise DataError("expected a (M, D) descriptor array")
    if vectors.shape[1] != codebook.dim:
        raise DimensionError(
            f"descriptor dimension {vectors.shape[1]} != codebook dimension {codebook.dim}"
        )
    m = vectors.shape[0]
    labels = np.empty(m, dtype=np.int32)
    if m == 0:
        return labels
    cents = codebook.centroids.astype(np.float64)
    step = max(1, _CHUNK_CELLS // codebook.size)
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        d2 = cdist(vectors[lo:hi], cents, metric="sqeuclidean")
        labels[lo:hi] = np.argmin(d2, axis=1)
    return labels


def quantize(codebook: Codebook, vector: np.ndarray) -> int:
    """Visual word of a single descriptor (single assignment)."""
    return int(quantize_batch(codebook, np.asarray(vector)[None, :])[0])


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
    payload = serialize_codebook(codebook)
    try:
        Path(path).write_bytes(payload)
    except OSError as exc:
        raise DataError(f"cannot write codebook {path}: {exc}") from exc


def load_codebook(path: str | Path) -> Codebook:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read codebook {path}: {exc}") from exc
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
