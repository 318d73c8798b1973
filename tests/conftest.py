from __future__ import annotations

import numpy as np
import pytest

from ramk.codebook import Codebook
from ramk.features_io import ImageFeatures, RegionBox
from ramk.errors import DimensionError
from ramk.kernels import (
    SelectivityParams,
    _gamma_from_rows,
    is_binary_mode,
    is_vlad_family,
    selectivity,
)


def make_features(
    rng: np.random.Generator,
    m: int,
    d: int,
    width: int = 64,
    height: int = 48,
    boxes: list[RegionBox] | None = None,
    image_id: str = "img",
) -> ImageFeatures:
    """Random valid feature set with positions strictly inside the image."""
    return ImageFeatures(
        image_id=image_id,
        vectors=rng.normal(0, 1, size=(m, d)).astype(np.float32),
        positions=np.stack(
            [
                rng.uniform(0, width - 1e-3, size=m),
                rng.uniform(0, height - 1e-3, size=m),
            ],
            axis=1,
        ).astype(np.float32),
        scales=rng.uniform(0.5, 8.0, size=m).astype(np.float32),
        attentions=rng.uniform(0.0, 300.0, size=m).astype(np.float32),
        boxes=list(boxes or []),
        width=width,
        height=height,
    )


def make_codebook(rng: np.random.Generator, c: int, d: int) -> Codebook:
    return Codebook(centroids=rng.normal(0, 1, size=(c, d)).astype(np.float32))


# Per-word reference operations.  The library works on whole arrays of
# rows; these take one word at a time and are the oracles its array
# code is compared against.


def vlad_residual(vectors: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Sum of (descriptor - centroid) over descriptors assigned to one word.

    Empty input yields the zero vector.  Computed and returned in float64.
    """
    centroid = np.asarray(centroid, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.size == 0:
        return np.zeros_like(centroid)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    if vectors.shape[1] != centroid.shape[0]:
        raise DimensionError(
            f"descriptor dimension {vectors.shape[1]} != centroid dimension {centroid.shape[0]}"
        )
    return np.sum(vectors - centroid[None, :], axis=0)


def normalize_residual(v: np.ndarray) -> np.ndarray | None:
    """Unit-norm copy of v, or None for the zero vector (word is dropped)."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return None
    return v / norm


def binarize(v: np.ndarray) -> np.ndarray:
    """Elementwise +1 for positive components, -1 otherwise (zero maps to -1)."""
    v = np.asarray(v)
    return np.where(v > 0, 1.0, -1.0).astype(np.float32)


def pack_signs(v: np.ndarray) -> np.ndarray:
    """Bit-pack the sign pattern of v (+1 bits for positive components)."""
    bits = (np.asarray(v) > 0).astype(np.uint8)
    return np.packbits(bits, bitorder="little")


def unpack_signs(packed: np.ndarray, dim: int) -> np.ndarray:
    bits = np.unpackbits(np.asarray(packed, dtype=np.uint8), count=dim, bitorder="little")
    return bits.astype(np.float32) * 2.0 - 1.0


def packed_inner_scaled(a: np.ndarray, b: np.ndarray, dim: int) -> float:
    """Inner product of two packed +/-1 vectors, scaled by 1/dim (exact)."""
    hamming = int(sum(bin(x).count("1") for x in np.bitwise_xor(a, b).tolist()))
    return float(dim - 2 * hamming) / float(dim)


def word_match(mode: str, x_vec: np.ndarray, y_vec: np.ndarray, dim: int) -> float:
    """Raw per-word match value before selectivity."""
    if is_binary_mode(mode):
        return packed_inner_scaled(x_vec, y_vec, dim)
    return float(np.dot(x_vec.astype(np.float64), y_vec.astype(np.float64)))


def match_sum(
    mode: str,
    x_entries: dict[int, np.ndarray],
    y_entries: dict[int, np.ndarray],
    dim: int,
    params: SelectivityParams,
) -> float:
    """Sum of selective per-word matches over the shared words, a running
    Python sum in ascending word order."""
    total = 0.0
    for word in sorted(x_entries.keys() & y_entries.keys()):
        u = word_match(mode, x_entries[word], y_entries[word], dim)
        total += u if is_vlad_family(mode) else selectivity(u, params)
    return total


def gamma_from_entries(
    mode: str, entries: dict[int, np.ndarray], dim: int, params: SelectivityParams
) -> float:
    """The library's normalization factor of a word -> entry map: its rows
    in ascending word order through ``kernels._gamma_from_rows``."""
    return _gamma_from_rows(mode, np.array([entries[word] for word in sorted(entries)]), dim, params)


def oracle_gamma(mode: str, entries: dict[int, np.ndarray], params: SelectivityParams) -> float:
    """Normalization factor one word at a time: a self-match of 1 per word
    for the star modes, a float64 ``np.dot`` self-product otherwise, the
    scalar ``selectivity`` (identity for the vlad family) and a running
    Python sum in ascending word order."""
    total = 0.0
    for word in sorted(entries):
        if is_binary_mode(mode):
            u = 1.0
        else:
            v = entries[word].astype(np.float64)
            u = float(np.dot(v, v))
        total += u if is_vlad_family(mode) else selectivity(u, params)
    if total <= 0.0:
        return 0.0
    return total ** -0.5


def random_boxes(rng: np.random.Generator, n: int, width: int, height: int) -> list[RegionBox]:
    boxes = []
    for _ in range(n):
        x0 = rng.uniform(0, width * 0.6)
        y0 = rng.uniform(0, height * 0.6)
        x1 = rng.uniform(x0 + 2, width)
        y1 = rng.uniform(y0 + 2, height)
        boxes.append(RegionBox(float(x0), float(y0), float(x1), float(y1), float(rng.uniform(0, 1))))
    return boxes


@pytest.fixture(scope="session")
def session_rng() -> np.random.Generator:
    return np.random.default_rng(20240607)
