from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from ramk.codebook import Codebook, codebook_digest, partition, quantize_batch
from ramk.features_io import ImageFeatures, RegionBox, filter_by_attention
from ramk.errors import DimensionError
from ramk.index import RetrievalIndex, _payload_layout
from ramk.kernels import (
    DEFAULT_SELECTIVITY,
    MODE_ASMK,
    MODE_R_ASMK_STAR,
    PLAIN_COUNTERPART,
    AggregatedRepresentation,
    SelectivityParams,
    _fold_residuals,
    _gammas,
    _match_totals,
    _residuals,
    is_binary_mode,
    is_regional_mode,
    is_vlad_family,
    word_match_rows,
)
from ramk.regional import as_regional_query, region_descriptor_indices, select_regions


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


def selectivity(u: float, params: SelectivityParams = DEFAULT_SELECTIVITY) -> float:
    """sign(u) * |u|^alpha when u > tau, else 0, on one Python float: the
    scalar oracle of ``kernels._selectivity_rows``."""
    if u <= params.tau:
        return 0.0
    return math.copysign(abs(u) ** params.alpha, u)


def oracle_kmeanspp_init(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding that recomputes every point's squared distance to
    each new seed: the unpruned oracle of ``codebook._kmeanspp_init``."""
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


def quantize(codebook: Codebook, vector: np.ndarray) -> int:
    """Visual word of a single descriptor, through ``quantize_batch``."""
    return int(quantize_batch(codebook, np.asarray(vector)[None, :])[0])


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
    in ascending word order through ``kernels._gammas``."""
    rows = [entries[word] for word in sorted(entries)]
    return _gammas(mode, np.array(rows), dim, params)[0] if rows else 0.0


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


# Set bits of every byte value: the popcount oracle of the library's
# wide-word ``np.bitwise_count``.
POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


def oracle_word_match_rows(mode: str, a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """``kernels.word_match_rows`` with packed sign rows counted byte by
    byte through ``POPCOUNT``."""
    if is_binary_mode(mode):
        hamming = POPCOUNT[np.bitwise_xor(a, b)].sum(axis=1).astype(np.float64)
        return (float(dim) - 2.0 * hamming) / float(dim)
    return word_match_rows(mode, a, b, dim)


def oracle_entry_scores(index, plain: AggregatedRepresentation) -> np.ndarray:
    """``index.entry_scores`` one query word at a time: each word's posting
    slice is matched by ``oracle_word_match_rows`` and every match goes
    through the selectivity on its own, then ``_match_totals`` adds them
    per entry in ascending word order."""
    regional = is_regional_mode(index.mode)
    q = as_regional_query(plain, index.mode, index.params) if regional else plain
    mode, dim, entry_ids, payload = index.mode, index.dim, index.entry_ids, index.payload
    spans = zip(index.word_ptr[q.words].tolist(), index.word_ptr[q.words + 1].tolist(), q.rows)
    hits = [(a, b, row) for a, b, row in spans if a < b]
    ids = np.concatenate([np.empty(0, dtype=np.uint32)] + [entry_ids[a:b] for a, b, _ in hits])
    u = np.concatenate(
        [np.empty(0)] + [oracle_word_match_rows(mode, payload[a:b], row, dim) for a, b, row in hits]
    )
    sums = _match_totals(mode, u, index.params, ids, index.entry_count)
    if regional and not index.normalize_regional:
        return sums
    return q.gamma * index.gammas * sums


def oracle_build_index(
    manifest,
    codebook: Codebook,
    mode: str,
    strategy,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
    normalize_regional: bool = True,
    attention_min: float | None = None,
) -> RetrievalIndex:
    """``index.build_index`` one image at a time.  Each image is quantized on
    its own and its regions, each the descriptors ``region_descriptor_indices``
    gives, are folded in one ``_fold_residuals`` keyed ``region * C + word``
    with one ``_gammas`` grouped by region; a regional mode then folds the
    gamma-weighted region rows by word, divided by the image's region count.
    The postings are the entries' words stably sorted, entry by entry."""
    c, dim = codebook.size, codebook.dim
    regional = is_regional_mode(mode)
    base = (MODE_ASMK if mode == MODE_R_ASMK_STAR else PLAIN_COUNTERPART[mode]) if regional else mode
    entries, sizes = [], []
    for img in manifest.images:
        features = manifest.load_features(img)
        if attention_min is not None:
            features = filter_by_attention(features, attention_min)
        regions = select_regions(features, strategy)
        part = partition(codebook, features)
        members = [region_descriptor_indices(features, regions, r) for r in range(regions.count)]
        desc = np.concatenate(members)
        region = np.repeat(np.arange(regions.count), [len(m) for m in members])
        keys, stored = _fold_residuals(base, region * c + part.labels[desc], _residuals(part, codebook)[desc])
        gammas = _gammas(base, stored, dim, params, keys // c, regions.count)
        if regional:
            weights = np.asarray(gammas)[keys // c]
            kept = weights != 0.0
            rows = weights[kept, None] * stored[kept].astype(np.float64)
            words, rows = _fold_residuals(mode, keys[kept] % c, rows, np.full(len(rows), regions.count))
            entries.append((words, rows, _gammas(mode, rows, dim, params)[0]))
            sizes.append(1)
        else:
            cuts = np.searchsorted(keys // c, np.arange(1, regions.count))
            entries += zip(np.split(keys % c, cuts), np.split(stored, cuts), gammas)
            sizes.append(regions.count)
    dtype, columns = _payload_layout(mode, dim)
    words = np.concatenate([np.empty(0, np.int64)] + [w for w, _, _ in entries])
    order = np.argsort(words, kind="stable")
    counts = [len(w) for w, _, _ in entries]
    return RetrievalIndex(
        mode=mode,
        params=params,
        normalize_regional=normalize_regional,
        codebook=codebook,
        codebook_hash=codebook_digest(codebook),
        strategy=str(strategy),
        images=[img.image_id for img in manifest.images],
        entry_image=np.repeat(np.arange(len(sizes)), sizes),
        region_index=np.concatenate([np.empty(0, np.int64)] + [np.arange(size) for size in sizes]),
        gammas=np.array([gamma for _, _, gamma in entries], dtype=np.float64),
        word_ptr=np.append(0, np.cumsum(np.bincount(words, minlength=c))),
        entry_ids=np.repeat(np.arange(len(entries), dtype=np.uint32), counts)[order],
        payload=np.concatenate([np.empty((0, columns), dtype)] + [r for _, r, _ in entries])[order],
    )


def random_packed_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """``n`` random packed sign rows of ``dim`` bits, the padding bits past
    ``dim`` clear as stored rows keep them."""
    rows = rng.integers(0, 256, size=(n, (dim + 7) // 8), dtype=np.uint8)
    rows[:, -1] &= np.uint8((1 << (dim % 8 or 8)) - 1)
    return rows


def complement_packed(row: np.ndarray, dim: int) -> np.ndarray:
    """The packed row with each of its ``dim`` sign bits flipped, padding clear."""
    bits = np.unpackbits(row, count=dim, bitorder="little")
    return np.packbits(bits ^ 1, bitorder="little")


def with_first_image_id(data: bytes, ident: bytes) -> bytes:
    """DTRI index bytes ``data`` with entry 0's image id replaced by ``ident``."""
    c, d = struct.unpack_from("<IH", data, 56)  # the last fields of the 62-byte header
    at = 62 + 4 * c * d
    at += 2 + struct.unpack_from("<H", data, at)[0]  # the strategy string
    (n,) = struct.unpack_from("<I", data, at)
    lens_at, ids_at = at + 4, at + 4 + 12 * n  # id_len, region_index, gamma: 12 bytes each
    (old,) = struct.unpack_from("<H", data, lens_at)
    return (
        data[:lens_at] + struct.pack("<H", len(ident)) + data[lens_at + 2 : ids_at]
        + ident + data[ids_at + old :]
    )


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
