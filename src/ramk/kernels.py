"""Aggregated match kernels over visual-word residuals.

An image is summarized per visual word by the residual sum of its
descriptors against the word centroid.  The similarity of two images is
a normalized sum over shared words of a selectivity function applied to
the per-word residual match::

    K(X, Y) = gamma(X) * gamma(Y) * sum_c sigma(phi(X_c) . phi(Y_c))

where ``gamma(X) = (sum_c sigma(phi(X_c) . phi(X_c)))^(-1/2)`` makes
self-similarity exactly 1 for the dense modes.  Three plain modes:

* ``vlad``       raw residual sums, sigma is the identity;
* ``asmk``       per-word L2-normalized residuals, sigma is the
                 thresholded polynomial ``sign(u)|u|^alpha`` for u > tau;
* ``asmk-star``  like asmk but residuals binarized to +/-1 and stored
                 bit-packed; the per-word match is the +/-1 inner
                 product scaled by 1/D so its range stays [-1, 1].

Residual accumulation runs in float64 and entries are stored float32
(or packed sign bits), so tolerances around 1e-6 are reproducible.
Words whose aggregated residual is exactly zero are dropped: they can
never contribute to any match and per-word normalization would be
undefined for them.

``_fold_residuals`` is the one place that knows this storage rule, for
the plain and the regional modes alike: ``aggregate`` feeds it the
per-word residual sums of one descriptor set, and ``ramk.regional``
feeds it the gamma-weighted sums of per-region aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .codebook import Codebook, WordPartition
from .errors import ConfigError, DimensionError

MODE_VLAD = "vlad"
MODE_ASMK = "asmk"
MODE_ASMK_STAR = "asmk-star"
MODE_R_VLAD = "r-vlad"
MODE_NAIVE_R_ASMK = "naive-r-asmk"
MODE_R_ASMK = "r-asmk"
MODE_R_ASMK_STAR = "r-asmk-star"

PLAIN_MODES = (MODE_VLAD, MODE_ASMK, MODE_ASMK_STAR)
REGIONAL_MODES = (MODE_R_VLAD, MODE_NAIVE_R_ASMK, MODE_R_ASMK, MODE_R_ASMK_STAR)
ALL_MODES = PLAIN_MODES + REGIONAL_MODES

# Regional mode -> the plain mode a query is aggregated with in the
# asymmetric setting, and the plain mode of per-region sub-aggregates.
PLAIN_COUNTERPART = {
    MODE_R_VLAD: MODE_VLAD,
    MODE_NAIVE_R_ASMK: MODE_ASMK,
    MODE_R_ASMK: MODE_ASMK,
    MODE_R_ASMK_STAR: MODE_ASMK_STAR,
}


def is_regional_mode(mode: str) -> bool:
    return mode in REGIONAL_MODES


def is_binary_mode(mode: str) -> bool:
    return mode in (MODE_ASMK_STAR, MODE_R_ASMK_STAR)


def is_vlad_family(mode: str) -> bool:
    """Modes whose selectivity is the identity function."""
    return mode in (MODE_VLAD, MODE_R_VLAD)


def check_mode(mode: str) -> str:
    if mode not in ALL_MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(ALL_MODES)}")
    return mode


@dataclass(frozen=True)
class SelectivityParams:
    """Exponent and threshold of the polynomial selectivity function."""

    alpha: float = 3.0
    tau: float = 0.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.alpha < math.inf:
            raise ConfigError(f"selectivity alpha must be finite and >= 1, got {self.alpha}")
        if not math.isfinite(self.tau):
            raise ConfigError("selectivity tau must be finite")


DEFAULT_SELECTIVITY = SelectivityParams()


def selectivity(u: float, params: SelectivityParams = DEFAULT_SELECTIVITY) -> float:
    """sign(u) * |u|^alpha when u > tau, else 0."""
    if u <= params.tau:
        return 0.0
    return math.copysign(abs(u) ** params.alpha, u)


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
    return (bits.astype(np.float32) * 2.0 - 1.0)


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


def packed_inner_scaled(a: np.ndarray, b: np.ndarray, dim: int) -> float:
    """Inner product of two packed +/-1 vectors, scaled by 1/dim (exact)."""
    hamming = int(_POPCOUNT[np.bitwise_xor(a, b)].sum())
    return float(dim - 2 * hamming) / float(dim)


def packed_inner_scaled_rows(rows: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Scaled +/-1 inner products of each packed row against packed b."""
    hamming = _POPCOUNT[np.bitwise_xor(rows, b[None, :])].sum(axis=1).astype(np.float64)
    return (float(dim) - 2.0 * hamming) / float(dim)


@dataclass
class AggregatedRepresentation:
    """Sparse per-word aggregate of one image (or one image region).

    ``entries`` maps visual word to a float32 residual vector for the
    dense modes or a bit-packed sign pattern for the star modes.
    ``gamma`` is the self-similarity normalization factor; it is 0 for
    an image with no usable words.  ``region_count`` is the number of
    regions a regional-mode aggregate averages over (1 otherwise).
    """

    mode: str
    dim: int
    entries: dict[int, np.ndarray]
    gamma: float
    region_count: int = 1

    @property
    def word_count(self) -> int:
        return len(self.entries)


def _selectivity_rows(u: np.ndarray, params: SelectivityParams) -> np.ndarray:
    """``selectivity`` of each value of ``u``, bit for bit.  The power is
    Python's float power (the C library's ``pow``): NumPy's vectorized
    power differs from it in the last bit for about one value in twenty."""
    out = np.zeros_like(u)
    on = u > params.tau
    powers = np.fromiter(
        map(pow, np.abs(u[on]).tolist(), repeat(params.alpha)), np.float64, count=int(on.sum())
    )
    out[on] = np.copysign(powers, u[on])
    return out


def _gamma_from_rows(mode: str, rows: np.ndarray, params: SelectivityParams) -> float:
    """Normalization factor of a representation whose stored entries are
    ``rows``, in ascending word order: the inverse square root of the
    self-match sum.  The sum is sequential in word order."""
    if len(rows) == 0:
        return 0.0
    if is_binary_mode(mode):
        u = np.ones(len(rows))
    else:
        v = np.asarray(rows, dtype=np.float64)
        # matmul reduces a row against itself in the order of np.dot.
        u = np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]
    if not is_vlad_family(mode):
        u = _selectivity_rows(u, params)
    total = float(np.cumsum(u)[-1])
    if total <= 0.0:
        return 0.0
    return total ** -0.5


def gamma_from_entries(
    mode: str, entries: dict[int, np.ndarray], dim: int, params: SelectivityParams
) -> float:
    """Normalization factor of a word -> entry map (``_gamma_from_rows``)."""
    return _gamma_from_rows(mode, [entries[word] for word in sorted(entries)], params)


def _fold_residuals(
    mode: str,
    dim: int,
    words: np.ndarray,
    rows: np.ndarray,
    params: SelectivityParams,
    region_count: int = 1,
) -> AggregatedRepresentation:
    """Sum float64 residual ``rows`` per word, average them over
    ``region_count`` and store the result the way ``mode`` stores entries.

    Rows of one word are added in their input order (stable sort, then
    one sequential ``np.add.reduceat``).  Stored are float32 rows for
    vlad, r-vlad and naive-r-asmk, unit float32 rows for asmk and r-asmk,
    and packed signs of the unit rows for the star modes.  All-zero rows
    are dropped.
    """
    order = np.argsort(words, kind="stable")
    words = words[order]
    starts = np.flatnonzero(np.diff(words, prepend=-1))
    sums = np.add.reduceat(rows[order], starts, axis=0) / region_count
    words = words[starts]
    if mode in (MODE_VLAD, MODE_R_VLAD, MODE_NAIVE_R_ASMK):
        stored = sums.astype(np.float32)
        keep = stored.any(axis=1)
    else:
        # matmul reduces a row against itself in the order of np.dot, so
        # the norms equal normalize_residual's bit for bit (einsum and
        # np.linalg.norm(axis=1) sum in other orders).
        norms = np.sqrt(np.matmul(sums[:, None, :], sums[:, :, None])[:, 0, 0])
        keep = norms != 0.0
        unit = sums / np.where(keep, norms, 1.0)[:, None]
        if is_binary_mode(mode):
            stored = np.packbits(unit > 0, axis=1, bitorder="little")
        else:
            stored = unit.astype(np.float32)
    stored = stored[keep]
    entries = dict(zip(words[keep].tolist(), stored))
    gamma = _gamma_from_rows(mode, stored, params)
    return AggregatedRepresentation(
        mode=mode, dim=dim, entries=entries, gamma=gamma, region_count=region_count
    )


def aggregate(
    part: WordPartition,
    codebook: Codebook,
    mode: str,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
) -> AggregatedRepresentation:
    """Fold a quantized descriptor set into its per-word representation."""
    check_mode(mode)
    if is_regional_mode(mode):
        raise ConfigError(f"aggregate() handles plain modes only, got {mode!r}")
    dim = codebook.dim
    if part.count and part.vectors.shape[1] != dim:
        raise DimensionError(
            f"descriptor dimension {part.vectors.shape[1]} != centroid dimension {dim}"
        )
    centroids = codebook.centroids.astype(np.float64)
    residuals = part.vectors.astype(np.float64).reshape(-1, dim) - centroids[part.labels]
    return _fold_residuals(mode, dim, part.labels, residuals, params)


def word_match(
    mode: str, x_vec: np.ndarray, y_vec: np.ndarray, dim: int
) -> float:
    """Raw per-word match value before selectivity."""
    if is_binary_mode(mode):
        return packed_inner_scaled(x_vec, y_vec, dim)
    return float(np.dot(x_vec.astype(np.float64), y_vec.astype(np.float64)))


def word_match_rows(mode: str, rows: np.ndarray, y_vec: np.ndarray, dim: int) -> np.ndarray:
    """``word_match`` of each stored row against ``y_vec``, bit for bit."""
    if is_binary_mode(mode):
        return packed_inner_scaled_rows(rows, y_vec, dim)
    # matmul reduces each row against y in the order of np.dot.
    y = y_vec.astype(np.float64)
    return np.matmul(rows.astype(np.float64)[:, None, :], y[:, None])[:, 0, 0]


def match_sum(
    mode: str,
    x_entries: dict[int, np.ndarray],
    y_entries: dict[int, np.ndarray],
    dim: int,
    params: SelectivityParams,
) -> float:
    """Sum of selective per-word matches over the shared words."""
    total = 0.0
    for word in sorted(x_entries.keys() & y_entries.keys()):
        u = word_match(mode, x_entries[word], y_entries[word], dim)
        total += u if is_vlad_family(mode) else selectivity(u, params)
    return total


def kernel_similarity(
    x_repr: AggregatedRepresentation,
    y_repr: AggregatedRepresentation,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
) -> float:
    """Normalized aggregated-kernel similarity between two images."""
    if x_repr.mode != y_repr.mode:
        raise ConfigError(f"mode mismatch: {x_repr.mode!r} vs {y_repr.mode!r}")
    if x_repr.dim != y_repr.dim:
        raise DimensionError(f"dimension mismatch: {x_repr.dim} vs {y_repr.dim}")
    total = match_sum(x_repr.mode, x_repr.entries, y_repr.entries, x_repr.dim, params)
    return float(x_repr.gamma * y_repr.gamma * total)
