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

An aggregate stores its populated words as one strictly ascending
``words`` array and their entries as the matching ``rows`` of one
array.  Residual accumulation runs in float64 and rows are stored
float32 (or packed sign bits), so tolerances around 1e-6 are
reproducible.  Words whose aggregated residual is exactly zero are
dropped: they can never contribute to any match and per-word
normalization would be undefined for them.

``_fold_residuals`` is the one place that knows this storage rule, for
the plain and the regional modes alike: ``aggregate`` feeds it the
per-word residual sums of one descriptor set, and ``ramk.regional``
feeds it the gamma-weighted sums of per-region aggregates.

``_match_total`` is the one match rule: ``word_match_rows`` pairs rows
up, the selectivity applies to each match, and the matches add up in
ascending word order.  The self-match gives gamma, the words two
aggregates share (``np.intersect1d``) give their kernel, and the
inverted file in ``ramk.index`` applies the same row match and
selectivity to its posting lists.
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


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


@dataclass
class AggregatedRepresentation:
    """Sparse per-word aggregate of one image (or one image region).

    ``words`` holds the populated visual words, strictly ascending
    (int64), and ``rows`` their stored entries, one row per word: a
    float32 residual vector for the dense modes or a bit-packed sign
    pattern (uint8) for the star modes.  ``gamma`` is the
    self-similarity normalization factor; it is 0 for an image with no
    usable words.  ``region_count`` is the number of regions a
    regional-mode aggregate averages over (1 otherwise).
    """

    mode: str
    dim: int
    words: np.ndarray
    rows: np.ndarray
    gamma: float
    region_count: int = 1

    @property
    def word_count(self) -> int:
        return len(self.words)

    @property
    def entries(self) -> dict[int, np.ndarray]:
        """Read-only word -> row view.  It exists for ``perfbench/spans.py``,
        which counts and lists the populated words through it; nothing in
        ``ramk`` reads it."""
        return dict(zip(self.words.tolist(), self.rows))


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


def word_match_rows(mode: str, a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Raw per-word match, before selectivity, of each stored row of ``a``
    against ``b``: one row matched against every row of ``a``, or as many
    rows as ``a`` matched row for row.

    Dense rows match by their float64 inner product, reduced in the order
    of ``np.dot``; packed sign rows by their +/-1 inner product scaled by
    1/dim, which is exact.
    """
    if is_binary_mode(mode):
        hamming = _POPCOUNT[np.bitwise_xor(a, b)].sum(axis=1).astype(np.float64)
        return (float(dim) - 2.0 * hamming) / float(dim)
    b64 = b.astype(np.float64)
    return np.matmul(a.astype(np.float64)[:, None, :], b64[..., None])[:, 0, 0]


def _match_total(
    mode: str, a: np.ndarray, b: np.ndarray, dim: int, params: SelectivityParams
) -> float:
    """Sum of the selective matches of rows ``a`` against ``b``
    (``word_match_rows``), added one after another in row order."""
    if len(a) == 0:
        return 0.0
    u = word_match_rows(mode, a, b, dim)
    if not is_vlad_family(mode):
        u = _selectivity_rows(u, params)
    return float(np.cumsum(u)[-1])


def _gamma_from_rows(mode: str, rows: np.ndarray, dim: int, params: SelectivityParams) -> float:
    """Normalization factor of the stored ``rows`` of a representation:
    the inverse square root of their self-match total."""
    total = _match_total(mode, rows, rows, dim, params)
    if total <= 0.0:
        return 0.0
    return total ** -0.5


def _shared_match_total(
    x_repr: AggregatedRepresentation, y_repr: AggregatedRepresentation, params: SelectivityParams
) -> float:
    """``_match_total`` over the words both representations populate."""
    _, xi, yi = np.intersect1d(x_repr.words, y_repr.words, assume_unique=True, return_indices=True)
    return _match_total(y_repr.mode, x_repr.rows[xi], y_repr.rows[yi], y_repr.dim, params)


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
        # each norm equals np.linalg.norm of that one row bit for bit
        # (einsum and np.linalg.norm(axis=1) sum in other orders).
        norms = np.sqrt(np.matmul(sums[:, None, :], sums[:, :, None])[:, 0, 0])
        keep = norms != 0.0
        unit = sums / np.where(keep, norms, 1.0)[:, None]
        if is_binary_mode(mode):
            stored = np.packbits(unit > 0, axis=1, bitorder="little")
        else:
            stored = unit.astype(np.float32)
    stored = stored[keep]
    return AggregatedRepresentation(
        mode=mode,
        dim=dim,
        words=words[keep].astype(np.int64),
        rows=stored,
        gamma=_gamma_from_rows(mode, stored, dim, params),
        region_count=region_count,
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
    return float(x_repr.gamma * y_repr.gamma * _shared_match_total(x_repr, y_repr, params))
