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

``_fold_residuals`` is the one place that knows this storage rule and the
summation order, left to right per key: ``aggregate`` keys one descriptor
set by word, ``ramk.regional`` every region of a block of images by
``region * C + word`` and then the gamma-weighted region rows by ``image *
C + word``, each image's sums divided by its own region count.  A key's sum
reads only that key's rows, in input order, so a block folds each image
exactly as a block of that image alone would.

``_match_totals`` is the one match rule: the selectivity applies to
each raw match of ``word_match_rows`` (none for the vlad family), and
``np.bincount`` adds the matches of each total one after another, in
ascending word order.  The self-match gives gamma, the words two
aggregates share (``np.intersect1d``) give their kernel, and the
inverted file in ``ramk.index`` totals its dense posting matches per
entry through the same function.  Its star-mode form serves the inverted
file's scan of many postings: a packed-sign match is (D - 2h)/D for a
Hamming distance h in 0..D, so ``_binary_selectivity_table`` evaluates
the selectivity once per distance, with the expression and the ``pow``
of ``word_match_rows`` and ``_selectivity_rows``, and a lookup by h gives
every term bit for bit before the same ``np.bincount``.
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
        """Word -> row view, for ``perfbench/spans.py`` only: ``ramk`` never reads it."""
        return dict(zip(self.words.tolist(), self.rows))


def _selectivity_rows(u: np.ndarray, params: SelectivityParams) -> np.ndarray:
    """sign(u) * |u|^alpha where u > tau, else 0, for each value of ``u``.
    The power is Python's float power (the C library's ``pow``): NumPy's
    vectorized power differs from it in the last bit for about one value
    in twenty."""
    out = np.zeros_like(u)
    on = u > params.tau
    powers = np.fromiter(
        map(pow, np.abs(u[on]).tolist(), repeat(params.alpha)), np.float64, count=int(on.sum())
    )
    out[on] = np.copysign(powers, u[on])
    return out


_UINT = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _hamming_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance of each packed sign row of ``a`` to ``b`` (one row,
    or as many rows as ``a``).  Rows are viewed as the widest unsigned
    integers that divide their byte width, so one ``np.bitwise_count``
    covers up to 8 bytes at a time."""
    wide = _UINT[math.gcd(a.shape[-1], 8)]
    x = np.ascontiguousarray(a).view(wide) ^ np.ascontiguousarray(b).view(wide)
    return np.bitwise_count(x).sum(axis=-1)


def _binary_match(hamming: np.ndarray, dim: int) -> np.ndarray:
    """+/-1 inner product of packed sign rows ``hamming`` bits apart,
    scaled by 1/dim: exact, and one of only dim + 1 values."""
    return (float(dim) - 2.0 * hamming) / float(dim)


def _binary_selectivity_table(dim: int, params: SelectivityParams) -> np.ndarray:
    """Selectivity of the binary match at each Hamming distance 0..dim,
    the very values ``_selectivity_rows`` gives those matches one by one."""
    return _selectivity_rows(_binary_match(np.arange(dim + 1), dim), params)


def word_match_rows(mode: str, a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Raw per-word match, before selectivity, of each stored row of ``a``
    against ``b``: one row matched against every row of ``a``, or as many
    rows as ``a`` matched row for row.

    Dense rows match by their float64 inner product, reduced in the order
    of ``np.dot``; packed sign rows by their +/-1 inner product scaled by
    1/dim, which is exact.
    """
    if is_binary_mode(mode):
        return _binary_match(_hamming_rows(a, b), dim)
    b64 = b.astype(np.float64)
    return np.matmul(a.astype(np.float64)[:, None, :], b64[..., None])[:, 0, 0]


def _match_totals(
    mode: str,
    u: np.ndarray,
    params: SelectivityParams,
    groups: np.ndarray | None = None,
    n: int = 1,
) -> np.ndarray:
    """Kernel totals of the raw matches ``u`` (``word_match_rows``): the
    selectivity applies to each match, then ``np.bincount`` adds the
    matches of each of the ``n`` groups one after another in input order,
    starting from 0.0.  Every match is in group 0 unless ``groups`` says
    otherwise."""
    if not is_vlad_family(mode):
        u = _selectivity_rows(u, params)
    if groups is None:
        groups = np.zeros(len(u), dtype=np.intp)
    return np.bincount(groups, weights=u, minlength=n)


def _gammas(
    mode: str, rows: np.ndarray, dim: int, params: SelectivityParams, groups=None, n: int = 1
) -> list[float]:
    """Normalization factor of each of the ``n`` ``_match_totals`` groups of stored ``rows``: the
    inverse square root, by Python's float power, of its self-match total if positive, else 0.0."""
    totals = _match_totals(mode, word_match_rows(mode, rows, rows, dim), params, groups, n)
    return [t ** -0.5 if t > 0.0 else 0.0 for t in totals.tolist()]


def _fold_residuals(
    mode: str, keys: np.ndarray, rows: np.ndarray, divisors: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sum float64 residual ``rows`` per key in input order, left to right:
    ((r0 + r1) + r2) + ..., one vectorized add per position in a key's run.
    Divide each sum by its key's region count (``divisors``, given per row and
    equal across a key's rows; none divides by nothing), store as ``mode`` does
    (float32 rows for vlad, r-vlad and naive-r-asmk, unit float32 rows for asmk
    and r-asmk, their packed signs for the star modes), drop all-zero rows and
    return the rest with their keys, ascending (int64)."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(sk[1:], sk[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.append(starts[1:], len(keys)) - starts
    sums = rows[order[starts]]
    for k in range(1, counts.max(initial=0)):
        live = np.flatnonzero(counts > k)
        sums[live] += rows[order[starts[live] + k]]
    if divisors is not None:
        sums /= divisors[order[starts], None]
    keys = sk[starts]
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
    return keys[keep].astype(np.int64), stored[keep]


def _residuals(part: WordPartition, codebook: Codebook) -> np.ndarray:
    """float64 residual of each descriptor against its word's centroid."""
    dim = codebook.dim
    if part.count and part.vectors.shape[1] != dim:
        raise DimensionError(f"descriptor dimension {part.vectors.shape[1]} != centroid dimension {dim}")
    # The float32 centroid rows promote to float64 exactly.
    return part.vectors.astype(np.float64).reshape(-1, dim) - codebook.centroids[part.labels]


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
    words, rows = _fold_residuals(mode, part.labels, _residuals(part, codebook))
    gamma = _gammas(mode, rows, codebook.dim, params)[0]
    return AggregatedRepresentation(mode, codebook.dim, words, rows, gamma)


def kernel_similarity(
    x_repr: AggregatedRepresentation,
    y_repr: AggregatedRepresentation,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
) -> float:
    """Normalized aggregated-kernel similarity between two images: the
    match total over the words both populate, times both gammas."""
    if x_repr.mode != y_repr.mode:
        raise ConfigError(f"mode mismatch: {x_repr.mode!r} vs {y_repr.mode!r}")
    if x_repr.dim != y_repr.dim:
        raise DimensionError(f"dimension mismatch: {x_repr.dim} vs {y_repr.dim}")
    _, xi, yi = np.intersect1d(x_repr.words, y_repr.words, assume_unique=True, return_indices=True)
    u = word_match_rows(x_repr.mode, x_repr.rows[xi], y_repr.rows[yi], x_repr.dim)
    return float(x_repr.gamma * y_repr.gamma * _match_totals(x_repr.mode, u, params)[0])
