"""Region selection and regionally aggregated match kernels.

A database image is described by a set of regions (the whole image is
always region 0) and folded into a single per-word representation: each
region contributes its own aggregate, weighted by that region's
normalization factor, and the per-region contributions are averaged
over the region count R::

    V_R(c) = (1/R) * sum_r gamma(region r) * V(region r, word c)

Modes:

* ``r-vlad``        averaged raw residuals, identity selectivity;
* ``naive-r-asmk``  averaged normalized residuals, no renormalization;
                    degrades with many regions because words observed
                    in few regions end up with heavily shrunken norms;
* ``r-asmk``        naive aggregate renormalized per word, which keeps
                    every populated word at unit strength;
* ``r-asmk-star``   r-asmk with bit-packed sign binarization.

Similarity is asymmetric by default: the query uses its plain
whole-image representation (a query is assumed to be a well-localized
region of interest).  The regional match sum carries no normalization
of its own; an optional per-image factor (same inverse-sqrt
self-similarity rule as the plain kernel) is applied to both sides by
default so scores are comparable across images, and can be disabled to
study the raw kernel.

``_fold_images`` aggregates a block of consecutive images at once: one
quantization, one residual pass, one fold of every (region, word) pair of
the block, left to right per pair, keyed ``block region * C + word``, and one
``_gammas`` grouped by region.  Regional search stores each region's rows as
an entry; a regional mode folds their gamma-weighted rows by ``image * C +
word``, divided by each image's own region count, with one ``_gammas``
grouped by image.  A key's sum reads only its own rows, in input order, and
each gamma only its own group's, so an image's entries are the same bytes in
a block of any size; ``aggregate_regional`` and ``region_aggregates`` are
the block of one image.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from . import codebook as _codebook
from .codebook import Codebook, WordPartition
from .errors import ConfigError, DataError
from .features_io import ImageFeatures, RegionBox, whole_image_box
from .kernels import (
    MODE_ASMK,
    MODE_R_ASMK_STAR,
    MODE_R_VLAD,
    PLAIN_COUNTERPART,
    AggregatedRepresentation,
    DEFAULT_SELECTIVITY,
    SelectivityParams,
    _fold_residuals,
    _gammas,
    _residuals,
    aggregate,  # not called here; perfbench/spans.py wraps this name
    check_mode,
    is_regional_mode,
    kernel_similarity,
)

RMAC_MIN_OVERLAP = 0.4


@dataclass(frozen=True)
class RegionStrategy:
    """How database regions are chosen; parsed from CLI strings.

    ``whole`` | ``detector:<threshold>`` | ``rmac:<levels>`` | ``topk:<k>``
    """

    kind: str
    threshold: float = 0.0
    levels: int = 0
    k: int = 0

    @classmethod
    def parse(cls, text: str) -> "RegionStrategy":
        if text == "whole":
            return cls(kind="whole")
        m = re.fullmatch(r"detector:([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)", text)
        if m:
            t = float(m.group(1))
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"detector threshold {t} outside [0, 1]")
            return cls(kind="detector", threshold=t)
        m = re.fullmatch(r"rmac:([0-9]+)", text)
        if m:
            levels = int(m.group(1))
            if levels not in (1, 2, 3):
                raise ConfigError(f"rmac levels must be 1, 2 or 3, got {levels}")
            return cls(kind="rmac", levels=levels)
        m = re.fullmatch(r"topk:([0-9]+)", text)
        if m:
            return cls(kind="topk", k=int(m.group(1)))
        raise ConfigError(
            f"cannot parse region strategy {text!r}; expected whole, "
            "detector:<threshold>, rmac:<levels> or topk:<k>"
        )

    def __str__(self) -> str:
        if self.kind == "whole":
            return "whole"
        if self.kind == "detector":
            return f"detector:{self.threshold:g}"
        if self.kind == "rmac":
            return f"rmac:{self.levels}"
        return f"topk:{self.k}"


@dataclass
class RegionSet:
    """Ordered regions of one image; index 0 is always the whole image."""

    boxes: list[RegionBox]

    @property
    def count(self) -> int:
        return len(self.boxes)


def _sorted_detector_boxes(boxes: list[RegionBox]) -> list[RegionBox]:
    # Descending score; ties broken by larger area, then input order.
    decorated = [(-b.score, -b.area, i) for i, b in enumerate(boxes)]
    return [boxes[i] for (_, _, i) in sorted(decorated)]


def _rmac_axis_steps(extent: float, side: float) -> list[float]:
    """Left edges of grid squares along one axis with >= 40% overlap."""
    if extent <= side:
        return [0.0]
    span = extent - side
    n = int(np.ceil(span / ((1.0 - RMAC_MIN_OVERLAP) * side))) + 1
    return [span * i / (n - 1) for i in range(n)]


def rmac_grid(width: float, height: float, levels: int) -> list[RegionBox]:
    """Fixed multi-scale grid: at level l, squares of side 2*min(W,H)/(l+1),
    uniformly placed with at least 40% overlap between neighbors, ordered
    level-ascending then row-major."""
    boxes: list[RegionBox] = []
    short = min(width, height)
    for level in range(1, levels + 1):
        side = 2.0 * short / (level + 1)
        xs = _rmac_axis_steps(width, side)
        ys = _rmac_axis_steps(height, side)
        for y0 in ys:
            for x0 in xs:
                boxes.append(
                    RegionBox(x0, y0, min(x0 + side, width), min(y0 + side, height), 1.0)
                )
    return boxes


def select_regions(features: ImageFeatures, strategy: RegionStrategy) -> RegionSet:
    """Apply the region strategy; the whole image is always prepended."""
    whole = whole_image_box(features)
    if strategy.kind == "whole":
        extra: list[RegionBox] = []
    elif strategy.kind == "detector":
        kept = [b for b in features.boxes if b.score >= strategy.threshold]
        extra = _sorted_detector_boxes(kept)
    elif strategy.kind == "topk":
        extra = _sorted_detector_boxes(list(features.boxes))[: strategy.k]
    elif strategy.kind == "rmac":
        extra = rmac_grid(whole.xmax - whole.xmin, whole.ymax - whole.ymin, strategy.levels)
    else:
        raise ConfigError(f"unknown region strategy kind {strategy.kind!r}")
    return RegionSet(boxes=[whole] + extra)


def _box_members(x: np.ndarray, y: np.ndarray, box: RegionBox) -> np.ndarray:
    """Indices of the float64 centers (``x``, ``y``) that lie in the box:
    closed on the min edges, open on the max edges, as ``RegionBox.contains``."""
    return np.flatnonzero((x >= box.xmin) & (x < box.xmax) & (y >= box.ymin) & (y < box.ymax))


def assign_to_region(features: ImageFeatures, box: RegionBox) -> np.ndarray:
    """Indices of descriptors whose center lies in the box, compared in float64."""
    return _box_members(*features.positions.T.astype(np.float64), box)


def region_descriptor_indices(
    features: ImageFeatures, regions: RegionSet, region_index: int
) -> np.ndarray:
    """Descriptors of one region; region 0 covers every descriptor by
    definition (it is the original image, not a box test)."""
    if region_index == 0:
        return np.arange(features.count, dtype=np.int64)
    return assign_to_region(features, regions.boxes[region_index])


def _fold_images(
    images: list[tuple[ImageFeatures, RegionSet]], codebook: Codebook, mode: str, params: SelectivityParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """The ``mode`` entries of a block of images, each given with its regions:
    one entry per image for a regional mode, else one per region, numbered in
    image then region order.  Returns each entry's row count, the words and
    stored rows of all entries, ascending by entry then word, and each
    entry's gamma.  A region holds the descriptors ``region_descriptor_indices``
    gives, from positions converted to float64 once per image; the folds and
    gamma passes are those of the module docstring."""
    c, n = codebook.size, len(images)
    regional = is_regional_mode(mode)
    # r-asmk-star binarizes after regional averaging, so its regions stay dense.
    base_mode = (MODE_ASMK if mode == MODE_R_ASMK_STAR else PLAIN_COUNTERPART[mode]) if regional else mode
    vectors = np.concatenate([features.vectors for features, _ in images])
    part = WordPartition(_codebook.quantize_batch(codebook, vectors), vectors)
    # The block's descriptors of each region, region by region.
    members, offset = [], 0
    for features, regions in images:
        x, y = features.positions.T.astype(np.float64)
        members += [np.arange(offset, offset + features.count)]
        members += [_box_members(x, y, box) + offset for box in regions.boxes[1:]]
        offset += features.count
    desc = np.concatenate(members)
    keys = np.repeat(np.arange(len(members)) * c, [len(m) for m in members]) + part.labels[desc]
    keys, stored = _fold_residuals(base_mode, keys, _residuals(part, codebook)[desc])
    region, words = np.divmod(keys, c)
    gammas = _gammas(base_mode, stored, codebook.dim, params, region, len(members))
    if not regional:
        return np.bincount(region, minlength=len(members)), words, stored, gammas
    weights = np.asarray(gammas)[region]
    kept = weights != 0.0
    regions_per_image = np.array([regions.count for _, regions in images], dtype=np.int64)
    image = np.repeat(np.arange(n), regions_per_image)[region[kept]]
    rows = np.multiply(weights[kept, None], stored[kept], dtype=np.float64)
    keys, stored = _fold_residuals(mode, image * c + words[kept], rows, regions_per_image[image])
    image, words = np.divmod(keys, c)
    return np.bincount(image, minlength=n), words, stored, _gammas(mode, stored, codebook.dim, params, image, n)


def region_aggregates(
    features: ImageFeatures,
    regions: RegionSet,
    codebook: Codebook,
    mode: str,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
) -> list[AggregatedRepresentation]:
    """Plain ``mode`` aggregate of every region, in region order: the entries
    of the image's block of one."""
    if is_regional_mode(check_mode(mode)):
        raise ConfigError(f"region_aggregates() handles plain modes only, got {mode!r}")
    counts, words, stored, gammas = _fold_images([(features, regions)], codebook, mode, params)
    cuts = np.cumsum(counts)[:-1]
    parts = zip(np.split(words, cuts), np.split(stored, cuts), gammas)
    return [AggregatedRepresentation(mode, codebook.dim, w, r, gamma) for w, r, gamma in parts]


def aggregate_regional(
    features: ImageFeatures,
    regions: RegionSet,
    codebook: Codebook,
    mode: str,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
) -> AggregatedRepresentation:
    """Fold all regions of an image into one per-word representation: the
    entry of the image's block of one, whose region rows are weighted by
    their region's gamma, summed by word and averaged over R.

    Empty regions contribute nothing but still count toward the 1/R
    averaging factor.
    """
    check_mode(mode)
    if not is_regional_mode(mode):
        raise ConfigError(f"aggregate_regional() handles regional modes only, got {mode!r}")
    if regions.count < 1:
        raise DataError("region set must contain at least the whole image")
    _, words, stored, gammas = _fold_images([(features, regions)], codebook, mode, params)
    return AggregatedRepresentation(mode, codebook.dim, words, stored, gammas[0], regions.count)


def as_regional_query(
    plain: AggregatedRepresentation,
    mode: str,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
) -> AggregatedRepresentation:
    """Lift a plain whole-image representation to the query side of a
    regional kernel (the asymmetric setting).

    For ``r-vlad`` the residuals absorb the image's own normalization
    factor (a single-region image aggregates to exactly that); for the
    asmk family the per-word unit (or binarized) residuals carry over
    unchanged.
    """
    check_mode(mode)
    if not is_regional_mode(mode):
        raise ConfigError(f"target mode must be regional, got {mode!r}")
    expected = PLAIN_COUNTERPART[mode]
    if plain.mode != expected:
        raise ConfigError(
            f"query representation must be {expected!r} to match database mode {mode!r}, "
            f"got {plain.mode!r}"
        )
    words, rows = plain.words, plain.rows
    if mode == MODE_R_VLAD:
        words, rows = _fold_residuals(mode, words, plain.gamma * rows.astype(np.float64))
    return replace(plain, mode=mode, words=words, rows=rows, gamma=_gammas(mode, rows, plain.dim, params)[0])


def regional_similarity(
    x_repr: AggregatedRepresentation,
    y_repr: AggregatedRepresentation,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
    normalize: bool = True,
) -> float:
    """Regional kernel similarity: ``kernel_similarity`` of the two sides
    once the query side is regional.  The query may be in a plain mode
    (lifted by ``as_regional_query``) or in the regional one (symmetric
    comparison); mode and dimension mismatches raise as in the plain
    kernel.  With ``normalize`` disabled both gammas are taken as 1, so
    the raw match sum is returned, which for self-similarity equals the
    populated word count of the asmk family."""
    if not is_regional_mode(y_repr.mode):
        raise ConfigError(f"database side must be regional, got {y_repr.mode!r}")
    if not is_regional_mode(x_repr.mode):
        x_repr = as_regional_query(x_repr, y_repr.mode, params)
    if not normalize:
        x_repr, y_repr = replace(x_repr, gamma=1.0), replace(y_repr, gamma=1.0)
    return kernel_similarity(x_repr, y_repr, params)
