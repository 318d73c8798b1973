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

``region_aggregates`` is the one loop over regions: it serves both the
regional fold here and regional search in ``ramk.index``.  How a folded
per-word sum is stored is decided by ``kernels._fold_residuals``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, WordPartition, partition
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
    _gamma_from_rows,
    _shared_match_total,
    aggregate,
    check_mode,
    is_regional_mode,
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
        m = re.fullmatch(r"detector:([0-9.eE+-]+)", text)
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
            k = int(m.group(1))
            if k < 0:
                raise ConfigError("topk count must be >= 0")
            return cls(kind="topk", k=k)
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


def assign_to_region(features: ImageFeatures, box: RegionBox) -> np.ndarray:
    """Indices of descriptors whose center lies in the box.

    Closed on the min edges, open on the max edges.
    """
    if features.count == 0:
        return np.empty(0, dtype=np.int64)
    x = features.positions[:, 0]
    y = features.positions[:, 1]
    mask = (x >= box.xmin) & (x < box.xmax) & (y >= box.ymin) & (y < box.ymax)
    return np.flatnonzero(mask)


def region_descriptor_indices(
    features: ImageFeatures, regions: RegionSet, region_index: int
) -> np.ndarray:
    """Descriptors of one region; region 0 covers every descriptor by
    definition (it is the original image, not a box test)."""
    if region_index == 0:
        return np.arange(features.count, dtype=np.int64)
    return assign_to_region(features, regions.boxes[region_index])


def region_aggregates(
    features: ImageFeatures,
    regions: RegionSet,
    codebook: Codebook,
    mode: str,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
    part: WordPartition | None = None,
) -> list[AggregatedRepresentation]:
    """Plain ``mode`` aggregate of every region, in region order.

    Descriptors are quantized once for the image and shared across
    regions.
    """
    if part is None:
        part = partition(codebook, features)
    return [
        aggregate(part.subset(region_descriptor_indices(features, regions, r)), codebook, mode, params)
        for r in range(regions.count)
    ]


def aggregate_regional(
    features: ImageFeatures,
    regions: RegionSet,
    codebook: Codebook,
    mode: str,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
    part: WordPartition | None = None,
) -> AggregatedRepresentation:
    """Fold all regions of an image into one per-word representation.

    Empty regions contribute nothing but still count toward the 1/R
    averaging factor.
    """
    check_mode(mode)
    if not is_regional_mode(mode):
        raise ConfigError(f"aggregate_regional() handles regional modes only, got {mode!r}")
    if regions.count < 1:
        raise DataError("region set must contain at least the whole image")
    # r-asmk-star binarizes after regional averaging, so its regions stay dense.
    base_mode = MODE_ASMK if mode == MODE_R_ASMK_STAR else PLAIN_COUNTERPART[mode]
    words = [np.empty(0, dtype=np.int64)]
    rows = [np.empty((0, codebook.dim))]
    for rep in region_aggregates(features, regions, codebook, base_mode, params, part):
        if rep.gamma != 0.0:
            words.append(rep.words)
            rows.append(rep.gamma * rep.rows.astype(np.float64))
    return _fold_residuals(
        mode, codebook.dim, np.concatenate(words), np.concatenate(rows), params, regions.count
    )


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
    if mode == MODE_R_VLAD:
        rows = plain.gamma * plain.rows.astype(np.float64)
        return _fold_residuals(mode, plain.dim, plain.words, rows, params)
    gamma = _gamma_from_rows(mode, plain.rows, plain.dim, params)
    return AggregatedRepresentation(
        mode=mode, dim=plain.dim, words=plain.words, rows=plain.rows, gamma=gamma
    )


def regional_similarity(
    x_repr: AggregatedRepresentation,
    y_repr: AggregatedRepresentation,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
    normalize: bool = True,
) -> float:
    """Regional kernel similarity; the query side may be in a plain mode
    (lifted automatically) or in the regional one (symmetric comparison).
    With ``normalize`` disabled the raw match sum is returned, which for
    self-similarity equals the populated word count of the asmk family."""
    if not is_regional_mode(y_repr.mode):
        raise ConfigError(f"database side must be regional, got {y_repr.mode!r}")
    if not is_regional_mode(x_repr.mode):
        x_repr = as_regional_query(x_repr, y_repr.mode, params)
    if x_repr.mode != y_repr.mode:
        raise ConfigError(f"mode mismatch: {x_repr.mode!r} vs {y_repr.mode!r}")
    if x_repr.dim != y_repr.dim:
        raise DataError(f"dimension mismatch: {x_repr.dim} vs {y_repr.dim}")
    total = _shared_match_total(x_repr, y_repr, params)
    if normalize:
        return float(x_repr.gamma * y_repr.gamma * total)
    return float(total)
