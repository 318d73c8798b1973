from __future__ import annotations

import numpy as np
import pytest

from ramk.codebook import Codebook
from ramk.features_io import ImageFeatures, RegionBox
from ramk.kernels import SelectivityParams, is_binary_mode, is_vlad_family, selectivity


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
