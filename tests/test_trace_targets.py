"""The benchmark's span wrappers find every library name they wrap.

``perfbench/spans.py`` wraps ``ramk`` functions by ``module:attribute``
and reports a name that no longer resolves as ``trace.missing_wrappers``
instead of failing the run.  These tests fail instead, so a refactor that
moves a wrapped name, or stops calling it where it is wrapped, shows here.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from ramk import index as index_module
from ramk.codebook import train_codebook
from ramk.regional import RegionStrategy
from ramk.synthetic import SyntheticConfig, generate_synthetic_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import TARGETS, Tracer  # noqa: E402


@pytest.mark.parametrize("target", [target for target, _, _ in TARGETS])
def test_every_target_resolves(target):
    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_traced_build_sees_every_image_and_descriptor(tmp_path):
    cfg = SyntheticConfig(landmarks=3, images_per_landmark=3, planted_descriptors=8,
                          clutter_descriptors=24, dim=8, background_boxes=3, echo_boxes=1)
    manifest = generate_synthetic_dataset(cfg, 5, tmp_path)
    features = [manifest.load_features(img) for img in manifest.images]
    codebook = train_codebook(np.concatenate([f.vectors for f in features]), 16, max_iters=3, seed=1)
    tracer = Tracer()
    tracer.install()
    try:
        index_module.build_index(manifest, codebook, "r-asmk-star", RegionStrategy.parse("detector:0.4"))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.counts[("setup", "features_io.loads")] == len(features)
    assert tracer.counts[("setup", "codebook.descriptors_quantized")] == sum(f.count for f in features)
    assert len(tracer.samples["regional.regions_per_image"]) == len(features)
    names = [name for name, *_ in tracer.spans]
    assert names[0] == "index.assemble" and {"codebook.quantize", "regional.select"} <= set(names)
