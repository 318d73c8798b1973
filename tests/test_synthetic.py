"""The synthetic generator's block draws against the per-value loops they replace.

``scalar_clutter_positions`` and ``np_clip_box`` are the generator's former
per-point rejection loop and ``np.clip`` box clipping, kept here as oracles:
the generator must give the same values bit for bit and leave its PCG64
stream where the oracles leave it, so every corpus byte stays the same.
"""

from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np
import pytest

from ramk import synthetic
from ramk.features_io import RegionBox
from ramk.synthetic import SyntheticConfig, _clip_box, _clutter_positions, generate_synthetic_dataset

W, H = 640.0, 480.0


def scalar_clutter_positions(rng: np.random.Generator, box: RegionBox, w: float, h: float, k: int) -> np.ndarray:
    """One ``(uniform(0, w), uniform(0, h))`` pair per try until the point is outside ``box``."""
    out = np.empty((k, 2))
    for j in range(k):
        while True:
            cx, cy = rng.uniform(0.0, w), rng.uniform(0.0, h)
            if not box.contains(cx, cy):
                out[j] = (cx, cy)
                break
    return out


def np_clip_box(x0: float, y0: float, x1: float, y1: float, w: float, h: float, score: float) -> RegionBox:
    x0 = float(np.clip(x0, 0.0, w - 2.0))
    y0 = float(np.clip(y0, 0.0, h - 2.0))
    x1 = float(np.clip(x1, x0 + 2.0, w))
    y1 = float(np.clip(y1, y0 + 2.0, h))
    return RegionBox(x0, y0, x1, y1, float(np.clip(score, 0.0, 1.0)))


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def box_bits(box: RegionBox) -> bytes:
    return bits([box.xmin, box.ymin, box.xmax, box.ymax, box.score])


def first_pair(seed: int) -> tuple[float, float]:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(0.0, W), rng.uniform(0.0, H)


def frac_box(fx0: float, fy0: float, fx1: float, fy1: float) -> RegionBox:
    return RegionBox(fx0 * W, fy0 * H, fx1 * W, fy1 * H, 1.0)


class TestClutterPositions:
    # Pick the point cases by seed so that a box edge can sit exactly on the
    # first drawn point: closed min edges reject it, open max edges keep it.
    X0, Y0 = first_pair(21)

    @pytest.mark.parametrize(
        "box,k,seed",
        [
            (frac_box(0.2, 0.3, 0.7, 0.8), 0, 1),
            (frac_box(0.2, 0.3, 0.7, 0.8), 1, 2),
            (frac_box(0.2, 0.3, 0.7, 0.8), 300, 3),
            (RegionBox(100.0, 100.0, 100.5, 100.25, 1.0), 64, 4),  # tiny box
            # Most points fall inside: a block of 2 * need + 16 pairs keeps
            # ~14% of them, so the set takes several blocks.
            (frac_box(0.03, 0.02, 0.93, 0.97), 80, 5),
            (frac_box(0.0, 0.0, 0.6, 1.0), 50, 6),  # touches the left, top and bottom edges
            (frac_box(0.3, 0.0, 1.0, 0.7), 50, 7),  # touches the right and top edges
            (RegionBox(0.0, 0.0, W, H - 1.0, 1.0), 5, 8),  # only a 1-pixel strip is outside
            (RegionBox(X0, Y0, X0 + 50.0, Y0 + 50.0, 1.0), 10, 21),  # first point on the min corner
            (RegionBox(X0 - 50.0, Y0 - 50.0, X0, Y0 + 1.0, 1.0), 10, 21),  # on the max x edge
            (RegionBox(X0 - 50.0, Y0 - 50.0, X0 + 1.0, Y0, 1.0), 10, 21),  # on the max y edge
        ],
    )
    @pytest.mark.parametrize("lead", [0, 3])
    def test_same_positions_and_stream_as_the_scalar_loop(self, box, k, seed, lead):
        # ``lead`` odd 32-bit draws leave a buffered half word in the bit
        # generator, as the generator's clutter anchor draw can.
        block = np.random.Generator(np.random.PCG64(seed))
        loop = np.random.Generator(np.random.PCG64(seed))
        for rng in (block, loop):
            rng.integers(0, 64, size=lead)
        got = _clutter_positions(block, box, W, H, k)
        want = scalar_clutter_positions(loop, box, W, H, k)
        assert got.shape == want.shape == (k, 2)
        assert got.tobytes() == want.tobytes()
        assert block.bit_generator.state == loop.bit_generator.state
        assert block.random(16).tobytes() == loop.random(16).tobytes()

    def test_edge_cases_are_hit(self):
        # The edge cases above rely on the first point lying on a box edge.
        box = RegionBox(self.X0, self.Y0, self.X0 + 50.0, self.Y0 + 50.0, 1.0)
        assert box.contains(self.X0, self.Y0)
        assert not RegionBox(self.X0 - 50.0, self.Y0 - 50.0, self.X0, self.Y0 + 1.0, 1.0).contains(
            self.X0, self.Y0
        )

    def test_points_lie_outside_the_box(self):
        box = frac_box(0.03, 0.02, 0.93, 0.97)
        points = _clutter_positions(np.random.Generator(np.random.PCG64(9)), box, W, H, 200)
        assert not any(box.contains(x, y) for x, y in points.tolist())
        assert ((points >= 0.0) & (points < (W, H))).all()


class TestClipBox:
    EDGES = [-0.0, 0.0, 1.0, 2.0, W - 2.0, W, H - 2.0, H, -1.0, W + 1.0, 0.5, 1.5]

    @pytest.mark.parametrize(
        "v,lo,hi",
        [(-0.0, 0.0, 5.0), (0.0, -0.0, 5.0), (-0.0, -0.0, 0.0), (0.0, -5.0, -0.0), (-0.0, -5.0, 0.0),
         (5.0, 0.0, 5.0), (0.0, 0.0, 5.0), (3.0, 3.0, 3.0), (-7.0, 0.0, 5.0), (9.0, 0.0, 5.0)],
    )
    def test_min_max_picks_the_np_clip_operand(self, v, lo, hi):
        assert bits([min(max(v, lo), hi)]) == bits([float(np.clip(v, lo, hi))])

    def test_min_max_on_random_values(self):
        rng = np.random.default_rng(0)
        v, a, b = rng.normal(0.0, 100.0, size=(3, 2000))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        got = [min(max(x, l), u) for x, l, u in zip(v.tolist(), lo.tolist(), hi.tolist())]
        want = [float(np.clip(x, l, u)) for x, l, u in zip(v.tolist(), lo.tolist(), hi.tolist())]
        assert bits(got) == bits(want)

    def test_clip_box_matches_np_clip(self):
        rng = np.random.default_rng(1)
        cases = [(x0, y0, x1, y1, s) for x0 in self.EDGES[:6] for y0 in self.EDGES[6:] for x1, y1, s in
                 [(W, H, 1.0), (-0.0, -0.0, -0.0), (x0 + 2.0, y0 + 2.0, 0.0), (x0 + 1.0, H + 3.0, 1.5)]]
        cases += [tuple(row) for row in rng.normal(0.0, 400.0, size=(500, 5)).tolist()]
        # numpy scalars, as the jittered boxes pass them
        cases += [tuple(np.float64(v) for v in row) for row in rng.normal(0.0, 400.0, size=(50, 5))]
        for x0, y0, x1, y1, s in cases:
            want = np_clip_box(x0, y0, x1, y1, W, H, s)
            assert box_bits(_clip_box(x0, y0, x1, y1, W, H, s)) == box_bits(want)


def corpus_bytes(root) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# CLUTTERED of the acceptance suite and the benchmark, on fewer landmarks.
CLUTTERED_SHAPE = SyntheticConfig(
    landmarks=4, images_per_landmark=6, planted_descriptors=16, clutter_descriptors=64, dim=32,
    pattern_pool=12, offset_pool=6, landmark_offset_scale=1.2, instance_noise=0.9,
    box_coverage=0.8, box_miss_prob=0.15, box_noise=0.03, echo_boxes=2, echo_box_noise=0.25,
    background_boxes=12, background_box_min_frac=0.05, background_box_max_frac=0.15,
)


@pytest.mark.parametrize(
    "cfg,seed",
    [
        (CLUTTERED_SHAPE, 1812),
        (CLUTTERED_SHAPE, 5),
        (replace(CLUTTERED_SHAPE, box_miss_prob=1.0), 3),
        (SyntheticConfig(landmarks=3, images_per_landmark=2, min_box_frac=0.9, max_box_frac=0.95,
                         clutter_descriptors=40, dim=8), 11),
        (SyntheticConfig(landmarks=2, images_per_landmark=2, clutter_descriptors=0, dim=4), 2),
    ],
)
def test_corpus_bytes_equal_the_oracle_generator(tmp_path, monkeypatch, cfg, seed):
    generate_synthetic_dataset(cfg, seed, tmp_path / "block")
    monkeypatch.setattr(synthetic, "_clutter_positions", scalar_clutter_positions)
    monkeypatch.setattr(synthetic, "_clip_box", np_clip_box)
    generate_synthetic_dataset(cfg, seed, tmp_path / "oracle")
    got, want = corpus_bytes(tmp_path / "block"), corpus_bytes(tmp_path / "oracle")
    assert len(want) == 3 + 2 * cfg.landmarks * cfg.images_per_landmark
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name
