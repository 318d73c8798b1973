"""Deterministic synthetic datasets for desk-scale retrieval experiments.

Each generated image contains one planted landmark instance: descriptors
drawn around a per-landmark archetype set, laid out inside a planted
region by an axis-aligned affine placement, plus background clutter
drawn from a shared archetype pool and scattered outside the planted
region.  The detector is simulated by emitting a noisy copy of the
planted region (optionally misplaced), lower-scoring "echo" duplicates,
and low-scoring background boxes.  Query files are the planted-region
crops, matching the convention that a query is a well-localized
region of interest.

All randomness flows through NumPy's PCG64 bit generator seeded via
``SeedSequence(seed)``; per-image substreams are spawned children of the
root sequence, so outputs are reproducible bit-for-bit for a fixed
(config, seed) pair regardless of how the work is scheduled.  Clutter
positions are rejection samples taken from blocks of (x, y) pairs, one
``uniform`` call each; the stream is then rewound and advanced past just
the pairs a per-point loop draws, so later draws and bytes are that loop's.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .features_io import (
    DatasetManifest,
    GroundTruth,
    ImageFeatures,
    ManifestImage,
    QueryGroundTruth,
    RegionBox,
    save_ground_truth,
    save_image_features,
    save_manifest,
)

logger = logging.getLogger(__name__)

PLANTED_ATTENTION = (50.0, 300.0)
CLUTTER_ATTENTION = (0.0, 150.0)
PLANTED_BOX_SCORE = (0.55, 0.95)
ECHO_BOX_SCORE = (0.35, 0.65)
BACKGROUND_BOX_SCORE = (0.02, 0.28)


# Float fields that are magnitudes or jitter widths; the fractions and the
# miss probability have their own ranges.
_SCALES = ("anchor_scale", "instance_noise", "landmark_offset_scale", "box_noise", "echo_box_noise")


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the generator; counts are exact, not expectations."""

    landmarks: int
    images_per_landmark: int
    planted_descriptors: int = 20
    clutter_descriptors: int = 80
    dim: int = 16
    image_width: int = 640
    image_height: int = 480
    landmark_anchors: int | None = None  # defaults to planted_descriptors
    background_anchors: int = 64
    anchor_scale: float = 4.0
    instance_noise: float = 0.25
    # When set, landmark and background archetypes are drawn from one shared
    # pool of visual patterns: clutter reuses the pool directly and each
    # landmark anchor is a pool pattern plus a landmark-specific offset.
    # Shared patterns make whole-image representations genuinely confusable,
    # the regime region selection is supposed to help with.
    pattern_pool: int | None = None
    landmark_offset_scale: float = 1.0
    # With a pattern pool, landmark identities are offset vectors on top of
    # the shared patterns.  A finite offset pool makes distinct landmarks
    # reuse some (pattern, offset) combinations, i.e. look-alike structures.
    offset_pool: int | None = None
    background_box_min_frac: float = 0.25
    background_box_max_frac: float = 0.7
    min_box_frac: float = 0.35
    max_box_frac: float = 0.55
    box_noise: float = 0.02       # reported-box corner jitter, fraction of box size
    box_coverage: float = 1.0     # reported-box side length, fraction of the true box
    box_miss_prob: float = 0.0    # chance the reported box lands on background
    echo_boxes: int = 2
    echo_box_noise: float = 0.06  # corner jitter of echo detections, fraction of box size
    background_boxes: int = 7

    @property
    def anchors(self) -> int:
        return self.landmark_anchors if self.landmark_anchors is not None else self.planted_descriptors

    def validate(self) -> None:
        if self.landmarks < 1:
            raise ConfigError("landmarks must be >= 1")
        if self.images_per_landmark < 1:
            raise ConfigError("images_per_landmark must be >= 1")
        if self.planted_descriptors < 1:
            raise ConfigError("planted_descriptors must be >= 1")
        if self.clutter_descriptors < 0:
            raise ConfigError("clutter_descriptors must be >= 0")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.image_width < 8 or self.image_height < 8:
            raise ConfigError("image dimensions must be >= 8 pixels")
        if self.anchors < 1 or self.background_anchors < 1:
            raise ConfigError("anchor counts must be >= 1")
        if self.pattern_pool is not None and self.pattern_pool < 1:
            raise ConfigError("pattern_pool must be >= 1 when set")
        if self.offset_pool is not None and self.offset_pool < 1:
            raise ConfigError("offset_pool must be >= 1 when set")
        if not 0.0 < self.background_box_min_frac <= self.background_box_max_frac < 1.0:
            raise ConfigError("background box fractions must satisfy 0 < min <= max < 1")
        if not 0.0 < self.min_box_frac <= self.max_box_frac < 1.0:
            raise ConfigError("box size fractions must satisfy 0 < min <= max < 1")
        if not 0.0 < self.box_coverage <= 1.0:
            raise ConfigError("box_coverage must be in (0, 1]")
        if not 0.0 <= self.box_miss_prob <= 1.0:
            raise ConfigError("box_miss_prob must be in [0, 1]")
        if self.echo_boxes < 0 or self.background_boxes < 0:
            raise ConfigError("echo_boxes/background_boxes must be non-negative")
        for name in _SCALES:
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def _image_id(landmark: int, index: int) -> str:
    return f"L{landmark:03d}_I{index:03d}"


def _clip_box(x0: float, y0: float, x1: float, y1: float, w: float, h: float, score: float) -> RegionBox:
    # min(max(v, lo), hi) is np.clip's pick for finite values, signed zeros included.
    x0 = float(min(max(x0, 0.0), w - 2.0))
    y0 = float(min(max(y0, 0.0), h - 2.0))
    x1 = float(min(max(x1, x0 + 2.0), w))
    y1 = float(min(max(y1, y0 + 2.0), h))
    return RegionBox(x0, y0, x1, y1, float(min(max(score, 0.0), 1.0)))


def _clutter_positions(rng: np.random.Generator, box: RegionBox, w: float, h: float, k: int) -> np.ndarray:
    """``k`` points uniform over the image and outside ``box``: bit for bit
    the pairs ``(rng.uniform(0, w), rng.uniform(0, h))`` that a per-point
    rejection loop keeps, with ``rng`` left where that loop leaves it."""
    bitgen = rng.bit_generator
    out = np.empty((k, 2))
    filled = 0
    while filled < k:
        state = bitgen.state
        pairs = rng.uniform(0.0, (w, h), size=(2 * (k - filled) + 16, 2))
        x, y = pairs[:, 0], pairs[:, 1]
        inside = (box.xmin <= x) & (x < box.xmax) & (box.ymin <= y) & (y < box.ymax)
        kept = np.flatnonzero(~inside)[: k - filled]
        out[filled : filled + len(kept)] = pairs[kept]
        filled += len(kept)
        if filled == k:  # rewind, then skip only the pairs the loop drew
            bitgen.state = state
            bitgen.random_raw(2 * (int(kept[-1]) + 1), output=False)
    return out


def _random_box(rng: np.random.Generator, w: float, h: float, lo: float, hi: float, score: float) -> RegionBox:
    bw = rng.uniform(lo, hi) * w
    bh = rng.uniform(lo, hi) * h
    x0 = rng.uniform(0.0, w - bw)
    y0 = rng.uniform(0.0, h - bh)
    return _clip_box(x0, y0, x0 + bw, y0 + bh, w, h, score)


def _jittered_box(rng: np.random.Generator, base: RegionBox, noise: float, w: float, h: float, score: float) -> RegionBox:
    bw, bh = base.xmax - base.xmin, base.ymax - base.ymin
    jit = rng.normal(0.0, 1.0, size=4)
    return _clip_box(
        base.xmin + jit[0] * noise * bw,
        base.ymin + jit[1] * noise * bh,
        base.xmax + jit[2] * noise * bw,
        base.ymax + jit[3] * noise * bh,
        w,
        h,
        score,
    )


def generate_synthetic_dataset(
    config: SyntheticConfig, seed: int, out_dir: str | Path
) -> DatasetManifest:
    """Write a full synthetic dataset under ``out_dir`` and return its manifest.

    Layout: ``manifest.txt`` (database images, ground truth and query
    manifest referenced from it), ``queries.txt``, ``groundtruth.txt``,
    ``features/<id>.dtrf`` and ``queries/<id>.dtrf``.
    """
    config.validate()
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "queries").mkdir(parents=True, exist_ok=True)

    cfg = config
    w, h = float(cfg.image_width), float(cfg.image_height)
    n_images = cfg.landmarks * cfg.images_per_landmark
    root = np.random.SeedSequence(seed)
    streams = root.spawn(1 + n_images)
    arch_rng = np.random.Generator(np.random.PCG64(streams[0]))

    if cfg.pattern_pool is not None:
        pool = arch_rng.normal(0.0, cfg.anchor_scale, size=(cfg.pattern_pool, cfg.dim))
        which = arch_rng.integers(0, cfg.pattern_pool, size=(cfg.landmarks, cfg.anchors))
        if cfg.offset_pool is not None:
            variants = arch_rng.normal(
                0.0,
                cfg.landmark_offset_scale,
                size=(cfg.pattern_pool, cfg.offset_pool, cfg.dim),
            )
            pick = arch_rng.integers(0, cfg.offset_pool, size=(cfg.landmarks, cfg.anchors))
            offsets = variants[which, pick]
        else:
            offsets = arch_rng.normal(
                0.0, cfg.landmark_offset_scale, size=(cfg.landmarks, cfg.anchors, cfg.dim)
            )
        lm_anchors = pool[which] + offsets
        bg_anchors = pool
    else:
        lm_anchors = arch_rng.normal(
            0.0, cfg.anchor_scale, size=(cfg.landmarks, cfg.anchors, cfg.dim)
        )
        bg_anchors = arch_rng.normal(0.0, cfg.anchor_scale, size=(cfg.background_anchors, cfg.dim))
    # Canonical per-landmark feature layout in the unit square; instances map
    # it into their planted box, so same-landmark pairs are affine-related.
    canonical = arch_rng.uniform(0.05, 0.95, size=(cfg.landmarks, cfg.planted_descriptors, 2))

    db_entries: list[ManifestImage] = []
    query_entries: list[ManifestImage] = []
    gt_queries: dict[str, QueryGroundTruth] = {}

    for lm in range(cfg.landmarks):
        for idx in range(cfg.images_per_landmark):
            image_id = _image_id(lm, idx)
            rng = np.random.Generator(np.random.PCG64(streams[1 + lm * cfg.images_per_landmark + idx]))

            bw = rng.uniform(cfg.min_box_frac, cfg.max_box_frac) * w
            bh = rng.uniform(cfg.min_box_frac, cfg.max_box_frac) * h
            x0 = rng.uniform(0.0, w - bw)
            y0 = rng.uniform(0.0, h - bh)
            true_box = RegionBox(x0, y0, x0 + bw, y0 + bh, 1.0)

            missed = rng.uniform() < cfg.box_miss_prob
            if missed:
                base = _random_box(rng, w, h, cfg.min_box_frac, cfg.max_box_frac, 1.0)
            elif cfg.box_coverage < 1.0:
                cw = rng.uniform(cfg.box_coverage, 1.0) * bw
                ch = rng.uniform(cfg.box_coverage, 1.0) * bh
                ox = rng.uniform(0.0, bw - cw)
                oy = rng.uniform(0.0, bh - ch)
                base = RegionBox(x0 + ox, y0 + oy, x0 + ox + cw, y0 + oy + ch, 1.0)
            else:
                base = true_box
            planted_score = rng.uniform(*PLANTED_BOX_SCORE)
            reported = _jittered_box(rng, base, cfg.box_noise, w, h, planted_score)

            p = cfg.planted_descriptors
            anchor_idx = np.arange(p) % cfg.anchors
            planted_vecs = lm_anchors[lm, anchor_idx] + rng.normal(
                0.0, cfg.instance_noise, size=(p, cfg.dim)
            )
            pos_jitter = rng.normal(0.0, 0.01 * min(bw, bh), size=(p, 2))
            planted_pos = np.empty((p, 2))
            planted_pos[:, 0] = x0 + canonical[lm, :, 0] * bw + pos_jitter[:, 0]
            planted_pos[:, 1] = y0 + canonical[lm, :, 1] * bh + pos_jitter[:, 1]
            planted_pos[:, 0] = np.clip(planted_pos[:, 0], x0 + 0.5, x0 + bw - 0.5)
            planted_pos[:, 1] = np.clip(planted_pos[:, 1], y0 + 0.5, y0 + bh - 0.5)
            planted_att = rng.uniform(*PLANTED_ATTENTION, size=p)
            planted_scale = rng.uniform(1.0, 8.0, size=p)

            k = cfg.clutter_descriptors
            clutter_choice = rng.integers(0, bg_anchors.shape[0], size=k)
            clutter_vecs = bg_anchors[clutter_choice] + rng.normal(
                0.0, cfg.instance_noise, size=(k, cfg.dim)
            )
            # Clutter never lands inside the true planted region, so the
            # planted-descriptor count per image is exact by construction.
            clutter_pos = _clutter_positions(rng, true_box, w, h, k)
            clutter_att = rng.uniform(*CLUTTER_ATTENTION, size=k)
            clutter_scale = rng.uniform(1.0, 8.0, size=k)

            boxes = [reported]
            for _ in range(cfg.echo_boxes):
                boxes.append(
                    _jittered_box(rng, reported, cfg.echo_box_noise, w, h, rng.uniform(*ECHO_BOX_SCORE))
                )
            for _ in range(cfg.background_boxes):
                boxes.append(
                    _random_box(
                        rng,
                        w,
                        h,
                        cfg.background_box_min_frac,
                        cfg.background_box_max_frac,
                        rng.uniform(*BACKGROUND_BOX_SCORE),
                    )
                )

            features = ImageFeatures(
                image_id=image_id,
                vectors=np.concatenate([planted_vecs, clutter_vecs]).astype(np.float32),
                positions=np.concatenate([planted_pos, clutter_pos]).astype(np.float32),
                scales=np.concatenate([planted_scale, clutter_scale]).astype(np.float32),
                attentions=np.concatenate([planted_att, clutter_att]).astype(np.float32),
                boxes=boxes,
                width=cfg.image_width,
                height=cfg.image_height,
            )
            save_image_features(features, out_dir / "features" / f"{image_id}.dtrf")
            db_entries.append(
                ManifestImage(image_id, f"features/{image_id}.dtrf", cfg.image_width, cfg.image_height)
            )

            crop = ImageFeatures(
                image_id=image_id,
                vectors=planted_vecs.astype(np.float32),
                positions=planted_pos.astype(np.float32),
                scales=planted_scale.astype(np.float32),
                attentions=planted_att.astype(np.float32),
                boxes=[reported],
                width=cfg.image_width,
                height=cfg.image_height,
            )
            save_image_features(crop, out_dir / "queries" / f"{image_id}.dtrf")
            query_entries.append(
                ManifestImage(image_id, f"queries/{image_id}.dtrf", cfg.image_width, cfg.image_height)
            )

    for lm in range(cfg.landmarks):
        ids = [_image_id(lm, i) for i in range(cfg.images_per_landmark)]
        for idx, qid in enumerate(ids):
            others = [x for x in ids if x != qid]
            easy = frozenset(others[0::2])
            hard = frozenset(others[1::2])
            gt_queries[qid] = QueryGroundTruth(easy=easy, hard=hard, junk=frozenset({qid}))

    save_ground_truth(GroundTruth(queries=gt_queries), out_dir / "groundtruth.txt")
    queries_manifest = DatasetManifest(
        name="synthetic-queries",
        dim=cfg.dim,
        images=query_entries,
        root=out_dir,
    )
    save_manifest(queries_manifest, out_dir / "queries.txt")
    manifest = DatasetManifest(
        name="synthetic",
        dim=cfg.dim,
        images=db_entries,
        groundtruth_path="groundtruth.txt",
        queries_path="queries.txt",
        root=out_dir,
    )
    save_manifest(manifest, out_dir / "manifest.txt")
    logger.info(
        "generated %d images (%d landmarks x %d), %d descriptors/image, dim %d at %s",
        n_images,
        cfg.landmarks,
        cfg.images_per_landmark,
        cfg.planted_descriptors + cfg.clutter_descriptors,
        cfg.dim,
        out_dir,
    )
    return manifest
