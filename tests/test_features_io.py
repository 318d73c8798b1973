"""Feature-file format, manifests, ground truth and the synthetic generator."""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramk.codebook import codebook_digest, save_codebook
from ramk.errors import ConfigError, DataError, DimensionError, FormatError
from ramk.features_io import (
    DatasetManifest,
    GroundTruth,
    ManifestImage,
    QueryGroundTruth,
    RegionBox,
    load_ground_truth,
    load_image_features,
    load_manifest,
    parse_image_features,
    save_ground_truth,
    save_image_features,
    save_manifest,
    serialize_image_features,
    whole_image_box,
    filter_by_attention,
)
from ramk.index import RetrievalIndex, save_index
from ramk.kernels import DEFAULT_SELECTIVITY
from ramk.synthetic import SyntheticConfig, generate_synthetic_dataset

from conftest import make_codebook, make_features, random_boxes


class TestDtrfFormat:
    def test_empty_image_loads(self, tmp_path):
        f = make_features(np.random.default_rng(0), 0, 128)
        save_image_features(f, tmp_path / "empty.dtrf")
        loaded = load_image_features(tmp_path / "empty.dtrf")
        assert loaded.count == 0
        assert loaded.dim == 128
        assert loaded.boxes == []

    def test_dimension_mismatch_against_manifest_dim(self, tmp_path):
        f = make_features(np.random.default_rng(0), 3, 128)
        save_image_features(f, tmp_path / "a.dtrf")
        with pytest.raises(DimensionError):
            load_image_features(tmp_path / "a.dtrf", expected_dim=64)

    def test_exact_byte_count_one_descriptor_one_box(self):
        # header 16 + (4 + D) * 4 per descriptor + 20 per box
        d = 128
        f = make_features(np.random.default_rng(1), 1, d, boxes=[RegionBox(1, 2, 3, 4, 0.5)])
        payload = serialize_image_features(f)
        assert len(payload) == 16 + (4 + d) * 4 + 20

    def test_nan_rejected_nothing_written(self, tmp_path):
        f = make_features(np.random.default_rng(2), 4, 8)
        f.vectors[2, 3] = np.nan
        target = tmp_path / "bad.dtrf"
        with pytest.raises(DataError):
            save_image_features(f, target)
        assert not target.exists()

    def test_bad_magic_names_field(self, tmp_path):
        f = make_features(np.random.default_rng(3), 1, 4)
        payload = bytearray(serialize_image_features(f))
        payload[:4] = b"XXXX"
        with pytest.raises(FormatError, match="magic"):
            parse_image_features(bytes(payload), image_id="x")

    def test_trailing_bytes_rejected(self, tmp_path):
        f = make_features(np.random.default_rng(4), 2, 4)
        payload = serialize_image_features(f) + b"\x00"
        with pytest.raises(FormatError, match="size"):
            parse_image_features(payload, image_id="x")

    def test_truncated_rejected(self):
        f = make_features(np.random.default_rng(5), 2, 4)
        payload = serialize_image_features(f)[:-3]
        with pytest.raises(FormatError):
            parse_image_features(payload, image_id="x")

    def test_order_preserved(self, tmp_path):
        f = make_features(np.random.default_rng(6), 20, 8)
        save_image_features(f, tmp_path / "o.dtrf")
        loaded = load_image_features(tmp_path / "o.dtrf")
        np.testing.assert_array_equal(loaded.vectors, f.vectors)
        np.testing.assert_array_equal(loaded.positions, f.positions)

    def test_zero_dim_field_rejected(self):
        header = struct.pack("<4sHHII", b"DTRF", 1, 0, 0, 0)
        with pytest.raises(FormatError, match="dimensionality"):
            parse_image_features(header, image_id="x")

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=12),
        d=st.integers(min_value=1, max_value=16),
        b=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_byte_stable(self, m, d, b, seed):
        rng = np.random.default_rng(seed)
        f = make_features(rng, m, d, boxes=random_boxes(rng, b, 64, 48))
        payload = serialize_image_features(f)
        loaded = parse_image_features(payload, image_id=f.image_id, width=64, height=48)
        assert serialize_image_features(loaded) == payload
        np.testing.assert_array_equal(loaded.vectors, f.vectors)
        assert len(loaded.boxes) == len(f.boxes)


class TestAttentionFilter:
    def test_threshold_drops_low_scores(self):
        f = make_features(np.random.default_rng(0), 10, 4)
        kept = filter_by_attention(f, 150.0)
        assert kept.count == int((f.attentions >= 150.0).sum())
        assert (kept.attentions >= 150.0).all()


class TestManifest:
    def test_round_trip_and_missing_file(self, tmp_path):
        cfg = SyntheticConfig(landmarks=2, images_per_landmark=2, planted_descriptors=4, clutter_descriptors=4, dim=4)
        manifest = generate_synthetic_dataset(cfg, 5, tmp_path)
        again = load_manifest(tmp_path / "manifest.txt")
        assert again.dim == manifest.dim
        assert again.image_ids() == manifest.image_ids()
        assert again.groundtruth_path == "groundtruth.txt"
        (tmp_path / again.images[0].path).unlink()
        with pytest.raises(DataError, match="missing"):
            load_manifest(tmp_path / "manifest.txt")

    def test_entry_lookup(self, tmp_path):
        cfg = SyntheticConfig(landmarks=2, images_per_landmark=2, planted_descriptors=4, clutter_descriptors=4, dim=4)
        manifest = generate_synthetic_dataset(cfg, 5, tmp_path)
        for img in manifest.images:
            assert manifest.entry(img.image_id) is img
        with pytest.raises(DataError, match="not in manifest") as err:
            manifest.entry("no-such-image")
        assert err.value.exit_code == 3
        first, *rest = manifest.images
        manifest.images = rest  # a new list: the lookup follows it
        with pytest.raises(DataError, match="not in manifest"):
            manifest.entry(first.image_id)
        assert manifest.entry(rest[0].image_id) is rest[0]

    def test_unknown_record_kind_rejected(self, tmp_path):
        (tmp_path / "m.txt").write_text("dataset:x\ndim:4\nbogus:1\n")
        with pytest.raises(FormatError, match="unknown record"):
            load_manifest(tmp_path / "m.txt")

    def test_duplicate_image_id_rejected(self, tmp_path):
        f = make_features(np.random.default_rng(0), 1, 4)
        save_image_features(f, tmp_path / "a.dtrf")
        (tmp_path / "m.txt").write_text(
            "dataset:x\ndim:4\nimage id:a path:a.dtrf\nimage id:a path:a.dtrf\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(tmp_path / "m.txt")


class TestGroundTruthFormat:
    def test_round_trip(self, tmp_path):
        gt = GroundTruth(
            queries={
                "q1": QueryGroundTruth(frozenset({"a", "b"}), frozenset({"c"}), frozenset({"q1"})),
                "q2": QueryGroundTruth(frozenset(), frozenset({"a"}), frozenset()),
            }
        )
        save_ground_truth(gt, tmp_path / "gt.txt")
        loaded = load_ground_truth(tmp_path / "gt.txt")
        assert loaded.queries == gt.queries

    def test_overlapping_sets_rejected(self, tmp_path):
        gt = GroundTruth(
            queries={"q": QueryGroundTruth(frozenset({"a"}), frozenset({"a"}), frozenset())}
        )
        with pytest.raises(DataError, match="disjoint"):
            save_ground_truth(gt, tmp_path / "gt.txt")


def _writers():
    rng = np.random.default_rng(4)
    codebook = make_codebook(rng, 4, 3)
    index = RetrievalIndex(
        mode="asmk", params=DEFAULT_SELECTIVITY, normalize_regional=True, codebook=codebook,
        codebook_hash=codebook_digest(codebook), strategy="whole", entries=[],
        gammas=np.zeros(0), postings={},
    )
    gt = GroundTruth(queries={"q": QueryGroundTruth(frozenset({"a"}), frozenset(), frozenset())})
    manifest = DatasetManifest(name="d", dim=3, images=[ManifestImage("a", "a.dtrf")])
    return {
        "feature file": lambda path: save_image_features(make_features(rng, 5, 3), path),
        "manifest": lambda path: save_manifest(manifest, path),
        "ground truth": lambda path: save_ground_truth(gt, path),
        "codebook": lambda path: save_codebook(codebook, path),
        "index": lambda path: save_index(index, path),
    }


class TestAtomicWrite:
    @pytest.mark.parametrize("what", list(_writers()))
    def test_writes_then_replaces(self, tmp_path, what):
        write = _writers()[what]
        target = tmp_path / "out"
        target.write_bytes(b"old")
        write(target)
        assert target.read_bytes() != b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("what", list(_writers()))
    def test_failed_replace_keeps_old_output(self, tmp_path, monkeypatch, what):
        write = _writers()[what]
        target = tmp_path / "out"
        target.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(DataError, match=f"cannot write {what}") as err:
            write(target)
        assert err.value.exit_code == 3
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_missing_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot write manifest"):
            _writers()["manifest"](tmp_path / "absent" / "manifest.txt")


class TestSyntheticGenerator:
    def test_deterministic_bytes(self, tmp_path):
        cfg = SyntheticConfig(landmarks=2, images_per_landmark=3, planted_descriptors=6, clutter_descriptors=12, dim=6)
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic_dataset(cfg, 11, a)
        generate_synthetic_dataset(cfg, 11, b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_two_by_two_gives_one_positive_per_query(self, tmp_path):
        cfg = SyntheticConfig(landmarks=2, images_per_landmark=2, planted_descriptors=4, clutter_descriptors=4, dim=4)
        generate_synthetic_dataset(cfg, 3, tmp_path)
        gt = load_ground_truth(tmp_path / "groundtruth.txt")
        assert len(gt.queries) == 4
        for rec in gt.queries.values():
            assert len(rec.easy | rec.hard) == 1
            assert len(rec.junk) == 1

    def test_planted_fraction_count_check(self, tmp_path):
        # 90% clutter: planted descriptors must be exactly 10% of each file.
        cfg = SyntheticConfig(landmarks=2, images_per_landmark=2, planted_descriptors=5, clutter_descriptors=45, dim=4)
        manifest = generate_synthetic_dataset(cfg, 9, tmp_path)
        queries = load_manifest(tmp_path / "queries.txt")
        for img in manifest.images:
            db = manifest.load_features(img)
            crop = queries.load_features(img.image_id)
            assert db.count == 50
            assert crop.count == 5  # the crop is exactly the planted content
            # crop descriptors are literally the first (planted) block of the file
            np.testing.assert_array_equal(crop.vectors, db.vectors[:5])

    def test_degenerate_config_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            SyntheticConfig(landmarks=0, images_per_landmark=2).validate()
        with pytest.raises(ConfigError):
            SyntheticConfig(landmarks=1, images_per_landmark=1, dim=0).validate()

    def test_images_declare_dims_and_boxes(self, tmp_path):
        cfg = SyntheticConfig(
            landmarks=1, images_per_landmark=2, planted_descriptors=4,
            clutter_descriptors=4, dim=4, echo_boxes=2, background_boxes=3,
        )
        manifest = generate_synthetic_dataset(cfg, 1, tmp_path)
        f = manifest.load_features(manifest.images[0])
        assert f.width == cfg.image_width and f.height == cfg.image_height
        assert len(f.boxes) == 1 + 2 + 3
        whole = whole_image_box(f)
        assert (whole.xmin, whole.ymin, whole.xmax, whole.ymax) == (0, 0, 640, 480)
