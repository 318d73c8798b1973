"""Feature-file format, manifests, ground truth and the synthetic generator."""

from __future__ import annotations

import dataclasses
import math
import os
import re
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
    _check_identifier,
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


class TestBoxParse:
    def test_boxes_hold_the_float32_values_as_floats(self):
        boxes = [
            RegionBox(0.1, 0.2, 10.3, 20.7, 0.33),
            RegionBox(1 / 3, 2 / 3, 40.1, 47.9, 1.0),
            RegionBox(0.0, 0.0, 64.0, 48.0, 0.0),
        ]
        f = make_features(np.random.default_rng(8), 5, 4, boxes=boxes)
        loaded = parse_image_features(serialize_image_features(f), image_id="img", width=64, height=48)
        want = [tuple(float(np.float32(v)) for v in dataclasses.astuple(b)) for b in boxes]
        got = [dataclasses.astuple(b) for b in loaded.boxes]
        assert got == want
        assert all(type(v) is float for row in got for v in row)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((5.0, 1.0, 3.0, 4.0, 0.5), "degenerate box (xmin < xmax, ymin < ymax required): (5.0, 1.0, 3.0, 4.0, 0.5)"),
            ((1.0, 2.0, 3.0, 4.0, 1.1), "box score 1.100000023841858 outside [0, 1]"),
            ((np.nan, 2.0, 3.0, 4.0, 0.5), "box has non-finite coordinates: (nan, 2.0, 3.0, 4.0, 0.5)"),
        ],
    )
    def test_first_invalid_box_is_format_error_naming_its_values(self, bad, message):
        f = make_features(np.random.default_rng(9), 2, 4, boxes=[RegionBox(1.0, 2.0, 3.0, 4.0, 0.5)] * 3)
        payload = bytearray(serialize_image_features(f))
        first = len(payload) - 3 * 20
        payload[first + 20 : first + 40] = np.array(bad, dtype="<f4").tobytes()
        payload[first + 40 :] = np.array([7.0, 7.0, 1.0, 1.0, 2.0], dtype="<f4").tobytes()
        with pytest.raises(FormatError) as exc:
            parse_image_features(bytes(payload), image_id="x", source="s.dtrf")
        assert str(exc.value) == f"s.dtrf: {message}"


def with_boxes(rows) -> bytes:
    """A DTRF payload whose box records hold ``rows`` as float32, bad
    values included (``serialize_image_features`` would reject them)."""
    f = make_features(np.random.default_rng(10), 3, 4, boxes=[RegionBox(1.0, 2.0, 3.0, 4.0, 0.5)] * len(rows))
    payload = bytearray(serialize_image_features(f))
    payload[len(payload) - 20 * len(rows) :] = np.array(rows, dtype="<f4").tobytes()
    return bytes(payload)


def per_box_error(rows) -> str | None:
    """The message of the first box that fails one of the three checks of
    ``RegionBox.validate`` (finite, not degenerate, score in [0, 1]), each
    made on its own as ``validate`` made them before its one-chain pass."""
    for vals in np.array(rows, dtype="<f4").reshape(-1, 5).tolist():
        xmin, ymin, xmax, ymax, score = vals = tuple(vals)
        if not all(math.isfinite(v) for v in vals):
            return f"box has non-finite coordinates: {vals}"
        if not (xmin < xmax and ymin < ymax):
            return f"degenerate box (xmin < xmax, ymin < ymax required): {vals}"
        if not 0.0 <= score <= 1.0:
            return f"box score {score} outside [0, 1]"
    return None


BAD_BOXES = [
    ((5.0, 1.0, 3.0, 4.0, 0.5), "degenerate box (xmin < xmax, ymin < ymax required): (5.0, 1.0, 3.0, 4.0, 0.5)"),
    ((1.0, 4.0, 3.0, 4.0, 0.5), "degenerate box (xmin < xmax, ymin < ymax required): (1.0, 4.0, 3.0, 4.0, 0.5)"),
    ((1.0, 2.0, 3.0, 4.0, -0.5), "box score -0.5 outside [0, 1]"),
    ((1.0, 2.0, 3.0, 4.0, np.inf), "box has non-finite coordinates: (1.0, 2.0, 3.0, 4.0, inf)"),
    ((1.0, 2.0, 3.0, 4.0, np.nan), "box has non-finite coordinates: (1.0, 2.0, 3.0, 4.0, nan)"),
    ((-np.inf, 2.0, 3.0, 4.0, 0.5), "box has non-finite coordinates: (-inf, 2.0, 3.0, 4.0, 0.5)"),
    ((1.0, 2.0, np.inf, 4.0, 0.5), "box has non-finite coordinates: (1.0, 2.0, inf, 4.0, 0.5)"),
    ((1.0, np.nan, 3.0, 4.0, 0.5), "box has non-finite coordinates: (1.0, nan, 3.0, 4.0, 0.5)"),
    ((1.0, -np.inf, 3.0, 4.0, 0.5), "box has non-finite coordinates: (1.0, -inf, 3.0, 4.0, 0.5)"),
    ((1.0, 2.0, 3.0, np.inf, 0.5), "box has non-finite coordinates: (1.0, 2.0, 3.0, inf, 0.5)"),
]


class TestBoxRows:
    """``RegionBox.validate`` passes a valid box by one chained comparison
    and runs its three checks only on a failing one: a parsed file must
    raise the error of the first box that fails one of those checks."""

    @pytest.mark.parametrize("position", ["first", "last"])
    @pytest.mark.parametrize("bad, message", BAD_BOXES)
    def test_bad_box_first_or_last_keeps_its_message(self, position, bad, message):
        rows = [(0.0, 0.0, 64.0, 48.0, 1.0), (1.0, 2.0, 3.0, 4.0, 0.0), (-3e38, -3e38, 3e38, 3e38, 0.5)] * 2
        if position == "first":
            rows = [bad] + rows + [(9.0, 9.0, 1.0, 1.0, 2.0)]  # a later bad box is not the one named
        else:
            rows = rows + [bad]
        assert per_box_error(rows) == message
        with pytest.raises(FormatError) as exc:
            parse_image_features(with_boxes(rows), image_id="x", source="s.dtrf")
        assert str(exc.value) == f"s.dtrf: {message}"

    def test_extreme_valid_boxes_pass(self):
        big = float(np.finfo(np.float32).max)
        tiny = float(np.finfo(np.float32).smallest_subnormal)
        rows = [(-big, -big, big, big, 0.0), (0.0, -tiny, tiny, 0.0, 1.0), (-0.0, 0.0, 1.0, 1.0, -0.0)]
        loaded = parse_image_features(with_boxes(rows), image_id="x")
        assert [dataclasses.astuple(b) for b in loaded.boxes] == [tuple(map(float, r)) for r in rows]

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(*[st.floats(width=32) | st.sampled_from([0.0, 1.0, -0.0, 0.5])] * 5),
            min_size=0,
            max_size=6,
        )
    )
    def test_same_error_as_validating_each_box(self, rows):
        message = per_box_error(rows)
        if message is None:
            assert len(parse_image_features(with_boxes(rows), image_id="x").boxes) == len(rows)
        else:
            with pytest.raises(FormatError) as exc:
                parse_image_features(with_boxes(rows), image_id="x", source="s.dtrf")
            assert str(exc.value) == f"s.dtrf: {message}"


class TestAttentionFilter:
    def test_threshold_drops_low_scores(self):
        f = make_features(np.random.default_rng(0), 10, 4)
        kept = filter_by_attention(f, 150.0)
        assert kept.count == int((f.attentions >= 150.0).sum())
        assert (kept.attentions >= 150.0).all()


class TestIdentifier:
    @pytest.mark.parametrize("value", ["a", "L000_I00", "x/y.dtrf", "a+b-c"])
    def test_valid_identifier_passes(self, value):
        assert _check_identifier(value, "image id") == value

    @pytest.mark.parametrize(
        "value", ["", "a,b", "a b", "a:b", "a=b", "abc\n", "\nabc", "a\tb", "\u00e9"]
    )
    def test_invalid_identifier_is_format_error(self, value):
        with pytest.raises(FormatError, match=re.escape(f"invalid image id {value!r}")):
            _check_identifier(value, "image id")


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
        # The error cites the line that grep -c counts: lines end at "\n"
        # only, not at the \x1c or U+2028 that str.splitlines also breaks at.
        for text, line in [
            ("dataset:x\ndim:4\nbogus:1\n", 3),
            ("dataset:d\x1cdim:8\nbogus:1\n", 2),
            ("dataset:x\u2028\ndim:4\nbogus:1\n", 3),
        ]:
            (tmp_path / "m.txt").write_bytes(text.encode())
            with pytest.raises(FormatError, match=f"m\\.txt:{line}: unknown record kind 'bogus'"):
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
        codebook_hash=codebook_digest(codebook), strategy="whole", images=[],
        entry_image=np.zeros(0, dtype=np.intp), region_index=np.zeros(0, dtype=np.int64),
        gammas=np.zeros(0), word_ptr=np.zeros(5, dtype=np.int64),
        entry_ids=np.zeros(0, dtype=np.uint32), payload=np.zeros((0, 3), dtype=np.float32),
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
