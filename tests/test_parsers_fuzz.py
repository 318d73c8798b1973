"""Fuzzing of the file parsers: the text formats (manifest, ground truth,
results, config) and the binary ones (DTRF features, DTRC codebook, DTRI
index).

Each test starts from a valid file, mutates its bytes or its lines and
parses the result.  Whatever the mutation, the parser returns or raises
a ``RamkError`` subclass; any other exception is a defect, since the CLI
would report it as an internal error (exit 4) with a traceback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ramk.cli import _load_config_file, load_results
from ramk.codebook import load_codebook, serialize_codebook, train_codebook
from ramk.errors import RamkError
from ramk.features_io import (
    load_ground_truth,
    load_image_features,
    load_manifest,
    serialize_image_features,
)
from ramk.index import build_index, load_index, serialize_index
from ramk.regional import RegionStrategy
from ramk.synthetic import SyntheticConfig, generate_synthetic_dataset

from conftest import make_features, random_boxes

VALID = {
    "manifest": (
        b"# toy dataset\n"
        b"dataset:toy\n"
        b"dim:8\n"
        b"groundtruth:gt.txt\n"
        b"queries:queries.txt\n"
        b"image id:img01 path:features/img01.dtrf width:640 height:480\n"
        b"image id:img02 path:features/img02.dtrf\n"
    ),
    "ground truth": (
        b"query:img01 easy:img02,img03 hard:img04 junk:img05\n"
        b"query:img06 easy: hard:img07 junk:\n"
    ),
    "results": (
        b"# ramk 0.1.0\n"
        b"query:img01 ranked:img02=0.75,img03=0.5 flagged:img04\n"
        b"query:img06 ranked:\n"
    ),
    "config": b"# defaults\nc:16\nseed:5\nattention-min:0.5\n",
}

PARSERS = {
    "manifest": lambda path: load_manifest(path, check_files=False),
    "ground truth": load_ground_truth,
    "results": load_results,
    "config": _load_config_file,
}

# Bytes that carry meaning in these formats, plus non-UTF-8 and Unicode
# line and space characters.
SPECIAL = [b":", b",", b"=", b"#", b" ", b"\t", b"\n", b"\r", b"\x00", b"\xff", b"\xc3",
           "\u00e9".encode(), "\u2028".encode(), "\u00a0".encode(), "\x85".encode(), b"\x1c",
           b"-1", b"1e999", b"nan", b"9" * 5000]


@st.composite
def mutated(draw, original: bytes) -> bytes:
    """``original`` after a few byte edits (replace, insert, delete) or
    line edits (drop, repeat, swap, truncate)."""
    data = original
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["replace", "insert", "delete", "line"]))
        at = draw(st.integers(0, len(data)))
        chunk = draw(st.sampled_from(SPECIAL) | st.binary(min_size=1, max_size=3))
        if kind == "replace":
            data = data[:at] + chunk + data[at + len(chunk):]
        elif kind == "insert":
            data = data[:at] + chunk + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 8)):]
        else:
            lines = data.split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            op = draw(st.sampled_from(["drop", "repeat", "swap", "truncate"]))
            if op == "drop":
                del lines[i]
            elif op == "repeat":
                lines.insert(j, lines[i])
            elif op == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
            data = b"\n".join(lines)
    return data


FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("what", sorted(PARSERS))
def test_valid_file_parses(tmp_path, what):
    path = tmp_path / "input.txt"
    path.write_bytes(VALID[what])
    PARSERS[what](path)


@pytest.mark.parametrize("what", sorted(PARSERS))
@FUZZ
@given(data=st.data())
def test_mutated_file_raises_only_ramk_errors(tmp_path, what, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data.draw(mutated(VALID[what]), label="content"))
    try:
        PARSERS[what](path)
    except RamkError:
        pass


BINARY_LOADERS = {
    "features": load_image_features,
    "codebook": load_codebook,
    "index asmk-star": load_index,
    "index asmk": load_index,
}

# Counts, sizes and float bit patterns worth writing over a field: zero,
# one, the extremes, NaN and -inf as f32.
U32_VALUES = [0, 1, 2, 0x7FFFFFFF, 0xFFFFFFFF, 0x7FC00000, 0xFF800000]


@pytest.fixture(scope="module")
def binaries(tmp_path_factory) -> dict[str, bytes]:
    """Small valid files of each binary format; the indexes are built
    from a tiny synthetic corpus with regional-search entries."""
    out = tmp_path_factory.mktemp("binaries")
    cfg = SyntheticConfig(
        landmarks=2, images_per_landmark=2, planted_descriptors=4, clutter_descriptors=4, dim=8,
        background_boxes=1, echo_boxes=1,
    )
    manifest = generate_synthetic_dataset(cfg, 9, out)
    vecs = np.concatenate([manifest.load_features(i).vectors for i in manifest.image_ids()])
    codebook = train_codebook(vecs, 6, max_iters=5, seed=2)
    rng = np.random.default_rng(6)
    features = make_features(rng, 5, 8, boxes=random_boxes(rng, 2, 64, 48))
    files = {
        "features": serialize_image_features(features),
        "codebook": serialize_codebook(codebook),
    }
    for mode in ("asmk-star", "asmk"):
        index = build_index(manifest, codebook, mode, RegionStrategy.parse("detector:0.3"))
        files[f"index {mode}"] = serialize_index(index)
    return files


@st.composite
def mutated_binary(draw, original: bytes) -> bytes:
    """``original`` after a few bit flips, u32 overwrites, inserts or a
    truncation."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "u32", "insert", "truncate"]))
        at = draw(st.integers(0, max(0, len(data) - 1)))
        if kind == "flip" and data:
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "u32":
            value = draw(st.sampled_from(U32_VALUES) | st.integers(0, 0xFFFFFFFF))
            data[at : at + 4] = value.to_bytes(4, "little")
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        else:
            del data[at:]
    return bytes(data)


@pytest.mark.parametrize("what", sorted(BINARY_LOADERS))
def test_valid_binary_file_loads(tmp_path, binaries, what):
    path = tmp_path / "input.bin"
    path.write_bytes(binaries[what])
    BINARY_LOADERS[what](path)


@pytest.mark.parametrize("what", sorted(BINARY_LOADERS))
@FUZZ
@given(data=st.data())
def test_mutated_binary_file_raises_only_ramk_errors(tmp_path, binaries, what, data):
    path = tmp_path / "input.bin"
    path.write_bytes(data.draw(mutated_binary(binaries[what]), label="content"))
    try:
        BINARY_LOADERS[what](path)
    except RamkError:
        pass
