"""Fuzzing of the text parsers: manifest, ground truth, results, config.

Each test starts from a valid file, mutates its bytes or its lines and
parses the result.  Whatever the mutation, the parser returns or raises
a ``RamkError`` subclass; any other exception is a defect, since the CLI
would report it as an internal error (exit 4) with a traceback.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ramk.cli import _load_config_file, load_results
from ramk.errors import RamkError
from ramk.features_io import load_ground_truth, load_manifest

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


@pytest.mark.parametrize("what", sorted(PARSERS))
def test_valid_file_parses(tmp_path, what):
    path = tmp_path / "input.txt"
    path.write_bytes(VALID[what])
    PARSERS[what](path)


@pytest.mark.parametrize("what", sorted(PARSERS))
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_file_raises_only_ramk_errors(tmp_path, what, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data.draw(mutated(VALID[what]), label="content"))
    try:
        PARSERS[what](path)
    except RamkError:
        pass
