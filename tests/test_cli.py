"""CLI pipelines, exit codes, provenance and determinism."""

from __future__ import annotations

import dataclasses
import os
import struct

import numpy as np
import pytest

from ramk import cli
from ramk.cli import _OPTIONS, _synthetic_flag, load_results, main
from ramk.errors import ConfigError, DataError, DimensionError, FormatError, TrainingError
from ramk.features_io import load_manifest
from ramk.index import load_index
from ramk.synthetic import SyntheticConfig


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Generated dataset + trained codebook shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = run(
        "gen-synthetic", "--out", str(data), "--seed", "3",
        "--landmarks", "4", "--images-per-landmark", "3",
        "--planted", "8", "--clutter", "24", "--dim", "8",
    )
    assert code == 0
    cb = root / "cb.dtrc"
    assert run("train-codebook", "--manifest", str(data / "manifest.txt"),
               "--c", "32", "--seed", "1", "--out", str(cb)) == 0
    return root, data, cb


class TestExitCodes:
    def test_missing_manifest_is_data_error(self, tmp_path):
        assert run("train-codebook", "--manifest", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "cb.dtrc")) == 3

    def test_bad_mode_is_config_error(self, pipeline, tmp_path):
        root, data, cb = pipeline
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--mode", "super-vlad",
                   "--out", str(tmp_path / "ix.dtri")) == 2

    def test_bad_region_strategy_is_config_error(self, pipeline, tmp_path):
        root, data, cb = pipeline
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--regions", "grid:9",
                   "--out", str(tmp_path / "ix.dtri")) == 2

    def test_missing_required_flag_is_config_error(self):
        assert run("train-codebook", "--manifest", "x.txt") == 2

    def test_non_integer_manifest_width_is_data_error(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("dataset:d\ndim:8\nimage id:a path:a.dtrf width:wide height:480\n")
        assert run("train-codebook", "--manifest", str(manifest),
                   "--out", str(tmp_path / "cb.dtrc")) == 3

    def test_non_numeric_result_score_is_data_error(self, pipeline, tmp_path):
        root, data, cb = pipeline
        results = tmp_path / "results.txt"
        results.write_text("query:q0 ranked:a=high\n")
        assert run("evaluate", "--results", str(results), "--manifest", str(data / "manifest.txt"),
                   "--out", str(tmp_path / "metrics.txt")) == 3

    @pytest.fixture(scope="class")
    def index_bytes(self, pipeline):
        root, data, cb = pipeline
        path = root / "exit-codes.dtri"
        assert run("build-index", "--manifest", str(data / "manifest.txt"), "--codebook", str(cb),
                   "--mode", "asmk", "--out", str(path)) == 0
        return path.read_bytes(), load_index(path).entries[0].image_id

    def search(self, pipeline, tmp_path, payload: bytes) -> int:
        root, data, cb = pipeline
        (tmp_path / "bad.dtri").write_bytes(payload)
        return run("search", "--index", str(tmp_path / "bad.dtri"),
                   "--queries", str(data / "queries.txt"), "--out", str(tmp_path / "r.txt"))

    def test_non_utf8_image_id_is_data_error(self, pipeline, tmp_path, index_bytes):
        payload, image_id = index_bytes
        ident = image_id.encode()
        assert payload.count(ident) == 1
        assert self.search(pipeline, tmp_path, payload.replace(ident, b"\xff" * len(ident))) == 3

    @pytest.mark.parametrize(
        "offset,value", [(8, 0.5), (8, float("nan")), (16, float("nan")), (16, float("inf"))]
    )
    def test_bad_selectivity_header_is_data_error(self, pipeline, tmp_path, index_bytes, offset, value):
        # alpha is the f64 at byte 8 of the header, tau the one at byte 16.
        payload = bytearray(index_bytes[0])
        payload[offset : offset + 8] = struct.pack("<d", value)
        assert self.search(pipeline, tmp_path, bytes(payload)) == 3

    @pytest.mark.parametrize("what", ["manifest", "ground truth", "results", "config", "pairs"])
    def test_non_utf8_text_input_is_format_error(self, pipeline, tmp_path, caplog, what):
        root, data, cb = pipeline
        bad = tmp_path / "bad.txt"
        results = tmp_path / "results.txt"
        results.write_text("query:q0 ranked:a=1.0\n")
        out = str(tmp_path / "out.txt")
        argv = {
            "manifest": ("train-codebook", "--manifest", str(bad), "--out", out),
            "ground truth": ("evaluate", "--results", str(results), "--gt", str(bad), "--out", out),
            "results": ("evaluate", "--results", str(bad), "--gt", str(bad), "--out", out),
            "config": ("train-codebook", "--config", str(bad), "--out", out),
            "pairs": ("analyze-relevance", "--manifest", str(data / "manifest.txt"),
                      "--pairs", str(bad), "--out", out),
        }[what]
        content = {
            "manifest": b"dataset:d\ndim:8\nimage id:a\xff path:a.dtrf\n",
            "ground truth": b"query:q0 easy:a\xff\n",
            "results": b"query:q0 ranked:a\xff=1.0\n",
            "config": b"c:16\nseed:\xff\n",
            "pairs": b"a b\xff\n",
        }[what]
        bad.write_bytes(content)
        assert run(*argv) == 3
        assert f"{bad} is not UTF-8" in caplog.text

    @pytest.mark.parametrize(
        "error,code",
        [
            (ConfigError, 2),
            (DataError, 3),
            (FormatError, 3),
            (DimensionError, 3),
            (TrainingError, 3),
            (Exception, 4),
        ],
    )
    def test_error_to_exit_code(self, tmp_path, monkeypatch, error, code):
        def fail(cfg):
            raise error("injected")

        monkeypatch.setitem(cli._COMMANDS, "gen-synthetic", fail)
        assert run("gen-synthetic", "--out", str(tmp_path / "out")) == code

    def test_failed_output_replace_keeps_old_file(self, pipeline, tmp_path, monkeypatch):
        root, data, cb = pipeline
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("# no pairs: the command writes an empty table\n")
        out = tmp_path / "rel.csv"
        out.write_text("old table\n")
        argv = ("analyze-relevance", "--manifest", str(data / "manifest.txt"),
                "--pairs", str(pairs), "--out", str(out))

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        assert run(*argv) == 3
        assert out.read_text() == "old table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.txt", "rel.csv"]
        monkeypatch.undo()
        assert run(*argv) == 0
        assert out.read_text() != "old table\n"

    def test_unknown_config_key_rejected(self, pipeline, tmp_path):
        root, data, cb = pipeline
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus:1\n")
        assert run("train-codebook", "--config", str(cfg),
                   "--manifest", str(data / "manifest.txt"),
                   "--out", str(tmp_path / "cb.dtrc")) == 2


class TestCodebookCli:
    def test_header_and_determinism(self, pipeline, tmp_path):
        root, data, cb = pipeline
        again = tmp_path / "cb2.dtrc"
        assert run("train-codebook", "--manifest", str(data / "manifest.txt"),
                   "--c", "32", "--seed", "1", "--out", str(again)) == 0
        assert again.read_bytes() == cb.read_bytes()
        payload = cb.read_bytes()
        assert payload[:4] == b"DTRC"
        c = int.from_bytes(payload[6:10], "little")
        assert c == 32
        assert (root / "cb.dtrc.provenance").exists()


class TestIndexAndSearchCli:
    def test_aggregation_vs_regional_search_sizes(self, pipeline, tmp_path, caplog):
        root, data, cb = pipeline
        agg = tmp_path / "agg.dtri"
        reg = tmp_path / "reg.dtri"
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--mode", "r-asmk-star",
                   "--regions", "detector:0.3", "--out", str(agg)) == 0
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--mode", "asmk-star",
                   "--regions", "detector:0.1", "--out", str(reg)) == 0
        n_images = len(load_manifest(data / "manifest.txt").images)
        assert load_index(agg).entry_count == n_images
        assert load_index(reg).entry_count > n_images

    def test_search_pooling_flags_differ(self, pipeline, tmp_path):
        root, data, cb = pipeline
        ix = tmp_path / "ix.dtri"
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--mode", "asmk",
                   "--regions", "detector:0.1", "--out", str(ix)) == 0
        out_max = tmp_path / "max.txt"
        out_avg = tmp_path / "avg.txt"
        for pooling, out in (("max", out_max), ("avg", out_avg)):
            assert run("search", "--index", str(ix), "--queries", str(data / "queries.txt"),
                       "--pooling", pooling, "--top-n", "12", "--out", str(out)) == 0
        max_results = {r.query_id: r.ranking for r in load_results(out_max)}
        avg_results = {r.query_id: r.ranking for r in load_results(out_avg)}
        assert any(max_results[q] != avg_results[q] for q in max_results)

    def test_codebook_hash_check(self, pipeline, tmp_path):
        root, data, cb = pipeline
        ix = tmp_path / "ix.dtri"
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--mode", "asmk", "--out", str(ix)) == 0
        other_cb = tmp_path / "other.dtrc"
        assert run("train-codebook", "--manifest", str(data / "manifest.txt"),
                   "--c", "16", "--seed", "99", "--out", str(other_cb)) == 0
        assert run("search", "--index", str(ix), "--queries", str(data / "queries.txt"),
                   "--codebook", str(other_cb), "--out", str(tmp_path / "r.txt")) == 2
        assert run("search", "--index", str(ix), "--queries", str(data / "queries.txt"),
                   "--codebook", str(cb), "--out", str(tmp_path / "r.txt")) == 0

    def test_sp_requires_manifest(self, pipeline, tmp_path):
        root, data, cb = pipeline
        ix = tmp_path / "ix.dtri"
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--mode", "asmk", "--out", str(ix)) == 0
        assert run("search", "--index", str(ix), "--queries", str(data / "queries.txt"),
                   "--sp", "--out", str(tmp_path / "r.txt")) == 2

    def test_full_pipeline_with_sp_and_evaluate(self, pipeline, tmp_path):
        root, data, cb = pipeline
        ix = tmp_path / "ix.dtri"
        results = tmp_path / "results.txt"
        metrics = tmp_path / "metrics.txt"
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--mode", "asmk-star",
                   "--regions", "detector:0.5", "--out", str(ix)) == 0
        assert run("search", "--index", str(ix), "--queries", str(data / "queries.txt"),
                   "--manifest", str(data / "manifest.txt"),
                   "--sp", "--sp-depth", "5", "--sp-seed", "7",
                   "--top-n", "12", "--out", str(results)) == 0
        assert run("evaluate", "--results", str(results),
                   "--manifest", str(data / "manifest.txt"),
                   "--out", str(metrics)) == 0
        text = metrics.read_text()
        assert "protocol:medium" in text and "protocol:hard" in text
        header = results.read_text().splitlines()
        assert header[0].startswith("# ramk ")
        assert any(line.startswith("# command:search") for line in header)

    def test_search_rerun_byte_identical(self, pipeline, tmp_path):
        root, data, cb = pipeline
        ix = tmp_path / "ix.dtri"
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--mode", "asmk", "--out", str(ix)) == 0
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run("search", "--index", str(ix), "--queries", str(data / "queries.txt"),
                       "--top-n", "12", "--out", str(out)) == 0
        assert a.read_text().replace(str(a), "") == b.read_text().replace(str(b), "")

    def test_empty_query_file_warns_and_emits_empty_ranking(self, pipeline, tmp_path):
        root, data, cb = pipeline
        from conftest import make_features
        from ramk.features_io import save_image_features

        qdir = tmp_path / "q"
        qdir.mkdir()
        empty = make_features(np.random.default_rng(0), 0, 8, image_id="void")
        save_image_features(empty, qdir / "void.dtrf")
        (qdir / "qman.txt").write_text("dataset:q\ndim:8\nimage id:void path:void.dtrf\n")
        ix = tmp_path / "ix.dtri"
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--mode", "asmk", "--out", str(ix)) == 0
        out = tmp_path / "r.txt"
        assert run("search", "--index", str(ix), "--queries", str(qdir / "qman.txt"),
                   "--out", str(out)) == 0
        (rec,) = load_results(out)
        assert rec.query_id == "void" and rec.ranking == []


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, pipeline, tmp_path):
        root, data, cb = pipeline
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"manifest:{data / 'manifest.txt'}\nc:16\nseed:5\n")
        out = tmp_path / "from_config.dtrc"
        assert run("train-codebook", "--config", str(cfg), "--out", str(out)) == 0
        payload = out.read_bytes()
        assert int.from_bytes(payload[6:10], "little") == 16
        out2 = tmp_path / "override.dtrc"
        assert run("train-codebook", "--config", str(cfg), "--c", "8", "--out", str(out2)) == 0
        assert int.from_bytes(out2.read_bytes()[6:10], "little") == 8


class TestAnalyzeRelevanceCli:
    def test_bins_and_pairs(self, pipeline, tmp_path):
        root, data, cb = pipeline
        manifest = load_manifest(data / "manifest.txt")
        ids = manifest.image_ids()
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"{ids[0]} {ids[1]}\n{ids[1]} {ids[2]}\n")
        out = tmp_path / "rel.csv"
        assert run("analyze-relevance", "--manifest", str(data / "manifest.txt"),
                   "--pairs", str(pairs), "--bins", "0,50,100,200",
                   "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("bin_low")
        assert len(lines) == 4  # header + 3 bins

    def test_empty_pairs_ok_with_warning(self, pipeline, tmp_path):
        root, data, cb = pipeline
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("# nothing\n")
        out = tmp_path / "rel.csv"
        assert run("analyze-relevance", "--manifest", str(data / "manifest.txt"),
                   "--pairs", str(pairs), "--out", str(out)) == 0
        assert out.exists()


class TestGenSyntheticCli:
    def test_options_are_the_config_fields(self):
        options = {o.name for o in _OPTIONS["gen-synthetic"]} - {"config", "out", "seed"}
        flags = [_synthetic_flag(f.name) for f in dataclasses.fields(SyntheticConfig)]
        assert len(set(flags)) == len(flags)
        assert set(flags) == options

    def test_same_seed_byte_identical_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen-synthetic", "--out", str(out), "--seed", "17",
                       "--landmarks", "2", "--images-per-landmark", "2",
                       "--planted", "4", "--clutter", "8", "--dim", "4") == 0
        files = sorted(p.relative_to(a) for p in a.rglob("*.dtrf"))
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()
        assert (a / "manifest.txt").read_text() == (b / "manifest.txt").read_text()
