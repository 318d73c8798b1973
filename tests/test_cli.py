"""CLI pipelines, exit codes, provenance and determinism."""

from __future__ import annotations

import dataclasses
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ramk import cli
from ramk.cli import _OPTIONS, _synthetic_flag, load_results, main
from ramk.codebook import serialize_codebook
from ramk.errors import ConfigError, DataError, DimensionError, FormatError, TrainingError
from ramk.features_io import load_manifest
from ramk.index import load_index
from ramk.synthetic import SyntheticConfig

from conftest import with_first_image_id


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

    @pytest.mark.parametrize("flags", [("--c", "0"), ("--c", "8", "--max-iters", "0")])
    def test_zero_training_size_is_data_error(self, pipeline, tmp_path, flags):
        root, data, cb = pipeline
        assert run("train-codebook", "--manifest", str(data / "manifest.txt"), *flags,
                   "--out", str(tmp_path / "cb.dtrc")) == 3
        assert not (tmp_path / "cb.dtrc").exists()

    def test_unknown_protocol_flag_is_config_error(self, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            run("evaluate", "--results", "r.txt", "--protocol", "easy", "--out", str(tmp_path / "m"))
        assert exit_.value.code == 2

    def test_unknown_protocol_in_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("protocol:easy\n")
        assert run("evaluate", "--config", str(cfg), "--results", str(tmp_path / "r.txt"),
                   "--out", str(tmp_path / "m")) == 2

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
        return path.read_bytes(), load_index(path).images[0]

    def search(self, pipeline, tmp_path, payload: bytes) -> int:
        root, data, cb = pipeline
        (tmp_path / "bad.dtri").write_bytes(payload)
        return run("search", "--index", str(tmp_path / "bad.dtri"),
                   "--queries", str(data / "queries.txt"), "--out", str(tmp_path / "r.txt"))

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("gen-synthetic", ("--seed", "-1")),
            ("gen-synthetic", ("--anchor-scale", "nan")),
            ("train-codebook", ("--seed", "-1")),
            ("train-codebook", ("--sample-cap", "-1")),
            ("train-codebook", ("--config", "{config}")),
            ("build-index", ("--attention-min", "nan")),
            ("search", ("--top-n", "-3")),
            ("search", ("--sp", "--sp-seed", "-1")),
            ("search", ("--sp", "--sp-iters", "-5")),
            ("search", ("--sp", "--sp-tol", "nan")),
            ("search", ("--sp", "--sp-max-dist", "nan")),
            ("analyze-relevance", ("--sp-tol", "nan")),
            ("analyze-relevance", ("--sp-max-dist", "nan")),
            ("analyze-relevance", ("--sp-seed", "-1")),
            ("analyze-relevance", ("--bins", "0,nan,100")),
            ("search", ("--sp", "--sp-max-dist", "-1")),
            ("search", ("--sp", "--sp-tol", "-1")),
            ("analyze-relevance", ("--sp-max-dist", "-1")),
            ("analyze-relevance", ("--sp-tol", "-1")),
            ("build-index", ("--threads", "-1")),
            ("search", ("--threads", "-1")),
        ],
    )
    def test_negative_int_or_nan_value_is_config_error(
        self, pipeline, tmp_path, index_bytes, command, flags
    ):
        root, data, cb = pipeline
        manifest = str(data / "manifest.txt")
        (tmp_path / "cfg.txt").write_text("seed:-1\n")
        first, second = (img.image_id for img in load_manifest(manifest).images[:2])
        (tmp_path / "pairs.txt").write_text(f"{first} {second}\n")
        inputs = {
            "gen-synthetic": (),
            "train-codebook": ("--manifest", manifest, "--c", "8"),
            "build-index": ("--manifest", manifest, "--codebook", str(cb)),
            "search": ("--index", str(root / "exit-codes.dtri"), "--manifest", manifest,
                       "--queries", str(data / "queries.txt")),
            "analyze-relevance": ("--manifest", manifest, "--pairs", str(tmp_path / "pairs.txt")),
        }[command]
        flags = [flag.format(config=tmp_path / "cfg.txt") for flag in flags]
        out = tmp_path / "out"
        assert run(command, *inputs, *flags, "--out", str(out)) == 2
        assert not out.exists()

    def test_non_utf8_image_id_is_data_error(self, pipeline, tmp_path, index_bytes):
        payload, image_id = index_bytes
        ident = image_id.encode()
        assert payload.count(ident) == 1
        assert self.search(pipeline, tmp_path, payload.replace(ident, b"\xff" * len(ident))) == 3

    @pytest.mark.parametrize(
        "ident,code",
        [
            (b"L9.x/y+z_0-", 0),
            (b"a,", 3), (b"a ", 3), (b"a=b", 3), (b"a\n", 3), (b"", 3),
            ("\u00e9".encode(), 3),  # non-ASCII UTF-8
            (b"a\xff", 3),  # not UTF-8
        ],
    )
    def test_image_id_outside_the_identifier_rule_is_data_error(
        self, pipeline, tmp_path, index_bytes, ident, code
    ):
        # search accepts an index only if evaluate can read the ids it writes back.
        root, data, cb = pipeline
        assert self.search(pipeline, tmp_path, with_first_image_id(index_bytes[0], ident)) == code
        if code == 0:
            rankings = [result.ranking for result in load_results(tmp_path / "r.txt")]
            assert rankings and all(ident.decode() in dict(ranking) for ranking in rankings)

    @pytest.mark.parametrize(
        "offset,value", [(8, 0.5), (8, float("nan")), (16, float("nan")), (16, float("inf"))]
    )
    def test_bad_selectivity_header_is_data_error(self, pipeline, tmp_path, index_bytes, offset, value):
        # alpha is the f64 at byte 8 of the header, tau the one at byte 16.
        payload = bytearray(index_bytes[0])
        payload[offset : offset + 8] = struct.pack("<d", value)
        assert self.search(pipeline, tmp_path, bytes(payload)) == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_centroid_is_format_error(self, pipeline, tmp_path, index_bytes, value):
        # The first centroid component is the f32 right after the 62-byte header.
        payload = bytearray(index_bytes[0])
        payload[62:66] = struct.pack("<f", value)
        assert self.search(pipeline, tmp_path, bytes(payload)) == 3

    def test_version_1_index_is_format_error(self, pipeline, tmp_path, index_bytes):
        payload = bytearray(index_bytes[0])
        payload[4:6] = (1).to_bytes(2, "little")  # the u16 after the magic
        (tmp_path / "v1.dtri").write_bytes(payload)
        with pytest.raises(FormatError, match="unsupported index version 1"):
            load_index(tmp_path / "v1.dtri")
        assert self.search(pipeline, tmp_path, bytes(payload)) == 3

    def test_payload_overflowing_float32_scores_is_data_error(self, pipeline, tmp_path):
        # The payload rows end the file; a finite 1e38 in the first component
        # of every r-asmk row loads, but pushes pooled scores past float32.
        root, data, cb = pipeline
        path = tmp_path / "r-asmk.dtri"
        assert run("build-index", "--manifest", str(data / "manifest.txt"), "--codebook", str(cb),
                   "--mode", "r-asmk", "--out", str(path)) == 0
        rows, dim = load_index(path).payload.shape
        payload = bytearray(path.read_bytes())
        start = len(payload) - rows * dim * 4
        for row in range(rows):
            at = start + row * dim * 4
            payload[at : at + 4] = struct.pack("<f", 1e38)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.search(pipeline, tmp_path, bytes(payload)) == 3
        assert not (tmp_path / "r.txt").exists()

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


class TestHelp:
    @pytest.mark.parametrize("command", sorted(_OPTIONS))
    def test_every_subcommand_help_names_every_option(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for opt in _OPTIONS[command]:
            assert f"--{opt.name}" in text

    @pytest.mark.parametrize("command", ["search", "analyze-relevance"])
    def test_percent_in_help_is_literal(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "5% of" in capsys.readouterr().out


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

    @pytest.mark.parametrize("cap", [None, 2000])
    def test_sample_is_held_once_during_training(self, tmp_path, cap):
        # The per-image descriptor arrays are released before training, so
        # the memory traced at the call is the sample and little else.
        data = tmp_path / "data"
        assert run("gen-synthetic", "--out", str(data), "--seed", "4",
                   "--landmarks", "6", "--images-per-landmark", "5",
                   "--planted", "24", "--clutter", "96", "--dim", "128") == 0
        seen = []
        train = cli.train_codebook

        def spy(descriptors, *args, **kwargs):
            seen.append((*tracemalloc.get_traced_memory(), descriptors.shape[0], descriptors.nbytes))
            return train(descriptors, *args, **kwargs)

        flags = () if cap is None else ("--sample-cap", str(cap))
        out = tmp_path / "cb.dtrc"
        tracemalloc.start()
        try:
            with mock.patch.object(cli, "train_codebook", spy):
                assert run("train-codebook", "--manifest", str(data / "manifest.txt"), "--c", "16",
                           "--max-iters", "2", *flags, "--out", str(out)) == 0
        finally:
            tracemalloc.stop()
        ((traced, peak, rows, sample_bytes),) = seen
        assert rows == (cap or 30 * 120)  # 30 database images of 120 descriptors
        assert traced < 1.2 * sample_bytes
        if cap is None:
            # Each image's descriptors are copied into the sample as they load: no stacked copy.
            assert peak < 1.2 * sample_bytes
        # The codebook of the stacked descriptors, subsampled by the same draw.
        manifest = load_manifest(data / "manifest.txt")
        stacked = np.concatenate([manifest.load_features(img).vectors for img in manifest.images])
        if cap is not None:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))
            stacked = stacked[np.sort(rng.choice(stacked.shape[0], size=cap, replace=False))]
            # The per-image arrays and the sample, without a stacked copy of the pre-cap set.
            assert peak < 30 * 120 * 128 * 4 + 1.2 * sample_bytes
        want = train(stacked, 16, max_iters=2, seed=0)
        assert out.read_bytes() == serialize_codebook(want)


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

    def test_sp_max_dist_inf_is_the_default(self, pipeline, tmp_path):
        root, data, cb = pipeline
        ix = tmp_path / "ix.dtri"
        assert run("build-index", "--manifest", str(data / "manifest.txt"),
                   "--codebook", str(cb), "--mode", "asmk", "--out", str(ix)) == 0
        rankings = []
        for flags in ((), ("--sp-max-dist", "inf")):
            out = tmp_path / f"r{len(rankings)}.txt"
            assert run("search", "--index", str(ix), "--queries", str(data / "queries.txt"),
                       "--manifest", str(data / "manifest.txt"), "--sp", "--sp-depth", "3",
                       *flags, "--out", str(out)) == 0
            rankings.append([line for line in out.read_text().splitlines() if not line.startswith("#")])
        assert rankings[0] == rankings[1] and rankings[0]

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
        # --threads changes no output, so the provenance header leaves it out too.
        for out, threads in ((a, ()), (b, ("--threads", "2"))):
            assert run("search", "--index", str(ix), "--queries", str(data / "queries.txt"),
                       "--top-n", "12", *threads, "--out", str(out)) == 0
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

    @pytest.mark.parametrize("bins", ["0,nan,100", "5"])
    def test_empty_pairs_bad_bins_is_config_error(self, pipeline, tmp_path, bins):
        root, data, cb = pipeline
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("# nothing\n")
        out = tmp_path / "rel.csv"
        assert run("analyze-relevance", "--manifest", str(data / "manifest.txt"),
                   "--pairs", str(pairs), "--bins", bins, "--out", str(out)) == 2
        assert not out.exists()


class TestGenSyntheticCli:
    def test_options_are_the_config_fields(self):
        options = {o.name for o in _OPTIONS["gen-synthetic"]} - {"config", "out", "seed"}
        flags = [_synthetic_flag(f.name) for f in dataclasses.fields(SyntheticConfig)]
        assert len(set(flags)) == len(flags)
        assert set(flags) == options

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("anchor-scale", "-1"),
            ("anchor-scale", "inf"),
            ("instance-noise", "-1"),
            ("instance-noise", "inf"),
            ("instance-noise", "-inf"),
            ("landmark-offset-scale", "inf"),
            ("box-noise", "inf"),
            ("echo-box-noise", "-1"),
            ("echo-box-noise", "inf"),
            ("echo-box-noise", "-inf"),
        ],
    )
    def test_negative_or_infinite_scale_is_config_error(self, tmp_path, flag, value):
        out = tmp_path / "data"
        assert run("gen-synthetic", "--out", str(out), f"--{flag}={value}",
                   "--landmarks", "2", "--images-per-landmark", "2",
                   "--planted", "4", "--clutter", "8", "--dim", "4") == 2
        assert not (out / "manifest.txt").exists()

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


def test_runtime_imports_no_scipy():
    """scipy is a test dependency only: a fresh interpreter that imports
    ``ramk``, ``ramk.cli`` and every ``ramk`` submodule loads none of it.
    Nor does it load ``concurrent.futures``: no ``ramk`` module uses a pool."""
    code = (
        "import importlib, pkgutil, sys\n"
        "import ramk, ramk.cli\n"
        "names = [m.name for m in pkgutil.walk_packages(ramk.__path__, 'ramk.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(len(names))\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
        "print(sorted(k for k in sys.modules if k.startswith('concurrent')))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    count, loaded, pools = done.stdout.splitlines()
    assert int(count) >= 10
    assert loaded == "[]"
    assert pools == "[]"
