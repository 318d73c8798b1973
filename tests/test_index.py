"""Inverted-file index: build, query, pooling, persistence.

The key oracle scores a query against every database image by direct
kernel evaluation of freshly aggregated representations (no inverted
file involved), pools per image, and sorts with the same tie rule.  The
inverted-file traversal must reproduce it for every mode.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ramk.codebook import Codebook, partition, train_codebook
from ramk.errors import ConfigError, DataError, DimensionError, FormatError
from ramk.features_io import load_manifest
from ramk.index import (
    POOL_AVG,
    POOL_MAX,
    build_index,
    load_index,
    query,
    save_index,
    serialize_index,
)
from ramk.kernels import PLAIN_COUNTERPART, aggregate, is_regional_mode, kernel_similarity
from ramk.regional import (
    RegionStrategy,
    aggregate_regional,
    region_descriptor_indices,
    regional_similarity,
    select_regions,
)
from ramk.synthetic import SyntheticConfig, generate_synthetic_dataset

from conftest import make_features

ALL_CASES = [
    ("vlad", "whole", POOL_MAX),
    ("asmk", "whole", POOL_MAX),
    ("asmk-star", "whole", POOL_MAX),
    ("asmk", "detector:0.3", POOL_MAX),
    ("asmk", "detector:0.3", POOL_AVG),
    ("asmk-star", "detector:0.1", POOL_MAX),
    ("asmk-star", "detector:0.1", POOL_AVG),
    ("vlad", "detector:0.3", POOL_AVG),
    ("r-vlad", "detector:0.3", POOL_MAX),
    ("naive-r-asmk", "detector:0.3", POOL_MAX),
    ("r-asmk", "detector:0.3", POOL_MAX),
    ("r-asmk-star", "detector:0.1", POOL_MAX),
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    cfg = SyntheticConfig(
        landmarks=5,
        images_per_landmark=4,
        planted_descriptors=8,
        clutter_descriptors=24,
        dim=8,
        background_boxes=3,
        echo_boxes=1,
    )
    manifest = generate_synthetic_dataset(cfg, 71, out)
    vecs = np.concatenate([manifest.load_features(i).vectors for i in manifest.image_ids()])
    codebook = train_codebook(vecs, 64, max_iters=15, seed=5)
    queries = load_manifest(out / "queries.txt")
    return manifest, queries, codebook


def exhaustive_ranking(manifest, codebook, mode, strategy, query_features, pooling, normalize=True):
    """Brute force: aggregate every image from its file and score directly."""
    plain_mode = PLAIN_COUNTERPART.get(mode, mode)
    q_repr = aggregate(partition(codebook, query_features), codebook, plain_mode)
    scores = {}
    for img in manifest.images:
        features = manifest.load_features(img)
        if is_regional_mode(mode):
            regions = select_regions(features, strategy)
            rep = aggregate_regional(features, regions, codebook, mode)
            s = regional_similarity(q_repr, rep, normalize=normalize)
        else:
            part = partition(codebook, features)
            if strategy.kind == "whole":
                entry_scores = [kernel_similarity(q_repr, aggregate(part, codebook, mode))]
            else:
                regions = select_regions(features, strategy)
                entry_scores = []
                for r in range(regions.count):
                    idx = region_descriptor_indices(features, regions, r)
                    rep = aggregate(part.subset(idx), codebook, mode)
                    entry_scores.append(kernel_similarity(q_repr, rep))
            s = max(entry_scores) if pooling == POOL_MAX else sum(entry_scores) / len(entry_scores)
        scores[img.image_id] = np.float32(s)
    order = sorted(scores, key=lambda i: (-scores[i], i))
    return [(i, float(scores[i])) for i in order]


class TestBuildShape:
    def test_whole_image_entry_count(self, corpus):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        assert index.entry_count == len(manifest.images)

    def test_regional_search_entry_count_is_region_sum(self, corpus):
        manifest, _, codebook = corpus
        strategy = RegionStrategy.parse("detector:0.1")
        expected = sum(
            select_regions(manifest.load_features(img), strategy).count
            for img in manifest.images
        )
        index = build_index(manifest, codebook, "asmk-star", strategy)
        assert index.entry_count == expected
        assert expected > len(manifest.images)

    def test_regional_aggregation_single_entry_per_image(self, corpus):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "r-asmk-star", RegionStrategy.parse("detector:0.1"))
        assert index.entry_count == len(manifest.images)

    def test_dimension_mismatch_rejected(self, corpus):
        manifest, _, _ = corpus
        bad = train_codebook(np.random.default_rng(0).normal(size=(100, 4)), 8, seed=0)
        with pytest.raises(DimensionError):
            build_index(manifest, bad, "asmk", RegionStrategy.parse("whole"))

    def test_thread_count_does_not_change_index(self, corpus):
        manifest, _, codebook = corpus
        a = build_index(manifest, codebook, "asmk", RegionStrategy.parse("detector:0.3"), threads=1)
        b = build_index(manifest, codebook, "asmk", RegionStrategy.parse("detector:0.3"), threads=4)
        assert serialize_index(a) == serialize_index(b)


class TestQuery:
    @pytest.mark.parametrize("mode,strategy_text,pooling", ALL_CASES)
    def test_matches_exhaustive_oracle(self, corpus, mode, strategy_text, pooling):
        manifest, queries, codebook = corpus
        strategy = RegionStrategy.parse(strategy_text)
        index = build_index(manifest, codebook, mode, strategy)
        for entry in queries.images[:6]:
            qf = queries.load_features(entry)
            got = query(index, qf, pooling=pooling, top_n=len(manifest.images)).ranking
            expected = exhaustive_ranking(manifest, codebook, mode, strategy, qf, pooling)
            assert [i for i, _ in got] == [i for i, _ in expected]
            for (gi, gs), (ei, es) in zip(got, expected):
                assert gs == pytest.approx(es, abs=1e-6), (mode, gi)

    def test_raw_regional_flag_matches_oracle(self, corpus):
        manifest, queries, codebook = corpus
        strategy = RegionStrategy.parse("detector:0.3")
        index = build_index(manifest, codebook, "r-asmk", strategy, normalize_regional=False)
        qf = queries.load_features(queries.images[0])
        got = query(index, qf, top_n=len(manifest.images)).ranking
        expected = exhaustive_ranking(
            manifest, codebook, "r-asmk", strategy, qf, POOL_MAX, normalize=False
        )
        assert [i for i, _ in got] == [i for i, _ in expected]
        for (gi, gs), (ei, es) in zip(got, expected):
            assert gs == pytest.approx(es, abs=1e-6)

    def test_identical_image_scores_one_asmk(self, corpus):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        db_features = manifest.load_features(manifest.images[0])
        result = query(index, db_features, top_n=3)
        assert result.ranking[0][0] == manifest.images[0].image_id
        assert result.ranking[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_pooling_arithmetic(self):
        # One image with entry scores {0.2, 0.7, 0.5}: max 0.7, avg 0.4667.
        scores = np.array([0.2, 0.7, 0.5])
        assert scores.max() == pytest.approx(0.7)
        assert scores.mean() == pytest.approx(0.466666, abs=1e-4)

    def test_max_at_least_avg_for_nonnegative_scores(self, corpus):
        manifest, queries, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("detector:0.1"))
        qf = queries.load_features(queries.images[3])
        mx = dict(query(index, qf, pooling=POOL_MAX, top_n=100).ranking)
        av = dict(query(index, qf, pooling=POOL_AVG, top_n=100).ranking)
        for image_id, s in av.items():
            assert mx[image_id] >= s - 1e-9

    def test_empty_query_returns_empty_with_warning(self, corpus, caplog):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        empty = make_features(np.random.default_rng(0), 0, 8, image_id="void")
        with caplog.at_level("WARNING"):
            result = query(index, empty)
        assert result.ranking == []
        assert any("no descriptors" in m for m in caplog.messages)

    def test_bad_pooling_rejected(self, corpus):
        manifest, queries, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        with pytest.raises(ConfigError):
            query(index, queries.load_features(queries.images[0]), pooling="median")

    def test_adding_an_image_preserves_existing_pair_scores(self, corpus):
        manifest, queries, codebook = corpus
        import copy

        shorter = copy.copy(manifest)
        shorter.images = manifest.images[:-1]
        full_index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        part_index = build_index(shorter, codebook, "asmk", RegionStrategy.parse("whole"))
        qf = queries.load_features(queries.images[0])
        full = dict(query(full_index, qf, top_n=100).ranking)
        part = dict(query(part_index, qf, top_n=100).ranking)
        for image_id, s in part.items():
            assert full[image_id] == s


class TestPersistence:
    def test_round_trip_query_identical(self, corpus, tmp_path):
        manifest, queries, codebook = corpus
        for mode, strategy_text in (("asmk-star", "detector:0.3"), ("r-vlad", "detector:0.3")):
            index = build_index(manifest, codebook, mode, RegionStrategy.parse(strategy_text))
            target = tmp_path / f"{mode}.dtri"
            save_index(index, target)
            loaded = load_index(target)
            assert loaded.mode == index.mode
            assert loaded.strategy == index.strategy
            assert loaded.codebook_hash == index.codebook_hash
            qf = queries.load_features(queries.images[1])
            assert query(loaded, qf, top_n=50).ranking == query(index, qf, top_n=50).ranking
            # serialization is canonical
            assert serialize_index(loaded) == serialize_index(index)

    def test_truncated_file_rejected(self, corpus, tmp_path):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        payload = serialize_index(index)
        (tmp_path / "broken.dtri").write_bytes(payload[: len(payload) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_index(tmp_path / "broken.dtri")

    def test_trailing_bytes_rejected(self, corpus, tmp_path):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        (tmp_path / "pad.dtri").write_bytes(serialize_index(index) + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_index(tmp_path / "pad.dtri")

    @pytest.mark.parametrize(
        "field", ["image id byte length", "region index", "strategy byte length", "codebook dim"]
    )
    def test_u16_field_overflow_is_data_error(self, corpus, tmp_path, field):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("detector:0.3"))
        first = index.entries[0]
        if field == "image id byte length":
            entries = [dataclasses.replace(first, image_id="x" * 65536)] + index.entries[1:]
            index = dataclasses.replace(index, entries=entries)
        elif field == "region index":
            entries = [dataclasses.replace(first, region_index=65536)] + index.entries[1:]
            index = dataclasses.replace(index, entries=entries)
        elif field == "strategy byte length":
            index = dataclasses.replace(index, strategy="d" * 65536)
        else:
            wide = Codebook(centroids=np.zeros((1, 65536), dtype=np.float32))
            index = dataclasses.replace(index, codebook=wide)
        with pytest.raises(DataError, match=field) as err:
            save_index(index, tmp_path / "over.dtri")
        assert err.value.exit_code == 3
        assert not (tmp_path / "over.dtri").exists()

    def test_u16_fields_at_their_maximum_serialize(self, corpus):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        first = dataclasses.replace(index.entries[0], image_id="x" * 65535, region_index=65535)
        index = dataclasses.replace(index, entries=[first] + index.entries[1:])
        assert len(serialize_index(index)) > 65535

    @pytest.mark.parametrize("strategy", ["detector:7", "rmac:4", "banana", "\udcff"])
    def test_unparsable_strategy_is_format_error(self, corpus, tmp_path, strategy):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        payload = serialize_index(index)
        # "\udcff" stands for bytes that are not UTF-8.
        raw = strategy.encode(errors="surrogateescape")
        head = len(b"whole").to_bytes(2, "little") + b"whole"
        payload = payload.replace(head, len(raw).to_bytes(2, "little") + raw, 1)
        (tmp_path / "strategy.dtri").write_bytes(payload)
        with pytest.raises(FormatError, match="region strategy") as err:
            load_index(tmp_path / "strategy.dtri")
        assert err.value.exit_code == 3

    @pytest.mark.parametrize("gamma", [-0.5, float("nan"), float("inf")])
    def test_bad_gamma_is_format_error(self, corpus, tmp_path, gamma):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk-star", RegionStrategy.parse("whole"))
        gammas = index.gammas.copy()
        gammas[3] = gamma
        save_index(dataclasses.replace(index, gammas=gammas), tmp_path / "gamma.dtri")
        with pytest.raises(FormatError, match="gammas") as err:
            load_index(tmp_path / "gamma.dtri")
        assert err.value.exit_code == 3

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_payload_is_format_error(self, corpus, tmp_path, value):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "r-vlad", RegionStrategy.parse("detector:0.3"))
        word = sorted(index.postings)[-1]
        ids, payload = index.postings[word]
        payload = payload.copy()
        payload[-1, -1] = value
        postings = dict(index.postings)
        postings[word] = (ids, payload)
        save_index(dataclasses.replace(index, postings=postings), tmp_path / "payload.dtri")
        with pytest.raises(FormatError, match="payloads") as err:
            load_index(tmp_path / "payload.dtri")
        assert err.value.exit_code == 3

    def test_empty_index_round_trips(self, tmp_path, corpus):
        manifest, queries, codebook = corpus
        import copy

        empty_manifest = copy.copy(manifest)
        empty_manifest.images = []
        index = build_index(empty_manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        assert index.entry_count == 0
        save_index(index, tmp_path / "empty.dtri")
        loaded = load_index(tmp_path / "empty.dtri")
        qf = queries.load_features(queries.images[0])
        assert query(loaded, qf).ranking == []
