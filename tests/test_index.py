"""Inverted-file index: build, query, pooling, persistence.

The key oracle scores a query against every database image by direct
kernel evaluation of freshly aggregated representations (no inverted
file involved), pools per image, and sorts with the same tie rule.  The
inverted-file traversal must reproduce it for every mode.
"""

from __future__ import annotations

import dataclasses
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ramk import index as index_module
from ramk.codebook import Codebook, WordPartition, partition, train_codebook
from ramk.errors import ConfigError, DataError, DimensionError, FormatError
from ramk.features_io import (
    DatasetManifest,
    ManifestImage,
    RegionBox,
    filter_by_attention,
    load_manifest,
    save_image_features,
)
from ramk.index import (
    POOL_AVG,
    POOL_MAX,
    RetrievalIndex,
    build_index,
    entry_scores,
    load_index,
    query,
    query_representation,
    save_index,
    serialize_index,
)
from ramk.kernels import (
    ALL_MODES,
    DEFAULT_SELECTIVITY,
    PLAIN_COUNTERPART,
    AggregatedRepresentation,
    SelectivityParams,
    _gammas,
    aggregate,
    is_regional_mode,
    kernel_similarity,
)
from ramk.regional import (
    RegionStrategy,
    aggregate_regional,
    region_aggregates,
    region_descriptor_indices,
    regional_similarity,
    select_regions,
)
from ramk.synthetic import SyntheticConfig, generate_synthetic_dataset

from conftest import (
    complement_packed,
    make_codebook,
    make_features,
    oracle_build_index,
    oracle_entry_scores,
    random_packed_rows,
    with_first_image_id,
)

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


def dtri_layout(index) -> tuple[int, int, list[tuple[int, int, int, int]]]:
    """Byte offsets in ``serialize_index(index)`` of the n_entries and
    n_words fields and, for each populated word, the offsets of its word
    and count fields and of its first entry id, with its count.  The fixed
    header before the centroids is 62 bytes."""
    n_entries_at = 62 + index.codebook.centroids.nbytes + 2 + len(index.strategy.encode())
    n_words_at = n_entries_at + 4 + sum(12 + len(index.images[i].encode()) for i in index.entry_image)
    counts = np.diff(index.word_ptr)[np.diff(index.word_ptr) > 0].tolist()
    words_at = n_words_at + 4
    counts_at, ids_at = words_at + 4 * len(counts), words_at + 8 * len(counts)
    starts = np.cumsum([0] + counts).tolist()
    records = [
        (words_at + 4 * i, counts_at + 4 * i, ids_at + 4 * start, count)
        for i, (start, count) in enumerate(zip(starts, counts))
    ]
    return n_entries_at, n_words_at, records


def random_star_index(
    rng: np.random.Generator, mode: str, dim: int, params: SelectivityParams, normalize: bool
) -> tuple[RetrievalIndex, np.ndarray]:
    """A star-mode index of random packed postings over 12 words of which
    the last 3 have none, and one query row per word.  Entries 0 and 1
    hold every populated word: entry 0 with the word's query row (Hamming
    distance 0), entry 1 with its complement (distance D)."""
    words, entries = 12, 9
    held = rng.random((words, entries)) < 0.6
    held[:, :2] = True
    held[-3:] = False
    word_of, entry_ids = np.nonzero(held)  # ascending words, entries ascending within each
    q_rows = random_packed_rows(rng, words, dim)
    payload = random_packed_rows(rng, len(word_of), dim)
    first = np.flatnonzero(np.diff(word_of, prepend=-1))
    payload[first] = q_rows[word_of[first]]
    payload[first + 1] = [complement_packed(row, dim) for row in q_rows[word_of[first]]]
    index = RetrievalIndex(
        mode=mode,
        params=params,
        normalize_regional=normalize,
        codebook=make_codebook(rng, words, dim),
        codebook_hash=bytes(32),
        strategy="whole",
        images=[f"img{i}" for i in range(entries)],
        entry_image=np.arange(entries),
        region_index=np.zeros(entries, dtype=np.int64),
        gammas=rng.uniform(0.1, 1.0, entries),
        word_ptr=np.append(0, np.cumsum(held.sum(axis=1))),
        entry_ids=entry_ids.astype(np.uint32),
        payload=payload,
    )
    return index, q_rows


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
                    rep = aggregate(WordPartition(part.labels[idx], part.vectors[idx]), codebook, mode)
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

    def test_thread_count_does_not_change_index(self, corpus, monkeypatch):
        # The index is built on the calling thread whatever `threads` asks
        # for: starting a thread fails the test.
        def no_threads(self):
            raise AssertionError("build_index started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        manifest, _, codebook = corpus
        a = build_index(manifest, codebook, "asmk", RegionStrategy.parse("detector:0.3"), threads=1)
        b = build_index(manifest, codebook, "asmk", RegionStrategy.parse("detector:0.3"), threads=4)
        assert serialize_index(a) == serialize_index(b)


@pytest.fixture(scope="module")
def edge_corpus(corpus, tmp_path_factory):
    """The corpus with three edge-case images among its own: one with no
    descriptors, one that an attention floor of 100 empties, and one whose
    top-scoring box holds no descriptor (an empty region).  The last has no
    declared size, so its whole-image box ends at its rightmost descriptor,
    which region 0 holds all the same."""
    manifest, _, codebook = corpus
    out = tmp_path_factory.mktemp("edges")
    rng = np.random.default_rng(27)
    blank = make_features(rng, 0, 8, boxes=[RegionBox(8.0, 6.0, 40.0, 30.0, 0.9)], image_id="blank")
    dim = make_features(rng, 20, 8, boxes=[RegionBox(4.0, 4.0, 30.0, 30.0, 0.7)], image_id="dim")
    dim.attentions[:] = 10.0
    hole = make_features(rng, 30, 8, boxes=[RegionBox(0.0, 0.0, 10.0, 10.0, 0.95),
                                            RegionBox(20.0, 20.0, 50.0, 40.0, 0.5)], image_id="hole")
    hole.positions[:] = rng.uniform(20.0, 44.0, size=(30, 2)).astype(np.float32)
    images = list(manifest.images)
    for at, features, size in [(2, blank, (64, 48)), (9, dim, (64, 48)), (15, hole, (None, None))]:
        save_image_features(features, out / f"{features.image_id}.dtrf")
        images.insert(at, ManifestImage(features.image_id, str(out / f"{features.image_id}.dtrf"), *size))
    edges = DatasetManifest(name="edges", dim=manifest.dim, images=images, root=manifest.root)
    return edges, codebook


class TestBlockBuild:
    """``build_index`` folds blocks of consecutive images; its bytes equal
    ``oracle_build_index``, which folds one image at a time, however the
    blocks are cut and whatever ``threads`` says."""

    @staticmethod
    def budgets(manifest, dim, strategy, attention_min) -> dict[str, int]:
        """Cell budgets that cut after every image, after the first eight
        images' cells (descriptors x regions x D each), and never."""
        cells = 0
        for img in manifest.images[:8]:
            features = manifest.load_features(img)
            if attention_min is not None:
                features = filter_by_attention(features, attention_min)
            cells += features.count * select_regions(features, strategy).count * dim
        return {"one": 1, "mid": cells, "whole": 1 << 40}

    def build_blocks(self, monkeypatch, budget, *args, **kwargs):
        """The index and the image count of each block it folded."""
        fold, blocks = index_module._fold_images, []

        def spy(block, *rest):
            blocks.append(len(block))
            return fold(block, *rest)

        monkeypatch.setattr(index_module, "_CHUNK_CELLS", budget)
        monkeypatch.setattr(index_module, "_fold_images", spy)
        try:
            return build_index(*args, **kwargs), blocks
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("strategy_text", ["whole", "detector:0.4", "rmac:2", "topk:2"])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_bytes_equal_the_per_image_oracle(self, edge_corpus, monkeypatch, mode, strategy_text):
        manifest, codebook = edge_corpus
        strategy = RegionStrategy.parse(strategy_text)
        n = len(manifest.images)
        for attention_min, normalize in [(None, True), (None, False), (100.0, True)]:
            options = dict(normalize_regional=normalize, attention_min=attention_min)
            want = serialize_index(oracle_build_index(manifest, codebook, mode, strategy, **options))
            for name, budget in self.budgets(manifest, codebook.dim, strategy, attention_min).items():
                # `threads` has no effect; 2 checks that it still changes no byte.
                for threads in (1,) if name == "whole" else (1, 2):
                    index, blocks = self.build_blocks(
                        monkeypatch, budget, manifest, codebook, mode, strategy, threads=threads, **options
                    )
                    assert sum(blocks) == n
                    if name == "one":
                        assert blocks == [1] * n
                    elif name == "mid":
                        assert 1 < len(blocks) < n and max(blocks) > 1
                    else:
                        assert blocks == [n]
                    assert serialize_index(index) == want, (attention_min, normalize, name, threads)

    def test_edge_images_keep_their_entries(self, edge_corpus):
        manifest, codebook = edge_corpus
        strategy = RegionStrategy.parse("detector:0.4")
        index = build_index(manifest, codebook, "asmk", strategy, attention_min=100.0)
        at = {ident: i for i, ident in enumerate(index.images)}
        blank, dim, hole = (index.entry_image == at[ident] for ident in ("blank", "dim", "hole"))
        # Every region keeps its entry; with no descriptor in it, its gamma is 0.
        assert index.gammas[blank].tolist() == [0.0, 0.0]
        assert index.gammas[dim].tolist() == [0.0, 0.0]
        assert index.gammas[hole][0] > 0.0 and index.gammas[hole][1] == 0.0
        assert not np.isin(np.flatnonzero(blank | dim), index.entry_ids).any()
        regional = build_index(manifest, codebook, "r-asmk", strategy, attention_min=100.0)
        assert regional.entry_count == len(manifest.images)
        assert regional.gammas[[at["blank"], at["dim"]]].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_empty_manifest(self, corpus, mode, threads):
        manifest, _, codebook = corpus
        empty = DatasetManifest(name="empty", dim=manifest.dim, images=[], root=manifest.root)
        strategy = RegionStrategy.parse("detector:0.4")
        index = build_index(empty, codebook, mode, strategy, threads=threads)
        assert index.entry_count == 0 and index.word_ptr[-1] == 0
        assert serialize_index(index) == serialize_index(oracle_build_index(empty, codebook, mode, strategy))


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
            assert got == expected

    def test_raw_regional_flag_matches_oracle(self, corpus):
        manifest, queries, codebook = corpus
        strategy = RegionStrategy.parse("detector:0.3")
        index = build_index(manifest, codebook, "r-asmk", strategy, normalize_regional=False)
        qf = queries.load_features(queries.images[0])
        got = query(index, qf, top_n=len(manifest.images)).ranking
        expected = exhaustive_ranking(
            manifest, codebook, "r-asmk", strategy, qf, POOL_MAX, normalize=False
        )
        assert got == expected

    @pytest.mark.parametrize("strategy_text", ["whole", "detector:0.4", "rmac:2"])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_entry_scores_bitwise_equal_kernel(self, corpus, mode, strategy_text):
        # The float64 score of every entry is exactly the exhaustive kernel's:
        # the same per-word match, selectivity and word-order sum.
        manifest, queries, codebook = corpus
        strategy = RegionStrategy.parse(strategy_text)
        index = build_index(manifest, codebook, mode, strategy)
        reps = []
        for img in manifest.images:
            features = manifest.load_features(img)
            regions = select_regions(features, strategy)
            if is_regional_mode(mode):
                reps.append(aggregate_regional(features, regions, codebook, mode))
            else:
                reps += region_aggregates(features, regions, codebook, mode)
        similarity = regional_similarity if is_regional_mode(mode) else kernel_similarity
        for entry in queries.images:
            plain = query_representation(index, queries.load_features(entry))
            expected = np.array([similarity(plain, rep) for rep in reps])
            assert entry_scores(index, plain).tobytes() == expected.tobytes(), entry.image_id

    # Row widths of 1, 2, 4, 5, 8 and 16 bytes (uint8 to 2 x uint64 words,
    # padding bits at D=12 and 33); default, low-, high- and all-cutting
    # selectivity.
    @pytest.mark.parametrize(
        "params",
        [
            SelectivityParams(),
            SelectivityParams(alpha=2.5, tau=-0.2),
            SelectivityParams(alpha=1.7, tau=0.35),
            SelectivityParams(tau=1.0),
        ],
        ids=["default", "a2.5-t-0.2", "a1.7-t0.35", "t1.0"],
    )
    @pytest.mark.parametrize("dim", [8, 12, 32, 33, 64, 128])
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("mode", ["asmk-star", "r-asmk-star"])
    def test_star_entry_scores_bitwise_equal_per_word_oracle(self, mode, normalize, dim, params):
        rng = np.random.default_rng(dim)
        index, q_rows = random_star_index(rng, mode, dim, params, normalize)
        some = np.flatnonzero(rng.random(len(q_rows)) < 0.5)
        # Every word, a random half, only words without postings, and no word
        # (the aggregate of a query without descriptors).
        for words in [np.arange(len(q_rows)), some, np.arange(9, 12), np.arange(0)]:
            rows = q_rows[words]
            gamma = _gammas("asmk-star", rows, dim, params)[0]
            plain = AggregatedRepresentation("asmk-star", dim, words, rows, gamma)
            got, want = entry_scores(index, plain), oracle_entry_scores(index, plain)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_identical_image_scores_one_asmk(self, corpus):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        db_features = manifest.load_features(manifest.images[0])
        result = query(index, db_features, top_n=3)
        assert result.ranking[0][0] == manifest.images[0].image_id
        assert result.ranking[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_pooling_arithmetic(self, tmp_path):
        rng = np.random.default_rng(11)
        dim = 8
        codebook = make_codebook(rng, 12, dim)
        # Descriptors stay left of x=52, so image "a"'s box at x>=56 is an
        # empty region: its entry scores 0 and still counts in the average.
        boxes = {
            "a": [RegionBox(0, 0, 30, 24, 0.9), RegionBox(56, 0, 64, 48, 0.8)],
            "b": [RegionBox(10, 10, 50, 40, 0.7), RegionBox(0, 20, 40, 48, 0.6)],
            "c": [],
        }
        images, features = [], {}
        for name, image_boxes in boxes.items():
            f = make_features(rng, 30, dim, boxes=image_boxes, image_id=name)
            f.positions[:, 0] *= 0.8
            save_image_features(f, tmp_path / f"{name}.dtrf")
            images.append(ManifestImage(name, f"{name}.dtrf", 64, 48))
            features[name] = f
        manifest = DatasetManifest(name="pool", dim=dim, images=images, root=tmp_path)
        strategy = RegionStrategy.parse("detector:0.5")
        index = build_index(manifest, codebook, "asmk", strategy)
        qf = make_features(rng, 12, dim, image_id="q")
        qf.vectors[:] = features["a"].vectors[:12]
        q_repr = aggregate(partition(codebook, qf), codebook, "asmk")
        per_entry = {}
        for name, f in features.items():
            regions = select_regions(f, strategy)
            reps = region_aggregates(f, regions, codebook, "asmk")
            per_entry[name] = [kernel_similarity(q_repr, rep) for rep in reps]
        assert len(per_entry["a"]) == 3 and per_entry["a"][2] == 0.0
        for pooling in (POOL_MAX, POOL_AVG):
            got = dict(query(index, qf, pooling=pooling).ranking)
            for name, scores in per_entry.items():
                total = 0.0
                for s in scores:
                    total += s
                want = max(scores) if pooling == POOL_MAX else total / len(scores)
                assert got[name] == float(np.float32(want)), (pooling, name)

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

    @pytest.mark.parametrize("mode", ["asmk", "asmk-star", "r-asmk-star"])
    def test_file_length_is_the_sum_of_its_fields(self, corpus, mode):
        # Storage per image is measured from this length, so it must not
        # depend on how the fields are laid out.
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, mode, RegionStrategy.parse("detector:0.3"))
        c, d = codebook.centroids.shape
        n_words = np.count_nonzero(np.diff(index.word_ptr))
        row_bytes = (d + 7) // 8 if mode.endswith("star") else 4 * d
        expected = (
            62 + 4 * c * d + 2 + len(index.strategy.encode())
            + 4 + sum(12 + len(index.images[i].encode()) for i in index.entry_image)
            + 4 + 8 * n_words + len(index.entry_ids) * (4 + row_bytes)
        )
        assert len(serialize_index(index)) == expected

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
        if field == "image id byte length":
            index = dataclasses.replace(index, images=["x" * 65536] + index.images[1:])
        elif field == "region index":
            regions = index.region_index.copy()
            regions[0] = 65536
            index = dataclasses.replace(index, region_index=regions)
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
        regions = index.region_index.copy()
        regions[0] = 65535
        index = dataclasses.replace(index, images=["x" * 65535] + index.images[1:], region_index=regions)
        assert len(serialize_index(index)) > 65535

    @pytest.mark.parametrize("strategy", ["detector:7", "detector:.", "rmac:4", "banana", "\udcff"])
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
        payload = index.payload.copy()
        payload[-1, -1] = value
        save_index(dataclasses.replace(index, payload=payload), tmp_path / "payload.dtri")
        with pytest.raises(FormatError, match="payloads") as err:
            load_index(tmp_path / "payload.dtri")
        assert err.value.exit_code == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_centroid_is_format_error(self, corpus, tmp_path, value):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk-star", RegionStrategy.parse("detector:0.3"))
        data = bytearray(serialize_index(index))
        # The C*D float32 centroids follow the 62-byte header; patch word 1's third component.
        at = 62 + 4 * (codebook.dim + 2)
        data[at : at + 4] = struct.pack("<f", value)
        (tmp_path / "centroid.dtri").write_bytes(data)
        with pytest.raises(FormatError, match="non-finite centroid") as err:
            load_index(tmp_path / "centroid.dtri")
        assert err.value.exit_code == 3

    @pytest.mark.parametrize("field", ["n_entries", "n_words", "posting count"])
    def test_count_beyond_the_file_is_truncated(self, corpus, tmp_path, field):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("detector:0.3"))
        data = bytearray(serialize_index(index))
        n_entries_at, n_words_at, records = dtri_layout(index)
        at = {"n_entries": n_entries_at, "n_words": n_words_at, "posting count": records[0][1]}[field]
        data[at : at + 4] = b"\xff\xff\xff\xff"
        (tmp_path / "count.dtri").write_bytes(data)
        with pytest.raises(FormatError, match="truncated") as err:
            load_index(tmp_path / "count.dtri")
        assert err.value.exit_code == 3

    @pytest.mark.parametrize(
        "defect,message",
        [
            ("word repeats", "not strictly ascending"),
            ("word outside codebook", "outside codebook size"),
            ("entry ids descend", "not ascending for word"),
            ("entry id unknown", "unknown entry id"),
            ("padding bits set", "padding bits"),
        ],
    )
    def test_bad_posting_is_format_error(self, corpus, tmp_path, defect, message):
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("detector:0.3"))
        data = bytearray(serialize_index(index))
        records = dtri_layout(index)[2]

        def put(at: int, value: int) -> None:
            data[at : at + 4] = value.to_bytes(4, "little")

        if defect == "word repeats":  # the first word takes the second word's number
            put(records[0][0], int.from_bytes(data[records[1][0] : records[1][0] + 4], "little"))
        elif defect == "word outside codebook":
            put(records[-1][0], codebook.size)
        elif defect == "entry ids descend":  # swap the first two ids of a word
            at = next(ids_at for _, _, ids_at, count in records if count >= 2)
            data[at : at + 8] = data[at + 4 : at + 8] + data[at : at + 4]
        elif defect == "entry id unknown":
            _, _, ids_at, count = records[-1]
            put(ids_at + 4 * (count - 1), index.entry_count)
        else:  # asmk-star at D=12: each packed row gains a byte for dims 8-11
            star = build_index(manifest, codebook, "asmk-star", RegionStrategy.parse("detector:0.3"))
            wide = dataclasses.replace(
                star, codebook=Codebook(centroids=np.pad(codebook.centroids, ((0, 0), (0, 4))))
            )

            def with_last_byte(value: int) -> bytes:
                rows = np.pad(star.payload, ((0, 0), (0, 1)), constant_values=value)
                return serialize_index(dataclasses.replace(wide, payload=rows))

            (tmp_path / "clean.dtri").write_bytes(with_last_byte(0x05))
            assert load_index(tmp_path / "clean.dtri").payload.shape[1] == 2
            data = with_last_byte(0xF5)  # the 4 bits past D set
        (tmp_path / "posting.dtri").write_bytes(data)
        with pytest.raises(FormatError, match=message) as err:
            load_index(tmp_path / "posting.dtri")
        assert err.value.exit_code == 3

    @pytest.mark.parametrize("pair", ["first", "last"])
    @pytest.mark.parametrize("which", [0, -1])
    def test_descending_entry_ids_name_their_word(self, corpus, tmp_path, which, pair):
        # The first or last two ids of the first or last word with three
        # postings swap.
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("detector:0.3"))
        data = bytearray(serialize_index(index))
        word_at, _, ids_at, count = [r for r in dtri_layout(index)[2] if r[3] >= 3][which]
        at = ids_at + (0 if pair == "first" else 4 * (count - 2))
        data[at : at + 8] = data[at + 4 : at + 8] + data[at : at + 4]
        word = int.from_bytes(data[word_at : word_at + 4], "little")
        (tmp_path / "swapped.dtri").write_bytes(data)
        with pytest.raises(FormatError, match=rf"not ascending for word {word}$"):
            load_index(tmp_path / "swapped.dtri")

    @pytest.mark.parametrize(
        "defect,entry,region,message",
        [("repeated", 1, 0, "repeats"), ("split", 2, 1, "not contiguous")],
    )
    def test_bad_entry_layout_is_format_error(self, corpus, tmp_path, defect, entry, region, message):
        # Entry ``entry`` is rewritten to (first image, ``region``): a repeat of
        # entry 0 right after it, or a second region of the first image after
        # another image's entry.
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))

        def record(ids, regions) -> tuple[bytes, bytes]:
            """The id_len and region_index columns, and the image id bytes."""
            idents = [ident.encode() for ident in ids]
            lens = b"".join(len(ident).to_bytes(2, "little") for ident in idents)
            return lens + b"".join(r.to_bytes(2, "little") for r in regions), b"".join(idents)

        payload = serialize_index(index)
        ids = [index.images[i] for i in index.entry_image]
        regions = index.region_index.tolist()
        rewritten_ids, rewritten_regions = list(ids), list(regions)
        rewritten_ids[entry], rewritten_regions[entry] = ids[0], region
        for target, column in zip(record(ids, regions), record(rewritten_ids, rewritten_regions)):
            assert payload.count(target) == 1
            payload = payload.replace(target, column)
        (tmp_path / f"{defect}.dtri").write_bytes(payload)
        with pytest.raises(FormatError, match=message) as err:
            load_index(tmp_path / f"{defect}.dtri")
        assert err.value.exit_code == 3

    @pytest.mark.parametrize(
        "ident,valid",
        [
            ("L9.x/y+z_0-", True),
            ("a,b", False), ("a b", False), ("a=b", False), ("ab\n", False), ("", False),
            ("\u00e9", False),  # non-ASCII UTF-8
            ("\udcff", False),  # a byte that is not UTF-8
        ],
    )
    def test_image_id_outside_the_identifier_rule_is_format_error(self, corpus, tmp_path, ident, valid):
        # A loaded id must be one a results file can hold.
        manifest, _, codebook = corpus
        index = build_index(manifest, codebook, "asmk", RegionStrategy.parse("whole"))
        data = with_first_image_id(serialize_index(index), ident.encode(errors="surrogateescape"))
        (tmp_path / "ident.dtri").write_bytes(data)
        if valid:
            assert load_index(tmp_path / "ident.dtri").images == [ident] + index.images[1:]
            return
        with pytest.raises(FormatError, match="invalid image id") as err:
            load_index(tmp_path / "ident.dtri")
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


def entry_table(images: list[str], entry_image, region_index, gammas=None) -> RetrievalIndex:
    """An index with this entry table, over a 4-word D=3 codebook, with no postings."""
    gammas = np.ones(len(entry_image)) if gammas is None else gammas
    return RetrievalIndex(
        mode="asmk",
        params=DEFAULT_SELECTIVITY,
        normalize_regional=True,
        codebook=make_codebook(np.random.default_rng(0), 4, 3),
        codebook_hash=bytes(32),
        strategy="whole",
        images=images,
        entry_image=np.asarray(entry_image, dtype=np.intp),
        region_index=np.asarray(region_index, dtype=np.int64),
        gammas=gammas,
        word_ptr=np.zeros(5, dtype=np.int64),
        entry_ids=np.zeros(0, dtype=np.uint32),
        payload=np.zeros((0, 3), dtype=np.float32),
    )


class TestEntryTable:
    def test_derived_image_starts_and_id_order(self):
        index = entry_table(["b", "c", "a"], [0, 0, 1, 2, 2, 2], [3, 0, 0, 2, 0, 1])
        assert index.image_ids() == ["b", "c", "a"] and index.entry_count == 6
        assert index._image_starts.tolist() == [0, 2, 3]
        assert index._images_by_id.tolist() == [2, 0, 1]

    @pytest.mark.parametrize(
        "images,entry_image,region_index,message",
        [
            (["a", "b"], [0, 0, 1], [0, 0, 0], "repeats"),
            (["a"], [0, 0, 0], [2, 0, 2], "repeats"),
            (["a", "b"], [0, 1, 0], [0, 0, 1], "not contiguous"),  # a split image
            (["a", "b", "a"], [0, 1, 2], [0, 0, 1], "not contiguous"),  # the same, by id
            (["a", "b"], [0, 0], [0, 1], "missing"),  # image b has no entry
            (["a", "b", "c"], [0, 2], [0, 0], "missing"),
            (["a,b"], [0], [0], "invalid image id 'a,b'"),
            (["a", "b c", "d,e"], [0, 1, 2], [0, 0, 0], "invalid image id 'b c'"),  # the first bad id
            (["a", ""], [0, 1], [0, 0], "invalid image id ''"),
            (["a"], [0, 0], [0], "columns differ in length"),  # one region index short
        ],
    )
    def test_bad_layout_is_data_error(self, images, entry_image, region_index, message):
        with pytest.raises(DataError, match=message):
            entry_table(images, entry_image, region_index)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_array_checks_match_the_per_entry_rule(self, data):
        # Reference: the rule on a list of (image id, region index) entries.
        images = data.draw(st.lists(st.sampled_from("abc"), max_size=3))
        n = data.draw(st.integers(0, 6)) if images else 0
        entry_image = data.draw(st.lists(st.integers(0, max(len(images) - 1, 0)), min_size=n, max_size=n))
        regions = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        ids = [images[i] for i in entry_image]
        runs = [ident for i, ident in enumerate(ids) if i == 0 or ident != ids[i - 1]]
        valid = runs == images and len(set(runs)) == len(runs) and len(set(zip(ids, regions))) == n
        if valid:
            assert entry_table(images, entry_image, regions).image_ids() == images
        else:
            with pytest.raises(DataError, match="contiguous|repeats"):
                entry_table(images, entry_image, regions)

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_layouts_round_trip(self, tmp_path, data):
        # 0-6 images of 1-4 entries each, region indices distinct per image in any order.
        sizes = data.draw(st.lists(st.integers(1, 4), max_size=6))
        ident = st.from_regex(r"[A-Za-z0-9._/+-]{1,12}", fullmatch=True)
        images = data.draw(st.lists(ident, min_size=len(sizes), max_size=len(sizes), unique=True))
        regions = [
            r for size in sizes
            for r in data.draw(st.lists(st.integers(0, 65535), min_size=size, max_size=size, unique=True))
        ]
        entry_image = np.repeat(np.arange(len(sizes)), sizes)
        gammas = np.random.default_rng(len(regions)).uniform(0.0, 2.0, len(regions))
        index = entry_table(images, entry_image, regions, gammas)
        save_index(index, tmp_path / "table.dtri")
        loaded = load_index(tmp_path / "table.dtri")
        assert serialize_index(loaded) == (tmp_path / "table.dtri").read_bytes()
        assert loaded.image_ids() == images
        np.testing.assert_array_equal(loaded.entry_image, entry_image)
        np.testing.assert_array_equal(loaded.region_index, regions)
        np.testing.assert_array_equal(loaded.gammas, gammas)


def with_entry_ids(ids: list[bytes], regions: list[int]) -> bytes:
    """DTRI bytes of a posting-free index whose entry section holds these
    raw id bytes and region indices, gamma 1 each, written past the checks
    ``RetrievalIndex`` makes."""
    index = entry_table(["x"], [0], [0])
    n_entries_at, n_words_at, _ = dtri_layout(index)
    data = serialize_index(index)
    section = (
        struct.pack("<I", len(ids))
        + np.array([len(i) for i in ids] + regions, dtype="<u2").tobytes()
        + np.ones(len(ids), dtype="<f8").tobytes()
        + b"".join(ids)
    )
    return data[:n_entries_at] + section + data[n_words_at:]


def runs_by_string(ids: list[bytes]) -> tuple[list[str], np.ndarray]:
    """Reference: each id decoded alone, and a new image wherever the
    decoded id differs from the one before."""
    texts = [str(i, "ascii", "replace") for i in ids]
    new = [i == 0 or t != texts[i - 1] for i, t in enumerate(texts)]
    return [t for t, s in zip(texts, new) if s], np.cumsum(new, dtype=np.intp) - 1


class TestLoadedIdRuns:
    """``load_index`` finds each image's run of entries by comparing id bytes
    as arrays; it must agree with comparing the decoded ids one by one."""

    def check(self, tmp_path, ids: list[bytes], regions: list[int]) -> None:
        path = tmp_path / "ids.dtri"
        path.write_bytes(with_entry_ids(ids, regions))
        images, entry_image = runs_by_string(ids)
        try:
            entry_table(images, entry_image, regions)
        except DataError as exc:
            with pytest.raises(FormatError) as err:
                load_index(path)
            assert str(err.value) == f"{path}: {exc}" and err.value.exit_code == 3
            return
        loaded = load_index(path)
        assert loaded.images == images
        np.testing.assert_array_equal(loaded.entry_image, entry_image)
        np.testing.assert_array_equal(loaded.region_index, regions)

    @pytest.mark.parametrize(
        "ids,regions",
        [
            ([b"img1", b"img2", b"img3"], [0, 0, 0]),  # equal lengths, last byte differs
            ([b"img1", b"img1", b"img2", b"img2"], [0, 1, 0, 1]),
            ([b"a", b"ab"], [0, 0]),  # prefix ids
            ([b"ab", b"a", b"a"], [0, 0, 1]),
            ([b"ab", b"ba"], [0, 0]),
            ([b"a", b"b", b"a"], [0, 0, 1]),  # a split image
            ([b"a", b"a"], [2, 2]),  # a repeated entry
            ([b"a", b""], [0, 0]),  # an empty id
            ([b"\xff", b"\xfe"], [0, 1]),  # two bytes that decode alike
            ([b"a\xc3\xa9", b"a\xc3\xa8"], [0, 0]),
            ([], []),
        ],
    )
    def test_runs_match_the_decoded_ids(self, tmp_path, ids, regions):
        self.check(tmp_path, ids, regions)

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_id_columns_match_the_decoded_ids(self, tmp_path, data):
        pool = [b"a", b"b", b"ab", b"ba", b"img1", b"img2", b"jmg1", b"", b"a,", b"\xff", b"\xfe"]
        ids = data.draw(st.lists(st.sampled_from(pool), max_size=8))
        regions = data.draw(st.lists(st.integers(0, 2), min_size=len(ids), max_size=len(ids)))
        self.check(tmp_path, ids, regions)
