"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here, not calibrated elsewhere.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from ramk.cli import main as cli_main
from ramk.codebook import WordPartition, partition, train_codebook
from ramk.evaluation import analyze_relevance, average_precision, evaluate
from ramk.features_io import (
    RegionBox,
    load_ground_truth,
    load_manifest,
    parse_image_features,
    serialize_image_features,
)
from ramk.index import POOL_MAX, build_index, load_index, query, save_index
from ramk.kernels import aggregate, kernel_similarity
from ramk.regional import (
    RegionSet,
    RegionStrategy,
    aggregate_regional,
    as_regional_query,
    assign_to_region,
    region_descriptor_indices,
    regional_similarity,
    select_regions,
)
from ramk.rerank import ransac_affine
from ramk.synthetic import SyntheticConfig, generate_synthetic_dataset

from conftest import make_codebook, make_features, random_boxes, selectivity
from test_index import ALL_CASES, exhaustive_ranking


def report(number: int, ok: bool, message: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, f"criterion {number}: {message}"


# The cluttered corpus used by criteria 5 and 6: shared visual patterns,
# look-alike landmark offsets, imperfect detector boxes, junk detections.
CLUTTERED = SyntheticConfig(
    landmarks=20,
    images_per_landmark=6,
    planted_descriptors=16,
    clutter_descriptors=64,
    dim=32,
    pattern_pool=12,
    offset_pool=6,
    landmark_offset_scale=1.2,
    instance_noise=0.9,
    box_coverage=0.8,
    box_miss_prob=0.15,
    box_noise=0.03,
    echo_boxes=2,
    echo_box_noise=0.25,
    background_boxes=12,
    background_box_min_frac=0.05,
    background_box_max_frac=0.15,
)
CLUTTERED_SEED = 1
CLUTTERED_CODEBOOK_SIZE = 48
DETECTOR_STRATEGY = "detector:0.4"
LOW_THRESHOLD_STRATEGY = "detector:0.01"


@pytest.fixture(scope="module")
def cluttered_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cluttered")
    manifest = generate_synthetic_dataset(CLUTTERED, CLUTTERED_SEED, out)
    vectors = np.concatenate(
        [manifest.load_features(i).vectors for i in manifest.image_ids()]
    )
    codebook = train_codebook(
        vectors, CLUTTERED_CODEBOOK_SIZE, max_iters=25, seed=CLUTTERED_SEED + 1
    )
    queries = load_manifest(out / "queries.txt")
    gt = load_ground_truth(out / "groundtruth.txt")
    return manifest, queries, gt, codebook


def corpus_map(manifest, queries, gt, codebook, mode, strategy_text, pooling=POOL_MAX):
    index = build_index(manifest, codebook, mode, RegionStrategy.parse(strategy_text))
    n = len(manifest.images)
    results = [
        query(index, queries.load_features(e), pooling=pooling, top_n=n)
        for e in queries.images
    ]
    return evaluate(results, gt, "medium").mean_ap, index


def test_criterion_01_kernel_identities():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        c = int(rng.integers(2, 65))
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, 41))
        cb = make_codebook(rng, c, d)
        f = make_features(rng, m, d)
        part = partition(cb, f)
        for mode in ("vlad", "asmk"):
            rep = aggregate(part, cb, mode)
            if not rep.entries:
                continue
            worst = max(worst, abs(kernel_similarity(rep, rep) - 1.0))
    assert selectivity(0.5) == 0.125
    assert selectivity(0.0) == 0.0
    assert selectivity(-0.3) == 0.0
    assert selectivity(1.0) == 1.0
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, ok, f"self-similarity error {worst:.2e} (tol 1e-6), sigma examples exact, {elapsed:.1f}s")


def test_criterion_02_average_pooling_collapse():
    start = time.monotonic()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(200):
        c = int(rng.integers(4, 33))
        d = int(rng.integers(2, 9))
        cb = make_codebook(rng, c, d)
        fq = make_features(rng, int(rng.integers(5, 40)), d, image_id="q")
        fy = make_features(rng, int(rng.integers(5, 40)), d, image_id="y")
        r = int(rng.integers(1, 11))
        regions = select_regions(fy, RegionStrategy(kind="whole"))
        regions.boxes.extend(random_boxes(rng, r - 1, 64, 48))
        q_plain = aggregate(partition(cb, fq), cb, "vlad")
        part = partition(cb, fy)
        pooled = 0.0
        for i in range(regions.count):
            idx = region_descriptor_indices(fy, regions, i)
            region_part = WordPartition(part.labels[idx], part.vectors[idx])
            pooled += kernel_similarity(q_plain, aggregate(region_part, cb, "vlad"))
        pooled /= regions.count
        collapsed = regional_similarity(
            as_regional_query(q_plain, "r-vlad"),
            aggregate_regional(fy, regions, cb, "r-vlad"),
            normalize=False,
        )
        worst = max(worst, abs(pooled - collapsed))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    report(2, ok, f"avg-pooled vs collapsed similarity error {worst:.2e} (tol 1e-5), {elapsed:.1f}s")


def test_criterion_03_single_region_degeneracy(tmp_path_factory):
    out = tmp_path_factory.mktemp("degeneracy")
    cfg = SyntheticConfig(
        landmarks=10, images_per_landmark=5, planted_descriptors=12,
        clutter_descriptors=28, dim=16, background_boxes=3,
    )
    manifest = generate_synthetic_dataset(cfg, 33, out)
    assert len(manifest.images) == 50
    vectors = np.concatenate([manifest.load_features(i).vectors for i in manifest.image_ids()])
    codebook = train_codebook(vectors, 64, max_iters=20, seed=4)
    queries = load_manifest(out / "queries.txt")
    whole = RegionStrategy.parse("whole")
    worst = 0.0
    for plain_mode, regional_mode in (("vlad", "r-vlad"), ("asmk", "r-asmk"), ("asmk-star", "r-asmk-star")):
        plain_index = build_index(manifest, codebook, plain_mode, whole)
        regional_index = build_index(manifest, codebook, regional_mode, whole)
        for entry in queries.images:
            qf = queries.load_features(entry)
            a = query(plain_index, qf, top_n=50).ranking
            b = query(regional_index, qf, top_n=50).ranking
            assert [i for i, _ in a] == [i for i, _ in b], (plain_mode, entry.image_id)
            worst = max(abs(sa - sb) for (_, sa), (_, sb) in zip(a, b))
            assert worst <= 1e-6, (plain_mode, entry.image_id, worst)
    report(3, True, f"R=1 rankings identical for all three mode pairs, max score delta {worst:.2e}")


def test_criterion_04_region_dilution():
    rng = np.random.default_rng(44)
    cb = make_codebook(rng, 16, 6)
    f = make_features(rng, 30, 6)
    base = select_regions(f, RegionStrategy(kind="whole"))
    base.boxes.append(RegionBox(5.0, 5.0, 40.0, 30.0, 0.9))
    empty_box = RegionBox(62.9, 46.9, 63.9, 47.9, 1.0)
    assert assign_to_region(f, empty_box).size == 0
    r = base.count
    asmk_base = aggregate_regional(f, base, cb, "r-asmk")
    vlad_base = aggregate_regional(f, base, cb, "r-vlad")
    worst_vec, worst_norm = 0.0, 0.0
    for k in range(1, 10):
        diluted = RegionSet(boxes=base.boxes + [empty_box] * k)
        asmk_dil = aggregate_regional(f, diluted, cb, "r-asmk")
        vlad_dil = aggregate_regional(f, diluted, cb, "r-vlad")
        for word, vec in asmk_base.entries.items():
            delta = float(np.max(np.abs(asmk_dil.entries[word].astype(np.float64) - vec.astype(np.float64))))
            worst_vec = max(worst_vec, delta)
        for word, vec in vlad_base.entries.items():
            n_base = float(np.linalg.norm(vec.astype(np.float64)))
            n_dil = float(np.linalg.norm(vlad_dil.entries[word].astype(np.float64)))
            scale_err = abs(n_dil / n_base - r / (r + k))
            worst_norm = max(worst_norm, scale_err / (r / (r + k)))
    ok = worst_vec <= 1e-6 and worst_norm <= 1e-6
    report(4, ok, f"r-asmk residual delta {worst_vec:.2e} (tol 1e-6), r-vlad norm scale error {worst_norm:.2e}")


def test_criterion_05_directional_retrieval(cluttered_corpus):
    start = time.monotonic()
    manifest, queries, gt, codebook = cluttered_corpus
    n = len(manifest.images)
    base_map, base_index = corpus_map(manifest, queries, gt, codebook, "asmk-star", "whole")
    rs_map, rs_index = corpus_map(manifest, queries, gt, codebook, "asmk-star", DETECTOR_STRATEGY)
    agg_map, agg_index = corpus_map(manifest, queries, gt, codebook, "r-asmk-star", DETECTOR_STRATEGY)

    expected_entries = sum(
        select_regions(manifest.load_features(img), RegionStrategy.parse(DETECTOR_STRATEGY)).count
        for img in manifest.images
    )
    elapsed = time.monotonic() - start
    gain = agg_map - base_map
    ok = (
        gain >= 0.05
        and rs_index.entry_count == expected_entries
        and agg_index.entry_count == n
        and rs_index.entry_count > n
        and agg_map >= rs_map
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"mAP asmk*={base_map:.3f} regional-search={rs_map:.3f} ({rs_index.entry_count / n:.2f}x entries) "
        f"r-asmk*={agg_map:.3f} (1x entries); gain {gain * 100:.1f} pts (need >= 5), {elapsed:.0f}s",
    )


def test_criterion_06_naive_degradation(cluttered_corpus):
    manifest, queries, gt, codebook = cluttered_corpus
    base_map, _ = corpus_map(manifest, queries, gt, codebook, "asmk-star", "whole")
    naive_map, _ = corpus_map(manifest, queries, gt, codebook, "naive-r-asmk", LOW_THRESHOLD_STRATEGY)
    star_map, _ = corpus_map(manifest, queries, gt, codebook, "r-asmk-star", LOW_THRESHOLD_STRATEGY)
    regions_per_image = np.mean(
        [
            select_regions(manifest.load_features(img), RegionStrategy.parse(LOW_THRESHOLD_STRATEGY)).count
            for img in manifest.images
        ]
    )
    ok = regions_per_image >= 8.0 and naive_map < base_map and star_map >= base_map
    report(
        6,
        ok,
        f"{regions_per_image:.1f} regions/image: naive-r-asmk {naive_map:.3f} < asmk* {base_map:.3f} "
        f"<= r-asmk* {star_map:.3f}",
    )


def test_criterion_07_inverted_file_equivalence(tmp_path_factory):
    out = tmp_path_factory.mktemp("invfile")
    cfg = SyntheticConfig(
        landmarks=6, images_per_landmark=5, planted_descriptors=10,
        clutter_descriptors=30, dim=8, background_boxes=4, echo_boxes=1,
    )
    manifest = generate_synthetic_dataset(cfg, 77, out)
    vectors = np.concatenate([manifest.load_features(i).vectors for i in manifest.image_ids()])
    codebook = train_codebook(vectors, 256, max_iters=12, seed=9)
    queries = load_manifest(out / "queries.txt")
    n = len(manifest.images)
    worst = 0.0
    for mode, strategy_text, pooling in ALL_CASES:
        strategy = RegionStrategy.parse(strategy_text)
        index = build_index(manifest, codebook, mode, strategy)
        for entry in queries.images[:4]:
            qf = queries.load_features(entry)
            got = query(index, qf, pooling=pooling, top_n=n).ranking
            expected = exhaustive_ranking(manifest, codebook, mode, strategy, qf, pooling)
            assert [i for i, _ in got] == [i for i, _ in expected], (mode, strategy_text, pooling)
            worst = max(
                worst, max(abs(gs - es) for (_, gs), (_, es) in zip(got, expected))
            )
    ok = worst <= 1e-6
    report(7, ok, f"query() == exhaustive evaluation for {len(ALL_CASES)} mode cases, max delta {worst:.2e}")


def test_criterion_08_average_precision_oracle():
    def oracle(ranked, positives, junk):
        kept = [x for x in ranked if x not in junk]
        if not positives:
            return None
        precisions, found = [], 0
        for rank, image_id in enumerate(kept, start=1):
            if image_id in positives:
                found += 1
                precisions.append(found / rank)
        return sum(precisions) / len(positives)

    rng = np.random.default_rng(88)
    universe = [f"i{k}" for k in range(40)]
    worst = 0.0
    for _ in range(1000):
        ranked = list(rng.permutation(universe))
        positives = set(rng.choice(universe, size=int(rng.integers(1, 12)), replace=False))
        junk_pool = [u for u in universe if u not in positives]
        junk = set(rng.choice(junk_pool, size=int(rng.integers(0, 10)), replace=False))
        got = average_precision(ranked, positives, junk)
        worst = max(worst, abs(got - oracle(ranked, positives, junk)))
        # junk-invariance fuzz: injecting junk ids anywhere never changes AP
        injected = list(ranked)
        extra = {f"junk{k}" for k in range(int(rng.integers(1, 6)))}
        for j in sorted(extra):
            injected.insert(int(rng.integers(0, len(injected) + 1)), j)
        fuzz = average_precision(injected, positives, junk | extra)
        worst = max(worst, abs(fuzz - got))
    ok = worst <= 1e-9
    report(8, ok, f"1000 random rankings with junk injection, max AP delta {worst:.2e} (tol 1e-9)")


def test_criterion_09_ransac_recovery():
    successes = 0
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        matrix = np.array([[1.1, 0.25], [-0.15, 0.95]])
        t = np.array([30.0, -12.0])
        n_in, n_out = 70, 30
        src = rng.uniform(0, 500, size=(n_in + n_out, 2))
        dst = src @ matrix.T + t
        dst[:n_in] += rng.normal(0, 0.5, size=(n_in, 2))
        dst[n_in:] = rng.uniform(-200, 900, size=(n_out, 2))
        _, inliers = ransac_affine(src, dst, iterations=1000, inlier_tol=3.0, seed=seed)
        if np.intersect1d(inliers, np.arange(n_in)).size >= math.ceil(0.95 * n_in):
            successes += 1
    model, inliers = ransac_affine(
        np.array([[0.0, 0.0], [5.0, 0.0]]),
        np.array([[1.0, 1.0], [6.0, 1.0]]),
        iterations=10,
        inlier_tol=1.0,
        seed=0,
    )
    degenerate_ok = model is None and inliers.size == 0
    ok = successes >= 95 and degenerate_ok
    report(9, ok, f"planted affine recovered in {successes}/100 seeds (need >= 95); <3 matches -> none")


def test_criterion_10_relevance_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("relevance")
    cfg = SyntheticConfig(
        landmarks=4, images_per_landmark=3, planted_descriptors=20,
        clutter_descriptors=40, dim=16, instance_noise=0.15,
        background_boxes=2, echo_boxes=0, box_noise=0.02,
    )
    manifest = generate_synthetic_dataset(cfg, 55, out)
    pairs = []
    ids = manifest.image_ids()
    for lm in range(cfg.landmarks):
        group = [i for i in ids if i.startswith(f"L{lm:03d}_")]
        pairs.append((manifest.load_features(group[0]), manifest.load_features(group[1])))
        pairs.append((manifest.load_features(group[1]), manifest.load_features(group[2])))
    table = analyze_relevance(pairs, [0, 50, 100, 200, 300], inlier_tol=24.0, seed=5)
    populated = [b for b in table if b.populated]
    ok = bool(populated) and all(b.ratio > 1.0 for b in populated)
    summary = "; ".join(
        f"[{b.bin_low:g},{b.bin_high:g}) in={b.inside_prob:.2f} out={b.outside_prob:.2f}"
        for b in populated
    )
    report(10, ok, f"inside/outside ratio > 1 in all {len(populated)} populated bins: {summary}")


def test_criterion_11_round_trip_and_determinism(tmp_path_factory):
    out = tmp_path_factory.mktemp("determinism")
    rng = np.random.default_rng(111)

    # Formats round-trip byte-exactly.
    f = make_features(rng, 17, 12, boxes=random_boxes(rng, 3, 64, 48))
    payload = serialize_image_features(f)
    assert serialize_image_features(parse_image_features(payload, image_id="x", width=64, height=48)) == payload

    def pipeline(tag: str, threads: str) -> dict[str, bytes]:
        root = out / tag
        root.mkdir()
        data = root / "data"
        assert cli_main([
            "gen-synthetic", "--out", str(data), "--seed", "21",
            "--landmarks", "4", "--images-per-landmark", "3",
            "--planted", "8", "--clutter", "24", "--dim", "8",
        ]) == 0
        cb = root / "cb.dtrc"
        assert cli_main([
            "train-codebook", "--manifest", str(data / "manifest.txt"),
            "--c", "24", "--seed", "2", "--out", str(cb),
        ]) == 0
        ix = root / "ix.dtri"
        assert cli_main([
            "build-index", "--manifest", str(data / "manifest.txt"),
            "--codebook", str(cb), "--mode", "r-asmk-star",
            "--regions", "detector:0.3", "--threads", threads, "--out", str(ix),
        ]) == 0
        results = root / "results.txt"
        assert cli_main([
            "search", "--index", str(ix), "--queries", str(data / "queries.txt"),
            "--manifest", str(data / "manifest.txt"), "--sp", "--sp-depth", "4",
            "--sp-seed", "3", "--threads", threads, "--top-n", "12", "--out", str(results),
        ]) == 0
        blobs = {}
        for path in sorted(data.rglob("*.dtrf")):
            blobs[f"data/{path.name}"] = path.read_bytes()
        blobs["manifest"] = (data / "manifest.txt").read_bytes()
        blobs["groundtruth"] = (data / "groundtruth.txt").read_bytes()
        blobs["codebook"] = cb.read_bytes()
        blobs["index"] = ix.read_bytes()
        blobs["results"] = b"\n".join(
            line for line in results.read_bytes().splitlines() if not line.startswith(b"#")
        )
        return blobs

    first = pipeline("a", "1")
    second = pipeline("b", "1")
    threaded = pipeline("c", "4")
    mismatches = [k for k in first if first[k] != second[k]] + [
        k for k in first if first[k] != threaded[k]
    ]
    # index round-trips through save/load to identical bytes
    ix = load_index(out / "a" / "ix.dtri")
    again = out / "a" / "ix2.dtri"
    save_index(ix, again)
    assert again.read_bytes() == (out / "a" / "ix.dtri").read_bytes()
    ok = not mismatches
    report(11, ok, f"pipeline rerun and 4-thread run bit-identical ({len(first)} artifacts checked)"
           + (f"; mismatches: {mismatches}" if mismatches else ""))
