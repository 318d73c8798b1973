"""The three benchmark workloads, run against the public ``ramk`` API.

Every workload runs the whole offline half (corpus, codebook, index,
save/load) and the online half (queries, rankings, evaluation), so it
can report every end-to-end metric; they differ in which stage is the
timed, repeated operation:

* ``build``      alternately ``train_codebook``, and ``build_index``
                 (r-asmk-star) + ``save_index``; index loads and one query
                 pass run between them.
* ``search``     one query crop through the inverted file (regional
                 search, asmk-star, max pooling), every crop in turn.
* ``search-sp``  one query through the filter plus affine-RANSAC re-rank
                 of the top 10, on the acceptance CLUTTERED corpus.

Two corpora of the workload's shape take part in a run.  The reference
corpus is generated from ``REFERENCE_SEED`` in every run: the gated
quality numbers (mAP, index bytes per image) and the reference sha256s
come from it, so they are identical across runs whatever the seed, and a
change of them shows as such.  The run's corpus is generated from
``--seed`` and varies the timed inputs from run to run: ``build``
alternates its builds between the two corpora and ``search-sp`` its
queries.  ``search`` would need a second 300-image build in its set-up
for that, so there the seed orders the reference query crops instead.

The load is a single client in a closed loop: the next operation starts
only after the previous one returned.  Library calls go through module
attributes (``rindex.query``) so the span wrappers of a traced run see
them.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ramk import codebook as rcodebook
from ramk import evaluation as revaluation
from ramk import index as rindex
from ramk import rerank as rrerank
from ramk import synthetic as rsynthetic
from ramk.codebook import partition
from ramk.errors import DataError
from ramk.features_io import DatasetManifest, GroundTruth, load_ground_truth, load_manifest
from ramk.index import serialize_index
from ramk.kernels import PLAIN_COUNTERPART, aggregate
from ramk.regional import RegionStrategy, aggregate_regional, regional_similarity, select_regions
from ramk.synthetic import SyntheticConfig

from spans import Tracer, layer_table

# "Large" corpus: 300 images x 400 descriptors (100 planted + 300 clutter),
# D=64, with shared patterns, look-alike offsets and imperfect boxes as in
# the acceptance CLUTTERED config.
LARGE = SyntheticConfig(
    landmarks=50, images_per_landmark=6, planted_descriptors=100, clutter_descriptors=300, dim=64,
    pattern_pool=32, offset_pool=8, landmark_offset_scale=1.2, instance_noise=0.9,
    box_coverage=0.8, box_miss_prob=0.15, box_noise=0.03, echo_boxes=2, echo_box_noise=0.25,
    background_boxes=12, background_box_min_frac=0.05, background_box_max_frac=0.15,
)
# The acceptance suite's CLUTTERED corpus (tests/test_acceptance.py).
CLUTTERED = SyntheticConfig(
    landmarks=20, images_per_landmark=6, planted_descriptors=16, clutter_descriptors=64, dim=32,
    pattern_pool=12, offset_pool=6, landmark_offset_scale=1.2, instance_noise=0.9,
    box_coverage=0.8, box_miss_prob=0.15, box_noise=0.03, echo_boxes=2, echo_box_noise=0.25,
    background_boxes=12, background_box_min_frac=0.05, background_box_max_frac=0.15,
)

REFERENCE_SEED = 1812  # seed of the reference corpora, the same in every run


@dataclass(frozen=True)
class Corpus:
    """One corpus shape and the pipeline settings a workload runs on it."""

    config: SyntheticConfig
    words: int                 # codebook size C
    train_sample: int | None   # descriptors drawn for k-means; None = all
    kmeans_iters: int
    mode: str
    strategy: str
    sp_depth: int = 0          # candidates re-ranked; 0 = filter only
    sp_iters: int = 1000


@dataclass(frozen=True)
class Plan:
    corpus: Corpus
    setup_reps: int    # set-ups per run; setup_s is their median
    roles: tuple[str, ...]  # corpora of the run: "ref" (REFERENCE_SEED), "run" (--seed)
    queries: tuple[tuple[str, int], ...]  # (role, stride): every stride-th query crop is issued
    loads: int         # load_index samples spread over the timed phase
    rebuilds: int = 0  # train + build samples spread over the timed phase (search-sp)


TOP_N = 100  # ranking depth of every query, the CLI default
ORACLE_QUERIES = 3  # queries per corpus re-scored exhaustively after the timed phase of search-sp

_BUILD = Corpus(LARGE, 1024, 10_000, 5, "r-asmk-star", "detector:0.4")
_SEARCH = Corpus(LARGE, 1024, 10_000, 5, "asmk-star", "detector:0.4")
_SP = Corpus(CLUTTERED, 48, None, 25, "r-asmk-star", "detector:0.4", sp_depth=10)

PLANS = {
    "full": {
        "build": Plan(_BUILD, setup_reps=2, roles=("ref", "run"), queries=(("ref", 1),), loads=100),
        "search": Plan(_SEARCH, setup_reps=1, roles=("ref",), queries=(("ref", 1),), loads=100),
        # 20 reference and 6 run query crops: a full re-ranked pass fits in ~22 s.
        "search-sp": Plan(_SP, setup_reps=3, roles=("ref", "run"), queries=(("ref", 6), ("run", 20)),
                          loads=100, rebuilds=4),
    },
}
# Tiny corpora for the benchmark's own smoke test.
_TINY = SyntheticConfig(
    landmarks=3, images_per_landmark=3, planted_descriptors=12, clutter_descriptors=24, dim=8,
    background_boxes=3, echo_boxes=1,
)
PLANS["tiny"] = {
    name: replace(
        plan,
        corpus=replace(plan.corpus, config=_TINY, words=16, train_sample=None, kmeans_iters=3,
                       sp_depth=min(plan.corpus.sp_depth, 3), sp_iters=50),
        setup_reps=min(plan.setup_reps, 2), queries=tuple((role, 1) for role, _ in plan.queries), loads=5,
        rebuilds=min(plan.rebuilds, 2),
    )
    for name, plan in PLANS["full"].items()
}


@dataclass
class Dataset:
    """One generated corpus of a run, its training sample and its index."""

    role: str   # "ref" or "run"
    seed: int
    manifest: DatasetManifest
    queries: DatasetManifest
    gt: GroundTruth
    sample: np.ndarray
    path: Path  # where its index is saved
    index: object = None
    known: frozenset = frozenset()

    def set_index(self, index) -> None:
        self.index = index
        self.known = frozenset(index.image_ids())


class Run:
    """State of one benchmark run: outcomes, timings, hashes and the tracer."""

    def __init__(self, seed: int, seconds: float, trace: bool, plan: Plan, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.plan = plan
        self.work = work
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.sha256: dict[str, str] = {}
        self.bytes_per_image: dict[str, float] = {}  # role -> index file size / images
        # Timed-operation durations of a traced run, by operation kind.
        self.op_seconds: dict[bool, dict[str, list[float]]] = {True: {}, False: {}}
        self.units: dict[str, int] = {"post": 1}  # traced phase -> units of work in it

    # -- bookkeeping -----------------------------------------------------------

    def outcome(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def traced(self, op: str) -> None:
        """Point the tracer at operation ``op`` and install its wrappers."""
        if self.tracer is not None:
            self.tracer.op = op
            self.tracer.install()

    def untrace(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def trace_turn(self, i: int, period: int) -> bool:
        """Traced runs alternate traced and untraced operations.  With a
        ``period`` (the length of a query list, or the number of operation
        kinds) the parity flips every ``period`` operations, so each query
        or kind is timed both ways."""
        return self.tracer is not None and (i + (i // period if period else 0)) % 2 == 1

    def timed_op(self, i: int, traced: bool, fn, kind: str = "op"):
        """Run and time operation ``i`` of ``kind``; returns (result, seconds)."""
        if traced:
            self.traced(f"{kind}-{i}")
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.untrace()
            if self.tracer is not None:
                self.op_seconds[traced].setdefault(kind, []).append(elapsed)
        return result, elapsed

    def _timed_both_ways(self) -> bool:
        """Whether every traced kind of operation has also run untraced."""
        traced, untraced = self.op_seconds[True], self.op_seconds[False]
        return bool(traced) and all(kind in untraced for kind in traced)

    def overhead(self) -> dict:
        """Tracing overhead: per operation kind, the median traced over the
        median untraced duration; kinds are summed before the ratio."""
        kinds = sorted(self.op_seconds[True].keys() & self.op_seconds[False].keys())
        traced = sum(float(np.median(self.op_seconds[True][k])) for k in kinds)
        untraced = sum(float(np.median(self.op_seconds[False][k])) for k in kinds)
        return {
            "traced_op_ms_p50": 1e3 * traced,
            "untraced_op_ms_p50": 1e3 * untraced,
            "traced_ops": sum(len(self.op_seconds[True][k]) for k in kinds),
            "untraced_ops": sum(len(self.op_seconds[False][k]) for k in kinds),
        }

    def closed_loop(self, primary, minimum: int, tasks: list[Task]) -> None:
        """One client: ``primary(i)`` back to back for the run's seconds and
        at least ``minimum`` times (a traced run also needs each traced kind
        of operation timed untraced too).  Secondary tasks run between operations, paced
        by elapsed time so their samples spread over the whole run, not one
        burst."""
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            done = i >= minimum and elapsed >= self.seconds
            if done and (self.tracer is None or self._timed_both_ways()):
                break
            primary(i)
            i += 1
            self._run_due(tasks, (time.perf_counter() - start) / self.seconds if self.seconds > 0 else 1.0)
        self._run_due(tasks, 1.0)

    def _run_due(self, tasks: list[Task], fraction: float) -> None:
        for task in tasks:
            while task.done < round(task.target * min(fraction, 1.0)) and task.ready():
                self.traced(f"{task.name}-{task.done}")
                try:
                    task.fn(task.done)
                finally:
                    self.untrace()
                task.done += 1
                self.units[task.name] = task.done

    # -- pipeline stages -------------------------------------------------------

    def generate(self, rep: int) -> list[Dataset]:
        """The run's corpora, each with its training sample."""
        datasets = []
        for role in self.plan.roles:
            seed = REFERENCE_SEED if role == "ref" else self.seed
            out = self.work / f"{role}-corpus-{rep}"
            manifest = rsynthetic.generate_synthetic_dataset(self.plan.corpus.config, seed, out)
            datasets.append(Dataset(
                role, seed, manifest, load_manifest(out / "queries.txt"), load_ground_truth(out / "groundtruth.txt"),
                self.training_sample(manifest, seed), self.work / f"{role}.dtri",
            ))
        return datasets

    def training_sample(self, manifest: DatasetManifest, seed: int) -> np.ndarray:
        vectors = np.concatenate([manifest.load_features(img).vectors for img in manifest.images])
        size = self.plan.corpus.train_sample
        if size is None or size >= len(vectors):
            return vectors
        rng = np.random.default_rng(seed)
        return vectors[np.sort(rng.choice(len(vectors), size, replace=False))]

    def train(self, ds: Dataset):
        c = self.plan.corpus
        start = time.perf_counter()
        codebook = rcodebook.train_codebook(ds.sample, c.words, max_iters=c.kmeans_iters, seed=ds.seed + 1)
        self.sample("train_s", time.perf_counter() - start)
        return codebook

    def build(self, ds: Dataset, codebook, path: Path | None = None) -> None:
        """``build_index`` + ``save_index``; the file's sha256 must not change within a run."""
        c = self.plan.corpus
        path = path or ds.path
        start = time.perf_counter()
        index = rindex.build_index(ds.manifest, codebook, c.mode, RegionStrategy.parse(c.strategy), threads=1)
        rindex.save_index(index, path)
        self.sample("build_images_per_s", len(ds.manifest.images) / (time.perf_counter() - start))
        self.bytes_per_image[ds.role] = path.stat().st_size / len(ds.manifest.images)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        previous = self.sha256.setdefault(f"{ds.role}_index", digest)
        changed = [f"sha256 changed within the run: {previous} -> {digest}"] if previous != digest else []
        self.outcome(changed, f"{ds.role} index build")

    def load(self, path: Path):
        """Time one ``load_index`` and check that it re-serializes to the file's bytes."""
        start = time.perf_counter()
        index = rindex.load_index(path)
        self.sample("index_load_ms", 1e3 * (time.perf_counter() - start))
        same = serialize_index(index) == path.read_bytes()
        self.outcome([] if same else ["save -> load -> serialize is not byte-equal"], "index load")
        return index

    def prepare(self, rep: int) -> list[Dataset]:
        """The run's corpora, each with an index built, saved and loaded back."""
        datasets = self.generate(rep)
        for ds in datasets:
            self.build(ds, self.train(ds))
            ds.set_index(self.load(ds.path))
        return datasets

    def evaluate(self, stream: QueryStream, metrics: dict) -> None:
        """mAP of the reference corpus's first pass; sha256 of every corpus's rankings."""
        for role in sorted({ds.role for ds, _ in stream.items}):
            results = [result for (r, _), result in sorted(stream.first.items()) if r == role]
            text = "".join(
                f"{r.query_id}\t{image_id}\t{score!r}\n" for r in results for image_id, score in r.ranking
            )
            self.sha256[f"{role}_rankings"] = hashlib.sha256(text.encode()).hexdigest()
            if role != "ref":
                continue
            gt = next(ds.gt for ds, _ in stream.items if ds.role == role)
            self.traced("post")
            try:
                for protocol in ("medium", "hard"):
                    metrics[f"map_{protocol}"] = revaluation.evaluate(results, gt, protocol).mean_ap
            finally:
                self.untrace()
        bad = [p for p in ("map_medium", "map_hard") if not math.isfinite(metrics[p])]
        self.outcome([f"{p} is not finite" for p in bad], "evaluation")


@dataclass
class Task:
    """Secondary work spread over the timed phase: ``fn(k)`` for k < target."""

    name: str
    fn: Callable[[int], object]
    target: int
    ready: Callable[[], bool] = lambda: True
    done: int = 0


class QueryStream:
    """The query crops of the plan's corpora, issued in turn and checked one
    by one.  The seed orders each corpus's crops; corpora are interleaved
    in proportion to their list lengths.  The first pass over the list
    gives the rankings that are evaluated; later passes must reproduce
    them exactly."""

    def __init__(self, run: Run, datasets: list[Dataset]):
        self.run = run
        by_role = {ds.role: ds for ds in datasets}
        rng = np.random.default_rng(run.seed)
        slots = []
        for j, (role, stride) in enumerate(run.plan.queries):
            ds = by_role[role]
            crops = ds.queries.images[::stride]
            order = rng.permutation(len(crops))
            slots += [((k + 0.5) / len(crops), j, ds, crops[n]) for k, n in enumerate(order)]
        self.items = [(ds, image) for _, _, ds, image in sorted(slots, key=lambda s: s[:2])]
        self.first: dict[tuple[str, str], object] = {}  # (role, query id) -> first-pass ranking

    def request(self, ds: Dataset, image):
        """One closed-loop request: load the crop, filter, optionally re-rank."""
        c = self.run.plan.corpus
        features = ds.queries.load_features(image)
        filtered = rindex.query(ds.index, features, top_n=TOP_N)
        if not c.sp_depth:
            return filtered, filtered
        ranked = rrerank.spatial_rerank(
            filtered, features, _corpus_loader(ds.manifest), c.sp_depth, iterations=c.sp_iters, seed=0, threads=1
        )
        return filtered, ranked

    def issue(self, i: int, traced: bool = False) -> None:
        run = self.run
        ds, image = self.items[i % len(self.items)]
        what = f"{ds.role} query {image.image_id}"
        try:
            (filtered, ranked), elapsed = run.timed_op(i, traced, lambda: self.request(ds, image))
        except Exception as exc:  # a failed request is counted, and the loop goes on
            run.outcome([f"raised {exc!r}"], what)
            return
        run.sample("query_ms", 1e3 * elapsed)
        problems = check_ranking(filtered, ds.known) + check_ranking(ranked, ds.known)
        previous = self.first.setdefault((ds.role, image.image_id), ranked)
        if ranked.ranking != previous.ranking:
            problems.append("ranking differs from the first pass")
        run.outcome(problems, what)


def check_ranking(result, known: frozenset) -> list[str]:
    """Scores non-increasing, ids unique and known, length min(TOP_N, N)."""
    ids = [image_id for image_id, _ in result.ranking]
    scores = [score for _, score in result.ranking]
    problems = []
    if len(ids) != min(TOP_N, len(known)):
        problems.append(f"length {len(ids)} != min({TOP_N}, {len(known)})")
    if len(set(ids)) != len(ids):
        problems.append("duplicate image ids")
    if not set(ids) <= known:
        problems.append("unknown image ids")
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append("scores increase")
    return problems


def _setup(run: Run, fn) -> tuple[list[float], list[Dataset]]:
    """Run ``fn(rep)`` ``setup_reps`` times; setup_s is the median duration.
    The corpora of all but the last set-up are deleted, untimed."""
    durations, datasets = [], []
    for rep in range(run.plan.setup_reps):
        for ds in datasets:
            shutil.rmtree(ds.manifest.root, ignore_errors=True)
        run.traced(f"setup-{rep}")
        start = time.perf_counter()
        try:
            datasets = fn(rep)
        finally:
            durations.append(time.perf_counter() - start)
            run.untrace()
    return durations, datasets


def _corpus_loader(manifest: DatasetManifest):
    """Candidate loader for re-ranking, as the CLI builds it."""
    def load(image_id: str):
        try:
            return manifest.load_features(image_id)
        except DataError:
            return None
    return load


# -- workloads ---------------------------------------------------------------


def workload_build(run: Run) -> tuple[list[float], QueryStream]:
    durations, datasets = _setup(run, run.generate)
    ref = datasets[0]
    c = run.plan.corpus

    # Warm-up, untimed: the whole operation on six images with a small codebook.
    head = DatasetManifest(name="warm", dim=ref.manifest.dim, images=ref.manifest.images[:6], root=ref.manifest.root)
    warm_codebook = rcodebook.train_codebook(ref.sample[:2048], min(64, len(ref.sample)), max_iters=2, seed=0)
    warm_path = run.work / "warm.dtri"
    rindex.save_index(rindex.build_index(head, warm_codebook, c.mode, RegionStrategy.parse(c.strategy)),
                      warm_path)
    rindex.load_index(warm_path)

    stream = QueryStream(run, [ref])
    codebooks = {}

    def build_op(i: int) -> None:
        """Even operations train the codebook, odd ones build and save the
        index with it; each pair goes to the next corpus in turn, and
        splitting it lets the secondary samples run in between.  The trace
        parity flips every pair, so each kind is timed both traced and
        untraced."""
        ds = datasets[(i // 2) % len(datasets)]
        if i % 2 == 0:
            codebooks[ds.role] = run.timed_op(i, run.trace_turn(i, 2), lambda: run.train(ds), "train")[0]
            return
        run.timed_op(i, run.trace_turn(i, 2), lambda: run.build(ds, codebooks[ds.role]), "build")

    # Loads and one query pass against the reference index as loaded back from its file.
    tasks = [
        Task("load", lambda k: ref.set_index(run.load(ref.path)), run.plan.loads, ref.path.exists),
        Task("query", lambda k: stream.issue(k), len(stream.items), lambda: ref.index is not None),
    ]
    # At least six operations: three trainings and three builds (reference, run, reference).
    run.closed_loop(build_op, 6, tasks)
    return durations, stream


def workload_search(run: Run) -> tuple[list[float], QueryStream]:
    durations, datasets = _setup(run, run.prepare)
    ref = datasets[0]
    stream = QueryStream(run, datasets)
    stream.request(*stream.items[0])  # warm-up, untimed
    run.closed_loop(
        lambda i: stream.issue(i, run.trace_turn(i, len(stream.items))),
        len(stream.items),
        [Task("load", lambda k: run.load(ref.path), run.plan.loads)],
    )
    return durations, stream


def workload_search_sp(run: Run) -> tuple[list[float], QueryStream]:
    durations, datasets = _setup(run, run.prepare)
    stream = QueryStream(run, datasets)
    stream.request(*stream.items[0])  # warm-up, untimed

    def rebuild(k: int) -> None:
        ds = datasets[k % len(datasets)]
        run.build(ds, run.train(ds), run.work / f"{ds.role}-rebuilt.dtri")

    run.closed_loop(
        lambda i: stream.issue(i, run.trace_turn(i, len(stream.items))),
        len(stream.items),
        [
            Task("load", lambda k: run.load(datasets[k % len(datasets)].path), run.plan.loads),
            Task("rebuild", rebuild, run.plan.rebuilds),
        ],
    )
    for ds in datasets:
        _oracle_check(run, ds, [image for d, image in stream.items if d is ds])
    return durations, stream


def _oracle_check(run: Run, ds: Dataset, images: list) -> None:
    """Re-score sampled queries exhaustively with the public oracles
    (``aggregate_regional`` + ``regional_similarity``); the filter
    ranking must match exactly (acceptance criterion 7)."""
    c = run.plan.corpus
    codebook = ds.index.codebook
    strategy = RegionStrategy.parse(c.strategy)
    database = {}
    for img in ds.manifest.images:
        features = ds.manifest.load_features(img)
        database[img.image_id] = aggregate_regional(features, select_regions(features, strategy), codebook, c.mode)
    images = sorted(images, key=lambda image: image.image_id)
    step = max(1, len(images) // ORACLE_QUERIES)
    for image in images[::step][:ORACLE_QUERIES]:
        features = ds.queries.load_features(image)
        q_repr = aggregate(partition(codebook, features), codebook, PLAIN_COUNTERPART[c.mode])
        scores = {i: np.float32(regional_similarity(q_repr, rep)) for i, rep in database.items()}
        expected = sorted(scores, key=lambda i: (-scores[i], i))[:TOP_N]
        got = rindex.query(ds.index, features, top_n=TOP_N).ranking
        problems = []
        if [i for i, _ in got] != expected:
            problems.append("filter ranking differs from exhaustive evaluation")
        elif max((abs(s - float(scores[i])) for i, s in got), default=0.0) > 1e-6:
            problems.append("filter scores differ from exhaustive evaluation by > 1e-6")
        run.outcome(problems, f"{ds.role} oracle {image.image_id}")


WORKLOADS = {
    "build": workload_build,
    "search": workload_search,
    "search-sp": workload_search_sp,
}


def _percentiles(values: list[float], name: str, qs: tuple[int, ...]) -> dict[str, float]:
    return {f"{name}_p{q}": float(np.percentile(values, q)) for q in qs}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str, work: Path) -> dict:
    plan = PLANS[scale][workload]
    run = Run(seed, seconds, trace, plan, work)
    setup_durations, stream = WORKLOADS[workload](run)
    metrics: dict[str, float] = {}
    run.evaluate(stream, metrics)
    s = run.samples
    metrics.update(
        setup_s=float(np.median(setup_durations)),
        index_bytes_per_image=run.bytes_per_image["ref"],
        **_percentiles(s["train_s"], "train_s", (50, 90)),
        **_percentiles(s["build_images_per_s"], "build_images_per_s", (10, 50)),
        **_percentiles(s["index_load_ms"], "index_load_ms", (50, 90)),
        **_percentiles(s["query_ms"], "query_ms", (50, 90, 99)),
    )
    out = {"run": run, "metrics": metrics}
    if run.tracer is not None:
        ops = {kind: len(seconds) for kind, seconds in run.op_seconds[True].items()}
        out["layers"] = layer_table(run.tracer, {**run.units, **ops, "setup": plan.setup_reps}, set(ops))
        out["overhead"] = run.overhead()
    return out
