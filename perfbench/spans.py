"""Span tracing of the ``ramk`` layers, installed from outside the library.

Tracing replaces layer functions at the sites where the library looks
them up (``module.attribute``) with wrappers that record one span per
call: name, start, end, parent span and operation id.  Spans stay in
memory and are written once, when the run ends.  A wrapped name that no
longer exists is reported as missing instead of failing the run.

A layer's self time is the time its spans cover minus the time their
child spans cover.  Counters are taken at the same call boundaries.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from statistics import fmean

LAYERS = (
    "synthetic", "features_io", "codebook", "kernels", "regional", "index", "rerank", "evaluation",
)


class Tracer:
    """Span recorder plus per-layer counters for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []  # name, start, end, parent, op
        self.counts: dict[tuple[str, str], float] = defaultdict(float)  # (phase, counter) -> total
        self.samples: dict[str, list[float]] = defaultdict(list)  # per-call values behind averages
        self.errors: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.op = "setup-0"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_query_words: list[int] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counts[(_phase(self.op), name)] += value

    def call(self, name: str, fn, args, kwargs, after=None):
        parent = self._stack[-1] if self._stack else -1
        slot = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(slot)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[slot] = (name, start, end, parent, self.op)
        if after is not None:
            after(self, result, args, kwargs)
        return result

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in ``TARGETS``; names that do not resolve are missing."""
        if self._saved:
            return
        self.missing = []
        for target, span, after in TARGETS:
            module_name, _, attr = target.partition(":")
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            setattr(module, attr, _wrapper(self, span, original, after))
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- reporting ---------------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """(phase, span name) -> self seconds: duration minus child-covered time."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start  # children of one span never overlap
        out: dict[tuple[str, str], float] = defaultdict(float)
        for (name, start, end, _, op), child in zip(self.spans, covered):
            out[(_phase(op), name)] += (end - start) - child
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def _phase(op: str) -> str:
    """Operation ids are ``<phase>-<k>``: set-up, a kind of timed operation
    or a secondary task; ``post`` is the evaluation after the timed phase."""
    return op.split("-", 1)[0]


def _wrapper(tracer: Tracer, span: str, original, after):
    def traced(*args, **kwargs):
        return tracer.call(span, original, args, kwargs, after)

    traced.__wrapped__ = original
    return traced


# -- counters taken at call boundaries ------------------------------------------


def _after_load(tr: Tracer, result, args, kwargs) -> None:
    tr.count("features_io.loads", 1)
    tr.count("features_io.bytes_read", os.path.getsize(args[0]))


def _after_quantize(tr: Tracer, result, args, kwargs) -> None:
    tr.count("codebook.descriptors_quantized", len(result))


def _after_train(tr: Tracer, result, args, kwargs) -> None:
    tr.count("codebook.kmeans_iterations", result.iterations or 0)


def _after_aggregate(tr: Tracer, result, args, kwargs) -> None:
    tr.count("kernels.aggregate_calls", 1)
    tr.count("kernels.words_populated", len(result.entries))


def _after_select(tr: Tracer, result, args, kwargs) -> None:
    tr.samples["regional.regions_per_image"].append(result.count)


def _after_index(tr: Tracer, result, args, kwargs) -> None:
    images = len(result.image_ids())
    if images:
        tr.samples["index.entries_per_image"].append(result.entry_count / images)


def _after_query_repr(tr: Tracer, result, args, kwargs) -> None:
    tr._last_query_words = list(result.entries)


def _after_query(tr: Tracer, result, args, kwargs) -> None:
    postings = args[0].postings
    scanned = sum(len(postings[w][0]) for w in tr._last_query_words if w in postings)
    tr.samples["index.postings_scanned_per_query"].append(scanned)
    tr._last_query_words = []


def _after_match(tr: Tracer, result, args, kwargs) -> None:
    tr.samples["rerank.matches_per_candidate"].append(len(result))


def _after_ransac(tr: Tracer, result, args, kwargs) -> None:
    inliers = len(result[1])
    tr.count("rerank.candidates_verified", 1)
    tr.samples["rerank.inliers_per_candidate"].append(inliers)
    tr.samples["rerank.verified_ratio"].append(1.0 if inliers >= 3 else 0.0)


# (module:attribute at the call site, span name, counter hook).  Library
# functions call each other through module globals, so wrapping the name in
# the module that calls it catches every call made from there.
TARGETS = (
    ("ramk.synthetic:generate_synthetic_dataset", "synthetic.generate", None),
    ("ramk.features_io:load_image_features", "features_io.load", _after_load),
    ("ramk.codebook:train_codebook", "codebook.train", _after_train),
    ("ramk.codebook:quantize_batch", "codebook.quantize", _after_quantize),
    ("ramk.index:aggregate", "kernels.aggregate", _after_aggregate),
    ("ramk.regional:aggregate", "kernels.aggregate", _after_aggregate),
    ("ramk.index:select_regions", "regional.select", _after_select),
    ("ramk.index:aggregate_regional", "regional.fold", None),
    ("ramk.index:build_index", "index.assemble", _after_index),
    ("ramk.index:save_index", "index.save", None),
    ("ramk.index:serialize_index", "index.serialize", None),
    ("ramk.index:load_index", "index.load", _after_index),
    ("ramk.index:query", "index.query", _after_query),
    ("ramk.index:query_representation", "index.query", _after_query_repr),
    ("ramk.rerank:spatial_rerank", "rerank.rerank", None),
    ("ramk.rerank:match_features", "rerank.match", _after_match),
    ("ramk.rerank:ransac_affine", "rerank.ransac", _after_ransac),
    ("ramk.evaluation:evaluate", "evaluation.evaluate", None),
)

# Per-layer metric -> (unit, how it is derived, end-to-end metrics it should move).
# "self:<span>" sums self seconds of that span and "count:<name>" a counter,
# per timed operation, or per unit of the phase after "@" (set-up, load
# task, evaluation); "mean:<name>" averages per-call samples;
# "errors:<layer>" counts raised errors.
LAYER_METRICS = {
    "synthetic.generate_s": ("s/setup", "self:synthetic.generate@setup", "setup_s on all"),
    "features_io.load_s": ("s/op", "self:features_io.load",
                           "build_images_per_s_p10 on build; query_ms_p90 on search-sp"),
    "features_io.loads": ("count/op", "count:features_io.loads", "as features_io.load_s"),
    "features_io.bytes_read": ("B/op", "count:features_io.bytes_read", "as features_io.load_s"),
    "codebook.quantize_s": ("s/op", "self:codebook.quantize",
                            "build_images_per_s_p10 on build; query_ms_p90 on search"),
    "codebook.descriptors_quantized": ("count/op", "count:codebook.descriptors_quantized",
                                       "as codebook.quantize_s"),
    "codebook.train_s": ("s/op", "self:codebook.train", "train_s_p90 on build; setup_s on search, search-sp"),
    "codebook.kmeans_iterations": ("count/op", "count:codebook.kmeans_iterations", "as codebook.train_s"),
    "kernels.aggregate_s": ("s/op", "self:kernels.aggregate",
                            "build_images_per_s_p10 on build; query_ms_p90 on search"),
    "kernels.aggregate_calls": ("count/op", "count:kernels.aggregate_calls", "as kernels.aggregate_s"),
    "kernels.words_populated": ("count/op", "count:kernels.words_populated", "as kernels.aggregate_s"),
    "regional.select_s": ("s/op", "self:regional.select", "build_images_per_s_p10 on build; setup_s on search"),
    "regional.fold_self_s": ("s/op", "self:regional.fold", "build_images_per_s_p10 on build; setup_s on search"),
    "regional.regions_per_image": ("count", "mean:regional.regions_per_image", "as regional.fold_self_s"),
    "index.assemble_self_s": ("s/op", "self:index.assemble",
                              "build_images_per_s_p10, index_bytes_per_image on build"),
    "index.save_self_s": ("s/op", "self:index.save", "build_images_per_s_p10 on build"),
    "index.serialize_s": ("s/op", "self:index.serialize",
                          "build_images_per_s_p10, index_bytes_per_image on build"),
    "index.load_s": ("s/load", "self:index.load@load", "index_load_ms_p90"),
    "index.query_self_s": ("s/op", "self:index.query", "query_ms_p90 on search"),
    "index.postings_scanned_per_query": ("count", "mean:index.postings_scanned_per_query",
                                         "as index.query_self_s"),
    "index.entries_per_image": ("count", "mean:index.entries_per_image",
                                "index_bytes_per_image; query_ms_p90 on search"),
    "rerank.rerank_self_s": ("s/op", "self:rerank.rerank", "query_ms_p90 on search-sp"),
    "rerank.match_s": ("s/op", "self:rerank.match", "query_ms_p90 on search-sp"),
    "rerank.ransac_s": ("s/op", "self:rerank.ransac", "query_ms_p90 on search-sp"),
    "rerank.candidates_verified": ("count/op", "count:rerank.candidates_verified", "as rerank.ransac_s"),
    "rerank.matches_per_candidate": ("count", "mean:rerank.matches_per_candidate", "as rerank.match_s"),
    "rerank.inliers_per_candidate": ("count", "mean:rerank.inliers_per_candidate",
                                     "map_medium, map_hard on search-sp"),
    "rerank.verified_ratio": ("ratio", "mean:rerank.verified_ratio", "map_medium, map_hard on search-sp"),
    "evaluation.evaluate_s": ("s", "self:evaluation.evaluate@post", "none; a guard"),
    **{f"{layer}.errors": ("count", f"errors:{layer}", "success_rate") for layer in LAYERS},
}


def layer_table(tracer: Tracer, units: dict[str, int], timed: set[str]) -> dict[str, dict]:
    """Per-layer metrics: self seconds (or counts) per timed operation.

    Spans are grouped by phase: set-up, each kind of timed operation,
    each secondary task, and the evaluation after (``post``).  A phase's total
    is divided by its units of work (set-ups, traced operations, tasks
    run), so it does not depend on how many operations fit into the run.
    A layer's value is the term of the ``timed`` phases, the workload's
    own operation (on ``build`` a training plus a build, one term per
    kind), or of the phase its source names; the terms of every phase are
    kept as its breakdown.  Averages
    are taken over every call, with the number of calls kept as their base.
    """
    selfs = tracer.self_times()
    rows: dict[str, dict] = {}
    for name, (unit, source, moves) in LAYER_METRICS.items():
        kind, _, key = source.partition(":")
        key, _, phase = key.partition("@")
        row = {"unit": unit, "moves": moves}
        if kind in ("self", "count"):
            table = selfs if kind == "self" else tracer.counts
            per_phase = {
                phase: total / max(units.get(phase, 1), 1)
                for (phase, k), total in table.items()
                if k == key
            }
            headline = {phase} if phase else timed
            value = sum(v for p, v in per_phase.items() if p in headline)
            row.update(value=float(value), per_phase=per_phase)
        elif kind == "mean":
            values = tracer.samples.get(key, [])
            row.update(value=fmean(values) if values else 0.0, base=len(values))
        else:
            row.update(value=tracer.errors.get(key, 0))
        rows[name] = row
    return rows
