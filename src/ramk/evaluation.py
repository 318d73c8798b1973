"""Junk-aware retrieval metrics and the box/attention relevance analysis.

Average precision uses raw (uninterpolated) precision at each positive's
rank after junk ids are removed from the ranking; positives missing from
a truncated ranking contribute zero.  Protocols: ``medium`` counts easy
and hard ground truth as positive; ``hard`` counts only hard and treats
easy as junk.  Queries whose positive set is empty are excluded from the
means and reported.  Mean precision at 10 always divides by 10, even
when fewer than 10 non-junk results exist.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .features_io import GroundTruth, ImageFeatures
from .index import RankedResult
from .regional import assign_to_region
from .rerank import match_features, ransac_affine

logger = logging.getLogger(__name__)

PROTOCOL_MEDIUM = "medium"
PROTOCOL_HARD = "hard"
PROTOCOLS = (PROTOCOL_MEDIUM, PROTOCOL_HARD)


def average_precision(
    ranked: Sequence[str], positives: Set[str], junk: Set[str]
) -> float | None:
    """AP of one junk-filtered ranking; None when there are no positives."""
    if len(set(ranked)) != len(ranked):
        raise DataError("ranking contains duplicate image ids")
    if not positives:
        return None
    hits = 0
    total = 0.0
    rank = 0
    for image_id in ranked:
        if image_id in junk:
            continue
        rank += 1
        if image_id in positives:
            hits += 1
            total += hits / rank
    return total / len(positives)


def precision_at(ranked: Sequence[str], positives: Set[str], junk: Set[str], k: int = 10) -> float:
    """Precision among the first k non-junk results, fixed denominator k."""
    hits = 0
    rank = 0
    for image_id in ranked:
        if image_id in junk:
            continue
        rank += 1
        if rank > k:
            break
        if image_id in positives:
            hits += 1
    return hits / k


@dataclass
class Metrics:
    protocol: str
    mean_ap: float
    mean_p10: float
    per_query_ap: dict[str, float]
    excluded: tuple[str, ...]

    @property
    def query_count(self) -> int:
        return len(self.per_query_ap)


def protocol_sets(gt: GroundTruth, query_id: str, protocol: str) -> tuple[frozenset[str], frozenset[str]]:
    """(positives, junk) for one query under the protocol."""
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    try:
        rec = gt.queries[query_id]
    except KeyError:
        raise DataError(f"query {query_id!r} has no ground-truth record") from None
    if protocol == PROTOCOL_MEDIUM:
        return rec.easy | rec.hard, rec.junk
    return rec.hard, rec.junk | rec.easy


def evaluate(results: Iterable[RankedResult], gt: GroundTruth, protocol: str) -> Metrics:
    per_query: dict[str, float] = {}
    p10: list[float] = []
    excluded: list[str] = []
    seen = 0
    for result in results:
        seen += 1
        positives, junk = protocol_sets(gt, result.query_id, protocol)
        ranked = [image_id for image_id, _ in result.ranking]
        ap = average_precision(ranked, positives, junk)
        if ap is None:
            excluded.append(result.query_id)
            continue
        missing = positives - set(ranked)
        if missing:
            logger.warning(
                "query %s: %d positives absent from the ranking (truncated result list?)",
                result.query_id,
                len(missing),
            )
        per_query[result.query_id] = ap
        p10.append(precision_at(ranked, positives, junk, k=10))
    if seen == 0:
        raise DataError("no query results to evaluate")
    mean_ap = float(np.mean(list(per_query.values()))) if per_query else math.nan
    mean_p10 = float(np.mean(p10)) if p10 else math.nan
    if excluded:
        logger.info(
            "%s protocol: excluded %d queries without positives: %s",
            protocol,
            len(excluded),
            ", ".join(sorted(excluded)),
        )
    return Metrics(
        protocol=protocol,
        mean_ap=mean_ap,
        mean_p10=mean_p10,
        per_query_ap=per_query,
        excluded=tuple(sorted(excluded)),
    )


# ---------------------------------------------------------------------------
# Inside/outside-box feature relevance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelevanceBin:
    bin_low: float
    bin_high: float
    inside_relevant: int
    inside_count: int
    outside_relevant: int
    outside_count: int

    @property
    def inside_prob(self) -> float:
        return self.inside_relevant / self.inside_count if self.inside_count else math.nan

    @property
    def outside_prob(self) -> float:
        return self.outside_relevant / self.outside_count if self.outside_count else math.nan

    @property
    def ratio(self) -> float:
        """Inside/outside relevance ratio; inf when only inside features match."""
        if self.inside_count == 0 or self.outside_count == 0:
            return math.nan
        if self.outside_prob == 0.0:
            return math.inf if self.inside_prob > 0 else math.nan
        return self.inside_prob / self.outside_prob

    @property
    def populated(self) -> bool:
        return self.inside_count > 0 and self.outside_count > 0


def relevance_csv(bins: Sequence[RelevanceBin]) -> str:
    lines = ["bin_low,bin_high,inside_prob,outside_prob,ratio,inside_count,outside_count"]
    for b in bins:
        lines.append(
            f"{b.bin_low:g},{b.bin_high:g},{b.inside_prob:.6g},{b.outside_prob:.6g},"
            f"{b.ratio:.6g},{b.inside_count},{b.outside_count}"
        )
    return "\n".join(lines) + "\n"


def bin_edges(bins: Sequence[float]) -> list[float]:
    """``bins`` as floats; a ConfigError unless at least two strictly increasing edges."""
    edges = [float(e) for e in bins]
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
        raise ConfigError("bins must be at least two strictly increasing edges")
    return edges


def analyze_relevance(
    pairs: Iterable[tuple[ImageFeatures, ImageFeatures]],
    bins: Sequence[float],
    *,
    iterations: int = 1000,
    inlier_tol: float = 3.0,
    seed: int = 0,
    max_distance: float = math.inf,
) -> list[RelevanceBin]:
    """Estimate how often features match across known-same-object pairs,
    split by attention-score bin and by whether the feature lies inside
    any detector box of its image.

    A feature of the first image in a pair counts as relevant when it is
    an inlier of the affine model fitted to the pair's matches; pairs
    with no model contribute all their features as non-relevant.
    """
    edges = bin_edges(bins)
    n_bins = len(edges) - 1
    inside_rel = np.zeros(n_bins, dtype=np.int64)
    inside_tot = np.zeros(n_bins, dtype=np.int64)
    outside_rel = np.zeros(n_bins, dtype=np.int64)
    outside_tot = np.zeros(n_bins, dtype=np.int64)

    edge_array = np.asarray(edges)
    for pair_index, (first, second) in enumerate(pairs):
        matches = match_features(first, second, max_distance)
        _, inliers = ransac_affine(
            first.positions[matches[:, 0]].astype(np.float64),
            second.positions[matches[:, 1]].astype(np.float64),
            iterations=iterations,
            inlier_tol=inlier_tol,
            seed=seed + pair_index,
        )
        relevant = np.zeros(first.count, dtype=bool)
        relevant[matches[inliers, 0]] = True
        att = first.attentions.astype(np.float64)
        keep = ~((att < edges[0]) | (att > edges[-1]))
        # The top edge closes the last bin.
        b = np.minimum(np.searchsorted(edge_array, att, side="right") - 1, n_bins - 1)
        inside = np.zeros(first.count, dtype=bool)
        for box in first.boxes:
            inside[assign_to_region(first, box)] = True
        for tot, rel, where in (
            (inside_tot, inside_rel, keep & inside),
            (outside_tot, outside_rel, keep & ~inside),
        ):
            tot += np.bincount(b[where], minlength=n_bins)
            rel += np.bincount(b[where & relevant], minlength=n_bins)

    return [
        RelevanceBin(
            bin_low=edges[i],
            bin_high=edges[i + 1],
            inside_relevant=int(inside_rel[i]),
            inside_count=int(inside_tot[i]),
            outside_relevant=int(outside_rel[i]),
            outside_count=int(outside_tot[i]),
        )
        for i in range(n_bins)
    ]
