"""Inverted-file retrieval index over aggregated representations.

Database entries are either whole images, one entry per selected region
(regional search, scored by max- or average-pooling the per-entry
kernel against the query), or a single regionally aggregated entry per
image.  Postings map each visual word to the entries populating it,
with the per-entry residual payload stored inline.  Scanning only the
query's words reproduces the exhaustive kernel exactly, because every
other word contributes zero and the scan applies the kernel's own rule:
``kernels.word_match_rows`` of each posting list against the query's
row for that word, the selectivity's C-library ``pow`` and a per-entry
sum in ascending word order.

Index files ("DTRI", little-endian, version 1)::

    magic b"DTRI" | version u16 | mode u8 | flags u8 (bit0: regional
    normalization) | alpha f64 | tau f64 | codebook sha256 (32 bytes) |
    C u32 | D u16 | centroids C*D f32 | strategy string (u16 length +
    utf-8) | n_entries u32 | entries (u16 id length, id utf-8,
    region_index u16, gamma f64) | n_words u32 | per word: word u32,
    count u32, count * entry_id u32, count * payload

The codebook is embedded so a saved index is self-contained; the hash
identifies which codebook file it came from.  Loading is strict: any
truncation or trailing bytes, invalid selectivity parameters, an image
id or region strategy that does not parse, a repeated (image id, region
index) entry or an image whose entries are not contiguous, a negative or
non-finite gamma or a non-finite float payload is a format error and
nothing is returned.
"""

from __future__ import annotations

import logging
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codebook import Codebook, codebook_digest, partition
from .errors import ConfigError, DataError, DimensionError, FormatError
from .features_io import (
    DatasetManifest,
    ImageFeatures,
    filter_by_attention,
    read_file,
    write_atomic,
)
from .kernels import (
    AggregatedRepresentation,
    DEFAULT_SELECTIVITY,
    PLAIN_COUNTERPART,
    SelectivityParams,
    _selectivity_rows,
    aggregate,
    check_mode,
    is_binary_mode,
    is_regional_mode,
    is_vlad_family,
    word_match_rows,
)
from .regional import (
    RegionStrategy,
    aggregate_regional,
    as_regional_query,
    region_aggregates,
    select_regions,
)

logger = logging.getLogger(__name__)

INDEX_MAGIC = b"DTRI"
INDEX_VERSION = 1
_IDX_HEADER = struct.Struct("<4sHBB")

MODE_CODES = {
    "vlad": 1,
    "asmk": 2,
    "asmk-star": 3,
    "r-vlad": 4,
    "naive-r-asmk": 5,
    "r-asmk": 6,
    "r-asmk-star": 7,
}
CODE_MODES = {v: k for k, v in MODE_CODES.items()}

FLAG_NORMALIZE_REGIONAL = 1

POOL_MAX = "max"
POOL_AVG = "avg"


@dataclass(frozen=True)
class IndexEntry:
    """One scored unit of the index; its entry id is its position."""

    image_id: str
    region_index: int  # 0 = whole image


@dataclass
class RankedResult:
    """Scored ranking for one query; scores non-increasing, image ids unique."""

    query_id: str
    ranking: list[tuple[str, float]]
    flagged: tuple[str, ...] = ()


@dataclass
class RetrievalIndex:
    mode: str
    params: SelectivityParams
    normalize_regional: bool
    codebook: Codebook
    codebook_hash: bytes
    strategy: str
    entries: list[IndexEntry]
    gammas: np.ndarray  # (n_entries,) float64
    postings: dict[int, tuple[np.ndarray, np.ndarray]]  # word -> (entry ids u32, payload rows)
    # Derived from ``entries``: image ids in first-seen order, the image of
    # each entry, the first entry of each image, and images by id.
    _image_ids: list[str] = field(init=False, repr=False)
    _entry_image: np.ndarray = field(init=False, repr=False)
    _image_starts: np.ndarray = field(init=False, repr=False)
    _images_by_id: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """Derive the entry -> image map; pooling needs each image's
        entries contiguous and its (image id, region index) pairs unique."""
        ids = [e.image_id for e in self.entries]
        starts = [i for i, ident in enumerate(ids) if i == 0 or ident != ids[i - 1]]
        self._image_ids = [ids[i] for i in starts]
        if len(set(self._image_ids)) < len(starts):
            raise DataError("the entries of an image are not contiguous")
        if len({(e.image_id, e.region_index) for e in self.entries}) < len(ids):
            raise DataError("an (image id, region index) entry repeats")
        bounds = np.array(starts + [len(ids)], dtype=np.intp)
        self._image_starts = bounds[:-1]
        self._entry_image = np.repeat(np.arange(len(starts)), np.diff(bounds))
        self._images_by_id = np.asarray(
            sorted(range(len(starts)), key=self._image_ids.__getitem__), dtype=np.intp
        )

    @property
    def dim(self) -> int:
        return self.codebook.dim

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    def image_ids(self) -> list[str]:
        return list(self._image_ids)


def build_index(
    manifest: DatasetManifest,
    codebook: Codebook,
    mode: str,
    strategy: RegionStrategy,
    params: SelectivityParams = DEFAULT_SELECTIVITY,
    normalize_regional: bool = True,
    threads: int = 1,
    attention_min: float | None = None,
) -> RetrievalIndex:
    """Aggregate every manifest image and assemble the inverted file.

    Entry numbering follows manifest order, then region order, so the
    result is independent of the thread count.
    """
    check_mode(mode)
    if codebook.dim != manifest.dim:
        raise DimensionError(
            f"codebook dimension {codebook.dim} != manifest dimension {manifest.dim}"
        )
    manifest.validate(check_files=True)

    def work(img) -> list[AggregatedRepresentation]:
        """The image's entries, in region order."""
        features = manifest.load_features(img)
        if attention_min is not None:
            features = filter_by_attention(features, attention_min)
        regions = select_regions(features, strategy)
        if is_regional_mode(mode):
            return [aggregate_regional(features, regions, codebook, mode, params)]
        return region_aggregates(features, regions, codebook, mode, params)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_image = list(pool.map(work, manifest.images))
    else:
        per_image = [work(img) for img in manifest.images]

    entries = [
        IndexEntry(img.image_id, region_index)
        for img, reps in zip(manifest.images, per_image)
        for region_index in range(len(reps))
    ]
    flat = [rep for reps in per_image for rep in reps]

    # Owners ascend, so a stable sort by word orders postings by (word, entry).
    all_words = np.concatenate([np.empty(0, dtype=np.int64), *(rep.words for rep in flat)])
    order = np.argsort(all_words, kind="stable")
    counts = [rep.word_count for rep in flat]
    owner_ids = np.repeat(np.arange(len(entries), dtype=np.uint32), counts)[order]
    sorted_words = all_words[order]
    rows = np.concatenate([rep.rows for rep in flat])[order] if flat else None
    bounds = np.append(np.flatnonzero(np.diff(sorted_words, prepend=-1)), len(order))
    postings = {
        int(sorted_words[a]): (owner_ids[a:b], rows[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
    }

    index = RetrievalIndex(
        mode=mode,
        params=params,
        normalize_regional=normalize_regional,
        codebook=codebook,
        codebook_hash=codebook_digest(codebook),
        strategy=str(strategy),
        entries=entries,
        gammas=np.array([rep.gamma for rep in flat], dtype=np.float64),
        postings=postings,
    )
    logger.info(
        "built %s index: %d images, %d entries, %d populated words",
        mode,
        len(manifest.images),
        index.entry_count,
        len(postings),
    )
    return index


def query_representation(
    index: RetrievalIndex,
    features: ImageFeatures,
    params: SelectivityParams | None = None,
) -> AggregatedRepresentation:
    """Plain whole-image aggregate of the query in the index's query-side mode."""
    params = params or index.params
    mode = PLAIN_COUNTERPART.get(index.mode, index.mode)
    part = partition(index.codebook, features)
    return aggregate(part, index.codebook, mode, params)


def entry_scores(index: RetrievalIndex, plain: AggregatedRepresentation) -> np.ndarray:
    """Float64 kernel score of every index entry against a query's plain
    aggregate, bit for bit what ``kernel_similarity`` (or, for a regional
    mode, ``regional_similarity``) returns for that pair.

    Only the posting lists of the query's words are read.  Their rows are
    matched word by word in ascending order (one list at a time keeps the
    float64 copies small), the matches pass through the selectivity once,
    and ``np.bincount`` sums them per entry, adding each entry's terms in
    that same word order.
    """
    regional = is_regional_mode(index.mode)
    q = as_regional_query(plain, index.mode, index.params) if regional else plain
    hits = [
        (index.postings[w], row) for w, row in zip(q.words.tolist(), q.rows) if w in index.postings
    ]
    ids = np.concatenate([np.empty(0, dtype=np.uint32)] + [ids for (ids, _), _ in hits])
    u = np.concatenate(
        [np.empty(0)]
        + [word_match_rows(index.mode, rows, vec, index.dim) for (_, rows), vec in hits]
    )
    if not is_vlad_family(index.mode):
        u = _selectivity_rows(u, index.params)
    sums = np.bincount(ids, weights=u, minlength=index.entry_count)
    if regional and not index.normalize_regional:
        return sums
    return q.gamma * index.gammas * sums


def query(
    index: RetrievalIndex,
    query_features: ImageFeatures,
    pooling: str = POOL_MAX,
    top_n: int = 100,
) -> RankedResult:
    """Rank database images against one query.

    Regional-search entries of an image are pooled by ``max`` or ``avg``
    (average divides by that image's own region count).  Scores
    accumulate in float64 and are reported as float32; ties order by
    image id ascending.
    """
    if pooling not in (POOL_MAX, POOL_AVG):
        raise ConfigError(f"pooling must be '{POOL_MAX}' or '{POOL_AVG}', got {pooling!r}")
    if query_features.dim != index.dim and query_features.count > 0:
        raise DimensionError(
            f"query dimension {query_features.dim} != index dimension {index.dim}"
        )
    qid = query_features.image_id
    if query_features.count == 0:
        logger.warning("query %s has no descriptors; returning empty result", qid)
        return RankedResult(query_id=qid, ranking=[])

    scores = entry_scores(index, query_representation(index, query_features))
    if pooling == POOL_MAX:
        pooled = np.maximum.reduceat(scores, index._image_starts)
    else:
        # bincount adds in entry order, as a running sum per image would.
        sizes = np.diff(index._image_starts, append=index.entry_count)
        pooled = np.bincount(index._entry_image, weights=scores, minlength=len(sizes)) / sizes
    final32 = pooled.astype(np.float32)
    by_id = index._images_by_id
    order = by_id[np.argsort(-final32[by_id], kind="stable")][: max(0, top_n)]
    ranking = list(zip([index._image_ids[i] for i in order], final32[order].tolist()))
    return RankedResult(query_id=qid, ranking=ranking)


# ---------------------------------------------------------------------------
# DTRI serialization
# ---------------------------------------------------------------------------


class _Cursor:
    def __init__(self, data: bytes, source: str):
        self.data = data
        self.pos = 0
        self.source = source

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.source}: truncated index file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{self.source}: {len(self.data) - self.pos} trailing bytes")


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_ENTRY_TAIL = struct.Struct("<Hd")
_WORD_HEAD = struct.Struct("<II")
_U16_MAX = 0xFFFF


def _u16_field(value: int, what: str) -> int:
    """``value`` when it fits the index's u16 field, else a DataError."""
    if not 0 <= value <= _U16_MAX:
        raise DataError(
            f"cannot serialize index: {what} {value} does not fit in u16 (0..{_U16_MAX})"
        )
    return value


def serialize_index(index: RetrievalIndex) -> bytes:
    flags = FLAG_NORMALIZE_REGIONAL if index.normalize_regional else 0
    parts = [
        _IDX_HEADER.pack(INDEX_MAGIC, INDEX_VERSION, MODE_CODES[index.mode], flags),
        _F64.pack(index.params.alpha),
        _F64.pack(index.params.tau),
        index.codebook_hash,
        _U32.pack(index.codebook.size),
        _U16.pack(_u16_field(index.codebook.dim, "codebook dim")),
        index.codebook.centroids.astype("<f4").tobytes(),
    ]
    strat = index.strategy.encode()
    parts.append(_U16.pack(_u16_field(len(strat), "strategy byte length")))
    parts.append(strat)
    parts.append(_U32.pack(index.entry_count))
    for entry, gamma in zip(index.entries, index.gammas):
        ident = entry.image_id.encode()
        parts.append(_U16.pack(_u16_field(len(ident), "image id byte length")))
        parts.append(ident)
        parts.append(_ENTRY_TAIL.pack(_u16_field(entry.region_index, "region index"), float(gamma)))
    parts.append(_U32.pack(len(index.postings)))
    for word in sorted(index.postings):
        ids, payload = index.postings[word]
        parts.append(_WORD_HEAD.pack(word, len(ids)))
        parts.append(ids.astype("<u4").tobytes())
        if is_binary_mode(index.mode):
            parts.append(payload.astype(np.uint8).tobytes())
        else:
            parts.append(payload.astype("<f4").tobytes())
    return b"".join(parts)


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    write_atomic(path, serialize_index(index), "index")


def load_index(path: str | Path) -> RetrievalIndex:
    path = Path(path)
    data = read_file(path, "index")
    cur = _Cursor(data, str(path))
    magic, version, mode_code, flags = cur.unpack(_IDX_HEADER)
    if magic != INDEX_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {INDEX_MAGIC!r}")
    if version != INDEX_VERSION:
        raise FormatError(f"{path}: unsupported index version {version}")
    if mode_code not in CODE_MODES:
        raise FormatError(f"{path}: unknown mode code {mode_code}")
    mode = CODE_MODES[mode_code]
    (alpha,) = cur.unpack(_F64)
    (tau,) = cur.unpack(_F64)
    cb_hash = cur.take(32)
    (c,) = cur.unpack(_U32)
    (d,) = cur.unpack(_U16)
    if c < 1 or d < 1:
        raise FormatError(f"{path}: degenerate codebook dimensions C={c}, D={d}")
    cents = np.frombuffer(cur.take(c * d * 4), dtype="<f4").reshape(c, d)
    codebook = Codebook(centroids=np.ascontiguousarray(cents, dtype=np.float32))
    (strat_len,) = cur.unpack(_U16)
    try:
        strategy = cur.take(strat_len).decode()
        RegionStrategy.parse(strategy)
    except (UnicodeDecodeError, ConfigError) as exc:
        raise FormatError(f"{path}: bad region strategy: {exc}") from exc
    (n_entries,) = cur.unpack(_U32)
    entries: list[IndexEntry] = []
    gammas = np.empty(n_entries, dtype=np.float64)
    try:
        for i in range(n_entries):
            (id_len,) = cur.unpack(_U16)
            ident = cur.take(id_len).decode()
            region_index, gamma = cur.unpack(_ENTRY_TAIL)
            entries.append(IndexEntry(ident, region_index))
            gammas[i] = gamma
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: image id is not UTF-8: {exc}") from exc
    if not ((gammas >= 0.0) & np.isfinite(gammas)).all():
        raise FormatError(f"{path}: entry gammas must be finite and non-negative")
    (n_words,) = cur.unpack(_U32)
    binary = is_binary_mode(mode)
    width = (d + 7) // 8 if binary else d * 4
    postings: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    prev_word = -1
    for _ in range(n_words):
        word, count = cur.unpack(_WORD_HEAD)
        if word <= prev_word:
            raise FormatError(f"{path}: postings words not strictly ascending")
        if word >= c:
            raise FormatError(f"{path}: posting word {word} outside codebook size {c}")
        prev_word = word
        ids = np.frombuffer(cur.take(count * 4), dtype="<u4")
        if count and (np.diff(ids.astype(np.int64)) <= 0).any():
            raise FormatError(f"{path}: posting entry ids not ascending for word {word}")
        if count and ids.max(initial=0) >= n_entries:
            raise FormatError(f"{path}: posting references unknown entry id")
        raw = cur.take(count * width)
        if binary:
            payload = np.frombuffer(raw, dtype=np.uint8).reshape(count, width)
        else:
            payload = np.frombuffer(raw, dtype="<f4").reshape(count, d)
            # Checked per posting list: joining them first copies every payload.
            if not np.isfinite(payload).all():
                raise FormatError(f"{path}: posting payloads must be finite (word {word})")
        postings[word] = (np.ascontiguousarray(ids), np.ascontiguousarray(payload))
    cur.done()
    try:
        return RetrievalIndex(
            mode=mode,
            params=SelectivityParams(alpha=alpha, tau=tau),
            normalize_regional=bool(flags & FLAG_NORMALIZE_REGIONAL),
            codebook=codebook,
            codebook_hash=cb_hash,
            strategy=strategy,
            entries=entries,
            gammas=gammas,
            postings=postings,
        )
    except (ConfigError, DataError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
