"""Inverted-file retrieval index over aggregated representations.

Database entries are either whole images, one entry per selected region
(regional search, scored by max- or average-pooling the per-entry kernel
against the query), or a single regionally aggregated entry per image.
The inverted file is one CSR posting table: word ``w``'s postings are
rows ``word_ptr[w]:word_ptr[w+1]`` of ``entry_ids`` and ``payload``.
Scanning only the query's words reproduces the exhaustive kernel
exactly: every other word contributes zero, and the scan applies the
kernel's own rule, adding each entry's terms with one ``np.bincount`` in
ascending word order.  The dense modes match one word's posting slice at
a time (``kernels.word_match_rows``, then ``kernels._match_totals``).
The star modes gather the postings of all query words at once and count
each Hamming distance h with one XOR and bit count; a binary match is
one of the D+1 values (D - 2h)/D, so its selectivity is read from a
table of those values, which ``kernels._selectivity_rows`` computes with
the same expression and the same ``pow`` as a match-by-match pass.

Index files ("DTRI", little-endian, version 3)::

    magic b"DTRI" | version u16 | mode u8 | flags u8 (bit0: regional
    normalization) | alpha f64 | tau f64 | codebook sha256 (32 bytes) |
    C u32 | D u16 | centroids C*D f32 | strategy string (u16 length +
    utf-8) | n u32 | id_len u16[n] | region_index u16[n] | gamma f64[n] |
    image ids ascii | n_words u32 | word uW[n_words] | count uE[n_words]
    | entry_id uE[N = sum(count)] | payload N rows

uE is the narrowest of u8, u16 and u32 that holds n (ids are below n, a
word's count is at most n) and uW is u16, or u32 when C > 65,536, so each
width follows from a field read before it (``_column_dtype``).  Version 2
stored both as u32, version 1 also interleaved the columns per entry and per
word; both are rejected.  Image ids follow the manifest identifier rule, so
the id column is ASCII and decodes in one piece.  The codebook is embedded so a
saved index is self-contained; the hash identifies which codebook file it
came from.
Loading is strict: truncation, trailing bytes, a count the rest of the
file cannot hold, invalid selectivity parameters, an image id or region
strategy that does not parse, a repeated (image id, region index) entry,
an image whose entries are not contiguous, a negative or non-finite gamma,
posting words or entry ids out of order or range, and non-finite float
payloads are format errors.  Posting checks run once over the whole table.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .codebook import _CHUNK_CELLS, Codebook, codebook_digest, partition
from .errors import ConfigError, DataError, DimensionError, FormatError
from .features_io import (
    DatasetManifest,
    ImageFeatures,
    _ID_RE,
    _check_identifier,
    filter_by_attention,
    read_file,
    write_atomic,
)
from .kernels import (
    AggregatedRepresentation,
    DEFAULT_SELECTIVITY,
    PLAIN_COUNTERPART,
    SelectivityParams,
    _binary_selectivity_table,
    _hamming_rows,
    _match_totals,
    aggregate,
    check_mode,
    is_binary_mode,
    is_regional_mode,
    word_match_rows,
)
from .regional import (
    RegionStrategy,
    _fold_images,
    aggregate_regional,  # not called here; perfbench/spans.py wraps this name
    as_regional_query,
    select_regions,
)

logger = logging.getLogger(__name__)

INDEX_MAGIC = b"DTRI"
INDEX_VERSION = 3

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
    # Entry table: entry e (its entry id) is region region_index[e] of
    # image images[entry_image[e]]; region 0 is the whole image.
    images: list[str]  # image ids in first-seen order
    entry_image: np.ndarray  # (n_entries,) intp, each image's entries contiguous
    region_index: np.ndarray  # (n_entries,) int64
    gammas: np.ndarray  # (n_entries,) float64
    # Posting table: word w's postings are rows word_ptr[w]:word_ptr[w+1].
    word_ptr: np.ndarray  # (C+1,) int64, non-decreasing from 0
    entry_ids: np.ndarray  # (N,) _column_dtype(n_entries), ascending within a word
    payload: np.ndarray  # (N, D) float32 rows or (N, ceil(D/8)) packed uint8 signs
    # Derived from the entry table: each image's first entry, and images by id.
    _image_starts: np.ndarray = field(init=False, repr=False)
    _images_by_id: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """Check the entry table: ids follow the manifest identifier rule; pooling
        needs each image's entries contiguous, its (id, region) pairs unique."""
        if not len(self.entry_image) == len(self.region_index) == len(self.gammas):
            raise DataError("the entry table's columns differ in length")
        # Non-empty ids each match when their concatenation does: one match.
        if not (all(self.images) and _ID_RE.fullmatch("".join(self.images))):
            for ident in self.images:
                _check_identifier(ident, "image id")
        # Valid steps are 0 (same image) or 1 (next image), from -1 to len(images).
        steps = np.diff(self.entry_image, prepend=-1, append=len(self.images))
        if len(set(self.images)) < len(self.images) or ((steps < 0) | (steps > 1)).any():
            raise DataError("the entries of an image are missing or not contiguous")
        # (image, region) pairs in sorted order: a repeat is a zero step in both.
        pairs = np.stack([self.entry_image, self.region_index])
        if (np.diff(pairs[:, np.lexsort(pairs[::-1])], axis=1) == 0).all(axis=0).any():
            raise DataError("an (image id, region index) entry repeats")
        self._image_starts = np.flatnonzero(steps[:-1])
        self._images_by_id = np.asarray(
            sorted(range(len(self.images)), key=self.images.__getitem__), dtype=np.intp
        )

    @property
    def dim(self) -> int:
        return self.codebook.dim

    @property
    def entry_count(self) -> int:
        return len(self.entry_image)

    def image_ids(self) -> list[str]:
        return list(self.images)

    @cached_property
    def postings(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Word -> (entry ids, rows) view, for ``perfbench/spans.py`` only: ``ramk`` never reads it."""
        ptr = self.word_ptr.tolist()
        spans = enumerate(zip(ptr, ptr[1:]))
        return {w: (self.entry_ids[a:b], self.payload[a:b]) for w, (a, b) in spans if a < b}


_WIDTHS = (np.dtype("<u1"), np.dtype("<u2"), np.dtype("<u4"))


def _column_dtype(largest: int, widths: tuple[np.dtype, ...] = _WIDTHS) -> np.dtype:
    """The narrowest of ``widths`` that holds ``largest``: ``_column_dtype(n)``
    stores entry ids and posting counts, ``_column_dtype(C - 1, _WIDTHS[1:])``
    words.  n and C are u32 header fields, so u32 holds every value a file names."""
    return next((w for w in widths if largest <= np.iinfo(w).max), widths[-1])


def _payload_layout(mode: str, dim: int) -> tuple[np.dtype, int]:
    """Dtype and column count of the payload rows ``mode`` stores."""
    return (np.dtype(np.uint8), (dim + 7) // 8) if is_binary_mode(mode) else (np.dtype("<f4"), dim)


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

    Images are aggregated on the calling thread a block of consecutive
    images at a time (``regional._fold_images``), blocks of at most
    _CHUNK_CELLS cells of residual rows unless one image folds more.  Entry
    numbering follows manifest order, then region order, and an image's
    entries do not depend on its block, so the result is independent of the
    block cuts.  ``threads`` has no effect and stays only for callers that
    still pass it.
    """
    check_mode(mode)
    if codebook.dim != manifest.dim:
        raise DimensionError(
            f"codebook dimension {codebook.dim} != manifest dimension {manifest.dim}"
        )
    manifest.validate(check_files=True)
    regional = is_regional_mode(mode)

    def blocks():
        """Consecutive images with their regions, cut where the next image
        would take a block past _CHUNK_CELLS cells of residual rows: an
        image folds at most (descriptors x regions) rows of D cells."""
        block, cells = [], 0
        for img in manifest.images:
            features = manifest.load_features(img)
            if attention_min is not None:
                features = filter_by_attention(features, attention_min)
            regions = select_regions(features, strategy)
            size = features.count * regions.count * codebook.dim
            if block and cells + size > _CHUNK_CELLS:
                yield block
                block, cells = [], 0
            block.append((features, regions))
            cells += size
        if block:
            yield block

    # Each block gives its entries (``_fold_images``) and each image's entry count.
    folded = [(*_fold_images(block, codebook, mode, params), [1 if regional else r.count for _, r in block])
              for block in blocks()]

    dtype, columns = _payload_layout(mode, codebook.dim)
    # Each column starts from an empty array of its dtype, so an empty manifest builds too.
    empty = (np.empty(0, np.intp), np.empty(0, np.int64), np.empty((0, columns), dtype), np.empty(0),
             np.empty(0, np.intp))
    counts, all_words, rows, gammas, sizes = (np.concatenate(column) for column in zip(empty, *folded))
    # Entries ascend, so a stable sort by word orders postings by (word, entry).
    order = np.argsort(all_words, kind="stable")
    word_ptr = np.append(0, np.cumsum(np.bincount(all_words, minlength=codebook.size)))

    index = RetrievalIndex(
        mode=mode,
        params=params,
        normalize_regional=normalize_regional,
        codebook=codebook,
        codebook_hash=codebook_digest(codebook),
        strategy=str(strategy),
        images=[img.image_id for img in manifest.images],
        entry_image=np.repeat(np.arange(len(sizes)), sizes),
        region_index=np.arange(len(gammas)) - np.repeat(np.cumsum(sizes) - sizes, sizes),
        gammas=gammas,
        word_ptr=word_ptr,
        entry_ids=np.repeat(np.arange(len(gammas), dtype=_column_dtype(len(gammas))), counts)[order],
        payload=rows[order],
    )
    logger.info(
        "built %s index: %d images, %d entries, %d populated words",
        mode,
        len(manifest.images),
        index.entry_count,
        np.count_nonzero(np.diff(word_ptr)),
    )
    return index


def query_representation(index: RetrievalIndex, features: ImageFeatures) -> AggregatedRepresentation:
    """Plain whole-image aggregate of the query in the index's query-side mode."""
    mode = PLAIN_COUNTERPART.get(index.mode, index.mode)
    part = partition(index.codebook, features)
    return aggregate(part, index.codebook, mode, index.params)


def entry_scores(index: RetrievalIndex, plain: AggregatedRepresentation) -> np.ndarray:
    """Float64 kernel score of every index entry against a query's plain
    aggregate, bit for bit what ``kernel_similarity`` (or, for a regional
    mode, ``regional_similarity``) returns for that pair.

    Only the postings of the query's words are read, at positions ``pos``
    in ascending word order.  The star modes gather all of those rows at
    once: one XOR and bit count against the repeated query rows gives each
    Hamming distance h, and a (D+1)-entry table gives the selectivity of
    (D - 2h)/D, which is the whole range of a binary match.  The dense
    modes match one word's contiguous slice at a time, which keeps the
    float64 copies small.  Either way ``np.bincount`` adds each entry's
    terms in word order, as ``kernels._match_totals`` does.
    """
    regional = is_regional_mode(index.mode)
    q = as_regional_query(plain, index.mode, index.params) if regional else plain
    mode, dim, entry_ids, payload = index.mode, index.dim, index.entry_ids, index.payload
    starts, ends = index.word_ptr[q.words], index.word_ptr[q.words + 1]
    counts = ends - starts
    pos = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    if is_binary_mode(mode):
        # take copies whole rows; fancy indexing of narrow uint8 rows is ~6x slower.
        hamming = _hamming_rows(payload.take(pos, axis=0), np.repeat(q.rows, counts, axis=0))
        table = _binary_selectivity_table(dim, index.params)
        sums = np.bincount(entry_ids[pos], weights=table[hamming], minlength=index.entry_count)
    else:
        spans = zip(starts.tolist(), ends.tolist(), q.rows)
        u = np.concatenate(
            [np.empty(0)] + [word_match_rows(mode, payload[a:b], row, dim) for a, b, row in spans if a < b]
        )
        sums = _match_totals(mode, u, index.params, entry_ids[pos], index.entry_count)
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
    image id ascending.  A score that is not finite as float32 (an index
    that loads but holds out-of-range data) is a DataError.
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
        pooled = np.bincount(index.entry_image, weights=scores, minlength=len(sizes)) / sizes
    with np.errstate(over="ignore"):
        final32 = pooled.astype(np.float32)
    if not (finite := np.isfinite(final32)).all():
        bad = int(np.argmin(finite))
        raise DataError(f"query {qid}: image {index.images[bad]} scores {pooled[bad]:.6g}, past float32")
    by_id = index._images_by_id
    order = by_id[np.argsort(-final32[by_id], kind="stable")][: max(0, top_n)]
    ranking = list(zip([index.images[i] for i in order], final32[order].tolist()))
    return RankedResult(query_id=qid, ranking=ranking)


# ---------------------------------------------------------------------------
# DTRI serialization
# ---------------------------------------------------------------------------


class _Cursor:
    def __init__(self, data: bytes, source: str):
        self.data = memoryview(data)
        self.pos = 0
        self.source = source

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.source}: truncated index file")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def count(self, record_size: int, what: str) -> int:
        """A u32 count of records of at least ``record_size`` bytes each."""
        (n,) = self.unpack(_U32)
        if n * record_size > len(self.data) - self.pos:
            raise FormatError(f"{self.source}: truncated index file ({n} {what} announced)")
        return n

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{self.source}: {len(self.data) - self.pos} trailing bytes")


_IDX_HEADER = struct.Struct("<4sHBBdd32sIH")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def _fit(values, dtype, what: str):
    """``values`` (an int or an integer column) if each fits ``dtype``, else a DataError."""
    dtype = np.dtype(dtype)
    top = int(np.iinfo(dtype).max)
    column = np.atleast_1d(values)
    outside = column[(column < 0) | (column > top)]
    if outside.size:
        bits = 8 * dtype.itemsize
        raise DataError(f"cannot serialize index: {what} {outside[0]} does not fit in u{bits} (0..{top})")
    return values


def serialize_index(index: RetrievalIndex) -> bytes:
    flags = FLAG_NORMALIZE_REGIONAL if index.normalize_regional else 0
    strat = index.strategy.encode()
    # Ids are ASCII, so characters are bytes; each entry repeats its image's id.
    sizes = np.diff(index._image_starts, append=index.entry_count).tolist()
    id_lens = np.array([len(ident) for ident in index.images], dtype=np.int64)[index.entry_image]
    counts = np.diff(index.word_ptr)
    words = np.flatnonzero(counts)
    ids = _column_dtype(index.entry_count)
    return b"".join([
        _IDX_HEADER.pack(
            INDEX_MAGIC, INDEX_VERSION, MODE_CODES[index.mode], flags, index.params.alpha,
            index.params.tau, index.codebook_hash, index.codebook.size,
            _fit(index.codebook.dim, "<u2", "codebook dim"),
        ),
        index.codebook.centroids.astype("<f4").tobytes(),
        _U16.pack(_fit(len(strat), "<u2", "strategy byte length")),
        strat,
        _U32.pack(index.entry_count),
        _fit(id_lens, "<u2", "image id byte length").astype("<u2").tobytes(),
        _fit(index.region_index, "<u2", "region index").astype("<u2").tobytes(),
        index.gammas.astype("<f8", copy=False).tobytes(),
        "".join(ident * size for ident, size in zip(index.images, sizes)).encode(),
        _U32.pack(len(words)),
        words.astype(_column_dtype(index.codebook.size - 1, _WIDTHS[1:])).tobytes(),
        counts[words].astype(ids).tobytes(),
        _fit(index.entry_ids, ids, "posting entry id").astype(ids, copy=False).tobytes(),
        index.payload.astype(_payload_layout(index.mode, index.dim)[0], copy=False).tobytes(),
    ])


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    write_atomic(path, serialize_index(index), "index")


def _id_runs(id_bytes: bytes, id_lens: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each entry, whether its id bytes differ from the previous
    entry's, and where its id starts and ends in ``id_bytes``.  Ids of one
    length are compared byte for byte, each byte against the one ``len``
    earlier.  Two bytes past ASCII differ here though both decode to
    U+FFFD; the identifier rule rejects the first such id either way."""
    lens = id_lens.astype(np.int64)
    ends = np.cumsum(lens)
    chars = np.frombuffer(id_bytes, np.uint8)
    back = np.maximum(np.arange(chars.size) - np.repeat(lens, lens), 0)
    new = np.empty(lens.size, dtype=bool)
    new[1:] = lens[1:] != lens[:-1]
    new[np.repeat(np.arange(lens.size), lens)[chars != chars[back]]] = True
    new[:1] = True
    return new, ends - lens, ends


def load_index(path: str | Path) -> RetrievalIndex:
    path = Path(path)
    cur = _Cursor(read_file(path, "index"), str(path))
    magic, version, mode_code, flags, alpha, tau, cb_hash, c, d = cur.unpack(_IDX_HEADER)
    if magic != INDEX_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {INDEX_MAGIC!r}")
    if version != INDEX_VERSION:
        raise FormatError(f"{path}: unsupported index version {version}")
    if mode_code not in CODE_MODES:
        raise FormatError(f"{path}: unknown mode code {mode_code}")
    if c < 1 or d < 1:
        raise FormatError(f"{path}: degenerate codebook dimensions C={c}, D={d}")
    mode = CODE_MODES[mode_code]
    cents = np.frombuffer(cur.take(c * d * 4), dtype="<f4").reshape(c, d)
    # Finiteness only: Codebook.validate's duplicate check costs more than a whole load.
    if not np.isfinite(cents).all():
        raise FormatError(f"{path}: codebook contains non-finite centroid components")
    try:
        strategy = str(cur.take(cur.unpack(_U16)[0]), "utf-8")
        RegionStrategy.parse(strategy)
    except (UnicodeDecodeError, ConfigError) as exc:
        raise FormatError(f"{path}: bad region strategy: {exc}") from exc
    # Columns are copied or decoded: the index keeps no reference to the file's bytes.
    n_entries = cur.count(12, "entries")  # id_len, region_index, gamma: 12 bytes
    id_lens, regions = np.frombuffer(cur.take(4 * n_entries), dtype="<u2").reshape(2, n_entries)
    gammas = np.frombuffer(cur.take(8 * n_entries), dtype="<f8").copy()
    # A byte past ASCII decodes to U+FFFD, which the identifier rule rejects.
    id_bytes = cur.take(int(id_lens.sum()))
    text = str(id_bytes, "ascii", "replace")
    new_image, starts, ends = _id_runs(id_bytes, id_lens)
    images = [text[a:b] for a, b in zip(starts[new_image].tolist(), ends[new_image].tolist())]
    word_dtype, ids = _column_dtype(c - 1, _WIDTHS[1:]), _column_dtype(n_entries)
    n_words = cur.count(word_dtype.itemsize + ids.itemsize, "words")
    words = np.frombuffer(cur.take(word_dtype.itemsize * n_words), word_dtype).astype(np.int64)
    counts = np.frombuffer(cur.take(ids.itemsize * n_words), ids).astype(np.int64)
    n = int(counts.sum())
    dtype, cols = _payload_layout(mode, d)
    entry_ids = np.frombuffer(cur.take(ids.itemsize * n), ids).copy()
    payload = np.frombuffer(cur.take(n * cols * dtype.itemsize), dtype).reshape(n, cols).copy()
    cur.done()
    if not ((gammas >= 0.0) & np.isfinite(gammas)).all():
        raise FormatError(f"{path}: entry gammas must be finite and non-negative")
    if (np.diff(words) <= 0).any():
        raise FormatError(f"{path}: postings words not strictly ascending")
    if words.size and words[-1] >= c:
        raise FormatError(f"{path}: posting word {words[-1]} outside codebook size {c}")
    word_ptr = np.zeros(c + 1, dtype=np.int64)
    word_ptr[words + 1] = counts
    np.cumsum(word_ptr, out=word_ptr)
    # Posting i+1 continues posting i's word unless a word starts at i+1.
    continues = np.ones(n + 1, dtype=bool)
    continues[word_ptr] = False
    unordered = (entry_ids[1:] <= entry_ids[:-1]) & continues[1:n]
    if unordered.any():
        word = np.searchsorted(word_ptr, np.argmax(unordered), side="right") - 1
        raise FormatError(f"{path}: posting entry ids not ascending for word {word}")
    if (entry_ids >= n_entries).any():
        raise FormatError(f"{path}: posting references unknown entry id")
    if not is_binary_mode(mode) and not np.isfinite(payload).all():
        raise FormatError(f"{path}: posting payloads must be finite")
    if is_binary_mode(mode) and d % 8 and (payload[:, -1] >> (d % 8)).any():
        raise FormatError(f"{path}: packed posting rows set padding bits past D={d}")
    try:
        return RetrievalIndex(
            mode=mode,
            params=SelectivityParams(alpha=alpha, tau=tau),
            normalize_regional=bool(flags & FLAG_NORMALIZE_REGIONAL),
            codebook=Codebook(centroids=cents.astype(np.float32)),
            codebook_hash=cb_hash,
            strategy=strategy,
            images=images,
            entry_image=np.cumsum(new_image, dtype=np.intp) - 1,
            region_index=regions.astype(np.int64),
            gammas=gammas,
            word_ptr=word_ptr,
            entry_ids=entry_ids,
            payload=payload,
        )
    except (ConfigError, DataError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
