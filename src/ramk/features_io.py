"""Local-feature file ingestion and the on-disk formats of this toolkit.

Binary feature files ("DTRF", little-endian throughout)::

    magic   4 bytes  b"DTRF"
    version u16      currently 1
    D       u16      descriptor dimensionality
    M       u32      descriptor count
    B       u32      region box count
    M records of (x f32, y f32, scale f32, attention f32, D x f32 vector)
    B records of (xmin f32, ymin f32, xmax f32, ymax f32, score f32)

The file carries neither the image id (taken from the manifest or the
file name) nor the pixel dimensions (optional manifest keys).  Loading
is strict: any byte beyond the declared records is an error, and
non-finite values anywhere in the payload are rejected.

Dataset manifests and ground truth are line-oriented text, one record
per line, space-separated ``key:value`` tokens, ``#`` comments allowed::

    dataset:toy
    dim:128
    groundtruth:gt.txt
    queries:queries.txt
    image id:img01 path:features/img01.dtrf width:640 height:480

    query:img01 easy:img02,img03 hard:img04 junk:img01

Identifiers and paths must not contain whitespace, commas or colons.
"""

from __future__ import annotations

import logging
import math
import os
import re
import secrets
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, FormatError

logger = logging.getLogger(__name__)

FEATURE_MAGIC = b"DTRF"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sHHII")
_BOX_FLOATS = 5

_ID_RE = re.compile(r"^[A-Za-z0-9._/+-]+$")


def _check_identifier(value: str, what: str) -> str:
    if not _ID_RE.match(value):
        raise FormatError(f"invalid {what} {value!r}: must match {_ID_RE.pattern}")
    return value


@dataclass(frozen=True)
class RegionBox:
    """Axis-aligned region with a detector confidence score in [0, 1]."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    score: float

    def validate(self) -> None:
        vals = (self.xmin, self.ymin, self.xmax, self.ymax, self.score)
        if not all(math.isfinite(v) for v in vals):
            raise DataError(f"box has non-finite coordinates: {vals}")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise DataError(f"degenerate box (xmin < xmax, ymin < ymax required): {vals}")
        if not 0.0 <= self.score <= 1.0:
            raise DataError(f"box score {self.score} outside [0, 1]")

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def contains(self, x: float, y: float) -> bool:
        """Closed on the min edges, open on the max edges."""
        return self.xmin <= x < self.xmax and self.ymin <= y < self.ymax


@dataclass
class ImageFeatures:
    """All local features of one image, stored column-wise as arrays.

    ``vectors`` is (M, D) float32, ``positions`` (M, 2), ``scales`` and
    ``attentions`` (M,).  ``width``/``height`` are optional and come from
    the manifest, not the feature file.
    """

    image_id: str
    vectors: np.ndarray
    positions: np.ndarray
    scales: np.ndarray
    attentions: np.ndarray
    boxes: list[RegionBox] = field(default_factory=list)
    width: int | None = None
    height: int | None = None

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def validate(self) -> None:
        m = self.count
        if self.vectors.ndim != 2:
            raise DataError("vectors must be a 2-D array")
        if self.dim < 1:
            raise DataError("descriptor dimensionality must be >= 1")
        if self.positions.shape != (m, 2):
            raise DataError(f"positions shape {self.positions.shape} != ({m}, 2)")
        if self.scales.shape != (m,) or self.attentions.shape != (m,):
            raise DataError("scales/attentions must be (M,) arrays")
        for name, arr in (
            ("vectors", self.vectors),
            ("positions", self.positions),
            ("scales", self.scales),
            ("attentions", self.attentions),
        ):
            if arr.size and not np.isfinite(arr).all():
                raise DataError(f"{self.image_id}: non-finite values in {name}")
        if m and (self.scales <= 0).any():
            raise DataError(f"{self.image_id}: descriptor scales must be positive")
        if m and (self.attentions < 0).any():
            raise DataError(f"{self.image_id}: attention scores must be non-negative")
        if self.width is not None and self.height is not None and m:
            x, y = self.positions[:, 0], self.positions[:, 1]
            if (x < 0).any() or (x > self.width).any() or (y < 0).any() or (y > self.height).any():
                raise DataError(
                    f"{self.image_id}: descriptor positions outside "
                    f"[0, {self.width}] x [0, {self.height}]"
                )
        for box in self.boxes:
            box.validate()


def whole_image_box(features: ImageFeatures) -> RegionBox:
    """Region spanning the full image, score pinned to 1.0.

    When pixel dimensions are undeclared the extent of the stored
    content (descriptor positions and boxes) is used instead.
    """
    if features.width is not None and features.height is not None:
        return RegionBox(0.0, 0.0, float(features.width), float(features.height), 1.0)
    xmax, ymax = 1.0, 1.0
    if features.count:
        xmax = max(xmax, float(features.positions[:, 0].max()))
        ymax = max(ymax, float(features.positions[:, 1].max()))
    for box in features.boxes:
        xmax = max(xmax, box.xmax)
        ymax = max(ymax, box.ymax)
    return RegionBox(0.0, 0.0, xmax, ymax, 1.0)


def filter_by_attention(features: ImageFeatures, min_attention: float) -> ImageFeatures:
    """Drop descriptors whose attention score falls below the threshold.

    Files are ingested as-is by default; producers differ in whether they
    pre-filter, so this is an explicit opt-in step.
    """
    keep = features.attentions >= min_attention
    if keep.all():
        return features
    return replace(
        features,
        vectors=features.vectors[keep],
        positions=features.positions[keep],
        scales=features.scales[keep],
        attentions=features.attentions[keep],
    )


# ---------------------------------------------------------------------------
# DTRF binary format
# ---------------------------------------------------------------------------


def serialize_image_features(features: ImageFeatures) -> bytes:
    """Canonical DTRF byte serialization (validates first)."""
    features.validate()
    m, d = features.count, features.dim
    if d > 0xFFFF:
        raise DataError(f"dimensionality {d} exceeds format limit")
    header = _HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, d, m, len(features.boxes))
    rec = np.empty((m, 4 + d), dtype="<f4")
    rec[:, 0] = features.positions[:, 0]
    rec[:, 1] = features.positions[:, 1]
    rec[:, 2] = features.scales
    rec[:, 3] = features.attentions
    rec[:, 4:] = features.vectors
    if features.boxes:
        brec = np.array(
            [[b.xmin, b.ymin, b.xmax, b.ymax, b.score] for b in features.boxes],
            dtype="<f4",
        )
        box_bytes = brec.tobytes()
    else:
        box_bytes = b""
    return header + rec.tobytes() + box_bytes


def read_file(path: str | Path, what: str) -> bytes:
    """The bytes of ``path``, or a DataError naming ``what``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def read_lines(path: str | Path, what: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line of the UTF-8 text file
    ``path`` that is neither blank nor a ``#`` comment.  A file that
    cannot be read is a DataError, one that is not UTF-8 a FormatError."""
    data = read_file(path, what)
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} {path} is not UTF-8: {exc}") from exc
    lines = ((lineno, raw.strip()) for lineno, raw in enumerate(text.splitlines(), start=1))
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def write_atomic(path: str | Path, data: bytes | str, what: str) -> None:
    """Write ``data`` (text as UTF-8) to ``path`` all at once or not at all.

    The bytes go to a temporary file in the target's directory, which
    then replaces the target; on failure the temporary file is removed,
    the target keeps its old content and a DataError names ``what``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data.encode() if isinstance(data, str) else data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


def save_image_features(features: ImageFeatures, path: str | Path) -> None:
    write_atomic(path, serialize_image_features(features), "feature file")


def parse_image_features(
    data: bytes,
    *,
    image_id: str,
    expected_dim: int | None = None,
    width: int | None = None,
    height: int | None = None,
    source: str = "<bytes>",
) -> ImageFeatures:
    if len(data) < _HEADER.size:
        raise FormatError(f"{source}: file shorter than the {_HEADER.size}-byte header")
    magic, version, d, m, b = _HEADER.unpack_from(data, 0)
    if magic != FEATURE_MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
    if version != FEATURE_VERSION:
        raise FormatError(f"{source}: unsupported version {version}")
    if d == 0:
        raise FormatError(f"{source}: dimensionality field is zero")
    if expected_dim is not None and d != expected_dim:
        raise DimensionError(f"{source}: file declares D={d}, expected D={expected_dim}")
    expected_size = _HEADER.size + m * (4 + d) * 4 + b * _BOX_FLOATS * 4
    if len(data) != expected_size:
        raise FormatError(
            f"{source}: size {len(data)} does not match declared records "
            f"(expected {expected_size} bytes for M={m}, B={b}, D={d})"
        )
    body = np.frombuffer(data, dtype="<f4", offset=_HEADER.size, count=m * (4 + d))
    rec = body.reshape(m, 4 + d) if m else body.reshape(0, 4 + d)
    boxes_flat = np.frombuffer(
        data, dtype="<f4", offset=_HEADER.size + m * (4 + d) * 4, count=b * _BOX_FLOATS
    ).reshape(b, _BOX_FLOATS)
    features = ImageFeatures(
        image_id=image_id,
        vectors=np.ascontiguousarray(rec[:, 4:], dtype=np.float32),
        positions=np.ascontiguousarray(rec[:, 0:2], dtype=np.float32),
        scales=np.ascontiguousarray(rec[:, 2], dtype=np.float32),
        attentions=np.ascontiguousarray(rec[:, 3], dtype=np.float32),
        boxes=[RegionBox(*(float(v) for v in row)) for row in boxes_flat],
        width=width,
        height=height,
    )
    try:
        features.validate()
    except DataError as exc:
        raise FormatError(f"{source}: {exc}") from exc
    return features


def load_image_features(
    path: str | Path,
    *,
    image_id: str | None = None,
    expected_dim: int | None = None,
    width: int | None = None,
    height: int | None = None,
) -> ImageFeatures:
    path = Path(path)
    data = read_file(path, "feature file")
    return parse_image_features(
        data,
        image_id=image_id if image_id is not None else path.stem,
        expected_dim=expected_dim,
        width=width,
        height=height,
        source=str(path),
    )


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestImage:
    image_id: str
    path: str
    width: int | None = None
    height: int | None = None


@dataclass
class DatasetManifest:
    name: str
    dim: int
    images: list[ManifestImage]
    groundtruth_path: str | None = None
    queries_path: str | None = None
    root: Path = Path(".")
    _by_id: tuple[list[ManifestImage], dict[str, ManifestImage]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def validate(self, check_files: bool = True) -> None:
        if self.dim < 1:
            raise DataError("manifest dim must be >= 1")
        seen: set[str] = set()
        for img in self.images:
            if img.image_id in seen:
                raise DataError(f"duplicate image id {img.image_id!r} in manifest")
            seen.add(img.image_id)
            if check_files and not (self.root / img.path).is_file():
                raise DataError(f"manifest references missing file {self.root / img.path}")

    def image_ids(self) -> list[str]:
        return [img.image_id for img in self.images]

    def entry(self, image_id: str) -> ManifestImage:
        """The image with ``image_id``; the lookup table is built once per
        ``images`` list (assigning a new list rebuilds it)."""
        if self._by_id is None or self._by_id[0] is not self.images:
            # Reversed, so a duplicated id maps to its first image.
            self._by_id = (self.images, {img.image_id: img for img in reversed(self.images)})
        try:
            return self._by_id[1][image_id]
        except KeyError:
            raise DataError(f"image id {image_id!r} not in manifest") from None

    def load_features(self, image: ManifestImage | str) -> ImageFeatures:
        if isinstance(image, str):
            image = self.entry(image)
        return load_image_features(
            self.root / image.path,
            image_id=image.image_id,
            expected_dim=self.dim,
            width=image.width,
            height=image.height,
        )


def _parse_kv(token: str, lineno: int, source: str) -> tuple[str, str]:
    key, sep, value = token.partition(":")
    if not sep:
        raise FormatError(f"{source}:{lineno}: expected key:value token, got {token!r}")
    return key, value


def load_manifest(path: str | Path, *, check_files: bool = True) -> DatasetManifest:
    path = Path(path)
    name: str | None = None
    dim: int | None = None
    gt: str | None = None
    queries: str | None = None
    images: list[ManifestImage] = []
    for lineno, line in read_lines(path, "manifest"):
        tokens = line.split()
        if tokens[0] == "image":
            fields = dict(_parse_kv(tok, lineno, str(path)) for tok in tokens[1:])
            if "id" not in fields or "path" not in fields:
                raise FormatError(f"{path}:{lineno}: image line needs id: and path:")
            try:
                width = int(fields["width"]) if "width" in fields else None
                height = int(fields["height"]) if "height" in fields else None
            except ValueError:
                raise FormatError(f"{path}:{lineno}: width and height must be integers") from None
            images.append(
                ManifestImage(
                    image_id=_check_identifier(fields["id"], "image id"),
                    path=_check_identifier(fields["path"], "feature path"),
                    width=width,
                    height=height,
                )
            )
            continue
        key, value = _parse_kv(tokens[0], lineno, str(path))
        if key == "dataset":
            name = value
        elif key == "dim":
            try:
                dim = int(value)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: dim must be an integer") from None
        elif key == "groundtruth":
            gt = _check_identifier(value, "ground-truth path")
        elif key == "queries":
            queries = _check_identifier(value, "queries path")
        else:
            raise FormatError(f"{path}:{lineno}: unknown record kind {key!r}")
    if name is None or dim is None:
        raise FormatError(f"{path}: manifest must declare dataset: and dim:")
    manifest = DatasetManifest(
        name=name,
        dim=dim,
        images=images,
        groundtruth_path=gt,
        queries_path=queries,
        root=path.parent,
    )
    manifest.validate(check_files=check_files)
    return manifest


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    lines = [f"dataset:{manifest.name}", f"dim:{manifest.dim}"]
    if manifest.groundtruth_path:
        lines.append(f"groundtruth:{manifest.groundtruth_path}")
    if manifest.queries_path:
        lines.append(f"queries:{manifest.queries_path}")
    for img in manifest.images:
        line = f"image id:{img.image_id} path:{img.path}"
        if img.width is not None and img.height is not None:
            line += f" width:{img.width} height:{img.height}"
        lines.append(line)
    write_atomic(path, "\n".join(lines) + "\n", "manifest")


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryGroundTruth:
    easy: frozenset[str]
    hard: frozenset[str]
    junk: frozenset[str]

    def validate(self, query_id: str) -> None:
        if self.easy & self.hard or self.easy & self.junk or self.hard & self.junk:
            raise DataError(f"query {query_id!r}: easy/hard/junk sets must be disjoint")


@dataclass
class GroundTruth:
    queries: dict[str, QueryGroundTruth]

    def validate(self) -> None:
        for qid, rec in self.queries.items():
            rec.validate(qid)


def _parse_id_set(value: str, what: str) -> frozenset[str]:
    if not value:
        return frozenset()
    return frozenset(_check_identifier(tok, what) for tok in value.split(","))


def load_ground_truth(path: str | Path) -> GroundTruth:
    path = Path(path)
    queries: dict[str, QueryGroundTruth] = {}
    for lineno, line in read_lines(path, "ground truth"):
        fields = dict(_parse_kv(tok, lineno, str(path)) for tok in line.split())
        if "query" not in fields:
            raise FormatError(f"{path}:{lineno}: ground-truth line needs query:")
        qid = _check_identifier(fields["query"], "query id")
        if qid in queries:
            raise FormatError(f"{path}:{lineno}: duplicate query id {qid!r}")
        queries[qid] = QueryGroundTruth(
            easy=_parse_id_set(fields.get("easy", ""), "easy id"),
            hard=_parse_id_set(fields.get("hard", ""), "hard id"),
            junk=_parse_id_set(fields.get("junk", ""), "junk id"),
        )
    gt = GroundTruth(queries=queries)
    gt.validate()
    return gt


def save_ground_truth(gt: GroundTruth, path: str | Path) -> None:
    gt.validate()
    lines = []
    for qid, rec in gt.queries.items():
        lines.append(
            f"query:{qid}"
            f" easy:{','.join(sorted(rec.easy))}"
            f" hard:{','.join(sorted(rec.hard))}"
            f" junk:{','.join(sorted(rec.junk))}"
        )
    write_atomic(path, "\n".join(lines) + "\n", "ground truth")
