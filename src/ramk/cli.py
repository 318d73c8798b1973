"""Subcommand CLI wiring the library into reproducible batch pipelines.

Subcommands: ``gen-synthetic``, ``train-codebook``, ``build-index``,
``search``, ``evaluate``, ``analyze-relevance``.  Logs go to stderr and
data only to files.  Every text output starts with a provenance header
(tool version plus the fully resolved configuration); binary outputs
get the same header as a ``<file>.provenance`` sidecar, since their
formats are pinned byte-exactly.  Exit codes: 0 ok, 2 configuration
error, 3 data error, 4 internal error.

Each subcommand accepts ``--config FILE`` with ``key:value`` lines
(keys are the long flag names); explicit flags override the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .codebook import codebook_digest, load_codebook, save_codebook, train_codebook
from .errors import ConfigError, DataError, RamkError
from .evaluation import PROTOCOLS, analyze_relevance, bin_edges, evaluate, relevance_csv
from .features_io import (
    filter_by_attention,
    load_ground_truth,
    load_manifest,
    read_lines,
    write_atomic,
)
from .index import (
    POOL_AVG,
    POOL_MAX,
    RankedResult,
    build_index,
    load_index,
    query,
    save_index,
)
from .kernels import ALL_MODES, SelectivityParams
from .regional import RegionStrategy
from .rerank import default_inlier_tol, spatial_rerank
from .synthetic import SyntheticConfig, generate_synthetic_dataset

logger = logging.getLogger("ramk")


class _Opt:
    def __init__(self, name, type_, default, help_, required=False, flag=False, choices=None):
        self.name = name
        self.type = type_
        self.default = default
        self.help = help_
        self.required = required
        self.flag = flag
        self.choices = choices


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_COMMON = [_Opt("config", str, None, "key:value config file; flags override it")]

_OPTIONS: dict[str, list[_Opt]] = {
    "gen-synthetic": _COMMON
    + [
        _Opt("out", str, None, "output dataset directory", required=True),
        _Opt("seed", int, 0, "generator seed"),
        _Opt("landmarks", int, 20, "number of distinct landmarks"),
        _Opt("images-per-landmark", int, 6, "database images per landmark"),
        _Opt("planted", int, 16, "planted descriptors per image"),
        _Opt("clutter", int, 64, "background clutter descriptors per image"),
        _Opt("dim", int, 16, "descriptor dimensionality"),
        _Opt("width", int, 640, "image width in pixels"),
        _Opt("height", int, 480, "image height in pixels"),
        _Opt("landmark-anchors", int, None, "archetype descriptors per landmark (default: planted)"),
        _Opt("background-anchors", int, 64, "shared background archetype count"),
        _Opt("anchor-scale", float, 4.0, "archetype magnitude"),
        _Opt("instance-noise", float, 0.25, "descriptor jitter around archetypes"),
        _Opt("pattern-pool", int, None, "shared visual-pattern pool size (enables confusable content)"),
        _Opt("offset-pool", int, None, "per-pattern landmark offset variants (look-alike landmarks)"),
        _Opt("landmark-offset-scale", float, 1.0, "landmark identity offset magnitude"),
        _Opt("min-box-frac", float, 0.35, "minimum planted-box side fraction"),
        _Opt("max-box-frac", float, 0.55, "maximum planted-box side fraction"),
        _Opt("box-noise", float, 0.02, "reported-box corner jitter fraction"),
        _Opt("box-coverage", float, 1.0, "reported-box side as a fraction of the true box"),
        _Opt("box-miss-prob", float, 0.0, "chance the reported box misses the landmark"),
        _Opt("echo-boxes", int, 2, "duplicate detections around the reported box"),
        _Opt("echo-box-noise", float, 0.06, "echo-box corner jitter fraction"),
        _Opt("background-boxes", int, 7, "random low-score background boxes"),
        _Opt("background-box-min-frac", float, 0.25, "minimum background-box side fraction"),
        _Opt("background-box-max-frac", float, 0.7, "maximum background-box side fraction"),
    ],
    "train-codebook": _COMMON
    + [
        _Opt("manifest", str, None, "training dataset manifest", required=True),
        _Opt("c", int, 1024, "codebook size (visual words)"),
        _Opt("max-iters", int, 50, "maximum k-means iterations"),
        _Opt("seed", int, 0, "training seed"),
        _Opt("sample-cap", int, 2_000_000, "uniform subsample cap on training descriptors"),
        _Opt("attention-min", float, None, "drop descriptors below this attention score"),
        _Opt("out", str, None, "output codebook file (DTRC)", required=True),
    ],
    "build-index": _COMMON
    + [
        _Opt("manifest", str, None, "database manifest", required=True),
        _Opt("codebook", str, None, "codebook file (DTRC)", required=True),
        _Opt("mode", str, "asmk-star", f"one of: {', '.join(ALL_MODES)}"),
        _Opt("regions", str, "whole", "region strategy: whole | detector:<t> | rmac:<l> | topk:<k>"),
        _Opt("alpha", float, 3.0, "selectivity exponent"),
        _Opt("tau", float, 0.0, "selectivity threshold"),
        _Opt("raw-regional", _bool, False, "disable regional score normalization", flag=True),
        _Opt("attention-min", float, None, "drop descriptors below this attention score"),
        _Opt("threads", int, 0, "no effect (accepted for compatibility)"),
        _Opt("out", str, None, "output index file (DTRI)", required=True),
    ],
    "search": _COMMON
    + [
        _Opt("index", str, None, "index file (DTRI)", required=True),
        _Opt("queries", str, None, "query manifest", required=True),
        _Opt("codebook", str, None, "codebook file to cross-check against the index hash"),
        _Opt("pooling", str, POOL_MAX, "regional-search pooling", choices=[POOL_MAX, POOL_AVG]),
        _Opt("top-n", int, 100, "ranking depth to report"),
        _Opt("attention-min", float, None, "drop query descriptors below this attention score"),
        _Opt("manifest", str, None, "database manifest (required with --sp)"),
        _Opt("sp", _bool, False, "spatially verify and re-rank the head", flag=True),
        _Opt("sp-depth", int, 100, "re-rank depth"),
        _Opt("sp-iters", int, 1000, "RANSAC iterations"),
        _Opt("sp-tol", float, None, "RANSAC inlier tolerance in pixels (default: 5%% of query size)"),
        _Opt("sp-seed", int, 0, "RANSAC seed"),
        _Opt("sp-max-dist", float, math.inf, "descriptor match distance threshold"),
        _Opt("threads", int, 0, "no effect on search (accepted for compatibility)"),
        _Opt("out", str, None, "output ranking file", required=True),
    ],
    "evaluate": _COMMON
    + [
        _Opt("results", str, None, "ranking file from search", required=True),
        _Opt("gt", str, None, "ground-truth file (default: from --manifest)"),
        _Opt("manifest", str, None, "manifest whose groundtruth: entry locates the ground truth"),
        _Opt("protocol", str, "both", "medium | hard | both", choices=[*PROTOCOLS, "both"]),
        _Opt("out", str, None, "output metrics file", required=True),
    ],
    "analyze-relevance": _COMMON
    + [
        _Opt("manifest", str, None, "manifest resolving pair image ids", required=True),
        _Opt("pairs", str, None, "text file with two image ids per line", required=True),
        _Opt("bins", str, "0,50,100,200,300", "comma-separated attention bin edges"),
        _Opt("sp-iters", int, 1000, "RANSAC iterations"),
        _Opt("sp-tol", float, None, "RANSAC inlier tolerance in pixels (default: 5%% of image size)"),
        _Opt("sp-seed", int, 0, "RANSAC seed"),
        _Opt("sp-max-dist", float, math.inf, "descriptor match distance threshold"),
        _Opt("out", str, None, "output CSV file", required=True),
    ],
}


# Float options that are distances: a negative one keeps no match (or no
# inlier) and would leave the ranking unverified.
_NON_NEGATIVE = {"sp-tol", "sp-max-dist"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramk",
        description="Regional aggregated match kernels for local-feature image retrieval.",
    )
    parser.add_argument("--version", action="version", version=f"ramk {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command)
        for opt in options:
            kwargs: dict = {"default": None, "help": opt.help}
            if opt.flag:
                kwargs["action"] = "store_const"
                kwargs["const"] = True
            else:
                kwargs["type"] = opt.type
                if opt.choices:
                    kwargs["choices"] = opt.choices
            p.add_argument(f"--{opt.name}", dest=opt.name.replace("-", "_"), **kwargs)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in read_lines(path, "config file"):
        key, sep, value = line.partition(":")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key:value")
        values[key.strip()] = value.strip()
    return values


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags (highest precedence)."""
    options = _OPTIONS[command]
    file_values: dict[str, str] = {}
    if args.config:
        file_values = _load_config_file(args.config)
        known = {o.name for o in options}
        for key in file_values:
            if key not in known:
                raise ConfigError(f"config file sets unknown key {key!r} for {command}")
    resolved: dict = {}
    for opt in options:
        cli_value = getattr(args, opt.name.replace("-", "_"))
        if cli_value is not None:
            value = cli_value
        elif opt.name in file_values:
            try:
                value = opt.type(file_values[opt.name])
            except ValueError as exc:
                raise ConfigError(f"config key {opt.name}: {exc}") from exc
        else:
            value = opt.default
        if value is None and opt.required:
            raise ConfigError(f"missing required option --{opt.name}")
        if opt.type is float and value is not None and math.isnan(value):
            raise ConfigError(f"--{opt.name} must be a number, got {value}")
        if (opt.type is int or opt.name in _NON_NEGATIVE) and value is not None and value < 0:
            raise ConfigError(f"--{opt.name} must be >= 0, got {value}")
        if opt.choices and value is not None and value not in opt.choices:
            raise ConfigError(f"--{opt.name} must be one of {opt.choices}, got {value!r}")
        resolved[opt.name] = value
    return resolved


def _provenance(command: str, cfg: dict) -> list[str]:
    lines = [f"# ramk {__version__}", f"# command:{command}"]
    for key in sorted(cfg):
        if key in ("config", "threads"):  # --threads changes no output
            continue
        value = cfg[key]
        if value is not None:
            lines.append(f"# {key}:{value}")
    return lines


def _write_text(path: str | Path, header: list[str], body: str) -> None:
    write_atomic(path, "\n".join(header) + "\n" + body, "output")


def _write_sidecar(binary_path: str, header: list[str]) -> None:
    _write_text(str(binary_path) + ".provenance", header, "")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


# gen-synthetic flags named otherwise than their SyntheticConfig field;
# every other field's flag is its name with dashes.
_SYNTHETIC_FLAGS = {
    "planted_descriptors": "planted",
    "clutter_descriptors": "clutter",
    "image_width": "width",
    "image_height": "height",
}


def _synthetic_flag(field_name: str) -> str:
    return _SYNTHETIC_FLAGS.get(field_name, field_name.replace("_", "-"))


def _cmd_gen_synthetic(cfg: dict) -> None:
    config = SyntheticConfig(
        **{f.name: cfg[_synthetic_flag(f.name)] for f in dataclasses.fields(SyntheticConfig)}
    )
    manifest = generate_synthetic_dataset(config, cfg["seed"], cfg["out"])
    _write_text(Path(cfg["out"]) / "provenance.txt", _provenance("gen-synthetic", cfg), "")
    logger.info("wrote %d database images to %s", len(manifest.images), cfg["out"])


def _cmd_train_codebook(cfg: dict) -> None:
    manifest = load_manifest(cfg["manifest"])
    # Feature files of S bytes in all hold at most S // (4 (4 + D)) descriptors, so
    # every image's descriptors go straight into one array: they are never stacked.
    try:
        size = sum(os.path.getsize(manifest.root / img.path) for img in manifest.images)
    except OSError as exc:
        raise DataError(f"cannot read feature file: {exc}") from exc
    pool = np.empty((size // (16 + 4 * manifest.dim), manifest.dim), dtype=np.float32)
    n = 0
    for img in manifest.images:
        features = manifest.load_features(img)
        if cfg["attention-min"] is not None:
            features = filter_by_attention(features, cfg["attention-min"])
        pool[n:n + features.count] = features.vectors
        n += features.count
    if not n:
        raise DataError("manifest contains no descriptors to train on")
    cap = cfg["sample-cap"]
    if n > cap:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg["seed"])))
        sample = pool[np.sort(rng.choice(n, size=cap, replace=False))]
        del pool  # the full set would stay resident next to the sample during training
        logger.info("subsampled training descriptors to %d", cap)
    else:
        sample = pool[:n]
    codebook = train_codebook(sample, cfg["c"], max_iters=cfg["max-iters"], seed=cfg["seed"])
    for i, value in enumerate(codebook.history, start=1):
        logger.info("distortion[%d] = %.6g", i, value)
    save_codebook(codebook, cfg["out"])
    _write_sidecar(cfg["out"], _provenance("train-codebook", cfg))
    logger.info(
        "trained C=%d D=%d codebook in %d iterations, final distortion %.6g -> %s",
        codebook.size,
        codebook.dim,
        codebook.iterations,
        codebook.distortion,
        cfg["out"],
    )


def _cmd_build_index(cfg: dict) -> None:
    manifest = load_manifest(cfg["manifest"])
    codebook = load_codebook(cfg["codebook"])
    strategy = RegionStrategy.parse(cfg["regions"])
    params = SelectivityParams(alpha=cfg["alpha"], tau=cfg["tau"])
    index = build_index(
        manifest,
        codebook,
        cfg["mode"],
        strategy,
        params=params,
        normalize_regional=not cfg["raw-regional"],
        attention_min=cfg["attention-min"],
    )
    save_index(index, cfg["out"])
    _write_sidecar(cfg["out"], _provenance("build-index", cfg))
    n_images = len(manifest.images)
    size = os.path.getsize(cfg["out"])
    logger.info(
        "index: %d entries over %d images (%.2f entries/image), %d bytes -> %s",
        index.entry_count,
        n_images,
        index.entry_count / n_images if n_images else float("nan"),
        size,
        cfg["out"],
    )


def format_results(results: list[RankedResult]) -> str:
    lines = []
    for result in results:
        ranked = ",".join(f"{image_id}={score!r}" for image_id, score in result.ranking)
        line = f"query:{result.query_id} ranked:{ranked}"
        if result.flagged:
            line += f" flagged:{','.join(result.flagged)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def load_results(path: str | Path) -> list[RankedResult]:
    out: list[RankedResult] = []
    for lineno, line in read_lines(path, "results file"):
        fields: dict[str, str] = {}
        for token in line.split():
            key, sep, value = token.partition(":")
            if not sep:
                raise DataError(f"{path}:{lineno}: expected key:value tokens")
            fields[key] = value
        if "query" not in fields or "ranked" not in fields:
            raise DataError(f"{path}:{lineno}: line needs query: and ranked:")
        ranking: list[tuple[str, float]] = []
        if fields["ranked"]:
            for item in fields["ranked"].split(","):
                image_id, sep, score = item.partition("=")
                if not sep:
                    raise DataError(f"{path}:{lineno}: expected id=score, got {item!r}")
                try:
                    ranking.append((image_id, float(score)))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: score {score!r} is not a number") from None
        flagged = tuple(fields["flagged"].split(",")) if fields.get("flagged") else ()
        out.append(RankedResult(query_id=fields["query"], ranking=ranking, flagged=flagged))
    return out


def _cmd_search(cfg: dict) -> None:
    index = load_index(cfg["index"])
    if cfg["codebook"]:
        external = load_codebook(cfg["codebook"])
        if codebook_digest(external) != index.codebook_hash:
            raise ConfigError(
                f"codebook {cfg['codebook']} does not match the codebook embedded in {cfg['index']}"
            )
    queries = load_manifest(cfg["queries"])
    corpus_manifest = load_manifest(cfg["manifest"]) if cfg["manifest"] else None
    if cfg["sp"] and corpus_manifest is None:
        raise ConfigError("--sp requires --manifest to locate database feature files")

    def corpus(image_id: str):
        try:
            return corpus_manifest.load_features(image_id)
        except DataError:
            return None

    results = []
    for img in queries.images:
        features = queries.load_features(img)
        if cfg["attention-min"] is not None:
            features = filter_by_attention(features, cfg["attention-min"])
        result = query(index, features, pooling=cfg["pooling"], top_n=cfg["top-n"])
        if cfg["sp"]:
            result = spatial_rerank(
                result,
                features,
                corpus,
                depth=cfg["sp-depth"],
                iterations=cfg["sp-iters"],
                inlier_tol=cfg["sp-tol"],
                seed=cfg["sp-seed"],
                max_distance=cfg["sp-max-dist"],
            )
            if result.flagged:
                logger.warning(
                    "query %s: could not verify %d candidates (missing feature files): %s",
                    result.query_id,
                    len(result.flagged),
                    ",".join(result.flagged),
                )
        results.append(result)
    _write_text(cfg["out"], _provenance("search", cfg), format_results(results))
    logger.info("wrote rankings for %d queries -> %s", len(results), cfg["out"])


def _cmd_evaluate(cfg: dict) -> None:
    results = load_results(cfg["results"])
    gt_path = cfg["gt"]
    if gt_path is None:
        if cfg["manifest"] is None:
            raise ConfigError("evaluate needs --gt or --manifest")
        manifest = load_manifest(cfg["manifest"], check_files=False)
        if manifest.groundtruth_path is None:
            raise DataError(f"manifest {cfg['manifest']} declares no ground truth")
        gt_path = str(manifest.root / manifest.groundtruth_path)
    gt = load_ground_truth(gt_path)
    protocols = list(PROTOCOLS) if cfg["protocol"] == "both" else [cfg["protocol"]]
    body_lines = []
    for protocol in protocols:
        metrics = evaluate(results, gt, protocol)
        logger.info(
            "%s: mAP %.4f mP@10 %.4f over %d queries (%d excluded)",
            protocol,
            metrics.mean_ap,
            metrics.mean_p10,
            metrics.query_count,
            len(metrics.excluded),
        )
        body_lines.append(
            f"protocol:{protocol} mAP:{metrics.mean_ap!r} mP10:{metrics.mean_p10!r} "
            f"queries:{metrics.query_count} excluded:{','.join(metrics.excluded)}"
        )
        for qid in sorted(metrics.per_query_ap):
            body_lines.append(f"ap protocol:{protocol} query:{qid} value:{metrics.per_query_ap[qid]!r}")
    _write_text(cfg["out"], _provenance("evaluate", cfg), "\n".join(body_lines) + "\n")


def _cmd_analyze_relevance(cfg: dict) -> None:
    manifest = load_manifest(cfg["manifest"])
    pair_ids: list[tuple[str, str]] = []
    for lineno, line in read_lines(cfg["pairs"], "pairs file"):
        tokens = line.split()
        if len(tokens) != 2:
            raise DataError(f"{cfg['pairs']}:{lineno}: expected two image ids per line")
        pair_ids.append((tokens[0], tokens[1]))
    try:
        edges = bin_edges([float(tok) for tok in cfg["bins"].split(",")])
    except ValueError as exc:
        raise ConfigError(f"--bins must be comma-separated numbers: {exc}") from exc
    if not pair_ids:
        logger.warning("pairs file %s lists no pairs; writing an empty table", cfg["pairs"])
        _write_text(cfg["out"], _provenance("analyze-relevance", cfg), relevance_csv([]))
        return

    def pairs():
        for first_id, second_id in pair_ids:
            yield manifest.load_features(first_id), manifest.load_features(second_id)

    first = manifest.load_features(pair_ids[0][0])
    tol = cfg["sp-tol"]
    if tol is None:
        tol = default_inlier_tol(first)
    table = analyze_relevance(
        pairs(),
        edges,
        iterations=cfg["sp-iters"],
        inlier_tol=tol,
        seed=cfg["sp-seed"],
        max_distance=cfg["sp-max-dist"],
    )
    _write_text(cfg["out"], _provenance("analyze-relevance", cfg), relevance_csv(table))
    logger.info("wrote %d relevance bins -> %s", len(table), cfg["out"])


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "train-codebook": _cmd_train_codebook,
    "build-index": _cmd_build_index,
    "search": _cmd_search,
    "evaluate": _cmd_evaluate,
    "analyze-relevance": _cmd_analyze_relevance,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _resolve(args.command, args)
        _COMMANDS[args.command](cfg)
    except RamkError as exc:
        logger.error("%s", exc)
        return getattr(exc, "exit_code", 4)
    except Exception:  # noqa: BLE001 - report and map to the internal-error code
        logger.exception("internal error")
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
