"""Regional aggregated match kernels for local-feature image retrieval."""

from __future__ import annotations

__version__ = "0.1.0"

from .codebook import (
    Codebook,
    WordPartition,
    load_codebook,
    partition,
    quantize_batch,
    save_codebook,
    train_codebook,
)
from .errors import ConfigError, DataError, DimensionError, FormatError, RamkError, TrainingError
from .evaluation import Metrics, analyze_relevance, average_precision, evaluate
from .features_io import (
    DatasetManifest,
    GroundTruth,
    ImageFeatures,
    QueryGroundTruth,
    RegionBox,
    load_ground_truth,
    load_image_features,
    load_manifest,
    save_ground_truth,
    save_image_features,
    save_manifest,
)
from .index import (
    RankedResult,
    RetrievalIndex,
    build_index,
    load_index,
    query,
    save_index,
)
from .kernels import (
    AggregatedRepresentation,
    SelectivityParams,
    aggregate,
    kernel_similarity,
)
from .regional import (
    RegionSet,
    RegionStrategy,
    aggregate_regional,
    assign_to_region,
    regional_similarity,
    select_regions,
)
from .rerank import AffineModel, match_features, ransac_affine, spatial_rerank
from .synthetic import SyntheticConfig, generate_synthetic_dataset
