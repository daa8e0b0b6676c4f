"""corpusforge: curation and preparation toolkit for weakly-supervised video corpora.

Subsystems:
  records / manifest   data model and deterministic persistence
  labelspace           relevant-hashtag construction from seed labels
  sampling             random / square-root / tail-preserving selection
  census / dedup       near-duplicate detection via census signatures + LSH
  temporal             clip jittering, length classes, budget planners
  tensor / netops /
  inflate              minimal conv engine, 2D->3D inflation, FCN transform
  schedule / probe /
  evalmetrics          LR schedules, linear probes, accuracy and mAP
"""

from .records import (
    LabelKind,
    LabelSpace,
    ValidationError,
    VideoRecord,
    label_histogram,
)
from .manifest import DatasetManifest, ManifestRow, load_manifest, save_manifest

__version__ = "0.1.0"

__all__ = [
    "DatasetManifest",
    "LabelKind",
    "LabelSpace",
    "ManifestRow",
    "ValidationError",
    "VideoRecord",
    "label_histogram",
    "load_manifest",
    "save_manifest",
    "__version__",
]
