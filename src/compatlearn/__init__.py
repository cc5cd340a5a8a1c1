"""Compatible representation learning across sequential tasks.

Train a sequence of feature extractors against a fixed simplex classifier
with rehearsal memory and feature distillation, measure how compatible the
resulting models are with each other on held-out verification pairs, and
search feature galleries indexed by older models without re-indexing them.
"""

__version__ = "0.1.0"

from .data import (
    LabeledDataset,
    SyntheticSpec,
    Task,
    TaskSequence,
    generate_pairs,
    load_csv,
    make_synthetic,
    split_tasks,
)
from .errors import (
    CompatLearnError,
    ConfigError,
    CorruptFileError,
    DataError,
    DegenerateFeatureError,
    DisjointnessError,
    DivergenceError,
    MetricUndefinedError,
    UnsupportedVersionError,
)
from .evalkit import (
    CompatibilityMatrix,
    CompatibilityReport,
    VerificationPairSet,
    build_compatibility_matrix,
    compatibility_report,
    pair_scores,
    tar_at_far,
    verification_accuracy,
)
from .gallery import Gallery, index_gallery, load_gallery, recall_at_1, save_gallery, search
from .geometry import SimplexPrototypes, build_simplex
from .losses import (
    LabeledBatch,
    LossReport,
    combined_loss,
    feature_distillation_loss,
    lambda_for_task,
)
from .memory import build_training_set, update_memory
from .network import (
    FeatureExtractorState,
    ModelConfig,
    TrainingHyperparams,
    apply_gradients,
    extract_features,
    gradient_check,
    init_model,
)
from .trainer import ExperimentConfig, ModelTimeline, run_sequence, run_task
