"""Trajectory synthesis from phonological targets with articulatory probing."""

__version__ = "0.1.0"

from .alignment import (FeaturalSegmentation, Phone, PhoneSegmentation,
                        build_featural, parse_alignment, trim_and_filter)
from .ema import (ArticulatorySeries, EmaRecord, GuidedPcaModel, align_frames,
                  filter_and_downsample, fit_guided_pca, load_ema, project)
from .forward import InterpMethod, Trajectory, evaluate, synthesize
from .optimize import OptimConfig, OptimizedTargets, objective, optimize_targets
from .phonology import FeatureTable, enrich_with_phonemes, get_table, load_feature_table
from .probe import ProbeModel, ScoreReport, aggregate, pearson, score, train_probe

__all__ = [
    "__version__",
    "FeaturalSegmentation", "Phone", "PhoneSegmentation",
    "build_featural", "parse_alignment", "trim_and_filter",
    "ArticulatorySeries", "EmaRecord", "GuidedPcaModel", "align_frames",
    "filter_and_downsample", "fit_guided_pca", "load_ema", "project",
    "InterpMethod", "Trajectory", "evaluate", "synthesize",
    "OptimConfig", "OptimizedTargets", "objective", "optimize_targets",
    "FeatureTable", "enrich_with_phonemes", "get_table", "load_feature_table",
    "ProbeModel", "ScoreReport", "aggregate", "pearson", "score", "train_probe",
]
