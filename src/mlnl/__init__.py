"""Desk-scale lab for noise-robust multi-label classification.

Pipeline: generate synthetic correlated multi-label data, inject symmetric
label noise into the silver split, train a silver classifier with the
asymmetric loss, estimate the corruption matrix via single-label regulators
(with a GLC baseline), and train the final classifier with the corrected loss.
"""

from .datagen import Dataset, GenConfig, SplitSpec, generate, read_dataset, write_dataset
from .estimator import (EstimationReport, RegulatorMatrix, compare_matrices,
                        compute_regulators, estimate_galc_slr, estimate_glc)
from .harness import ExperimentConfig, parse_config, run_ablation, run_pipeline, run_sweep
from .metrics import MetricsReport, average_precision, evaluate, f1_scores, mean_ap
from .model import (AslParams, CorrectedMode, MlpModel, TrainConfig, asl_loss, forward,
                    gradient_check, init_model, load_model, save_model, train)
from .noise import (CorruptionMatrix, FlipLog, NoiseSpec, empirical_matrix, inject,
                    read_matrix, row_normalized, symmetric_matrix, write_matrix)
from .numerics import RandomStream, sigmoid, softmax
from .svgplot import emit_plot

__version__ = "0.1.0"
