"""Functional-data explanation toolkit.

Simulates spectral-temporal signatures whose shape is driven by two
binary labels and one continuous label, decomposes them into functional
principal components, trains small feed-forward networks on the
component scores, ranks components by permutation feature importance,
and renders the interpretation figures that tie importances back to
curve features. Deterministic end to end from one master seed.
"""

from ._version import __version__
from .errors import NumericalError, PipelineError
from .explain import (PfiReport, load_pfi, permutation_importance,
                      rank_features, save_pfi)
from .fpca import (FpcaModel, fit, load_model, save_model, transform,
                   variance_explained)
from .metrics import accuracy, f1, f1_info, mse, r2
from .mlp import Mlp, MlpConfig, load_mlp, save_mlp, train
from .pipeline import (RunConfig, RunManifest, run_pipeline, split,
                       split_sizes)
from .sim import (Dataset, LabelSet, SimParams, TimeGrid,
                  class_conditional_means, generate_dataset, sample_labels)
from .viz import (PlotSpec, correlation_heatmap, correlation_matrix,
                  eigenfunction_plot, extreme_score_bundles,
                  group_means_plot, load_figure_spec, mean_pm_eigenfunction,
                  render_svg, save_figure, score_scatter)

# no run records a backend; kept for `perfbench/worker.py` until the
# harness stops reading it
BACKEND = "numpy"

__all__ = [
    "BACKEND", "__version__",
    "NumericalError", "PipelineError",
    "PfiReport", "load_pfi", "permutation_importance", "rank_features",
    "save_pfi",
    "FpcaModel", "fit", "load_model", "save_model", "transform",
    "variance_explained",
    "accuracy", "f1", "f1_info", "mse", "r2",
    "Mlp", "MlpConfig", "load_mlp", "save_mlp", "train",
    "RunConfig", "RunManifest", "run_pipeline", "split", "split_sizes",
    "Dataset", "LabelSet", "SimParams", "TimeGrid",
    "class_conditional_means", "generate_dataset", "sample_labels",
    "PlotSpec", "correlation_heatmap", "correlation_matrix",
    "eigenfunction_plot", "extreme_score_bundles", "group_means_plot",
    "load_figure_spec", "mean_pm_eigenfunction", "render_svg", "save_figure",
    "score_scatter",
]
