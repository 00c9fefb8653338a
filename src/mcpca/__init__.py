"""Multi-context PCA: shared components with per-context loadings.

A stack of per-context covariance matrices is decomposed as
S_i ~= A B_i A^T with shared unit-norm components A and non-negative
diagonal weights B_i, via subspace power iterations followed by
non-negative least squares.  See the README for the CLI and file
formats.
"""

__version__ = "0.1.0"

from .baselines import BaselineResult, jennrich, pca_stack
from .decompose import (
    FitConfig,
    FitReport,
    McpcaModel,
    extract_subspace,
    fit_mcpca,
    reconstruction_error,
    solve_nnls,
)
from .diagnostics import (
    Diagnostics,
    compute_diagnostics,
    kl_loss,
    model_dimension,
    projection_matrix,
    score_samples,
)
from .exceptions import (
    AsymmetricInputError,
    DataFormatError,
    DegeneracyError,
    DimensionMismatchError,
    GramSingularityError,
    McpcaError,
    RankDeficiencyError,
)
from .ingest import (
    ContextDataset,
    build_tensor,
    global_pca_reduce,
    load_contexts,
    sample_covariance,
)
from .model_io import Preprocessing, load_model, save_model
from .model_select import (
    MatchResult,
    RankSelectionReport,
    ascore,
    mix_seed,
    select_rank,
    stability_score,
)
from .synth_bench import (
    BenchConfig,
    PlantedModel,
    SweepConfig,
    TrialRecord,
    exact_covariance_tensor,
    generate_planted,
    run_accuracy_trials,
    run_sample_sweep,
    sample_dataset,
)
from .tensor_core import (
    CovarianceTensor,
    contract_mode3,
    flatten,
    stack_covariances,
    tensor_from_factors,
)
