"""Max-entropy densities for multi-instance bags, confidence-constrained
low-rank joint estimation, closed-form KL bag similarity, and the synthetic
experiment harnesses around them."""

__version__ = "0.1.0"

from .basis import (
    BasisSpec,
    Domain,
    IntegrationGrid,
    domain_from_data,
    make_auto_grid,
    make_basis,
    make_gauss_grid,
    make_mc_grid,
    make_tensor_grid,
)
from .errors import ConvergenceError, DegenerateDensityError, GridBudgetError
from .maxent import (
    BasisGrid,
    MEDensity,
    NewtonConfig,
    SufficientStats,
    densities_from_columns,
    fit_sde,
    fit_sde_relaxed,
    kl,
    suff_stats,
    sym_kl,
)
from .lowrank import (
    SvdFactors,
    nuclear_norm,
    numeric_rank,
    rank_ladder_svd,
    shrink,
    soft_threshold,
    svd,
)
from .solvers import (
    CmenaConfig,
    FitReport,
    LambdaMatrix,
    PsiBasis,
    epsilon_bound,
    fit_cmen,
    fit_columns_relaxed,
    fit_joint,
    fit_rmde,
    g_and_grad,
    lipschitz_tau,
    psi_basis,
    rmde_continuation,
    rmde_cross_validate,
)
from .experiments import (
    PhaseCell,
    PhaseDiagramSpec,
    markov_bound_trial,
    recovery_threshold,
    rejection_sample,
    run_phase_diagram,
    runtime_benchmark,
    synth_lowrank_lambda,
    synth_two_class_bags,
)
from .mil import (
    Bag,
    CitationKnnConfig,
    KdeModel,
    LabeledBagDataset,
    PcaModel,
    PipelineConfig,
    avg_hausdorff,
    kde_fit,
    kfold_evaluate,
    pca_apply,
    pca_fit,
)
