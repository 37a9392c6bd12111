"""MLDID: machine-learned staggered difference-in-differences.

Group-time effects from cross-fitted nuisance models, an orthogonal
outcome decomposition and balancing weights, aggregated into event-study
effects, with per-unit conditional effects and robust scores for
heterogeneity analysis. Includes a simulation oracle, a doubly-robust
baseline, and a command-line harness.
"""

__version__ = "0.1.0"

from .amle import (
    AmleProblem,
    amle_objective,
    build_function_class,
    estimate_sigma2,
    solve_amle,
)
from .catt import CattModel, fit_catt, predict_catt
from .drdid import DrCellResult, compare_rmse, estimate_cell_dr
from .estimator import (
    BootstrapSE,
    CattPanel,
    DynamicEffect,
    EstimatorConfig,
    GroupTimeResult,
    MldidRun,
    aggregate_event_study,
    attach_bootstrap_se,
    bootstrap_se,
    estimate_cell,
    event_study_weights,
    multiplier_se,
    run_mldid,
)
from .heterogeneity import BlpResult, ClanResult, blp, clan
from .learners import (
    FoldPlan,
    LinearModel,
    ProbabilityModel,
    cross_fit,
    fit_penalized_ls,
    fit_penalized_ls_cv,
    fit_probability,
    make_fold_plan,
)
from .nuisance import (
    NuisanceBundle,
    compute_abch,
    estimate_nuisances,
)
from .panel import (
    NEVER_TREATED,
    ColumnSchema,
    PanelDataset,
    TwoPeriodSlice,
    enumerate_cells,
    load_panel,
    slice_two_period,
    write_panel_csv,
)
from .simulate import DgpConfig, OraclePanel, oracle_dynamic, simulate

__all__ = [
    "AmleProblem",
    "BlpResult",
    "BootstrapSE",
    "CattModel",
    "CattPanel",
    "ClanResult",
    "ColumnSchema",
    "DgpConfig",
    "DrCellResult",
    "DynamicEffect",
    "EstimatorConfig",
    "FoldPlan",
    "GroupTimeResult",
    "LinearModel",
    "MldidRun",
    "NEVER_TREATED",
    "NuisanceBundle",
    "OraclePanel",
    "PanelDataset",
    "ProbabilityModel",
    "TwoPeriodSlice",
    "aggregate_event_study",
    "amle_objective",
    "attach_bootstrap_se",
    "blp",
    "bootstrap_se",
    "build_function_class",
    "clan",
    "compare_rmse",
    "compute_abch",
    "cross_fit",
    "enumerate_cells",
    "estimate_cell",
    "estimate_cell_dr",
    "estimate_nuisances",
    "estimate_sigma2",
    "event_study_weights",
    "fit_catt",
    "fit_penalized_ls",
    "fit_penalized_ls_cv",
    "fit_probability",
    "load_panel",
    "make_fold_plan",
    "multiplier_se",
    "oracle_dynamic",
    "predict_catt",
    "run_mldid",
    "simulate",
    "slice_two_period",
    "solve_amle",
    "write_panel_csv",
]
