"""Simulation and inference toolkit for mixed-mechanism adoption cascades.

Submodules:
    netgraph    directed follower graphs (CSR both ways, CSV/npz round-trips)
    shocks      exogenous burst schedules, detection, robust power-law fits
    calibrate   parameter pools and per-node assignments from adoption logs
    cascade     daily-step mixed-mechanism simulation engine
    features    egocentric feature extraction at adoption time
    mechclass   from-scratch boosted-tree mechanism classifier
    structtest  degree vs adoption-order rank test
    matchlab    dynamic matched-sample risk-ratio estimation
    synthgen    synthetic graphs, homophily worlds, mechanism-pure cascades
    cli         command-line pipeline
"""

__version__ = "0.1.0"

from .calibrate import (
    NEVER,
    AdoptionLog,
    MechanismParams,
    assign_from_pools,
    calibrate_activity,
    calibrate_background,
    calibrate_thresholds,
    calibrate_transmission,
)
from .cascade import (
    EVENT_DTYPE,
    MECHANISMS,
    dedup_events,
    events_to_log,
    run_ensemble,
    run_realization,
)
from .errors import ContagionLabError, ConvergenceError, DataError, ParseError
from .features import FEATURE_NAMES, extract_features_log
from .matchlab import (
    PAIR_DTYPE,
    CovariateTable,
    Dose,
    PlaceboFuture,
    RiskTable,
    Timing,
    TreatmentPanel,
    build_panel,
    fit_propensity,
    match_all_days,
    permute_within_day,
    pool_risk_ratio,
)
from .mechclass import BoostedForest, decompose, predict_label, predict_proba, train
from .netgraph import DirectedGraph, load_edge_list
from .shocks import (
    AdoptionSeries,
    PowerLawFit,
    ShockSchedule,
    detect_shocks,
    fit_power_law,
    shock_intensity,
)
from .structtest import OrderTestResult, degree_order_test
from .synthgen import (
    SynthConfig,
    gen_graph,
    gen_homophily_adoptions,
    gen_pure_cascade,
    gen_traits,
)

__all__ = [
    "__version__",
    "NEVER",
    "MECHANISMS",
    "EVENT_DTYPE",
    "PAIR_DTYPE",
    "FEATURE_NAMES",
    "AdoptionLog",
    "AdoptionSeries",
    "BoostedForest",
    "ContagionLabError",
    "ConvergenceError",
    "CovariateTable",
    "DataError",
    "DirectedGraph",
    "Dose",
    "MechanismParams",
    "OrderTestResult",
    "ParseError",
    "PlaceboFuture",
    "PowerLawFit",
    "RiskTable",
    "ShockSchedule",
    "SynthConfig",
    "Timing",
    "TreatmentPanel",
    "assign_from_pools",
    "build_panel",
    "calibrate_activity",
    "calibrate_background",
    "calibrate_thresholds",
    "calibrate_transmission",
    "decompose",
    "dedup_events",
    "degree_order_test",
    "detect_shocks",
    "events_to_log",
    "extract_features_log",
    "fit_power_law",
    "fit_propensity",
    "gen_graph",
    "gen_homophily_adoptions",
    "gen_pure_cascade",
    "gen_traits",
    "load_edge_list",
    "match_all_days",
    "permute_within_day",
    "pool_risk_ratio",
    "predict_label",
    "predict_proba",
    "run_ensemble",
    "run_realization",
    "shock_intensity",
    "train",
]
