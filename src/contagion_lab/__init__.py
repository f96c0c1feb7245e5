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

The package itself imports none of them: import each name from the module
that defines it, as in `from contagion_lab.matchlab import build_panel`.
"""

__version__ = "0.1.0"
