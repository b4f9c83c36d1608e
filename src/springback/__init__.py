"""Sparse signal recovery with the springback penalty.

The springback penalty ||x||_1 - (alpha/2) ||x||_2^2 is a weakly convex
sparsity surrogate sitting between the l1 norm and the folded-concave
penalties.  This package provides:

- closed-form thresholding operators and the penalty catalog (penalties)
- restricted-isometry recovery conditions and error bounds (bounds)
- the DCA solver for the constrained springback model plus six baseline
  solvers (solvers)
- matrix ensembles, sparse signals, and SNR-calibrated noise (sensing)
- a benchmark harness and command-line interface (bench, cli)
"""

from .bounds import (
    BoundKind,
    BoundReport,
    RipProfile,
    a_of_s,
    alpha_posterior_bound,
    alpha_relation,
    constant_c,
    convergence_alpha_bound,
    d1,
    d2,
    exact_condition,
    noise_threshold,
    posterior_verify,
    recovery_bound,
    rip_condition,
)
from .errors import (
    InvalidParameterError,
    NumericError,
    RipConditionError,
    SpringbackError,
)
from .penalties import (
    PenaltyKind,
    ThresholdParams,
    dc_concave_gradient,
    firm_threshold,
    penalty_value,
    prox_springback,
    soft_threshold,
    springback_threshold,
)
from .sensing import (
    EnsembleKind,
    EnsembleSpec,
    SignalSpec,
    add_noise_snr,
    gen_matrix,
    gen_signal,
    gen_support,
)
from .solvers import (
    ProblemInstance,
    SolverOptions,
    SolverReport,
    SolverStatus,
    admm_l1,
    admm_subproblem,
    aiht,
    alpha_subroutine,
    dca_springback,
    dca_unconstrained,
    hard_threshold,
    irls_lp,
)
from .bench import (
    ExperimentSpec,
    SummaryRow,
    TrialRecord,
    emit_results,
    load_config,
    preset_spec,
    run_experiment,
    run_trial,
    summarize,
)

__version__ = "0.1.0"
