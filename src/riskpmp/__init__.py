"""Risk-averse stochastic optimal control toolkit.

Simulates controlled SDEs, evaluates coherent risk measures with their
subgradients, solves the risk-averse costate equations by least-squares
Monte Carlo, and emits machine-checkable Pontryagin optimality certificates.
"""

__version__ = "0.1.0"

from .sde import (  # noqa: F401
    BrownianEnsemble,
    ControlLaw,
    DynamicsSpec,
    FeedbackLaw,
    FundamentalMatrices,
    StateEnsemble,
    TimeGrid,
    double_integrator_dynamics,
    euler_maruyama,
    fundamental_matrices,
    make_grid,
    sample_brownian,
    scalar_linear_dynamics,
    solve_linearized,
    strong_convergence_order,
)
from .risk import (  # noqa: F401
    AVaR,
    Expectation,
    MixtureAVaR,
    RiskConsistencyError,
    RiskSubgradient,
    SampledRandomVariable,
    coherence_suite,
    representation_check,
    risk_subgradient,
    risk_value,
)
from .variational import (  # noqa: F401
    ItoGapReport,
    RateTable,
    TangentSelection,
    ito_counterexample,
    linearization_rate,
    selection_continuity,
    tangent_from_control,
)
from .adjoint import (  # noqa: F401
    CostatePair,
    RegressionBasis,
    TerminalCostate,
    assemble_terminal,
    conditional_expectation,
    linearization_along,
    martingale_check,
    solve_adjoint,
    tower_check,
)
from .certificate import (  # noqa: F401
    CandidateBundle,
    CertifyConfig,
    MaxGapReport,
    NormalityReport,
    PmpCertificate,
    ProblemSpec,
    SlacknessReport,
    TerminalConstraint,
    certify,
    hamiltonian,
    maximization_gap,
    normality_certificate,
    risk_param_gap,
    slackness_check,
)
from .planner import (  # noqa: F401
    BangBangPolicy,
    BangBangReport,
    Refinement,
    SafetyReport,
    ShootResult,
    SopInstance,
    SopSolution,
    assemble_solution,
    bangbang_necessity,
    build_sop,
    safety_check,
    shoot,
    solve_sop,
    terminal_mean,
)
from .cli import emit_plot_data, load_scenario  # noqa: F401
from .cli import main as cli_main  # noqa: F401
