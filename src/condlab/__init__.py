"""condlab: a numerical laboratory for random walks among random conductances.

The package builds periodic conductance fields, runs variable-speed and
simple walks on them, and reduces environment observables to exact spectral
sums on the torus generator.  On top of that sit desk-scale experiments:
variance-decay exponents, resolvent-based effective-diffusivity estimates,
MSD comparisons, a non-contractivity counterexample, and pathwise box
inequalities.
"""

from .environment import (
    BoundedPareto,
    Cluster,
    ConductanceField,
    ConductanceLaw,
    Constant,
    Lattice,
    SiteClassification,
    TwoPoint,
    Uniform,
    bad_cluster,
    classify_sites,
    default_eta,
    field_to_csv,
    load_field,
    parse_law,
    sample_field,
    save_field,
    w_statistic,
)
from .errors import (
    AliasingError,
    BackendError,
    ConfigError,
    FitError,
    NonergodicError,
    ParameterError,
    SaturationError,
    SolverError,
)
from .experiments import (
    ContractivityResult,
    ExperimentReport,
    TargetCheck,
    contractivity_experiment,
    decay_fit,
    diffusivity_experiment,
    msd_experiment,
    nash_chain_check,
    variance_decay_experiment,
    write_report,
)
from .functionals import (
    LocalFunctional,
    Polynomial,
    box_sum_field,
    centered_edge,
    contract_example,
    evaluate_all,
    evaluate_at_sites,
    functional_by_name,
    local_drift,
    polynomial_functional,
)
from .operators import (
    DENSE_LIMIT,
    TorusOperator,
    box_spectral_gap,
    build_generator,
    dirichlet_form,
    resolvent_solve,
    save_spectrum_csv,
    semigroup_apply,
    simple_generator,
    sobolev_constant,
)
from .spectral import (
    DecayCurve,
    DiffusivityEstimates,
    PowerLawFit,
    QUADRATURE_RTOL,
    Quadrature,
    SpectralMeasure,
    TailDecayAgreement,
    additive_variance,
    asymptotic_variance,
    corrector_error_term,
    diffusivity_estimators,
    finite_time_deficit,
    fourier_measure,
    load_measure_csv,
    quadrature_measure,
    resolvent_second_moment,
    save_measure_csv,
    spectral_measure,
    spectral_tail,
    synthetic_power_measure,
    tail_decay_agreement,
    variance_curve,
)
from .walker import (
    EnsembleConfig,
    MsdCurve,
    Trajectory,
    additive_functional,
    msd_estimate,
    simulate_srw,
    simulate_vsrw,
    trajectory_to_csv,
)

__version__ = "0.1.0"
