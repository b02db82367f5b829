"""Design-based estimation of population totals and means when auxiliary
records are linked to the sample by an imperfect, possibly ambiguous linkage."""

from .design import (
    Estimate,
    ExactMoments,
    Sample,
    SurveyDesign,
    draw_srswor,
    exact_design_moments,
    ht_total,
    rng_stream,
)
from .errors import GregLinkError, NumericalError, ValidationError
from .estimators import (
    DiagnosticsReport,
    GregSpec,
    NpaCovariances,
    consistency_diagnostics,
    greg,
    npa_covariances,
    sls_greg,
    sub_greg,
    wls_coefficients,
)
from .harness import (
    ESTIMATOR_LABELS,
    ESTIMATOR_ORDER,
    EstimatorSummary,
    MonteCarloSummary,
    ScenarioConfig,
    load_scenario_file,
    parse_scenario_text,
    run_scenario,
    summarize_to_table,
    summary_csv_rows,
)
from .linkage import (
    AuxDatabase,
    LinkageStructure,
    Population,
    WeightScheme,
    best_link_indicator_weights,
    build_linkage,
    derive_covariates,
    multiplicity_weights,
    reverse_weights_best_link,
)
from .synthpop import (
    LinkageModel,
    PopulationModel,
    aux_from_population,
    gen_linkage,
    gen_pi_q_weights,
    gen_population,
    proportional_counts,
)

__version__ = "0.1.0"
