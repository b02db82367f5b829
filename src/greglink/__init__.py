"""Design-based estimation of population totals and means when auxiliary
records are linked to the sample by an imperfect, possibly ambiguous linkage."""

from .design import (
    Estimate,
    ExactMoments,
    Sample,
    SurveyDesign,
    draw_srswor,
    exact_design_moments,
    rng_stream,
)
from .errors import GregLinkError, NumericalError, ValidationError
from .estimators import (
    DiagnosticsReport,
    NpaCovariances,
    build_estimators,
    consistency_diagnostics,
    diagnose_unit_inputs,
    fit_unit_inputs,
    npa_covariances,
)
from .harness import (
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
    build_linkage,
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
