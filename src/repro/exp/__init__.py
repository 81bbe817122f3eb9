"""`repro.exp` — the experiment harness.

Per-table/figure reproduction functions (Table II/IV/V, Figures 3–8, the
§III-C efficiency study, Theorem 1 and the design studies) and their
registry :data:`EXPERIMENTS`, the one fit-and-score task every fit runs
through, Table III grid search and ASCII table rendering.
"""

from .config import CAUSER_TUNED, BenchmarkSettings, quick_settings
from .experiments import (ABLATION_VARIANTS, EXPERIMENTS, DesignResult,
                          EfficiencyResult, Experiment,
                          FilteringResult, Figure3Result, Figure7Result,
                          Figure8Result, IdentifiabilityResult,
                          ScalabilityResult, SweepResult, Table2Result,
                          Table4Result, Table5Result, causer_parameter_sweep,
                          design_ablations, efficiency_study,
                          figure3_sequence_lengths, figure7_explanation,
                          figure8_case_studies, filtering_costs,
                          identifiability_study, recover_cluster_graph,
                          scalability_study,
                          table2_statistics, table4_overall, table5_ablation)
from .grid import GridSearchResult, grid_combinations, grid_search_causer
from ..lineup import TABLE4_MODEL_NAMES
from .runner import (FitSpec, RunResult, build_model, fit_and_score,
                     run_models)
from .tables import render_metric_matrix, render_series, render_table

__all__ = [
    "BenchmarkSettings", "quick_settings", "CAUSER_TUNED",
    "Experiment", "EXPERIMENTS",
    "Table2Result", "table2_statistics",
    "Figure3Result", "figure3_sequence_lengths",
    "Table4Result", "table4_overall",
    "SweepResult", "causer_parameter_sweep",
    "Table5Result", "table5_ablation", "ABLATION_VARIANTS",
    "Figure7Result", "figure7_explanation",
    "Figure8Result", "figure8_case_studies",
    "EfficiencyResult", "efficiency_study",
    "FilteringResult", "filtering_costs",
    "DesignResult", "design_ablations",
    "IdentifiabilityResult", "identifiability_study",
    "recover_cluster_graph",
    "ScalabilityResult", "scalability_study",
    "GridSearchResult", "grid_combinations", "grid_search_causer",
    "RunResult", "build_model", "run_models",
    "FitSpec", "fit_and_score", "TABLE4_MODEL_NAMES",
    "render_table", "render_metric_matrix", "render_series",
]
