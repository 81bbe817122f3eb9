"""One definition per paper experiment: the functions and their registry.

Each function generates the workload, runs the models, and returns a
structured result object with a ``render()`` method printing the same
rows/series layout the paper reports.  :data:`EXPERIMENTS` registers every
table, figure and study once, with the arguments its archive was made at
and the shape claims it must show; ``python -m repro <name>`` runs an
entry, and ``benchmarks/bench_paper.py`` runs each one, archives its table
and asserts its claims.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..causal import evaluate_structure, h_value, match_clusters
from ..core import ablation_config, format_case_study, make_explainer
from ..core.config import CauserConfig
from ..data import (DATASET_NAMES, PAPER_STATISTICS, BehaviorSimulator,
                    build_explanation_dataset, compute_statistics,
                    dataset_config, leave_one_out_split, load_dataset,
                    pad_samples, sequence_length_histogram)
from ..data.interactions import Split
from ..data.synthetic import SyntheticDataset
from ..eval import (evaluate_explanations, evaluate_model, paired_t_test)
from ..lineup import TABLE4_MODEL_NAMES
from ..parallel import parallel_map
from .config import BenchmarkSettings
from .runner import FitSpec, RunResult, fit_and_score, lineup_fit
from .tables import render_metric_matrix, render_series, render_table


def _load(name: str, settings: BenchmarkSettings
          ) -> Tuple[SyntheticDataset, Split]:
    """The named profile at the settings' scale and seed, and its split."""
    dataset = load_dataset(name, scale=settings.scale,
                           seed=settings.data_seed)
    return dataset, leave_one_out_split(dataset.corpus)


def _causer(dataset: SyntheticDataset, split: Split, config: CauserConfig,
            z: Optional[int] = None) -> RunResult:
    """Causer under ``config``, fitted on the train split by the one fit
    task and scored on the test split at top-``z`` when ``z`` is given;
    unscored, the result carries the fitted model."""
    samples = None if z is None else split.test
    return fit_and_score(FitSpec("Causer", dataset, config, split.train,
                                 samples, z))


# ----------------------------------------------------------------------
# Table II & Figure 3 — dataset statistics
# ----------------------------------------------------------------------
@dataclass
class Table2Result:
    rows: List[Tuple]

    def render(self) -> str:
        headers = ("Dataset", "#User", "#Item", "#Interaction", "#SeqLen",
                   "Sparsity")
        return render_table(headers, self.rows,
                            title="Table II — dataset statistics (scaled profiles)")


def table2_statistics(settings: Optional[BenchmarkSettings] = None
                      ) -> Table2Result:
    """Regenerate Table II for the scaled synthetic profiles."""
    settings = settings or BenchmarkSettings()
    rows = []
    for name in DATASET_NAMES:
        dataset = load_dataset(name, scale=settings.scale,
                               seed=settings.data_seed)
        rows.append(compute_statistics(name, dataset.corpus).as_row())
    return Table2Result(rows=rows)


@dataclass
class Figure3Result:
    histograms: Dict[str, Dict[str, int]]

    def render(self) -> str:
        parts = ["Figure 3 — sequence-length distributions"]
        for name, hist in self.histograms.items():
            total = sum(hist.values())
            bars = ", ".join(f"{bucket}: {count}"
                             for bucket, count in hist.items() if count)
            parts.append(f"{name} (n={total}): {bars}")
        return "\n".join(parts)


def figure3_sequence_lengths(settings: Optional[BenchmarkSettings] = None
                             ) -> Figure3Result:
    """Regenerate Fig. 3's per-dataset sequence-length histograms."""
    settings = settings or BenchmarkSettings()
    histograms = {}
    for name in DATASET_NAMES:
        dataset = load_dataset(name, scale=settings.scale,
                               seed=settings.data_seed)
        histograms[name] = sequence_length_histogram(dataset.corpus)
    return Figure3Result(histograms=histograms)


# ----------------------------------------------------------------------
# Table IV — overall comparison
# ----------------------------------------------------------------------
@dataclass
class Table4Result:
    datasets: List[str]
    models: List[str]
    f1: Dict[str, Dict[str, float]]
    ndcg: Dict[str, Dict[str, float]]
    stars: Dict[str, Dict[str, str]]
    runs: List[RunResult] = field(default_factory=list)

    def best_baseline(self, dataset: str, metric: str = "ndcg") -> Tuple[str, float]:
        table = self.ndcg if metric == "ndcg" else self.f1
        candidates = [(m, table[m][dataset]) for m in self.models
                      if not m.startswith("Causer") and dataset in table[m]]
        return max(candidates, key=lambda pair: pair[1])

    def causer_improvement(self, metric: str = "ndcg") -> float:
        """Mean relative improvement of the best Causer over the best baseline."""
        table = self.ndcg if metric == "ndcg" else self.f1
        gains = []
        for dataset in self.datasets:
            base = self.best_baseline(dataset, metric)[1]
            ours = max(table[m][dataset] for m in self.models
                       if m.startswith("Causer"))
            if base > 0:
                gains.append((ours - base) / base)
        return 100.0 * float(np.mean(gains)) if gains else 0.0

    def render(self) -> str:
        parts = [render_metric_matrix(self.models, self.datasets, self.f1,
                                      title="Table IV — F1@5 (%)",
                                      stars=self.stars),
                 "",
                 render_metric_matrix(self.models, self.datasets, self.ndcg,
                                      title="Table IV — NDCG@5 (%)",
                                      stars=self.stars),
                 "",
                 f"Causer mean improvement over best baseline: "
                 f"F1 {self.causer_improvement('f1'):+.1f}%, "
                 f"NDCG {self.causer_improvement('ndcg'):+.1f}%"]
        return "\n".join(parts)


def table4_overall(settings: Optional[BenchmarkSettings] = None,
                   datasets: Sequence[str] = DATASET_NAMES,
                   models: Sequence[str] = TABLE4_MODEL_NAMES,
                   workers: Optional[int] = 1) -> Table4Result:
    """Run the full Table IV grid: every model on every dataset.

    Stars mark Causer cells whose per-user NDCG beats the best baseline
    with p < 0.05 under the paired t-test (the paper's protocol).

    ``workers`` > 1 fans the (model, dataset) cells out one process per
    cell through :func:`repro.parallel.parallel_map` (``None`` → CPU-aware
    default, ``0``/``1`` → serial).  Datasets are generated and split once
    here in the parent; the datasets x models cross-product is one flat
    task list (a wide lineup keeps every worker busy even when single
    datasets are small), and results come back dataset-major, model-minor,
    so the table is identical either way.
    """
    settings = settings or BenchmarkSettings()
    f1: Dict[str, Dict[str, float]] = {m: {} for m in models}
    ndcg: Dict[str, Dict[str, float]] = {m: {} for m in models}
    stars: Dict[str, Dict[str, str]] = {m: {} for m in models}
    loaded = [(name, *_load(name, settings)) for name in datasets]
    cells = [lineup_fit(model, dataset, split, settings)
             for _, dataset, split in loaded for model in models]
    all_runs = parallel_map(fit_and_score, cells, workers=workers,
                            name="table cell")
    for block, (name, _, _) in enumerate(loaded):
        runs = all_runs[block * len(models):(block + 1) * len(models)]
        best_base = max((r for r in runs
                         if not r.model_name.startswith("Causer")),
                        key=lambda r: r.ndcg)
        for run in runs:
            f1[run.model_name][name] = run.f1
            ndcg[run.model_name][name] = run.ndcg
            if run.model_name.startswith("Causer"):
                test = paired_t_test(run.result.per_user["ndcg"],
                                     best_base.result.per_user["ndcg"])
                stars[run.model_name][name] = test.star
    return Table4Result(datasets=list(datasets), models=list(models),
                        f1=f1, ndcg=ndcg, stars=stars, runs=all_runs)


# ----------------------------------------------------------------------
# Figures 4/5/6 — hyper-parameter sweeps
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    parameter: str
    values: List
    ndcg: Dict[str, List[float]]  # series per "dataset/cell" label

    def render(self) -> str:
        figure = {"num_clusters": "Figure 4 — cluster count K",
                  "epsilon": "Figure 5 — threshold ε",
                  "eta": "Figure 6 — temperature η"}.get(self.parameter,
                                                         self.parameter)
        return render_series(self.parameter, self.values, self.ndcg,
                             title=f"{figure} (NDCG@5 %)")

    def best_value(self, label: str):
        series = self.ndcg[label]
        return self.values[int(np.argmax(series))]


def causer_parameter_sweep(parameter: str, values: Sequence,
                           settings: Optional[BenchmarkSettings] = None,
                           datasets: Sequence[str] = ("baby", "epinions"),
                           cells: Sequence[str] = ("gru", "lstm")
                           ) -> SweepResult:
    """Sweep one Causer hyper-parameter (the Fig. 4/5/6 protocol).

    The other parameters stay at their tuned optima, matching §V-C.
    """
    settings = settings or BenchmarkSettings()
    series: Dict[str, List[float]] = {}
    for dataset_name in datasets:
        dataset, split = _load(dataset_name, settings)
        for cell in cells:
            series[f"{dataset_name}/{cell}"] = [
                _causer(dataset, split,
                        settings.causer_config(dataset_name, cell_type=cell,
                                               **{parameter: value}),
                        settings.z).ndcg
                for value in values]
    return SweepResult(parameter=parameter, values=list(values), ndcg=series)


# ----------------------------------------------------------------------
# Table V — ablation study
# ----------------------------------------------------------------------
ABLATION_VARIANTS = ("-rec", "-clus", "-att", "-causal", "full")


@dataclass
class Table5Result:
    ndcg: Dict[str, Dict[str, float]]  # variant -> "dataset/cell" -> value
    columns: List[str]

    def render(self) -> str:
        labels = [f"Causer ({v})" if v != "full" else "Causer"
                  for v in ABLATION_VARIANTS]
        values = {label: self.ndcg[variant]
                  for label, variant in zip(labels, ABLATION_VARIANTS)}
        return render_metric_matrix(labels, self.columns, values,
                                    title="Table V — ablations (NDCG@5 %)")


def table5_ablation(settings: Optional[BenchmarkSettings] = None,
                    datasets: Sequence[str] = ("baby", "epinions"),
                    cells: Sequence[str] = ("lstm", "gru")) -> Table5Result:
    """Run the Table V ablations on the paper's two study datasets."""
    settings = settings or BenchmarkSettings()
    ndcg: Dict[str, Dict[str, float]] = {v: {} for v in ABLATION_VARIANTS}
    columns: List[str] = []
    for dataset_name in datasets:
        dataset, split = _load(dataset_name, settings)
        for cell in cells:
            column = f"{dataset_name}/{cell}"
            columns.append(column)
            base_config = settings.causer_config(dataset_name, cell_type=cell)
            for variant in ABLATION_VARIANTS:
                ndcg[variant][column] = _causer(
                    dataset, split, ablation_config(base_config, variant),
                    settings.z).ndcg
    return Table5Result(ndcg=ndcg, columns=columns)


# ----------------------------------------------------------------------
# Figure 7 — quantitative explanation evaluation
# ----------------------------------------------------------------------
@dataclass
class Figure7Result:
    f1: Dict[str, float]
    ndcg: Dict[str, float]
    num_samples: int
    avg_causes: float

    def render(self) -> str:
        rows = [(label, self.f1[label], self.ndcg[label]) for label in self.f1]
        return render_table(
            ("explainer", "F1@3 (%)", "NDCG@3 (%)"), rows,
            title=(f"Figure 7 — explanation quality on {self.num_samples} "
                   f"labeled samples (avg {self.avg_causes:.1f} causes each)"))


def figure7_explanation(settings: Optional[BenchmarkSettings] = None,
                        dataset_name: str = "baby",
                        cells: Sequence[str] = ("lstm", "gru"),
                        max_samples: int = 793) -> Figure7Result:
    """Compare Causer / (-att) / (-causal) explanation scores (Fig. 7).

    Explanation scores follow §V-E1: ``Ŵ α`` for the full model, ``Ŵ``
    alone for (-att) and ``α`` alone for (-causal); top-3 picks are scored
    against the labeled causes.
    """
    settings = settings or BenchmarkSettings()
    dataset, split = _load(dataset_name, settings)
    samples = build_explanation_dataset(dataset, max_samples=max_samples)
    if not samples:
        raise RuntimeError("explanation dataset came out empty; "
                           "increase the scale")
    from ..data.explanation import average_causes_per_sample
    f1: Dict[str, float] = {}
    ndcg: Dict[str, float] = {}
    for cell in cells:
        model = _causer(dataset, split,
                        settings.causer_config(dataset_name,
                                               cell_type=cell)).model
        for mode, label in (("full", f"Causer/{cell}"),
                            ("causal", f"Causer(-att)/{cell}"),
                            ("attention", f"Causer(-causal)/{cell}")):
            outcome = evaluate_explanations(samples,
                                            make_explainer(model, mode), k=3)
            f1[label] = 100.0 * outcome.f1
            ndcg[label] = 100.0 * outcome.ndcg
    return Figure7Result(f1=f1, ndcg=ndcg, num_samples=len(samples),
                         avg_causes=average_causes_per_sample(samples))


# ----------------------------------------------------------------------
# Figure 8 — qualitative case studies
# ----------------------------------------------------------------------
@dataclass
class Figure8Result:
    cases: List[str]

    def render(self) -> str:
        banner = "Figure 8 — qualitative explanation case studies"
        return "\n\n".join([banner] + self.cases)


def figure8_case_studies(settings: Optional[BenchmarkSettings] = None,
                         dataset_name: str = "baby",
                         num_cases: int = 4) -> Figure8Result:
    """Print Fig. 8-style cases: per-history-item Ŵ, α and combined scores."""
    settings = settings or BenchmarkSettings()
    dataset, split = _load(dataset_name, settings)
    samples = build_explanation_dataset(dataset, max_samples=200)
    model = _causer(dataset, split,
                    settings.causer_config(dataset_name,
                                           cell_type="gru")).model
    # Prefer cases with at least three history items (richer stories).
    ranked = sorted(samples, key=lambda s: -len(s.history_items))
    cases = [format_case_study(model, sample)
             for sample in ranked[:num_cases]]
    return Figure8Result(cases=cases)


# ----------------------------------------------------------------------
# §III-C — efficiency study
# ----------------------------------------------------------------------
@dataclass
class EfficiencyResult:
    train_every_epoch_seconds: float
    train_slow_updates_seconds: float
    causer_inference_seconds: float
    sasrec_inference_seconds: float

    @property
    def training_speedup_percent(self) -> float:
        if self.train_every_epoch_seconds == 0:
            return 0.0
        return 100.0 * (1 - self.train_slow_updates_seconds
                        / self.train_every_epoch_seconds)

    @property
    def inference_ratio(self) -> float:
        if self.sasrec_inference_seconds == 0:
            return float("inf")
        return self.causer_inference_seconds / self.sasrec_inference_seconds

    def render(self) -> str:
        rows = [
            ("Causer train (update_every=1)", self.train_every_epoch_seconds),
            ("Causer train (update_every=10)", self.train_slow_updates_seconds),
            ("slow-update speedup", f"{self.training_speedup_percent:.0f}% (paper: ~22%)"),
            ("Causer inference (s)", self.causer_inference_seconds),
            ("SASRec inference (s)", self.sasrec_inference_seconds),
            ("inference ratio", f"{self.inference_ratio:.2f}x (paper: ~1.16x)"),
        ]
        return render_table(("quantity", "value"), rows,
                            title="§III-C — efficiency study",
                            float_format="{:.3f}")


def efficiency_study(settings: Optional[BenchmarkSettings] = None,
                     dataset_name: str = "baby") -> EfficiencyResult:
    """Time the paper's two efficiency claims on equal workloads."""
    settings = settings or BenchmarkSettings()
    dataset, split = _load(dataset_name, settings)

    every_epoch, slow = [
        _causer(dataset, split,
                settings.causer_config(dataset_name,
                                       update_every=update_every)
                ).fit_seconds
        for update_every in (1, 10)]
    causer = _causer(dataset, split,
                     settings.causer_config(dataset_name)).model
    sasrec = fit_and_score(FitSpec("SASRec", dataset,
                                   settings.train_config(),
                                   split.train)).model
    start = time.perf_counter()
    evaluate_model(causer, split.test, z=settings.z)
    causer_inference = time.perf_counter() - start
    start = time.perf_counter()
    evaluate_model(sasrec, split.test, z=settings.z)
    sasrec_inference = time.perf_counter() - start
    return EfficiencyResult(
        train_every_epoch_seconds=every_epoch,
        train_slow_updates_seconds=slow,
        causer_inference_seconds=causer_inference,
        sasrec_inference_seconds=sasrec_inference)


# ----------------------------------------------------------------------
# DESIGN.md §5 — filtering-mode scoring cost
# ----------------------------------------------------------------------
@dataclass
class FilteringResult:
    num_users: int
    seconds: Dict[str, float]  # filtering mode -> one scoring pass

    def render(self) -> str:
        lines = [f"Filtering-mode scoring cost ({self.num_users} users, "
                 f"full catalog):"]
        for mode, seconds in self.seconds.items():
            lines.append(f"  {mode:8s} {seconds:8.3f}s "
                         f"({seconds / self.seconds['shared']:.1f}x shared)")
        return "\n".join(lines)


def filtering_costs(settings: Optional[BenchmarkSettings] = None,
                    dataset_name: str = "baby",
                    num_users: int = 64) -> FilteringResult:
    """Time one full-catalog scoring pass under each eq.-10 filtering mode.

    ``shared`` and ``cluster`` score through ``candidate_logits``,
    ``strict`` re-runs the RNN per candidate (DESIGN.md §5).
    """
    settings = settings or BenchmarkSettings()
    dataset, split = _load(dataset_name, settings)
    samples = split.test[:num_users]
    batch = pad_samples(samples, max_history=settings.max_history)
    candidates = np.tile(np.arange(1, dataset.num_items + 1),
                         (len(samples), 1))
    model = _causer(dataset, split, settings.causer_config(dataset_name)).model
    seconds: Dict[str, float] = {}
    for mode in ("shared", "cluster", "strict"):
        model.config.filtering_mode = mode
        start = time.perf_counter()
        if mode == "strict":
            model.candidate_logits_strict(batch, candidates)
        else:
            model.candidate_logits(batch, candidates)
        seconds[mode] = time.perf_counter() - start
    return FilteringResult(num_users=len(samples), seconds=seconds)


# ----------------------------------------------------------------------
# DESIGN.md §5 — the reproduction's own design choices
# ----------------------------------------------------------------------
@dataclass
class DesignResult:
    dataset: str
    rows: List[Tuple[str, float]]  # (design choice, NDCG@5 %)

    def render(self) -> str:
        return render_table(
            ("design choice", "NDCG@5 (%)"), self.rows,
            title=f"Reproduction design-choice ablations ({self.dataset})")


def design_ablations(choices: Sequence[Tuple[str, Mapping[str, Any]]],
                     settings: Optional[BenchmarkSettings] = None,
                     dataset_name: str = "baby") -> DesignResult:
    """Causer's NDCG@5 with one design choice set per row.

    Each choice is a label and the :class:`CauserConfig` overrides it
    stands for (graph pre-seeding, filtering mode, update pace).
    """
    settings = settings or BenchmarkSettings()
    dataset, split = _load(dataset_name, settings)
    rows = [(label, _causer(dataset, split,
                            settings.causer_config(dataset_name,
                                                   **overrides),
                            settings.z).ndcg)
            for label, overrides in choices]
    return DesignResult(dataset=dataset_name, rows=rows)


# ----------------------------------------------------------------------
# Theorem 1 — identifiability of Algorithm 1's cluster graph
# ----------------------------------------------------------------------
@dataclass
class IdentifiabilityResult:
    # (scale, users, MEC recovery, mean SHD, skeleton F1, worst purity),
    # one row per data size, ascending
    rows: List[Tuple[str, int, float, float, float, float]]

    def render(self) -> str:
        table = render_table(
            ("scale", "users", "MEC recovery", "mean SHD", "skeleton F1",
             "worst purity"), self.rows,
            title="Theorem 1 — Algorithm 1's cluster graph vs the "
                  "simulator's, by data size")
        # Theorem 1's shape: skeleton F1 does not fall as data grows.
        holds = self.rows[-1][4] >= self.rows[0][4] - 0.05
        verdict = "holds" if holds else "does not hold"
        return (f"{table}\nTheorem 1 verdict, skeleton F1 at the largest "
                f"size >= smallest - 0.05: {verdict}")


def recover_cluster_graph(dataset: SyntheticDataset, split: Split,
                          config: CauserConfig) -> Tuple[np.ndarray, float]:
    """Fit Causer (Algorithm 1 plus eq. 10) and return the cluster graph
    eq. 9's gate serves, ``W^c > ε`` pruned to a DAG, relabelled onto the
    simulator's clusters, with the worst cluster purity of the matching."""
    model = _causer(dataset, split, config).model
    return match_clusters(dataset.cluster_of_item[1:],
                          model.clusters.hard_assignments()[1:],
                          model.learned_cluster_graph(config.epsilon))


def identifiability_study(scale_factors: Sequence[float],
                          data_seeds: Sequence[int],
                          settings: Optional[BenchmarkSettings] = None
                          ) -> IdentifiabilityResult:
    """Theorem 1 on the recommender itself: Causer's learned cluster graph
    against the simulator's true one, on ``baby`` (K = 5, so the matching
    tries all 120 bijections) at ``settings.scale`` times each factor,
    averaged over ``data_seeds``."""
    settings = settings or BenchmarkSettings()
    config = settings.causer_config("baby")
    rows = []
    for factor in scale_factors:
        sized = replace(settings, scale=settings.scale * factor)
        metrics, purities = [], []
        for seed in data_seeds:
            # round(users x scale) users: the profiles' 300-user floor
            # would give two small sizes one corpus.
            dataset = BehaviorSimulator(replace(
                dataset_config("baby", scale=sized.scale, seed=seed),
                num_users=round(PAPER_STATISTICS["baby"]["users"]
                                * sized.scale)), name="baby").generate()
            split = leave_one_out_split(dataset.corpus)
            graph, purity = recover_cluster_graph(dataset, split, config)
            metrics.append(evaluate_structure(dataset.cluster_graph, graph))
            purities.append(purity)
        rows.append((f"{sized.scale:g}", dataset.corpus.num_users,
                     float(np.mean([m.markov_equivalent for m in metrics])),
                     float(np.mean([m.shd for m in metrics])),
                     float(np.mean([m.skeleton_f1 for m in metrics])),
                     min(purities)))
    return IdentifiabilityResult(rows=rows)


# ----------------------------------------------------------------------
# §III motivation — cluster- vs item-level graph cost
# ----------------------------------------------------------------------
@dataclass
class ScalabilityResult:
    rows: List[Tuple[int, float, float, float]]  # |V|, cluster s, item s, ratio

    def render(self) -> str:
        return render_table(("|V|", "cluster-level (s)", "item-level (s)",
                             "item/cluster ratio"), self.rows,
                            title="Scalability — acyclicity + eq. 9 cost",
                            float_format="{:.4f}")


def scalability_study(catalog_sizes: Sequence[int], num_clusters: int,
                      seed: int,
                      settings: Optional[BenchmarkSettings] = None
                      ) -> ScalabilityResult:
    """Time h(W) plus eq. 9's expansion on a K x K cluster graph against
    h(W) on a |V| x |V| item graph, per catalog size.

    ``settings`` is unused: the graphs are random matrices.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for size in catalog_sizes:
        assignments = rng.dirichlet(np.ones(num_clusters), size=size)
        cluster_graph = rng.random((num_clusters, num_clusters)) * 0.3
        start = time.perf_counter()
        h_value(cluster_graph)
        _ = assignments @ cluster_graph @ assignments.T
        cluster = time.perf_counter() - start
        item_graph = rng.random((size, size)) * (0.5 / size)
        start = time.perf_counter()
        h_value(item_graph)
        item = time.perf_counter() - start
        rows.append((size, cluster, item, item / max(cluster, 1e-9)))
    return ScalabilityResult(rows=rows)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
Claim = Callable[[Any], bool]


@dataclass(frozen=True)
class Experiment:
    """One paper experiment: what runs, at which arguments, and what its
    result must show.

    ``run(settings=..., **kwargs, **restrictions)`` returns a result with
    ``render()``.  ``epochs`` is the registered training budget, which a
    caller's own ``num_epochs`` replaces.  ``accepts`` names the CLI
    flags that restrict the run (``datasets``, ``cells``, ``workers``) it
    takes.  ``claims`` maps a name to a
    predicate over the result: the paper's shape (and sanity bounds) at the
    registered arguments.
    """

    name: str
    run: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    epochs: Optional[int] = None
    accepts: Tuple[str, ...] = ()
    claims: Mapping[str, Claim] = field(default_factory=dict)

    def settings(self, **overrides) -> BenchmarkSettings:
        """The registered settings, with ``overrides`` on top."""
        if self.epochs is not None:
            overrides.setdefault("num_epochs", self.epochs)
        return BenchmarkSettings(**overrides)

    def __call__(self, settings: Optional[BenchmarkSettings] = None,
                 **restrictions):
        return self.run(settings=settings or self.settings(), **self.kwargs,
                        **restrictions)


def _long_share(hist: Dict[str, int]) -> float:
    """Share of users with sequences of length 8 or more."""
    long_buckets = ("8-11", "12-19", "20-49", "50+")
    return (sum(v for k, v in hist.items() if k in long_buckets)
            / max(sum(hist.values()), 1))


def _causer_top2_on_half(result: Table4Result) -> bool:
    """A Causer ranks top-2 by NDCG on at least half of the datasets."""
    top2 = 0
    for dataset in result.datasets:
        scores = sorted(((result.ndcg[m][dataset], m) for m in result.models),
                        reverse=True)
        if any(m.startswith("Causer") for _, m in scores[:2]):
            top2 += 1
    return top2 >= len(result.datasets) // 2


def _full_series(result: SweepResult) -> bool:
    return all(len(s) == len(result.values) for s in result.ndcg.values())


def _finite_series(result: SweepResult) -> bool:
    return all(np.isfinite(v) for s in result.ndcg.values() for v in s)


def _inverted_u_on_half(result: SweepResult) -> bool:
    """An interior K matches or beats both extremes, within 0.3 points."""
    humped = sum(max(s[1:-1]) >= min(s[0], s[-1]) - 0.3
                 for s in result.ndcg.values())
    return humped >= len(result.ndcg) // 2


def _moderate_epsilon_on_half(result: SweepResult) -> bool:
    """The optimum, at ε <= 0.7, strictly beats the filter-everything end."""
    strict = [label for label, s in result.ndcg.items()
              if max(s) > s[-1] + 1e-9 and result.best_value(label) <= 0.7]
    return len(strict) >= len(result.ndcg) // 2


def _full_near_ablated_mean(result: Table5Result) -> bool:
    for column in result.columns:
        ablated = [result.ndcg[v][column] for v in ABLATION_VARIANTS
                   if v != "full"]
        if not result.ndcg["full"][column] >= np.mean(ablated) * 0.9:
            return False
    return True


EXPERIMENTS: Dict[str, Experiment] = {e.name: e for e in (
    Experiment("table2", table2_statistics, claims={
        "five_profiles": lambda r: len(r.rows) == 5,
        "sparsity_above_80": lambda r: all(
            float(row[5].rstrip("%")) > 80.0 for row in r.rows),
    }),
    Experiment("fig3", figure3_sequence_lengths, claims={
        "five_profiles": lambda r: set(r.histograms) == {
            "epinions", "foursquare", "patio", "baby", "video"},
        "foursquare_longer_than_baby": lambda r: (
            _long_share(r.histograms["foursquare"])
            > _long_share(r.histograms["baby"])),
    }),
    Experiment("table4", table4_overall, accepts=("datasets", "workers"),
               claims={
        "causer_ndcg_gain_above_-5%": lambda r: (
            r.causer_improvement("ndcg") > -5.0),
        "causer_top2_ndcg_on_half": _causer_top2_on_half,
    }),
    Experiment("fig4", causer_parameter_sweep,
               kwargs={"parameter": "num_clusters",
                       "values": (2, 3, 5, 8, 16, 32)},
               epochs=8, accepts=("datasets", "cells"), claims={
        "full_series": _full_series, "finite": _finite_series,
        "inverted_u_on_half": _inverted_u_on_half,
    }),
    Experiment("fig5", causer_parameter_sweep,
               kwargs={"parameter": "epsilon",
                       "values": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                  0.9)},
               epochs=8, accepts=("datasets", "cells"), claims={
        "full_series": _full_series,
        "largest_epsilon_not_above_best": lambda r: all(
            max(s) >= s[-1] for s in r.ndcg.values()),
        "moderate_epsilon_best_on_half": _moderate_epsilon_on_half,
    }),
    Experiment("fig6", causer_parameter_sweep,
               kwargs={"parameter": "eta",
                       "values": (1e-8, 1e-4, 1e-2, 0.1, 0.5, 1.0, 1e2, 1e4,
                                  1e8)},
               epochs=8, accepts=("datasets", "cells"), claims={
        "full_series": _full_series, "finite": _finite_series,
        "best_eta_interior": lambda r: all(
            1e-8 < r.best_value(label) or max(s) == s[0]
            for label, s in r.ndcg.items()),
    }),
    Experiment("table5", table5_ablation, accepts=("datasets", "cells"),
               claims={
        "finite": lambda r: all(np.isfinite(r.ndcg[v][c])
                                for v in ABLATION_VARIANTS
                                for c in r.columns),
        "full_within_90%_of_ablated_mean": _full_near_ablated_mean,
    }),
    Experiment("fig7", figure7_explanation, accepts=("cells",), claims={
        "over_50_samples": lambda r: r.num_samples > 50,
        "1_to_3_causes_each": lambda r: 1.0 <= r.avg_causes <= 3.0,
        "scores_are_percentages": lambda r: all(
            0.0 <= r.f1[label] <= 100.0 and 0.0 <= r.ndcg[label] <= 100.0
            for label in r.f1),
        "causer_ndcg_above_25": lambda r: all(
            value > 25.0 for label, value in r.ndcg.items()
            if label.startswith("Causer/")),
    }),
    Experiment("fig8", figure8_case_studies, claims={
        "four_cases": lambda r: len(r.cases) == 4,
        "cases_show_causes_and_w_hat": lambda r: all(
            "true causes" in case and "W_hat" in case for case in r.cases),
    }),
    Experiment("efficiency", efficiency_study, claims={
        "slow_updates_not_slower": lambda r: (
            r.train_slow_updates_seconds
            <= r.train_every_epoch_seconds * 1.1),
        "inference_under_5x_sasrec": lambda r: r.inference_ratio < 5.0,
    }),
    Experiment("filtering", filtering_costs, claims={
        "shared_not_slower_than_strict": lambda r: (
            r.seconds["shared"] <= r.seconds["strict"]),
    }),
    Experiment("design", design_ablations, kwargs={"choices": (
        ("pretrain seed ON (default)", {"pretrain_graph": True}),
        ("pretrain seed OFF", {"pretrain_graph": False}),
        ("filtering=shared (default)", {"filtering_mode": "shared"}),
        ("filtering=cluster (strict)", {"filtering_mode": "cluster"}),
        ("update_every=1", {"update_every": 1}),
        ("update_every=2", {"update_every": 2}),
        ("update_every=10", {"update_every": 10}),
    )}, claims={
        "finite": lambda r: all(np.isfinite(v) for _, v in r.rows),
        "no_choice_below_25%_of_best": lambda r: (
            min(v for _, v in r.rows) > 0.25 * max(v for _, v in r.rows)),
    }),
    Experiment("identifiability", identifiability_study,
               kwargs={"scale_factors": (0.4, 0.8, 1.6),
                       "data_seeds": (0, 1, 2)},
               claims={
        "worst_purity_at_least_0.9": lambda r: all(
            row[5] >= 0.9 for row in r.rows),
        "data_sizes_grow": lambda r: all(
            a[1] < b[1] for a, b in zip(r.rows, r.rows[1:])),
        "finite": lambda r: all(np.isfinite(v) for row in r.rows
                                for v in row[2:]),
    }),
    Experiment("scalability", scalability_study,
               kwargs={"catalog_sizes": (100, 300, 1000), "num_clusters": 10,
                       "seed": 0},
               claims={
        "item_over_cluster_ratio_grows": lambda r: (
            r.rows[-1][3] > r.rows[0][3]),
        "item_level_costlier_at_largest": lambda r: (
            r.rows[-1][2] > r.rows[-1][1]),
    }),
)}
