"""One function per paper table/figure.

Each function generates the workload, runs the models, and returns a
structured result object with a ``render()`` method printing the same
rows/series layout the paper reports.  The bench targets in
``benchmarks/`` call these functions and time their core computations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import Causer, ablation_config, format_case_study, make_explainer
from ..data import (DATASET_NAMES, PAPER_STATISTICS, build_explanation_dataset,
                    compute_statistics, leave_one_out_split, load_dataset,
                    sequence_length_histogram)
from ..data.synthetic import SyntheticDataset
from ..eval import (evaluate_explanations, evaluate_model, paired_t_test)
from ..parallel import parallel_map
from .config import BenchmarkSettings
from .runner import (TABLE4_MODEL_NAMES, RunResult, _run_model_task,
                     build_model)
from .tables import render_metric_matrix, render_series, render_table


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
    loaded = []
    for name in datasets:
        dataset = load_dataset(name, scale=settings.scale,
                               seed=settings.data_seed)
        loaded.append((name, dataset, leave_one_out_split(dataset.corpus)))
    cells = [(model, dataset, settings, split)
             for _, dataset, split in loaded for model in models]
    all_runs = parallel_map(_run_model_task, cells, workers=workers,
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
        dataset = load_dataset(dataset_name, scale=settings.scale,
                               seed=settings.data_seed)
        split = leave_one_out_split(dataset.corpus)
        for cell in cells:
            label = f"{dataset_name}/{cell}"
            series[label] = []
            for value in values:
                config = settings.causer_config(dataset_name, cell_type=cell,
                                                **{parameter: value})
                model = Causer(dataset.corpus.num_users, dataset.num_items,
                               dataset.features, config)
                model.fit(split.train)
                result = evaluate_model(model, split.test, z=settings.z)
                series[label].append(100.0 * result.mean("ndcg"))
    return SweepResult(parameter=parameter, values=list(values), ndcg=series)


def figure4_cluster_sweep(settings: Optional[BenchmarkSettings] = None,
                          values: Sequence[int] = (2, 3, 5, 8, 12, 16, 24, 32),
                          **kwargs) -> SweepResult:
    return causer_parameter_sweep("num_clusters", values, settings, **kwargs)


def figure5_epsilon_sweep(settings: Optional[BenchmarkSettings] = None,
                          values: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5,
                                                     0.6, 0.7, 0.8, 0.9),
                          **kwargs) -> SweepResult:
    return causer_parameter_sweep("epsilon", values, settings, **kwargs)


def figure6_temperature_sweep(settings: Optional[BenchmarkSettings] = None,
                              values: Sequence[float] = (1e-8, 1e-4, 1e-2,
                                                         0.1, 0.5, 1.0, 1e2,
                                                         1e4, 1e8),
                              **kwargs) -> SweepResult:
    return causer_parameter_sweep("eta", values, settings, **kwargs)


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
        dataset = load_dataset(dataset_name, scale=settings.scale,
                               seed=settings.data_seed)
        split = leave_one_out_split(dataset.corpus)
        for cell in cells:
            column = f"{dataset_name}/{cell}"
            columns.append(column)
            base_config = settings.causer_config(dataset_name, cell_type=cell)
            for variant in ABLATION_VARIANTS:
                config = ablation_config(base_config, variant)
                model = Causer(dataset.corpus.num_users, dataset.num_items,
                               dataset.features, config)
                model.fit(split.train)
                result = evaluate_model(model, split.test, z=settings.z)
                ndcg[variant][column] = 100.0 * result.mean("ndcg")
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
    dataset = load_dataset(dataset_name, scale=settings.scale,
                           seed=settings.data_seed)
    split = leave_one_out_split(dataset.corpus)
    samples = build_explanation_dataset(dataset, max_samples=max_samples)
    if not samples:
        raise RuntimeError("explanation dataset came out empty; "
                           "increase the scale")
    from ..data.explanation import average_causes_per_sample
    f1: Dict[str, float] = {}
    ndcg: Dict[str, float] = {}
    for cell in cells:
        model = Causer(dataset.corpus.num_users, dataset.num_items,
                       dataset.features,
                       settings.causer_config(dataset_name, cell_type=cell))
        model.fit(split.train)
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
    dataset = load_dataset(dataset_name, scale=settings.scale,
                           seed=settings.data_seed)
    split = leave_one_out_split(dataset.corpus)
    samples = build_explanation_dataset(dataset, max_samples=200)
    model = Causer(dataset.corpus.num_users, dataset.num_items,
                   dataset.features,
                   settings.causer_config(dataset_name, cell_type="gru"))
    model.fit(split.train)
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
    dataset = load_dataset(dataset_name, scale=settings.scale,
                           seed=settings.data_seed)
    split = leave_one_out_split(dataset.corpus)

    def time_causer_training(update_every: int) -> float:
        config = settings.causer_config(dataset_name,
                                        update_every=update_every)
        model = Causer(dataset.corpus.num_users, dataset.num_items,
                       dataset.features, config)
        start = time.perf_counter()
        model.fit(split.train)
        return time.perf_counter() - start

    every_epoch = time_causer_training(1)
    slow = time_causer_training(10)

    causer = Causer(dataset.corpus.num_users, dataset.num_items,
                    dataset.features, settings.causer_config(dataset_name))
    causer.fit(split.train)
    sasrec = build_model("SASRec", dataset, settings)
    sasrec.fit(split.train)
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
