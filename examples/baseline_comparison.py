"""Mini Table IV: compare Causer with the baselines on one dataset profile.

Run:  python examples/baseline_comparison.py [dataset]
where dataset is one of: epinions, foursquare, patio, baby, video.
The output is deterministic; training speed is measured by
``benchmarks/e2e/run.py``, not here.
"""

import sys

from repro.exp import BenchmarkSettings, render_table, run_models
from repro.data import load_dataset

MODELS = ("Pop", "BPR", "NCF", "GRU4Rec", "NARM", "STAMP", "SASRec",
          "VTRNN", "MMSARec", "Causer (LSTM)", "Causer (GRU)")


def main(dataset_name: str = "baby") -> None:
    settings = BenchmarkSettings(scale=0.05, num_epochs=12)
    dataset = load_dataset(dataset_name, scale=settings.scale,
                           seed=settings.data_seed)
    print(f"dataset {dataset_name}: {dataset.corpus.num_users} users, "
          f"{dataset.num_items} items")
    runs = run_models(MODELS, dataset, settings)
    rows = [(run.model_name, run.f1, run.ndcg) for run in runs]
    print(render_table(("model", "F1@5 (%)", "NDCG@5 (%)"), rows,
                       title=f"Mini Table IV — {dataset_name}"))
    best = max(runs, key=lambda run: run.ndcg)
    print(f"\nbest NDCG@5: {best.model_name} ({best.ndcg:.2f}%)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "baby")
