"""`repro.data` — sequential-recommendation data substrate.

The columnar interaction corpus (§II-A data model), in RAM or on disk,
the causal user-behaviour simulator
that substitutes for the paper's five public datasets, item raw features,
padding/negative-sampling/batching, the derived explanation-label dataset
(§V-E) and dataset statistics (Table II / Fig. 3).
"""

from .batching import PaddedBatch, iterate_batches, pad_samples, sample_negatives
from .datasets import (DATASET_NAMES, DEFAULT_SCALE, PAPER_STATISTICS,
                       dataset_config, load_dataset)
from .eventlog import (EVENTLOG_FORMAT, EVENTLOG_VERSION, EvalSampleView,
                       EventLogStore, PrefixSampleView, SequenceCorpus,
                       generate_eventlog, load_eventlog_dataset, open_eventlog)
from .explanation import (ExplanationSample, average_causes_per_sample,
                          build_explanation_dataset)
from .features import gps_like_features, text_like_features
from .interactions import (PAD_ITEM, EvalSample, Split, UserSequence,
                           leave_one_out_split, training_prefixes)
from .stats import (DatasetStatistics, compute_statistics,
                    sequence_length_histogram)
from .synthetic import (BehaviorSimulator, SimulatorConfig, SyntheticDataset,
                        generate_dataset)

__all__ = [
    "PAD_ITEM", "UserSequence", "SequenceCorpus", "EvalSample", "Split",
    "leave_one_out_split", "training_prefixes",
    "SimulatorConfig", "SyntheticDataset", "BehaviorSimulator",
    "generate_dataset",
    "DATASET_NAMES", "DEFAULT_SCALE", "PAPER_STATISTICS",
    "dataset_config", "load_dataset",
    "text_like_features", "gps_like_features",
    "PaddedBatch", "pad_samples", "sample_negatives", "iterate_batches",
    "EVENTLOG_FORMAT", "EVENTLOG_VERSION", "EventLogStore",
    "EvalSampleView", "PrefixSampleView",
    "generate_eventlog", "load_eventlog_dataset", "open_eventlog",
    "ExplanationSample", "build_explanation_dataset",
    "average_causes_per_sample",
    "DatasetStatistics", "compute_statistics", "sequence_length_histogram",
]
