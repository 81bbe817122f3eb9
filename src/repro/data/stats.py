"""Dataset statistics: the paper's Table II and Fig. 3.

Computes the five summary columns (users, items, interactions, average
sequence length, sparsity) and the sequence-length histograms plotted in
Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .eventlog import SequenceCorpus


@dataclass(frozen=True)
class DatasetStatistics:
    """One Table II row."""

    name: str
    num_users: int
    num_items: int
    num_interactions: int
    average_sequence_length: float
    sparsity: float

    def as_row(self) -> Tuple:
        return (self.name, self.num_users, self.num_items,
                self.num_interactions, round(self.average_sequence_length, 2),
                f"{self.sparsity * 100:.2f}%")


def compute_statistics(name: str, corpus: SequenceCorpus) -> DatasetStatistics:
    """Compute the Table II row for a corpus."""
    return DatasetStatistics(
        name=name,
        num_users=corpus.num_users,
        num_items=corpus.num_items,
        num_interactions=corpus.num_interactions,
        average_sequence_length=corpus.average_sequence_length,
        sparsity=corpus.sparsity,
    )


#: Right-open bucket edges of the Fig. 3 sequence-length histogram.
LENGTH_BINS = (1, 2, 3, 4, 5, 8, 12, 20, 50, 10**9)


def sequence_length_histogram(corpus: SequenceCorpus) -> Dict[str, int]:
    """Fig. 3 data: counts of users per sequence-length bucket.

    ``LENGTH_BINS`` are right-open bucket edges; the label of a bucket with
    edges ``(a, b)`` is ``"a-b-1"`` or ``"a"`` for unit buckets and
    ``"a+"`` for the unbounded tail.
    """
    lengths = corpus.sequence_lengths()
    histogram: Dict[str, int] = {}
    for lo, hi in zip(LENGTH_BINS[:-1], LENGTH_BINS[1:]):
        if hi >= 10**8:
            label = f"{lo}+"
            count = int((lengths >= lo).sum())
        elif hi - lo == 1:
            label = str(lo)
            count = int((lengths == lo).sum())
        else:
            label = f"{lo}-{hi - 1}"
            count = int(((lengths >= lo) & (lengths < hi)).sum())
        histogram[label] = count
    return histogram
