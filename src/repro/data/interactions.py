"""Core sequential-interaction data structures.

The paper's data model (§II-A): a set of users, a set of items, and for each
user a chronological sequence of *interaction sets* (baskets).  Ordinary
sequential recommendation is the special case of singleton baskets; next-
basket recommendation allows multi-item steps.

Item ids are 1-based; id 0 is reserved as the padding index everywhere in
the library.  The corpus itself (``SequenceCorpus``) is columnar and lives
in :mod:`repro.data.eventlog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from .eventlog import PrefixSampleView, SequenceCorpus

PAD_ITEM = 0

#: Fewest baskets a user needs to donate a validation and a test basket
#: and keep a history.
MIN_LENGTH = 3


@dataclass(frozen=True)
class UserSequence:
    """One user's chronological interaction history.

    ``baskets`` is a tuple of baskets; each basket is a tuple of item ids
    interacted at the same timestamp.
    """

    user_id: int
    baskets: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for basket in self.baskets:
            if not basket:
                raise ValueError("baskets must be non-empty")
            for item in basket:
                if item == PAD_ITEM:
                    raise ValueError("item id 0 is reserved for padding")

    @property
    def length(self) -> int:
        return len(self.baskets)

    def items(self) -> List[int]:
        """All items in order of appearance (flattened)."""
        return [item for basket in self.baskets for item in basket]


@dataclass(frozen=True)
class EvalSample:
    """One evaluation case: a user, their history, and the held-out basket."""

    user_id: int
    history: Tuple[Tuple[int, ...], ...]
    target: Tuple[int, ...]


@dataclass
class Split:
    """Leave-one-out split: train corpus plus validation/test samples."""

    train: SequenceCorpus
    validation: Sequence[EvalSample]
    test: Sequence[EvalSample]


def leave_one_out_split(corpus: SequenceCorpus) -> Split:
    """The paper's protocol: last basket → test, second-last → validation.

    Users with fewer than ``MIN_LENGTH`` baskets stay in training unchanged
    (they cannot donate both held-out steps and still leave a history).
    Nothing is copied: the training corpus views the same store with the
    two held-out baskets hidden, and validation and test are lazy
    :class:`~repro.data.eventlog.EvalSampleView` sequences.
    """
    from .eventlog import EvalSampleView, SequenceCorpus
    lengths = corpus.lengths()
    train = SequenceCorpus.from_store(
        corpus.store, lengths - 2 * (lengths >= MIN_LENGTH))
    return Split(train=train,
                 validation=EvalSampleView(corpus, "validation"),
                 test=EvalSampleView(corpus, "test"))


def training_prefixes(corpus: SequenceCorpus, max_history: Optional[int] = None
                      ) -> "PrefixSampleView":
    """Expand each training sequence into (history, next-basket) samples.

    This realises the paper's eq. (1) sum over steps ``j``: every step with a
    non-empty history becomes a supervised sample.  ``max_history`` truncates
    long histories to their most recent steps.  The result is a lazy,
    indexable :class:`~repro.data.eventlog.PrefixSampleView`: users in id
    order, step ``j`` ascending.
    """
    from .eventlog import PrefixSampleView
    return PrefixSampleView(corpus, max_history=max_history)
