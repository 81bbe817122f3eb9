"""The model lineup: each model class's facts, written once.

:mod:`repro.io` saves and loads through :data:`CLASSES` and
:mod:`repro.exp` builds the paper's comparison from :data:`LINEUP`, so a
new model is one row here.  Serving reads it without the experiment
harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .core import Causer, CauserConfig
from .models import (BPR, GRU4Rec, MMSARec, NARM, NCF, PopularityRecommender,
                     SASRec, STAMP, TrainConfig, VTRNN)
from .models.sasrec import NUM_BLOCKS, NUM_HEADS


@dataclass(frozen=True)
class ModelClass:
    """One model class.  ``config``: the dataclass a checkpoint header
    loads, ``None`` for a class with nothing to save, built from the item
    count alone.  ``features``: reads the item features its constructor
    took off a built model.  ``legacy_extra``: the ``extra`` header entry
    older checkpoints carry and loading accepts."""

    cls: type
    config: Optional[type]
    features: Optional[Callable[[Any], Any]] = None
    legacy_extra: Optional[Mapping[str, Any]] = None

    def build(self, num_users: int, num_items: int, features, config):
        if self.config is None:
            return self.cls(num_items)
        if self.features is None:
            return self.cls(num_users, num_items, config)
        return self.cls(num_users, num_items, features, config)


_TRANSFORMER_SHAPE = {"num_blocks": NUM_BLOCKS, "num_heads": NUM_HEADS}

#: Class name -> facts, keyed by ``type(model).__name__``.
CLASSES: Dict[str, ModelClass] = {
    "PopularityRecommender": ModelClass(PopularityRecommender, None),
    "BPR": ModelClass(BPR, TrainConfig),
    "NCF": ModelClass(NCF, TrainConfig),
    "GRU4Rec": ModelClass(GRU4Rec, TrainConfig),
    "NARM": ModelClass(NARM, TrainConfig),
    "STAMP": ModelClass(STAMP, TrainConfig),
    "SASRec": ModelClass(SASRec, TrainConfig,
                         legacy_extra=_TRANSFORMER_SHAPE),
    "VTRNN": ModelClass(VTRNN, TrainConfig, attrgetter("item_features")),
    "MMSARec": ModelClass(MMSARec, TrainConfig, attrgetter("item_features"),
                          _TRANSFORMER_SHAPE),
    "Causer": ModelClass(Causer, CauserConfig,
                         attrgetter("clusters.raw_features")),
}

#: Lineup name (each model's ``name``) -> (class name in
#: :data:`CLASSES`, Causer's recurrent cell or ``None`` for a baseline),
#: in Table IV's row order after Pop, the reproduction's sanity floor.
LINEUP: Dict[str, Tuple[str, Optional[str]]] = {
    "Pop": ("PopularityRecommender", None),
    **{name: (name, None) for name in ("BPR", "NCF", "GRU4Rec", "STAMP",
                                       "SASRec", "NARM", "VTRNN",
                                       "MMSARec")},
    "Causer (LSTM)": ("Causer", "lstm"),
    "Causer (GRU)": ("Causer", "gru"),
}
#: The rows the paper's Table IV reports.
TABLE4_MODEL_NAMES = tuple(name for name in LINEUP if name != "Pop")


def lineup_config(name: str, dataset_name: str, settings):
    """The config ``settings`` (a :class:`repro.exp.BenchmarkSettings`)
    gives lineup entry ``name`` on profile ``dataset_name``."""
    cell = LINEUP[name][1]
    if cell is None:
        return settings.train_config()
    return settings.causer_config(dataset_name, cell_type=cell)


def checkpoint_classes() -> List[str]:
    """Names of the classes that have a checkpoint format, sorted."""
    return sorted(name for name, entry in CLASSES.items()
                  if entry.config is not None)
