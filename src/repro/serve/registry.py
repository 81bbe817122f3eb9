"""Checkpoint registry: load ``.npz`` checkpoints, precompute serving
artifacts, hot-swap behind a lock.

A checkpoint (written by :func:`repro.io.save_model`) is turned into a
frozen :class:`ServingArtifacts` bundle once, at install time:

* eq. 9's **rank-K causal factors** ``(Ā Wᶜ, Ā)`` and the gate ``ε``
  (:meth:`Causer.causal_factors`) — two (V+1, K) arrays; the scorer
  builds only the ``W`` entries a request reads, so a generation holds
  no (V+1)² array,
* the **input embedding table** feeding incremental RNN updates
  (:class:`repro.serve.sessions.RecurrentServingParams`),
* the output item-embedding table + bias the final dot-product reads.

With ``quantize`` set to ``fp16`` or ``int8`` the registry stores the
frozen embedding tables of every bundle it installs at that precision
(:func:`quantize_artifacts`), so the first load, a hot swap and every
online refresh serve the same precision.

Artifacts are immutable once published.  :meth:`CheckpointRegistry.install`
swaps the current bundle atomically under a lock and bumps a monotonically
increasing **generation**; in-flight requests keep scoring against the
artifact object they already hold, and session states lazily rebuild on
their first touch after the swap (see :meth:`SessionStore._sync`).
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Any, Dict, Optional

import numpy as np

from ..core.causer import Causer
from ..io import PathLike, load_model
from ..models.gru4rec import GRU4Rec
from ..nn import no_grad
from ..retrieval import (QUANTIZE_MODES, IVFIndex, ItemTower, QuantizedTable,
                         RetrievalConfig, build_item_tower)
from .sessions import RecurrentServingParams


@dataclass(frozen=True)
class RetrievalArtifact:
    """Frozen retrieval stage for one generation: item tower + IVF index.

    Built inside :func:`build_artifacts`, so the index, the embedding
    tables it was trained on, and the bundle's generation are one
    immutable object — a hot swap can never pair a stale index with new
    embeddings (the stress tests assert this under the thread sanitizer).
    """

    config: RetrievalConfig
    tower: ItemTower
    index: IVFIndex
    generation: int

    def describe(self) -> Dict[str, Any]:
        return {"mode": self.config.mode,
                "n_clusters": self.index.n_clusters,
                "shortlist": self.config.shortlist,
                "nprobe": self.config.nprobe}


def build_retrieval(artifacts: "ServingArtifacts",
                    config: RetrievalConfig) -> Optional[RetrievalArtifact]:
    """IVF retrieval bundle for one frozen artifact set (None for replay)."""
    tower = build_item_tower(artifacts)
    if tower is None:
        return None
    index = IVFIndex.build(tower, max(1, int(round(np.sqrt(tower.size)))))
    return RetrievalArtifact(config=config, tower=tower, index=index,
                             generation=artifacts.generation)


@dataclass
class ServingArtifacts:
    """Everything a scorer needs, derived once per installed checkpoint."""

    generation: int
    path: Optional[str]
    model: Any
    model_class: str
    num_users: int
    num_items: int
    max_history: int
    #: Incremental-update parameters; ``None`` means the scorer replays the
    #: event history through ``model.score_samples`` (the offline path).
    recurrent: Optional[RecurrentServingParams] = None
    #: ``"incremental"`` or ``"replay"`` — which scorer handles this model.
    mode: str = "replay"
    #: Frozen retrieval stage (item tower + IVF index), built when the
    #: registry has a retrieval config in ``ivf`` mode; ``None`` otherwise
    #: (serving scores the full catalog exactly).
    retrieval: Optional[RetrievalArtifact] = None

    @property
    def supports_explain(self) -> bool:
        return self.model_class == "Causer"

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for ``/healthz``."""
        return {"generation": self.generation,
                "path": self.path,
                "model_class": self.model_class,
                "mode": self.mode,
                "num_items": self.num_items,
                "max_history": self.max_history,
                "retrieval": (None if self.retrieval is None
                              else self.retrieval.describe())}


@dataclass
class CausalServingArtifacts(ServingArtifacts):
    """Causer-specific precompute: frozen eq. 10 ingredients."""

    cause_rows: Optional[np.ndarray] = None       # Ā Wᶜ, (V+1, K)
    assignments: Optional[np.ndarray] = None      # Ā, (V+1, K)
    epsilon: float = 0.0                          # the eq.-10 gate
    attention_proj: Optional[np.ndarray] = None   # A, None in (-att) mode
    adapt_weight: Optional[np.ndarray] = None     # V, (d_e, h)
    output_table: Optional[np.ndarray] = None     # (V+1, d_e)
    output_bias: Optional[np.ndarray] = None      # (V+1,)
    use_causal: bool = True


@dataclass
class GRUServingArtifacts(ServingArtifacts):
    """GRU4Rec head: projection + output table for the final dot product."""

    project_weight: Optional[np.ndarray] = None
    project_bias: Optional[np.ndarray] = None
    output_table: Optional[np.ndarray] = None
    output_bias: Optional[np.ndarray] = None


@dataclass(frozen=True)
class TanhUserInit:
    """Causer's learned initial state ``tanh(u Wᵀ + b)`` per user id."""

    user_table: np.ndarray
    init_w: np.ndarray
    init_b: np.ndarray
    num_users: int

    def __call__(self, user_id: int) -> np.ndarray:
        u = self.user_table[user_id % self.num_users][None, :]
        return np.tanh(u @ self.init_w.T + self.init_b)


@dataclass(frozen=True)
class ZeroInit:
    """Session-only models start every user from the zero state."""

    hidden: int

    def __call__(self, user_id: int) -> np.ndarray:
        return np.zeros((1, self.hidden))


def _causer_recurrent(model: Causer) -> RecurrentServingParams:
    """Incremental-update params mirroring ``Causer._history_states``."""
    with no_grad(model):
        # ``encode() + weight`` materializes a fresh tensor already — a
        # further ``.copy()`` would only double peak RSS during install.
        input_table = (model.clusters.encode()
                       + model.item_embedding.weight).data
    cell = model.rnn.cell
    init_h = TanhUserInit(user_table=model.user_embedding.weight.data,
                          init_w=model.user_init.weight.data,
                          init_b=model.user_init.bias.data,
                          num_users=max(model.num_users, 1))
    if model.config.cell_type == "lstm":
        return RecurrentServingParams(
            cell_type="lstm", input_table=input_table,
            w_ih=cell.w_ih.data, w_hh=cell.w_hh.data,
            b_ih=None, b_hh=None, bias=cell.bias.data,
            init_h=init_h, max_history=model.config.max_history,
            track_states=True)
    return RecurrentServingParams(
        cell_type="gru", input_table=input_table,
        w_ih=cell.w_ih.data, w_hh=cell.w_hh.data,
        b_ih=cell.b_ih.data, b_hh=cell.b_hh.data, bias=None,
        init_h=init_h, max_history=model.config.max_history,
        track_states=True)


def _gru4rec_recurrent(model: GRU4Rec) -> RecurrentServingParams:
    cell = model.rnn.cell
    return RecurrentServingParams(
        cell_type="gru", input_table=model.item_embedding.weight.data,
        w_ih=cell.w_ih.data, w_hh=cell.w_hh.data,
        b_ih=cell.b_ih.data, b_hh=cell.b_hh.data, bias=None,
        init_h=ZeroInit(hidden=model.config.hidden_dim),
        max_history=model.config.max_history,
        track_states=False)


def build_artifacts(model, generation: int, path: Optional[str] = None,
                    retrieval: Optional[RetrievalConfig] = None
                    ) -> ServingArtifacts:
    """Precompute the frozen serving bundle for one loaded model.

    ``type() is`` dispatch on purpose: a subclass may override the forward
    pass the frozen artifacts replicate, so it falls back to the replay
    scorer.

    With a ``retrieval`` config in ``ivf`` mode the bundle also carries a
    freshly-built :class:`RetrievalArtifact` (rebuilt on every install, so
    the index always matches this generation's embedding tables).
    """
    model.eval()
    common = dict(generation=generation, path=path, model=model,
                  model_class=type(model).__name__,
                  num_users=model.num_users, num_items=model.num_items,
                  max_history=model.config.max_history)
    if type(model) is Causer and model.config.filtering_mode == "shared":
        cfg = model.config
        cause_rows, assignments = model.causal_factors()
        cause_rows.setflags(write=False)
        assignments.setflags(write=False)
        artifacts: ServingArtifacts = CausalServingArtifacts(
            mode="incremental", recurrent=_causer_recurrent(model),
            cause_rows=cause_rows, assignments=assignments,
            epsilon=float(cfg.epsilon),
            attention_proj=(model.attention.proj.data
                            if cfg.use_attention else None),
            adapt_weight=model.adapt.weight.data,
            output_table=model.output_embedding.weight.data,
            output_bias=model.output_bias.data,
            use_causal=cfg.use_causal, **common)
    elif type(model) is GRU4Rec:
        artifacts = GRUServingArtifacts(
            mode="incremental", recurrent=_gru4rec_recurrent(model),
            project_weight=model.project.weight.data,
            project_bias=model.project.bias.data,
            output_table=model.output_embedding.weight.data,
            output_bias=model.output_bias.data, **common)
    else:
        # Everything else (attention models, factorization baselines,
        # strict / cluster-filtered Causer, Causer subclasses) replays
        # through the model's own batch scorer — trivially identical to
        # offline scoring.
        artifacts = ServingArtifacts(mode="replay", **common)
    if retrieval is not None and retrieval.mode == "ivf":
        artifacts.retrieval = build_retrieval(artifacts, retrieval)
    return artifacts


def _check_quantize(mode: str) -> str:
    if mode not in QUANTIZE_MODES:
        raise ValueError(f"quantize must be one of {QUANTIZE_MODES}, "
                         f"got {mode!r}")
    return mode


def quantize_artifacts(artifacts: ServingArtifacts,
                       mode: str) -> ServingArtifacts:
    """A shallow re-wrap of ``artifacts`` with quantized frozen tables.

    Quantizes the embedding tables every score reads — the composed
    input table, the output table, the item tower, and the IVF inverted
    lists — as :class:`repro.retrieval.towers.QuantizedTable`; the
    serving scorers dequantize on the fly.  Biases, eq. 9's causal
    factors ``(Ā Wᶜ, Ā)``, attention and adapter weights, and the model
    itself stay float64: they are either small, or (the causal head's
    case) part of the bit-for-bit eq.-10 contract that quantization
    tolerances are defined against.  ``none`` returns the input
    unchanged, so its scores are byte-identical to the dense bundle's.
    """
    if _check_quantize(mode) == "none":
        return artifacts
    bundle = copy.copy(artifacts)
    if bundle.recurrent is not None:
        bundle.recurrent = dataclass_replace(
            bundle.recurrent,
            input_table=QuantizedTable.quantize(
                bundle.recurrent.input_table, mode))
    if isinstance(bundle, (CausalServingArtifacts, GRUServingArtifacts)):
        bundle.output_table = QuantizedTable.quantize(bundle.output_table,
                                                      mode)
    if bundle.retrieval is not None:
        retrieval = bundle.retrieval
        tower = dataclass_replace(
            retrieval.tower,
            vectors=QuantizedTable.quantize(retrieval.tower.vectors, mode))
        old = retrieval.index
        index = IVFIndex(
            old.centroids, old.list_ids,
            [QuantizedTable.quantize(vectors, mode)
             for vectors in old.list_vectors],
            old.list_bias)
        bundle.retrieval = dataclass_replace(retrieval, tower=tower,
                                             index=index)
    return bundle


class CheckpointRegistry:
    """Holds the current serving bundle; ``install`` hot-swaps it.

    With a ``retrieval`` config the registry also (re)builds the IVF
    retrieval artifact on every install — the index rides inside the
    generation-counted bundle, so readers can never observe a
    mixed-generation (index, embedding) pair.  ``quantize`` (``none``,
    ``fp16`` or ``int8``) is applied to every installed bundle the same
    way, so no generation is served at a different precision.
    """

    def __init__(self, retrieval: Optional[RetrievalConfig] = None,
                 quantize: str = "none") -> None:
        self._lock = threading.Lock()
        self._current: Optional[ServingArtifacts] = None
        self._generation = 0
        self.retrieval = retrieval
        self.quantize = _check_quantize(quantize)

    def load(self, path: PathLike) -> ServingArtifacts:
        """Load a checkpoint file and make it the live bundle."""
        model = load_model(path)
        return self.install(model, path=str(path))

    def install(self, model, path: Optional[str] = None) -> ServingArtifacts:
        """Publish ``model`` (already in memory) as the live bundle.

        Artifact precompute runs outside the lock; only the pointer swap is
        serialized, so a hot swap never blocks concurrent ``current()``.
        """
        with self._lock:
            self._generation += 1
            generation = self._generation
        artifacts = quantize_artifacts(
            build_artifacts(model, generation, path=path,
                            retrieval=self.retrieval), self.quantize)
        with self._lock:
            # A concurrent install may have published a newer generation
            # while we precomputed; never roll the registry backwards.
            if (self._current is None
                    or self._current.generation < generation):
                self._current = artifacts
        return artifacts

    def current(self) -> Optional[ServingArtifacts]:
        with self._lock:
            return self._current
