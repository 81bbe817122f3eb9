"""Two-tower factorization of the frozen serving artifacts.

The retrieval stage needs every score to decompose into ``user vector ·
item vector + bias`` so an index over the item side can cut a
shortlist without touching the model.  The frozen bundles built by
:func:`repro.serve.registry.build_artifacts` factor exactly that way:

* **item tower** — the composed output embedding table (rows ``1..V``;
  the padding row 0 is never indexed) plus the per-item output bias,
* **user tower** — the session's recurrent state pushed through the
  model's head *without* the per-item causal effects: for GRU4Rec the
  projected last hidden state (the head *is* a two-tower dot product, so
  retrieval is exact), for Causer ``α @ P`` over the head's projected
  steps (eq. 10 with the causal effects held at 1 — an approximation
  the exact re-rank stage corrects over the shortlist).

Every servable head is that inner product, so :func:`dot_scores` is the
one scorer the indexes use.

This module also hosts :class:`QuantizedTable`, the compressed storage
format for frozen embedding tables (``--quantize {fp16,int8}``): it lives
here, at the import leaf, so both the serving scorers and the IVF index
can dequantize-on-score without a circular import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..nn.fused import candidate_dots, project_steps

#: Accepted ``--quantize`` modes for frozen serving tables.
QUANTIZE_MODES = ("none", "fp16", "int8")


class QuantizedTable:
    """A frozen 2-D embedding table stored in a compressed dtype.

    ``fp16`` keeps the IEEE half-precision rounding of every entry (a
    4× size cut from the float64 tables the trainers produce); ``int8``
    adds a per-row affine code ``value ≈ code * scale + offset`` with
    symmetric codes in ``[-127, 127]`` (rows with zero dynamic range
    store ``scale = 0`` so dequantization reproduces the constant
    exactly).  Dequantization is row-independent elementwise arithmetic,
    so gathering rows and then dequantizing is bit-identical to
    dequantizing the full table and gathering — the property the exact
    re-rank contract of :mod:`repro.serve.scoring` relies on.
    """

    __slots__ = ("mode", "codes", "scale", "offset")

    def __init__(self, mode: str, codes: np.ndarray,
                 scale: Optional[np.ndarray] = None,
                 offset: Optional[np.ndarray] = None) -> None:
        if mode not in ("fp16", "int8"):
            raise ValueError(f"unsupported quantize mode {mode!r}")
        self.mode = mode
        self.codes = codes
        self.scale = scale
        self.offset = offset

    @classmethod
    def quantize(cls, table: np.ndarray, mode: str) -> "QuantizedTable":
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError("QuantizedTable expects a 2-D table")
        if mode == "fp16":
            return cls("fp16", table.astype(np.float16))
        if mode != "int8":
            raise ValueError(f"unsupported quantize mode {mode!r}")
        lo = table.min(axis=1, keepdims=True)
        hi = table.max(axis=1, keepdims=True)
        offset = (hi + lo) / 2.0
        scale = (hi - lo) / 254.0
        # Constant rows quantize to code 0 with scale 0: dequantization
        # yields exactly ``offset`` (notably the all-zero padding row).
        safe = np.where(scale > 0.0, scale, 1.0)
        codes = np.clip(np.rint((table - offset) / safe),
                        -127, 127).astype(np.int8)
        return cls("int8", codes, scale=scale, offset=offset)

    @property
    def shape(self) -> tuple:
        return self.codes.shape

    @property
    def nbytes(self) -> int:
        total = self.codes.nbytes
        if self.scale is not None:
            total += self.scale.nbytes
        if self.offset is not None:
            total += self.offset.nbytes
        return total

    def setflags(self, write: bool = False) -> None:
        """Mirror ``ndarray.setflags`` over the backing arrays."""
        for array in (self.codes, self.scale, self.offset):
            if array is not None:
                array.setflags(write=write)

    def dequantize(self) -> np.ndarray:
        """Full float64 table (materialized — prefer :meth:`take` on rows)."""
        if self.mode == "fp16":
            return self.codes.astype(np.float64)
        return self.codes.astype(np.float64) * self.scale + self.offset

    def take(self, rows: Union[Sequence[int], np.ndarray]) -> np.ndarray:
        """Dequantized ``table[rows]``, bit-identical to a full-table
        dequantize gathered at the same rows."""
        if self.mode == "fp16":
            return self.codes[rows].astype(np.float64)
        return (self.codes[rows].astype(np.float64)
                * self.scale[rows] + self.offset[rows])

    def __getstate__(self):
        return (self.mode, self.codes, self.scale, self.offset)

    def __setstate__(self, state) -> None:
        self.mode, self.codes, self.scale, self.offset = state


#: Either storage format the scorers accept for a frozen table.
TableLike = Union[np.ndarray, QuantizedTable]


def as_dense(table: Optional[TableLike]) -> Optional[np.ndarray]:
    """An ndarray view of ``table`` suitable for full-table arithmetic.

    Plain arrays pass through untouched (the ``--quantize none`` path
    stays byte-identical).  fp16 tables return the half-precision codes
    directly — numpy upcasts them exactly in mixed-dtype elementwise
    arithmetic, so scoring dequantizes on the fly for free; int8 tables
    materialize the float64 dequantization.
    """
    if table is None or isinstance(table, np.ndarray):
        return table
    if table.mode == "fp16":
        return table.codes
    return table.dequantize()


def take_rows(table: TableLike,
              rows: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """``table[rows]`` in float64-compatible form for either storage.

    For quantized tables the result is the float64 dequantization of the
    gathered rows, bit-identical to ``as_dense`` arithmetic restricted to
    those rows (dequantization is row-independent).
    """
    if isinstance(table, np.ndarray):
        return table[rows]
    return table.take(rows)


def dot_scores(query: np.ndarray, vectors: np.ndarray,
               bias: np.ndarray) -> np.ndarray:
    """Inner-product scores, the native head of every servable model."""
    return candidate_dots(query[None], vectors)[:, 0] + bias


@dataclass(frozen=True)
class ItemTower:
    """Frozen item-side arrays the index is built over (padding excluded)."""

    vectors: np.ndarray          # (N, d) item embeddings, rows for ids
    bias: np.ndarray             # (N,)
    ids: np.ndarray              # (N,) catalog item ids (1..V)

    def __post_init__(self) -> None:
        if self.vectors.shape[0] != self.ids.shape[0]:
            raise ValueError("item tower vectors/ids row mismatch")
        if self.bias.shape[0] != self.ids.shape[0]:
            raise ValueError("item tower bias/ids row mismatch")

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])


def build_item_tower(artifacts) -> Optional[ItemTower]:
    """Item tower from a frozen serving bundle; ``None`` for replay models.

    Replay-mode artifacts carry no frozen head (the model's own
    ``score_samples`` is the scorer), so there is nothing to index —
    serving falls back to exact full scoring for those classes.
    """
    table = getattr(artifacts, "output_table", None)
    bias = getattr(artifacts, "output_bias", None)
    if table is None or bias is None:
        return None
    vectors = np.ascontiguousarray(table[1:])
    item_bias = np.ascontiguousarray(bias[1:])
    ids = np.arange(1, table.shape[0], dtype=np.int64)
    for array in (vectors, item_bias, ids):
        array.setflags(write=False)
    return ItemTower(vectors=vectors, bias=item_bias, ids=ids)


def user_vector(artifacts, view) -> Optional[np.ndarray]:
    """User-tower query vector for one session snapshot, shape ``(d,)``.

    Returns ``None`` when the bundle has no two-tower factorization
    (replay models) or the session is empty — callers fall back to the
    exact full-scoring path.
    """
    # Late imports: repro.serve imports this package at module level.
    from ..serve.registry import (CausalServingArtifacts,
                                  GRUServingArtifacts)
    from ..serve.scoring import attention_weights, gru_projection
    if view is None or view.steps == 0:
        return None
    if isinstance(artifacts, CausalServingArtifacts):
        if view.states is None:
            return None
        alpha = attention_weights(view.states, view.last,
                                  artifacts.attention_proj)
        return alpha @ project_steps(view.states, artifacts.adapt_weight)
    if isinstance(artifacts, GRUServingArtifacts):
        if view.last is None:
            return None
        return gru_projection(artifacts, view.last)
    return None
