"""The Causer model (§III): sequential recommendation with causal discovery.

Implements eq. 10's scoring:

    h_{t+1} = g(h_t, v_t ⊙ 1(W_.b > ε), u)
    f(b | H, u) = σ( e_b^T ( V Σ_t Ŵ_{v_t b} α_t h_t ) )

with

* input item embeddings from the cluster encoder (eq. 6),
* ``W`` expanded from the cluster-level graph ``W^c`` via eq. 9,
* ``Ŵ_{v_t b} = v_t^T (W_.b ⊙ 1(W_.b > ε))`` — the total causal effect of
  basket ``t`` on candidate ``b``,
* ``α_t`` — bilinear attention against the final hidden state,
* the augmented-Lagrangian training loop of Algorithm 1.

Three filtering modes are provided (DESIGN.md §5, ``CauserConfig.filtering_mode``):

* **shared** (default): one RNN pass over the unfiltered history; causality
  enters through the aggregation weights ``Ŵ_{v_t b} α_t``, which zero out
  causally-irrelevant steps.  Full-catalog scoring is a batched matmul.
* **cluster**: one filtered RNN pass per candidate *cluster* — candidates
  hard-assigned to the same cluster share the mask ``1(W_{·,k} > ε)``, so K
  passes reproduce strict filtering exactly in the hard-assignment limit.
* **strict**: the literal eq. 10 — per candidate, history inputs are masked
  by ``1(W_.b > ε)`` and all-zero steps are skipped before re-running the
  RNN.  Cost scales with the candidate count; used for small candidate
  sets, tests and the efficiency study.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..data.batching import PaddedBatch, iterate_batches, pad_samples, sample_negatives
from ..data.interactions import EvalSample
from ..models.base import FitResult, NeuralSequentialRecommender
from ..nn import (BilinearAttention, Linear, RecurrentLayer, Tensor, concat,
                  losses, make_optimizer)
from ..nn import functional as F
from ..nn.fused import (CANDIDATE_BLOCK, basket_effects, causal_head,
                        fused_basket_effects, fused_basket_pool,
                        fused_causal_head)
from .causal_graph import ClusterCausalGraph, expanded_blocks
from .clustering import ItemClusterModule
from .config import CauserConfig
from .pretrain import pretrain_cluster_graph

#: Catalog columns per block of full-catalog scoring: a multiple of
#: ``CANDIDATE_BLOCK``, so every block starts on a BLAS block boundary.
CATALOG_BLOCK = 16 * CANDIDATE_BLOCK

#: Candidates of eq. 10's pieces: ``(B, C)`` item ids, or a slice of the
#: catalog shared by every row.
Columns = Union[np.ndarray, slice]


class Causer(NeuralSequentialRecommender):
    """Causality-enhanced sequential recommender (GRU or LSTM backbone)."""

    def __init__(self, num_users: int, num_items: int,
                 raw_features: np.ndarray,
                 config: Optional[CauserConfig] = None) -> None:
        config = config or CauserConfig()
        name = f"Causer ({config.cell_type.upper()})"
        super().__init__(num_users, num_items, config, name=name)
        self.config: CauserConfig = config
        features = np.asarray(raw_features, dtype=np.float64)
        if features.shape[0] != num_items + 1:
            raise ValueError(
                f"raw_features must cover the padded vocabulary: expected "
                f"{num_items + 1} rows, got {features.shape[0]}")
        cfg = config
        self.clusters = ItemClusterModule(
            features, cfg.num_clusters, cfg.embedding_dim,
            cfg.encoder_hidden_dim, cfg.eta, self.rng)
        self.graph = ClusterCausalGraph(cfg.num_clusters, self.rng)
        self.rnn = RecurrentLayer(cfg.cell_type, cfg.embedding_dim,
                                  cfg.hidden_dim, self.rng)
        self.attention = BilinearAttention(cfg.hidden_dim, self.rng)  # A
        self.adapt = Linear(cfg.hidden_dim, cfg.embedding_dim, self.rng,
                            bias=False)                                # V
        # Eq. 10's g(h_t, ·, u_k) conditions on the user: the user embedding
        # seeds the initial hidden state.
        self.user_init = Linear(cfg.embedding_dim, cfg.hidden_dim, self.rng)
        # Augmented-Lagrangian state (Algorithm 1).
        self.beta1 = cfg.beta1_init
        self.beta2 = cfg.beta2_init
        self._h_previous = float("inf")
        self._penalty_scale = 1.0  # set per epoch from the batch count

    # ------------------------------------------------------------------
    # Forward pieces
    # ------------------------------------------------------------------
    def _user_initial_state(self, batch: PaddedBatch) -> Tensor:
        """``u_k``-conditioned initial hidden state (eq. 10's g(·, ·, u))."""
        user_emb = self.user_embedding(batch.users % max(self.num_users, 1))
        return self.user_init(user_emb).tanh()

    def _input_embeddings(self, item_embeddings: Tensor) -> Tensor:
        """Input representation: encoded features (eq. 6) + free id offset.

        The encoder output alone cannot separate items with near-identical
        raw features (it is constrained onto cluster mixtures by eq. 7), so
        a free per-item embedding is added — ``Θ_e``'s item half in the
        paper's parameter inventory.
        """
        return item_embeddings + self.item_embedding.weight

    def _history_states(self, batch: PaddedBatch, item_embeddings: Tensor):
        """Run the backbone over basket-summed input embeddings."""
        inputs = fused_basket_pool(self._input_embeddings(item_embeddings),
                                   batch.items, batch.basket_mask)
        return self.rnn(inputs, step_mask=batch.step_mask,
                        initial_state=self._user_initial_state(batch))

    def _attention_scores(self, states: Tensor, last: Tensor) -> Tensor:
        """Unnormalized ``sim(h_t, h_{j-1})``; zeros in the (-att) ablation.

        Zero scores make the masked softmax uniform over the surviving
        (causally-filtered) steps, which is exactly the (-att) variant.
        """
        if self.config.use_attention:
            return self.attention.raw_scores(states, last)
        return Tensor(np.zeros((states.shape[0], states.shape[1])))

    def _attention_weights(self, states: Tensor, last: Tensor,
                           step_mask: np.ndarray) -> Tensor:
        """Per-step ``α_t`` over valid steps (no per-candidate masking)."""
        scores = self._attention_scores(states, last)
        return F.masked_softmax(scores, step_mask, axis=-1)

    def _effects(self, batch: PaddedBatch, cause_rows: Tensor,
                 assignments: Tensor, candidates: Columns,
                 slot_mask: np.ndarray) -> Tensor:
        """Eq. 9's ``Ŵ_{v_t b}`` over ``slot_mask``, ``(B, T, C)``, from
        ``cause_rows = Ā Wᶜ``; ``candidates`` is an index array or a
        slice of the catalog."""
        return fused_basket_effects(cause_rows, assignments[candidates],
                                    self.config.epsilon, batch.items,
                                    slot_mask).transpose(0, 2, 1)

    def candidate_logits(self, batch: PaddedBatch,
                         candidates: Optional[np.ndarray]) -> Tensor:
        """Eq. 10 logits for explicit candidates (or the full catalog).

        Dispatches on ``config.filtering_mode``; the (-causal) ablation and
        the default ``"shared"`` mode use a single unfiltered RNN pass,
        ``"cluster"`` mode runs one filtered pass per candidate cluster.
        """
        if self.config.use_causal and self.config.filtering_mode == "cluster":
            return self._logits_cluster_filtered(batch, candidates)
        return self._logits_shared(batch, candidates)

    def _head(self, weights: Tensor, states: Tensor,
              candidates: Columns) -> Tensor:
        """Eq. 10's head (:func:`repro.nn.fused.causal_head`) on step
        weights; ``candidates`` is an index array or a slice of the
        catalog."""
        return fused_causal_head(weights, states, self.adapt.weight,
                                 self.output_embedding.weight[candidates],
                                 self.output_bias[candidates])

    def _logits_shared(self, batch: PaddedBatch,
                       candidates: Optional[np.ndarray]) -> Tensor:
        """Single unfiltered RNN pass; causality enters via ``Ŵ_{v_t b} α_t``.

        ``α`` normalizes over the valid steps; multiplying by the *raw*
        causal effects preserves the total trigger mass
        ``Σ_t α_t Ŵ_{v_t b}`` in the context's scale — the quantity that
        tells the scorer how strongly the candidate is causally supported by
        the history.  Candidates with no surviving cause anywhere receive a
        zero context (uniform prediction — the paper's Remark 2).

        The full catalog (``candidates=None``) is scored in column blocks
        of ``CATALOG_BLOCK``, so no ``(B, V+1, T·S)`` effect array exists;
        the blocks are bitwise equal to scoring every column at once.
        """
        item_embeddings = self.clusters.encode()
        states, last = self._history_states(batch, item_embeddings)
        alpha = self._attention_weights(states, last, batch.step_mask)
        # (-causal) ablation: α alone (zero on padding) for every candidate.
        weights = alpha.reshape(*alpha.shape, 1)
        slots = batch.basket_mask > 0
        if self.config.use_causal:
            assignments = self.clusters.assignments()
            cause_rows = assignments @ self.graph.matrix()

        def score(columns: Columns) -> Tensor:
            step_weights = weights
            if self.config.use_causal:
                step_weights = self._effects(batch, cause_rows, assignments,
                                             columns, slots) * weights
            return self._head(step_weights, states, columns)

        if candidates is not None:
            return score(candidates)
        return concat([score(slice(start, start + CATALOG_BLOCK))
                       for start in range(0, self.num_items + 1,
                                          CATALOG_BLOCK)], axis=-1)

    def _logits_cluster_filtered(self, batch: PaddedBatch,
                                 candidates: Optional[np.ndarray]) -> Tensor:
        """Strict eq. 10 semantics with cluster-shared filter masks.

        For every cluster ``k`` the history is filtered by
        ``1(W_{·,k} > ε)`` (all candidates hard-assigned to ``k`` share this
        mask), the RNN re-runs on the filtered inputs with empty steps
        skipped, attention normalizes over the surviving steps, and the
        causal effects ``Ŵ`` weight the surviving states.  Exact strict
        filtering in the hard-assignment limit, at K RNN passes per batch.
        """
        cfg = self.config
        item_embeddings = self.clusters.encode()
        assignments = self.clusters.assignments()
        cause_rows = assignments @ self.graph.matrix()         # (V+1, K)
        gathered = self._input_embeddings(item_embeddings)[batch.items]  # (B, T, S, d)

        # Hard cluster of each candidate: (B, C), or (1, V+1) for the catalog.
        hard = np.argmax(assignments.data, axis=-1)
        cand_clusters = hard[None, :] if candidates is None else hard[candidates]
        columns = slice(None) if candidates is None else candidates

        contributions = []
        # One user-state lookup shared by every per-cluster RNN pass; its
        # gradient accumulates once per consumer, identical to rebuilding it.
        initial_state = self._user_initial_state(batch)
        for k in np.unique(cand_clusters):
            # Per-(item, cluster) causal strength drives the shared masks.
            keep_k = ((cause_rows.data[batch.items, k] > cfg.epsilon)
                      & (batch.basket_mask > 0))               # (B, T, S)
            step_mask_k = keep_k.any(axis=2)
            slot_mask = Tensor(keep_k.astype(np.float64)[..., None])
            inputs_k = (gathered * slot_mask).sum(axis=2)
            states_k, last_k = self.rnn(
                inputs_k, step_mask=step_mask_k,
                initial_state=initial_state)
            scores_k = self._attention_scores(states_k, last_k)

            effects_k = self._effects(batch, cause_rows, assignments,
                                      columns, keep_k)          # (B, T, C)
            surviving = (effects_k.data > 0) & step_mask_k[:, :, None]
            alpha_k = F.masked_softmax(
                scores_k.reshape(scores_k.shape[0], -1, 1), surviving, axis=1)
            logits_k = self._head(effects_k * alpha_k, states_k, columns)

            # Each candidate keeps the logits of its own cluster's pass.
            contributions.append(logits_k * Tensor(cand_clusters == k))
        return sum(contributions[1:], contributions[0])

    # ------------------------------------------------------------------
    # Strict (literal eq. 10) filtering
    # ------------------------------------------------------------------
    def candidate_logits_strict(self, batch: PaddedBatch,
                                candidates: np.ndarray) -> np.ndarray:
        """Per-candidate history masking and RNN re-runs (evaluation only).

        The history input at step ``t`` becomes ``v_t ⊙ 1(W_.b > ε)``;
        steps whose filtered basket is empty are skipped (the hidden state
        carries through).  Quadratic in candidates — use for small sets.
        """
        self.eval()
        cfg = self.config
        item_embeddings = self.clusters.encode()
        cause_rows, assignments = self.causal_factors()
        slots = batch.basket_mask > 0
        logits = np.zeros(candidates.shape)
        for col in range(candidates.shape[1]):
            cand = candidates[:, col]
            # Mask basket slots that are not causes of this candidate.
            effect, keep = basket_effects(cause_rows, assignments[cand, None],
                                          cfg.epsilon, batch.items, slots)
            keep = keep[:, 0]                                   # (B, T, S)
            masked = replace(batch, basket_mask=keep.astype(np.float64),
                             step_mask=keep.any(axis=2))
            states, last = self._history_states(masked, item_embeddings)
            alpha = self._attention_weights(states, last, masked.step_mask)
            effect = (effect[:, 0] if cfg.use_causal         # (B, T)
                      else masked.step_mask.astype(np.float64))
            logits[:, col] = causal_head(
                (alpha.data * effect)[:, :, None], states.data,
                self.adapt.weight.data,
                self.output_embedding.weight.data[cand][:, None],
                self.output_bias.data[cand][:, None])[:, 0]
        return logits

    # ------------------------------------------------------------------
    # Training (Algorithm 1)
    # ------------------------------------------------------------------
    def training_loss(self, batch: PaddedBatch,
                      include_causal_penalties: bool = True) -> Tensor:
        """Eq. 11: BCE data term + L1 + clustering/reconstruction + DAG terms.

        ``include_causal_penalties=False`` skips the regularizer
        computation entirely — the §III-C slow-update device: on frozen
        epochs the causal parameters receive no step, so computing their
        penalty gradients is pure waste.
        """
        cfg = self.config
        b, p = batch.positives.shape
        n = batch.negatives.shape[-1]
        candidates = np.concatenate(
            [batch.positives[:, :, None], batch.negatives], axis=2
        ).reshape(b, p * (n + 1))
        logits = self.candidate_logits(batch, candidates)
        targets = np.zeros((b, p, n + 1))
        targets[:, :, 0] = 1.0
        mask = np.repeat(batch.positive_mask[:, :, None], n + 1, axis=2)
        loss = losses.bce_with_logits(logits, targets.reshape(b, -1),
                                      mask=mask.reshape(b, -1))

        if not include_causal_penalties:
            return loss

        # Eq. 11 adds the regularizers ONCE over the whole dataset; with
        # mini-batching each batch must carry only its share, otherwise the
        # penalties are overweighted by the number of batches per epoch and
        # L1 + the DAG penalty erode W^c below the ε gate within a few
        # epochs (a gradient blackout the gate cannot recover from).
        scale = self._penalty_scale
        penalty = cfg.lambda_l1 * self.graph.l1()
        embeddings = self.clusters.encode()
        if cfg.use_clustering_loss:
            penalty = penalty + (cfg.cluster_weight
                                 * self.clusters.clustering_loss(embeddings))
        if cfg.use_reconstruction_loss:
            penalty = penalty + (cfg.reconstruction_weight
                                 * self.clusters.reconstruction_loss(embeddings))
        h = self.graph.acyclicity()
        penalty = penalty + self.beta1 * h + (0.5 * self.beta2) * h * h
        return loss + scale * penalty

    def _check_finite_loss(self, loss_value: float, epoch: int,
                           batch_index: int) -> None:
        """Fail fast on a non-finite loss, naming the offending iterate.

        The augmented-Lagrangian loop otherwise *stalls silently*: a NaN
        loss produces NaN gradients, the optimizer writes NaN into every
        parameter, and all later epochs train nothing while h(W) reports
        garbage.
        """
        if np.isfinite(loss_value):
            return
        bad = self.non_finite_parameters()
        detail = ""
        if bad:
            names = ", ".join(f"{name}.{field}" for name, field in bad[:8])
            detail = f"; non-finite parameter state: {names}"
        raise RuntimeError(
            f"{self.name}: training loss became non-finite ({loss_value!r}) "
            f"at epoch {epoch + 1}, batch {batch_index + 1} of Algorithm 1"
            f"{detail}. Re-run under repro.analysis.detect_anomaly() (or the "
            f"CLI's --detect-anomaly) to attribute the NaN/Inf to the "
            f"creating op.")

    def _check_finite_h(self, h_value: float, epoch: int) -> None:
        """Fail fast when the acyclicity penalty h(W) leaves the reals."""
        if np.isfinite(h_value):
            return
        w_max = float(np.abs(self.graph.weights.data).max())
        raise RuntimeError(
            f"{self.name}: acyclicity penalty h(W) became non-finite "
            f"({h_value!r}) after epoch {epoch + 1} "
            f"(max |W^c| = {w_max:.3g}, beta1 = {self.beta1:.3g}, "
            f"beta2 = {self.beta2:.3g}). The matrix exponential in h "
            f"overflows when W^c grows unchecked — lower the learning rate "
            f"or raise lambda_l1.")

    def _seed_graph(self, samples: Sequence[EvalSample]) -> None:
        """Seed ``W^c`` from transition lift, calibrated to the ε gate.

        Soft assignments dilute eq. 9 (``ā^T W^c b̄ < max W^c``), and the
        dilution grows with K — so after seeding, ``W^c`` is rescaled such
        that the *item-level* peak sits at ~0.6, keeping the gate's
        operating range consistent across cluster counts.  The peak is
        taken over row blocks of eq. 9's expansion, never the whole
        ``(V+1)²`` matrix.
        """
        cfg = self.config
        seed = pretrain_cluster_graph(samples,
                                      self.clusters.hard_assignments(),
                                      cfg.num_clusters)
        assignments = self.clusters.assignments().data
        peak = max(block.max() for block in
                   expanded_blocks(assignments @ seed, assignments))
        if peak > 1e-6:
            seed = seed * (0.6 / peak)
        # gradlint: disable-next=GL003 — pre-training seed write: no forward
        # pass has run yet, so no backward closure can hold a stale reference.
        self.graph.weights.data[...] = seed

    def fit_samples(self, samples: Sequence[EvalSample],
                    warm_start: bool = False,
                    num_epochs: Optional[int] = None) -> FitResult:
        """Algorithm 1: alternating updates with augmented-Lagrangian state.

        The recommender parameters step every epoch; the causal parameters
        (``Θ_a`` and ``W^c``) step only on epochs divisible by
        ``update_every`` — the paper's §III-C efficiency device.

        ``warm_start=True`` continues Algorithm 1 from the current
        parameters instead of re-seeding ``W^c`` from transition lift: the
        learned graph, the multipliers (``beta1``/``beta2``) and the
        ``h``-stall tracker all carry over, which is what the online
        refresh loop needs — re-derive the causal artifacts on a sliding
        window of fresh events without forgetting the converged state.
        ``num_epochs`` overrides ``config.num_epochs`` for this call only
        (refresh runs a few epochs per window, not a full training run).
        """
        if not samples:
            raise ValueError(f"{self.name}: no training samples")
        cfg = self.config
        epochs = cfg.num_epochs if num_epochs is None else num_epochs
        if cfg.pretrain_graph and cfg.use_causal and not warm_start:
            self._seed_graph(samples)
        causal_params = list(self.clusters.parameters()) + list(
            self.graph.parameters())
        causal_ids = {id(p) for p in causal_params}
        rec_params = [p for p in self.parameters() if id(p) not in causal_ids]
        opt_rec = make_optimizer(cfg.optimizer, rec_params,
                                 lr=cfg.learning_rate,
                                 weight_decay=cfg.weight_decay)
        opt_causal = make_optimizer(cfg.optimizer, causal_params,
                                    lr=cfg.learning_rate)
        result = FitResult(extra={"h": [], "beta2": []})
        num_batches = max(1, int(np.ceil(len(samples) / cfg.batch_size)))
        self._penalty_scale = 1.0 / num_batches
        self.train()
        for epoch in range(epochs):
            update_causal = (epoch % cfg.update_every) == 0
            total, count = 0.0, 0
            for batch_index, batch in enumerate(
                    iterate_batches(samples, cfg.batch_size, self.rng,
                                    max_history=cfg.max_history)):
                sample_negatives(batch, self.num_items, cfg.num_negatives,
                                 self.rng)
                opt_rec.zero_grad()
                opt_causal.zero_grad()
                loss = self.training_loss(
                    batch, include_causal_penalties=update_causal)
                loss_value = loss.item()
                self._check_finite_loss(loss_value, epoch, batch_index)
                loss.backward()
                opt_rec.clip_grad_norm(cfg.grad_clip)
                opt_rec.step()
                if update_causal:
                    opt_causal.clip_grad_norm(cfg.grad_clip)
                    opt_causal.step()
                self._after_step()
                total += loss_value
                count += 1
            # Algorithm 1 lines 14–15: multiplier and penalty updates.
            h_new = self.graph.acyclicity_value()
            self._check_finite_h(h_new, epoch)
            self.beta1 += self.beta2 * h_new
            stalled = (np.isfinite(self._h_previous)
                       and abs(h_new) >= cfg.kappa2 * abs(self._h_previous))
            if stalled:
                self.beta2 = min(self.beta2 * cfg.kappa1, cfg.beta2_max)
            self._h_previous = h_new
            mean_loss = total / max(count, 1)
            result.epoch_losses.append(mean_loss)
            result.extra["h"].append(h_new)
            result.extra["beta2"].append(self.beta2)
            if cfg.verbose:
                print(f"[{self.name}] epoch {epoch + 1}/{epochs} "
                      f"loss={mean_loss:.4f} h={h_new:.2e} beta2={self.beta2:.2g}")
        # The last step's gradients are dead weight in a fitted model
        # (and in every deepcopy or pickle of it).
        self.zero_grad()
        self.eval()
        return result

    # ------------------------------------------------------------------
    # Scoring / inspection
    # ------------------------------------------------------------------
    def score_samples(self, samples: Sequence[EvalSample]) -> np.ndarray:
        """Full-catalog scores; honours ``cfg.filtering_mode``."""
        self.eval()
        batch = pad_samples(samples, max_history=self.config.max_history)
        if self.config.filtering_mode == "strict":
            all_items = np.tile(np.arange(self.num_items + 1),
                                (batch.batch_size, 1))
            return self.candidate_logits_strict(batch, all_items)
        from ..nn import no_grad
        with no_grad(self):
            return self.candidate_logits(batch, None).data

    def causal_factors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 9's rank-K factors ``(Ā Wᶜ, Ā)``, each ``(V+1, K)``.

        ``W = Ā Wᶜ Āᵀ`` is ``rows @ cols.T``.  Scoring never builds that
        (V+1)² array: :func:`repro.nn.fused.basket_effects` reads the
        entries a history needs from the factors.  Fresh arrays on every
        call, owned by the caller.
        """
        assignments = self.clusters.assignments().data
        return assignments @ self.graph.numpy_matrix(), assignments

    def learned_cluster_graph(self, threshold: float = 0.1) -> np.ndarray:
        """Thresholded, cycle-pruned cluster-level DAG."""
        return self.graph.as_dag(threshold)
