"""Node-level SGCL pre-training over sampled subgraphs.

The graph-level pipeline contrasts *pooled* anchor/view embeddings
(Eq. 21–24); on one large graph the contrastive unit is the node. Each
minibatch of sampled subgraphs runs the same towers — per-subgraph
``K_V`` through the :class:`~repro.core.lipschitz.
LipschitzConstantGenerator`, Lipschitz augmentation for the positive
view — but the loss is a local-to-local (L2L) InfoNCE between a node's
representation in the anchor subgraph and its representation in the
augmented view, with the other sampled nodes as negatives.

Two corrections keep the estimate honest on a sampled stream:

* **GraphSAINT normalisation** — nodes land in subgraphs with very
  different frequencies (hubs vs leaves); each node's loss term is
  weighted by the stream's ``α_v ≈ 1/λ_v`` estimate (normalised to mean
  1 within the batch) so the objective approximates the full-graph loss.
* **Augmentation-surviving pairs only** — a node dropped from the view
  has no positive; only survivors (``meta["parent_nodes"]``) enter the
  loss, capped at ``MAX_CONTRAST_NODES`` uniformly at random so the
  ``O(m²)`` similarity matrix stays CPU-sized.

The complement loss (Eq. 25) is graph-level by construction (it
contrasts against pooled complement readouts) and is not applied here;
the generator's graph-likelihood objective and the weight regulariser
carry over unchanged.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core import SGCLModel, SGCLTrainer
from ..core.losses import graph_likelihood_loss, weight_regularizer
from ..core.losses import semantic_info_nce as node_info_nce
from ..graph import Batch
from ..tensor import Tensor, gather
from .stream import SubgraphStream

__all__ = ["NodeSGCLTrainer", "node_info_nce", "node_contrastive_loss"]

#: matched node pairs per batch; caps the O(m²) similarity matrix
MAX_CONTRAST_NODES = 512


def node_contrastive_loss(model: SGCLModel, batch: Batch,
                          node_norms: np.ndarray, rng: np.random.Generator, *,
                          max_contrast_nodes: int = MAX_CONTRAST_NODES
                          ) -> tuple[Tensor | None, dict[str, float]]:
    """Full node-level objective for one subgraph minibatch.

    Returns ``(loss, stats)``; ``loss`` is ``None`` when fewer than two
    nodes survive augmentation (nothing to contrast — the caller skips
    the batch, mirroring the graph-level "< 2 graphs" skip).
    """
    config = model.config
    scores = model.semantic_scores(batch)
    views, _ = model.generate_views(batch, scores, rng)
    anchor_rows = np.concatenate(
        [view.meta["parent_nodes"] + batch.node_offsets[graph_id]
         for graph_id, view in enumerate(views)])
    stats: dict[str, float] = {}
    constants = scores.constants.data
    stats["k_v_mean"] = float(constants.mean())
    stats["k_v_std"] = float(constants.std())
    stats["k_v_min"] = float(constants.min())
    stats["k_v_max"] = float(constants.max())
    stats["drop_fraction"] = 1.0 - len(anchor_rows) / batch.num_nodes
    if len(anchor_rows) < 2:
        return None, stats
    view_rows = np.arange(len(anchor_rows))
    if len(anchor_rows) > max_contrast_nodes:
        chosen = np.sort(rng.choice(len(anchor_rows), max_contrast_nodes,
                                    replace=False))
        anchor_rows, view_rows = anchor_rows[chosen], view_rows[chosen]
    stats["contrast_nodes"] = float(len(anchor_rows))

    z_anchor = model.projection(model.f_k(batch))
    z_view = model.projection(model.f_k(Batch(views)))
    loss_s = node_info_nce(gather(z_anchor, anchor_rows),
                           gather(z_view, view_rows), config.tau,
                           weights=node_norms[anchor_rows])
    total = loss_s
    stats["loss_s"] = loss_s.item()
    if config.lambda_g > 0:
        reps = model.generator.node_representations(batch)
        loss_g = graph_likelihood_loss(reps, batch.edge_index,
                                       batch.degrees(), model.edge_weight,
                                       rng)
        total = total + config.lambda_g * loss_g
        stats["loss_g"] = loss_g.item()
    if config.use_weight_reg and config.lambda_w > 0:
        reg = weight_regularizer(model)
        total = total + config.lambda_w * reg
        stats["theta_w"] = reg.item()
    stats["loss"] = total.item()
    return total, stats


class NodeSGCLTrainer(SGCLTrainer):
    """Owns an :class:`SGCLModel` and trains it on a subgraph stream.

    The model is the unmodified graph-level :class:`SGCLModel` — both
    towers, the probability head, the generator objective — only the
    batch source and the loss assembly differ (see
    :func:`node_contrastive_loss`). Everything else — the epoch loop,
    checkpointing, :meth:`request_stop`, ``from_checkpoint`` — is the
    graph-level trainer's. Checkpoint bundles use the standard format
    (``metadata["node_level"] = True``), so ``repro embed``/the serving
    fleet rebuild the encoder with the existing machinery and
    :func:`repro.resilience.resume_trainer` rebuilds this class.

    Epoch indexing doubles as the stream's epoch seed tag: epoch ``e``
    draws ``stream.batches(epoch=len(history))``, so a resumed trainer
    continues the exact sample stream an uninterrupted run would have
    seen.
    """

    _checkpoint_tags = {"node_level": True}

    def pretrain(self, stream: SubgraphStream, epochs: int | None = None, *,
                 checkpoint_dir: str | Path | None = None,
                 save_every: int | None = None,
                 observer=None) -> list[dict[str, float]]:
        """Pre-train on the stream; returns per-epoch history rows.

        The loop, its guard, spans, ``epoch`` events (``method=
        "SGCL-node"``), graceful stop and checkpoint policy are those of
        :meth:`repro.core.SGCLTrainer.pretrain`. Epoch rows carry the loss
        components and ``K_V`` summary plus sampling counters
        (``num_batches``, ``skipped_batches``, ``contrast_nodes``); a
        batch in which fewer than two nodes survive augmentation counts
        as skipped.
        """
        return self._run(
            lambda: stream.batches(epoch=len(self.history)),
            lambda item: node_contrastive_loss(self.model, *item,
                                               self._augment_rng),
            epochs, "SGCL-node", observer=observer,
            checkpoint_dir=checkpoint_dir, save_every=save_every)
