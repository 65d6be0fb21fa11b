"""The pre-training epoch loop shared by SGCL, node-level SGCL and the
baselines, and the graph-level SGCL trainer built on it."""

from __future__ import annotations

import time
import warnings
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ..data import DataLoader
from ..graph import Graph
from ..nn import Adam, Module
from ..obs import current
from ..validate.numerics import NumericsGuard, global_grad_norm
from .config import SGCLConfig
from .model import SGCLModel

__all__ = ["SGCLTrainer", "EpochLoop", "graph_batches", "global_grad_norm"]


def summarize_epoch(epoch_stats: dict[str, list[float]]) -> dict[str, float]:
    """Collapse per-batch stats into one epoch row.

    Keys ending in ``_min``/``_max`` keep their extreme over the epoch's
    batches; everything else is averaged. With no per-batch stats at all
    (every batch skipped) the result is empty — the loop fills in a
    well-formed NaN-loss row in that case.
    """
    summary = {}
    for key, values in epoch_stats.items():
        if key.endswith("_min"):
            summary[key] = float(np.min(values))
        elif key.endswith("_max"):
            summary[key] = float(np.max(values))
        else:
            summary[key] = float(np.mean(values))
    return summary


def graph_batches(graphs: Sequence[Graph], batch_size: int,
                  rng: np.random.Generator, *, min_graphs: int = 2,
                  prefetch: int = 0) -> Iterable:
    """One epoch of shuffled graph mini-batches.

    Batches with fewer than ``min_graphs`` graphs are dropped, not
    counted as skipped (InfoNCE needs negatives), matching the
    ``drop_last`` behaviour of the reference code.
    """
    loader = DataLoader(graphs, batch_size, shuffle=True, rng=rng)
    if prefetch > 0:
        from ..runtime import PrefetchLoader

        loader = PrefetchLoader(loader, prefetch=prefetch)
    return (batch for batch in loader if batch.num_graphs >= min_graphs)


class EpochLoop:
    """The one pre-training epoch loop, shared by every trainer.

    A trainer's ``pretrain`` hands :meth:`_run_epochs` a batch source and
    a ``step(batch) -> (loss | None, stats)``; ``None`` skips the batch.
    The loop owns the rest, for every trainer alike:

    * a :class:`~repro.validate.NumericsGuard` checks every batch: a
      NaN/Inf loss component or gradient norm raises, skips the batch
      (``skipped_batches``, ``numerics/skipped_batches``) or warns, and
      ``grad_clip`` caps the global gradient L2 norm;
    * each epoch appends one row to ``history`` — batch stats averaged
      (``_min``/``_max`` keys kept as extremes), ``epoch``,
      ``num_batches``, ``skipped_batches``, ``epoch_seconds`` and, when
      traced, ``grad_norm`` — and emits it as an ``epoch`` event. An
      epoch with no trained batch gets ``loss`` = NaN and a
      :class:`RuntimeWarning`;
    * ``pretrain/epoch`` / ``pretrain/batch`` spans with ``pretrain/loss``
      / ``backward`` / ``step`` children go to ``observer`` (default: the
      ambient :func:`repro.obs.current`);
    * with ``checkpoint_dir``, every epoch atomically refreshes
      ``latest.npz`` (what :func:`repro.resilience.find_latest_checkpoint`
      resumes from), the lowest finite loss goes to ``best.npz`` and,
      with ``save_every``, every ``save_every``-th epoch (counted over the
      trainer's lifetime) to ``epoch-NNNN.npz``;
    * a pending :meth:`request_stop` ends the loop at the next epoch
      boundary, leaving the state of a run asked for fewer epochs.
    """

    _best_loss = float("inf")
    _stop_requested = False

    @property
    def stop_requested(self) -> bool:
        """Whether a graceful stop is pending (see :meth:`request_stop`)."""
        return self._stop_requested

    def request_stop(self) -> None:
        """Ask the running ``pretrain`` loop to stop at the next epoch
        boundary.

        Safe to call from a signal handler (it only flips a flag). The
        loop never aborts mid-epoch, so the trainer's parameters,
        optimiser moments and RNG streams are always left in an
        epoch-boundary state — an emergency checkpoint written afterwards
        resumes bit-identically to a run that was told to train fewer
        epochs. The flag is cleared on the next ``pretrain`` call.
        """
        self._stop_requested = True

    def save_emergency_checkpoint(self, directory: str | Path) -> Path:
        """Write ``<directory>/emergency.npz`` from the current state.

        Meant for the way out of an interrupted run: the trainer only
        stops at epoch boundaries (see :meth:`request_stop`), so the
        emergency bundle resumes bit-identically to a shorter run. The
        write is atomic — a second interrupt mid-write leaves either the
        previous file or none, never a truncated bundle.
        """
        return self.save_checkpoint(Path(directory) / "emergency.npz",
                                    metadata={"emergency": True})

    def _run_epochs(self, batches: Callable[[], Iterable], step: Callable,
                    epochs: int, module: Module, *, method: str,
                    policy: str, grad_clip: float | None, observer,
                    checkpoint_dir: str | Path | None,
                    save_every: int | None,
                    note: str = "") -> list[dict[str, float]]:
        """Train ``module`` for ``epochs`` epochs; returns the history.

        ``batches()`` runs once per epoch and ``self.optimizer.step`` is
        looked up on every step, so either may be replaced on the
        instance. ``note`` ends the warning of an epoch with no batch.
        """
        obs = observer if observer is not None else current()
        parameters = module.parameters()
        guard = NumericsGuard(policy=policy, grad_clip=grad_clip,
                              observer=obs)
        module.train()
        self._stop_requested = False
        for _ in range(epochs):
            if self._stop_requested:
                obs.event("pretrain_stopped", epochs_done=len(self.history))
                break
            epoch_stats: dict[str, list[float]] = {}
            num_batches = 0
            skipped_batches = 0
            started = time.perf_counter()
            with obs.span("pretrain/epoch"):
                for batch in batches():
                    with obs.span("pretrain/batch"):
                        with obs.span("pretrain/loss"):
                            loss, stats = step(batch)
                        if loss is None or not guard.check_loss(stats):
                            skipped_batches += 1
                            continue
                        self.optimizer.zero_grad()
                        with obs.span("pretrain/backward"):
                            loss.backward()
                        grad_norm = global_grad_norm(parameters)
                        if not guard.guard_gradients(parameters, grad_norm):
                            skipped_batches += 1
                            continue
                        if obs.enabled:
                            stats["grad_norm"] = grad_norm
                        with obs.span("pretrain/step"):
                            self.optimizer.step()
                    num_batches += 1
                    for key, value in stats.items():
                        epoch_stats.setdefault(key, []).append(value)
            summary = summarize_epoch(epoch_stats)
            if num_batches == 0:
                # A NaN loss (not 0.0) keeps the row well-formed for
                # `repro report` and never wins best-loss checkpointing.
                summary["loss"] = float("nan")
                warnings.warn(
                    f"epoch {len(self.history) + 1}: no batch was trained "
                    f"({skipped_batches} skipped{note})",
                    RuntimeWarning, stacklevel=3)
            summary["epoch"] = len(self.history) + 1
            summary["num_batches"] = num_batches
            summary["skipped_batches"] = skipped_batches
            summary["epoch_seconds"] = time.perf_counter() - started
            self.history.append(summary)
            obs.event("epoch", method=method, **summary)
            if checkpoint_dir is not None:
                self._checkpoint_epoch(Path(checkpoint_dir), summary["loss"],
                                       save_every)
        return self.history

    def _checkpoint_epoch(self, directory: Path, loss: float,
                          save_every: int | None) -> None:
        epoch = len(self.history)
        self.save_checkpoint(directory / "latest.npz")
        if save_every and epoch % save_every == 0:
            self.save_checkpoint(directory / f"epoch-{epoch:04d}.npz")
        if np.isfinite(loss) and loss < self._best_loss:
            self._best_loss = loss
            self.save_checkpoint(directory / "best.npz")


class SGCLTrainer(EpochLoop):
    """Owns an :class:`SGCLModel`, its optimiser, and the pre-training loop.

    Parameters
    ----------
    in_dim:
        Node feature dimension of the corpus.
    config:
        Hyper-parameters; ``config.seed`` seeds model init, shuffling and
        augmentation sampling independently.

    Example
    -------
    >>> trainer = SGCLTrainer(dataset.num_features, SGCLConfig(epochs=5))
    >>> history = trainer.pretrain(dataset.graphs)
    >>> embeddings = embed_dataset(trainer.encoder, dataset)
    """

    #: extra metadata every checkpoint bundle of this trainer carries
    _checkpoint_tags: dict = {}

    def __init__(self, in_dim: int, config: SGCLConfig | None = None):
        self.config = config or SGCLConfig()
        self.in_dim = in_dim
        root = np.random.default_rng(self.config.seed)
        self._init_rng = np.random.default_rng(root.integers(2 ** 63))
        self._shuffle_rng = np.random.default_rng(root.integers(2 ** 63))
        self._augment_rng = np.random.default_rng(root.integers(2 ** 63))
        self.model = SGCLModel(in_dim, self.config, rng=self._init_rng)
        self.optimizer = Adam(self.model.parameters(), lr=self.config.lr)
        self.history: list[dict[str, float]] = []

    # ------------------------------------------------------------------
    @property
    def encoder(self):
        """The pre-trained representation encoder ``f_k`` (downstream use)."""
        return self.model.encoder

    def _run(self, batches, step, epochs, method: str, **kwargs):
        """:meth:`_run_epochs` with this trainer's model and numerics."""
        return self._run_epochs(
            batches, step,
            epochs if epochs is not None else self.config.epochs,
            self.model, method=method, policy=self.config.numerics_policy,
            grad_clip=self.config.grad_clip, **kwargs)

    # ------------------------------------------------------------------
    def pretrain(self, graphs: Sequence[Graph], epochs: int | None = None, *,
                 checkpoint_dir: str | Path | None = None,
                 save_every: int | None = None,
                 observer=None) -> list[dict[str, float]]:
        """Run contrastive pre-training; returns per-epoch stats.

        Every history entry is one epoch row carrying the loss components
        (``loss``, ``loss_s``, ``loss_c``, ``loss_g``, ``theta_w``), the
        Lipschitz-constant summary (``k_v_mean/std/min/max``) and the
        realised augmentation strength (``drop_fraction``), plus the
        loop's counters and timing — so sensitivity benchmarks can plot
        curves without re-running, and resumed runs (the history is
        checkpointed) keep the full record. Batches with fewer than 2
        graphs are dropped (InfoNCE needs negatives). The guard
        (``config.numerics_policy``, ``config.grad_clip``), spans,
        ``epoch`` events (``method="SGCL"``), graceful stop and
        checkpoint policy are :class:`EpochLoop`'s.
        """
        config = self.config
        return self._run(
            lambda: graph_batches(graphs, config.batch_size,
                                  self._shuffle_rng,
                                  prefetch=config.prefetch_batches),
            lambda batch: self.model.loss(batch, self._augment_rng),
            epochs, "SGCL", observer=observer,
            checkpoint_dir=checkpoint_dir, save_every=save_every,
            note=f"; batch_size={config.batch_size} over {len(graphs)} "
                 f"graphs")

    def precompute_lipschitz(self, graphs: Sequence[Graph], *,
                             workers: int | None = None,
                             cache=None) -> list[np.ndarray]:
        """Per-node ``K_V`` of every graph under the current (frozen)
        generator, fanned out over worker processes and served from a
        :class:`repro.runtime.PrecomputeCache` by default.

        ``cache=None`` (the default) opens the cache at
        ``config.precompute_cache_dir`` — repeated sweeps over the same
        corpus with unchanged generator parameters become pure cache reads.
        Pass a :class:`~repro.runtime.PrecomputeCache` to use a specific
        location, or ``cache=False`` to force recomputation without one.

        Bit-identical to ``generator.node_constants(Batch([g]))`` graph by
        graph — parallelism and caching change wall-time, never numbers
        (cache keys pin graph content plus the generator's mode and
        parameter hash, so a stale hit is impossible). Used by diagnostics
        (``repro inspect``, Fig. 7) that sweep a corpus with fixed
        parameters; during pre-training the constants of course evolve
        with ``f_q`` and are computed per batch as before.
        """
        from ..runtime import PrecomputeCache, precompute_node_constants

        if cache is None and self.config.precompute_cache_dir:
            cache = PrecomputeCache(
                Path(self.config.precompute_cache_dir).expanduser())
        elif cache is False:
            cache = None
        return precompute_node_constants(self.model.generator, graphs,
                                         workers=workers, cache=cache)

    # ------------------------------------------------------------------
    # Persistence (see repro.serve.checkpoint for the bundle format)
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: str | Path,
                        metadata: dict | None = None) -> Path:
        """Write model + config + optimizer + RNG streams to ``path``."""
        from ..serve.checkpoint import save_checkpoint

        rng_state = {
            "shuffle": self._shuffle_rng.bit_generator.state,
            "augment": self._augment_rng.bit_generator.state,
        }
        return save_checkpoint(
            path, self.model, config=self.config, optimizer=self.optimizer,
            rng_state=rng_state,
            metadata={"history": self.history, **self._checkpoint_tags,
                      **(metadata or {})})

    @classmethod
    def from_checkpoint(cls, path: str | Path) -> "SGCLTrainer":
        """Rebuild a trainer whose continued ``pretrain`` is bit-identical
        to one that never stopped (parameters, optimizer moments and RNG
        streams are all restored). Subclasses rebuild an instance of their
        own class; :func:`repro.serve.load_trainer` picks the class from a
        bundle's metadata."""
        from ..serve.checkpoint import load_checkpoint

        checkpoint = load_checkpoint(path)
        config = checkpoint.config
        if config is None or checkpoint.in_dim is None:
            raise ValueError(
                "checkpoint lacks an SGCLConfig/in_dim; it was not written "
                f"by {cls.__name__}.save_checkpoint")
        trainer = cls(checkpoint.in_dim, config)
        checkpoint.restore(trainer.model, trainer.optimizer)
        if checkpoint.rng_state is not None:
            trainer._shuffle_rng.bit_generator.state = \
                checkpoint.rng_state["shuffle"]
            trainer._augment_rng.bit_generator.state = \
                checkpoint.rng_state["augment"]
        trainer.history = list(checkpoint.metadata.get("history", []))
        losses = [s.get("loss") for s in trainer.history
                  if s.get("loss") is not None
                  and np.isfinite(s.get("loss"))]  # NaN rows = empty epochs
        trainer._best_loss = min(losses, default=float("inf"))
        return trainer
