"""Crash-safety guarantees that hold for every trainer on the shared loop:
node-level SGCL and the baselines stop, checkpoint and resume like
graph-level SGCL."""

from __future__ import annotations

import signal

import numpy as np
import pytest
from _helpers import make_path, make_triangle

from repro.baselines import GAE
from repro.cli import main
from repro.core import SGCLConfig
from repro.obs import Observer
from repro.resilience import resume_trainer
from repro.sampling import (
    NodeSGCLTrainer,
    SubgraphStream,
    load_node_dataset,
    make_sampler,
)
from repro.serve import load_checkpoint
from repro.serve.checkpoint import read_checkpoint_header
from repro.validate.faults import corrupt_checkpoint

NODE_ARGS = ["pretrain", "--node-level", "--dataset", "community-1m",
             "--scale", "0.0005", "--samples-per-epoch", "4",
             "--subgraph-batch", "2"]


class _StopAfter(Observer):
    """Observer that requests a graceful stop after N epoch events."""

    def __init__(self, trainer, epochs):
        super().__init__()
        self._trainer = trainer
        self._remaining = epochs

    def event(self, kind, **fields):
        if kind == "epoch":
            self._remaining -= 1
            if self._remaining == 0:
                self._trainer.request_stop()
        return super().event(kind, **fields)


def _comparable(history):
    return [{k: v for k, v in row.items()
             if k not in ("epoch_seconds", "grad_norm")}
            for row in history]


def _bundle(path):
    """(comparable history, model arrays) of a checkpoint bundle."""
    checkpoint = load_checkpoint(path)
    return (_comparable(checkpoint.metadata["history"]),
            checkpoint.model_state)


def _assert_same_run(path_a, path_b):
    history_a, state_a = _bundle(path_a)
    history_b, state_b = _bundle(path_b)
    assert history_a == history_b
    assert set(state_a) == set(state_b)
    assert all(np.array_equal(state_a[k], state_b[k]) for k in state_a)


@pytest.fixture
def graphs(rng):
    return [make_triangle(rng, y=i % 2) for i in range(4)] + \
        [make_path(rng, n=4 + i % 3, y=i % 2) for i in range(4)]


# ----------------------------------------------------------------------
# Node-level CLI: SIGINT -> exit 130 -> --resume, and corrupt latest.npz
# ----------------------------------------------------------------------
def test_node_level_sigint_then_resume_matches_uninterrupted(
        tmp_path, monkeypatch, capsys):
    reference = tmp_path / "reference"
    main(NODE_ARGS + ["--epochs", "3", "--checkpoint-dir", str(reference)])

    run = tmp_path / "run"
    batches = SubgraphStream.batches

    def interrupted(self, epoch=0):
        for position, item in enumerate(batches(self, epoch=epoch)):
            if epoch == 0 and position == 1:
                signal.raise_signal(signal.SIGINT)  # mid-epoch 1
            yield item

    with monkeypatch.context() as patch:
        patch.setattr(SubgraphStream, "batches", interrupted)
        with pytest.raises(SystemExit) as excinfo:
            main(NODE_ARGS + ["--epochs", "3",
                              "--checkpoint-dir", str(run)])
    assert excinfo.value.code == 130
    assert (run / "emergency.npz").exists()
    history, _ = _bundle(run / "emergency.npz")
    assert len(history) == 1  # epoch 1 finished, epoch 2 never started
    capsys.readouterr()

    main(NODE_ARGS + ["--epochs", "3", "--checkpoint-dir", str(run),
                      "--resume"])
    assert "resuming at epoch 2" in capsys.readouterr().out
    _assert_same_run(run / "latest.npz", reference / "latest.npz")


def test_node_level_resume_skips_truncated_latest(tmp_path, capsys):
    reference = tmp_path / "reference"
    main(NODE_ARGS + ["--epochs", "3", "--checkpoint-dir", str(reference)])

    run = tmp_path / "run"
    main(NODE_ARGS + ["--epochs", "2", "--checkpoint-dir", str(run)])
    corrupt_checkpoint(run / "latest.npz", mode="truncate")
    capsys.readouterr()

    main(NODE_ARGS + ["--epochs", "3", "--checkpoint-dir", str(run),
                      "--resume"])
    assert "resuming at epoch" in capsys.readouterr().out
    _assert_same_run(run / "latest.npz", reference / "latest.npz")


# ----------------------------------------------------------------------
# Trainer-level guarantees
# ----------------------------------------------------------------------
def test_resume_trainer_rebuilds_a_node_level_trainer(tmp_path):
    dataset = load_node_dataset("community-1m", seed=0, scale=0.0005)

    def stream():
        return SubgraphStream(
            make_sampler("walk", dataset, roots=8, walk_length=4),
            samples_per_epoch=4, batch_size=2, seed=1, norm_samples=10)

    config = SGCLConfig(hidden_dim=8, num_layers=2, seed=0)
    reference = NodeSGCLTrainer(dataset.num_features, config)
    reference.pretrain(stream(), epochs=2)

    first = NodeSGCLTrainer(dataset.num_features, config)
    first.pretrain(stream(), epochs=1, checkpoint_dir=tmp_path)
    resumed = resume_trainer(tmp_path)
    assert type(resumed) is NodeSGCLTrainer
    resumed.pretrain(stream(), epochs=1)
    assert _comparable(resumed.history) == _comparable(reference.history)
    for a, b in zip(reference.model.parameters(),
                    resumed.model.parameters()):
        assert np.array_equal(a.data, b.data)


def test_baseline_stops_at_epoch_boundary_and_writes_latest(graphs,
                                                            tmp_path):
    model = GAE(4, hidden_dim=8, num_layers=2, batch_size=4, seed=3)
    stopper = _StopAfter(model, epochs=1)
    history = model.pretrain(graphs, epochs=3, checkpoint_dir=tmp_path,
                             observer=stopper)
    assert len(history) == 1
    assert history[0]["epoch"] == 1 and np.isfinite(history[0]["loss"])
    header = read_checkpoint_header(tmp_path / "latest.npz")
    assert header["metadata"]["method"] == "GAE"
    assert len(header["metadata"]["history"]) == 1
    assert model.save_emergency_checkpoint(tmp_path).name == "emergency.npz"

    # A stopped baseline continues on the seeded trajectory.
    straight = GAE(4, hidden_dim=8, num_layers=2, batch_size=4, seed=3)
    straight.pretrain(graphs, epochs=2)
    model.pretrain(graphs, epochs=1)
    assert _comparable(model.history) == _comparable(straight.history)
