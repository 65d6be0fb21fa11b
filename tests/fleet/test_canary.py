"""CanaryController: deterministic slices, promotion, rollback, registry glue."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.fleet import (
    CanaryController,
    build_fleet,
    canary_fraction,
    deploy_canary_from_registry,
    fleet_from_registry,
)
from repro.gnn import GNNEncoder
from repro.serve import EmbeddingService, ModelRegistry, Telemetry, graph_digest
from repro.serve.checkpoint import load_checkpoint

FEATURES = 4  # matches the conftest corpus


class _FixedClockTelemetry(Telemetry):
    """Telemetry whose timers record a fixed duration, not wall time, so
    latency verdicts do not depend on how busy the machine is."""

    def __init__(self, seconds: float):
        super().__init__()
        self.seconds = seconds

    @contextmanager
    def timer(self, name: str):
        try:
            yield
        finally:
            self.observe(name, self.seconds)


def _fixed_clock_fleet(checkpoint, stable_seconds: float):
    router = build_fleet(checkpoint, 2, version="v1")
    for worker in router.workers:
        worker.stable.service.telemetry = _FixedClockTelemetry(stable_seconds)
    return router


def _fixed_clock_canary(bundle, seconds: float):
    return lambda: EmbeddingService(bundle.build_encoder(),
                                    telemetry=_FixedClockTelemetry(seconds))


def test_canary_fraction_is_deterministic_and_uniform():
    rng = np.random.default_rng(0)
    digests = [bytes(rng.integers(0, 256, size=32, dtype=np.uint8)).hex()
               for _ in range(500)]
    fractions = [canary_fraction(d) for d in digests]
    assert fractions == [canary_fraction(d) for d in digests]
    assert all(0.0 <= f < 1.0 for f in fractions)
    assert 0.3 < np.mean([f < 0.5 for f in fractions]) < 0.7


def test_healthy_canary_is_promoted(checkpoint, corpus, reference):
    bundle = load_checkpoint(checkpoint)
    with _fixed_clock_fleet(checkpoint, 1e-3) as router:
        router.deploy_canary(_fixed_clock_canary(bundle, 1e-3), "v2", 0.5)
        controller = CanaryController(router, min_graphs=8)
        assert controller.step() == "continue"  # warmup: no traffic yet
        for _ in range(3):
            router.embed(corpus)
        verdict, evidence = controller.evaluate()
        assert verdict == "healthy"
        assert evidence["latency_ratio"] == pytest.approx(1.0)
        assert controller.step() == "promote"
        assert router.canary_version is None
        result = router.embed_detailed(corpus)
        assert set(result.versions) == {"v2"}
        assert np.array_equal(result.embeddings, reference)
        # Nothing deployed: stepping again is a no-op.
        assert controller.step() == "continue"


def test_slow_canary_is_rolled_back(checkpoint, corpus, reference):
    """p95 above ``max_latency_ratio`` x the stable p95 is unhealthy, even
    when every row the canary served is correct."""
    bundle = load_checkpoint(checkpoint)
    with _fixed_clock_fleet(checkpoint, 1e-3) as router:
        router.deploy_canary(_fixed_clock_canary(bundle, 4e-3), "v2", 0.5)
        controller = CanaryController(router, min_graphs=8,
                                      max_latency_ratio=3.0)
        result = router.embed_detailed(corpus)
        assert np.array_equal(result.embeddings, reference)
        assert "v2" in set(result.versions)
        verdict, evidence = controller.evaluate()
        assert verdict == "unhealthy"
        assert evidence["failure_rate"] == 0.0
        assert evidence["latency_ratio"] == pytest.approx(4.0)
        assert controller.step() == "rollback"
        assert router.canary_version is None


class _BrokenEncoder:
    """Encoder stand-in whose forward pass always raises."""

    def eval(self):
        return self

    def graph_representations(self, graphs):
        raise RuntimeError("bad weights")


def test_failing_canary_is_rolled_back_and_contained(checkpoint, corpus,
                                                     reference):
    with build_fleet(checkpoint, 2, version="v1") as router:
        router.deploy_canary(
            lambda: EmbeddingService(GNNEncoder(
                FEATURES, 8, 2, rng=np.random.default_rng(99))), "v2", 0.5)
        # Sabotage every canary slot after deploy: requests on the canary
        # slice must fall back to stable, not fail.
        for worker in router.workers:
            worker.canary.service.encoder = _BrokenEncoder()
        result = router.embed_detailed(corpus)
        assert np.array_equal(result.embeddings, reference)
        assert set(result.versions) == {"v1"}  # every row fell back
        fallbacks = sum(w.telemetry.count("canary_fallbacks")
                        for w in router.workers)
        assert fallbacks > 0
        controller = CanaryController(router, min_graphs=8)
        verdict, evidence = controller.evaluate()
        assert verdict == "unhealthy"
        assert evidence["failure_rate"] > controller.max_failure_rate
        assert controller.step() == "rollback"
        assert router.canary_version is None
        after = router.embed_detailed(corpus)
        assert set(after.versions) == {"v1"}


def test_warmup_waits_for_traffic(checkpoint, corpus):
    bundle = load_checkpoint(checkpoint)
    with build_fleet(checkpoint, 2, version="v1") as router:
        router.deploy_canary(
            lambda: EmbeddingService(bundle.build_encoder()), "v2", 0.2)
        controller = CanaryController(router, min_graphs=10_000)
        router.embed(corpus)
        verdict, evidence = controller.evaluate()
        assert verdict == "warmup"
        assert evidence["canary_graphs"] < controller.min_graphs
        assert controller.step() == "continue"
        assert router.canary_version == "v2"


def test_controller_validates_thresholds(checkpoint):
    with build_fleet(checkpoint, 1) as router:
        with pytest.raises(ValueError):
            CanaryController(router, min_graphs=0)
        with pytest.raises(ValueError):
            CanaryController(router, max_failure_rate=-0.1)
        with pytest.raises(ValueError):
            CanaryController(router, max_latency_ratio=0.0)


def test_registry_glue_roundtrip(tmp_path, corpus):
    registry = ModelRegistry(tmp_path / "models")
    enc1 = GNNEncoder(FEATURES, 8, 2, rng=np.random.default_rng(1))
    enc2 = GNNEncoder(FEATURES, 8, 2, rng=np.random.default_rng(2))
    registry.register("sgcl-v1", enc1)
    registry.register("sgcl-v2", enc2)
    with fleet_from_registry(registry, "sgcl-v1", 2) as router:
        assert {w.version for w in router.workers} == {"sgcl-v1"}
        deploy_canary_from_registry(router, registry, "sgcl-v2", 0.5)
        assert router.canary_version == "sgcl-v2"
        result = router.embed_detailed(corpus)
        ref1 = EmbeddingService(enc1).embed(corpus)
        ref2 = EmbeddingService(enc2).embed(corpus)
        for i, graph in enumerate(corpus):
            if canary_fraction(graph_digest(graph)) < 0.5:
                assert result.versions[i] == "sgcl-v2"
                assert np.array_equal(result.embeddings[i], ref2[i])
            else:
                assert result.versions[i] == "sgcl-v1"
                assert np.array_equal(result.embeddings[i], ref1[i])
