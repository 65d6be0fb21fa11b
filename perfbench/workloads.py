"""The four benchmark workloads, each run in one fresh process.

A workload function takes the seed, the amount of measured work, a fresh
temporary root and a :class:`Session`, and returns its raw samples: the
set-up time, items done over busy time, per-operation latencies, go-live
times, attempted and failed operations, correctness errors, and a
``fingerprint`` that must be identical across repetitions of one seed.
Correctness checks run inside ``session.check()``, which keeps them out
of every timing and out of the traced attribution.

Every repository module a workload uses is imported here, before any
clock starts. Nothing runs in worker processes or threads: no
``ProcessReplica``, no ``ParallelExecutor`` workers, no prefetch.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.core import SGCLConfig, SGCLTrainer
from repro.data import load_dataset
from repro.fleet import build_fleet
from repro.ingest import (DatasetStore, IngestPipeline, RefreshController,
                          read_live, register_trainer, swap_fleet)
from repro.runtime import ParallelExecutor
from repro.sampling import (NodeSGCLTrainer, SubgraphStream,
                            load_node_dataset, make_sampler)
from repro.serve import EmbeddingService, ModelRegistry, load_checkpoint

# The corpora are fixed; ``--seed`` drives model initialisation, shuffling,
# augmentation, subgraph sampling, request draws and ingest order, so runs
# with different seeds do the same amount of work.
DATA_SEED = 0
GOLIVES = 8                    # go-lives per repetition, spread over it
FLEET_WORKERS = 2
FLEET_CACHE_ROWS = 256
REQUEST_GRAPHS = 32
WARMUP_REQUESTS = 300
CHECK_EVERY = 25               # fleet requests between bit-identity checks
INGEST_GRAPHS = 64
SHIFT = 6.0                    # feature shift of every third ingest batch


def _steal_ticks() -> int:
    """Host steal time so far, in clock ticks (0 where unavailable)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else 0
    except (OSError, IndexError, ValueError):
        return 0


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


class Session:
    """Clock bookkeeping shared by a workload and the runner."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.check_s = 0.0
        self.host: dict[str, float] = {}

    @contextmanager
    def check(self):
        """Run correctness checks off the clock (and off the trace)."""
        started = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.paused():
                    yield
            else:
                yield
        finally:
            self.check_s += time.perf_counter() - started

    @contextmanager
    def measure(self):
        """The measured phase; records the host-noise sentinel over it."""
        steal, cpu = _steal_ticks(), _cpu_seconds()
        started = time.perf_counter()
        yield
        wall = time.perf_counter() - started
        self.host = {
            "host.steal_ms": ((_steal_ticks() - steal) * 1e3
                              / os.sysconf("SC_CLK_TCK")),
            "host.cpu_per_wall": (_cpu_seconds() - cpu) / wall,
        }


def _config(seed: int) -> SGCLConfig:
    # The K_V precompute cache stays off: nothing is written outside the
    # repetition's temporary root.
    return SGCLConfig(seed=seed, precompute_cache_dir=None)


def _numeric(history) -> list:
    """History rows without their wall-clock field."""
    return [{k: v for k, v in sorted(row.items()) if k != "epoch_seconds"}
            for row in history]


def _nonfinite_losses(history) -> list[str]:
    return [f"epoch {row['epoch']}: loss {row['loss']}"
            for row in history if not math.isfinite(row["loss"])]


def _cache_counts(router) -> tuple[int, int]:
    cache = router.stats()["cache"]
    return cache["hits"], cache["hits"] + cache["misses"]


class _GoLives:
    """Register → build a fleet → serve the first request, timed.

    This is the path from a trained model to rows served by it, which
    ``golive_p50_s`` measures on the pretrain workloads. It runs between
    optimiser steps, so its samples spread over the measured epochs.
    """

    def __init__(self, session, trainer, registry, request, prefix):
        self.session, self.trainer, self.registry = session, trainer, registry
        self.request, self.prefix = request, prefix
        self.times: list[float] = []
        self.errors: list[str] = []
        self.hits = self.lookups = 0

    def __call__(self) -> None:
        name = f"{self.prefix}-{len(self.times)}"
        started = time.perf_counter()
        path = register_trainer(self.registry, name, self.trainer)
        router = build_fleet(str(path), FLEET_WORKERS,
                             cache_size=FLEET_CACHE_ROWS)
        result = router.embed_detailed(self.request)
        self.times.append(time.perf_counter() - started)
        with self.session.check():
            if result.served_versions() != {name}:
                self.errors.append(f"go-live {name} served "
                                   f"{sorted(result.served_versions())}")
            hits, lookups = _cache_counts(router)
            self.hits += hits
            self.lookups += lookups
            router.close()


def _train_measured(trainer, data, epochs: int, steps_per_epoch: int,
                    golive: _GoLives) -> list[float]:
    """Train ``epochs`` epochs; returns every optimiser step's latency.

    A step's latency runs from the previous step's end (or the epoch's
    start), so collation and sampling count and the go-lives, which run
    after every ``steps / GOLIVES``-th step, do not.
    """
    every = max(1, epochs * steps_per_epoch // GOLIVES)
    latencies: list[float] = []
    clock = [0.0]
    step = trainer.optimizer.step

    def timed_step():
        step()
        latencies.append(time.perf_counter() - clock[0])
        if len(latencies) % every == 0:
            golive()
        clock[0] = time.perf_counter()
    trainer.optimizer.step = timed_step
    for _ in range(epochs):
        clock[0] = time.perf_counter()
        trainer.pretrain(data, epochs=1)
    del trainer.optimizer.step
    return latencies


def _pretrain_result(trainer, items, latencies, golive: _GoLives) -> dict:
    measured = trainer.history[1:]             # after the warm-up epoch
    attempted = sum(r["num_batches"] + r["skipped_batches"] for r in measured)
    return {
        "items": items, "busy_s": sum(latencies), "latencies": latencies,
        "golive": golive.times,
        "attempted": attempted + len(golive.times),
        "failed": (sum(r["skipped_batches"] for r in measured)
                   + len(golive.errors)),
        "errors": golive.errors + _nonfinite_losses(trainer.history),
        "fingerprint": _numeric(trainer.history),
        "served_rows": len(golive.request) * len(golive.times),
        "cache_hits": golive.hits, "cache_lookups": golive.lookups,
    }


# ----------------------------------------------------------------------
def graph_pretrain(seed: int, work: int, root, session: Session) -> dict:
    """Graph-level SGCL pretraining on PROTEINS (1113 graphs, batch 128)."""
    started = time.perf_counter()
    dataset = load_dataset("PROTEINS", seed=DATA_SEED, scale=1.0)
    trainer = SGCLTrainer(dataset.num_features, _config(seed))
    trainer.pretrain(dataset.graphs, epochs=1)
    setup_s = time.perf_counter() - started

    golive = _GoLives(session, trainer, ModelRegistry(root / "reg"),
                      dataset.graphs[:REQUEST_GRAPHS], "graph")
    steps = -(-len(dataset.graphs) // trainer.config.batch_size)
    with session.measure():
        latencies = _train_measured(trainer, dataset.graphs, work, steps,
                                    golive)
    result = _pretrain_result(trainer, len(dataset.graphs) * work, latencies,
                              golive)
    return {"setup_s": setup_s, **result}


def node_pretrain(seed: int, work: int, root, session: Session) -> dict:
    """Node-level SGCL on community-1m (10^6 nodes), walk sampler."""
    started = time.perf_counter()
    dataset = load_node_dataset("community-1m", seed=DATA_SEED, scale=1.0)
    stream = SubgraphStream(make_sampler("walk", dataset),
                            samples_per_epoch=64, batch_size=8, seed=seed,
                            executor=ParallelExecutor(workers=1))
    trainer = NodeSGCLTrainer(dataset.num_features, _config(seed))
    trainer.pretrain(stream, epochs=1)
    setup_s = time.perf_counter() - started

    nodes = [0]
    batches = stream.batches

    def counted(epoch=0):
        for batch, norms in batches(epoch=epoch):
            nodes[0] += batch.num_nodes
            yield batch, norms
    stream.batches = counted
    with session.check():
        request = list(itertools.islice(stream.subgraphs(epoch=0),
                                        REQUEST_GRAPHS))
    golive = _GoLives(session, trainer, ModelRegistry(root / "reg"), request,
                      "node")
    with session.measure():
        latencies = _train_measured(trainer, stream, work,
                                    stream.batches_per_epoch(), golive)
    result = _pretrain_result(trainer, nodes[0], latencies, golive)
    return {"setup_s": setup_s, **result}


def _zipf_requests(seed: int, corpus_size: int, count: int) -> np.ndarray:
    """``count`` requests of corpus indices with Zipf(1.1) popularity."""
    rng = np.random.default_rng([seed, 1])
    weights = np.arange(1, corpus_size + 1, dtype=float) ** -1.1
    weights /= weights.sum()
    popularity = rng.permutation(corpus_size)
    draws = rng.choice(corpus_size, size=count * REQUEST_GRAPHS, p=weights)
    return popularity[draws].reshape(count, REQUEST_GRAPHS)


def fleet_embed(seed: int, work: int, root, session: Session) -> dict:
    """Closed-loop 32-graph requests against a 2-worker in-process fleet."""
    started = time.perf_counter()
    dataset = load_dataset("PROTEINS", seed=DATA_SEED, scale=2.0)
    graphs = dataset.graphs
    registry = ModelRegistry(root / "reg")
    models = {}
    for offset, name in enumerate(("fleet-a", "fleet-b")):
        trainer = SGCLTrainer(dataset.num_features, _config(seed + offset))
        models[name] = register_trainer(registry, name, trainer)
    router, standby = (build_fleet(str(models["fleet-a"]), FLEET_WORKERS,
                                   cache_size=FLEET_CACHE_ROWS)
                       for _ in range(2))
    requests = _zipf_requests(seed, len(graphs), WARMUP_REQUESTS + work)
    for indices in requests[:WARMUP_REQUESTS]:
        router.embed_detailed([graphs[i] for i in indices])
    setup_s = time.perf_counter() - started

    reference = EmbeddingService(
        load_checkpoint(models["fleet-a"]).build_encoder())
    errors: list[str] = []
    latencies: list[float] = []
    golives: list[float] = []
    failed = rows = golive_rows = 0
    every = max(1, work // GOLIVES)
    with session.measure():
        for n, indices in enumerate(requests[WARMUP_REQUESTS:]):
            request = [graphs[i] for i in indices]
            if n % every == every - 1:
                # Go-live on the standby fleet, so the measured fleet's caches
                # stay as the request stream left them.
                name = ("fleet-b", "fleet-a")[len(golives) % 2]
                begun = time.perf_counter()
                swap_fleet(standby, models[name], name)
                result = standby.embed_detailed(request)
                golives.append(time.perf_counter() - begun)
                golive_rows += len(request)
                with session.check():
                    if result.served_versions() != {name}:
                        errors.append(f"swap to {name} served "
                                      f"{sorted(result.served_versions())}")
            begun = time.perf_counter()
            try:
                result = router.embed_detailed(request)
            except Exception as error:  # counted as failed, not fatal
                failed += 1
                print(f"request {n} failed: {error!r}", file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - begun)
            rows += len(request)
            if n % CHECK_EVERY == 0:
                with session.check():
                    if not np.array_equal(result.embeddings,
                                          reference.embed(request)):
                        errors.append(f"request {n}: fleet rows differ from a "
                                      f"single EmbeddingService")
    hits, lookups = _cache_counts(router)
    router.close()
    standby.close()
    return {
        "setup_s": setup_s, "items": rows, "busy_s": sum(latencies),
        "latencies": latencies, "golive": golives,
        "attempted": work + len(golives), "failed": failed,
        "errors": errors, "fingerprint": [rows, hits, lookups],
        "served_rows": rows + golive_rows + WARMUP_REQUESTS * REQUEST_GRAPHS,
        "cache_hits": hits, "cache_lookups": lookups,
    }


def ingest_refresh(seed: int, work: int, root, session: Session) -> dict:
    """Ingest 64-graph batches; every third one drifts and goes live.

    Drift cycle ``n`` ingests two new batches, ``2n + 1`` and ``2n + 2``,
    then shifted revisions (same graph ids) of batch ``2n``, which the
    live model was trained on and the fleet has cached: the refresh
    invalidates exactly those rows before it swaps the fleet.
    """
    started = time.perf_counter()
    dataset = load_dataset("PROTEINS", seed=DATA_SEED, scale=2.0)
    for index, graph in enumerate(dataset.graphs):
        graph.meta["graph_id"] = f"g{index}"
    order = np.random.default_rng([seed, 2]).permutation(len(dataset.graphs))
    batches = [[dataset.graphs[i] for i in order[start:start + INGEST_GRAPHS]]
               for start in range(0, len(order) - INGEST_GRAPHS + 1,
                                  INGEST_GRAPHS)]
    store = DatasetStore(root / "store")
    registry = ModelRegistry(root / "reg")
    controller = RefreshController(store, registry, epochs=1, window=2,
                                   config=_config(seed))
    pipeline = IngestPipeline(store, controller=controller)
    meta = {"name": "PROTEINS", "num_classes": dataset.num_classes,
            "task": dataset.task}
    pipeline.ingest(batches[0], **meta)
    live = controller.refresh()
    router = build_fleet(str(registry.path(live.model)), FLEET_WORKERS,
                         cache_size=FLEET_CACHE_ROWS)
    controller.router = router

    errors: list[str] = []
    latencies: list[float] = []
    golives: list[float] = []
    fingerprint: list = []
    counts = {"attempted": 0, "failed": 0, "graphs": 0, "busy": 0.0}

    def cycle(number: int, measured: bool) -> None:
        for position in range(3):
            graphs = batches[2 * number + 1 + position % 2]
            if position == 2:  # drifted revisions, alternating direction
                shift = SHIFT if number % 2 == 0 else -SHIFT
                graphs = [g.copy() for g in batches[2 * number]]
                for graph in graphs:
                    graph.x = graph.x + shift
            begun = time.perf_counter()
            report = pipeline.ingest(graphs, **meta)
            ingested = time.perf_counter()
            outcome = controller.refresh() if report.refresh_due else None
            finished = time.perf_counter()
            if outcome is not None:
                with session.check():
                    errors.extend(_check_golive(
                        store, router, outcome,
                        batches[2 * number + 2] + graphs))
            if not measured:
                continue
            counts["attempted"] += 1 + (outcome is not None)
            counts["busy"] += finished - begun
            counts["graphs"] += report.num_graphs
            latencies.append(ingested - begun)
            fingerprint.append([report.version, report.action])
            failed = report.dropped > 0 or not report.created
            if outcome is not None:
                golives.append(finished - begun)
                failed = failed or outcome.interrupted or outcome.model is None
            counts["failed"] += failed

    cycle(0, measured=False)
    setup_s = time.perf_counter() - started - session.check_s
    with session.measure():
        for number in range(1, work + 1):
            cycle(number, measured=True)
    router.close()
    if len(golives) != work:
        errors.append(f"{len(golives)} refreshes over {work} drift cycles")
    return {
        "setup_s": setup_s, "items": counts["graphs"],
        "busy_s": counts["busy"], "latencies": latencies,
        "golive": golives, "attempted": counts["attempted"],
        "failed": counts["failed"], "errors": errors,
        # The fleet is only read by the checks, off the clock.
        "fingerprint": fingerprint, "served_rows": 0,
        "cache_hits": 0, "cache_lookups": 0,
    }


def _check_golive(store, router, outcome, graphs) -> list[str]:
    """The store verifies, LIVE.json names the model, the fleet serves it
    (this read also fills the cache rows the next refresh invalidates)."""
    errors = []
    manifest = store.resolve(verify=True)
    if manifest["version"] != outcome.dataset_version:
        errors.append(f"store head {manifest['version']} != refreshed "
                      f"version {outcome.dataset_version}")
    live = read_live(store.root)
    if live is None or live["model"] != outcome.model:
        errors.append(f"LIVE.json names {live and live['model']}, "
                      f"expected {outcome.model}")
    served = router.embed_detailed(graphs).served_versions()
    if served != {outcome.model}:
        errors.append(f"fleet served {sorted(served)} after {outcome.model} "
                      f"went live")
    return errors


WORKLOADS = {
    "graph_pretrain": graph_pretrain,
    "node_pretrain": node_pretrain,
    "fleet_embed": fleet_embed,
    "ingest_refresh": ingest_refresh,
}
