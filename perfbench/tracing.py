"""Per-layer attribution measured from outside the program.

:class:`LayerTracer` wraps the public functions of each ``repro`` layer
(the table in ``LAYERS``) and records one span per call: name, start,
end and the index of the enclosing wrapped call. A span's *self* time is
its duration minus the durations of its wrapped children, so the self
times of all spans sum to the time covered by top-level spans; whatever
the traced window spent outside any wrapped call is reported as
unattributed. Module-level functions are patched at every ``from x
import f`` site in ``sys.modules`` (``graph_digest`` lives in both
``serve.service`` and ``fleet.router``, ``corpus_statistics`` in
``ingest.store`` and ``ingest.refresh``), methods on their class.
Everything is restored by :meth:`LayerTracer.uninstall`.

Spans are kept in memory and written once, at the end, as a Chrome trace
through ``repro.obs.export.write_chrome_trace``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

# (metric name, defining module, attribute or Class.method). The metric
# name's first component is the layer of the prediction table in
# perfbench/README.md.
LAYERS = [
    ("tensor.Tensor.backward", "repro.tensor.tensor", "Tensor.backward"),
    ("core.augmentation.SGCLModel.generate_views", "repro.core.model",
     "SGCLModel.generate_views"),
    ("core.lipschitz.SGCLModel.semantic_scores", "repro.core.model",
     "SGCLModel.semantic_scores"),
    ("core.lipschitz.LipschitzConstantGenerator.node_constants",
     "repro.core.lipschitz", "LipschitzConstantGenerator.node_constants"),
    ("gnn.SGCLModel.anchor_embeddings", "repro.core.model",
     "SGCLModel.anchor_embeddings"),
    ("gnn.SGCLModel.view_embeddings", "repro.core.model",
     "SGCLModel.view_embeddings"),
    ("gnn.GNNEncoder.graph_representations", "repro.gnn.encoder",
     "GNNEncoder.graph_representations"),
    ("core.losses.graph_likelihood_loss", "repro.core.losses",
     "graph_likelihood_loss"),
    ("core.losses.semantic_info_nce", "repro.core.losses",
     "semantic_info_nce"),
    ("core.losses.complement_loss", "repro.core.losses", "complement_loss"),
    ("core.losses.weight_regularizer", "repro.core.losses",
     "weight_regularizer"),
    ("sampling.pretrain.node_info_nce", "repro.sampling.pretrain",
     "node_info_nce"),
    ("sampling.pretrain.node_contrastive_loss", "repro.sampling.pretrain",
     "node_contrastive_loss"),
    ("sampling.pretrain.NodeSGCLTrainer.pretrain", "repro.sampling.pretrain",
     "NodeSGCLTrainer.pretrain"),
    ("sampling.load_node_dataset", "repro.sampling.community",
     "load_node_dataset"),
    ("sampling.generate_community_graph", "repro.sampling.community",
     "generate_community_graph"),
    ("sampling.NodeDataset.csr", "repro.sampling.community",
     "NodeDataset.csr"),
    ("sampling.SubgraphStream.node_norms", "repro.sampling.stream",
     "SubgraphStream.node_norms"),
    ("sampling.SubgraphSampler.sample", "repro.sampling.samplers",
     "SubgraphSampler.sample"),
    ("sampling.induced_subgraph", "repro.sampling.samplers",
     "induced_subgraph"),
    ("graph.Batch.__init__", "repro.graph.batch", "Batch.__init__"),
    ("data.load_dataset", "repro.data.dataset", "load_dataset"),
    ("nn.Adam.step", "repro.nn.optim", "Adam.step"),
    ("validate.global_grad_norm", "repro.validate.numerics",
     "global_grad_norm"),
    ("core.trainer.SGCLTrainer.pretrain", "repro.core.trainer",
     "SGCLTrainer.pretrain"),
    ("core.trainer.SGCLTrainer.save_checkpoint", "repro.core.trainer",
     "SGCLTrainer.save_checkpoint"),
    ("serve.load_checkpoint", "repro.serve.checkpoint", "load_checkpoint"),
    ("serve.graph_digest", "repro.serve.service", "graph_digest"),
    ("serve.EmbeddingService.embed", "repro.serve.service",
     "EmbeddingService.embed"),
    ("fleet.build_fleet", "repro.fleet.router", "build_fleet"),
    ("fleet.FleetRouter.embed_detailed", "repro.fleet.router",
     "FleetRouter.embed_detailed"),
    ("fleet.FleetWorker.embed_items", "repro.fleet.worker",
     "FleetWorker.embed_items"),
    ("fleet.swap_fleet", "repro.ingest.refresh", "swap_fleet"),
    ("ingest.IngestPipeline.ingest", "repro.ingest.pipeline",
     "IngestPipeline.ingest"),
    ("ingest.DatasetStore.append", "repro.ingest.store",
     "DatasetStore.append"),
    ("ingest.DatasetStore.load", "repro.ingest.store", "DatasetStore.load"),
    ("ingest.corpus_statistics", "repro.ingest.drift", "corpus_statistics"),
    ("ingest.DriftDetector.check", "repro.ingest.drift",
     "DriftDetector.check"),
    ("ingest.RefreshController.refresh", "repro.ingest.refresh",
     "RefreshController.refresh"),
    ("ingest.register_trainer", "repro.ingest.refresh", "register_trainer"),
    ("runtime.precompute_node_constants", "repro.runtime.precompute",
     "precompute_node_constants"),
    ("io.fsync", "repro.data.io", "_FSYNC"),
]

# Call sites whose ``graph_digest`` calls count towards serve.digests_per_row
# (the router's and the service's; the store's digests are ingest work).
SERVING_DIGEST_SITES = ("repro.fleet.router", "repro.serve.service")

COUNTERS = [("validate.skipped_batches", "count"),
            ("serve.digests_per_row", "ratio"),
            ("serve.cache_hit_rate", "ratio"),
            ("fleet.invalidated_rows", "count"),
            ("runtime.cache_puts", "count"),
            ("io.atomic_write.calls", "count")]


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer produces, as ``(name, unit)``."""
    names = []
    for name, _, _ in LAYERS:
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return names + COUNTERS


class LayerTracer:
    """Span recorder over monkey-patched ``repro`` entry points."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []   # [span index, children's duration]
        self._active = True
        self._patches: list = []

    # ------------------------------------------------------------------
    def _span(self, name: str, fn, site: str | None = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [len(tracer.spans), 0.0]
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.spans[frame[0]] = (name, start, end, parent)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = (tracer.self_s.get(name, 0.0)
                                       + duration - frame[1])
                if stack:
                    stack[-1][1] += duration
                if site is not None:
                    tracer.count(f"site:{site}")
        return wrapper

    def _counting(self, name: str, fn, value=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer._active:
                tracer.count(name, 1 if value is None else value(result))
            return result
        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    def _patch_attr(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def _patch_everywhere(self, module_name: str, attr: str, make) -> None:
        """Patch a module-level function at every import site, the
        benchmark's own modules included."""
        original = getattr(importlib.import_module(module_name), attr)
        for name, module in list(sys.modules.items()):
            if getattr(module, "__dict__", {}).get(attr) is original:
                self._patch_attr(module, attr, lambda fn, site=name:
                                 make(fn, site))

    def install(self) -> "LayerTracer":
        for name, module_name, target in LAYERS:
            if "." in target:
                class_name, method = target.split(".")
                owner = getattr(importlib.import_module(module_name),
                                class_name)
                self._patch_attr(owner, method,
                                 lambda fn, name=name: self._span(name, fn))
            else:
                self._patch_everywhere(
                    module_name, target,
                    lambda fn, site, name=name: self._span(
                        name, fn,
                        site if name == "serve.graph_digest" else None))
        from repro.fleet.router import FleetRouter
        from repro.runtime.cache import PrecomputeCache
        from repro.validate.numerics import NumericsGuard

        for method in ("check_loss", "guard_gradients"):
            self._patch_attr(NumericsGuard, method, lambda fn: self._counting(
                "validate.skipped_batches", fn, lambda ok: int(not ok)))
        self._patch_attr(FleetRouter, "invalidate", lambda fn: self._counting(
            "fleet.invalidated_rows", fn, int))
        self._patch_attr(PrecomputeCache, "put", lambda fn: self._counting(
            "runtime.cache_puts", fn))
        self._patch_everywhere("repro.data.io", "atomic_write",
                               lambda fn, site: self._counting(
                                   "io.atomic_write.calls", fn))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Run a correctness check without recording it."""
        self._active = False
        started = time.perf_counter()
        try:
            yield
        finally:
            if self._stack:  # not the enclosing span's own time either
                self._stack[-1][1] += time.perf_counter() - started
            self._active = True

    # ------------------------------------------------------------------
    def metrics(self, served_rows: int, cache_hits: int,
                cache_lookups: int) -> dict[str, float]:
        """Per-layer metrics (see :func:`layer_metric_names`)."""
        out: dict[str, float] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name, _ in COUNTERS:
            out[name] = self.counts.get(name, 0)
        serving_digests = sum(self.counts.get(f"site:{site}", 0)
                              for site in SERVING_DIGEST_SITES)
        out["serve.digests_per_row"] = (serving_digests / served_rows
                                        if served_rows else 0.0)
        out["serve.cache_hit_rate"] = (cache_hits / cache_lookups
                                       if cache_lookups else 0.0)
        return out

    def attributed_s(self) -> float:
        """Total self time, i.e. the time covered by top-level spans."""
        return sum(self.self_s.values())

    def write_chrome_trace(self, path) -> None:
        """All spans as a Chrome trace (call after :meth:`uninstall`)."""
        from repro.obs.export import write_chrome_trace

        nodes = [SimpleNamespace(name=name, start=start,
                                 duration=end - start, error=None,
                                 children=[])
                 for name, start, end, _ in self.spans]
        roots = []
        for node, (_, _, _, parent) in zip(nodes, self.spans):
            (nodes[parent].children if parent >= 0 else roots).append(node)
        write_chrome_trace(path, tracer=SimpleNamespace(roots=roots))
