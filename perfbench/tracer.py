"""Span recording for the traced run.

The traced run wraps the public entry point of each ``repro`` module with
spans recorded here, in the benchmark's own process; the program itself is
not modified.  Spans stay in memory until the run ends, when
:meth:`Recorder.dump` writes them out and :func:`layer_metrics` turns them
into per-layer numbers.

A layer's self time is its span's duration minus the part of that interval
its child spans cover, so the self times of every span under one request
add up to that request's traced latency.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("sid", "parent", "root", "name", "t0", "t1", "counts")

    def __init__(self, sid: int, parent: "Optional[Span]", name: str, t0: float) -> None:
        self.sid = sid
        self.parent = parent
        self.root: Span = parent.root if parent is not None else self
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.counts: Optional[Dict[str, float]] = None

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    def add(self, key: str, value: float) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0.0) + value

    def within(self, layer: str) -> bool:
        """True when an ancestor span belongs to ``layer``."""
        node = self.parent
        while node is not None:
            if node.layer == layer:
                return True
            node = node.parent
        return False


class Recorder:
    """Thread-aware span recorder; spans nest per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span stack --------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: "Optional[Span]" = None, t0: Optional[float] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, parent, name, time.perf_counter() if t0 is None else t0)
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def count(self, key: str, value: float) -> None:
        """Add ``value`` to ``key`` on the current request's root span."""
        span = self.current()
        if span is not None:
            span.root.add(key, value)

    # -- installing wrappers ----------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> None:
        """Time every call of ``cls.attr`` as a span called ``name``."""
        original = cls.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
                return result
            finally:
                recorder.close(span)

        self._patch(cls, attr, wrapper)

    def wrap_function(self, function: Callable, name: str) -> None:
        """Time ``function`` wherever a ``repro`` module bound it by name."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(span)

        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patch(module, attr, wrapper)

    def count_method(self, cls: type, attr: str, counter: Callable[["Recorder", tuple, Any], None]) -> None:
        """Count calls of ``cls.attr`` without a span (hot, tiny calls).

        Only the outermost call on a thread counts, so a kernel method that
        delegates to another kernel method is one call.
        """
        original = cls.__dict__[attr]
        recorder = self
        local = self._local

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            depth = getattr(local, "count_depth", 0)
            local.count_depth = depth + 1
            try:
                result = original(*args, **kwargs)
            finally:
                local.count_depth = depth
            if depth == 0:
                counter(recorder, args, result)
            return result

        self._patch(cls, attr, wrapper)

    def wrap_submit(self, cls: type, attr: str = "submit") -> None:
        """Carry the submitting span into pool workers.

        The task runs as a child of the span that submitted it; the time it
        spent queued (waiting for a worker and the engine's locks) becomes a
        ``core.queue_wait`` span.
        """
        original = cls.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(engine, fn, *args, **kwargs):
            parent = recorder.current()
            submitted = time.perf_counter()
            caller = threading.get_ident()

            def task():
                if parent is None or threading.get_ident() == caller:
                    return fn()
                wait = recorder.open("core.queue_wait", parent=parent, t0=submitted)
                recorder.close(wait)
                stack = recorder._stack()
                stack.append(parent)
                try:
                    return fn()
                finally:
                    stack.pop()

            return original(engine, task, *args, **kwargs)

        self._patch(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.sid,
                            "parent": span.parent.sid if span.parent is not None else None,
                            "root": span.root.sid,
                            "name": span.name,
                            "t0": span.t0,
                            "t1": span.t1,
                            "counts": span.counts,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# the layer boundaries of repro
# ---------------------------------------------------------------------------
def _index_result(span: Span, args: tuple, result: Any) -> None:
    if span.within("index"):
        return
    results = result if isinstance(result, list) else [result]
    root = span.root
    for item in results:
        stats = item.stats
        root.add("hops", stats.hops)
        root.add("distance_evaluations", stats.distance_evaluations)
        root.add("block_reads", stats.block_reads)
        root.add("block_hits", stats.cache_hits)


def _retrieval_result(span: Span, args: tuple, result: Any) -> None:
    if span.within("retrieval"):
        return
    span.root.add("queries", len(result) if isinstance(result, list) else 1)


def _cache_result(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.count("cache_hits" if result is not None else "cache_misses", 1)


def _kernel_result(recorder: Recorder, args: tuple, result: Any) -> None:
    """One kernel call: distances it returned, bytes of its array inputs."""
    recorder.count("kernel_calls", 1)
    recorder.count("kernel_rows", int(np.size(result)))
    recorder.count("kernel_bytes", sum(a.nbytes for a in args[1:] if isinstance(a, np.ndarray)))


def install(recorder: Recorder) -> None:
    """Wrap each ``repro`` module's public entry points with spans."""
    import repro.core.cache as cache_mod
    import repro.core.concurrency as concurrency
    import repro.core.coordinator as coordinator
    import repro.core.execution as execution
    import repro.core.generation as generation
    import repro.core.session as session
    import repro.data as data
    import repro.data.knowledge_base as knowledge_base
    import repro.distance as distance
    import repro.encoders.base as encoders
    import repro.index as index
    import repro.index.base as index_base
    import repro.llm.base as llm_base
    import repro.observability.stats as stats
    import repro.retrieval as retrieval
    import repro.retrieval.fusion as fusion
    import repro.server.api as api
    import repro.weights.contrastive as contrastive

    recorder.wrap_function(data.generate_knowledge_base, "data:generate")
    recorder.wrap_method(knowledge_base.KnowledgeBase, "create_object", "data:create_object")
    for attr in ("encode_corpus", "encode_object", "encode_query", "encode_query_full",
                 "encode_query_batch"):
        recorder.wrap_method(encoders.EncoderSet, attr, f"encoders:{attr}")
    recorder.wrap_method(contrastive.VectorWeightLearner, "fit", "weights:fit")

    index_classes = {index_base.VectorIndex}
    for name in dir(index):
        value = getattr(index, name)
        if isinstance(value, type) and issubclass(value, index_base.VectorIndex):
            index_classes.add(value)
    for cls in index_classes:
        for attr in ("build", "add", "search", "search_batch"):
            if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False):
                on_result = _index_result if attr.startswith("search") else None
                recorder.wrap_method(cls, attr, f"index:{attr}", on_result)

    kernel_classes = {distance.SingleVectorKernel, distance.WeightedMultiVectorKernel,
                      distance.DistanceKernel}
    for cls in kernel_classes:
        for attr in ("batch", "batch_many", "batch_paired", "matrix", "single"):
            if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False):
                recorder.count_method(cls, attr, _kernel_result)

    for cls in (retrieval.MustRetrieval, retrieval.MultiStreamedRetrieval,
                retrieval.JointEmbeddingRetrieval):
        for attr in ("setup", "add_object", "retrieve", "retrieve_batch"):
            if attr in cls.__dict__:
                on_result = _retrieval_result if attr.startswith("retrieve") else None
                recorder.wrap_method(cls, attr, f"retrieval:{attr}", on_result)
    recorder.wrap_function(fusion.fuse_rankings, "fusion:fuse_rankings")

    for attr in ("ask", "refine"):
        recorder.wrap_method(session.DialogueSession, attr, f"core.session:{attr}")
    for attr in ("setup", "handle_query", "retrieve_batch", "ingest_object"):
        recorder.wrap_method(coordinator.Coordinator, attr, f"core.coordinator:{attr}")
    for attr in ("execute", "execute_batch"):
        recorder.wrap_method(execution.QueryExecution, attr, f"core.execution:{attr}")
    recorder.wrap_method(generation.AnswerGeneration, "generate", "core.generation:generate")
    for attr in ("acquire_read", "acquire_write"):
        recorder.wrap_method(concurrency.RWLock, attr, f"core.lock:{attr}")
    recorder.wrap_submit(concurrency.QueryEngine)
    recorder.count_method(cache_mod.QueryCache, "get", _cache_result)

    llm_classes = set()
    pending = list(llm_base.LanguageModel.__subclasses__())
    while pending:
        cls = pending.pop()
        llm_classes.add(cls)
        pending.extend(cls.__subclasses__())
    for cls in llm_classes:
        if "generate" in cls.__dict__:
            recorder.wrap_method(cls, "generate", "llm:generate")

    recorder.wrap_method(api.ApiServer, "handle", "server:handle")
    for attr in ("observe", "observe_batch"):
        recorder.wrap_method(stats.StatsPlane, attr, f"observability:{attr}")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
#: Per-read self-time groups: metric name -> span-name prefixes it covers.
READ_GROUPS = {
    "server.handle_self_ms": ("server:",),
    "core.session_self_ms": ("core.session:",),
    "core.coordinator_self_ms": ("core.coordinator:",),
    "core.execution_self_ms": ("core.execution:",),
    "core.generation_self_ms": ("core.generation:",),
    "llm.generate_ms": ("llm:",),
    "retrieval.retrieve_self_ms": ("retrieval:",),
    "retrieval.fuse_ms": ("fusion:",),
    "encoders.query_encode_ms": ("encoders:",),
    "index.search_self_ms": ("index:",),
    "observability.stats_observe_ms": ("observability:",),
    "bench.client_self_ms": ("bench:",),
}


def _self_times(spans: List[Span]) -> Dict[int, float]:
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.sid, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        end = span.t0
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.t0):
            lo = max(child.t0, end, span.t0)
            hi = min(child.t1, span.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[span.sid] = (span.t1 - span.t0) - covered
    return out


def _outermost(spans: List[Span], layer: str) -> List[Span]:
    return [s for s in spans if s.layer == layer and not s.within(layer)]


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """Per-layer numbers from the recorded spans.

    Set-up stages come from ``bench:setup`` trees, per-read numbers are
    means over ``bench:read`` trees and per-write numbers over
    ``bench:write`` trees.  Work counts are per retrieval query that
    reached the framework (cache hits excluded).
    """
    spans = list(recorder.spans)
    self_time = _self_times(spans)
    trees: Dict[int, List[Span]] = {}
    for span in spans:
        trees.setdefault(span.root.sid, []).append(span)
    roots = [s for s in spans if s.parent is None]
    setups = [r for r in roots if r.name == "bench:setup"]
    reads = [r for r in roots if r.name == "bench:read"]
    writes = [r for r in roots if r.name == "bench:write"]
    metrics: Dict[str, float] = {}

    setup_spans = [s for r in setups for s in trees[r.sid]]
    metrics["data.generate_s"] = sum(s.t1 - s.t0 for s in setup_spans if s.name == "data:generate")
    metrics["weights.fit_s"] = sum(s.t1 - s.t0 for s in _outermost(setup_spans, "weights"))
    metrics["encoders.corpus_encode_s"] = sum(
        s.t1 - s.t0 for s in _outermost(setup_spans, "encoders") if not s.within("weights")
    )
    metrics["index.build_s"] = sum(s.t1 - s.t0 for s in _outermost(setup_spans, "index"))

    n_reads = max(len(reads), 1)
    residual = 0.0
    for name in READ_GROUPS:
        metrics[name] = 0.0
    lock_ms = queue_ms = 0.0
    totals: Dict[str, float] = {}
    for root in reads:
        tree = trees[root.sid]
        total_self = 0.0
        for span in tree:
            own = self_time[span.sid]
            total_self += own
            for name, prefixes in READ_GROUPS.items():
                if span.name.startswith(prefixes):
                    metrics[name] += own * 1000.0
            if span.layer == "core.lock":
                lock_ms += own * 1000.0
            elif span.layer == "core.queue_wait":
                queue_ms += own * 1000.0
        residual = max(residual, abs(total_self - (root.t1 - root.t0)))
        for key, value in (root.counts or {}).items():
            totals[key] = totals.get(key, 0.0) + value
    for name in READ_GROUPS:
        metrics[name] /= n_reads
    write_lock_ms = write_queue_ms = 0.0
    metrics["index.add_ms"] = metrics["core.ingest_self_ms"] = metrics["data.create_object_ms"] = 0.0
    for root in writes:
        for span in trees[root.sid]:
            own = self_time[span.sid] * 1000.0
            if span.name == "core.coordinator:ingest_object":
                metrics["core.ingest_self_ms"] += own
            elif span.name == "data:create_object":
                metrics["data.create_object_ms"] += own
            elif span.layer == "core.lock":
                write_lock_ms += own
            elif span.layer == "core.queue_wait":
                write_queue_ms += own
        metrics["index.add_ms"] += sum(
            (s.t1 - s.t0) * 1000.0 for s in _outermost(trees[root.sid], "index")
        )
    n_writes = max(len(writes), 1)
    for name in ("index.add_ms", "core.ingest_self_ms", "data.create_object_ms"):
        metrics[name] /= n_writes
    n_ops = max(len(reads) + len(writes), 1)
    metrics["core.lock_wait_ms"] = (lock_ms + write_lock_ms) / n_ops
    metrics["core.queue_wait_ms"] = (queue_ms + write_queue_ms) / n_ops

    queries = totals.get("queries", 0.0)
    per_query = queries if queries else 1.0
    metrics["index.hops_per_query"] = totals.get("hops", 0.0) / per_query
    metrics["index.distance_evals_per_query"] = totals.get("distance_evaluations", 0.0) / per_query
    blocks = totals.get("block_reads", 0.0) + totals.get("block_hits", 0.0)
    metrics["index.block_reads_per_query"] = totals.get("block_reads", 0.0) / per_query
    metrics["index.block_hit_ratio"] = totals.get("block_hits", 0.0) / blocks if blocks else 0.0
    calls = totals.get("kernel_calls", 0.0)
    metrics["distance.kernel_calls_per_query"] = calls / per_query
    metrics["distance.rows_per_call"] = totals.get("kernel_rows", 0.0) / calls if calls else 0.0
    metrics["distance.bytes_per_query"] = totals.get("kernel_bytes", 0.0) / per_query
    lookups = totals.get("cache_hits", 0.0) + totals.get("cache_misses", 0.0)
    metrics["core.cache_hit_ratio"] = totals.get("cache_hits", 0.0) / lookups if lookups else 0.0
    metrics["trace.read_mean_ms"] = (
        sum(r.t1 - r.t0 for r in reads) * 1000.0 / n_reads
    )
    metrics["trace.self_sum_residual_ms"] = residual * 1000.0
    return metrics
