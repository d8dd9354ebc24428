"""The three MQA workloads: inputs, closed-loop timed phase, output checks.

Every workload is a closed loop: a client sends its next request only after
the previous one returned.  Inputs come from ``--seed`` alone (the query
and write streams over a fixed corpus); the program only ever sees the
generated inputs.  The benchmark drives the system through public entry
points only (``MQASystem`` for ``dialogue``, ``ApiServer.handle`` for the
others).

* ``dialogue`` — one client, scripted ask -> select -> refine dialogues
  plus image+text asks on the shipped defaults (MUST over HNSW).
* ``bulk-search`` — one client, fixed-size ``POST /search`` list bodies of
  distinct queries, MR over Starling; the server under read sees no write.
* ``served-mixed`` — two clients against ``workers=2``, ``/query`` reads
  over sessions with every 20th operation an ``/ingest``, JE over flat
  with cost accounting on.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks
import tracer as tracing

#: Every workload serves the shipped default corpus seed; ``--seed`` drives
#: the query and write streams, so runs differ in inputs, not in corpus.
CORPUS_SEED = 7
#: Timed windows per untraced run, each on its own fresh set-up.
#: ``setup_s`` is the median over every set-up of the run, including the
#: untouched reference system of ``bulk-search`` and ``served-mixed``.
SETUP_REPS = 3
#: On the workloads whose reads see no writes, one ingest into the previous
#: window's system after every this many rounds (dialogue) or requests
#: (bulk-search) of the current window (``write_mean_ms``).
DIALOGUE_WRITE_EVERY = 15
BULK_WRITE_EVERY = 10
#: Ingests after the window when a run has only one (traced run, self-tests).
POST_WRITES = 40

DIALOGUE = {"domain": "fashion", "size": 1000, "k": 5}
BULK = {"domain": "products", "size": 1000, "k": 10, "batch": 2}
SERVED = {"domain": "scenes", "size": 4000, "k": 5, "sessions": 16, "ingest_every": 20}

#: One period of dialogue rounds; an int replays the round that many
#: positions back.  Per period: 17 reads, 5 of them replays (29%).
DIALOGUE_PATTERN = ("script", "script", 2, "composed", "script", 2, "script", "composed", 4,
                    "script")
#: Exact-scan overlap the approximate index must reach on average.
OVERLAP_FLOOR = 0.9
#: Reads sampled for exact-scan and batched-vs-serial comparisons.
EXACT_SAMPLE = 300
SERIAL_SAMPLE = 48

_TEMPLATES = (
    "i would like some images of {}",
    "could you find {} for me",
    "show me {}",
    "looking for {}",
)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------
class Clock:
    """Times client operations; in the traced phase each is a root span."""

    def __init__(self, recorder: Optional[tracing.Recorder] = None) -> None:
        self.recorder = recorder
        self.reads: List[float] = []
        self.writes: List[float] = []
        self._lock = threading.Lock()

    def op(self, kind: str) -> "_Op":
        return _Op(self, kind)


class _Op:
    __slots__ = ("clock", "kind", "t0", "span")

    def __init__(self, clock: Clock, kind: str) -> None:
        self.clock = clock
        self.kind = kind
        self.span = None

    def __enter__(self) -> "_Op":
        if self.clock.recorder is not None:
            self.span = self.clock.recorder.open(f"bench:{self.kind}")
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self.t0
        if self.span is not None:
            self.clock.recorder.close(self.span)
        if exc_type is None:
            with self.clock._lock:
                (self.clock.reads if self.kind == "read" else self.clock.writes).append(
                    elapsed * 1000.0
                )
        return False


@dataclass
class Outcome:
    """What one timed phase produced."""

    ops: int = 0
    failed: int = 0
    seconds: float = 0.0
    clock: Optional[Clock] = None
    reads: List[Dict[str, Any]] = field(default_factory=list)
    writes: List[int] = field(default_factory=list)


class Writer:
    """Timed ingests of three concepts each into one system whose reads are
    over and checked, so the system under read never sees a write."""

    def __init__(self, ingest: Callable[[List[str]], int], names: Sequence[str], rng,
                 clock: Clock, initial_size: int, release: Callable[[], None]) -> None:
        self.ingest, self.names, self.rng, self.clock = ingest, names, rng, clock
        self.initial_size = initial_size
        self.release = release
        self.ids: List[int] = []
        self.errors: List[str] = []
        self.seconds = 0.0

    def __call__(self) -> None:
        picks = self.rng.choice(len(self.names), size=3, replace=False)
        t0 = time.perf_counter()
        try:
            with self.clock.op("write"):
                self.ids.append(self.ingest([self.names[int(i)] for i in picks]))
        except Exception as exc:  # noqa: BLE001 - a failed write is counted, not fatal
            self.errors.append(f"ingest failed: {exc!r}")
        self.seconds += time.perf_counter() - t0


def _phrase(concepts: Sequence[str], rng) -> str:
    template = _TEMPLATES[int(rng.integers(len(_TEMPLATES)))]
    return template.format(" ".join(concepts))


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _recall(ids: Sequence[int], truth: Sequence[int]) -> float:
    return len(set(ids) & set(truth)) / max(len(truth), 1)


def _timed_build(build: Callable[[], Any], recorder=None):
    """One set-up (config to ready); returns (system, seconds)."""
    t0 = time.perf_counter()
    if recorder is not None:
        tracing.install(recorder)
        span = recorder.open("bench:setup")
        try:
            system = build()
        finally:
            recorder.close(span)
            recorder.uninstall()
    else:
        system = build()
    return system, time.perf_counter() - t0


@dataclass
class Drive:
    """Everything a run measured, across its set-ups and windows."""

    setup_seconds: List[float] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    write_clock: Optional[Clock] = None
    #: Ingests made through a :class:`Writer`, and how many of them failed.
    writes: int = 0
    write_failed: int = 0

    def retire(self, writer: Writer) -> None:
        """Count and check a writer's ingests, then release its system."""
        self.writes += len(writer.ids) + len(writer.errors)
        self.write_failed += len(writer.errors)
        self.errors += writer.errors + checks.new_distinct_ids(writer.ids, writer.initial_size)
        writer.release()


def _drive(build, phase, check, seconds: float, reps: int, recorder,
           writes_to: Optional[Callable[[Any, Clock], Writer]] = None) -> Drive:
    """Set-ups interleaved with timed windows.

    Untraced, the run sets up ``reps`` times and after each set-up times one
    window of ``seconds / reps`` on that system, so the timed phase is
    spread over the whole run and a slow stretch of a shared host weighs on
    one window rather than on all of it.  Traced, it sets up once (traced)
    and times an untraced half then a traced half.  ``phase(system,
    seconds, clock, writer)`` runs one window; ``check(system, outcomes)``
    checks that window's outputs and returns its errors.

    A workload whose reads must see no writes passes ``writes_to(system,
    clock)``, a :class:`Writer` into a system whose window is over and
    checked.  The client of window i interleaves that writer's ingests into
    system i-1, so write latency is sampled across the timed phase as read
    latency is, while the system under read never changes.  A run of one
    window (the traced run, the self-tests) ingests ``POST_WRITES`` times
    into its system after the window instead.
    """
    drive = Drive(write_clock=Clock(recorder))
    rounds = 1 if recorder is not None else reps
    writer: Optional[Writer] = None
    for _ in range(rounds):
        system, took = _timed_build(build, recorder)
        drive.setup_seconds.append(took)
        mine = []
        for traced, span in _phases(recorder is not None, seconds / rounds):
            clock = Clock(recorder if traced else None)
            if traced:
                tracing.install(recorder)
            try:
                mine.append(phase(system, span, clock, writer))
            finally:
                if traced:
                    recorder.uninstall()
        drive.outcomes += mine
        drive.errors += check(system, mine)
        if writes_to is not None:
            if writer is not None:
                drive.retire(writer)
            writer = writes_to(system, drive.write_clock)
    if writer is not None:
        if not drive.writes:
            if recorder is not None:
                tracing.install(recorder)
            try:
                for _ in range(POST_WRITES):
                    writer()
            finally:
                if recorder is not None:
                    recorder.uninstall()
        drive.retire(writer)
    return drive


def _interleave(writer: Optional[Writer], count: int, every: int) -> float:
    """One ingest after every ``every`` client operations; returns the
    seconds it took, which the window's throughput leaves out."""
    if writer is None or count % every:
        return 0.0
    spent = writer.seconds
    writer()
    return writer.seconds - spent


# ---------------------------------------------------------------------------
# exact references computed with numpy, apart from the program
# ---------------------------------------------------------------------------
def must_exact_topk(encoder_set, framework, objects, queries, k: int,
                    exclude: Sequence[Optional[int]]) -> List[List[int]]:
    """Exact top-k under MUST's weighted multi-vector distance."""
    corpus = encoder_set.encode_corpus(objects)
    weights = framework.weights
    out = []
    for query, drop in zip(queries, exclude):
        vectors = encoder_set.encode_query_full(query)
        distance = np.zeros(len(objects))
        for modality, matrix in corpus.items():
            diff = matrix - np.asarray(vectors[modality])[None, :]
            distance += weights[modality] * np.einsum("ij,ij->i", diff, diff)
        if drop is not None:
            distance[drop] = np.inf
        out.append([int(i) for i in np.argsort(distance, kind="stable")[:k]])
    return out


def mr_exact_topk(encoder_set, expansion: int, kb, queries, k: int) -> List[List[int]]:
    """Exact per-stream scans fused by reciprocal rank (constant 60)."""
    corpus = encoder_set.encode_corpus(list(kb))
    fetch = expansion * k
    out = []
    for query in queries:
        vectors = encoder_set.encode_query_full(query)
        scores: Dict[int, float] = {}
        for modality, vector in vectors.items():
            diff = corpus[modality] - np.asarray(vector)[None, :]
            ranking = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")[:fetch]
            for rank, object_id in enumerate(ranking):
                scores[int(object_id)] = scores.get(int(object_id), 0.0) + 1.0 / (61 + rank)
        ordered = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
        out.append([object_id for object_id, _ in ordered[:k]])
    return out


# ---------------------------------------------------------------------------
# dialogue
# ---------------------------------------------------------------------------
def _dialogue_config(repro, size: int):
    return repro.MQAConfig(
        dataset=repro.DatasetSpec(domain=DIALOGUE["domain"], size=size, seed=CORPUS_SEED)
    )


def dialogue_stream(kb, seed: int, periods: int):
    """The seeded sequence of dialogue rounds.

    Rounds follow ``DIALOGUE_PATTERN``: scripted ask -> select -> refine
    dialogues (``refinement_scripts``), image+text asks
    (``composed_queries``), and replays of an earlier round of the period,
    which the query cache can serve.  The pattern fixes the mix exactly;
    the seed picks the scripts, images and selections.
    """
    from repro.evaluation.workloads import composed_queries, refinement_scripts

    k = DIALOGUE["k"]
    kinds = [kind for kind in DIALOGUE_PATTERN if not isinstance(kind, int)]
    scripts = iter(refinement_scripts(kb, periods * kinds.count("script"), k=k, seed=seed))
    composed = iter(composed_queries(kb, periods * kinds.count("composed"), k=k, seed=seed))
    rng = np.random.default_rng([seed, 1])
    stream: List[Tuple] = []
    for _ in range(periods):
        for kind in DIALOGUE_PATTERN:
            if isinstance(kind, int):
                stream.append(stream[-kind])
            elif kind == "composed":
                stream.append(("composed", next(composed)))
            else:
                stream.append(("script", next(scripts), int(rng.integers(k))))
    return stream


def _dialogue_round(system, item, clock: Clock, outcome: Outcome) -> None:
    from repro.data import Modality, RawQuery

    system.reset_dialogue()
    if item[0] == "composed":
        query = item[1]
        text = str(query.raw.get(Modality.TEXT))
        image = query.raw.get(Modality.IMAGE)
        with clock.op("read"):
            answer = system.ask(text, image=image)
        outcome.ops += 1
        outcome.reads.append({
            "kind": "composed", "query": RawQuery.from_text_and_image(text, image),
            "ids": list(answer.ids), "text": answer.text, "grounded": answer.grounded,
            "truth": list(query.gt_ids), "exclude": None,
        })
        return
    _, script, rank = item
    text = str(script.initial.raw.get(Modality.TEXT))
    with clock.op("read"):
        answer = system.ask(text)
    outcome.ops += 1
    outcome.reads.append({
        "kind": "ask", "query": RawQuery.from_text(text), "ids": list(answer.ids),
        "text": answer.text, "grounded": answer.grounded,
        "truth": list(script.initial.gt_ids), "exclude": None,
    })
    selected = system.select(min(rank, len(answer.ids) - 1))
    with clock.op("read"):
        refined = system.refine(script.refinement_text)
    outcome.ops += 1
    from repro.core.execution import QueryExecution

    outcome.reads.append({
        "kind": "refine",
        "query": QueryExecution.augment_query(script.refinement_text, system.kb.get(selected)),
        "ids": list(refined.ids), "text": refined.text, "grounded": refined.grounded,
        "truth": ("refine", script, selected), "exclude": selected,
    })


def _run_dialogue_phase(system, stream, seconds: float, clock: Clock, start: int,
                        writer: Optional[Writer] = None) -> Tuple[Outcome, int]:
    outcome = Outcome(clock=clock)
    position = start
    writing = 0.0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        item = stream[position % len(stream)]
        position += 1
        writing += _interleave(writer, position, DIALOGUE_WRITE_EVERY)
        done = outcome.ops
        try:
            _dialogue_round(system, item, clock, outcome)
        except Exception as exc:  # noqa: BLE001 - a failed round is counted, not fatal
            outcome.failed += (2 if item[0] == "script" else 1) - (outcome.ops - done)
            outcome.reads.append({"kind": "error", "error": repr(exc)})
    outcome.seconds = time.perf_counter() - t0 - writing
    return outcome, position


def dialogue_truths(system, reads) -> None:
    for read in reads:
        if isinstance(read.get("truth"), tuple):
            _, script, selected = read["truth"]
            read["truth"] = script.refined_ground_truth(system.kb, selected)


def check_dialogue(ctx: Dict[str, Any], reads: List[Dict[str, Any]]) -> List[str]:
    """Distinct live ids, grounded answers, and HNSW top-k against an
    exact scan under MUST's weighted distance."""
    system = ctx["system"]
    k = DIALOGUE["k"]
    live = ctx["live"]
    errors: List[str] = []
    for i, read in enumerate(reads):
        if read["kind"] == "error":
            errors.append(f"read {i} failed: {read['error']}")
            continue
        errors += checks.distinct_live_ids(read["ids"], k, live, where=f"read {i}")
        errors += checks.grounded(read["text"], read["grounded"], read["ids"], where=f"read {i}")
    sample = [r for r in reads if r["kind"] != "error"][:EXACT_SAMPLE]
    if sample:
        coordinator = system.coordinator
        exact = must_exact_topk(
            coordinator.representation.encoder_set, coordinator.execution.framework,
            [system.kb.get(i) for i in sorted(live)], [r["query"] for r in sample], k,
            [r["exclude"] for r in sample],
        )
        errors += checks.overlap_floor([r["ids"] for r in sample], exact, OVERLAP_FLOOR)
    return errors


def run_dialogue(repro, seed: int, seconds: float, trace: bool, size: Optional[int],
                 setup_reps: int, trace_dir: Optional[Path]) -> Dict[str, Any]:
    size = size or DIALOGUE["size"]
    recorder = tracing.Recorder() if trace else None
    state: Dict[str, Any] = {"position": 0, "rng": np.random.default_rng([seed, 99])}

    def build():
        return repro.MQASystem.from_config(_dialogue_config(repro, size))

    def phase(system, span_seconds, clock, writer):
        if "stream" not in state:
            state["stream"] = dialogue_stream(system.kb, seed, periods=600)
        outcome, state["position"] = _run_dialogue_phase(
            system, state["stream"], span_seconds, clock, state["position"], writer)
        return outcome

    def check(system, outcomes):
        reads = [r for o in outcomes for r in o.reads]
        dialogue_truths(system, reads)
        state["ctx"] = ctx = {"system": system, "live": set(range(len(system.kb)))}
        return check_dialogue(ctx, reads)

    def writes_to(system, clock):
        return Writer(system.ingest, system.kb.space.names, state["rng"], clock,
                      len(system.kb), release=lambda: None)

    drive = _drive(build, phase, check, seconds, setup_reps, recorder, writes_to)
    reads = [r for o in drive.outcomes for r in o.reads]
    return _finish("dialogue", drive, reads, recorder, trace_dir, seed, state["ctx"])


# ---------------------------------------------------------------------------
# bulk-search
# ---------------------------------------------------------------------------
def _bulk_config(repro, size: int):
    return repro.MQAConfig(
        dataset=repro.DatasetSpec(domain=BULK["domain"], size=size, seed=CORPUS_SEED),
        framework="mr",
        index="starling",
    )


def bulk_queries(kb, seed: int):
    """An endless stream of distinct ``/search`` specs with their truths.

    Specs alternate between a text-only bag of three concepts and a corpus
    object's image plus one extra concept (``composed_queries``-style); no
    spec repeats, so the query cache never serves one.
    """
    from repro.data.datasets import DOMAINS

    k = BULK["k"]
    rng = np.random.default_rng([seed, 2])
    categories = list(DOMAINS[kb.name].values())
    names = kb.space.names
    seen = set()
    for position in itertools.count():
        for _ in range(1000):
            if position % 2 == 0:
                picks = rng.choice(len(categories), size=3, replace=False)
                concepts = [categories[int(c)][int(rng.integers(len(categories[int(c)])))]
                            for c in picks]
                spec = {"text": _phrase(concepts, rng)}
                truth_of = (concepts, ())
            else:
                reference = int(rng.integers(len(kb)))
                obj = kb.get(reference)
                pool = [n for n in names if n not in obj.concepts]
                extra = pool[int(rng.integers(len(pool)))]
                spec = {"text": extra, "reference_object_id": reference}
                truth_of = (list(obj.concepts) + [extra], (reference,))
            key = (spec["text"], spec.get("reference_object_id"))
            if key not in seen:
                break
        else:
            raise RuntimeError("bulk-search ran out of distinct queries")
        seen.add(key)
        concepts, exclude = truth_of
        yield spec, kb.ground_truth_for_concepts(concepts, k, exclude=exclude)


def _raw_query(kb, spec):
    from repro.data import Modality, RawQuery

    reference = spec.get("reference_object_id")
    if reference is None:
        return RawQuery.from_text(spec["text"])
    return RawQuery.from_text_and_image(spec["text"], kb.get(reference).get(Modality.IMAGE))


def _run_bulk_phase(server, queries, seconds: float, clock: Clock,
                    writer: Optional[Writer] = None) -> Outcome:
    outcome = Outcome(clock=clock)
    batch, k = BULK["batch"], BULK["k"]
    requests = 0
    writing = 0.0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        requests += 1
        writing += _interleave(writer, requests, BULK_WRITE_EVERY)
        members = [next(queries) for _ in range(batch)]
        body = {"queries": [spec for spec, _ in members], "k": k}
        with clock.op("read"):
            response = server.handle("POST", "/search", body)
        if not response.get("ok"):
            outcome.failed += batch
            outcome.reads.append({"kind": "error", "error": response.get("error")})
            continue
        outcome.ops += batch
        for (spec, truth), result in zip(members, response["results"]):
            outcome.reads.append({
                "kind": "search", "spec": spec, "truth": truth,
                "ids": [item["object_id"] for item in result["items"]],
                "scores": [item["score"] for item in result["items"]],
            })
    outcome.seconds = time.perf_counter() - t0 - writing
    return outcome


def serial_references(reference, reads: List[Dict[str, Any]]) -> Dict[int, List[int]]:
    """Serial single-query ``/search`` ids, on a system that served no
    other traffic, for an even sample of the batched reads."""
    good = [i for i, r in enumerate(reads) if r["kind"] != "error"]
    step = max(len(good) // SERIAL_SAMPLE, 1)
    serial = {}
    for i in good[::step][:SERIAL_SAMPLE]:
        response = reference.handle("POST", "/search", dict(reads[i]["spec"], k=BULK["k"]))
        serial[i] = ([item["object_id"] for item in response["result"]["items"]]
                     if response.get("ok") else [])
    return serial


def check_bulk(ctx: Dict[str, Any], reads: List[Dict[str, Any]]) -> List[str]:
    """Sorted distinct live lists, batched == serial ids on a sample, and
    overlap with exact per-stream scans fused by reciprocal rank."""
    k = BULK["k"]
    errors: List[str] = []
    for i, read in enumerate(reads):
        if read["kind"] == "error":
            errors.append(f"request failed: {read['error']}")
            continue
        errors += checks.distinct_live_ids(read["ids"], k, ctx["live"], where=f"query {i}")
        errors += checks.sorted_by_distance(read["scores"], where=f"query {i}")
    serial = ctx["serial"]
    errors += checks.batched_equals_serial([reads[i]["ids"] for i in serial],
                                           list(serial.values()))
    exact_sample = [r for r in reads if r["kind"] != "error"][:EXACT_SAMPLE]
    if exact_sample:
        from repro.encoders import build_encoder_set
        from repro.retrieval import MultiStreamedRetrieval

        kb, config = ctx["kb"], ctx["config"]
        exact = mr_exact_topk(
            build_encoder_set(config.encoder_set, kb, seed=config.encoder_seed),
            MultiStreamedRetrieval(**config.framework_params).expansion, kb,
            [_raw_query(kb, r["spec"]) for r in exact_sample], k,
        )
        errors += checks.overlap_floor([r["ids"] for r in exact_sample], exact, OVERLAP_FLOOR)
    return errors


def _apply(repro, config, workers: int):
    """Config to ready through the public API: generate the corpus, then
    ``POST /apply`` on a server that serves it."""
    from repro.server import ApiServer

    kb = repro.generate_knowledge_base(config.dataset)
    server = ApiServer(config, knowledge_base=kb, workers=workers)
    response = server.handle("POST", "/apply")
    if not response.get("ok"):
        server.close()
        raise RuntimeError(f"/apply failed: {response.get('error')}")
    return server, kb


def run_bulk(repro, seed: int, seconds: float, trace: bool, size: Optional[int],
             setup_reps: int, trace_dir: Optional[Path]) -> Dict[str, Any]:
    size = size or BULK["size"]
    config = _bulk_config(repro, size)
    recorder = tracing.Recorder() if trace else None
    rng = np.random.default_rng([seed, 99])

    def build():
        return _apply(repro, config, workers=1)

    # An untouched system answers the serial calls and carries the exact
    # scan's corpus; it is one more set-up sample.
    (reference, kb), took = _timed_build(build)
    queries = bulk_queries(kb, seed)
    live = set(range(len(kb)))

    def phase(system, span_seconds, clock, writer):
        return _run_bulk_phase(system[0], queries, span_seconds, clock, writer)

    def check(system, outcomes):
        return []  # against the reference system once every window is over

    def writes_to(system, clock):
        server, own = system
        return Writer(lambda concepts: _ingest(server, concepts), own.space.names, rng, clock,
                      len(own), release=server.close)

    try:
        drive = _drive(build, phase, check, seconds, setup_reps, recorder, writes_to)
        if recorder is None:
            drive.setup_seconds.append(took)
        reads = [r for o in drive.outcomes for r in o.reads]
        ctx = {"kb": kb, "config": config, "live": live,
               "serial": serial_references(reference, reads)}
    finally:
        reference.close()
    drive.errors += check_bulk(ctx, reads)
    return _finish("bulk-search", drive, reads, recorder, trace_dir, seed, ctx)


def _ingest(server, concepts: List[str]) -> int:
    response = server.handle("POST", "/ingest", {"concepts": list(concepts)})
    if not response.get("ok"):
        raise RuntimeError(f"/ingest failed: {response.get('error')}")
    return int(response["object_id"])


# ---------------------------------------------------------------------------
# served-mixed
# ---------------------------------------------------------------------------
def _served_config(repro, size: int):
    return repro.MQAConfig(
        dataset=repro.DatasetSpec(domain=SERVED["domain"], size=size, seed=CORPUS_SEED),
        framework="je",
        index="flat",
        cost_accounting=True,
        workers=2,
    )


def split_vocabulary(domain: str) -> Tuple[List[List[str]], List[List[str]]]:
    """Per-category halves: reads draw concepts from the first half of
    every category, ingests from the second, so an ingested object shares
    no concept with any read."""
    from repro.data.datasets import DOMAINS

    read_half, write_half = [], []
    for values in DOMAINS[domain].values():
        middle = len(values) // 2
        read_half.append(list(values[:middle]))
        write_half.append(list(values[middle:]))
    return read_half, write_half


def served_inputs(kb, seed: int, pool: int = 1000):
    """Distinct three-concept read texts (with truths) from the read half of
    the vocabulary, and the write half for the ingest stream."""
    read_half, write_half = split_vocabulary(kb.name)
    rng = np.random.default_rng([seed, 3])
    k = SERVED["k"]
    texts: Dict[str, List[int]] = {}
    for _ in range(50 * pool):
        picks = rng.choice(len(read_half), size=3, replace=False)
        concepts = [read_half[int(c)][int(rng.integers(len(read_half[int(c)])))] for c in picks]
        text = _phrase(concepts, rng)
        if text not in texts:
            texts[text] = kb.ground_truth_for_concepts(concepts, k)
            if len(texts) == pool:
                return list(texts), texts, write_half
    raise RuntimeError("served-mixed ran out of distinct read texts")


def _served_client(server, client: int, texts: List[str], write_half, seed: int,
                   seconds: float, clock: Clock, outcome: Outcome, t0: float) -> None:
    """One closed-loop client; stops after a whole round of ``ingest_every``
    operations."""
    every = SERVED["ingest_every"]
    sessions = [s for s in range(SERVED["sessions"]) if s % 2 == client]
    rng = np.random.default_rng([seed, 4, client])
    position = client * (len(texts) // 2)
    step = 0
    while time.perf_counter() - t0 < seconds:
        for slot in range(every):
            step += 1
            if slot == every - 1:
                picks = rng.choice(len(write_half), size=3, replace=False)
                concepts = [write_half[int(c)][int(rng.integers(len(write_half[int(c)])))]
                            for c in picks]
                try:
                    with clock.op("write"):
                        object_id = _ingest(server, concepts)
                except RuntimeError as exc:
                    outcome.failed += 1
                    outcome.reads.append({"kind": "error", "error": str(exc)})
                    continue
                outcome.ops += 1
                outcome.writes.append(object_id)
                continue
            text = texts[position % len(texts)]
            position += 1
            session = sessions[step % len(sessions)]
            with clock.op("read"):
                response = server.handle("POST", "/query", {"text": text, "session": session})
            if not response.get("ok"):
                outcome.failed += 1
                outcome.reads.append({"kind": "error", "error": response.get("error")})
                continue
            outcome.ops += 1
            outcome.reads.append({
                "kind": "query", "text": text,
                "ids": [item["object_id"] for item in response["answer"]["items"]],
            })


def _run_served_phase(server, texts, write_half, seed: int, seconds: float,
                      clock: Clock) -> Outcome:
    outcomes = [Outcome(clock=clock), Outcome(clock=clock)]
    t0 = time.perf_counter()
    errors: List[BaseException] = []

    def second_client():
        try:
            _served_client(server, 1, texts, write_half, seed, seconds, clock, outcomes[1], t0)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    worker = threading.Thread(target=second_client, name="served-client-1")
    worker.start()
    try:
        _served_client(server, 0, texts, write_half, seed, seconds, clock, outcomes[0], t0)
    finally:
        worker.join()
    if errors:
        raise errors[0]
    merged = Outcome(clock=clock, seconds=time.perf_counter() - t0)
    for part in outcomes:
        merged.ops += part.ops
        merged.failed += part.failed
        merged.reads += part.reads
        merged.writes += part.writes
    return merged


def fresh_references(reference, reads: List[Dict[str, Any]]) -> Dict[str, List[int]]:
    """Ids each distinct read text returns on a system that saw no writes."""
    fresh: Dict[str, List[int]] = {}
    for read in reads:
        if read["kind"] == "query" and read["text"] not in fresh:
            response = reference.handle("POST", "/query", {"text": read["text"]})
            fresh[read["text"]] = (
                [item["object_id"] for item in response["answer"]["items"]]
                if response.get("ok") else []
            )
    return fresh


def check_served(ctx: Dict[str, Any], reads: List[Dict[str, Any]],
                 ingested: List[int]) -> List[str]:
    """No ingested id in a read, ingested ids new and distinct, read ids
    equal a fresh no-write system's, and ``GET /stats`` counted every
    query issued."""
    k = SERVED["k"]
    errors: List[str] = []
    errors += checks.new_distinct_ids(ingested, ctx["initial_size"])
    good = [r for r in reads if r["kind"] != "error"]
    errors += checks.no_ingested_ids([r["ids"] for r in good], ingested)
    for i, read in enumerate(reads):
        if read["kind"] == "error":
            errors.append(f"operation failed: {read['error']}")
            continue
        errors += checks.distinct_live_ids(read["ids"], k, ctx["live"], where=f"read {i}")
    fresh = ctx["fresh"]
    errors += checks.batched_equals_serial(
        [r["ids"] for r in good], [fresh.get(r["text"], []) for r in good],
        label="read ids differ from a fresh no-write system",
    )
    if ctx["stats_queries"] != len(good):
        errors.append(f"GET /stats counted {ctx['stats_queries']} queries, {len(good)} issued")
    return errors


def run_served(repro, seed: int, seconds: float, trace: bool, size: Optional[int],
               setup_reps: int, trace_dir: Optional[Path]) -> Dict[str, Any]:
    size = size or SERVED["size"]
    config = _served_config(repro, size)
    recorder = tracing.Recorder() if trace else None

    def build():
        server, kb = _apply(repro, config, workers=2)
        for _ in range(SERVED["sessions"] - 1):
            server.handle("POST", "/session/new")
        return server, kb

    # A system that sees no writes answers every read text once at the end;
    # it is one more set-up sample.
    (reference, kb), took = _timed_build(build)
    initial_size = len(kb)
    order, truths, write_half = served_inputs(kb, seed)
    windows: List[Dict[str, Any]] = []

    def phase(system, span_seconds, clock, writer):
        return _run_served_phase(system[0], order, write_half, seed, span_seconds, clock)

    def check(system, outcomes):
        server = system[0]
        try:
            stats = server.handle("GET", "/stats")
        finally:
            server.close()
        reads = [r for o in outcomes for r in o.reads]
        for read in reads:
            if read["kind"] == "query":
                read["truth"] = truths[read["text"]]
        ingested = [i for o in outcomes for i in o.writes]
        windows.append({
            "reads": reads, "ingested": ingested,
            "stats_queries": stats["stats"]["queries"] if stats.get("ok") else None,
        })
        return []

    try:
        drive = _drive(build, phase, check, seconds, setup_reps, recorder)
        if recorder is None:
            drive.setup_seconds.append(took)
        reads = [r for w in windows for r in w["reads"]]
        fresh = fresh_references(reference, reads)
    finally:
        reference.close()
    for window in windows:
        window["ctx"] = ctx = {
            "initial_size": initial_size, "fresh": fresh,
            "live": set(range(initial_size)) | set(window["ingested"]),
            "ingested": window["ingested"], "stats_queries": window["stats_queries"],
        }
        drive.errors += check_served(ctx, window["reads"], window["ingested"])
    return _finish("served-mixed", drive, reads, recorder, trace_dir, seed,
                   windows[-1]["ctx"], windows[-1]["reads"])


# ---------------------------------------------------------------------------
# result assembly
# ---------------------------------------------------------------------------
def _phases(trace: bool, seconds: float) -> List[Tuple[bool, float]]:
    """Untraced runs time one phase; the traced run times an untraced half
    then a traced half of the same stream, for the tracing overhead."""
    if not trace:
        return [(False, seconds)]
    return [(False, seconds / 2.0), (True, seconds / 2.0)]


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def _finish(name, drive: Drive, reads, recorder, trace_dir, seed, ctx,
            record_reads=None) -> Dict[str, Any]:
    outcomes, errors, write_clock = drive.outcomes, drive.errors, drive.write_clock
    attempted = sum(o.ops + o.failed for o in outcomes) + drive.writes
    failed = sum(o.failed for o in outcomes) + drive.write_failed
    scored = [r for r in reads if r.get("kind") != "error" and "truth" in r]
    recall = (
        statistics.fmean(_recall(r["ids"], r["truth"]) for r in scored) if scored else 0.0
    )
    if recorder is None:
        read_ms = [v for o in outcomes for v in o.clock.reads]
        write_ms = write_clock.writes + [v for o in outcomes for v in o.clock.writes]
        metrics = {
            "setup_s": (statistics.median(drive.setup_seconds), "s"),
            "throughput_ops_s": (
                sum(o.ops for o in outcomes) / sum(o.seconds for o in outcomes), "ops/s"),
            "read_mean_ms": (statistics.fmean(read_ms), "ms"),
            "write_mean_ms": (statistics.fmean(write_ms), "ms"),
            "recall_at_k": (recall, "ratio"),
        }
    else:
        untraced, traced = outcomes
        layer = tracing.layer_metrics(recorder)
        untraced_p50 = _percentile(untraced.clock.reads, 50)
        traced_p50 = _percentile(traced.clock.reads, 50)
        layer["trace.untraced_read_p50_ms"] = untraced_p50
        layer["trace.traced_read_p50_ms"] = traced_p50
        layer["trace.overhead_read_p50_ms"] = traced_p50 - untraced_p50
        if layer["trace.self_sum_residual_ms"] > 1e-3:
            errors.append(
                f"self times miss a read's traced latency by "
                f"{layer['trace.self_sum_residual_ms']:.6f} ms"
            )
        metrics = {key: (value, _unit(key)) for key, value in sorted(layer.items())}
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            recorder.dump(trace_dir / f"{name}-seed{seed}.jsonl")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(v), "unit": u} for key, (v, u) in metrics.items()},
        "errors": errors,
        "record": {"ctx": ctx, "reads": reads if record_reads is None else record_reads},
    }


RUNNERS = {"dialogue": run_dialogue, "bulk-search": run_bulk, "served-mixed": run_served}
