"""Reference figures behind the workload choices (recorded in README.md).

Usage (from the repository root; about five minutes on two cores)::

    python3 perfbench/reference.py [--seed 1]

Prints one JSON object:

* ``flat_vs_hnsw`` — set-up time, framework set-up (corpus encode + index
  build) and ask p50 on the ``dialogue`` corpus, flat against HNSW.
* ``batch_vs_serial`` — ``POST /search`` queries per second, batch-16 list
  bodies against one query per request, per framework and index.
* ``workers`` — ``served-mixed``-style throughput at ``workers=1`` against
  ``workers=2`` (JE over flat at the workload's size, JE over HNSW on a
  2 000-object corpus).
* ``mr_under_ingests`` — the ``served-mixed`` mix run with MR instead of JE:
  distinct reads whose top-k ids or order differ from a fresh no-write
  system, and whether an ingested id surfaced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import run

repro = run._import_program()

import workloads  # noqa: E402


def flat_vs_hnsw(seed: int) -> dict:
    from repro.data import Modality
    from repro.evaluation.workloads import refinement_scripts

    out = {}
    for index in ("flat", "hnsw"):
        config = repro.MQAConfig(
            dataset=repro.DatasetSpec(domain=workloads.DIALOGUE["domain"],
                                      size=workloads.DIALOGUE["size"], seed=seed),
            index=index,
        )
        t0 = time.perf_counter()
        system = repro.MQASystem.from_config(config)
        setup = time.perf_counter() - t0
        texts = {str(s.initial.raw.get(Modality.TEXT))
                 for s in refinement_scripts(system.kb, 400, k=5, seed=seed)}
        latencies = []
        for text in sorted(texts):
            system.reset_dialogue()
            t0 = time.perf_counter()
            system.ask(text)
            latencies.append((time.perf_counter() - t0) * 1000.0)
        out[index] = {
            "setup_s": round(setup, 2),
            "framework_setup_s": round(system.coordinator.execution.framework.setup_seconds, 2),
            "ask_p50_ms": round(statistics.median(latencies), 3),
            "asks": len(latencies),
        }
    return out


def batch_vs_serial(seed: int, queries: int = 320, batch: int = 16) -> dict:
    out = {}
    for framework in ("must", "mr", "je"):
        for index in ("flat", "hnsw", "starling"):
            config = repro.MQAConfig(
                dataset=repro.DatasetSpec(domain=workloads.BULK["domain"],
                                          size=workloads.BULK["size"], seed=seed),
                framework=framework, index=index,
            )
            server, kb = workloads._apply(repro, config, workers=1)
            stream = workloads.bulk_queries(kb, seed)
            specs = [next(stream)[0] for _ in range(2 * queries)]
            t0 = time.perf_counter()
            for spec in specs[:queries]:
                server.handle("POST", "/search", {"queries": [spec], "k": 10})
            serial = queries / (time.perf_counter() - t0)
            t0 = time.perf_counter()
            for start in range(queries, 2 * queries, batch):
                server.handle("POST", "/search",
                              {"queries": specs[start:start + batch], "k": 10})
            batched = queries / (time.perf_counter() - t0)
            server.close()
            out[f"{framework}/{index}"] = {
                "serial_qps": round(serial, 1), f"batch{batch}_qps": round(batched, 1),
                "speedup": round(batched / serial, 2),
            }
    return out


def _served_throughput(config, seed: int, seconds: float):
    server, kb = workloads._apply(repro, config, workers=config.workers)
    for _ in range(workloads.SERVED["sessions"] - 1):
        server.handle("POST", "/session/new")
    order, _, write_half = workloads.served_inputs(kb, seed)
    try:
        outcome = workloads._run_served_phase(
            server, order, write_half, seed, seconds, workloads.Clock())
    finally:
        server.close()
    return outcome


def workers(seed: int, seconds: float = 10.0) -> dict:
    out = {}
    for index, size in (("flat", workloads.SERVED["size"]), ("hnsw", 2000)):
        for count in (1, 2):
            config = repro.MQAConfig(
                dataset=repro.DatasetSpec(domain=workloads.SERVED["domain"], size=size,
                                          seed=seed),
                framework="je", index=index, cost_accounting=True, workers=count,
            )
            outcome = _served_throughput(config, seed, seconds)
            out[f"je/{index}/n={size}/workers={count}"] = round(outcome.ops / outcome.seconds, 1)
    return out


def mr_under_ingests(seed: int, seconds: float = 10.0) -> dict:
    config = repro.MQAConfig(
        dataset=repro.DatasetSpec(domain=workloads.SERVED["domain"],
                                  size=workloads.SERVED["size"], seed=seed),
        framework="mr", index="flat", cost_accounting=True, workers=2,
    )
    server, kb = workloads._apply(repro, config, workers=2)
    reference, _ = workloads._apply(repro, config, workers=2)
    for _ in range(workloads.SERVED["sessions"] - 1):
        server.handle("POST", "/session/new")
    order, _, write_half = workloads.served_inputs(kb, seed)
    try:
        outcome = workloads._run_served_phase(
            server, order, write_half, seed, seconds, workloads.Clock())
        fresh = workloads.fresh_references(reference, outcome.reads)
    finally:
        server.close()
        reference.close()
    changed, reordered, surfaced = set(), set(), 0
    written = set(outcome.writes)
    for read in outcome.reads:
        if read["kind"] != "query":
            continue
        expected = fresh[read["text"]]
        if read["ids"] != expected:
            changed.add(read["text"])
            if set(read["ids"]) == set(expected):
                reordered.add(read["text"])
        surfaced += bool(written & set(read["ids"]))
    return {
        "distinct_reads": len(fresh), "distinct_reads_changed": len(changed),
        "of_which_same_ids_reordered": len(reordered),
        "reads_with_ingested_id": surfaced, "ingests": len(written),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    figures = {
        "flat_vs_hnsw": flat_vs_hnsw(args.seed),
        "batch_vs_serial": batch_vs_serial(args.seed),
        "workers": workers(args.seed),
        "mr_under_ingests": mr_under_ingests(args.seed),
    }
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
