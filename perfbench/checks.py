"""Output checks shared by the workloads.

Each check returns a list of error strings; an empty list means the output
passed.  The references they compare against (exact scans, serial calls,
fresh systems) are computed by the workloads apart from the code path
under test.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence

_CITATION = re.compile(r"#(\d+)")


def distinct_live_ids(ids: Sequence[int], k: int, live: Iterable[int], where: str) -> List[str]:
    """Exactly ``k`` distinct ids, every one a live object."""
    errors = []
    if len(ids) != k:
        errors.append(f"{where}: {len(ids)} ids, expected {k}")
    if len(set(ids)) != len(ids):
        errors.append(f"{where}: duplicate id in {list(ids)}")
    dead = [i for i in ids if i not in live]
    if dead:
        errors.append(f"{where}: ids {dead} are not live objects")
    return errors


def grounded(text: str, flagged: bool, ids: Sequence[int], where: str) -> List[str]:
    """The answer cites at least one retrieved id and nothing else."""
    cited = {int(match) for match in _CITATION.findall(text)}
    errors = []
    if not flagged:
        errors.append(f"{where}: answer not flagged grounded")
    if not cited:
        errors.append(f"{where}: answer cites no retrieved object")
    stray = sorted(cited - set(ids))
    if stray:
        errors.append(f"{where}: answer cites {stray}, which it did not retrieve")
    return errors


def sorted_by_distance(scores: Sequence[float], where: str) -> List[str]:
    """Scores are distances: smaller first."""
    if any(b < a for a, b in zip(scores, scores[1:])):
        return [f"{where}: results not sorted by distance: {list(scores)}"]
    return []


def overlap_floor(found: Sequence[Sequence[int]], exact: Sequence[Sequence[int]],
                  floor: float) -> List[str]:
    """Mean top-k overlap with an exact scan is at least ``floor``."""
    if not found:
        return []
    shares = [len(set(a) & set(b)) / max(len(b), 1) for a, b in zip(found, exact)]
    mean = sum(shares) / len(shares)
    if mean < floor:
        return [f"mean overlap with the exact scan {mean:.3f} < {floor} "
                f"over {len(shares)} reads"]
    return []


def batched_equals_serial(batched: Sequence[Sequence[int]], serial: Sequence[Sequence[int]],
                          label: str = "batched ids differ from serial /search") -> List[str]:
    """Element-wise identical id lists."""
    differ = [i for i, (a, b) in enumerate(zip(batched, serial)) if list(a) != list(b)]
    if len(batched) != len(serial):
        return [f"{label}: {len(batched)} against {len(serial)} results"]
    if differ:
        first = differ[0]
        return [f"{label}: {len(differ)} of {len(batched)} differ, first "
                f"{list(batched[first])} against {list(serial[first])}"]
    return []


def new_distinct_ids(ingested: Sequence[int], initial_size: int) -> List[str]:
    """Every ingested id is new (past the initial corpus) and distinct."""
    errors = []
    if len(set(ingested)) != len(ingested):
        errors.append("an ingested id was returned twice")
    old = [i for i in ingested if i < initial_size]
    if old:
        errors.append(f"ingest returned existing ids {old[:5]}")
    return errors


def no_ingested_ids(reads: Sequence[Sequence[int]], ingested: Sequence[int]) -> List[str]:
    """No read returned an id that an ingest created."""
    written = set(ingested)
    hits = [i for i, ids in enumerate(reads) if written & set(ids)]
    if hits:
        return [f"{len(hits)} reads returned ingested ids (first read {hits[0]})"]
    return []
