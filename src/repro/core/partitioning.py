# reprolint: zone=deterministic
"""Stable-partition selection: ``choosePartition`` of Figure 7.

A partition's *loss* is the summed current degree of interaction across
parts — the error bound it introduces in the decomposed cost formula (2.1).
The chooser compares a baseline partition (the current one, restricted to
the new candidate set, plus singletons for new indices) against
``RAND_CNT`` randomized bottom-up merges, and returns the feasible partition
with the least loss.

Feasibility is the paper's ``Σ_m 2^|P_m| ≤ stateCnt`` bound plus a hard
per-part size cap that keeps any single WFA instance tractable.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..db.index import Index
from .bitset import IndexUniverse

__all__ = ["partition_loss", "pairwise_loss", "choose_partition", "state_count"]

DoiFunction = Callable[[Index, Index], float]

#: No part may exceed this many indices regardless of stateCnt (2^20 states
#: would be intractable for a single WFA instance).
MAX_PART_SIZE = 14


def state_count(parts: Sequence[AbstractSet[Index]]) -> int:
    """``Σ_m 2^|P_m|`` — the configurations WFIT would track."""
    return sum(1 << len(part) for part in parts)


def pairwise_loss(
    part_a: AbstractSet[Index], part_b: AbstractSet[Index], doi: DoiFunction
) -> float:
    """``loss({P_i, P_j})``: interaction mass between two parts."""
    total = 0.0
    for a in sorted(part_a):
        for b in sorted(part_b):
            total += doi(a, b)
    return total


def partition_loss(parts: Sequence[AbstractSet[Index]], doi: DoiFunction) -> float:
    """Total interaction mass ignored by the partition (lower is better)."""
    total = 0.0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            total += pairwise_loss(parts[i], parts[j], doi)
    return total


def _feasible(parts: Sequence[AbstractSet[Index]], state_cnt: int) -> bool:
    if any(len(part) > MAX_PART_SIZE for part in parts):
        return False
    return state_count(parts) <= state_cnt


def _randomized_merge(
    indices: Sequence[Index],
    state_cnt: int,
    doi: DoiFunction,
    rng: random.Random,
) -> List[FrozenSet[Index]]:
    """One randomized bottom-up merge pass (Figure 7, lines 9–18).

    Pair losses are maintained incrementally: merging parts i and j gives
    ``loss(i∪j, k) = loss(i, k) + loss(j, k)``, so only pairs that started
    with positive doi ever need tracking.

    Parts are int-encoded configurations over a local
    :class:`~repro.core.bitset.IndexUniverse`: a merge is one ``|``, a part
    size one popcount, and the feasibility bookkeeping never touches a set.
    """
    universe = IndexUniverse(indices)
    parts: Dict[int, int] = {
        k: 1 << universe.ensure(ix) for k, ix in enumerate(indices)
    }
    next_id = len(indices)
    ordered = list(indices)
    pair_loss: Dict[Tuple[int, int], float] = {}
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            value = doi(ordered[i], ordered[j])
            if value > 0.0:
                pair_loss[(i, j)] = value

    def total_states() -> int:
        return sum(1 << mask.bit_count() for mask in parts.values())

    while pair_loss:
        states = total_states()
        mergeable: List[Tuple[int, int, float]] = []
        for (i, j), loss in pair_loss.items():
            size_i = parts[i].bit_count()
            size_j = parts[j].bit_count()
            if size_i + size_j > MAX_PART_SIZE:
                continue
            new_states = states - (1 << size_i) - (1 << size_j) + (
                1 << (size_i + size_j)
            )
            if new_states <= state_cnt:
                mergeable.append((i, j, loss))
        if not mergeable:
            break
        singleton_pairs = [
            (i, j, loss)
            for i, j, loss in mergeable
            if parts[i].bit_count() == 1 and parts[j].bit_count() == 1
        ]
        if singleton_pairs:
            pool = singleton_pairs
            weights = [loss for _, _, loss in pool]
        else:
            pool = mergeable
            # Weight by loss per additional tracked state: favors merging
            # small, strongly interacting parts (Figure 7, line 17).
            weights = [
                loss
                / (
                    (1 << (parts[i].bit_count() + parts[j].bit_count()))
                    - (1 << parts[i].bit_count())
                    - (1 << parts[j].bit_count())
                )
                for i, j, loss in pool
            ]
        i, j, _ = rng.choices(pool, weights=weights)[0]
        merged_id = next_id
        next_id += 1
        parts[merged_id] = parts[i] | parts[j]
        del parts[i], parts[j]
        updated: Dict[Tuple[int, int], float] = {}
        for (x, y), loss in pair_loss.items():
            if x in (i, j) and y in (i, j):
                continue  # absorbed into the merged part
            if x in (i, j):
                key = (min(y, merged_id), max(y, merged_id))
                updated[key] = updated.get(key, 0.0) + loss
            elif y in (i, j):
                key = (min(x, merged_id), max(x, merged_id))
                updated[key] = updated.get(key, 0.0) + loss
            else:
                updated[(x, y)] = updated.get((x, y), 0.0) + loss
        pair_loss = updated
    return [universe.decode(mask) for mask in parts.values()]


def choose_partition(
    candidates: AbstractSet[Index],
    state_cnt: int,
    current_partition: Sequence[AbstractSet[Index]],
    doi: DoiFunction,
    rng: random.Random,
    rand_cnt: int = 100,
) -> List[FrozenSet[Index]]:
    """``choosePartition(D, stateCnt)`` (Figure 7).

    Returns a feasible partition of ``candidates`` minimizing loss across
    the baseline and ``rand_cnt`` randomized merge passes.
    """
    wanted = frozenset(candidates)
    if not wanted:
        return []
    if state_count([{ix} for ix in wanted]) > state_cnt:
        raise ValueError(
            f"stateCnt={state_cnt} cannot accommodate even singleton parts "
            f"for {len(wanted)} candidates"
        )

    # Evaluate doi once per pair; the randomized passes then only do dict
    # lookups (current-doi evaluation scans a history and is not free).
    ordered_all = sorted(wanted)
    matrix: dict = {}
    for i, a in enumerate(ordered_all):
        for b in ordered_all[i + 1:]:
            value = doi(a, b)
            if value > 0.0:
                matrix[(a, b)] = value

    def cached_doi(a: Index, b: Index) -> float:
        key = (a, b) if a <= b else (b, a)
        return matrix.get(key, 0.0)

    doi = cached_doi

    best: Optional[List[FrozenSet[Index]]] = None
    best_loss = float("inf")

    # Baseline: the current partition restricted to the new candidates, with
    # singleton parts for indices not previously monitored (lines 2–7).
    baseline: List[FrozenSet[Index]] = []
    covered: set = set()
    for part in current_partition:
        kept = frozenset(part) & wanted
        if kept:
            baseline.append(kept)
            covered.update(kept)
    for index in sorted(wanted - covered):
        baseline.append(frozenset({index}))
    if _feasible(baseline, state_cnt):
        best = baseline
        best_loss = partition_loss(baseline, doi)

    ordered = sorted(wanted)
    for _ in range(rand_cnt):
        parts = _randomized_merge(ordered, state_cnt, doi, rng)
        loss = partition_loss(parts, doi)
        if loss < best_loss or best is None:
            best = parts
            best_loss = loss
        if best_loss == 0.0:
            break
    if best is None:
        raise RuntimeError("partition search produced no candidate")
    return sorted(best, key=lambda p: sorted(p))
