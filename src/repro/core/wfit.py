# reprolint: zone=deterministic
"""WFIT: the end-to-end semi-automatic index tuning algorithm (§5).

WFIT wraps an array of per-part :class:`~repro.core.wfa.WFA` instances
(the WFA⁺ recommendation logic) with the two mechanisms WFA⁺ lacks:

* **Feedback** (Figure 4): positive/negative DBA votes switch each part's
  recommendation to the consistent configuration and raise work-function
  values so bound (5.1) holds — the state looks as if the *workload* had
  led WFIT to the voted configuration, which is what makes recovery from
  bad advice possible.
* **Automatic candidate maintenance** (Figures 5–7): per statement,
  ``chooseCands`` mines candidate indices, updates benefit/interaction
  statistics from the statement's IBG, picks the top candidates, and
  re-partitions them; ``repartition`` then rebuilds the WFA instances,
  initializing each new part's work function from the old ones so that no
  accumulated evidence is lost.

Passing ``fixed_partition`` disables candidate maintenance, yielding the
configuration most of the paper's experiments use (WFIT ≡ WFA⁺ + feedback).

Partition-parallel updates
--------------------------
The §4 stability condition makes per-part WFA state disjoint by
construction, so the per-statement work-function updates of different
parts are independent. With ``workers > 1`` (constructor knob, or the
``REPRO_WORKERS`` environment variable), :meth:`WFIT.analyze_statement`
splits each update into two phases: the shared-cache cost fetch
(:meth:`~repro.core.wfa.WFA.prepare_statement`) runs serially in fixed
part order — it touches the one shared what-if optimizer — and the pure
per-part kernel relaxation (:meth:`~repro.core.wfa.WFA.relax`) fans out
to a thread pool. Recommendations are then merged in fixed part order.
``workers=1`` (the default) is the bit-identical serial oracle; any
worker count produces exactly the same recommendations, work-function
vectors, and totWork, because the fanned-out phase touches only
per-part-owned kernel buffers (see :mod:`repro.core.wfa_kernel`'s
threading contract). Threads genuinely overlap only on the numpy kernel
backend, which releases the GIL inside its vector ops.
"""

from __future__ import annotations

import os
import random
import threading
import time

# Reporting-only wall-clock seam: every timing read in this module
# flows through this alias so the R1 exemption is a single audited
# point rather than scattered call sites.
_perf_counter = time.perf_counter  # reprolint: disable=R1(feeds wall_time reporting only, never tuning state; bit-identity tests cover outputs)
from concurrent.futures import ThreadPoolExecutor
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import obs
from ..db.index import Index
from ..ibg.analysis import degree_of_interaction, max_benefit
from ..ibg.graph import IndexBenefitGraph
from ..optimizer.extract import extract_indices
from ..optimizer.whatif import WhatIfOptimizer
from .bitset import delta_cost
from .candidates import IndexStatistics, top_indices
from .partitioning import choose_partition, state_count
from .wfa import WFA
from .wfa_plus import validate_partition

# Module-cached WFIT counters (statements analyzed, repartitions) on the
# default registry; lazy so importing this module registers nothing.
_WFIT_COUNTERS: List[object] = []


def _wfit_counters():
    if not _WFIT_COUNTERS:
        registry = obs.default_registry()
        _WFIT_COUNTERS.append(registry.counter(
            "repro_wfit_statements_total",
            help="Statements analyzed by WFIT.analyze_statement.",
        ))
        _WFIT_COUNTERS.append(registry.counter(
            "repro_wfit_repartitions_total",
            help="Stable-partition rebuilds (candidate churn).",
        ))
    return _WFIT_COUNTERS

__all__ = ["WFIT", "resolve_workers"]

#: Environment knob for the default per-part worker-pool size. ``workers``
#: passed to :class:`WFIT` (or :class:`~repro.service.engine.TuningEngine`)
#: wins over the environment; unset/empty means serial (1).
_WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: explicit value, else ``REPRO_WORKERS``,
    else 1 (the bit-identical serial mode)."""
    if workers is None:
        raw = os.environ.get(_WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{_WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


class WFIT:
    """The semi-automatic index advisor.

    Parameters
    ----------
    optimizer:
        The what-if interface (supplies ``cost`` and, in auto mode, the IBG).
    transitions:
        δ provider (``create_cost`` / ``drop_cost``).
    initial_config:
        ``S0``: indices materialized when tuning starts.
    idx_cnt / state_cnt / hist_size:
        The knobs of Figure 6 — bounds on monitored indices, tracked
        configurations ``Σ 2^|Ck|``, and per-statistic history length.
    rand_cnt:
        Randomized iterations inside ``choosePartition`` (Figure 7).
    fixed_partition:
        When given, candidate maintenance is disabled and recommendations
        are drawn from this stable partition for the whole workload (the
        §6.1 experimental configuration).
    assume_independence:
        The WFIT-IND variant: every candidate is kept in a singleton part
        and interaction statistics are ignored (``doi ≡ 0``).
    seed:
        Seed for the randomized partitioning.
    workers:
        Size of the per-part worker pool for the statement-update fan-out
        (None: ``REPRO_WORKERS``, else 1). Any value yields bit-identical
        results; 1 runs the serial oracle path with zero pool overhead.
        A runtime execution knob, not algorithm state — checkpoints do
        not serialize it.
    """

    def __init__(
        self,
        optimizer: WhatIfOptimizer,
        transitions,
        initial_config: AbstractSet[Index] = frozenset(),
        idx_cnt: int = 40,
        state_cnt: int = 500,
        hist_size: int = 100,
        rand_cnt: int = 100,
        fixed_partition: Optional[Sequence[AbstractSet[Index]]] = None,
        assume_independence: bool = False,
        seed: int = 0,
        max_ibg_nodes: int = 4096,
        create_penalty_factor: Optional[float] = None,
        partition_refresh_period: int = 10,
        workers: Optional[int] = None,
    ) -> None:
        self._optimizer = optimizer
        self._transitions = transitions
        self._initial_config = frozenset(initial_config)
        self.idx_cnt = idx_cnt
        self.state_cnt = state_cnt
        self.hist_size = hist_size
        self.rand_cnt = rand_cnt
        self.assume_independence = assume_independence
        self.create_penalty_factor = create_penalty_factor
        if partition_refresh_period < 1:
            raise ValueError("partition_refresh_period must be >= 1")
        self.partition_refresh_period = partition_refresh_period
        self._rng = random.Random(seed)
        self._max_ibg_nodes = max_ibg_nodes
        self._cost_fn = optimizer.cost
        # Partition-parallel fan-out state: the pool is created lazily on
        # the first parallel section (workers == 1 never builds one).
        self._workers = resolve_workers(workers)
        # _pool_lock covers the pool handle and the cumulative fan-out
        # accounting: close() may race the single writer's _relax_all
        # (engine.close() vs a draining pump), and parallel_stats() is a
        # public read path — without the lock it can observe a torn
        # wall/busy pair mid-update.
        self._pool_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None  # guarded-by: _pool_lock
        self._parallel_sections = 0  # guarded-by: _pool_lock
        self._parallel_wall_seconds = 0.0  # guarded-by: _pool_lock
        self._parallel_busy_seconds = 0.0  # guarded-by: _pool_lock

        self._n = 0  # statements analyzed so far
        # DBA-interaction recency: how many feedback calls have been
        # applied, and the statement count at the latest one. The
        # service layer's adoption-lag reporting (and the Figure 11
        # cross-check) read these; they never influence tuning.
        self._feedback_count = 0
        self._last_feedback_position: Optional[int] = None
        self.statistics = IndexStatistics(hist_size)
        self._universe: set = set(self._initial_config)  # U of Figure 6
        self.repartition_count = 0

        if fixed_partition is not None:
            parts = validate_partition(fixed_partition)
            candidates = frozenset().union(*parts) if parts else frozenset()
            stray = self._initial_config - candidates
            if stray:
                raise ValueError(
                    "initial config outside fixed partition: "
                    f"{sorted(ix.name for ix in stray)}"
                )
            self._auto = False
        else:
            # Figure 4 initialization: C = S0 with singleton parts.
            parts = tuple(
                frozenset({index}) for index in sorted(self._initial_config)
            )
            self._auto = True
        self._parts: List[FrozenSet[Index]] = list(parts)
        self._instances: List[WFA] = [
            WFA(sorted(part), self._initial_config & part, self._cost_fn, transitions)
            for part in self._parts
        ]

    # -- introspection -------------------------------------------------------

    @property
    def candidates(self) -> FrozenSet[Index]:
        """C: the union of all monitored parts."""
        if not self._parts:
            return frozenset()
        return frozenset().union(*self._parts)

    @property
    def partition(self) -> Tuple[FrozenSet[Index], ...]:
        return tuple(self._parts)

    @property
    def universe(self) -> FrozenSet[Index]:
        """U: every index ever seen (monitored or not)."""
        return frozenset(self._universe)

    @property
    def statements_analyzed(self) -> int:
        return self._n

    @property
    def feedback_count(self) -> int:
        """How many feedback (vote) calls have been applied."""
        return self._feedback_count

    @property
    def last_feedback_position(self) -> Optional[int]:
        """Statements analyzed when feedback last arrived (None: never)."""
        return self._last_feedback_position

    @property
    def feedback_lag(self) -> Optional[int]:
        """Statements analyzed since the last feedback (None: never any)."""
        if self._last_feedback_position is None:
            return None
        return self._n - self._last_feedback_position

    @property
    def tracked_states(self) -> int:
        return sum(instance.state_count for instance in self._instances)

    @property
    def kernel_backend(self) -> str:
        """The work-function kernel backend(s) the parts run on (mixed
        partitions report e.g. ``"numpy+python"``)."""
        from .wfa_kernel import combined_backend

        return combined_backend(self._instances)

    @property
    def workers(self) -> int:
        """Worker-pool size for the per-part statement-update fan-out."""
        return self._workers

    def parallel_stats(self) -> Dict[str, float]:
        """Cumulative fan-out accounting since construction.

        ``parallel_efficiency`` is busy-time over ``wall × workers`` across
        all parallel sections — 1.0 means every worker was saturated for
        the whole section, 1/workers means the fan-out bought nothing over
        serial (e.g. the pure-Python kernel backend, which holds the GIL).
        All zero until the first parallel section (``workers == 1`` never
        has one).
        """
        with self._pool_lock:
            wall = self._parallel_wall_seconds
            busy = self._parallel_busy_seconds
            sections = self._parallel_sections
        efficiency = busy / (wall * self._workers) if wall > 0.0 else 0.0
        return {
            "workers": self._workers,
            "parallel_sections": sections,
            "parallel_wall_seconds": wall,
            "parallel_busy_seconds": busy,
            "parallel_efficiency": efficiency,
        }

    def close(self) -> None:
        """Shut down the fan-out worker pool (idempotent).

        Only releases execution resources; the tuner remains fully usable
        afterwards — the next parallel section simply rebuilds the pool.
        """
        with self._pool_lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            # Shut down outside the lock: queued slice tasks can take
            # arbitrarily long and must not block parallel_stats() readers.
            pool.shutdown(wait=True)

    def recommend(self) -> FrozenSet[Index]:
        """``WFIT.recommend()``: the current recommendation ⋃_k currRec_k."""
        out: set = set()
        for instance in self._instances:
            out.update(instance.recommend())
        return frozenset(out)

    # -- statistics maintenance (updateStats of Figure 6) ------------------------

    def _update_statistics(self, statement: object, ibg: IndexBenefitGraph) -> FrozenSet[Index]:
        """Record β and doi for indices relevant to this statement."""
        relevant = frozenset(extract_indices(statement)) | ibg.all_used_indices()
        relevant &= ibg.candidates
        for index in sorted(relevant):
            beta = max_benefit(ibg, index)
            self.statistics.record_benefit(index, self._n, beta)
        if not self.assume_independence:
            ordered = sorted(relevant)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    if a.table != b.table:
                        continue  # cross-table doi is 0 in this cost model
                    doi = degree_of_interaction(ibg, a, b)
                    self.statistics.record_interaction(a, b, self._n, doi)
        return relevant

    # -- chooseCands (Figure 6) ---------------------------------------------------

    def _choose_candidates(self, statement: object) -> List[FrozenSet[Index]]:
        self._universe.update(extract_indices(statement))
        # Via the optimizer's per-statement IBG cache, so the WFA instances'
        # bulk costing reuses the same graph instead of re-optimizing.
        ibg = self._optimizer.statement_ibg(
            statement, frozenset(self._universe),
            max_nodes=self._max_ibg_nodes,
        )
        self._update_statistics(statement, ibg)

        materialized = set(self.recommend())
        pool = frozenset(self._universe) - materialized
        chosen = top_indices(
            pool,
            self.idx_cnt - len(materialized),
            self.candidates,
            self.statistics,
            self._n,
            self._transitions,
            create_penalty_factor=self.create_penalty_factor,
        )
        monitored = frozenset(materialized | set(chosen))

        if self.assume_independence:
            return [frozenset({index}) for index in sorted(monitored)]
        # The full randomized partition search runs when the monitored set
        # changed or every partition_refresh_period statements; in between,
        # the current grouping (restricted/extended to the monitored set) is
        # kept. This bounds choosePartition's overhead without changing the
        # configuration space WFIT draws from.
        refresh = (
            monitored != self.candidates
            or self._n % self.partition_refresh_period == 0
        )
        if not refresh:
            return list(self._parts)
        doi = self.statistics.doi_lookup(self._n)
        return choose_partition(
            monitored,
            self.state_cnt,
            self._parts,
            doi,
            self._rng,
            rand_cnt=self.rand_cnt,
        )

    # -- repartition (Figure 5) ------------------------------------------------------

    def _repartition(self, new_parts: Sequence[FrozenSet[Index]]) -> None:
        """Adopt a new stable partition, preserving work-function evidence."""
        materialized = self.recommend()
        new_candidates = (
            frozenset().union(*new_parts) if new_parts else frozenset()
        )
        uncovered = materialized - new_candidates
        if uncovered:
            raise ValueError(
                "new partition must cover materialized indices; missing "
                f"{sorted(ix.name for ix in uncovered)}"
            )
        old_candidates = self.candidates
        old_values: List[Dict[FrozenSet[Index], float]] = [
            instance.work_function() for instance in self._instances
        ]
        old_parts = list(self._parts)
        current_rec = materialized

        new_instances: List[WFA] = []
        for part in new_parts:
            ordered = sorted(part)
            values: Dict[FrozenSet[Index], float] = {}
            size = 1 << len(ordered)
            for mask in range(size):
                subset = frozenset(
                    ix for i, ix in enumerate(ordered) if mask & (1 << i)
                )
                total = 0.0
                for old_part, old_value in zip(old_parts, old_values):
                    if old_part & part:
                        total += old_value[subset & old_part]
                # Line 7 of Figure 5: account for creating indices that were
                # never monitored before (relative to the original S0).
                total += delta_cost(
                    self._transitions,
                    (self._initial_config & part) - old_candidates,
                    subset - old_candidates,
                )
                values[subset] = total
            new_instances.append(WFA(
                ordered,
                self._initial_config & part,
                self._cost_fn,
                self._transitions,
                work_values=values,
                recommendation=part & current_rec,
            ))
        self._parts = list(new_parts)
        self._instances = new_instances
        self.repartition_count += 1
        if obs.state.enabled:
            _wfit_counters()[1].inc()

    # -- the public interface (Figure 4) ------------------------------------------------

    def analyze_statement(self, statement: object) -> FrozenSet[Index]:
        """``WFIT.analyzeQuery(q)``: maintain candidates, then run WFA⁺.

        The per-part work-function updates run in two phases: the
        shared-cache cost fetch serially in fixed part order, then the
        per-part kernel relaxations — serially with ``workers == 1`` (the
        deterministic oracle), else fanned out to the worker pool.
        Recommendations merge in fixed part order either way, and the two
        paths are bit-identical (per-part state is disjoint under the §4
        stability condition).
        """
        self._n += 1
        with obs.span("wfit.analyze"):
            if self._auto:
                with obs.span("wfit.choose_candidates"):
                    new_parts = self._choose_candidates(statement)
                if sorted(map(sorted, new_parts)) != sorted(map(sorted, self._parts)):
                    self._repartition(new_parts)
            with obs.span("wfit.prepare"):
                for instance in self._instances:
                    instance.prepare_statement(statement)
            with obs.span("wfit.relax"):
                self._relax_all()
        if obs.state.enabled:
            _wfit_counters()[0].inc()
        return self.recommend()

    def _relax_all(self) -> None:
        """Run every part's kernel relaxation, fanned out when configured.

        Parts are dealt round-robin across ``workers`` slices (part ``i``
        to slice ``i mod workers``), one pool task per slice; each task
        relaxes its parts in ascending part order. The deal is purely an
        execution schedule — parts are state-disjoint, so any schedule
        yields the serial path's exact result. Worker exceptions propagate
        to the caller after all slices finish.
        """
        instances = self._instances
        if self._workers <= 1 or len(instances) <= 1:
            for instance in instances:
                instance.relax()
            return
        with self._pool_lock:
            pool = self._pool
            if pool is None:
                pool = self._pool = ThreadPoolExecutor(
                    max_workers=self._workers, thread_name_prefix="wfit-part"
                )
        slices = [
            instances[slot :: self._workers] for slot in range(self._workers)
        ]
        slices = [chunk for chunk in slices if chunk]
        busy = [0.0] * len(slices)

        def _run(slot: int, chunk: List[WFA]) -> None:
            started = _perf_counter()
            try:
                # Root span on the worker thread: shows up as its own tid
                # lane in the Chrome trace, aligned with the ingest
                # thread's wfit.relax span.
                with obs.span("wfit.relax_slice"):
                    for instance in chunk:
                        instance.relax()
            finally:
                busy[slot] = _perf_counter() - started

        wall_start = _perf_counter()
        futures = [
            pool.submit(_run, slot, chunk) for slot, chunk in enumerate(slices)
        ]
        error: Optional[BaseException] = None
        for future in futures:
            try:
                future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
        elapsed_wall = _perf_counter() - wall_start
        with self._pool_lock:
            self._parallel_sections += 1
            self._parallel_wall_seconds += elapsed_wall
            self._parallel_busy_seconds += sum(busy)
        if error is not None:
            raise error

    def feedback(
        self, f_plus: AbstractSet[Index], f_minus: AbstractSet[Index]
    ) -> FrozenSet[Index]:
        """``WFIT.feedback(F+, F−)``: apply DBA votes (Figure 4).

        Votes on indices outside the monitored set C cannot be represented
        in any part's configuration space; positive such votes are added to
        the universe U so the index can enter C at the next repartition.
        """
        plus = frozenset(f_plus)
        minus = frozenset(f_minus)
        if plus & minus:
            raise ValueError("F+ and F- must be disjoint")
        self._universe.update(plus)
        for instance in self._instances:
            instance.apply_feedback(plus, minus)
        self._feedback_count += 1
        self._last_feedback_position = self._n
        return self.recommend()

    def notify_materialized(self, created: AbstractSet[Index], dropped: AbstractSet[Index]) -> FrozenSet[Index]:
        """Implicit feedback: the DBA changed the physical configuration
        out-of-band (§3.1). Creates count as positive votes, drops negative."""
        return self.feedback(created, dropped)

    # -- checkpoint hooks ----------------------------------------------------

    #: Format version of :meth:`export_state` documents.
    STATE_VERSION = 1

    def export_state(self) -> Dict[str, object]:
        """The tuner's full mutable state as a JSON-ready document.

        Captures everything a peer needs to continue step-identically:
        the partition and per-part work-function values, candidate
        benefit/interaction statistics, the universe U, the randomized
        partitioner's RNG state, and the construction knobs. Restore with
        :meth:`restore_state` against an equivalent optimizer/δ provider.
        ``workers`` is deliberately *not* serialized: it is an execution
        knob with no effect on results, so a snapshot taken at any worker
        count restores onto any other (the restoring host picks its own
        pool size).
        """
        rng_version, rng_internal, rng_gauss = self._rng.getstate()
        return {
            "version": self.STATE_VERSION,
            "auto": self._auto,
            "statements_analyzed": self._n,
            "repartition_count": self.repartition_count,
            "feedback_count": self._feedback_count,
            "last_feedback_position": self._last_feedback_position,
            "options": {
                "idx_cnt": self.idx_cnt,
                "state_cnt": self.state_cnt,
                "hist_size": self.hist_size,
                "rand_cnt": self.rand_cnt,
                "assume_independence": self.assume_independence,
                "create_penalty_factor": self.create_penalty_factor,
                "partition_refresh_period": self.partition_refresh_period,
                "max_ibg_nodes": self._max_ibg_nodes,
            },
            "initial_config": [
                ix.to_payload() for ix in sorted(self._initial_config)
            ],
            "universe": [ix.to_payload() for ix in sorted(self._universe)],
            "rng_state": [rng_version, list(rng_internal), rng_gauss],
            "statistics": self.statistics.export_state(),
            "parts": [
                {
                    "indices": [ix.to_payload() for ix in sorted(part)],
                    "state": instance.export_state(),
                }
                for part, instance in zip(self._parts, self._instances)
            ],
        }

    @classmethod
    def restore_state(
        cls, optimizer: WhatIfOptimizer, transitions, state: Dict[str, object]
    ) -> "WFIT":
        """Rebuild a tuner from an :meth:`export_state` document.

        The optimizer and δ provider must be equivalent to the originals
        (same cost model and statistics): costs are deterministic functions
        of ``(statement, configuration)``, so an equivalent substrate plus
        this state yields step-identical recommendations.
        """
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported WFIT state version {version!r} "
                f"(expected {cls.STATE_VERSION})"
            )
        options = state["options"]
        initial = frozenset(
            Index.from_payload(p) for p in state["initial_config"]
        )
        parts = [
            frozenset(Index.from_payload(p) for p in item["indices"])
            for item in state["parts"]
        ]
        auto = bool(state["auto"])
        tuner = cls(
            optimizer,
            transitions,
            initial_config=initial,
            idx_cnt=int(options["idx_cnt"]),
            state_cnt=int(options["state_cnt"]),
            hist_size=int(options["hist_size"]),
            rand_cnt=int(options["rand_cnt"]),
            fixed_partition=None if auto else parts,
            assume_independence=bool(options["assume_independence"]),
            max_ibg_nodes=int(options["max_ibg_nodes"]),
            create_penalty_factor=options["create_penalty_factor"],
            partition_refresh_period=int(options["partition_refresh_period"]),
        )
        tuner._auto = auto
        tuner._n = int(state["statements_analyzed"])
        tuner.repartition_count = int(state["repartition_count"])
        tuner._feedback_count = int(state["feedback_count"])
        last_feedback = state["last_feedback_position"]
        tuner._last_feedback_position = (
            None if last_feedback is None else int(last_feedback)
        )
        tuner._universe = {
            Index.from_payload(p) for p in state["universe"]
        }
        tuner.statistics = IndexStatistics.from_state(state["statistics"])
        rng_version, rng_internal, rng_gauss = state["rng_state"]
        tuner._rng.setstate(
            (int(rng_version), tuple(int(v) for v in rng_internal), rng_gauss)
        )
        tuner._parts = list(parts)
        tuner._instances = []
        for part, item in zip(parts, state["parts"]):
            instance = WFA(
                sorted(part), initial & part, tuner._cost_fn, transitions
            )
            instance.load_state(item["state"])
            tuner._instances.append(instance)
        return tuner
