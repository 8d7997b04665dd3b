"""The WAL's priority encoding and its one replay path.

Submit records omit the ``priority`` key for the default class (the
compact encoding); such records must replay as ``normal`` — explicitly,
never through the session's *current* default, which may have changed by
replay time. Every non-empty micro-batch is logged as a ``drain`` record,
so replay re-forms each batch from the log alone; a log whose drains do
not reach a vote's or materialization's statement position is refused.
"""

from __future__ import annotations

import pytest

from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.service import Durability, TuningEngine
from repro.service.wal import WalError, WriteAheadLog, read_wal

SALES = "shop.sales"

ENGINE_OPTIONS = {"batch_size": 4, "idx_cnt": 8, "state_cnt": 64}


def narrow_sql(stats, column="amount", fraction=0.02, offset=0.0):
    col = stats.column_stats(SALES, column)
    lo = col.min_value + col.domain_width * offset
    hi = lo + col.domain_width * fraction
    return f"SELECT count(*) FROM shop.sales WHERE {column} BETWEEN {lo} AND {hi}"


def fresh_engine(stats) -> TuningEngine:
    return TuningEngine(
        WhatIfOptimizer(stats), StatsTransitionCosts(stats), **ENGINE_OPTIONS
    )


def recover(stats, directory):
    return Durability.recover(
        directory,
        WhatIfOptimizer(stats),
        StatsTransitionCosts(stats),
        engine_options=dict(ENGINE_OPTIONS),
    )


class TestMixedVersionWal:
    def test_priorityless_records_replay_as_normal(self, toy_stats, tmp_path):
        """Submit records without a priority key recover with every
        statement in the ``normal`` class."""
        wal = WriteAheadLog(tmp_path / "wal.log")
        for offset in (0.0, 0.1):
            wal.append("submit", {
                "client_id": "legacy",
                "sql": narrow_sql(toy_stats, offset=offset),
            })
        wal.append("submit_many", {"entries": [
            {"client_id": "legacy", "sql": narrow_sql(toy_stats, offset=0.2)},
        ]})
        wal.close()
        engine, report = recover(toy_stats, tmp_path)
        assert report["wal_replayed"] == 3
        assert engine.queue_depths == {
            "interactive": 0, "normal": 3, "background": 0,
        }
        assert engine.pump() == 3
        assert engine.session("legacy").statements_processed == 3

    def test_mixed_old_and_new_records(self, toy_stats, tmp_path):
        """Priority-less records interleaved with priority-tagged ones:
        the former land in ``normal``, the latter in their recorded
        class — regardless of any session default."""
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("submit", {
            "client_id": "legacy", "sql": narrow_sql(toy_stats),
        })
        wal.append("submit", {
            "client_id": "fg", "sql": narrow_sql(toy_stats, offset=0.1),
            "priority": "interactive",
        })
        wal.append("submit_many", {"entries": [
            {"client_id": "flood", "sql": narrow_sql(toy_stats, offset=0.2),
             "priority": "background"},
            {"client_id": "legacy", "sql": narrow_sql(toy_stats, offset=0.3)},
        ]})
        wal.close()
        engine, report = recover(toy_stats, tmp_path)
        assert report["wal_replayed"] == 2 + 1
        assert engine.queue_depths == {
            "interactive": 1, "normal": 2, "background": 1,
        }
        # Recovery restores the queue; a fresh pump drains in class order.
        engine.pump(1)
        assert engine.session("fg").statements_processed == 1

    def test_replay_ignores_current_session_default(self, toy_stats, tmp_path):
        """The absent-key default is the *record's* class (normal), not
        whatever the session's default priority is at replay time."""
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("submit", {
            "client_id": "c", "sql": narrow_sql(toy_stats),
        })
        wal.close()
        engine, _ = recover(toy_stats, tmp_path)
        # Even after the recovered session's default changes, the already
        # replayed entry stays where the record put it.
        engine.session("c", priority="interactive")
        assert engine.queue_depths["normal"] == 1
        assert engine.queue_depths["interactive"] == 0


class TestForwardFormatCompat:
    def test_every_drain_is_logged(
        self, toy_stats, tmp_path
    ):
        """An all-``normal`` history still logs one drain record per
        non-empty batch, right after the submissions it drains; the
        submissions themselves keep the compact encoding."""
        engine = fresh_engine(toy_stats)
        durability = Durability(tmp_path, fsync_interval_ms=0)
        durability.attach(engine)
        for offset in (0.0, 0.1):
            engine.submit("a", narrow_sql(toy_stats, offset=offset))
        engine.pump()
        engine.pump()  # nothing queued: no record
        engine.submit_many([("b", narrow_sql(toy_stats, offset=0.2))])
        engine.pump()
        durability.close()
        records = read_wal(tmp_path / "wal.log").records
        assert [record.kind for record in records] == [
            "submit", "submit", "drain", "submit_many", "drain",
        ]
        assert [
            (r.payload["position"], r.payload["count"])
            for r in records if r.kind == "drain"
        ] == [(0, 2), (2, 1)]
        assert engine.batches_processed == 2
        for record in records:
            if record.kind == "submit":
                assert "priority" not in record.payload
            elif record.kind == "submit_many":
                for entry in record.payload["entries"]:
                    assert "priority" not in entry

    def test_drainless_log_with_positioned_vote_is_refused(
        self, toy_stats, tmp_path
    ):
        """A log whose statements were analyzed without drain records (a
        vote at position 2 after two bare submits) cannot be replayed
        faithfully: recovery refuses it instead of guessing the order."""
        wal = WriteAheadLog(tmp_path / "wal.log")
        for offset in (0.0, 0.1):
            wal.append("submit", {
                "client_id": "a", "sql": narrow_sql(toy_stats, offset=offset),
            })
        wal.append("vote", {
            "client_id": "dba", "position": 2, "plus": [], "minus": [],
        })
        wal.close()
        with pytest.raises(WalError, match="position 2"):
            recover(toy_stats, tmp_path)

    def test_priority_history_round_trips_through_recovery(
        self, toy_stats, tmp_path
    ):
        """Priority-interleaved drains replay from their records: recovery
        reproduces the exact analysis state — processed counts,
        per-class backlog, and both totWork series."""
        engine = fresh_engine(toy_stats)
        durability = Durability(tmp_path, fsync_interval_ms=0)
        durability.attach(engine)
        engine.submit("fg", narrow_sql(toy_stats), priority="interactive")
        engine.submit("a", narrow_sql(toy_stats, offset=0.1))
        for offset in (0.2, 0.3, 0.4):
            engine.submit(
                "flood", narrow_sql(toy_stats, offset=offset),
                priority="background",
            )
        engine.pump(3)  # fg, a, and one background statement
        durability.close()
        scan = read_wal(tmp_path / "wal.log")
        assert any(record.kind == "drain" for record in scan.records)
        recovered, report = recover(toy_stats, tmp_path)
        assert report["wal_replayed"] == len(scan.records)
        assert recovered.statements_processed == engine.statements_processed
        assert recovered.queue_depths == engine.queue_depths
        assert recovered.total_work == engine.total_work
        assert recovered.realized_total_work == engine.realized_total_work
        assert (
            recovered.session("flood").statements_processed
            == engine.session("flood").statements_processed
        )
