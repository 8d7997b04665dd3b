"""Smoke tests for the ``python -m repro.service`` replay CLI."""

from __future__ import annotations

import json

import pytest

from repro.service.replay import main

TRACE_FLAGS = [
    "--scale", "0.02", "--per-phase", "2", "--seed", "7",
    "--clients", "2", "--limit", "10",
]


class TestReplay:
    def test_replay_emits_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(["replay", *TRACE_FLAGS, "--metrics-out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "replay"
        assert report["statements"] == 10
        assert report["metrics"]["statements_processed"] == 10
        assert set(report["metrics"]["sessions"]) == {"client-0", "client-1"}

    def test_checkpoint_at_requires_path(self, capsys):
        code = main(["replay", *TRACE_FLAGS, "--checkpoint-at", "4"])
        assert code == 2

    def test_checkpoint_path_requires_position(self, tmp_path):
        code = main([
            "replay", *TRACE_FLAGS,
            "--checkpoint", str(tmp_path / "ckpt.json"),
        ])
        assert code == 2

    def test_checkpoint_resume_verify(self, tmp_path):
        checkpoint = tmp_path / "ckpt.json"
        replay_out = tmp_path / "replay.json"
        code = main([
            "replay", *TRACE_FLAGS,
            "--checkpoint-at", "5", "--checkpoint", str(checkpoint),
            "--metrics-out", str(replay_out),
        ])
        assert code == 0
        assert checkpoint.exists()

        resume_out = tmp_path / "resume.json"
        code = main([
            "resume", "--checkpoint", str(checkpoint), "--verify",
            "--metrics-out", str(resume_out),
        ])
        assert code == 0
        report = json.loads(resume_out.read_text())
        assert report["resumed_at"] == 5
        assert report["statements_replayed"] == 5
        assert report["verify"]["verified"] is True
        assert report["verify"]["recommendation_mismatches"] == []
        # Uninterrupted and restored runs finish with the same metric.
        replay_report = json.loads(replay_out.read_text())
        assert report["verify"]["total_work_restored"] == pytest.approx(
            replay_report["metrics"]["total_work"], rel=1e-9
        )

    def test_report_carries_obs_snapshot(self, tmp_path):
        from repro.obs.registry import text_from_snapshot, validate_snapshot

        out = tmp_path / "metrics.json"
        assert main(["replay", *TRACE_FLAGS, "--metrics-out", str(out)]) == 0
        report = json.loads(out.read_text())
        snapshot = report["obs"]
        validate_snapshot(snapshot)
        names = set(snapshot["metrics"])
        assert {
            "repro_wfa_relax_seconds",
            "repro_whatif_calls_total",
            "repro_wfit_statements_total",
            "repro_engine_statements_total",
            "repro_span_seconds",
        } <= names
        text_from_snapshot(snapshot)  # renders as Prometheus text

    def test_trace_out_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        assert main([
            "replay", *TRACE_FLAGS,
            "--metrics-out", str(out), "--trace-out", str(trace),
        ]) == 0
        document = json.loads(trace.read_text())
        events = document["traceEvents"]
        assert events, "replay produced no spans"
        names = {event["name"] for event in events}
        assert {"engine.analyze", "wfit.analyze", "wfit.relax"} <= names
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0

    def test_resume_rejects_foreign_checkpoint(self, tmp_path, toy_stats):
        from repro.db import StatsTransitionCosts
        from repro.optimizer import WhatIfOptimizer
        from repro.service import TuningEngine, save_checkpoint

        engine = TuningEngine(
            WhatIfOptimizer(toy_stats), StatsTransitionCosts(toy_stats),
            idx_cnt=6, state_cnt=32,
        )
        path = tmp_path / "bare.json"
        save_checkpoint(path, engine.checkpoint())  # no trace parameters
        assert main(["resume", "--checkpoint", str(path)]) == 2


class TestDurableRecover:
    def _replay_durable(self, directory, *extra):
        return main([
            "replay", *TRACE_FLAGS, "--durable-dir", str(directory),
            "--checkpoint-every", "4", "--full-every", "2", *extra,
            "--metrics-out", str(directory.parent / "replay.json"),
        ])

    def test_priority_map_recovers_and_verifies(self, tmp_path):
        directory = tmp_path / "durable"
        assert self._replay_durable(
            directory,
            "--priority-map", "client-0=interactive,client-1=background",
        ) == 0
        out = tmp_path / "recover.json"
        assert main([
            "recover", "--dir", str(directory), "--verify",
            "--metrics-out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["verify"]["verified"] is True
        assert report["verify"]["recommendation_mismatches"] == []

    def test_snapshot_missing_keys_exits_2(self, tmp_path, capsys):
        """A parseable newest snapshot without the engine state fails to
        restore as a SnapshotError; recovery refuses to fall back past it
        and the CLI exits 2 instead of crashing on a KeyError."""
        directory = tmp_path / "durable"
        assert self._replay_durable(directory) == 0
        newest = max(directory.glob("snapshot-*.json"))
        document = json.loads(newest.read_text())
        newest.write_text(json.dumps({
            key: document[key]
            for key in ("version", "kind", "snapshot_id", "wal_seq", "extra")
        }))
        assert main(["recover", "--dir", str(directory)]) == 2
        assert "refusing recovery" in capsys.readouterr().err
