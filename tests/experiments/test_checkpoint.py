"""Tests for the crash-safe persistence layer (atomic writes, run
manifests, trial journals)."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.experiments.checkpoint import (
    MANIFEST_NAME,
    CheckpointJournal,
    RunManifest,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    canonical_json,
    config_hash,
    dumps_payload,
)


class TestAtomicWrites:
    def test_writes_content(self, tmp_path):
        path = atomic_write_bytes(tmp_path / "a.bin", b"payload")
        assert path.read_bytes() == b"payload"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "a.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_file_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "a.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_creates_parent_directories(self, tmp_path):
        path = atomic_write_text(tmp_path / "deep" / "er" / "a.txt", "x")
        assert path.read_text() == "x"

    def test_json_is_canonical(self, tmp_path):
        path = atomic_write_json(tmp_path / "a.json", {"b": 1, "a": 2})
        assert path.read_text() == '{"a":2,"b":1}\n'


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_value_change_changes_hash(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_non_json_values_hash_via_repr(self):
        # Tuples/dataclasses in experiment configs must not crash hashing.
        assert config_hash({"sizes": (256, 1024)}) == config_hash(
            {"sizes": (256, 1024)}
        )

    def test_canonical_json_stable_for_tuples(self):
        assert canonical_json((1, 2)) == canonical_json((1, 2))


class TestRunManifest:
    def _manifest(self):
        return RunManifest(
            experiment="fig09",
            seed=7,
            config={"payload_bits": 48},
            config_hash=config_hash({"payload_bits": 48}),
        )

    def test_save_load_roundtrip(self, tmp_path):
        manifest = self._manifest()
        manifest.add_segment("start")
        manifest.save(tmp_path)
        loaded = RunManifest.load(tmp_path)
        assert loaded.experiment == "fig09"
        assert loaded.seed == 7
        assert loaded.config_hash == manifest.config_hash
        assert loaded.segments[0]["event"] == "start"
        assert loaded.segments[0]["pid"] == os.getpid()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no run manifest"):
            RunManifest.load(tmp_path)

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{ not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            RunManifest.load(tmp_path)

    def test_unknown_version_rejected(self, tmp_path):
        manifest = self._manifest()
        raw = manifest.to_json()
        raw["format_version"] = 99
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(raw))
        with pytest.raises(CheckpointError, match="version"):
            RunManifest.load(tmp_path)

    def test_missing_field_rejected(self, tmp_path):
        raw = self._manifest().to_json()
        del raw["config_hash"]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(raw))
        with pytest.raises(CheckpointError, match="missing field"):
            RunManifest.load(tmp_path)


class TestCheckpointJournal:
    def test_absent_journal_is_empty(self, tmp_path):
        journal = CheckpointJournal.load(tmp_path)
        assert len(journal) == 0

    def test_success_roundtrip(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        payload = dumps_payload({"value": 3})
        entry = journal.record_success(0, "t/0", payload, elapsed_s=0.5)
        assert (tmp_path / entry.payload).read_bytes() == payload
        reloaded = CheckpointJournal.load(tmp_path)
        assert "t/0" in reloaded
        assert reloaded.get("t/0").ok
        assert reloaded.read_payload("t/0") == payload
        assert reloaded.load_payload("t/0") == {"value": 3}

    def test_failure_roundtrip(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record_failure_info(1, "t/1", "ValueError", "boom", elapsed_s=0.1)
        entry = CheckpointJournal.load(tmp_path).get("t/1")
        assert not entry.ok
        assert entry.error_type == "ValueError"
        assert "boom" in entry.error

    def test_append_preserves_previous_entries(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record_success(0, "t/0", dumps_payload(1), elapsed_s=0.0)
        journal.record_success(1, "t/1", dumps_payload(2), elapsed_s=0.0)
        keys = [e.key for e in CheckpointJournal.load(tmp_path).entries()]
        assert keys == ["t/0", "t/1"]

    def test_corrupt_journal_line_rejected(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record_success(0, "t/0", dumps_payload(1), elapsed_s=0.0)
        with open(journal.path, "a") as handle:
            handle.write("{ torn half-record\n")
        with pytest.raises(CheckpointError, match="corrupt journal"):
            CheckpointJournal.load(tmp_path)

    def test_missing_payload_detected(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        entry = journal.record_success(0, "t/0", dumps_payload(1), elapsed_s=0.0)
        (tmp_path / entry.payload).unlink()
        with pytest.raises(CheckpointError, match="missing payload"):
            CheckpointJournal.load(tmp_path).load_payload("t/0")

    def test_truncated_payload_detected(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        entry = journal.record_success(
            0, "t/0", dumps_payload(list(range(100))), elapsed_s=0.0
        )
        payload = tmp_path / entry.payload
        payload.write_bytes(payload.read_bytes()[:5])
        with pytest.raises(CheckpointError, match="corrupt trial payload"):
            CheckpointJournal.load(tmp_path).load_payload("t/0")

    def test_unjournaled_key_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no completed payload"):
            CheckpointJournal.load(tmp_path).load_payload("ghost")
