"""Crash-safe checkpoint store: atomicity, checksums, quarantine, fallback."""

import json

import pytest

from repro.exceptions import CheckpointError, CorruptCheckpointError
from repro.fleet.checkpointing import (
    FleetCheckpointStore,
    atomic_write_json,
    atomic_write_text,
    checksum,
    load_json_checkpoint,
)
from repro.fleet.pipeline import FleetPipeline
from repro.ttkv.store import TTKV

_MANIFEST = {"version": 2, "rounds": 1, "params": {}}


def _states(tag="a"):
    return {
        "m0": {"version": 3, "tag": f"{tag}-m0"},
        "m1": {"version": 3, "tag": f"{tag}-m1"},
    }


class TestAtomicWrites:
    def test_no_tmp_residue_and_content_lands(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"ok": True})
        assert json.loads(target.read_text()) == {"ok": True}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"

    def test_load_missing_raises_typed_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_json_checkpoint(tmp_path / "absent.json", kind="session checkpoint")

    def test_load_truncated_raises_corrupt_not_jsondecode(self, tmp_path):
        target = tmp_path / "torn.json"
        target.write_text('{"version": 2, "shar')
        with pytest.raises(CorruptCheckpointError, match="truncated or corrupt"):
            load_json_checkpoint(target)

    def test_load_non_object_raises_corrupt(self, tmp_path):
        target = tmp_path / "list.json"
        target.write_text("[1, 2, 3]")
        with pytest.raises(CorruptCheckpointError, match="JSON object"):
            load_json_checkpoint(target)

    def test_typed_errors_still_catchable_as_valueerror(self, tmp_path):
        # callers that predate the typed hierarchy keep working
        with pytest.raises(ValueError):
            load_json_checkpoint(tmp_path / "absent.json")


class TestGenerations:
    def test_write_creates_numbered_generations(self, tmp_path):
        store = FleetCheckpointStore(tmp_path)
        assert store.write(_MANIFEST, _states("a")) == 1
        assert store.write(_MANIFEST, _states("b")) == 2
        assert store.generations() == [1, 2]
        assert (tmp_path / "gen-000002" / "machine-m0.json").exists()
        root = json.loads((tmp_path / "fleet.json").read_text())
        assert root["generation"] == 2
        assert sorted(root["machines"]) == ["m0", "m1"]

    def test_prune_keeps_last_k(self, tmp_path):
        store = FleetCheckpointStore(tmp_path, keep=2)
        for index in range(5):
            store.write(_MANIFEST, _states(str(index)))
        assert store.generations() == [4, 5]

    def test_load_returns_newest(self, tmp_path):
        store = FleetCheckpointStore(tmp_path)
        store.write(_MANIFEST, _states("old"))
        store.write(_MANIFEST, _states("new"))
        manifest, machine_states = store.load()
        assert manifest["generation"] == 2
        assert machine_states["m0"]["tag"] == "new-m0"

    def test_load_no_generations_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint generations"):
            FleetCheckpointStore(tmp_path).load()

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            FleetCheckpointStore(tmp_path, keep=0)


class TestQuarantineFallback:
    def test_corrupt_newest_falls_back_and_quarantines(self, tmp_path):
        store = FleetCheckpointStore(tmp_path)
        store.write(_MANIFEST, _states("good"))
        store.write(_MANIFEST, _states("bad"))
        victim = tmp_path / "gen-000002" / "machine-m0.json"
        victim.write_bytes(victim.read_bytes()[:10])
        manifest, machine_states = store.load()
        assert manifest["generation"] == 1
        assert machine_states["m0"]["tag"] == "good-m0"
        assert store.quarantined() == ["gen-000002"]
        reason = (
            tmp_path / "quarantine" / "gen-000002" / "QUARANTINE_REASON"
        ).read_text()
        assert "checksum" in reason or "truncated" in reason

    def test_bitflip_caught_by_checksum(self, tmp_path):
        # a flipped byte that may still parse as JSON must be rejected
        store = FleetCheckpointStore(tmp_path)
        store.write(_MANIFEST, {"m0": {"version": 3, "value": 1111}})
        store.write(_MANIFEST, {"m0": {"version": 3, "value": 2222}})
        victim = tmp_path / "gen-000002" / "machine-m0.json"
        payload = bytearray(victim.read_bytes())
        index = payload.index(b"2")
        payload[index : index + 1] = b"3"
        victim.write_bytes(bytes(payload))
        manifest, machine_states = store.load()
        assert manifest["generation"] == 1
        assert machine_states["m0"]["value"] == 1111

    def test_all_generations_damaged_raises_listing_each(self, tmp_path):
        store = FleetCheckpointStore(tmp_path)
        store.write(_MANIFEST, _states("a"))
        store.write(_MANIFEST, _states("b"))
        for generation in (1, 2):
            victim = tmp_path / f"gen-{generation:06d}" / "machine-m1.json"
            victim.write_text("{not json")
        with pytest.raises(CorruptCheckpointError) as error:
            store.load()
        assert "gen-000001" in str(error.value)
        assert "gen-000002" in str(error.value)

    def test_load_machine_walks_past_damage_without_quarantining(self, tmp_path):
        store = FleetCheckpointStore(tmp_path)
        store.write(_MANIFEST, _states("old"))
        store.write(_MANIFEST, _states("new"))
        victim = tmp_path / "gen-000002" / "machine-m0.json"
        victim.write_bytes(victim.read_bytes()[:5])
        # m0 falls back to gen 1; m1's newest copy is untouched
        assert store.load_machine("m0")["tag"] == "old-m0"
        assert store.load_machine("m1")["tag"] == "new-m1"
        assert store.quarantined() == []
        assert store.load_machine("m9") is None

    def test_checksum_format(self):
        assert checksum(b"abc").startswith("sha256:")
        assert checksum(b"abc") != checksum(b"abd")


class TestFleetRoundTrip:
    def _fleet(self, events):
        fleet = FleetPipeline()
        store = TTKV()
        store.record_events(events)
        fleet.add_machine("m0", store, ("mail/",))
        fleet.update()
        return fleet

    EVENTS = [(1.0, "mail/a", 1), (1.4, "mail/b", 2), (9.0, "mail/c", 1)]

    def test_to_state_dir_then_from_state_dir(self, tmp_path):
        fleet = self._fleet(self.EVENTS)
        generation = fleet.to_state_dir(tmp_path)
        assert generation == 1
        reference = sorted(
            tuple(sorted(c.keys)) for c in fleet.clusters()
        )
        fleet.close()
        store = TTKV()
        store.record_events(self.EVENTS)
        resumed = FleetPipeline.from_state_dir(tmp_path, {"m0": store})
        assert sorted(
            tuple(sorted(c.keys)) for c in resumed.update()
        ) == reference
        resumed.close()

    def test_torn_root_manifest_falls_back_to_generations(self, tmp_path):
        fleet = self._fleet(self.EVENTS)
        fleet.to_state_dir(tmp_path)
        fleet.close()
        (tmp_path / "fleet.json").write_text('{"version": 3, "gene')
        store = TTKV()
        store.record_events(self.EVENTS)
        resumed = FleetPipeline.from_state_dir(tmp_path, {"m0": store})
        assert "m0" in resumed.machine_ids
        resumed.close()

    def test_legacy_v1_flat_layout_rejected(self, tmp_path):
        fleet = self._fleet(self.EVENTS)
        machine_state = fleet.machine("m0").to_state()
        fleet.close()
        # fabricate the pre-generation flat layout by hand
        (tmp_path / "machine-m0.json").write_text(json.dumps(machine_state))
        (tmp_path / "fleet.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "rounds": 1,
                    "machines": ["m0"],
                    "params": {
                        "window": 1.0,
                        "correlation_threshold": 2.0,
                        "linkage": "single",
                        "kernel": "auto",
                        "max_lag": None,
                    },
                }
            )
        )
        store = TTKV()
        store.record_events(self.EVENTS)
        with pytest.raises(CheckpointError, match="unsupported fleet state version 1"):
            FleetPipeline.from_state_dir(tmp_path, {"m0": store})

    def _relabelled_manifest(self, tmp_path, version, **params):
        fleet = self._fleet(self.EVENTS)
        fleet.to_state_dir(tmp_path)
        fleet.close()
        manifest = json.loads((tmp_path / "fleet.json").read_text())
        assert manifest["version"] == 4
        manifest["version"] = version
        manifest["params"].update(params)
        (tmp_path / "fleet.json").write_text(json.dumps(manifest))
        store = TTKV()
        store.record_events(self.EVENTS)
        return store

    def test_v3_manifest_rejected(self, tmp_path):
        # version 3 also recorded the kernel in its params
        store = self._relabelled_manifest(tmp_path, 3, kernel="auto")
        with pytest.raises(CheckpointError, match="unsupported fleet state version 3"):
            FleetPipeline.from_state_dir(tmp_path, {"m0": store})

    def test_v2_manifest_rejected(self, tmp_path):
        # version 2 also recorded the shard-journal backend in its params
        store = self._relabelled_manifest(tmp_path, 2, kernel="auto")
        with pytest.raises(CheckpointError, match="unsupported fleet state version 2"):
            FleetPipeline.from_state_dir(tmp_path, {"m0": store})

    def test_torn_root_cannot_bypass_the_generation_manifest_version(
        self, tmp_path
    ):
        fleet = self._fleet(self.EVENTS)
        fleet.to_state_dir(tmp_path)
        fleet.close()
        (tmp_path / "fleet.json").write_text('{"version": 4, "gene')
        generation = FleetCheckpointStore(tmp_path).generations()[-1]
        path = FleetCheckpointStore(tmp_path).generation_dir(generation)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 3  # checksums untouched: machine files verify
        (path / "manifest.json").write_text(json.dumps(manifest))
        store = TTKV()
        store.record_events(self.EVENTS)
        with pytest.raises(CheckpointError, match="unsupported fleet state version 3"):
            FleetPipeline.from_state_dir(tmp_path, {"m0": store})

    def test_unsupported_version_raises_checkpoint_error(self, tmp_path):
        (tmp_path / "fleet.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointError, match="unsupported fleet state"):
            FleetPipeline.from_state_dir(tmp_path, {})

    def test_missing_store_raises_checkpoint_error(self, tmp_path):
        fleet = self._fleet(self.EVENTS)
        fleet.to_state_dir(tmp_path)
        fleet.close()
        with pytest.raises(CheckpointError, match="m0"):
            FleetPipeline.from_state_dir(tmp_path, {})
