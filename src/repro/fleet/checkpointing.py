"""Crash-safe fleet checkpoints: atomic writes, checksums, generations.

A fleet checkpoint directory holds *generations* — each a complete,
self-describing snapshot of every machine's pipeline state::

    <dir>/
      fleet.json                    root manifest (the commit point)
      gen-000001/
        manifest.json               per-generation manifest + checksums
        machine-<id>.json           one ShardedPipeline.to_state() each
      gen-000002/
        ...
      quarantine/
        gen-000001/                 generations that failed verification

Three properties make resume survive a crash at any instant:

1. **Atomic writes** — every file lands via tmp + ``fsync`` + ``rename``
   (:func:`atomic_write_text`), so a reader never observes a torn file
   at its final name.  The root ``fleet.json`` is written *last*: until
   it names the new generation, resume still uses the previous one.
2. **Content checksums** — each generation's manifest records the
   SHA-256 of every machine file; :meth:`FleetCheckpointStore.load`
   verifies them before trusting a byte, so silent corruption (bit rot,
   a torn write that still parses) is caught, not resumed from.
3. **Keep-last-K generations with quarantine-then-fallback** — a
   generation that fails verification is moved into ``quarantine/`` and
   the next-newest is tried; only when every generation is damaged does
   :meth:`~FleetCheckpointStore.load` raise
   :class:`~repro.exceptions.CorruptCheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Callable, Mapping

from repro.exceptions import CheckpointError, CorruptCheckpointError

#: Default number of checkpoint generations retained after a write.
DEFAULT_KEEP_GENERATIONS = 3

_GEN_DIR = re.compile(r"^gen-(\d{6,})$")

#: Optional hook applied to a machine file's payload just before it is
#: written — the fault injector's torn/corrupt writes go through this.
PayloadFilter = Callable[[str, bytes], bytes]


def _fsync_directory(path: Path) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (tmp + fsync + rename).

    A crash before the rename leaves only the ``.tmp`` file; a crash
    after it leaves the complete new content.  No reader ever sees a
    partial write at the final name.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str | Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload) + "\n")


def checksum(payload: bytes) -> str:
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def load_json_checkpoint(path: str | Path, *, kind: str = "checkpoint") -> dict:
    """Parse a JSON checkpoint file, raising typed errors on damage.

    ``kind`` names the artifact in messages (``"session checkpoint"``,
    ``"fleet manifest"``, ...).  A missing file raises
    :class:`~repro.exceptions.CheckpointError`; a truncated or otherwise
    unparseable one raises
    :class:`~repro.exceptions.CorruptCheckpointError` — never a bare
    ``json.JSONDecodeError``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CheckpointError(f"{kind} {path} does not exist") from None
    except OSError as error:
        raise CheckpointError(f"{kind} {path} is unreadable: {error}") from error
    try:
        state = json.loads(text)
    except json.JSONDecodeError as error:
        raise CorruptCheckpointError(
            f"{kind} {path} is truncated or corrupt "
            f"(invalid JSON at char {error.pos} of {len(text)})"
        ) from error
    if not isinstance(state, dict):
        raise CorruptCheckpointError(
            f"{kind} {path} must hold a JSON object, "
            f"got {type(state).__name__}"
        )
    return state


class FleetCheckpointStore:
    """Generation-based crash-safe storage for fleet checkpoints."""

    def __init__(
        self,
        directory: str | Path,
        *,
        keep: int = DEFAULT_KEEP_GENERATIONS,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be at least 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep

    # -- layout --------------------------------------------------------------

    def generations(self) -> list[int]:
        """Existing generation numbers, oldest first."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            match = _GEN_DIR.match(entry.name)
            if match and entry.is_dir():
                found.append(int(match.group(1)))
        return sorted(found)

    def generation_dir(self, generation: int) -> Path:
        return self.directory / f"gen-{generation:06d}"

    def quarantined(self) -> list[str]:
        """Names of quarantined generation directories (for reports)."""
        quarantine = self.directory / "quarantine"
        if not quarantine.is_dir():
            return []
        return sorted(entry.name for entry in quarantine.iterdir())

    # -- writing -------------------------------------------------------------

    def write(
        self,
        manifest: dict,
        machine_states: Mapping[str, dict],
        *,
        payload_filter: PayloadFilter | None = None,
    ) -> int:
        """Write one new generation; returns its number.

        ``manifest`` is the fleet-level state (version, rounds, params);
        this method adds the generation number, the machine list and the
        per-file checksums.  ``payload_filter(machine_id, payload)`` may
        rewrite a machine file's bytes just before the write — it exists
        for the fault injector's torn/corrupt checkpoint faults, and the
        recorded checksum is of the *original* payload so the damage is
        detected on load exactly like real-world corruption.

        The root ``fleet.json`` is updated last, atomically: a crash at
        any earlier instant leaves the previous generation current.
        """
        generations = self.generations()
        generation = (generations[-1] + 1) if generations else 1
        gen_dir = self.generation_dir(generation)
        gen_dir.mkdir(parents=True, exist_ok=True)

        checksums: dict[str, str] = {}
        for machine_id, state in machine_states.items():
            name = f"machine-{machine_id}.json"
            payload = (json.dumps(state) + "\n").encode("utf-8")
            checksums[name] = checksum(payload)
            if payload_filter is not None:
                payload = payload_filter(machine_id, payload)
            atomic_write_bytes(gen_dir / name, payload)

        full = dict(manifest)
        full["generation"] = generation
        full["machines"] = list(machine_states)
        full["checksums"] = checksums
        atomic_write_json(gen_dir / "manifest.json", full)
        # the commit point: until this lands, resume uses the old state
        atomic_write_json(self.directory / "fleet.json", full)
        self._prune(keep_from=generation)
        return generation

    def _prune(self, *, keep_from: int) -> None:
        import shutil

        alive = [g for g in self.generations() if g <= keep_from]
        for generation in alive[: -self.keep]:
            shutil.rmtree(self.generation_dir(generation), ignore_errors=True)

    # -- reading -------------------------------------------------------------

    def _quarantine(self, generation: int, reason: str) -> None:
        import shutil

        gen_dir = self.generation_dir(generation)
        target = self.directory / "quarantine" / gen_dir.name
        target.parent.mkdir(parents=True, exist_ok=True)
        if target.exists():  # re-quarantine after a partial earlier move
            shutil.rmtree(target, ignore_errors=True)
        os.replace(gen_dir, target)
        atomic_write_text(target / "QUARANTINE_REASON", reason + "\n")

    def _verify_generation(
        self, generation: int
    ) -> tuple[dict, dict[str, dict]]:
        """Load and checksum-verify one generation (raises on damage)."""
        gen_dir = self.generation_dir(generation)
        manifest = load_json_checkpoint(
            gen_dir / "manifest.json", kind="fleet generation manifest"
        )
        machine_states: dict[str, dict] = {}
        for machine_id in manifest.get("machines", []):
            name = f"machine-{machine_id}.json"
            path = gen_dir / name
            try:
                payload = path.read_bytes()
            except OSError as error:
                raise CorruptCheckpointError(
                    f"machine checkpoint {path} is unreadable: {error}"
                ) from error
            expected = manifest.get("checksums", {}).get(name)
            if expected is not None and checksum(payload) != expected:
                raise CorruptCheckpointError(
                    f"machine checkpoint {path} fails its checksum "
                    f"(expected {expected})"
                )
            machine_states[machine_id] = load_json_checkpoint(
                path, kind="machine checkpoint"
            )
        return manifest, machine_states

    def load(self) -> tuple[dict, dict[str, dict]]:
        """The newest verifiable generation: ``(manifest, machine_states)``.

        Damaged generations are quarantined and the next-newest tried;
        when none survives, raises
        :class:`~repro.exceptions.CorruptCheckpointError` naming every
        failure.
        """
        generations = self.generations()
        if not generations:
            raise CheckpointError(
                f"no checkpoint generations under {self.directory}"
            )
        failures: list[str] = []
        for generation in reversed(generations):
            try:
                return self._verify_generation(generation)
            except CheckpointError as error:
                failures.append(f"gen-{generation:06d}: {error}")
                self._quarantine(generation, str(error))
        raise CorruptCheckpointError(
            f"every checkpoint generation under {self.directory} is "
            "damaged: " + "; ".join(failures)
        )

    def load_machine(self, machine_id: str) -> dict | None:
        """The newest verifiable state for one machine (``None``: none).

        Used by supervised recovery to restart a single machine from its
        last good checkpoint: generations are walked newest-first and
        only this machine's file is verified, so one corrupt peer file
        does not force the whole generation out of consideration (and
        nothing is quarantined — full-fleet :meth:`load` owns that).
        """
        name = f"machine-{machine_id}.json"
        for generation in reversed(self.generations()):
            gen_dir = self.generation_dir(generation)
            try:
                manifest = load_json_checkpoint(
                    gen_dir / "manifest.json", kind="fleet generation manifest"
                )
                payload = (gen_dir / name).read_bytes()
                expected = manifest.get("checksums", {}).get(name)
                if expected is not None and checksum(payload) != expected:
                    raise CorruptCheckpointError(
                        f"{gen_dir / name} fails its checksum"
                    )
                return load_json_checkpoint(
                    gen_dir / name, kind="machine checkpoint"
                )
            except (CheckpointError, OSError):
                continue
        return None
