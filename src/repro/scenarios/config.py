"""Three-layer scenario configuration: YAML → pydantic → env overrides.

A *scenario* declaratively composes a machine population (heterogeneous
Table-I profiles, join/leave schedules), one hostile workload regime and
its fault injections into a runnable fleet experiment.  Configuration
follows the three-layer idiom:

1. **YAML file** — the committed, reviewable base (``scenarios/*.yaml``);
2. **pydantic validation** — every field is type-checked and
   range-checked at load time; invalid configs fail with field-level
   messages (``population.0.machines: Input should be ...``) instead of
   misbehaving mid-run;
3. **environment overrides** — variables prefixed ``REPRO__`` override
   YAML values, nesting on double underscores:
   ``REPRO__FLEET__MAX_LAG=50`` beats ``fleet: {max_lag: ...}`` beats
   the model default.  List entries are indexed by position
   (``REPRO__POPULATION__0__MACHINES=3``), which is how the quick-mode
   benchmarks shrink the committed scenarios without forking them.

Every random decision a scenario makes derives from its ``seed`` (via
:func:`repro.common.hashing.stable_hash`, never the salted builtin
``hash``), so two loads of the same YAML build byte-identical machine
streams — pinned by ``tests/scenarios/test_determinism.py``.

pydantic and PyYAML are **soft dependencies**
(``pip install repro-ocasta[scenarios]``); importing this module without
them raises ``ImportError`` — go through :mod:`repro.scenarios` (lazy
exports) for a guarded error message.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Literal, Mapping, Union

import yaml
from pydantic import (
    BaseModel,
    ConfigDict,
    Field,
    ValidationError,
    field_validator,
    model_validator,
)

from repro.workload.machines import profile_by_name

#: Environment-variable prefix of the override layer; path segments are
#: separated by double underscores (``REPRO__FLEET__MAX_LAG``).
ENV_PREFIX = "REPRO__"


class ScenarioConfigError(ValueError):
    """A scenario config failed to load or validate.

    ``str(error)`` carries one ``path.to.field: message`` line per
    problem, so CI logs point at the offending YAML key directly.
    """


def _validation_message(source: str, error: ValidationError) -> str:
    lines = [f"{source}: {error.error_count()} invalid field(s)"]
    for item in error.errors():
        path = ".".join(str(part) for part in item["loc"]) or "<root>"
        lines.append(f"  {path}: {item['msg']}")
    return "\n".join(lines)


# -- sections -----------------------------------------------------------------


class PipelineSection(BaseModel):
    """Per-machine clustering parameters (mirrors ``ShardedPipeline``)."""

    model_config = ConfigDict(extra="forbid")

    window: float = Field(default=1.0, gt=0)
    correlation_threshold: float = Field(default=2.0, gt=0)
    linkage: Literal["complete", "single", "average"] = "complete"


class FleetSection(BaseModel):
    """Fleet-driver parameters (rounds, backpressure)."""

    model_config = ConfigDict(extra="forbid")

    rounds: int = Field(default=6, ge=1)
    max_lag: int | None = Field(default=None, ge=1)


class PopulationGroup(BaseModel):
    """One homogeneous slice of the machine population.

    ``activity_scale`` multiplies the profile's activity volume;
    ``activity_skew`` applies a Zipf-style per-machine decay on top
    (machine ``rank`` in the group runs at
    ``scale * (rank + 1) ** -skew``), so one group models a few hot
    machines and a long quiet tail.  ``join_round``/``leave_round``
    schedule fleet membership: the machine's feed starts at
    ``join_round`` and it is detached after ``leave_round`` completes.
    """

    model_config = ConfigDict(extra="forbid")

    profile: str
    machines: int = Field(default=1, ge=1)
    days: float | None = Field(default=None, gt=0)
    activity_scale: float = Field(default=1.0, gt=0, le=10)
    activity_skew: float = Field(default=0.0, ge=0, le=4)
    join_round: int = Field(default=1, ge=1)
    leave_round: int | None = Field(default=None, ge=1)

    @field_validator("profile")
    @classmethod
    def _known_profile(cls, value: str) -> str:
        profile_by_name(value)  # raises ValueError with the known names
        return value

    @model_validator(mode="after")
    def _leave_after_join(self) -> "PopulationGroup":
        if self.leave_round is not None and self.leave_round <= self.join_round:
            raise ValueError(
                f"leave_round {self.leave_round} must be after "
                f"join_round {self.join_round}"
            )
        return self


class FlashCrowdRegime(BaseModel):
    """A rollout makes many machines rewrite the same app-config keys.

    Every covered machine running ``app`` co-writes the same ``keys``
    settings inside one ``window_seconds`` burst per wave — the
    fleet-level evidence for those keys spikes across the whole
    population at once.
    """

    model_config = ConfigDict(extra="forbid")

    kind: Literal["flash_crowd"]
    app: str
    keys: int = Field(default=8, ge=1)
    waves: int = Field(default=1, ge=1)
    start_fraction: float = Field(default=0.6, gt=0, lt=1)
    window_seconds: float = Field(default=30.0, gt=0)
    coverage: float = Field(default=1.0, gt=0, le=1)


class ChurnStormRegime(BaseModel):
    """Malware-like scatter writes across a registry-scale key pool.

    ``keys`` synthetic keys (default 10⁴; go to 10⁵ for the full
    registry-scale regime) are written in short bursts.  Each burst
    co-writes a random subset of one ``bucket_size`` family, so the
    correlation components stay bounded while the *key population*
    explodes — the regime stresses matrix and journal growth, not HAC
    on one giant component.  Bursts are spaced ``min_gap_seconds``
    apart (keep it above the clustering window or bursts chain into
    one endless write group).
    """

    model_config = ConfigDict(extra="forbid")

    kind: Literal["churn_storm"]
    keys: int = Field(default=10_000, ge=1)
    writes_per_machine: int = Field(default=2_000, ge=1)
    bucket_size: int = Field(default=20, ge=1)
    key_prefix: str = "scatter/"
    start_fraction: float = Field(default=0.4, gt=0, lt=1)
    duration_fraction: float = Field(default=0.5, gt=0, le=1)
    min_gap_seconds: float = Field(default=3.0, gt=0)

    @model_validator(mode="after")
    def _pool_holds_a_bucket(self) -> "ChurnStormRegime":
        if self.keys < self.bucket_size:
            raise ValueError(
                f"keys {self.keys} must be at least bucket_size "
                f"{self.bucket_size}"
            )
        return self


class ClockSkewRegime(BaseModel):
    """Skewed clocks plus duplicate/late event floods.

    Each machine's clock is offset by up to ``max_skew_seconds``;
    delivery then re-orders a bounded window of the stream:
    ``late_fraction`` of events are withheld and re-delivered up to
    ``max_displacement`` arrivals later, ``duplicate_fraction`` are
    delivered twice.  Per-key timestamp order is preserved (loggers
    guarantee it), so the chaos lands exactly where it does in
    production: the journal's reorder buffer and cursor paths.
    """

    model_config = ConfigDict(extra="forbid")

    kind: Literal["clock_skew"]
    max_skew_seconds: float = Field(default=45.0, ge=0)
    duplicate_fraction: float = Field(default=0.05, ge=0, le=1)
    late_fraction: float = Field(default=0.10, ge=0, le=1)
    max_displacement: int = Field(default=12, ge=1)


class CorrelatedFaultsRegime(BaseModel):
    """The same Table III error on many machines, plus machine crashes.

    Every covered machine running the case's app gets the *same*
    configuration error injected into its trace
    (:func:`repro.errors.scenario.prepare_scenario`), so the fleet-level
    evidence for the error's keys is correlated across the population.
    On top, ``crash_coverage`` of the machines suffer an injected crash
    in round ``crash_round`` — the runner drives the fleet under
    supervised recovery (:mod:`repro.fleet.resilience`) and the equality
    gate proves the recovered fleet model still ≡ the concatenated
    batch reference.
    """

    model_config = ConfigDict(extra="forbid")

    kind: Literal["correlated_faults"]
    case_id: int = Field(ge=1, le=16)
    coverage: float = Field(default=1.0, gt=0, le=1)
    days_before_end: float = Field(default=1.0, gt=0)
    spurious_writes: int = Field(default=0, ge=0, le=2)
    crash_round: int = Field(default=2, ge=1)
    crash_coverage: float = Field(default=0.5, gt=0, le=1)


class HeterogeneousRegime(BaseModel):
    """A mixed-profile population with skewed activity, no extra faults.

    The hostility is the population itself: several Table-I profiles
    side by side, machine activity decaying per ``activity_skew``, and
    membership churning on the join/leave schedule.  Requires at least
    ``min_profiles`` distinct profiles so a homogeneous population is
    rejected at load time.
    """

    model_config = ConfigDict(extra="forbid")

    kind: Literal["heterogeneous"]
    min_profiles: int = Field(default=2, ge=1)


Regime = Union[
    FlashCrowdRegime,
    ChurnStormRegime,
    ClockSkewRegime,
    CorrelatedFaultsRegime,
    HeterogeneousRegime,
]


class InjectCaseSection(BaseModel):
    """Optionally bury one Table III configuration error in the fleet.

    The case is injected into machine ``machine_index``'s trace via
    :func:`repro.errors.scenario.prepare_scenario` *before* the regime
    transform, so hostile scenarios can carry a real, recoverable error
    under the noise.
    """

    model_config = ConfigDict(extra="forbid")

    case_id: int = Field(ge=1, le=16)
    machine_index: int = Field(default=0, ge=0)
    days_before_end: float = Field(default=14.0, gt=0)
    spurious_writes: int = Field(default=0, ge=0, le=2)


class ScenarioConfig(BaseModel):
    """A complete, validated fleet scenario."""

    model_config = ConfigDict(extra="forbid")

    name: str = Field(min_length=1)
    description: str = ""
    seed: int = 0
    population: list[PopulationGroup] = Field(min_length=1)
    regime: Regime = Field(discriminator="kind")
    fleet: FleetSection = FleetSection()
    pipeline: PipelineSection = PipelineSection()
    inject_case: InjectCaseSection | None = None

    @property
    def total_machines(self) -> int:
        return sum(group.machines for group in self.population)

    @model_validator(mode="after")
    def _coherent_schedule_and_regime(self) -> "ScenarioConfig":
        if not any(group.join_round == 1 for group in self.population):
            raise ValueError(
                "at least one population group must join at round 1 "
                "(the fleet driver needs a live feed from the start)"
            )
        for index, group in enumerate(self.population):
            if group.join_round > self.fleet.rounds:
                raise ValueError(
                    f"population.{index}: join_round {group.join_round} "
                    f"exceeds fleet.rounds {self.fleet.rounds}"
                )
            if (
                group.leave_round is not None
                and group.leave_round > self.fleet.rounds
            ):
                raise ValueError(
                    f"population.{index}: leave_round {group.leave_round} "
                    f"exceeds fleet.rounds {self.fleet.rounds}"
                )
        if isinstance(self.regime, FlashCrowdRegime):
            runs_app = any(
                self.regime.app in profile_by_name(group.profile).apps
                for group in self.population
            )
            if not runs_app:
                raise ValueError(
                    f"regime.app {self.regime.app!r} is not run by any "
                    "population profile — the flash crowd would be empty"
                )
        if isinstance(self.regime, CorrelatedFaultsRegime):
            from repro.errors.cases import case_by_id

            app_name = case_by_id(self.regime.case_id).app_name
            runs_app = any(
                app_name in profile_by_name(group.profile).apps
                for group in self.population
            )
            if not runs_app:
                raise ValueError(
                    f"regime.case_id {self.regime.case_id} needs "
                    f"{app_name!r}, which no population profile runs — "
                    "the correlated error would land nowhere"
                )
            if self.regime.crash_round > self.fleet.rounds:
                raise ValueError(
                    f"regime.crash_round {self.regime.crash_round} exceeds "
                    f"fleet.rounds {self.fleet.rounds}"
                )
        if isinstance(self.regime, HeterogeneousRegime):
            distinct = {group.profile for group in self.population}
            if len(distinct) < self.regime.min_profiles:
                raise ValueError(
                    f"heterogeneous regime needs at least "
                    f"{self.regime.min_profiles} distinct profiles, "
                    f"population has {len(distinct)}"
                )
        if self.inject_case is not None:
            if self.inject_case.machine_index >= self.total_machines:
                raise ValueError(
                    f"inject_case.machine_index "
                    f"{self.inject_case.machine_index} exceeds the "
                    f"{self.total_machines}-machine population"
                )
        return self


# -- the three layers ---------------------------------------------------------


def apply_env_overrides(
    data: dict,
    env: Mapping[str, str] | None = None,
    prefix: str = ENV_PREFIX,
) -> dict:
    """Fold ``REPRO__``-prefixed variables into a raw config mapping.

    Double underscores separate path segments; segments are lowercased
    to match the YAML field names; an all-digits segment indexes into a
    list.  Values are parsed as YAML scalars (``"50"`` → 50, ``"null"``
    → None, ``"[1, 2]"`` → list), falling back to the raw string.
    Paths that do not name a model field survive this merge and are
    rejected by validation with a field-level message.
    """
    if env is None:
        env = os.environ
    merged = dict(data)
    for variable in sorted(env):
        if not variable.startswith(prefix):
            continue
        raw_path = variable[len(prefix):]
        if not raw_path:
            continue
        segments = [part.lower() for part in raw_path.split("__")]
        try:
            value = yaml.safe_load(env[variable])
        except yaml.YAMLError:
            value = env[variable]
        merged = _set_path(merged, variable, segments, value)
    return merged


def _set_path(node, variable: str, segments: list[str], value):
    """Return ``node`` with ``value`` placed at ``segments`` (copy-on-write)."""
    head, rest = segments[0], segments[1:]
    if isinstance(node, list):
        if not head.isdigit():
            raise ScenarioConfigError(
                f"{variable}: segment {head!r} must be a list index"
            )
        index = int(head)
        if index >= len(node):
            raise ScenarioConfigError(
                f"{variable}: index {index} is out of range "
                f"(list has {len(node)} entries)"
            )
        copy = list(node)
        copy[index] = (
            value if not rest else _set_path(copy[index], variable, rest, value)
        )
        return copy
    if not isinstance(node, dict):
        # an env path descends through a YAML scalar: replace it with a
        # fresh mapping so defaults-plus-env works without the section
        node = {}
    copy = dict(node)
    if not rest:
        copy[head] = value
    else:
        copy[head] = _set_path(copy.get(head, {}), variable, rest, value)
    return copy


def scenario_from_dict(
    data: dict,
    env: Mapping[str, str] | None = None,
    *,
    source: str = "<dict>",
) -> ScenarioConfig:
    """Validate a raw mapping (YAML layer already parsed) into a config."""
    if not isinstance(data, dict):
        raise ScenarioConfigError(
            f"{source}: scenario config must be a mapping, "
            f"got {type(data).__name__}"
        )
    merged = apply_env_overrides(data, env)
    try:
        return ScenarioConfig.model_validate(merged)
    except ValidationError as error:
        raise ScenarioConfigError(_validation_message(source, error)) from error


def load_scenario(
    path: str | Path,
    env: Mapping[str, str] | None = None,
) -> ScenarioConfig:
    """Load one scenario YAML through all three layers.

    ``env`` defaults to ``os.environ``; pass ``{}`` to validate the
    file exactly as committed (the CI schema-validation step does).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ScenarioConfigError(f"{path}: {error}") from error
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise ScenarioConfigError(f"{path}: invalid YAML: {error}") from error
    return scenario_from_dict(data, env, source=str(path))
