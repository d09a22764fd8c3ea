"""The committed hostile-scenario catalog, driven end to end against batch.

Every regime in ``scenarios/`` — flash-crowd rollout, registry-scale churn
storm, clock-skew + duplicate/late-event flood, heterogeneous skewed
population — is loaded through all three config layers, shrunk through
the environment-override layer (``REPRO__POPULATION__0__MACHINES=…``)
rather than a forked YAML, built from its pinned seed and driven through
:func:`repro.scenarios.runner.run_fleet_scenario` (join/leave schedule,
backpressure and all).  The fleet model must equal the
concatenated-batch reference over the machines still attached.
"""

from pathlib import Path

import pytest

pytest.importorskip("pydantic", reason="scenario configs need the scenarios extra")
pytest.importorskip("yaml", reason="scenario configs need the scenarios extra")

from repro.scenarios.build import build_scenario
from repro.scenarios.config import load_scenario
from repro.scenarios.runner import run_fleet_scenario, run_stream_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[2] / "scenarios"

#: Per-regime shrink, in the config system's own env-override syntax
#: (list indices address population groups positionally).
SHRINK_ENV: dict[str, dict[str, str]] = {
    "flash_crowd": {
        "REPRO__POPULATION__0__MACHINES": "3",
        "REPRO__POPULATION__1__MACHINES": "1",
        "REPRO__POPULATION__2__MACHINES": "1",
    },
    "churn_storm": {
        "REPRO__POPULATION__0__MACHINES": "2",
        "REPRO__REGIME__KEYS": "2000",
        "REPRO__REGIME__WRITES_PER_MACHINE": "400",
    },
    "clock_skew": {
        "REPRO__POPULATION__0__MACHINES": "3",
        "REPRO__POPULATION__0__DAYS": "1",
    },
    "heterogeneous": {
        "REPRO__POPULATION__0__MACHINES": "1",
        "REPRO__POPULATION__1__MACHINES": "1",
        "REPRO__POPULATION__2__MACHINES": "1",
    },
}


@pytest.mark.parametrize("name", sorted(SHRINK_ENV))
def test_committed_scenario_equals_concatenated_batch(name, monkeypatch):
    shrink = SHRINK_ENV[name]
    for variable, value in shrink.items():
        monkeypatch.setenv(variable, value)
    config = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    # the override layer, not the committed file, sized the population
    machines = int(shrink["REPRO__POPULATION__0__MACHINES"])
    assert config.population[0].machines == machines

    built = build_scenario(config)
    result = run_fleet_scenario(built)
    assert result.equal_to_batch, f"{name}: fleet model diverged from batch"

    if name == "clock_skew":
        # the flood must actually reach the reorder machinery
        stream = run_stream_scenario(built, chunk_events=25)
        duplicates = sum(
            machine.notes.get("duplicates", 0) for machine in built.machines
        )
        assert duplicates > 0
        assert (
            stream.reorders_absorbed + stream.reorders_repaired + stream.rebuilds
        ) > 0
