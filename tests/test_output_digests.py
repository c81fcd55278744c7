"""Output-hash gate: the three output files of every bundled scenario hash to
the SHA-256 values stored in ``fixtures/scenario_output_digests.json``.

A change that keeps these hashes keeps every emitted byte. A change that
alters them on purpose must say which bytes changed and why, and then
re-record the fixture with

    PYTHONPATH=src python tests/test_output_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from pouwsim.chain import chain_lines
from pouwsim.netsim import ScenarioResult, metrics_csv, summary_json
from pouwsim.scenario import bundled_scenario_names

FIXTURE = Path(__file__).parent / "fixtures" / "scenario_output_digests.json"


def output_digests(result: ScenarioResult) -> dict[str, str]:
    files = {
        "chain.jsonl": chain_lines(result.state.blocks),
        "metrics.csv": metrics_csv(result.metrics),
        "summary.json": summary_json(result.summary),
    }
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in files.items()}


def test_fixture_covers_every_bundled_scenario():
    assert sorted(json.loads(FIXTURE.read_text())) == bundled_scenario_names()


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_scenario_output_digests(scenarios, name):
    assert output_digests(scenarios.get(name)) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    from pouwsim.netsim import run_scenario
    from pouwsim.scenario import load_bundled_scenario

    recorded = {
        name: output_digests(run_scenario(load_bundled_scenario(name)))
        for name in bundled_scenario_names()
    }
    FIXTURE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
