"""Output-hash gate: the three output files of every bundled scenario hash to
the SHA-256 values stored in ``fixtures/scenario_output_digests.json``.

A change that keeps these hashes keeps every emitted byte. A change that
alters them on purpose must say which bytes changed and why, and then
re-record the fixture with

    PYTHONPATH=src python tests/test_output_digests.py
"""

import dataclasses
import hashlib
import json
import math
import types
from pathlib import Path

import pytest

import pouwsim.rng
import pouwsim.verification
import pouwsim.work
from pouwsim.chain import chain_lines
from pouwsim.netsim import ScenarioResult, metrics_csv, run_scenario, summary_json
from pouwsim.scenario import bundled_scenario_names, load_bundled_scenario, parse_scenario

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


# No bundled scenario has a late submission. In this one the slow miners
# finish a round's work after the round closed, while the next round is
# open: 18 submissions are accepted and 24 arrive late, so the digests
# cover work computed for a round that is no longer the current one.
LATE_WORK = """
[scenario]
rounds = 6
round_interval = 400
strategy = decoy

[work]
n_configs = 3
n_events = 4

[miners:h]
behavior = honest
count = 3

[miners:slow]
behavior = honest
count = 2
speed = 0.3

[miners:cartel]
behavior = partial_fabricate
count = 2
k_correct = 1
speed = 0.1
"""
LATE_WORK_DIGESTS = {
    "chain.jsonl": "ff3f746209dc64e755b377b6192dd33af50cc760a65bfacf8eea0426bcad7b53",
    "metrics.csv": "904627d8564f9c87d602a61981d5b6e49532ebcb9f59c9e69e3b6fd2fb88b20e",
    "summary.json": "029bb796f084b4f6379c90de3e1cb2721582d68186f799b407881df4a63195e9",
}


@pytest.mark.parametrize("name", [*bundled_scenario_names(), "late_work"])
def test_scenario_output_digests(scenarios, name):
    if name == "late_work":
        result = run_scenario(parse_scenario(LATE_WORK))
        assert result.summary["submission_outcomes"] == {"accepted": 18, "late": 24}
        assert output_digests(result) == LATE_WORK_DIGESTS
        return
    assert output_digests(scenarios.get(name)) == json.loads(FIXTURE.read_text())[name]


# The pipeline's libm calls (log and cos in generation and transport, exp in
# the cost model, log and cos in Splitmix64.next_gauss) are not correctly
# rounded on every platform. One bundled scenario per configured strategy,
# about 0.7 s a run: default (decoy), difficulty_control (replication, its
# cut steered by the cost model, so exp reaches the chain) and
# all_fabricators (reference; its submissions reach the innovation check, so
# the truth run's innovation is read, and every round escalates down to
# self-compute). The first 20 rounds of reference_cheat, about 0.3 s, add
# the spies' resampled measurements, drawn through next_gauss: they win 9
# of the 20 blocks. Those 20 rounds are compared with the same rounds run
# with the true libm, as the recorded digests cover only all 100.
_LIBM_SCENARIOS = ("default", "difficulty_control", "all_fabricators")
_LIBM_ULPS = 4


def _reference_cheat_20():
    cfg = load_bundled_scenario("reference_cheat")
    return run_scenario(dataclasses.replace(cfg, rounds=20))


@pytest.fixture(scope="module")
def reference_cheat_20_digests():
    return output_digests(_reference_cheat_20())


def _nudged(fn, toward: float):
    def nudged(x: float) -> float:
        y = fn(x)
        for _ in range(_LIBM_ULPS):
            y = math.nextafter(y, toward)
        return y

    return nudged


@pytest.mark.parametrize("toward", [math.inf, -math.inf], ids=["up", "down"])
def test_output_digests_hold_under_a_libm_off_by_4_ulps(monkeypatch, reference_cheat_20_digests, toward):
    """Every emitted byte holds when the work pipeline's and the rng's log,
    cos and exp each return a result 4 ulps off, all up or all down. The
    scenarios run afresh, not from the session cache, and the cost model's
    memo is emptied before and after, so no value computed with the true
    libm is reused and none computed with the shim leaks into later tests."""
    shim = types.SimpleNamespace(**vars(math))
    for name in ("log", "cos", "exp"):
        setattr(shim, name, _nudged(getattr(math, name), toward))
    monkeypatch.setattr(pouwsim.work, "math", shim)
    monkeypatch.setattr(pouwsim.rng, "math", shim)
    reads = []
    innovation = pouwsim.verification.ReferenceDataset.mean_innovation.func
    monkeypatch.setattr(
        pouwsim.verification.ReferenceDataset,
        "mean_innovation",
        property(lambda ref: reads.append(1) or innovation(ref)),
    )
    recorded = json.loads(FIXTURE.read_text())
    pouwsim.work._expected_steps_per_primary.cache_clear()
    try:
        for name in _LIBM_SCENARIOS:
            assert output_digests(run_scenario(load_bundled_scenario(name))) == recorded[name], name
        cheat = _reference_cheat_20()
        assert output_digests(cheat) == reference_cheat_20_digests
        assert any(wins for miner, wins in cheat.summary["wins"].items() if miner.startswith("spies-"))
    finally:
        pouwsim.work._expected_steps_per_primary.cache_clear()
    assert reads  # the lazy innovation ran under the shim too


if __name__ == "__main__":
    recorded = {
        name: output_digests(run_scenario(load_bundled_scenario(name)))
        for name in bundled_scenario_names()
    }
    FIXTURE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
