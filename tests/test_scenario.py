"""Scenario file parsing: defaults, strict unknown-key rejection, bundles."""

import dataclasses
import math
import sys

import pytest

import pouwsim.cli
from pouwsim import scenario
from pouwsim.cli import cli_main
from pouwsim.netsim import run_scenario
from pouwsim.scenario import (
    MAX_LAYERS,
    MinerGroup,
    ScenarioConfig,
    ScenarioError,
    bundled_scenario_names,
    load_bundled_scenario,
    parse_scenario,
    resolve_scenario,
)
from pouwsim.work import ADC_GAIN, DEPOSIT_FRACTION

MINIMAL = """
[scenario]
seed = 7
rounds = 3

[miners:honest]
behavior = honest
count = 2
"""


def test_parse_minimal_with_defaults():
    cfg = parse_scenario(MINIMAL)
    assert cfg.seed == 7
    assert cfg.rounds == 3
    assert cfg.strategy == "decoy"
    assert len(cfg.miners) == 1
    assert cfg.miners[0].count == 2


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match="unknown section"):
        parse_scenario(MINIMAL + "\n[surprise]\nx = 1\n")


@pytest.mark.parametrize("section", ["miners", "partition"])
def test_group_section_without_a_colon_is_unknown(section):
    with pytest.raises(ScenarioError, match=rf"^unknown section \[{section}\]$"):
        parse_scenario(MINIMAL + f"\n[{section}]\ncount = 1\n")


def test_unknown_key_rejected(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario("[scenario]\nrounds = 3\nbogus = 1\n[miners:h]\ncount = 1\n")
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(MINIMAL.replace("count = 2", "count = 2\nhat = tall"))
    # removed keys are unknown keys, not silent no-ops
    for removed in ("[work]\nworkers = 4\n", "[validation]\ntarget_nresults = 5\n"):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(MINIMAL + removed)
        path = tmp_path / "removed.scn"
        path.write_text(MINIMAL + removed)
        assert cli_main(["scenario-check", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("scenario error: unknown key")
        assert captured.err.count("\n") == 1 and captured.out == ""


def test_every_setting_is_wired():
    """Every scalar ScenarioConfig field has a key, so no setting exists
    that a scenario file cannot set."""
    keyed = {attr for keys in scenario._SECTION_KEYS.values() for attr, _ in keys.values()}
    scalars = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"miners", "partitions"}
    assert keyed == scalars


def test_bad_values_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL.replace("rounds = 3", "rounds = 0"))
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL.replace("seed = 7", "seed = 7\nstrategy = wishful"))
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL.replace("behavior = honest", "behavior = trickster"))
    with pytest.raises(ScenarioError, match="drop_rate"):
        parse_scenario(MINIMAL + "\n[network]\ndrop_rate = 1.0\n")


FLOAT_KEYS = [
    (section, key)
    for section, keys in scenario._SECTION_KEYS.items()
    for key, (_, conv) in keys.items()
    if conv is float
] + [("miners:honest", "speed")]


def _with_setting(section, key, raw):
    if section.startswith("miners:"):
        return MINIMAL.replace("count = 2", f"count = 2\n{key} = {raw}")
    return MINIMAL + f"\n[{section}]\n{key} = {raw}\n"


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_non_finite_float_rejected(tmp_path, monkeypatch, capsys, section, key, raw):
    text = _with_setting(section, key, raw)
    with pytest.raises(ScenarioError, match=key):
        parse_scenario(text)
    path = tmp_path / "nonfinite.scn"
    path.write_text(text)
    runs = []
    monkeypatch.setattr(pouwsim.cli, "run_scenario", lambda cfg: runs.append(cfg))
    for command in (["scenario-check"], ["run", "--out", str(tmp_path / "out")]):
        assert cli_main([*command, "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scenario error: ") and key in captured.err
        assert captured.err.count("\n") == 1
    assert runs == []  # rejected before anything is simulated


@pytest.mark.parametrize("raw", ["-0.0", "-5e-324", "-0.02"])
def test_a_negative_smear_is_refused_negative_zero_included(raw):
    """``-0.0 < 0`` is false, but a smear of -0.0 packs apart from 0.0, so
    it would put a different ``smear_sigma`` into every block of a run
    that behaves like the 0.0 one. It is refused with the negatives, in
    one line; 0.0 is admitted."""
    with pytest.raises(ScenarioError, match=r"^smear_sigma must be >= 0 and not -0\.0$"):
        parse_scenario(_with_setting("work", "smear_sigma", raw))
    assert math.copysign(1.0, parse_scenario(_with_setting("work", "smear_sigma", "0.0")).smear_sigma) == 1.0


def test_partition_validation():
    good = MINIMAL + "\n[partition:p]\nnodes = honest-0\nstart = 5\nend = 9\n"
    cfg = parse_scenario(good)
    assert cfg.partitions[0].nodes == ("honest-0",)
    with pytest.raises(ScenarioError, match="unknown node"):
        parse_scenario(MINIMAL + "\n[partition:p]\nnodes = martian-0\nstart = 5\nend = 9\n")
    with pytest.raises(ScenarioError, match="window"):
        parse_scenario(MINIMAL + "\n[partition:p]\nnodes = honest-0\nstart = 9\nend = 9\n")


_PARTITION = "\n[partition:p]\nnodes = honest-0\nstart = 5\nend = 9\n"


@pytest.mark.parametrize(
    "text,section,key",
    [
        (MINIMAL.replace("count = 2", "count = two"), "miners:honest", "count"),
        (MINIMAL.replace("count = 2", "count = 2\nspeed = fast"), "miners:honest", "speed"),
        (MINIMAL.replace("count = 2", "count = 2\noffline = maybe"), "miners:honest", "offline"),
        (MINIMAL + _PARTITION.replace("start = 5", "start = soon"), "partition:p", "start"),
    ],
    ids=["count", "speed", "offline", "start"],
)
def test_bad_group_value_names_its_section_and_key(tmp_path, capsys, text, section, key):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert str(info.value).startswith(f"[{section}] {key}: ")
    path = tmp_path / "bad.scn"
    path.write_text(text)
    assert cli_main(["scenario-check", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"scenario error: {info.value}\n"


def test_group_defaults_are_the_fields_and_a_partition_needs_every_key():
    group = parse_scenario(MINIMAL).miners[0]
    assert group == MinerGroup("honest", count=2, group="honest")
    with pytest.raises(ScenarioError, match=r"^\[partition:p\] needs nodes, start and end$"):
        parse_scenario(MINIMAL + _PARTITION.replace("end = 9\n", ""))
    with pytest.raises(ScenarioError, match=r"^miner section needs a name: \[miners:<name>\]$"):
        parse_scenario(MINIMAL + "\n[miners:]\ncount = 1\n")


def test_reference_strategy_needs_layers():
    text = MINIMAL + "\n[work]\nn_layers = 2\n"
    with pytest.raises(ScenarioError, match="n_layers"):
        parse_scenario(text.replace("seed = 7", "seed = 7\nstrategy = reference"))


def test_admission_bounds_sit_at_the_pipelines_worst_case():
    """At MAX_LAYERS and a beam just under the ADC bound the worst-case
    track, the largest ADC count at every plane, still fits a u64; one
    layer more, or a beam 4% larger, is refused."""
    beam = 2.5e17 / MAX_LAYERS
    cfg = ScenarioConfig(n_layers=MAX_LAYERS, beam_energy=beam, miners=(MinerGroup("h", count=2),))
    cfg.validate()
    worst_hit = math.floor(DEPOSIT_FRACTION * beam * -math.log(2.0**-53) / ADC_GAIN)
    assert worst_hit * MAX_LAYERS < 2**64
    with pytest.raises(ScenarioError, match="n_layers must be in"):
        dataclasses.replace(cfg, n_layers=MAX_LAYERS + 1).validate()
    with pytest.raises(ScenarioError, match="ADC sum"):
        dataclasses.replace(cfg, beam_energy=1.04 * beam).validate()


def _smear_bound(n_layers):
    """The largest smear the worst case admits, as the scenario module
    derives it: a hit's |u| is at most 8.58 sigma + L (1 + 0.05 L), an
    innovation at most 3 (L + 1)**2 times that, and its square is finite."""
    reach = n_layers * (1 + 0.05 * n_layers)
    return (math.sqrt(sys.float_info.max) / (3 * (n_layers + 1) ** 2) - reach) / 8.58


@pytest.mark.parametrize("n_layers", [3, 6, MAX_LAYERS])
def test_honest_miners_at_the_smear_bound_never_escalate_and_are_never_banned(n_layers):
    """At the largest smear validate() admits, the worst-case innovation,
    with the exact Box-Muller radius, squares to a finite number. Honest
    miners under reference, where one strike bans, then pass intake and the
    reference check in every round: no ban, no escalation. A smear 1%
    larger is refused."""
    sigma = _smear_bound(n_layers)
    radius = math.sqrt(-2.0 * math.log(2.0**-53))
    worst = 3 * (n_layers + 1) ** 2 * (radius * sigma + n_layers * (1 + 0.05 * n_layers))
    assert math.isfinite(worst * worst)
    cfg = ScenarioConfig(
        rounds=4,
        strategy="reference",
        ban_threshold=1,
        n_configs=2,
        n_events=4,
        n_layers=n_layers,
        smear_sigma=sigma,
        miners=(MinerGroup("h", count=3),),
    )
    with pytest.raises(ScenarioError, match="smear_sigma must be <= "):
        dataclasses.replace(cfg, smear_sigma=1.01 * sigma).validate()
    summary = run_scenario(cfg).summary
    assert summary["submission_outcomes"] == {"accepted": 12}
    assert summary["escalated_rounds"] == 0 and summary["bans"] == []


def test_k_correct_bounds():
    text = MINIMAL.replace(
        "behavior = honest", "behavior = partial_fabricate\nk_correct = 11"
    )
    with pytest.raises(ScenarioError, match="k_correct"):
        parse_scenario(text)


def test_bundled_scenarios_parse(tmp_path):
    names = bundled_scenario_names()
    assert "default" in names
    assert "fairness" in names
    for name in names:
        cfg = load_bundled_scenario(name)
        cfg.validate()
    with pytest.raises(ScenarioError):
        load_bundled_scenario("no_such_scenario")
    with pytest.raises(ScenarioError):
        resolve_scenario(tmp_path / "missing.scn")
