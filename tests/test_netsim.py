"""Network simulation: delivery model, FIFO, event ordering, metrics files,
scenario determinism, and sync under loss."""

from dataclasses import replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import pouwsim.authority
import pouwsim.chain
import pouwsim.verification
import pouwsim.work
from pouwsim.chain import chain_lines, replay_chain
from pouwsim.miner import BEHAVIOR_KINDS
from pouwsim.netsim import (
    METRICS_COLUMNS,
    ScenarioRunner,
    deliver,
    emit_metrics,
    metrics_csv,
    run_scenario,
    summary_json,
)
from pouwsim.rng import Splitmix64
from pouwsim.scenario import (
    AUTHORITY_NODE,
    STRATEGIES,
    MinerGroup,
    PartitionWindow,
    ScenarioConfig,
    ScenarioError,
    load_bundled_scenario,
    parse_scenario,
)

A, B = "alpha", "beta"

TINY = """
[scenario]
seed = 5
rounds = 3
round_interval = 80
strategy = replication

[work]
n_configs = 1
n_events = 4
beam_energy = 3.0
energy_cut = 1.0
n_layers = 4
smear_sigma = 0.02
split_scale = 6.0

[validation]
min_quorum = 1

[network]
base_latency = 1
jitter = 0
drop_rate = 0.0

[miners:honest]
behavior = honest
count = 2
"""


def test_deliver_exact_latency():
    cfg = ScenarioConfig(base_latency=3, jitter=0, drop_rate=0.0)
    assert deliver(A, B, 10, cfg, Splitmix64(0)) == 13


def test_deliver_partition_window():
    cfg = ScenarioConfig(partitions=(PartitionWindow("p", (A,), start=5, end=20),))
    assert deliver(A, B, 10, cfg, Splitmix64(0)) is None  # split pair
    assert deliver(A, B, 25, cfg, Splitmix64(0)) == 26  # window over
    both = ScenarioConfig(partitions=(PartitionWindow("p", (A, B), start=5, end=20),))
    assert deliver(A, B, 10, both, Splitmix64(0)) == 11  # same side


def test_deliver_drop_rate_binomial():
    cfg = ScenarioConfig(drop_rate=0.2)
    rng = Splitmix64(77)
    dropped = sum(1 for _ in range(10000) if deliver(A, B, 10, cfg, rng) is None)
    assert abs(dropped / 10000 - 0.2) < 0.02


def test_deliver_jitter_range():
    cfg = ScenarioConfig(base_latency=2, jitter=5)
    rng = Splitmix64(3)
    ticks = [deliver(A, B, 0, cfg, rng) for _ in range(500)]
    assert set(ticks) <= set(range(2, 8))
    assert len(set(ticks)) == 6


def test_per_pair_fifo_under_jitter():
    runner = ScenarioRunner(parse_scenario(TINY.replace("jitter = 0", "jitter = 9")))
    order = []
    for i in range(60):
        runner.send(A, B, lambda i, tick: order.append((tick, i)), i, now=i)
    runner._drain()
    assert [i for _, i in order] == list(range(60))  # delivered in send order
    assert all(t1 <= t2 for (t1, _), (t2, _) in zip(order, order[1:]))


def test_event_queue_stable_same_tick_order():
    runner = ScenarioRunner(parse_scenario(TINY))
    ran = []
    for tick, label in ((5, "first"), (5, "second"), (4, "earlier")):
        runner.schedule(tick, lambda label, tick: ran.append((tick, label)), label)
    runner._drain()
    assert ran == [(4, "earlier"), (5, "first"), (5, "second")]


def test_send_under_a_partition_window():
    # honest-0 is cut off from the authority and honest-1 during [5, 20)
    cut = TINY.replace("base_latency = 1", "base_latency = 3")
    cut += "\n[partition:p]\nnodes = honest-0\nstart = 5\nend = 20\n"
    runner = ScenarioRunner(parse_scenario(cut))
    ran = []
    runner.send("honest-0", "honest-1", lambda tick: ran.append(("across", tick)), now=10)
    assert (runner.dropped, runner.delivered) == (1, 0)
    runner.send(AUTHORITY_NODE, "honest-1", lambda tick: ran.append(("within", tick)), now=10)
    assert (runner.dropped, runner.delivered) == (1, 1)
    runner._drain()
    assert ran == [("within", 13)]
    # the root is named "authority" in a partition section
    runner = ScenarioRunner(parse_scenario(cut.replace("nodes = honest-0", f"nodes = {AUTHORITY_NODE}")))
    runner.send(AUTHORITY_NODE, "honest-0", lambda tick: ran.append(("root across", tick)), now=10)
    runner.send("honest-0", "honest-1", lambda tick: ran.append(("miners within", tick)), now=10)
    assert (runner.dropped, runner.delivered) == (1, 1)
    runner._drain()
    assert ran == [("within", 13), ("miners within", 13)]


def test_tiny_scenario_runs_and_replays():
    result = run_scenario(parse_scenario(TINY))
    assert result.summary["blocks"] == 3
    assert result.summary["total_supply"] == 3
    assert result.summary["converged"]
    assert result.summary["replay_consistent"]
    replayed = replay_chain(list(result.state.blocks), result.registry)
    assert replayed.balances == result.state.balances


def test_a_fairness_round_costs_once_and_checks_each_header_once(monkeypatch):
    """The five miners of a fairness round share its parameters object, so
    the cost model runs once a round; every node applies the same block on
    the same parent, so its header rules run once across the six nodes.
    Only block 1 is checked by each node, as each starts from a genesis of
    its own. The closing replay checks every header again."""
    costed = []
    per_primary = pouwsim.work._expected_steps_per_primary
    monkeypatch.setattr(pouwsim.work, "_expected_steps_per_primary", lambda *a: costed.append(a) or per_primary(*a))
    checked = []  # the work-seed rule runs only among the header rules
    derive = pouwsim.chain.derive_work_seed
    monkeypatch.setattr(pouwsim.chain, "derive_work_seed", lambda h, n: checked.append(n) or derive(h, n))
    cfg = load_bundled_scenario("fairness")
    cfg.rounds = 4
    result = run_scenario(cfg)
    assert result.summary["converged"] and len(result.miners) == 5
    assert len(costed) == 4
    assert checked == [1] * 6 + [2, 3, 4] + [1, 2, 3, 4]


def test_scenario_rerun_byte_identical():
    r1 = run_scenario(parse_scenario(TINY))
    r2 = run_scenario(parse_scenario(TINY))
    assert chain_lines(r1.state.blocks) == chain_lines(r2.state.blocks)
    assert metrics_csv(r1.metrics) == metrics_csv(r2.metrics)
    assert summary_json(r1.summary) == summary_json(r2.summary)


def test_metrics_files(tmp_path):
    result = run_scenario(parse_scenario(TINY))
    m1, s1 = emit_metrics(result, tmp_path / "a")
    m2, s2 = emit_metrics(result, tmp_path / "b")
    assert m1.read_bytes() == m2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()
    lines = m1.read_text().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 1 + 3  # header + one row per block
    assert f'"total_supply": {result.state.total_supply}' in s1.read_text()


def test_lossy_scenario_converges(scenarios):
    result = scenarios.get("lossy_network")
    assert result.summary["converged"]
    assert result.summary["messages_dropped"] > 0
    assert result.summary["blocks"] == 40
    assert result.summary["total_supply"] == 40
    # the cap forced deferrals: no block carries more than the cap
    assert all(len(b.transactions) <= 2 for b in result.state.blocks)


def test_work_seeds_differ_across_rounds(scenarios):
    result = scenarios.get("default")
    seeds = [b.sim_params.work_seed for b in result.state.blocks[1:]]
    assert len(set(seeds)) == len(seeds)


def test_seed_changes_lossy_trajectory():
    lossy = TINY.replace("drop_rate = 0.0", "drop_rate = 0.3").replace("rounds = 3", "rounds = 6")
    cfg1 = parse_scenario(lossy)
    cfg2 = parse_scenario(lossy)
    cfg2.seed = 6
    r1, r2 = run_scenario(cfg1), run_scenario(cfg2)
    assert summary_json(r1.summary) != summary_json(r2.summary)


def test_slow_miner_misses_the_deadline():
    # one fast miner and one whose compute time exceeds the round interval:
    # the slow one never lands a submission in time and never wins
    slow = TINY + "\n[miners:slow]\nbehavior = honest\ncount = 1\nspeed = 0.01\n"
    result = run_scenario(parse_scenario(slow))
    assert result.summary["blocks"] == 3
    assert "slow-0" not in result.summary["wins"]
    assert result.summary["submission_outcomes"].get("late", 0) > 0


def test_all_miners_offline_self_compute_liveness():
    offline = TINY.replace("behavior = honest\ncount = 2", "behavior = honest\ncount = 2\noffline = true")
    result = run_scenario(parse_scenario(offline))
    assert result.summary["blocks"] == 3
    assert result.summary["self_compute_rounds"] == 3
    assert all(r["strategy"] == "self_compute" for r in result.metrics)
    assert result.summary["wins"] == {"authority": 3}
    # offline nodes still sync the broadcast blocks
    assert result.summary["converged"]


@pytest.mark.parametrize("base", [1, 3])
def test_shortest_round_interval_admits_a_submission(base):
    """Params and reply each take base_latency and the work at least one
    tick, so validate() rejects a round shorter than 2 * base_latency + 2
    ticks; at that length a fast miner's submission is accepted."""
    text = TINY.replace("base_latency = 1", f"base_latency = {base}")
    text = text.replace("count = 2", "count = 2\nspeed = 1e9")
    with pytest.raises(ScenarioError, match="round_interval"):
        parse_scenario(text.replace("round_interval = 80", f"round_interval = {2 * base + 1}"))
    result = run_scenario(parse_scenario(text.replace("round_interval = 80", f"round_interval = {2 * base + 2}")))
    assert result.summary["submission_outcomes"] == {"accepted": 6}
    assert result.summary["self_compute_rounds"] == 0


# -- the round's reference is built once, and only when read ------------------------

_build_reference = pouwsim.authority.build_reference


def _reference_builds(monkeypatch, cfg):
    """The round's work seed of each reference ``run_scenario(cfg)`` builds."""
    seeds = []

    def counted(params, truth_seed, bins):
        seeds.append(params.work_seed)
        return _build_reference(params, truth_seed, bins)

    monkeypatch.setattr(pouwsim.authority, "build_reference", counted)
    result = run_scenario(cfg)
    assert result.summary["blocks"] == cfg.rounds
    return seeds


@pytest.mark.parametrize("name", ["reference_cheat", "sybil_reference"])
def test_reference_scenarios_build_one_reference_per_round(monkeypatch, name):
    cfg = replace(load_bundled_scenario(name), rounds=8)
    seeds = _reference_builds(monkeypatch, cfg)
    assert len(seeds) == len(set(seeds)) == 8


def test_decoy_rounds_build_a_reference_only_for_an_online_cheat(monkeypatch):
    cfg = replace(load_bundled_scenario("decoy_attack"), rounds=4)
    assert _reference_builds(monkeypatch, cfg) == []
    spies = MinerGroup("spies", behavior="reference_cheat", count=2, offline=True)
    offline = replace(cfg, miners=(*cfg.miners, spies))
    assert _reference_builds(monkeypatch, offline) == []
    online = replace(cfg, miners=(*cfg.miners, replace(spies, offline=False)))
    seeds = _reference_builds(monkeypatch, online)
    assert len(seeds) == len(set(seeds)) == 4


def test_a_late_reference_cheat_builds_no_reference(monkeypatch):
    """A cheat whose work belongs to a closed round is handed no reference:
    its submission is refused as late whatever it holds, so under decoy no
    round builds one, and every byte stays as it was when late cheats made
    the open round build its reference (11 here)."""
    cfg = ScenarioConfig(
        seed=5,
        rounds=20,
        strategy="decoy",
        round_interval=10,
        jitter=30,
        base_latency=1,
        n_configs=4,
        n_events=4,
        miners=(MinerGroup("h", count=3), MinerGroup("spy", behavior="reference_cheat")),
    )
    builds = []
    monkeypatch.setattr(pouwsim.authority, "build_reference", lambda *args: builds.append(args))
    summary = run_scenario(cfg).summary
    assert builds == []
    assert summary["submission_outcomes"] == {"late": 80}
    assert summary["tip_hash"].startswith("0aa75919cc2d9ff1")


_kalman_filter_track = pouwsim.verification.kalman_filter_track


def test_a_mismatch_reference_round_never_filters_the_truth_tracks(monkeypatch):
    """No mismatch_reference submission passes the histogram check, so the
    truth run's innovation is never read: ``kalman_filter_track`` never
    sees a truth track, though each round's truth run has tracks an eager
    innovation pass would filter."""
    refs, filtered = [], []

    def kept(params, truth_seed, bins):
        refs.append(_build_reference(params, truth_seed, bins))
        return refs[-1]

    def spied(hits, r):
        filtered.append(hits)
        return _kalman_filter_track(hits, r)

    monkeypatch.setattr(pouwsim.authority, "build_reference", kept)
    monkeypatch.setattr(pouwsim.verification, "kalman_filter_track", spied)
    result = run_scenario(replace(load_bundled_scenario("mismatch_reference"), rounds=3))
    assert result.summary["blocks"] == 3 and len(refs) == 3
    truth = {id(t.hits) for ref in refs for entry in ref.entries for t in entry.tracks if len(t.hits) >= 3}
    assert truth  # refs and filtered hold every object, so no id is reused
    assert not [hits for hits in filtered if id(hits) in truth]


# -- any valid scenario runs to its last round ---------------------------------------

_small_floats = st.floats(0.05, 20.0, allow_nan=False)


@st.composite
def _scenario_configs(draw):
    """Small ScenarioConfigs over every knob, all behaviors and strategies,
    and partitions over the miners and the authority. validate() is not
    applied; it rejects some (two layers under reference checks)."""
    n_configs = draw(st.integers(1, 3))
    groups = []
    for g in range(draw(st.integers(0, 3))):
        groups.append(
            MinerGroup(
                name=f"g{g}",
                behavior=draw(st.sampled_from(BEHAVIOR_KINDS)),
                count=draw(st.integers(0, 3)),
                speed=draw(st.sampled_from((0.01, 0.5, 1.0, 50.0))),
                k_correct=draw(st.integers(0, n_configs)),
                group=draw(st.sampled_from(("a", "b"))),
                offline=draw(st.booleans()),
            )
        )
    nodes = [AUTHORITY_NODE] + [f"{g.name}-{i}" for g in groups for i in range(g.count)]
    windows = draw(st.lists(st.tuples(st.integers(0, 300), st.integers(1, 300)), max_size=2))
    members = st.lists(st.sampled_from(nodes), min_size=1, unique=True)
    partitions = tuple(
        PartitionWindow(f"p{k}", tuple(draw(members)), lo, lo + n) for k, (lo, n) in enumerate(windows)
    )
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**32)),
        rounds=draw(st.integers(1, 3)),
        round_interval=draw(st.integers(2, 200)),
        strategy=draw(st.sampled_from(STRATEGIES)),
        block_reward=draw(st.integers(1, 3)),
        tx_cap=draw(st.none() | st.integers(0, 3)),
        txs_per_round=draw(st.integers(0, 3)),
        tx_amount=draw(st.integers(1, 2)),
        ban_threshold=draw(st.integers(0, 3)),
        n_configs=n_configs,
        n_events=draw(st.integers(0, 3)),
        beam_energy=draw(_small_floats),
        energy_cut=draw(_small_floats),
        n_layers=draw(st.integers(2, 5)),
        smear_sigma=draw(st.sampled_from((0.0, 0.02, 0.5))),
        split_scale=draw(_small_floats),
        min_quorum=draw(st.integers(1, 3)),
        chi2_threshold=draw(st.sampled_from((1.5, 3.0, 10.0))),
        histogram_bins=draw(st.integers(8, 12)),
        reference_skew=draw(st.sampled_from((0.25, 1.0, 4.0))),
        target_cost=draw(st.none() | st.floats(0.5, 500.0)),
        difficulty_window=draw(st.integers(1, 3)),
        base_latency=draw(st.integers(1, 5)),
        jitter=draw(st.integers(0, 3)),
        drop_rate=draw(st.sampled_from((0.0, 0.3))),
        miners=tuple(groups),
        partitions=partitions,
    )


@settings(max_examples=100, deadline=None)
@given(_scenario_configs())
def test_any_valid_scenario_gives_one_block_per_round(cfg):
    try:
        cfg.validate()
    except ScenarioError:
        reject()
    r1 = run_scenario(cfg)
    r2 = run_scenario(replace(cfg))
    assert r1.summary["blocks"] == len(r1.metrics) == cfg.rounds
    assert all(row["round_ticks"] == cfg.round_interval for row in r1.metrics)
    assert r1.summary["replay_consistent"]
    assert chain_lines(r1.state.blocks) == chain_lines(r2.state.blocks)
    assert metrics_csv(r1.metrics) == metrics_csv(r2.metrics)
    assert summary_json(r1.summary) == summary_json(r2.summary)
