"""Network simulation: delivery model, FIFO, event ordering, metrics files,
scenario determinism, and sync under loss."""

from pouwsim.chain import ROOT_ADDRESS, address_for, chain_lines, replay_chain
from pouwsim.netsim import (
    LatencyModel,
    METRICS_COLUMNS,
    Partition,
    ScenarioRunner,
    deliver,
    emit_metrics,
    metrics_csv,
    run_scenario,
    summary_json,
)
from pouwsim.rng import Splitmix64
from pouwsim.scenario import parse_scenario

A, B = address_for("alpha"), address_for("beta")

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
    model = LatencyModel(base=3, jitter=0, drop_rate=0.0)
    assert deliver(A, B, 10, model, Splitmix64(0)) == 13


def test_deliver_partition_window():
    model = LatencyModel(
        base=1, partitions=(Partition(nodes=frozenset({A}), start=5, end=20),)
    )
    assert deliver(A, B, 10, model, Splitmix64(0)) is None  # split pair
    assert deliver(A, B, 25, model, Splitmix64(0)) == 26  # window over
    both = LatencyModel(
        base=1, partitions=(Partition(nodes=frozenset({A, B}), start=5, end=20),)
    )
    assert deliver(A, B, 10, both, Splitmix64(0)) == 11  # same side


def test_deliver_drop_rate_binomial():
    model = LatencyModel(base=1, drop_rate=0.2)
    rng = Splitmix64(77)
    dropped = sum(1 for _ in range(10000) if deliver(A, B, 10, model, rng) is None)
    assert abs(dropped / 10000 - 0.2) < 0.02


def test_deliver_jitter_range():
    model = LatencyModel(base=2, jitter=5)
    rng = Splitmix64(3)
    ticks = [deliver(A, B, 0, model, rng) for _ in range(500)]
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
    inside, outside = runner.miners["honest-0"].address, runner.miners["honest-1"].address
    ran = []
    runner.send(inside, outside, lambda tick: ran.append(("across", tick)), now=10)
    assert (runner.dropped, runner.delivered) == (1, 0)
    runner.send(ROOT_ADDRESS, outside, lambda tick: ran.append(("within", tick)), now=10)
    assert (runner.dropped, runner.delivered) == (1, 1)
    runner._drain()
    assert ran == [("within", 13)]


def test_tiny_scenario_runs_and_replays():
    result = run_scenario(parse_scenario(TINY))
    assert result.summary["blocks"] == 3
    assert result.summary["total_supply"] == 3
    assert result.summary["converged"]
    assert result.summary["replay_consistent"]
    replayed = replay_chain(list(result.state.blocks), result.registry)
    assert replayed.balances == result.state.balances


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
