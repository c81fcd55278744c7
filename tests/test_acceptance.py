"""Acceptance criteria.

Each test exercises one criterion at its stated tolerance and prints a
PASS/FAIL line (visible with ``pytest -s tests/test_acceptance.py``).
Scenario runs are shared through the session-scoped cache, so the whole
module stays well inside the stated runtime budgets.
"""

import random
import statistics
import time
from contextlib import contextmanager

from scipy import stats

from pouwsim.chain import (
    ROOT_ADDRESS,
    chain_lines,
    derive_work_seed,
    replay_chain,
)
from pouwsim.netsim import metrics_csv, run_scenario, summary_json
from pouwsim.scenario import bundled_scenario_names, load_bundled_scenario
from pouwsim.verification import kalman_filter_track
from pouwsim.work import generate_events, transport_and_respond

from conftest import make_parameters


@contextmanager
def check(label):
    try:
        yield
    except Exception:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_1_determinism(scenarios):
    with check("criterion 1: determinism (re-run byte-identical, < 10 s)"):
        started = time.perf_counter()
        first = scenarios.get("default")
        second = run_scenario(load_bundled_scenario("default"))
        assert chain_lines(first.state.blocks) == chain_lines(second.state.blocks)
        assert metrics_csv(first.metrics) == metrics_csv(second.metrics)
        assert summary_json(first.summary) == summary_json(second.summary)
        assert time.perf_counter() - started < 10.0


def test_criterion_2_conservation_and_replay(scenarios):
    with check("criterion 2: conservation and exact replay for every shipped scenario"):
        for name in bundled_scenario_names():
            result = scenarios.get(name)
            state = result.state
            assert state.total_supply == result.config.rounds * state.block_reward, name
            assert state.height == result.config.rounds, name
            replayed = replay_chain(
                list(state.blocks), result.registry, state.block_reward, state.tx_cap
            )
            assert replayed.balances == state.balances, name
            assert replayed.next_nonce == state.next_nonce, name
            assert replayed.total_supply == state.total_supply, name
            for node in result.miners.values():
                assert state.balance(node.address) == replayed.balance(node.address)


def test_criterion_3_sybil_weakness_and_reference_immunity(scenarios):
    with check("criterion 3: replication falls to the ring (100%), reference holds (0%)"):
        started = time.perf_counter()
        weak = scenarios.get("sybil_replication")
        assert weak.summary["rounds"] == 100
        assert weak.summary["fabrication_accepted_rounds"] == 100
        sound = scenarios.get("sybil_reference")
        assert sound.summary["rounds"] == 100
        assert sound.summary["fabrication_accepted_rounds"] == 0
        assert sound.summary["acceptance_by_behavior"]["sybil"]["accepted"] == 0
        assert time.perf_counter() - started < 30.0


def test_criterion_4_decoy_pass_rate(scenarios):
    with check("criterion 4: partial fabrication passes decoys at 0.30 +- 0.05"):
        started = time.perf_counter()
        result = scenarios.get("decoy_attack")
        rate = result.summary["fabrication_accepted_rounds"] / result.summary["rounds"]
        assert 0.25 <= rate <= 0.35
        # pass rate of the colluders' submissions themselves
        sub_rate = result.summary["acceptance_by_behavior"]["partial_fabricate"]["rate"]
        assert 0.25 <= sub_rate <= 0.35
        assert time.perf_counter() - started < 120.0


def test_criterion_5_winner_fairness(scenarios):
    with check("criterion 5: winner counts within [1880, 2120] and chi-square p > 0.001"):
        started = time.perf_counter()
        result = scenarios.get("fairness")
        wins = result.summary["wins"]
        counts = [wins.get(f"honest-{i}", 0) for i in range(5)]
        assert sum(counts) == 10000
        assert all(1880 <= c <= 2120 for c in counts)
        assert stats.chisquare(counts).pvalue > 0.001
        assert time.perf_counter() - started < 300.0


def test_criterion_6_block_sensitivity(scenarios):
    with check("criterion 6: 1000 distinct predecessor hashes give 1000 distinct seeds"):
        rng = random.Random(0)
        seeds = {derive_work_seed(rng.randbytes(32), 1) for _ in range(1000)}
        assert len(seeds) == 1000
        blocks = scenarios.get("default").state.blocks
        round_seeds = [b.sim_params.work_seed for b in blocks[1:]]
        assert len(set(round_seeds)) == len(round_seeds)
        assert all(a != b for a, b in zip(round_seeds, round_seeds[1:]))


def test_criterion_7_difficulty_monotonicity_and_control(scenarios):
    with check("criterion 7: cost monotone in the cut; controller converges within 25%"):
        grid_means = []
        for cut in (0.5, 1.0, 2.0, 4.0, 8.0):
            total = 0
            for seed in range(100):
                params = make_parameters(
                    seed,
                    n_events=10,
                    beam_energy=2.0,
                    energy_cut=cut,
                    n_layers=6,
                    n_configs=1,
                    smear_sigma=0.02,
                    split_scale=4.0,
                )
                _, steps = transport_and_respond(generate_events(params, (0,)), params, (0,))
                total += steps
            grid_means.append(total / 100)
        assert all(a >= b for a, b in zip(grid_means, grid_means[1:]))

        control = scenarios.get("difficulty_control")
        target = control.config.target_cost
        first = control.metrics[0]["mean_step_count"]
        assert first > 2.0 * target  # starts well off target
        settled = statistics.mean(r["mean_step_count"] for r in control.metrics[15:20])
        assert abs(settled - target) / target <= 0.25


def test_criterion_8_kalman_validity():
    with check("criterion 8: Kalman exactness, matched-noise chi2, least-squares parity"):
        hits = [(float(x), -0.7 + 0.31 * x) for x in range(1, 9)]
        (a, b), chi2 = kalman_filter_track(hits, 0.01)
        assert abs(a + 0.7) <= 1e-9 and abs(b - 0.31) <= 1e-9
        assert chi2 <= 1e-9

        noise = random.Random(314159)
        sigma = 0.05
        r = sigma * sigma
        chi_total, dof_total = 0.0, 0
        for _ in range(1000):
            a0, b0 = noise.uniform(-1, 1), noise.uniform(-1, 1)
            track = [(float(x), a0 + b0 * x + noise.gauss(0.0, sigma)) for x in range(1, 9)]
            _, chi2 = kalman_filter_track(track, r)
            chi_total += chi2
            dof_total += len(track) - 2
        assert 0.8 <= chi_total / dof_total <= 1.2

        for _ in range(200):
            n = noise.randint(3, 9)
            pts = [(float(x), noise.uniform(-2, 2)) for x in range(1, n + 1)]
            mx = sum(x for x, _ in pts) / n
            mu = sum(u for _, u in pts) / n
            sxx = sum((x - mx) ** 2 for x, _ in pts)
            sxu = sum((x - mx) * (u - mu) for x, u in pts)
            b_ref = sxu / sxx
            a_ref = mu - b_ref * mx
            (a, b), _ = kalman_filter_track(pts, 0.04)
            assert abs(a - a_ref) <= 1e-6 and abs(b - b_ref) <= 1e-6


def test_criterion_9_liveness_and_fallback(scenarios):
    with check("criterion 9: all-fabricator rounds escalate to self-compute, zero stalls"):
        result = scenarios.get("all_fabricators")
        assert result.summary["blocks"] == 100  # one block per round, none stalled
        assert all(r["strategy"] == "self_compute" for r in result.metrics)
        assert all(r["escalation_depth"] == 3 for r in result.metrics)
        assert all(b.winner == ROOT_ADDRESS for b in result.state.blocks[1:])

        mismatch = scenarios.get("mismatch_reference")
        assert mismatch.summary["blocks"] == 100
        assert mismatch.summary["escalated_rounds"] == 100  # reference always anomalous
        assert all(r["strategy"] == "decoy" and r["escalation_depth"] == 1 for r in mismatch.metrics)


def test_criterion_10_protocol_rules():
    with check("criterion 10: duplicate, wrong-params, banned, and cap rules exact"):
        from pouwsim.authority import (
            ACCEPTED,
            BANNED,
            DUPLICATE_SUBMISSION,
            MinerRegistry,
            RootAuthority,
            WRONG_PARAMS,
        )
        from pouwsim.chain import address_for, auth_key_for, make_transaction
        from pouwsim.miner import MinerBehavior, MinerNode
        from pouwsim.scenario import ScenarioConfig

        config = ScenarioConfig(
            strategy="replication",
            min_quorum=1,
            n_configs=1,
            n_events=4,
            beam_energy=3.0,
            energy_cut=1.0,
            n_layers=4,
            split_scale=6.0,
            tx_cap=2,
            ban_threshold=2,
        )
        registry = MinerRegistry()
        authority = RootAuthority(registry, config)
        miner = MinerNode("m", address_for("m"), auth_key_for("m"))
        registry.register("m", miner.address, miner.auth_key)

        # duplicate submission
        rnd = authority.open_round(100)
        sub = miner.compute_solution(rnd.work, rnd.number)
        assert authority.accept_submission(sub, 1) == ACCEPTED
        assert authority.accept_submission(sub, 2) == DUPLICATE_SUBMISSION
        authority.close_round(100)

        # wrong parameters strike twice, then the miner is banned
        liar = MinerNode("liar-view", miner.address, miner.auth_key, MinerBehavior("wrong_params"))
        for expected in (WRONG_PARAMS, WRONG_PARAMS, BANNED):
            opened = authority.chain.tip.timestamp + 1
            rnd = authority.open_round(opened + 100)
            bad = liar.compute_solution(rnd.work, rnd.number)
            assert authority.accept_submission(bad, opened + 1) == expected
            authority.close_round(rnd.deadline)

        # over-cap transactions defer FIFO-exactly (fresh, unbanned sender)
        registry2 = MinerRegistry()
        authority2 = RootAuthority(registry2, config)
        payer = MinerNode("payer", address_for("payer"), auth_key_for("payer"))
        registry2.register("payer", payer.address, payer.auth_key)
        registry2.register("sink", address_for("sink"), auth_key_for("sink"))
        now = 0
        for _ in range(5):
            rnd = authority2.open_round(now + 100)
            authority2.accept_submission(payer.compute_solution(rnd.work, rnd.number), now + 1)
            authority2.close_round(now + 100)
            now += 100
        txs = [
            make_transaction(payer.auth_key, payer.address, address_for("sink"), 1, nonce)
            for nonce in range(5)
        ]
        for tx in txs:
            authority2.submit_transaction(tx)
        for expected_slice in (txs[0:2], txs[2:4], txs[4:5]):
            rnd = authority2.open_round(now + 100)
            authority2.accept_submission(payer.compute_solution(rnd.work, rnd.number), now + 1)
            outcome = authority2.close_round(now + 100)
            assert outcome.block.transactions == tuple(expected_slice)
            now += 100
