"""Miner nodes: work scheduling, behavior policies, block sync."""

import math
from dataclasses import replace

import pytest

import pouwsim.chain
import pouwsim.miner
from pouwsim.chain import (
    GENESIS_PARAMS,
    ZERO_DIGEST,
    Block,
    address_for,
    auth_key_for,
    block_hash,
    derive_work_seed,
)
from pouwsim.miner import (
    _TAG_FAB,
    BEHAVIOR_FABRICATE_ALL,
    BEHAVIOR_HONEST,
    BEHAVIOR_PARTIAL_FABRICATE,
    BEHAVIOR_REFERENCE_CHEAT,
    BEHAVIOR_SYBIL,
    BEHAVIOR_WRONG_PARAMS,
    MinerBehavior,
    MinerNode,
    choose_subset,
    fabricated_config_entry,
)
from pouwsim.rng import Splitmix64, stream_seed
from pouwsim.work import ConfigResult, TrackRecord, WorkCache, estimate_cost, run_pipeline

from conftest import make_parameters


def _node(name, behavior=None, speed=1.0):
    return MinerNode(name, address_for(name), auth_key_for(name), behavior, speed=speed)


def _params(seed=9090, n_configs=3):
    return make_parameters(
        seed,
        n_events=6,
        beam_energy=4.0,
        energy_cut=1.0,
        n_layers=5,
        n_configs=n_configs,
        smear_sigma=0.02,
        split_scale=6.0,
    )


def test_work_delay_scales_with_speed():
    params = _params()
    slow = _node("slow", speed=1.0)
    fast = _node("fast", speed=2.0)
    cost = estimate_cost(params)
    assert slow.work_delay(WorkCache(params)) == max(1, math.ceil(cost))
    assert fast.work_delay(WorkCache(params)) == max(1, math.ceil(cost / 2.0))


def test_fabricators_submit_instantly():
    params = _params()
    for kind in (BEHAVIOR_FABRICATE_ALL, BEHAVIOR_SYBIL, BEHAVIOR_WRONG_PARAMS, BEHAVIOR_REFERENCE_CHEAT):
        assert _node(kind, MinerBehavior(kind, group_seed=1)).work_delay(WorkCache(params)) == 1


def test_partial_fabricator_pays_for_its_real_share():
    params = _params()
    partial = _node("p", MinerBehavior(BEHAVIOR_PARTIAL_FABRICATE, k_correct=1, group_seed=3))
    honest = _node("h")
    assert partial.work_delay(WorkCache(params)) < honest.work_delay(WorkCache(params))


def test_honest_submission_matches_authority_pipeline():
    params = _params()
    node = _node("honest")
    sub = node.compute_solution(WorkCache(params), 1)
    assert sub.result.digest == run_pipeline(params).digest
    assert sub.params_echo == params
    assert sub.block_number == 1
    assert sub.miner == node.address


def test_colluders_share_digests_across_members():
    params = _params()
    a = _node("a", MinerBehavior(BEHAVIOR_SYBIL, group_seed=99))
    b = _node("b", MinerBehavior(BEHAVIOR_SYBIL, group_seed=99))
    c = _node("c", MinerBehavior(BEHAVIOR_SYBIL, group_seed=100))
    da = a.compute_solution(WorkCache(params), 1).result.digest
    db = b.compute_solution(WorkCache(params), 1).result.digest
    dc = c.compute_solution(WorkCache(params), 1).result.digest
    assert da == db
    assert da != dc
    assert da != run_pipeline(params).digest


def test_group_members_share_one_result_per_round():
    """Members of a colluding group submit one shared object per round. It
    equals what a lone member computes with a fresh cache, and groups that
    differ only in group seed or only in k each get their own result."""
    params = _params(n_configs=4)
    groups = {
        "partial": MinerBehavior(BEHAVIOR_PARTIAL_FABRICATE, k_correct=2, group_seed=7),
        "other_seed": MinerBehavior(BEHAVIOR_PARTIAL_FABRICATE, k_correct=2, group_seed=8),
        "other_k": MinerBehavior(BEHAVIOR_PARTIAL_FABRICATE, k_correct=1, group_seed=7),
        "sybil": MinerBehavior(BEHAVIOR_SYBIL, group_seed=7),
    }
    work = WorkCache(params)
    members = {label: [] for label in groups}
    for i in range(3):  # interleave the groups, honest work in between
        for label, behavior in groups.items():
            sub = _node(f"{label}{i}", behavior).compute_solution(work, 1)
            members[label].append(sub.result)
        _node(f"h{i}").compute_solution(work, 1)
    for label, behavior in groups.items():
        first = members[label][0]
        assert all(result is first for result in members[label])
        alone = _node(f"{label}-alone", behavior).compute_solution(WorkCache(params), 1)
        assert first == alone.result
    assert len({results[0].digest for results in members.values()}) == len(groups)
    shared = members["partial"][0]
    again = _node("partial-next", groups["partial"]).compute_solution(WorkCache(params), 1)
    assert again.result is not shared and again.result == shared


def test_fabricate_all_unique_per_miner():
    params = _params()
    a = _node("fa1", MinerBehavior(BEHAVIOR_FABRICATE_ALL))
    b = _node("fa2", MinerBehavior(BEHAVIOR_FABRICATE_ALL))
    da = a.compute_solution(WorkCache(params), 1).result.digest
    assert da != b.compute_solution(WorkCache(params), 1).result.digest


def test_partial_fabricate_k_equals_c_is_honest():
    params = _params(n_configs=3)
    partial = _node("pk", MinerBehavior(BEHAVIOR_PARTIAL_FABRICATE, k_correct=3, group_seed=5))
    assert partial.compute_solution(WorkCache(params), 1).result == run_pipeline(params)


def test_wrong_params_mutates_echo():
    params = _params()
    node = _node("wp", MinerBehavior(BEHAVIOR_WRONG_PARAMS))
    sub = node.compute_solution(WorkCache(params), 1)
    assert sub.params_echo != params
    assert sub.params_echo.energy_cut == params.energy_cut * 2.0


def test_behavior_fabrication_classification():
    assert not MinerBehavior(BEHAVIOR_HONEST).fabricates(4)
    assert MinerBehavior(BEHAVIOR_SYBIL).fabricates(4)
    assert MinerBehavior(BEHAVIOR_PARTIAL_FABRICATE, k_correct=3).fabricates(4)
    assert not MinerBehavior(BEHAVIOR_PARTIAL_FABRICATE, k_correct=4).fabricates(4)


def test_on_block_applies_and_rejects():
    node = _node("syncer")
    tip = node.chain.tip
    good = Block(
        number=1,
        timestamp=1,
        prev_hash=block_hash(tip),
        transactions=(),
        winner=address_for("w"),
        sim_params=replace(GENESIS_PARAMS, work_seed=derive_work_seed(block_hash(tip), 1)),
        sim_data_hash=ZERO_DIGEST,
    )
    assert node.on_block(good)
    assert node.chain.height == 1

    # same block again: stale height, rejected, chain unchanged
    assert not node.on_block(good)
    assert node.chain.height == 1


def test_on_block_validates_each_block_once(monkeypatch):
    calls = []

    def counted(*args, _fn=pouwsim.chain.validate_block):
        calls.append(args[0].number)
        return _fn(*args)

    # count every module-level binding, so a direct call from miner counts too
    for module in (pouwsim.chain, pouwsim.miner):
        if hasattr(module, "validate_block"):
            monkeypatch.setattr(module, "validate_block", counted)
    node = _node("once")
    prev_hash = block_hash(node.chain.tip)
    good = Block(
        number=1,
        timestamp=1,
        prev_hash=prev_hash,
        transactions=(),
        winner=address_for("w"),
        sim_params=replace(GENESIS_PARAMS, work_seed=derive_work_seed(prev_hash, 1)),
        sim_data_hash=ZERO_DIGEST,
    )
    assert node.on_block(good)
    assert calls == [1]

    unlinked = replace(good, number=2, timestamp=2)  # still points at genesis
    assert not node.on_block(unlinked)
    assert calls == [1, 2]
    assert node.chain.height == 1


def test_speed_must_be_positive():
    with pytest.raises(ValueError):
        _node("bad", speed=0.0)


def _scalar_fabricated_entry(seed, index, n_layers):
    """The fabricated entry drawn one ``Splitmix64`` call at a time: the
    oracle for the lane-kernel version."""
    rng = Splitmix64(seed)
    n_tracks = 1 + rng.next_below(4)
    tracks = []
    for _ in range(n_tracks):
        a = 2.0 * rng.next_unit() - 1.0
        b = 2.0 * rng.next_unit() - 1.0
        n_planes = n_layers if n_layers <= 3 else 3 + rng.next_below(n_layers - 2)
        hits = tuple((plane, 4.0 * rng.next_unit() - 2.0) for plane in range(1, n_planes + 1))
        tracks.append(TrackRecord(a=a, b=b, adc_sum=rng.next_below(40), hits=hits))
    step_count = 10 + rng.next_below(200)
    return ConfigResult(index, tuple(sorted(tracks, key=lambda t: (t.b, t.a, t.hits))), step_count)


@pytest.mark.parametrize("n_layers", [2, 3, 4, 6, 100])
def test_fabricated_entry_matches_scalar_oracle(n_layers):
    """repr shows every float to its last bit, so equal reprs are equal
    entries bit for bit."""
    seeds = [0, 1, 2**64 - 1] + [stream_seed(n_layers, i) for i in range(150)]
    for i, seed in enumerate(seeds):
        assert repr(fabricated_config_entry(seed, i % 7, n_layers)) == repr(_scalar_fabricated_entry(seed, i % 7, n_layers))


def test_group_entries_keep_the_full_key_seed():
    """A group derives its fabrication parent once and keys it by config
    index; that is the seed keyed by all four keys at once."""
    params = _params(n_configs=6)
    behavior = MinerBehavior(BEHAVIOR_PARTIAL_FABRICATE, k_correct=2, group_seed=31)
    result = _node("g", behavior).compute_solution(WorkCache(params), 1).result
    subset = choose_subset(31, params.work_seed, 2, 6)
    for entry in result.per_config:
        if entry.index not in subset:
            seed = stream_seed(31, params.work_seed, _TAG_FAB, entry.index)
            assert entry == _scalar_fabricated_entry(seed, entry.index, params.n_layers)
