"""Root authority: registration, bans, round lifecycle, intake rules, winner
selection, transaction cap semantics, difficulty control, and the round's
hand-off of the winning result."""

import gc
import hashlib
import math
import sys
import weakref
from collections import Counter, deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pouwsim.authority import (
    ACCEPTED,
    BANNED,
    DUPLICATE_SUBMISSION,
    DuplicateAddress,
    DuplicateIdentity,
    LATE,
    MALFORMED,
    MinerRegistry,
    RootAuthority,
    TX_QUEUED,
    UNREGISTERED,
    UnknownAddress,
    WRONG_PARAMS,
    adjust_difficulty,
)
from pouwsim.chain import (
    GENESIS_PARAMS,
    ROOT_ADDRESS,
    ZERO_DIGEST,
    Block,
    address_for,
    auth_key_for,
    block_hash,
    derive_work_seed,
    make_transaction,
    validate_block,
)
import pouwsim.authority
import pouwsim.miner
import pouwsim.work
from pouwsim.scenario import ScenarioConfig
from pouwsim.miner import BEHAVIOR_PARTIAL_FABRICATE, MinerBehavior, MinerNode, choose_subset
from pouwsim.verification import (
    NOT_IN_WINNING_CLUSTER,
    STRATEGY_DECOY,
    STRATEGY_REFERENCE,
    STRATEGY_REPLICATION,
    Submission,
)
from pouwsim.work import ConfigResult, SimulationResult, TrackRecord, canonical_digest, run_pipeline

from conftest import make_parameters


def _authority(n_miners=1, **overrides):
    config = ScenarioConfig(
        strategy=STRATEGY_REPLICATION,
        min_quorum=1,
        n_configs=1,
        n_events=4,
        beam_energy=3.0,
        energy_cut=1.0,
        n_layers=4,
        smear_sigma=0.02,
        split_scale=6.0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    registry = MinerRegistry()
    authority = RootAuthority(registry, config)
    miners = []
    for i in range(n_miners):
        node = MinerNode(f"m{i}", address_for(f"m{i}"), auth_key_for(f"m{i}"))
        registry.register(node.name, node.address, node.auth_key)
        miners.append(node)
    return authority, miners


def _submit(authority, miner, now):
    rnd = authority.round
    sub = miner.compute_solution(rnd.work, rnd.number)
    return authority.accept_submission(sub, now), sub


def _play_round(authority, miners, now):
    deadline = now + 100
    authority.open_round(deadline)
    for m in miners:
        _submit(authority, m, now + 1)
    return authority.close_round(deadline), deadline


# -- registration and bans ---------------------------------------------------------

def test_register_duplicate_identity_and_address():
    registry = MinerRegistry()
    registry.register("alice", address_for("a1"), auth_key_for("a1"))
    with pytest.raises(DuplicateIdentity):
        registry.register("alice", address_for("a2"), auth_key_for("a2"))
    with pytest.raises(DuplicateAddress):
        registry.register("bob", address_for("a1"), auth_key_for("a1"))


def test_banned_identity_cannot_reregister():
    registry = MinerRegistry()
    registry.register("mallory", address_for("m"), auth_key_for("m"))
    registry.ban(address_for("m"), "spam")
    with pytest.raises(DuplicateIdentity):
        registry.register("mallory", address_for("m2"), auth_key_for("m2"))
    with pytest.raises(UnknownAddress):
        registry.ban(address_for("ghost"), "no such node")


def test_two_wrong_params_strikes_ban():
    authority, (miner,) = _authority(ban_threshold=2)
    wrong = MinerNode("w", miner.address, miner.auth_key, MinerBehavior("wrong_params"))
    now = 0
    for expected in (WRONG_PARAMS, WRONG_PARAMS, BANNED):
        authority.open_round(now + 100)
        outcome, _ = _submit(authority, wrong, now + 1)
        assert outcome == expected
        authority.close_round(now + 100)
        now += 100
    assert authority.registry.is_banned(miner.address)


def test_honest_miner_never_banned_over_100_rounds():
    authority, (miner,) = _authority(ban_threshold=2)
    now = 0
    for _ in range(100):
        _play_round(authority, [miner], now)
        now += 100
    assert not authority.registry.is_banned(miner.address)
    assert authority.registry.entries[miner.address].strikes == 0


# -- intake rules ---------------------------------------------------------------------

def test_intake_rules():
    authority, (miner,) = _authority()
    authority.open_round(100)

    outcome, sub = _submit(authority, miner, 1)
    assert outcome == ACCEPTED
    # one submission per address per round
    assert authority.accept_submission(sub, 2) == DUPLICATE_SUBMISSION

    stranger = MinerNode("x", address_for("x"), auth_key_for("x"))
    outcome, _ = _submit(authority, stranger, 3)
    assert outcome == UNREGISTERED

    # arrivals at or past the deadline are late, before any other rule
    assert authority.accept_submission(sub, authority.round.deadline) == LATE
    authority.close_round(100)
    assert authority.accept_submission(sub, 101) == LATE


def test_wrong_params_rejected():
    authority, (miner,) = _authority(ban_threshold=0)
    authority.open_round(100)
    wrong = MinerNode("w2", miner.address, miner.auth_key, MinerBehavior("wrong_params"))
    outcome, sub = _submit(authority, wrong, 1)
    assert outcome == WRONG_PARAMS
    assert sub.params_echo.energy_cut == authority.round.params.energy_cut * 2.0


def test_intake_compares_an_echo_that_is_not_the_rounds_object():
    """An honest miner echoes the round's own parameters object; an equal
    copy still passes intake, and a copy with one field changed is still
    wrong."""
    authority, (a, b) = _authority(2, ban_threshold=0)
    rnd = authority.open_round(100)
    sub = a.compute_solution(rnd.work, rnd.number)
    assert sub.params_echo is rnd.params
    copy = replace(sub, params_echo=replace(rnd.params))
    assert copy.params_echo == rnd.params and copy.params_echo is not rnd.params
    assert authority.accept_submission(copy, 1) == ACCEPTED
    changed = replace(rnd.params, n_events=rnd.params.n_events + 1)
    wrong = replace(b.compute_solution(rnd.work, rnd.number), params_echo=changed)
    assert authority.accept_submission(wrong, 1) == WRONG_PARAMS


def test_block_assembly_sets_up_the_transaction_rule_only_for_a_pool_with_transactions(monkeypatch):
    built = []
    executor = pouwsim.authority.block_executor
    monkeypatch.setattr(pouwsim.authority, "block_executor", lambda *a: built.append(a) or executor(*a))
    authority, (miner,) = _authority()
    outcome, now = _play_round(authority, [miner], 0)
    assert built == [] and outcome.block.transactions == ()
    tx = make_transaction(miner.auth_key, miner.address, address_for("x"), 1, 0)
    assert authority.submit_transaction(tx) == TX_QUEUED
    outcome, _ = _play_round(authority, [miner], now)
    assert len(built) == 1 and outcome.block.transactions == (tx,)


def test_banned_miner_submission_rejected():
    authority, (miner,) = _authority()
    authority.registry.ban(miner.address, "test")
    authority.open_round(100)
    outcome, _ = _submit(authority, miner, 1)
    assert outcome == BANNED


def _with_entries(sub, entries):
    # the copy's digest would be derived from these entries, but intake's
    # shape check turns it away before anything reads it (a NaN or a
    # negative count could not be serialized)
    return replace(sub, result=replace(sub.result, per_config=tuple(entries)))


def _retrack(entry, **changes):
    return replace(entry, tracks=(replace(entry.tracks[0], **changes),) + entry.tracks[1:])


_MALFORMED_CASES = {
    "extra config": lambda sub, e: _with_entries(sub, e + [replace(e[0], index=len(e))]),
    "missing config": lambda sub, e: _with_entries(sub, e[:-1]),
    "indices out of order": lambda sub, e: _with_entries(sub, e[::-1]),
    "plane 0": lambda sub, e: _with_entries(
        sub, [_retrack(e[0], hits=((0, 0.0),) + e[0].tracks[0].hits[1:])] + e[1:]
    ),
    "plane past n_layers": lambda sub, e: _with_entries(
        sub, [_retrack(e[0], hits=e[0].tracks[0].hits[:-1] + ((99, 0.0),))] + e[1:]
    ),
    "nan slope": lambda sub, e: _with_entries(sub, [_retrack(e[0], b=float("nan"))] + e[1:]),
    "infinite position": lambda sub, e: _with_entries(
        sub, [_retrack(e[0], hits=((1, float("inf")),) + e[0].tracks[0].hits[1:])] + e[1:]
    ),
    "negative adc_sum": lambda sub, e: _with_entries(sub, [_retrack(e[0], adc_sum=-1)] + e[1:]),
}


@pytest.mark.parametrize("strategy", (STRATEGY_REPLICATION, STRATEGY_DECOY))
def test_result_bound_to_its_digest(strategy):
    """A miner copies the honest result and claims 10**12 steps in an entry
    the decoy does not check. The copy's digest is derived from its own
    entries, so it cannot pass as the honest result: intake accepts it as
    a well-formed result of its own without a strike, clustering leaves it
    out of the winning cluster, and the cost sample is the honest one."""
    authority, (a, b, liar) = _authority(3, strategy=strategy, min_quorum=2, n_configs=4)
    rnd = authority.open_round(100)
    _, honest = _submit(authority, a, 1)
    _submit(authority, b, 1)
    victim = next(i for i in range(4) if i != authority.ensure_decoy().decoy_index)
    entries = list(honest.result.per_config)
    entries[victim] = replace(entries[victim], step_count=10**12)
    lie = Submission(liar.address, rnd.number, rnd.params, replace(honest.result, per_config=tuple(entries)))
    assert lie.result.digest != honest.result.digest
    assert authority.accept_submission(lie, 2) == ACCEPTED
    assert authority.registry.entries[liar.address].strikes == 0
    outcome = authority.close_round(100)
    assert outcome.verdict.accepted == tuple(sorted((a.address, b.address)))
    assert dict(outcome.verdict.rejected) == {liar.address: NOT_IN_WINNING_CLUSTER}
    assert outcome.cost_sample == sum(e.step_count for e in honest.result.per_config)


def _reference_round(n_miners=2):
    authority, miners = _authority(
        n_miners, strategy=STRATEGY_REFERENCE, n_configs=2, n_events=8, ban_threshold=3
    )
    authority.open_round(100)
    return authority, miners


@pytest.mark.parametrize("case", sorted(_MALFORMED_CASES))
def test_malformed_submission_struck_and_round_closes(case):
    """A submission whose params match but whose result has the wrong shape
    (an extra config once raised IndexError in close_round) is turned away
    at intake with a strike, and the round still produces a block."""
    authority, (honest, hostile) = _reference_round()
    assert _submit(authority, honest, 1)[0] == ACCEPTED
    rnd = authority.round
    good = hostile.compute_solution(rnd.work, rnd.number)
    assert all(entry.tracks for entry in good.result.per_config), "need a track per config"
    bad = _MALFORMED_CASES[case](good, list(good.result.per_config))
    assert authority.accept_submission(bad, 2) == MALFORMED
    assert authority.registry.entries[hostile.address].strikes == 1
    assert authority.accept_submission(good, 3) == ACCEPTED  # the strike does not ban
    outcome = authority.close_round(100)
    assert outcome.block.number == 1
    assert authority.chain.height == 1


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from((0.0, 1e300, -1e301))
_finite = st.floats(-1e300, 1e300) | st.sampled_from((-0.0, 1e300, -1e300))
_counts = st.integers(-1, 3) | st.sampled_from((2**64 - 1, 2**64))
_u64 = st.integers(0, 3) | st.just(2**64 - 1)
_any_entries = st.lists(
    st.builds(
        ConfigResult,
        index=st.integers(-1, 2),
        tracks=st.lists(
            st.builds(
                TrackRecord,
                a=_floats,
                b=_floats,
                adc_sum=_counts,
                hits=st.lists(st.tuples(st.integers(-1, 5), _floats), max_size=5).map(tuple),
            ),
            max_size=3,
        ).map(tuple),
        step_count=_counts,
    ),
    max_size=3,
).map(tuple)


@st.composite
def _shaped_entries(draw, n_configs=2, n_layers=4):
    """Entries with the round's shape and extreme but finite values: the
    intake check passes them on to verification."""
    entries = []
    for index in range(n_configs):
        hit_lists = draw(
            st.lists(st.lists(st.tuples(st.integers(1, n_layers), _finite), max_size=6).map(tuple), max_size=3)
        )
        tracks = tuple(TrackRecord(draw(_finite), draw(_finite), draw(_u64), h) for h in hit_lists)
        entries.append(ConfigResult(index, tracks, draw(_u64)))
    return tuple(entries)


@settings(max_examples=100, deadline=None)
@given(
    strategy=st.sampled_from((STRATEGY_REFERENCE, STRATEGY_DECOY, STRATEGY_REPLICATION)),
    # the round's shape, accepted; or any shape at all
    case=st.tuples(_shaped_entries(), st.just((ACCEPTED,)))
    | st.tuples(_any_entries, st.just((ACCEPTED, MALFORMED))),
)
def test_any_well_typed_submission_leaves_a_block(strategy, case):
    entries, expected = case
    authority, (honest, hostile) = _authority(2, strategy=strategy, n_configs=2, ban_threshold=0)
    authority.open_round(100)
    _submit(authority, honest, 1)
    rnd = authority.round
    sub = Submission(hostile.address, rnd.number, rnd.params, SimulationResult(entries))
    assert authority.accept_submission(sub, 2) in expected
    assert authority.close_round(100).block.number == 1


# -- parameters ---------------------------------------------------------------------

def test_issue_parameters_idempotent_and_seed_oracle():
    authority, (miner,) = _authority()
    p1 = authority.issue_parameters()
    p2 = authority.issue_parameters()
    assert p1 == p2
    # independent recomputation from the public chain
    tip = authority.chain.tip
    oracle = hashlib.sha256(block_hash(tip) + (tip.number + 1).to_bytes(8, "big")).digest()
    assert p1.work_seed == int.from_bytes(oracle[:8], "big")

    _play_round(authority, [miner], 0)
    p3 = authority.issue_parameters()
    assert p3.work_seed != p1.work_seed  # consecutive rounds never share a seed


def test_round_params_seed_matches_derivation():
    authority, (miner,) = _authority()
    seeds = []
    now = 0
    for _ in range(5):
        rnd = authority.open_round(now + 100)
        seeds.append(rnd.params.work_seed)
        _submit(authority, miner, now + 1)
        authority.close_round(now + 100)
        now += 100
    assert len(set(seeds)) == len(seeds)


# -- close_round ----------------------------------------------------------------------

def test_decoy_round_computes_each_shared_result_once(monkeypatch):
    """One decoy round, a 6-member partial fabrication group (k=3 of C=10)
    submitting before 2 honest miners: each config runs once, each
    fabricated entry is drawn once, the decoy check hashes each distinct
    decoy entry once, and only the results that survive it are digested,
    each once: intake never reads a digest, and a caught group's result is
    never hashed. Each distinct entry whose bytes those digests read is
    serialized once: the 10 honest entries, plus the caught group's decoy
    entry or the passing group's 7 fabricated ones."""
    k, c = 3, 10
    authority, _ = _authority(n_miners=0, strategy=STRATEGY_DECOY, n_configs=c)
    cartel = MinerBehavior(BEHAVIOR_PARTIAL_FABRICATE, k_correct=k, group_seed=77)
    miners = [MinerNode(f"c{i}", address_for(f"c{i}"), auth_key_for(f"c{i}"), cartel) for i in range(6)]
    miners += [MinerNode(f"h{i}", address_for(f"h{i}"), auth_key_for(f"h{i}")) for i in range(2)]
    for node in miners:
        authority.registry.register(node.name, node.address, node.auth_key)
    calls = Counter()
    computed = Counter()
    run_configs = pouwsim.work.run_configs

    def counted_configs(params, indices):
        computed.update(indices)
        return run_configs(params, indices)

    monkeypatch.setattr(pouwsim.work, "run_configs", counted_configs)
    serialized = Counter()
    kept = []  # holds every counted entry, so no id is reused
    entry_bytes = pouwsim.work.config_entry_bytes

    def counted_bytes(entry):
        kept.append(entry)
        serialized[id(entry)] += 1
        return entry_bytes(entry)

    monkeypatch.setattr(pouwsim.work, "config_entry_bytes", counted_bytes)
    for module, name in (
        (pouwsim.work, "canonical_digest"),
        (pouwsim.miner, "fabricated_config_entry"),
        (pouwsim.work, "config_entry_digest"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    rnd = authority.open_round(100)
    for node in miners:
        sub = node.compute_solution(rnd.work, rnd.number)
        assert authority.accept_submission(sub, 1) == ACCEPTED
    outcome = authority.close_round(2)
    assert outcome.verdict.strategy_used == STRATEGY_DECOY
    caught = rnd.decoy.decoy_index not in choose_subset(77, rnd.params.work_seed, k, c)
    assert computed == Counter(range(c))  # each config computed exactly once
    assert calls == {
        "fabricated_config_entry": c - k,
        "canonical_digest": 1 if caught else 2,
        "config_entry_digest": 2 if caught else 1,
    }
    assert sorted(serialized.values()) == [1] * (c + 1 if caught else 2 * c - k)


def test_single_submission_always_wins():
    authority, (miner,) = _authority()
    outcome, _ = _play_round(authority, [miner], 0)
    assert outcome.block.winner == miner.address
    assert outcome.verdict.accepted == (miner.address,)
    assert authority.chain.balance(miner.address) == 1


def test_zero_submissions_self_compute():
    authority, _ = _authority(n_miners=0)
    rnd = authority.open_round(100)
    outcome = authority.close_round(100)
    assert outcome.block.winner == ROOT_ADDRESS
    assert outcome.verdict.strategy_used == "self_compute"
    assert outcome.verdict.accepted == (ROOT_ADDRESS,)
    assert authority.chain.height == 1
    # the authority's own run is the block's data and its cost sample
    own = run_pipeline(rnd.params)
    assert outcome.block.sim_data_hash == own.digest
    assert outcome.cost_sample == sum(e.step_count for e in own.per_config)


def test_winning_result_stored_and_served():
    authority, (miner,) = _authority()
    authority.open_round(100)
    _, sub = _submit(authority, miner, 1)
    outcome = authority.close_round(100)
    assert outcome.block.winner == miner.address
    assert sub.result.digest == outcome.block.sim_data_hash
    # hand-off invariant: the body re-hashes to the block's data hash
    assert canonical_digest(sub.result.per_config) == outcome.block.sim_data_hash


def test_authority_keeps_no_past_round_result():
    authority, (miner,) = _authority()
    authority.open_round(100)
    _, sub = _submit(authority, miner, 1)
    outcome = authority.close_round(100)
    assert outcome.block.winner == miner.address
    ref = weakref.ref(sub.result)
    del sub, outcome
    _play_round(authority, [miner], 100)
    gc.collect()
    assert ref() is None, "a past round's result is still reachable"


# -- transaction cap ---------------------------------------------------------------------

def test_over_cap_transactions_deferred_fifo_exactly():
    authority, (miner,) = _authority(tx_cap=2)
    now = 0
    for _ in range(6):  # fund the sender with 6 rewards
        _play_round(authority, [miner], now)
        now += 100
    recipient = address_for("sink")
    authority.registry.register("sink", recipient, auth_key_for("sink"))
    txs = [
        make_transaction(miner.auth_key, miner.address, recipient, 1, nonce)
        for nonce in range(5)
    ]
    for tx in txs:
        assert authority.submit_transaction(tx) == TX_QUEUED

    outcome, _ = _play_round(authority, [miner], now)
    assert outcome.block.transactions == tuple(txs[:2])
    now += 100
    outcome, _ = _play_round(authority, [miner], now)
    assert outcome.block.transactions == tuple(txs[2:4])
    now += 100
    outcome, _ = _play_round(authority, [miner], now)
    assert outcome.block.transactions == (txs[4],)


def _assembly_oracle(chain, registry, winner, candidates):
    """Block assembly as an independent loop: keep a transaction when its
    amount, nonce, balance and tag hold against the state it runs on."""
    balances = {winner: chain.balance(winner) + chain.block_reward}
    nonces = {}
    chosen = []
    for tx in candidates:
        floor = nonces.get(tx.sender, chain.next_nonce.get(tx.sender, 0))
        balance = balances.get(tx.sender, chain.balance(tx.sender))
        if tx.amount < 1 or tx.nonce < floor or balance < tx.amount:
            continue
        if not registry.verify_transaction_tag(tx):
            continue
        balances[tx.sender] = balance - tx.amount
        balances[tx.recipient] = balances.get(tx.recipient, chain.balance(tx.recipient)) + tx.amount
        nonces[tx.sender] = tx.nonce + 1
        chosen.append(tx)
    return chosen


_ACCOUNTS = 3


@settings(max_examples=200, deadline=None)
@given(
    funds=st.lists(st.integers(0, 3), min_size=_ACCOUNTS, max_size=_ACCOUNTS),
    floors=st.lists(st.integers(0, 2), min_size=_ACCOUNTS, max_size=_ACCOUNTS),
    winner=st.integers(0, _ACCOUNTS - 1),
    cap=st.none() | st.integers(0, 6),
    pool=st.lists(
        st.tuples(
            st.integers(0, _ACCOUNTS - 1),  # sender
            st.integers(0, _ACCOUNTS - 1),  # recipient, may equal the sender
            st.integers(0, 3),  # amount, 0 is invalid
            st.integers(0, 4),  # nonce: stale, at the floor or gapped
            st.booleans(),  # forged tag
        ),
        max_size=10,
    ),
)
def test_assembly_drops_what_the_chain_rejects(funds, floors, winner, cap, pool):
    """Pools put straight into the authority's pool, bypassing intake:
    assembly keeps exactly what the independent loop keeps, and the block
    it makes passes validation with the registry."""
    authority, miners = _authority(_ACCOUNTS, tx_cap=cap)
    chain = authority.chain
    for node, balance, floor in zip(miners, funds, floors):
        if balance:
            chain.balances[node.address] = balance
        if floor:
            chain.next_nonce[node.address] = floor
    for sender, recipient, amount, nonce, forged in pool:
        key = miners[(sender + 1) % _ACCOUNTS if forged else sender].auth_key
        tx = make_transaction(key, miners[sender].address, miners[recipient].address, amount, nonce)
        authority.pool.append(tx)
    drained = list(authority.pool)[:cap]
    expected = _assembly_oracle(chain, authority.registry, miners[winner].address, drained)

    chosen = authority._assemble_transactions(miners[winner].address)
    assert chosen == expected
    assert len(authority.pool) == len(pool) - len(drained)
    tip = chain.tip
    block = Block(
        number=tip.number + 1,
        timestamp=tip.timestamp + 1,
        prev_hash=block_hash(tip),
        transactions=tuple(chosen),
        winner=miners[winner].address,
        sim_params=replace(GENESIS_PARAMS, work_seed=derive_work_seed(block_hash(tip), tip.number + 1)),
        sim_data_hash=ZERO_DIGEST,
    )
    validate_block(block, chain, authority.registry)


def test_unregistered_or_banned_transactions_rejected():
    authority, (miner,) = _authority()
    ghost_tx = make_transaction(auth_key_for("ghost"), address_for("ghost"), miner.address, 1, 0)
    assert authority.submit_transaction(ghost_tx) == "rejected"
    authority.registry.ban(miner.address, "test")
    tx = make_transaction(miner.auth_key, miner.address, address_for("ghost"), 1, 0)
    assert authority.submit_transaction(tx) == "rejected"


# -- difficulty -----------------------------------------------------------------------------

def test_adjust_difficulty_fixed_point_and_clamps():
    assert adjust_difficulty(2.0, 100.0, 100.0) == 2.0  # observed == target
    assert adjust_difficulty(2.0, 400.0, 100.0) == 4.0  # clamped at doubling
    assert adjust_difficulty(2.0, 1.0, 100.0) == 1.0  # clamped at halving


def test_difficulty_cut_never_underflows():
    """A cost that stays below target halves the cut every round; unbounded,
    it reaches 0.0 after about 1075 rounds and make_parameters raises."""
    energy_cut = 1.0
    for _ in range(1100):
        energy_cut = adjust_difficulty(energy_cut, 0.0, 1.0)
    assert energy_cut == sys.float_info.min
    params = make_parameters(
        1, n_events=0, beam_energy=6.0, energy_cut=energy_cut,
        n_layers=6, n_configs=1, smear_sigma=0.02, split_scale=8.0,
    )
    assert params.energy_cut == sys.float_info.min
    # from the floor the cut still rises when the cost exceeds the target
    assert adjust_difficulty(energy_cut, 4.0, 1.0) == 2.0 * sys.float_info.min


def _plain_sum(values):
    """Left-to-right float adds, the way the protocol sums floats."""
    total = 0.0
    for value in values:
        total += value
    return total


def test_difficulty_window_keeps_the_last_samples():
    authority, (miner,) = _authority(target_cost=5.0, difficulty_window=3)
    outcomes = [_play_round(authority, [miner], k)[0] for k in range(5)]
    costs = [outcome.cost_sample for outcome in outcomes]
    assert list(authority.costs) == costs[-3:]
    # each issued cut follows from the previous one and the mean of the last
    # (up to) 3 costs; cuts[4] is not clamped, so it pins the window's mean
    cuts = [outcome.block.sim_params.energy_cut for outcome in outcomes]
    cuts.append(authority.issue_parameters().energy_cut)
    for k in range(1, 6):
        window = costs[max(0, k - 3) : k]
        assert cuts[k] == adjust_difficulty(cuts[k - 1], _plain_sum(window) / len(window), 5.0)
    # The window adds left to right. In 1e16 + 1.0 - 1e16 the 1.0 is lost;
    # a compensated sum (sum() from CPython 3.12 on) keeps it. With the
    # target at the plain mean the cut stays, where the kept 1.0 would raise it.
    authority.open_round(600)
    _, sub = _submit(authority, miner, 501)
    cost = sum(e.step_count for e in sub.result.per_config)
    assert cost > 0
    window = [1e16, 1.0, -1e16, float(cost)]
    authority.costs = deque(window[:-1], maxlen=len(window))
    authority.config.target_cost = _plain_sum(window) / len(window)
    assert _plain_sum(window) == cost != math.fsum(window)
    authority.close_round(600)
    assert authority.issue_parameters().energy_cut == cuts[-1]


def test_controller_moves_issued_cut():
    authority, (miner,) = _authority(target_cost=5.0, difficulty_window=1)
    first_cut = authority.issue_parameters().energy_cut
    _play_round(authority, [miner], 0)
    second_cut = authority.issue_parameters().energy_cut
    # observed cost of the tiny pipeline far exceeds 5, so the cut rises
    assert second_cut > first_cut
