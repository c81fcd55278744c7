"""Chain core: hashing, seed derivation, validation, apply/replay, export."""

import hashlib
import json
import math
import random
import struct
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pouwsim.chain
import pouwsim.work

from pouwsim.authority import MinerRegistry
from pouwsim.chain import (
    BAD_AMOUNT,
    BAD_AUTH,
    BAD_GENESIS,
    BAD_NONCE,
    BAD_PARAMS,
    BAD_TIMESTAMP,
    BAD_WORK_SEED,
    CAP_EXCEEDED,
    CUT_STEP,
    GENESIS_PARAMS,
    InvalidChainError,
    LINK_BROKEN,
    OVERSPEND,
    PARAMS_CHANGED,
    ROOT_ADDRESS,
    ZERO_DIGEST,
    Block,
    ChainState,
    address_for,
    apply_block,
    auth_key_for,
    block_hash,
    block_from_record,
    block_to_record,
    chain_lines,
    derive_work_seed,
    export_chain,
    genesis_block,
    import_chain,
    make_transaction,
    replay_chain,
    validate_block,
)

# Frozen vectors, computed once by independent SHA-256 oracles over the
# documented byte layouts (see the oracle recomputations below) and shipped
# under tests/fixtures.
_GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "golden_digests.json").read_text())
GENESIS_HASH_HEX = _GOLDEN["genesis_block_hash"]
WORK_SEED_ZERO_1 = int(_GOLDEN["work_seed_zero_prev_height_1"], 16)


def _next_block(state, winner, timestamp=None, transactions=(), **params):
    tip = state.tip
    seed = derive_work_seed(block_hash(tip), tip.number + 1)
    return Block(
        number=tip.number + 1,
        timestamp=timestamp if timestamp is not None else tip.timestamp + 1,
        prev_hash=block_hash(tip),
        transactions=tuple(transactions),
        winner=winner,
        sim_params=replace(GENESIS_PARAMS, work_seed=seed, **params),
        sim_data_hash=ZERO_DIGEST,
    )


def test_block_hash_deterministic():
    g = genesis_block()
    assert block_hash(g) == block_hash(genesis_block())


def test_block_hash_timestamp_sensitivity():
    state = ChainState.bootstrap()
    a = _next_block(state, ROOT_ADDRESS, timestamp=5)
    b = _next_block(state, ROOT_ADDRESS, timestamp=6)
    assert block_hash(a) != block_hash(b)


def test_each_block_serialized_once(monkeypatch):
    """block_hash keeps each block's digest: a block is serialized once
    however often it is hashed, and a replay serializes each block it
    reads once, the tip included."""
    serialized = []
    block_bytes = pouwsim.chain.block_bytes
    monkeypatch.setattr(pouwsim.chain, "block_bytes", lambda b: serialized.append(b) or block_bytes(b))
    state = ChainState.bootstrap()
    for _ in range(4):
        apply_block(state, _next_block(state, ROOT_ADDRESS))
    for block in state.blocks:
        assert block_hash(block) == block_hash(block) == hashlib.sha256(block_bytes(block)).digest()
    assert sorted(map(id, serialized)) == sorted(map(id, state.blocks))
    serialized.clear()
    copies = [block_from_record(block_to_record(b)) for b in state.blocks]
    replay_chain(copies)
    assert sorted(map(id, serialized)) == sorted(map(id, copies))


def test_replay_builds_an_executor_only_for_blocks_with_transactions(tmp_path, scenarios, monkeypatch):
    """The transaction executor is built once per block that carries
    transactions, and every transaction rule still fires."""
    path = tmp_path / "chain.jsonl"
    export_chain(scenarios.get("default").state.blocks, path)
    blocks = import_chain(path)
    executors = []
    executor = pouwsim.chain.block_executor
    monkeypatch.setattr(pouwsim.chain, "block_executor", lambda *a: executors.append(a[1]) or executor(*a))
    replay_chain(blocks)
    with_txs = [b for b in blocks if b.transactions]
    assert 0 < len(with_txs) < len(blocks) - 1
    assert executors == [b.winner for b in with_txs]

    height = with_txs[0].number
    first = with_txs[0].transactions[0]
    for tx, rule in [
        (replace(first, amount=0), BAD_AMOUNT),
        (replace(first, nonce=first.nonce - 1), BAD_NONCE),
        (replace(first, amount=10**9), OVERSPEND),
    ]:
        forged = replace(with_txs[0], transactions=(tx, *with_txs[0].transactions[1:]))
        with pytest.raises(InvalidChainError) as err:
            replay_chain([*blocks[:height], forged])
        assert (err.value.height, err.value.rule) == (height, rule)
    with pytest.raises(InvalidChainError) as err:
        replay_chain(blocks, MinerRegistry())
    assert (err.value.height, err.value.rule) == (height, BAD_AUTH)


def test_genesis_hash_frozen_vector():
    assert block_hash(genesis_block()).hex() == GENESIS_HASH_HEX


def test_genesis_hash_oracle_recompute():
    # independent assembly of the documented genesis byte layout
    head = struct.pack(">QQ", 0, 0) + b"\x00" * 32
    txs = struct.pack(">I", 0)
    params = (
        struct.pack(">QQddI", 0, 0, 1.0, 1.0, 2)
        + struct.pack(">I", 1)
        + struct.pack(">Idd", 0, 0.0, 1.0)
    )
    payload = head + txs + hashlib.sha256(b"pouwsim/root-authority").digest() + params + b"\x00" * 32
    assert hashlib.sha256(payload).hexdigest() == GENESIS_HASH_HEX
    assert block_hash(genesis_block()) == hashlib.sha256(payload).digest()


def test_work_seed_determinism_and_vector():
    assert derive_work_seed(ZERO_DIGEST, 1) == derive_work_seed(ZERO_DIGEST, 1)
    assert derive_work_seed(ZERO_DIGEST, 1) == WORK_SEED_ZERO_1
    oracle = hashlib.sha256(ZERO_DIGEST + (1).to_bytes(8, "big")).digest()
    assert derive_work_seed(ZERO_DIGEST, 1) == int.from_bytes(oracle[:8], "big")


def test_work_seed_collision_scan():
    rng = random.Random(0)
    seeds = {derive_work_seed(rng.randbytes(32), 7) for _ in range(1000)}
    assert len(seeds) == 1000


def test_validate_well_formed_successor():
    state = ChainState.bootstrap()
    block = _next_block(state, ROOT_ADDRESS)
    assert validate_block(block, state) is None


def test_validate_link_broken():
    state = ChainState.bootstrap()
    block = _next_block(state, ROOT_ADDRESS)
    bad = Block(
        number=block.number,
        timestamp=block.timestamp,
        prev_hash=b"\x01" * 32,
        transactions=(),
        winner=block.winner,
        sim_params=block.sim_params,
        sim_data_hash=block.sim_data_hash,
    )
    with pytest.raises(InvalidChainError) as err:
        validate_block(bad, state)
    assert err.value.rule == LINK_BROKEN and err.value.height == 1


def test_validate_work_seed_and_params_after_the_link():
    """Rule order: link, work seed, work parameters, timestamp."""
    state = ChainState.bootstrap()
    block = _next_block(state, ROOT_ADDRESS)
    cases = [
        (replace(block, prev_hash=b"\x01" * 32), LINK_BROKEN),
        (replace(block, sim_params=replace(block.sim_params, work_seed=12345)), BAD_WORK_SEED),
        (replace(block, sim_params=replace(block.sim_params, n_events=-3)), BAD_PARAMS),
        (replace(block, sim_params=replace(block.sim_params, n_events=-3, work_seed=1), timestamp=0), BAD_WORK_SEED),
        (replace(block, sim_params=replace(block.sim_params, n_configs=0), timestamp=0), BAD_PARAMS),
        (replace(block, timestamp=0), BAD_TIMESTAMP),
    ]
    for bad, rule in cases:
        with pytest.raises(InvalidChainError) as err:
            validate_block(bad, state)
        assert err.value.rule == rule and err.value.height == 1, bad


def test_from_block_2_the_run_fields_hold_and_the_cut_steps():
    """Block 1 may set any valid parameters. From block 2 on, ParamsChanged
    holds the fields a scenario fixes to the parent's bit for bit, a zero
    smear's sign included, and CutStep holds the cut to one difficulty step
    from the parent's, its floor included; both come after BadParams and
    before BadTimestamp."""
    for first_cut, cuts in [
        (1.0, {2.0: None, 0.5: None, 1.0: None, math.nextafter(2.0, 3.0): CUT_STEP, math.nextafter(0.5, 0.0): CUT_STEP}),
        (1e-320, {sys.float_info.min: None, 2e-320: CUT_STEP, 2 * sys.float_info.min: CUT_STEP}),
    ]:
        state = ChainState.bootstrap()
        apply_block(state, _next_block(state, ROOT_ADDRESS, n_events=5, n_configs=3, energy_cut=first_cut))
        for cut, rule in cuts.items():
            block = _next_block(state, ROOT_ADDRESS, n_events=5, n_configs=3, energy_cut=cut)
            if rule is None:
                validate_block(block, state)
                continue
            with pytest.raises(InvalidChainError) as err:
                validate_block(block, state)
            assert (err.value.height, err.value.rule) == (2, rule), cut
    state = ChainState.bootstrap()
    apply_block(state, _next_block(state, ROOT_ADDRESS))
    for fields, rule, detail in [
        ({"n_events": 1}, PARAMS_CHANGED, "n_events 1 != 0"),
        ({"n_configs": 2}, PARAMS_CHANGED, "n_configs 2 != 1"),
        ({"smear_sigma": -0.0}, PARAMS_CHANGED, "smear_sigma -0.0 != 0.0"),
        ({"split_scale": 2.0, "energy_cut": 4.0}, PARAMS_CHANGED, "split_scale 2.0 != 1.0"),
        ({"n_events": -1}, BAD_PARAMS, "n_events must be >= 0"),
        ({"energy_cut": 4.0}, CUT_STEP, "energy_cut 4.0 not in [0.5, 2.0]"),
    ]:
        with pytest.raises(InvalidChainError) as err:
            validate_block(_next_block(state, ROOT_ADDRESS, timestamp=0, **fields), state)
        assert str(err.value) == f"invalid block at height 2: {rule} {detail}"


def test_validate_overspend():
    registry = MinerRegistry()
    a, b = address_for("a"), address_for("b")
    registry.register("a", a, auth_key_for("a"))
    registry.register("b", b, auth_key_for("b"))
    state = ChainState.bootstrap()
    tx = make_transaction(auth_key_for("a"), a, b, 5, 0)
    block = _next_block(state, b, transactions=[tx])
    with pytest.raises(InvalidChainError) as err:
        validate_block(block, state, registry)
    assert err.value.rule == OVERSPEND


def test_validate_nonce_and_cap_and_auth():
    registry = MinerRegistry()
    a, b = address_for("a"), address_for("b")
    registry.register("a", a, auth_key_for("a"))
    registry.register("b", b, auth_key_for("b"))
    state = ChainState.bootstrap(tx_cap=1)
    apply_block(state, _next_block(state, a), registry)  # fund a

    # nonce below the floor
    tx0 = make_transaction(auth_key_for("a"), a, b, 1, 0)
    apply_block(state, _next_block(state, a, transactions=[tx0]), registry)
    stale = make_transaction(auth_key_for("a"), a, b, 1, 0)
    with pytest.raises(InvalidChainError) as err:
        validate_block(_next_block(state, a, transactions=[stale]), state, registry)
    assert err.value.rule == BAD_NONCE

    # cap
    t1 = make_transaction(auth_key_for("a"), a, b, 1, 1)
    t2 = make_transaction(auth_key_for("a"), a, b, 1, 2)
    with pytest.raises(InvalidChainError) as err:
        validate_block(_next_block(state, a, transactions=[t1, t2]), state, registry)
    assert err.value.rule == CAP_EXCEEDED

    # forged tag
    forged = make_transaction(auth_key_for("b"), a, b, 1, 1)
    with pytest.raises(InvalidChainError) as err:
        validate_block(_next_block(state, a, transactions=[forged]), state, registry)
    assert err.value.rule == BAD_AUTH


def _count_header_checks(monkeypatch):
    """The height of each block whose header rules run past the link rule,
    read from the work-seed rule, which only the header rules call."""
    checked = []
    derive = pouwsim.chain.derive_work_seed
    monkeypatch.setattr(pouwsim.chain, "derive_work_seed", lambda h, n: checked.append(n) or derive(h, n))
    return checked


def test_header_rules_skipped_only_for_the_last_passing_pair(monkeypatch):
    """validate_block skips the header rules only for the very (block,
    parent) pair that last passed them: a block or a parent that is equal
    but another object is checked, and a block that fails them is never
    kept, so it fails every time and the last passing pair stays kept."""
    checked = _count_header_checks(monkeypatch)
    state, other = ChainState.bootstrap(), ChainState.bootstrap()
    assert state.tip == other.tip and state.tip is not other.tip
    block = _next_block(state, ROOT_ADDRESS)
    copy = replace(block)
    assert copy == block and copy is not block
    for _ in range(2):
        validate_block(block, state)
    assert len(checked) == 1
    validate_block(copy, state)
    validate_block(block, other)
    validate_block(block, other)
    assert len(checked) == 3
    late = replace(block, timestamp=0)
    invalid = replace(block, sim_params=replace(block.sim_params, n_events=-3))
    for bad, rule in ((late, BAD_TIMESTAMP), (invalid, BAD_PARAMS)):
        for _ in range(2):
            with pytest.raises(InvalidChainError) as err:
                validate_block(bad, other)
            assert err.value.rule == rule
    assert len(checked) == 7
    validate_block(block, other)
    assert len(checked) == 7
    validate_block(block, state)
    assert len(checked) == 8


def test_cap_and_transaction_rules_run_on_every_node(monkeypatch):
    """Nodes that apply one block on one parent object run its header rules
    once, but its cap and transaction rules under each node's own state and
    registry, every time: a rule that one node's state breaks fires there,
    and BadAuthTag fires under a registry after the block passed without."""
    registry = MinerRegistry()
    a, b = address_for("a"), address_for("b")
    registry.register("a", a, auth_key_for("a"))
    registry.register("b", b, auth_key_for("b"))
    funded = ChainState.bootstrap(tx_cap=1)
    apply_block(funded, _next_block(funded, a), registry)
    unfunded = ChainState(blocks=list(funded.blocks), tx_cap=1)
    capped = ChainState(blocks=list(funded.blocks), balances=dict(funded.balances), tx_cap=0)
    checked = _count_header_checks(monkeypatch)
    block = _next_block(funded, b, transactions=[make_transaction(auth_key_for("a"), a, b, 1, 0)])
    for _ in range(2):
        validate_block(block, funded, registry)
        with pytest.raises(InvalidChainError) as err:
            validate_block(block, unfunded, registry)
        assert err.value.rule == OVERSPEND
        with pytest.raises(InvalidChainError) as err:
            validate_block(block, capped, registry)
        assert err.value.rule == CAP_EXCEEDED
    assert checked == [2]
    forged = _next_block(funded, b, transactions=[make_transaction(auth_key_for("b"), a, b, 1, 0)])
    validate_block(forged, funded)  # exports carry no keys: no tag check
    for _ in range(2):
        with pytest.raises(InvalidChainError) as err:
            validate_block(forged, funded, registry)
        assert err.value.rule == BAD_AUTH
    assert checked == [2, 2]


def test_replay_checks_every_header_of_blocks_just_applied(monkeypatch, tmp_path):
    """An audit does not borrow the header memo: replaying the very block
    objects a node has just applied checks each header, even for a chain of
    one block whose pair the memo holds, and so does replaying an import."""
    checked = _count_header_checks(monkeypatch)
    state = ChainState.bootstrap()
    apply_block(state, _next_block(state, ROOT_ADDRESS))
    replay_chain(state.blocks)
    assert checked == [1, 1]
    for _ in range(3):
        apply_block(state, _next_block(state, ROOT_ADDRESS))
    checked.clear()
    replay_chain(state.blocks)
    path = tmp_path / "chain.jsonl"
    export_chain(state.blocks, path)
    replay_chain(import_chain(path))
    assert checked == [1, 2, 3, 4] * 2


def test_apply_empty_block_only_winner_changes():
    state = ChainState.bootstrap()
    winner = address_for("w")
    apply_block(state, _next_block(state, winner))
    assert state.balances == {winner: 1}
    assert state.total_supply == 1


def test_apply_moves_amounts_and_conserves():
    registry = MinerRegistry()
    a, b = address_for("a"), address_for("b")
    registry.register("a", a, auth_key_for("a"))
    registry.register("b", b, auth_key_for("b"))
    state = ChainState.bootstrap()
    for _ in range(3):
        apply_block(state, _next_block(state, a), registry)
    before = sum(state.balances.values())
    tx = make_transaction(auth_key_for("a"), a, b, 3, 0)
    apply_block(state, _next_block(state, b, transactions=[tx]), registry)
    assert state.balance(a) == 0  # three rewards, all transferred
    assert state.balance(b) == 1 + 3  # own reward plus the transfer
    assert sum(state.balances.values()) == before + state.block_reward
    assert state.next_nonce[a] == 1


def test_supply_induction():
    state = ChainState.bootstrap(block_reward=2)
    for n in range(1, 6):
        apply_block(state, _next_block(state, address_for("w")))
        assert state.total_supply == 2 * n
        assert sum(state.balances.values()) == state.total_supply


def test_replay_genesis_only():
    state = replay_chain([genesis_block()])
    assert state.balances == {}
    assert state.total_supply == 0
    # equal to the canonical genesis, but not the same bytes
    signed_zero = replace(GENESIS_PARAMS, smear_sigma=-0.0)
    with pytest.raises(InvalidChainError) as err:
        replay_chain([replace(genesis_block(), sim_params=signed_zero)])
    assert err.value.rule == BAD_GENESIS


def test_replay_matches_incremental():
    registry = MinerRegistry()
    a, b = address_for("a"), address_for("b")
    registry.register("a", a, auth_key_for("a"))
    registry.register("b", b, auth_key_for("b"))
    state = ChainState.bootstrap()
    apply_block(state, _next_block(state, a), registry)
    apply_block(state, _next_block(state, a), registry)
    tx = make_transaction(auth_key_for("a"), a, b, 1, 0)
    apply_block(state, _next_block(state, b, transactions=[tx]), registry)
    replayed = replay_chain(list(state.blocks), registry)
    assert replayed.balances == state.balances
    assert replayed.next_nonce == state.next_nonce
    assert replayed.total_supply == state.total_supply


def test_replay_names_corrupted_height():
    state = ChainState.bootstrap()
    for _ in range(4):
        apply_block(state, _next_block(state, address_for("w")))
    blocks = list(state.blocks)
    bad = blocks[2]
    blocks[2] = Block(
        number=bad.number,
        timestamp=bad.timestamp,
        prev_hash=b"\x07" * 32,
        transactions=bad.transactions,
        winner=bad.winner,
        sim_params=bad.sim_params,
        sim_data_hash=bad.sim_data_hash,
    )
    with pytest.raises(InvalidChainError) as err:
        replay_chain(blocks)
    assert err.value.height == 2
    assert err.value.rule == LINK_BROKEN


def test_export_import_roundtrip(tmp_path):
    state = ChainState.bootstrap()
    registry = MinerRegistry()
    a, b = address_for("a"), address_for("b")
    registry.register("a", a, auth_key_for("a"))
    registry.register("b", b, auth_key_for("b"))
    apply_block(state, _next_block(state, a), registry)
    tx = make_transaction(auth_key_for("a"), a, b, 1, 0)
    apply_block(state, _next_block(state, b, transactions=[tx]), registry)

    path = tmp_path / "chain.jsonl"
    export_chain(state.blocks, path)
    loaded = import_chain(path)
    assert loaded == state.blocks
    # bytes stable across re-export
    export_chain(loaded, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
    # one JSON object per line, digests hex
    first = json.loads(path.read_text().splitlines()[0])
    assert first["prev_hash"] == "00" * 32


def test_import_keeps_a_zero_smear_sign_per_record(tmp_path, monkeypatch):
    """``-0.0 == 0.0``, yet the two encode to different block bytes: each
    record keeps its own smear sign and split, so the file re-exports byte
    for byte and every block keeps its hash. Each record is decoded by its
    own block_from_record call."""
    state = ChainState.bootstrap()
    for _ in range(6):
        apply_block(state, _next_block(state, ROOT_ADDRESS))
    # (smear, split) of blocks 1..6; genesis has (0.0, 1.0)
    variants = [(0.0, 1.0), (-0.0, 1.0), (0.0, 1.0), (0.0, 2.0), (-0.0, 1.0), (0.0, 1.0)]
    blocks = [state.blocks[0]] + [
        replace(b, sim_params=replace(b.sim_params, n_configs=3, smear_sigma=smear, split_scale=split))
        for b, (smear, split) in zip(state.blocks[1:], variants)
    ]
    path = tmp_path / "chain.jsonl"
    export_chain(blocks, path)
    text = path.read_text()
    assert text.count('"smear_sigma":-0.0') == 6
    calls = []
    decode = pouwsim.chain.block_from_record
    monkeypatch.setattr(pouwsim.chain, "block_from_record", lambda *args: calls.append(1) or decode(*args))
    loaded = import_chain(path)
    assert len(calls) == len(blocks)
    assert chain_lines(loaded) == text
    assert [block_hash(b) for b in loaded] == [block_hash(b) for b in blocks]
    signs = [math.copysign(1.0, b.sim_params.smear_sigma) for b in loaded[1:]]
    assert signs == [1.0, -1.0, 1.0, 1.0, -1.0, 1.0]


@pytest.mark.parametrize(
    "config,detail",
    [
        ({"index": 1, "smear_sigma": 0.0, "split_scale": 1.0}, "config indices must be 0..C-1 in order"),
        ({"index": 0, "smear_sigma": math.nan, "split_scale": 1.0}, "smear_sigma must be finite and >= 0"),
        ({"index": 0, "smear_sigma": -1.0, "split_scale": 1.0}, "smear_sigma must be finite and >= 0"),
    ],
)
def test_one_block_with_bad_configs_fails_at_its_height(tmp_path, config, detail):
    """The one record whose configs array is bad fails at its height. An
    index out of order makes the array one export never writes, so the
    record is unreadable; a bad smear decodes and fails BadParams."""
    state = ChainState.bootstrap()
    for _ in range(6):
        apply_block(state, _next_block(state, ROOT_ADDRESS))
    lines = chain_lines(state.blocks).splitlines()
    record = json.loads(lines[3])
    record["params"]["configs"] = [config]
    lines[3] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path = tmp_path / "chain.jsonl"
    path.write_text("\n".join(lines) + "\n")
    if config["index"]:
        with pytest.raises(ValueError) as unreadable:
            import_chain(path)
        assert str(unreadable.value) == f"block 3: {detail}"
        return
    with pytest.raises(InvalidChainError) as err:
        replay_chain(import_chain(path))
    assert str(err.value) == f"invalid block at height 3: {BAD_PARAMS} {detail}"


def test_record_roundtrip_preserves_floats():
    block = genesis_block()
    assert block_from_record(block_to_record(block)) == block
    assert chain_lines([block]).count("\n") == 1
