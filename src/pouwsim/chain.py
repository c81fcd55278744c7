"""Blocks, transactions, canonical hashing, work-seed derivation, and ledger
state with full-replay auditing.

This module owns block and transaction validity. ``validate_block`` checks a
successor in the order height, link, work seed (derived from the link and
the height), work parameters (``SimulationParameters.validate``), from
block 2 on the fields a scenario fixes for the run (``ParamsChanged``) and
the difficulty step of the cut (``CutStep``), timestamp, transaction cap,
then each transaction under ``block_executor``'s rule (amount, nonce, auth
tag, overspend), and raises ``InvalidChainError`` at the first violated
rule. ``apply_block`` validates once and applies; ``replay_chain`` folds it
from genesis. The root authority assembles a block with the same rule,
dropping every transaction it rejects.

The rules up to the timestamp (the header rules) read only the block and
its parent, which a run's nodes share from block 2 on, so
``validate_block`` skips them for the last pair that passed them; the cap
and transaction rules always run, and ``replay_chain`` checks every header.

Canonical block serialization (all integers big-endian, fixed width):

    number      u64
    timestamp   u64 (simulated ticks)
    prev_hash   32 bytes
    tx count    u32, then per transaction:
        sender    32 bytes
        recipient 32 bytes
        amount    u64
        nonce     u64
        auth_tag  32 bytes
    winner      32 bytes
    work parameters (see work.params_bytes)
    sim_data_hash 32 bytes

The genesis block is fixed: number 0, timestamp 0, all-zero prev_hash, no
transactions, winner = the root authority address, placeholder parameters
(seed 0, 0 events, beam 1.0, cut 1.0, 2 layers, 1 config, smear 0.0, split
scale 1.0), all-zero data hash. Its hash is a frozen test vector.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from dataclasses import dataclass, field
from math import copysign
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from .work import SimulationParameters, params_bytes

if TYPE_CHECKING:  # only for type hints; avoids a runtime cycle
    from .authority import MinerRegistry

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE

ROOT_ADDRESS = hashlib.sha256(b"pouwsim/root-authority").digest()

GENESIS_PARAMS = SimulationParameters(
    work_seed=0, n_events=0, beam_energy=1.0, energy_cut=1.0, n_layers=2, n_configs=1, smear_sigma=0.0, split_scale=1.0
)

# validation rule identifiers, reported on the first violated rule
BAD_HEIGHT = "BadHeight"
LINK_BROKEN = "LinkBroken"
BAD_WORK_SEED = "BadWorkSeed"
BAD_PARAMS = "BadParams"
PARAMS_CHANGED = "ParamsChanged"
CUT_STEP = "CutStep"
BAD_TIMESTAMP = "BadTimestamp"
CAP_EXCEEDED = "CapExceeded"
BAD_AMOUNT = "BadAmount"
BAD_NONCE = "BadNonce"
BAD_AUTH = "BadAuthTag"
OVERSPEND = "Overspend"
BAD_GENESIS = "BadGenesis"

# CutStep: a cut is its parent's times a factor in [CUT_STEP_MIN,
# CUT_STEP_MAX], or CUT_FLOOR if that is lower (``adjust_difficulty``)
CUT_STEP_MIN, CUT_STEP_MAX, CUT_FLOOR = 0.5, 2.0, sys.float_info.min
# ParamsChanged: the work fields a scenario fixes for the whole run
_RUN_FIELDS = ("n_events", "beam_energy", "n_layers", "n_configs", "smear_sigma", "split_scale")


def address_for(label: str) -> bytes:
    """Deterministic 32-byte address for a named node."""
    return hashlib.sha256(b"pouwsim/node:" + label.encode()).digest()


def auth_key_for(label: str) -> bytes:
    """Deterministic signing key material for a named node (toy model)."""
    return hashlib.sha256(b"pouwsim/key:" + label.encode()).digest()


def _core_bytes(sender: bytes, recipient: bytes, amount: int, nonce: int) -> bytes:
    """A transaction's tagged and hashed fields: sender, recipient, then
    amount and nonce as big-endian u64."""
    return sender + recipient + struct.pack(">QQ", amount, nonce)


@dataclass(frozen=True)
class Transaction:
    sender: bytes
    recipient: bytes
    amount: int
    nonce: int
    auth_tag: bytes


def transaction_tag(auth_key: bytes, sender: bytes, recipient: bytes, amount: int, nonce: int) -> bytes:
    """Keyed authenticity witness standing in for a signature."""
    core = _core_bytes(sender, recipient, amount, nonce)
    return hashlib.sha256(b"pouwsim/tx-tag" + auth_key + core).digest()


def make_transaction(auth_key: bytes, sender: bytes, recipient: bytes, amount: int, nonce: int) -> Transaction:
    tag = transaction_tag(auth_key, sender, recipient, amount, nonce)
    return Transaction(sender, recipient, amount, nonce, tag)


@dataclass(frozen=True)
class Block:
    number: int
    timestamp: int
    prev_hash: bytes
    transactions: tuple[Transaction, ...]
    winner: bytes
    sim_params: SimulationParameters
    sim_data_hash: bytes


def block_bytes(block: Block) -> bytes:
    head = struct.pack(">QQ", block.number, block.timestamp) + block.prev_hash
    txs = struct.pack(">I", len(block.transactions)) + b"".join(
        _core_bytes(tx.sender, tx.recipient, tx.amount, tx.nonce) + tx.auth_tag for tx in block.transactions
    )
    return head + txs + block.winner + params_bytes(block.sim_params) + block.sim_data_hash


def block_hash(block: Block) -> bytes:
    """SHA-256 of the canonical bytes. It is computed once per block and
    kept in the block's ``__dict__`` (as ``functools.cached_property``
    would, without its per-call overhead); every field is immutable, so the
    kept digest cannot go stale."""
    memo = block.__dict__
    digest = memo.get("hash")
    if digest is None:
        digest = memo["hash"] = hashlib.sha256(block_bytes(block)).digest()
    return digest


def derive_work_seed(prev_hash: bytes, number: int) -> int:
    """First 8 bytes, big-endian, of SHA-256(prev_hash || number as u64 BE)."""
    digest = hashlib.sha256(prev_hash + struct.pack(">Q", number)).digest()
    return int.from_bytes(digest[:8], "big")


def genesis_block() -> Block:
    return Block(
        number=0,
        timestamp=0,
        prev_hash=ZERO_DIGEST,
        transactions=(),
        winner=ROOT_ADDRESS,
        sim_params=GENESIS_PARAMS,
        sim_data_hash=ZERO_DIGEST,
    )


_GENESIS_HASH = hashlib.sha256(block_bytes(genesis_block())).digest()


class InvalidChainError(Exception):
    """The first rule a block violates; every validity check raises it."""

    def __init__(self, height: int, rule: str, detail: str = ""):
        super().__init__(f"invalid block at height {height}: {rule} {detail}".strip())
        self.height = height
        self.rule = rule


@dataclass
class ChainState:
    """Ledger state: block list plus derived balances and nonces.

    Mutated only by ``apply_block``; ``replay_chain`` rebuilds the same state
    from the block list alone, which is the audit path.
    """

    blocks: list[Block]
    balances: dict[bytes, int] = field(default_factory=dict)
    next_nonce: dict[bytes, int] = field(default_factory=dict)
    total_supply: int = 0
    block_reward: int = 1
    tx_cap: int | None = None

    @classmethod
    def bootstrap(cls, block_reward: int = 1, tx_cap: int | None = None) -> "ChainState":
        return cls(blocks=[genesis_block()], block_reward=block_reward, tx_cap=tx_cap)

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.tip.number

    def balance(self, address: bytes) -> int:
        return self.balances.get(address, 0)


def block_executor(
    state: ChainState,
    winner: bytes,
    registry: "MinerRegistry | None" = None,
) -> Callable[[Transaction], tuple[str, str] | None]:
    """The transaction rule of a block won by ``winner`` on top of ``state``.

    The reward is credited to scratch balances layered over ``state`` before
    any transaction runs. Each call of the returned function executes one
    transaction: it returns the first violated ``(rule, detail)``, checking
    amount, nonce, auth tag (only with a registry: exports carry no keys) and
    overspend, or applies it to the scratch ledger and returns None.
    """
    balances: dict[bytes, int] = {winner: state.balance(winner) + state.block_reward}
    nonces: dict[bytes, int] = {}

    def execute(tx: Transaction) -> tuple[str, str] | None:
        if tx.amount < 1:
            return BAD_AMOUNT, f"amount {tx.amount}"
        floor = nonces.get(tx.sender, state.next_nonce.get(tx.sender, 0))
        if tx.nonce < floor:
            return BAD_NONCE, f"nonce {tx.nonce} < {floor}"
        if registry is not None and not registry.verify_transaction_tag(tx):
            return BAD_AUTH, ""
        sender_balance = balances.get(tx.sender, state.balance(tx.sender))
        if sender_balance < tx.amount:
            return OVERSPEND, f"balance {sender_balance} < {tx.amount}"
        balances[tx.sender] = sender_balance - tx.amount
        balances[tx.recipient] = balances.get(tx.recipient, state.balance(tx.recipient)) + tx.amount
        nonces[tx.sender] = tx.nonce + 1
        return None

    return execute


def _run_fields(p: SimulationParameters) -> tuple:
    """The values of ``_RUN_FIELDS``, in that order (attribute reads beat
    ``operator.attrgetter`` here, which runs for every block of an audit)."""
    return p.n_events, p.beam_energy, p.n_layers, p.n_configs, p.smear_sigma, p.split_scale


# The last (block, parent) pair whose header rules passed, held so that
# neither id can be reused and replaced whole; (None, None) matches none.
_header_checked: tuple[Block | None, Block | None] = (None, None)


def validate_block(
    candidate: Block,
    state: ChainState,
    registry: "MinerRegistry | None" = None,
) -> None:
    """Check a candidate successor against the current state.

    Raises InvalidChainError at the first violated rule, checked in the
    order height, link, work seed, work parameters, from block 2 on the
    run's fixed fields and the cut step, timestamp, transaction cap, then
    each transaction under ``block_executor``'s rule. Returns None for a
    valid block. The header rules are skipped only for the (block, parent)
    pair that last passed them, matched by identity, never by value, and
    recorded only once they pass. The executor is built only for a block
    that carries transactions.
    """
    global _header_checked
    parent = state.tip
    height = candidate.number
    last, last_parent = _header_checked
    if candidate is not last or parent is not last_parent:  # the header rules
        if candidate.number != parent.number + 1:
            raise InvalidChainError(height, BAD_HEIGHT, f"expected {parent.number + 1}")
        if candidate.prev_hash != block_hash(parent):
            raise InvalidChainError(height, LINK_BROKEN)
        if candidate.sim_params.work_seed != derive_work_seed(candidate.prev_hash, height):
            raise InvalidChainError(height, BAD_WORK_SEED)
        params = candidate.sim_params
        try:
            params.validate()
        except ValueError as exc:
            raise InvalidChainError(height, BAD_PARAMS, str(exc)) from None
        if parent.number:  # from block 2 on; genesis holds placeholders
            before = parent.sim_params
            new, old = _run_fields(params), _run_fields(before)
            smear = params.smear_sigma
            # valid floats equal in value are equal in bits, but for a zero smear's sign
            if new != old or (not smear and copysign(1, smear) != copysign(1, before.smear_sigma)):
                i = next(i for i, (a, b) in enumerate(zip(new, old)) if repr(a) != repr(b))
                raise InvalidChainError(height, PARAMS_CHANGED, f"{_RUN_FIELDS[i]} {new[i]!r} != {old[i]!r}")
            cut, parent_cut = params.energy_cut, before.energy_cut
            if not (parent_cut * CUT_STEP_MIN <= cut <= parent_cut * CUT_STEP_MAX and cut >= CUT_FLOOR):
                # the floor can lift the bounds; halving and doubling above it are exact
                low, high = max(parent_cut * CUT_STEP_MIN, CUT_FLOOR), max(parent_cut * CUT_STEP_MAX, CUT_FLOOR)
                if not low <= cut <= high:
                    raise InvalidChainError(height, CUT_STEP, f"energy_cut {cut!r} not in [{low!r}, {high!r}]")
        if candidate.timestamp <= parent.timestamp:
            raise InvalidChainError(height, BAD_TIMESTAMP, f"{candidate.timestamp} <= {parent.timestamp}")
        _header_checked = (candidate, parent)
    if state.tx_cap is not None and len(candidate.transactions) > state.tx_cap:
        raise InvalidChainError(height, CAP_EXCEEDED, f"{len(candidate.transactions)} > {state.tx_cap}")
    if candidate.transactions:
        execute = block_executor(state, candidate.winner, registry)
        for tx in candidate.transactions:
            violation = execute(tx)
            if violation is not None:
                raise InvalidChainError(height, *violation)


def apply_block(
    state: ChainState,
    block: Block,
    registry: "MinerRegistry | None" = None,
) -> ChainState:
    """Validate then apply: credit the winner, execute transactions, advance
    nonces, grow supply by exactly one block reward. An invalid block raises
    InvalidChainError and leaves ``state`` unchanged."""
    validate_block(block, state, registry)
    state.balances[block.winner] = state.balance(block.winner) + state.block_reward
    for tx in block.transactions:
        state.balances[tx.sender] -= tx.amount
        state.balances[tx.recipient] = state.balance(tx.recipient) + tx.amount
        state.next_nonce[tx.sender] = tx.nonce + 1
    state.total_supply += state.block_reward
    state.blocks.append(block)
    return state


def replay_chain(
    blocks: Iterable[Block],
    registry: "MinerRegistry | None" = None,
    block_reward: int = 1,
    tx_cap: int | None = None,
) -> ChainState:
    """Rebuild state from genesis by folding validate + apply.

    Raises InvalidChainError naming the height of the first bad block.
    Every block is serialized: each one as its successor's parent, the tip
    at the end, so a tip whose fields do not fit the canonical encoding
    raises too (struct.error or TypeError). Every header is checked: the
    header memo of ``validate_block`` is emptied first."""
    global _header_checked
    _header_checked = (None, None)
    block_list = list(blocks)
    if not block_list:
        raise InvalidChainError(0, BAD_GENESIS, "empty chain")
    # equal values can differ in bits (a smear of -0.0), so an equal
    # genesis is compared by hash as well
    if block_list[0] != genesis_block() or block_hash(block_list[0]) != _GENESIS_HASH:
        raise InvalidChainError(0, BAD_GENESIS, "genesis does not match the canonical genesis block")
    state = ChainState(blocks=[block_list[0]], block_reward=block_reward, tx_cap=tx_cap)
    for block in block_list[1:]:
        apply_block(state, block, registry)
    block_hash(state.tip)
    return state


# ---------------------------------------------------------------------------
# Chain export: one JSON object per line, digests and addresses in hex
# ---------------------------------------------------------------------------

def block_to_record(block: Block) -> dict:
    return {
        "number": block.number,
        "timestamp": block.timestamp,
        "prev_hash": block.prev_hash.hex(),
        "transactions": [
            {
                "from": tx.sender.hex(),
                "to": tx.recipient.hex(),
                "amount": tx.amount,
                "nonce": tx.nonce,
                "tag": tx.auth_tag.hex(),
            }
            for tx in block.transactions
        ],
        "winner": block.winner.hex(),
        "params": {
            "work_seed": block.sim_params.work_seed,
            "n_events": block.sim_params.n_events,
            "beam_energy": block.sim_params.beam_energy,
            "energy_cut": block.sim_params.energy_cut,
            "n_layers": block.sim_params.n_layers,
            "configs": [
                {"index": i, "smear_sigma": block.sim_params.smear_sigma, "split_scale": block.sim_params.split_scale}
                for i in range(block.sim_params.n_configs)
            ],
        },
        "data_hash": block.sim_data_hash.hex(),
    }


def _digest_from_hex(text: str) -> bytes:
    """A 32-byte digest or address from the lowercase hex that export
    writes; anything else (another length, upper case, spaces) is
    unreadable."""
    raw = bytes.fromhex(text)
    if len(raw) != DIGEST_SIZE or raw.hex() != text:
        raise ValueError(f"expected {DIGEST_SIZE} bytes of lowercase hex, got {text!r}")
    return raw


def _array(value: list) -> list:
    """A JSON array; a string or object would iterate as something else."""
    if type(value) is not list:
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


_NOT_EXPORTED = "has other keys or JSON types than export writes"


def block_from_record(record: dict) -> Block:
    """The block a record decodes to. The record must hold exactly the keys
    and JSON types that ``block_to_record`` writes: a JSON integer, not
    ``true``, in an integer field and a JSON float, not ``1``, in a float
    field. So no two records decode to the same block. The checks are
    inline, as they run for every block of every audit; every key is read,
    so an object with the right key count has no other key.

    The configs array must be what export writes: C >= 1 configs indexed
    0..C-1 in order that all carry one smear and one split, compared by
    their IEEE bytes (``-0.0 == 0.0``, but the two encode apart). The
    values are not range-checked here: a valid array of ``NaN`` smears
    decodes and fails ``BadParams``."""
    p = record["params"]
    knobs: list[float] = []  # smear, split of each config in turn
    for index, c in enumerate(_array(p["configs"])):
        i, smear, split = c["index"], c["smear_sigma"], c["split_scale"]
        if not (len(c) == 3 and type(i) is int and type(smear) is float and type(split) is float):
            raise TypeError(f"block {record['number']!r}: a config {_NOT_EXPORTED}")
        if i != index:
            raise ValueError(f"block {record['number']!r}: config indices must be 0..C-1 in order")
        knobs += (smear, split)
    transactions = []
    for t in _array(record["transactions"]):
        amount, nonce = t["amount"], t["nonce"]
        if not (len(t) == 5 and type(amount) is int and type(nonce) is int):
            raise TypeError(f"block {record['number']!r}: a transaction {_NOT_EXPORTED}")
        sender, recipient = _digest_from_hex(t["from"]), _digest_from_hex(t["to"])
        transactions.append(Transaction(sender, recipient, amount, nonce, _digest_from_hex(t["tag"])))
    number, timestamp = record["number"], record["timestamp"]
    work_seed, n_events, n_layers = p["work_seed"], p["n_events"], p["n_layers"]
    beam_energy, energy_cut = p["beam_energy"], p["energy_cut"]
    if not (
        len(record) == 7
        and len(p) == 6
        and type(number) is int
        and type(timestamp) is int
        and type(work_seed) is int
        and type(n_events) is int
        and type(n_layers) is int
        and type(beam_energy) is float
        and type(energy_cut) is float
    ):
        raise TypeError(f"block {number!r}: the record {_NOT_EXPORTED}")
    n_configs = len(knobs) // 2
    if not n_configs:
        raise ValueError(f"block {number!r}: at least one config required")
    if n_configs > 1:
        packed = struct.pack(f"{2 * n_configs}d", *knobs)
        if packed != packed[:16] * n_configs:
            raise ValueError(f"block {number!r}: the configs carry more than one smear_sigma and split_scale")
    # positional arguments: keyword construction of these two frozen
    # dataclasses costs about a microsecond more per record
    return Block(
        number,
        timestamp,
        _digest_from_hex(record["prev_hash"]),
        tuple(transactions),
        _digest_from_hex(record["winner"]),
        SimulationParameters(work_seed, n_events, beam_energy, energy_cut, n_layers, n_configs, knobs[0], knobs[1]),
        _digest_from_hex(record["data_hash"]),
    )


def chain_lines(blocks: Iterable[Block]) -> str:
    return "".join(
        json.dumps(block_to_record(b), sort_keys=True, separators=(",", ":")) + "\n" for b in blocks
    )


def export_chain(blocks: Iterable[Block], path: str | Path) -> None:
    Path(path).write_text(chain_lines(blocks), encoding="utf-8")


def import_chain(path: str | Path) -> list[Block]:
    """The blocks of an export, one ``block_from_record`` call per line; a
    blank line or whitespace around a record is unreadable."""
    blocks = []
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            raise ValueError(f"line {number}: blank line")
        if line.strip() != line:
            raise ValueError(f"line {number}: whitespace around the record")
        blocks.append(block_from_record(json.loads(line)))
    return blocks
