"""Root-authority actor: identity registry, round lifecycle, submission
intake, verdict orchestration, winner selection, block assembly and
difficulty control.

The authority is the sole block producer. It issues fresh work parameters
per round (seed derived from the previous block hash), collects at most one
submission per registered miner, validates them with the configured strategy
(escalating on anomalies), draws the winner with a round-seeded RNG so the
whole round is auditable, and assembles the next block from the transaction
pool.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field, replace

from .chain import (
    ROOT_ADDRESS,
    Block,
    ChainState,
    Transaction,
    apply_block,
    block_executor,
    block_hash,
    derive_work_seed,
    transaction_tag,
)
from .rng import Splitmix64, stream_seed
from .scenario import ScenarioConfig
from .verification import (
    DECOY_MISMATCH,
    ESCALATION_CHAIN,
    STRATEGY_DECOY,
    STRATEGY_REFERENCE,
    STRATEGY_REPLICATION,
    STRATEGY_SELF_COMPUTE,
    DecoySpec,
    ReferenceDataset,
    Submission,
    Verdict,
    build_reference,
    verify_decoy,
    verify_reference_all,
    verify_replication,
)
from .work import ConfigFlag, SimulationParameters, SimulationResult, WorkCache

# substream tags for per-round authority randomness
_TAG_DECOY = 21
_TAG_TRUTH = 22
_TAG_WINNER = 23

# submission intake outcomes
ACCEPTED = "accepted"
UNREGISTERED = "unregistered"
BANNED = "banned"
LATE = "late"
WRONG_PARAMS = "wrong_params"
DUPLICATE_SUBMISSION = "duplicate_submission"
MALFORMED = "malformed"

# intake bounds: counts must fit the digest's u64 fields, and floats must
# quantize to a finite number (|x| / DIGEST_QUANTUM below the float maximum)
_U64_MAX = (1 << 64) - 1
_FLOAT_BOUND = 1e300

# transaction intake outcomes
TX_QUEUED = "queued"
TX_REJECTED = "rejected"


class RegistryError(Exception):
    pass


class DuplicateIdentity(RegistryError):
    pass


class DuplicateAddress(RegistryError):
    pass


class UnknownAddress(RegistryError):
    pass


@dataclass
class RegistryEntry:
    real_id: str
    auth_key: bytes
    banned: bool = False
    strikes: int = 0
    ban_reason: str = ""


class MinerRegistry:
    """Identity registry: one address per verified real-world identity."""

    def __init__(self) -> None:
        self.entries: dict[bytes, RegistryEntry] = {}
        self._ids: set[str] = set()

    def register(self, real_id: str, address: bytes, auth_key: bytes) -> None:
        if real_id in self._ids:
            raise DuplicateIdentity(real_id)
        if address in self.entries:
            raise DuplicateAddress(address.hex())
        self.entries[address] = RegistryEntry(real_id=real_id, auth_key=auth_key)
        self._ids.add(real_id)

    def ban(self, address: bytes, reason: str) -> None:
        entry = self.entries.get(address)
        if entry is None:
            raise UnknownAddress(address.hex())
        entry.banned = True
        entry.ban_reason = reason

    def strike(self, address: bytes, reason: str, threshold: int) -> bool:
        """Record a provable protocol violation; ban at the threshold.
        A threshold <= 0 disables banning. Returns True when this strike
        triggered the ban."""
        entry = self.entries.get(address)
        if entry is None:
            raise UnknownAddress(address.hex())
        entry.strikes += 1
        if threshold > 0 and not entry.banned and entry.strikes >= threshold:
            self.ban(address, reason)
            return True
        return False

    def is_registered(self, address: bytes) -> bool:
        return address in self.entries

    def is_banned(self, address: bytes) -> bool:
        entry = self.entries.get(address)
        return entry is not None and entry.banned

    def verify_transaction_tag(self, tx: Transaction) -> bool:
        entry = self.entries.get(tx.sender)
        if entry is None:
            return False
        expected = transaction_tag(entry.auth_key, tx.sender, tx.recipient, tx.amount, tx.nonce)
        return expected == tx.auth_tag


def adjust_difficulty(energy_cut: float, observed_mean: float, target_cost: float) -> float:
    """The next cut: max(energy_cut * clamp(observed / target, 0.5, 2.0),
    smallest positive normal float). Cost falls as the cut rises, so the
    cut scales with observed/target. The floor keeps the cut valid for
    ``SimulationParameters.validate`` when the observed cost stays below
    target for good (no events, or a target above any reachable cost):
    halving every round would otherwise reach 0.0 after about 1075
    rounds."""
    ratio = observed_mean / target_cost
    if ratio < 0.5:
        ratio = 0.5
    elif ratio > 2.0:
        ratio = 2.0
    return max(energy_cut * ratio, sys.float_info.min)


@dataclass
class RoundState:
    number: int
    work: WorkCache  # the round's parameters and the results computed for them
    deadline: int
    submissions: dict[bytes, Submission] = field(default_factory=dict)
    decoy: DecoySpec | None = None
    reference: ReferenceDataset | None = None
    # intake verdict per distinct result object, keyed by id(); the entry
    # keeps the object alive, so no id is reused within the round
    checked: dict[int, tuple[SimulationResult, bool]] = field(default_factory=dict)

    @property
    def params(self) -> SimulationParameters:
        return self.work.params

    def result_ok(self, result: SimulationResult) -> bool:
        """Whether ``result`` is well formed, so that every strategy can
        process it and its digest can be derived. Nothing here reads the
        digest. Checked once per distinct result object: the members of a
        colluding group share one, and so do honest miners."""
        seen = self.checked.get(id(result))
        if seen is None:
            seen = self.checked[id(result)] = (result, _well_formed(result, self.params))
        return seen[1]


@dataclass
class RoundOutcome:
    block: Block
    verdict: Verdict
    escalation_depth: int
    cost_sample: float


def _well_formed(result: SimulationResult, params: SimulationParameters) -> bool:
    """Shape check run at intake, so that no verification strategy meets a
    result it cannot process: one entry per config with indices 0..C-1,
    every measurement a track carries on a plane in 1..n_layers, finite
    floats within the digest's range and counts that fit its u64 fields.
    A track's hit count is the length of its own hits, so no count can
    disagree with them. A result that passes can be serialized, so its
    digest can be derived; this check must run before anything reads it."""
    entries = result.per_config
    if len(entries) != len(params.configs):
        return False
    n_layers = params.n_layers
    bound = _FLOAT_BOUND
    for index, entry in enumerate(entries):
        if entry.index != index or not 0 <= entry.step_count <= _U64_MAX:
            return False
        for track in entry.tracks:
            if not 0 <= track.adc_sum <= _U64_MAX:
                return False
            if not (-bound <= track.a <= bound and -bound <= track.b <= bound):
                return False
            for plane, u in track.hits:
                if not (1 <= plane <= n_layers and -bound <= u <= bound):
                    return False
    return True


class RootAuthority:
    """Single logical actor; all state mutation happens in its handlers.
    It reads its settings from the scenario's own fields. Each round it
    opens one ``WorkCache`` with the round's parameters, which the scenario
    runner sends to every miner; every pipeline result the authority needs
    comes from that cache, so a round computes each result once."""

    def __init__(self, registry: MinerRegistry, config: ScenarioConfig):
        self.registry = registry
        self.config = config
        self.address = ROOT_ADDRESS
        self.chain = ChainState.bootstrap(self.config.block_reward, self.config.tx_cap)
        self.pool: deque[Transaction] = deque()  # FIFO; overflow waits for the next block
        self.energy_cut = self.config.energy_cut
        # one configs tuple for the whole run: every round's parameters share
        # it, so validate and params_bytes do their configs part once a run
        self.configs = tuple(
            ConfigFlag(i, self.config.smear_sigma, self.config.split_scale) for i in range(self.config.n_configs)
        )
        self.costs: deque[float] = deque(maxlen=self.config.difficulty_window)
        self.round: RoundState | None = None

    # -- round lifecycle ----------------------------------------------------

    def issue_parameters(self) -> SimulationParameters:
        """Parameters for the next round, derived from the public chain tip;
        idempotent for a fixed tip."""
        tip = self.chain.tip
        work_seed = derive_work_seed(block_hash(tip), tip.number + 1)
        cfg = self.config
        params = SimulationParameters(
            work_seed, cfg.n_events, cfg.beam_energy, self.energy_cut, cfg.n_layers, self.configs
        )
        params.validate()
        return params

    def open_round(self, deadline: int) -> RoundState:
        if self.round is not None:
            raise RuntimeError("previous round still open")
        self.round = RoundState(
            number=self.chain.height + 1,
            work=WorkCache(self.issue_parameters()),
            deadline=deadline,
        )
        return self.round

    # -- intake --------------------------------------------------------------

    def accept_submission(self, sub: Submission, now: int) -> str:
        rnd = self.round
        if rnd is None or sub.block_number != rnd.number or now >= rnd.deadline:
            return LATE
        if not self.registry.is_registered(sub.miner):
            return UNREGISTERED
        if self.registry.is_banned(sub.miner):
            return BANNED
        if sub.params_echo is not rnd.params and sub.params_echo != rnd.params:  # an honest echo is the round's object
            self.registry.strike(sub.miner, WRONG_PARAMS, self.config.ban_threshold)
            return WRONG_PARAMS
        if not rnd.result_ok(sub.result):
            self.registry.strike(sub.miner, MALFORMED, self.config.ban_threshold)
            return MALFORMED
        if sub.miner in rnd.submissions:
            return DUPLICATE_SUBMISSION
        rnd.submissions[sub.miner] = sub
        return ACCEPTED

    def submit_transaction(self, tx: Transaction) -> str:
        if not self.registry.is_registered(tx.sender):
            return TX_REJECTED
        if self.registry.is_banned(tx.sender):
            return TX_REJECTED
        if tx.amount < 1 or not self.registry.verify_transaction_tag(tx):
            return TX_REJECTED
        self.pool.append(tx)
        return TX_QUEUED

    # -- verification artifacts ----------------------------------------------

    def ensure_decoy(self) -> DecoySpec:
        rnd = self.round
        if rnd.decoy is None:
            rng = Splitmix64(stream_seed(rnd.params.work_seed, _TAG_DECOY))
            index = rng.next_below(len(rnd.params.configs))
            rnd.decoy = DecoySpec(index, rnd.work.config(index))
        return rnd.decoy

    def ensure_reference(self) -> ReferenceDataset:
        """Reference data for this round. reference_skew != 1 scales the
        truth run's event count, modeling reality diverging from the issued
        simulation model (an intensity excess the model does not predict)."""
        rnd = self.round
        if rnd.reference is None:
            truth_seed = stream_seed(rnd.params.work_seed, _TAG_TRUTH)
            truth_params = rnd.params
            if self.config.reference_skew != 1.0:
                truth_params = replace(
                    rnd.params,
                    n_events=max(0, round(rnd.params.n_events * self.config.reference_skew)),
                )
            rnd.reference = build_reference(truth_params, truth_seed, bins=self.config.histogram_bins)
        return rnd.reference

    # -- close ----------------------------------------------------------------

    def close_round(self, now: int) -> RoundOutcome:
        """Walk ``ESCALATION_CHAIN`` from the configured strategy and stop at
        the first verdict that accepts anyone. In the terminal step,
        self-compute, the authority's own pipeline run is the only
        submission, and it is accepted. Then draw the winner among the
        accepted with a round-seeded RNG, assemble and apply the next block."""
        rnd = self.round
        if rnd is None:
            raise RuntimeError("no open round")
        subs = [rnd.submissions[a] for a in sorted(rnd.submissions)]
        steps = ESCALATION_CHAIN[ESCALATION_CHAIN.index(self.config.strategy):]
        for depth, strategy in enumerate(steps):
            if strategy == STRATEGY_REFERENCE:
                verdict = verify_reference_all(
                    subs, self.ensure_reference(), self.config.chi2_threshold
                )
            elif strategy == STRATEGY_DECOY:
                verdict = verify_decoy(subs, self.ensure_decoy())
                for addr, reason in verdict.rejected:
                    if reason == DECOY_MISMATCH:
                        self.registry.strike(addr, DECOY_MISMATCH, self.config.ban_threshold)
            elif strategy == STRATEGY_REPLICATION:
                verdict = verify_replication(subs, self.config.min_quorum)
            else:  # terminal: the authority's own run is the only submission
                subs = [Submission(self.address, rnd.number, rnd.params, rnd.work.full())]
                verdict = Verdict(STRATEGY_SELF_COMPUTE, (self.address,), ())
            if verdict.accepted:
                break

        results = {s.miner: s.result for s in subs}
        rng = Splitmix64(stream_seed(rnd.params.work_seed, rnd.number, _TAG_WINNER))
        winner = verdict.accepted[rng.next_below(len(verdict.accepted))]
        costs = [results[addr].step_count for addr in verdict.accepted]  # summed once per distinct result
        block = Block(
            number=rnd.number,
            timestamp=now,
            prev_hash=block_hash(self.chain.tip),
            transactions=tuple(self._assemble_transactions(winner)),
            winner=winner,
            sim_params=rnd.params,
            sim_data_hash=results[winner].digest,
        )
        apply_block(self.chain, block, self.registry)

        cost_sample = sum(costs) / len(costs)
        if self.config.target_cost is not None:
            self.costs.append(cost_sample)
            total = 0.0
            for cost in self.costs:  # not sum(): CPython 3.12+ compensates float sums
                total += cost
            mean = total / len(self.costs)
            self.energy_cut = adjust_difficulty(self.energy_cut, mean, self.config.target_cost)

        self.round = None
        return RoundOutcome(block=block, verdict=verdict, escalation_depth=depth, cost_sample=cost_sample)

    def _assemble_transactions(self, winner: bytes) -> list[Transaction]:
        """Drain up to the cap, keeping FIFO order; transactions the chain's
        transaction rule rejects are dropped, not deferred; the rule is set
        up only when there is a transaction to drain."""
        take = len(self.pool)
        if self.config.tx_cap is not None:
            take = min(take, self.config.tx_cap)
        if not take:
            return []
        drained = [self.pool.popleft() for _ in range(take)]
        execute = block_executor(self.chain, winner, self.registry)
        return [tx for tx in drained if execute(tx) is None]
