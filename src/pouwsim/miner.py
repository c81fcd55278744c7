"""Simulated miner nodes: the honest policy plus the adversary families.

Behaviors:

* honest — runs the full pipeline on the issued parameters.
* fabricate_all — well-typed junk results, unique per miner per round.
* partial_fabricate — colludes on a group seed: a uniformly drawn k-subset
  of configs is computed honestly, the rest fabricated; every group member
  produces a byte-identical submission. k = C degenerates to honest.
* sybil — the whole result is group-shared fabrication, so the group forms
  one cluster large enough to beat replication quorums.
* wrong_params — echoes mutated parameters; rejected at intake.
* reference_cheat — has oracle access to the round's reference dataset and
  resamples tracks (with matching measurement noise) from it, demonstrating
  that reference verification cannot stop an adversary who holds the
  reference data itself.

A miner receives the round's ``WorkCache``, which carries the round's
parameters, and computes into it. A partial_fabricate or sybil result
depends only on the round and the group's behavior, so the members of a
group share it through that cache: the first member to compute draws the
subset and fabricates once, and every later member submits the same object.
The other behaviors are per miner and are computed for each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .chain import Block, ChainState, InvalidChainError, apply_block
from .rng import UNIT_OFFSET, Splitmix64, draw_lanes, lanes_raw_units, lanes_u64, stream_seed
from .verification import ReferenceDataset, Submission, measurement_variance
from .work import (
    ConfigResult,
    SimulationParameters,
    SimulationResult,
    TrackRecord,
    WorkCache,
    build_result,
    fit_line,
)

BEHAVIOR_HONEST = "honest"
BEHAVIOR_FABRICATE_ALL = "fabricate_all"
BEHAVIOR_PARTIAL_FABRICATE = "partial_fabricate"
BEHAVIOR_SYBIL = "sybil"
BEHAVIOR_WRONG_PARAMS = "wrong_params"
BEHAVIOR_REFERENCE_CHEAT = "reference_cheat"

BEHAVIOR_KINDS = (
    BEHAVIOR_HONEST,
    BEHAVIOR_FABRICATE_ALL,
    BEHAVIOR_PARTIAL_FABRICATE,
    BEHAVIOR_SYBIL,
    BEHAVIOR_WRONG_PARAMS,
    BEHAVIOR_REFERENCE_CHEAT,
)

_TAG_SUBSET = 11
_TAG_FAB = 12
_TAG_CHEAT = 13
_TAG_ENTRY = 14


@dataclass(frozen=True)
class MinerBehavior:
    kind: str = BEHAVIOR_HONEST
    k_correct: int = 0
    group_seed: int = 0

    def fabricates(self, n_configs: int) -> bool:
        """True when this behavior can put a non-honest result on the chain.
        A partial fabricator with k = C produces the honest result bit for
        bit, so it does not count."""
        if self.kind in (BEHAVIOR_FABRICATE_ALL, BEHAVIOR_SYBIL, BEHAVIOR_REFERENCE_CHEAT):
            return True
        if self.kind == BEHAVIOR_PARTIAL_FABRICATE:
            return self.k_correct < n_configs
        return False


def _sorted_entry(index: int, tracks: list[TrackRecord], step_count: int) -> ConfigResult:
    # stable: tracks with equal keys keep the order they were drawn in
    return ConfigResult(index, tuple(sorted(tracks, key=lambda t: (t.b, t.a, t.hits))), step_count)


def fabricated_config_entry(seed: int, index: int, n_layers: int) -> ConfigResult:
    """Junk shaped like a real per-config entry. Hit positions are drawn
    independently of the claimed track line, so innovation checks explode.
    The most draws an entry can use come from one lane-kernel pass, each
    read as ``Splitmix64`` returns it: ``u64 % n`` for ``next_below``, the
    raw unit minus ``UNIT_OFFSET`` for ``next_unit``."""
    size = 2 + 4 * (n_layers + 4)
    lanes = draw_lanes([seed], 0, size)
    words, raws, off = lanes_u64(lanes, size), lanes_raw_units(lanes, size), UNIT_OFFSET
    tracks: list[TrackRecord] = []
    i = 1
    for _ in range(1 + words[0] % 4):
        a, b = 2.0 * (raws[i] - off) - 1.0, 2.0 * (raws[i + 1] - off) - 1.0
        i += 2
        n_planes = n_layers  # valid parameters have n_layers >= 2
        if n_layers > 3:
            n_planes, i = 3 + words[i] % (n_layers - 2), i + 1
        hits = tuple((plane, 4.0 * (raw - off) - 2.0) for plane, raw in enumerate(raws[i : i + n_planes], 1))
        i += n_planes
        tracks.append(TrackRecord(a=a, b=b, adc_sum=words[i] % 40, hits=hits))
        i += 1
    return _sorted_entry(index, tracks, 10 + words[i] % 200)


def fabricate_result(seed: int, params: SimulationParameters) -> SimulationResult:
    entries = [
        fabricated_config_entry(stream_seed(seed, i, _TAG_ENTRY), i, params.n_layers) for i in range(params.n_configs)
    ]
    return build_result(entries)


def choose_subset(group_seed: int, work_seed: int, k: int, n_configs: int) -> set[int]:
    """Uniform k-subset of configs, shared by everyone who knows the group
    seed, redrawn per round via the work seed."""
    rng = Splitmix64(stream_seed(group_seed, work_seed, _TAG_SUBSET))
    order = list(range(n_configs))
    for i in range(n_configs - 1, 0, -1):
        j = rng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    return set(order[:k])


def _group_result(behavior: MinerBehavior, work: WorkCache) -> SimulationResult:
    """The submission every member of a colluding group produces this
    round; it depends only on the behavior and the work seed."""
    params = work.params
    if behavior.kind == BEHAVIOR_SYBIL:
        return fabricate_result(stream_seed(behavior.group_seed, params.work_seed, _TAG_FAB), params)
    subset = choose_subset(behavior.group_seed, params.work_seed, behavior.k_correct, params.n_configs)
    entries = work.configs(sorted(subset))
    # stream_seed folds its keys left to right: keying this by index keys all four
    parent = stream_seed(behavior.group_seed, params.work_seed, _TAG_FAB)
    entries += [
        fabricated_config_entry(stream_seed(parent, i), i, params.n_layers)
        for i in range(params.n_configs)
        if i not in subset
    ]
    return build_result(entries)


def resample_reference_result(
    seed: int, params: SimulationParameters, reference: ReferenceDataset
) -> SimulationResult:
    """Fabricate a submission by resampling the reference statistics: the
    histogram's tracks split over the configs, slopes from its bins,
    measurements with matched noise. A reference with no tracks gives each
    config an entry with no tracks and step count 0."""
    rng = Splitmix64(seed)
    histogram = reference.histogram
    total = sum(histogram)
    width = 2.0 / len(histogram)
    n_configs = params.n_configs
    sigma = math.sqrt(measurement_variance(params.smear_sigma))
    entries: list[ConfigResult] = []
    for index in range(n_configs):
        count = total // n_configs + (1 if index < total % n_configs else 0)
        tracks: list[TrackRecord] = []
        for _ in range(count):
            pick = rng.next_below(total)
            acc = 0
            for idx, n in enumerate(histogram):
                acc += n
                if pick < acc:
                    break
            b = -1.0 + (idx + rng.next_unit()) * width
            a = 0.02 * (2.0 * rng.next_unit() - 1.0)
            hits = tuple(
                (plane, a + b * plane + sigma * rng.next_gauss())
                for plane in range(1, params.n_layers + 1)
            )
            a_fit, b_fit = fit_line(hits)
            tracks.append(TrackRecord(a=a_fit, b=b_fit, adc_sum=rng.next_below(40), hits=hits))
        step_count = count * params.n_layers
        entries.append(_sorted_entry(index, tracks, step_count))
    return build_result(entries)


class MinerNode:
    """One simulated miner: a behavior policy plus a synced local chain."""

    def __init__(
        self,
        name: str,
        address: bytes,
        auth_key: bytes,
        behavior: MinerBehavior | None = None,
        speed: float = 1.0,
        offline: bool = False,
        block_reward: int = 1,
        tx_cap: int | None = None,
    ):
        if speed <= 0:
            raise ValueError("compute speed must be > 0")
        self.name = name
        self.address = address
        self.auth_key = auth_key
        self.behavior = behavior or MinerBehavior()
        self.speed = speed
        self.offline = offline
        self.chain = ChainState.bootstrap(block_reward, tx_cap)
        self.next_tx_nonce = 0

    def work_delay(self, work: WorkCache) -> int:
        """Ticks until this node's solution is ready. Honest work scales with
        the round's cost estimate; fabrication is nearly free."""
        kind = self.behavior.kind
        if kind in (BEHAVIOR_FABRICATE_ALL, BEHAVIOR_SYBIL, BEHAVIOR_WRONG_PARAMS, BEHAVIOR_REFERENCE_CHEAT):
            return 1
        cost = work.cost
        if kind == BEHAVIOR_PARTIAL_FABRICATE:
            cost *= self.behavior.k_correct / work.params.n_configs
        return max(1, math.ceil(cost / self.speed))

    def compute_solution(
        self, work: WorkCache, round_number: int, reference: ReferenceDataset | None = None
    ) -> Submission:
        """Produce this node's submission for the round whose ``work`` it
        received. Honest work and a colluding group's result come from that
        shared cache; the echo is the round's own parameters object."""
        behavior = self.behavior
        params = echo = work.params
        if behavior.kind == BEHAVIOR_HONEST:
            result = work.full()
        elif behavior.kind in (BEHAVIOR_PARTIAL_FABRICATE, BEHAVIOR_SYBIL):
            result = work.group(behavior, lambda: _group_result(behavior, work))
        elif behavior.kind in (BEHAVIOR_FABRICATE_ALL, BEHAVIOR_WRONG_PARAMS, BEHAVIOR_REFERENCE_CHEAT):
            seed_self = stream_seed(int.from_bytes(self.address[:8], "big"), params.work_seed, _TAG_FAB)
            if behavior.kind == BEHAVIOR_WRONG_PARAMS:
                echo = replace(params, energy_cut=params.energy_cut * 2.0)
            if behavior.kind == BEHAVIOR_REFERENCE_CHEAT and reference is not None:
                result = resample_reference_result(stream_seed(seed_self, _TAG_CHEAT), params, reference)
            else:
                result = fabricate_result(seed_self, params)
        else:
            raise ValueError(f"unknown behavior {behavior.kind!r}")
        return Submission(
            miner=self.address, block_number=round_number, params_echo=echo, result=result
        )

    def on_block(self, block: Block) -> bool:
        """Apply a broadcast block to the local chain, which validates it
        once. Returns whether the block was applied."""
        try:
            apply_block(self.chain, block)
        except InvalidChainError:
            return False
        return True
