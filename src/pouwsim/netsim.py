"""Deterministic discrete-event network and scenario runner.

Time is integer ticks. An event is a call: a handler, its arguments and
the tick it runs at, ordered by (tick, sequence id). The sequence id
increases in scheduling order, so same-tick events run in a stable order and
a (config, seed) pair fully determines every emitted byte.

A message is a call between two named nodes (miner names, ``"authority"``
for the root) under the scenario's network and partition settings: ``send``
asks ``deliver`` for its delivery tick and schedules the recipient's
handler then, or counts it dropped. Messages between a fixed
sender/recipient pair are delivered FIFO: the runner clamps delivery ticks
to be monotone per pair even under jitter.
Dropped messages and partition windows model lossy networks; after the final
round the authority re-announces its tip (under the same loss model) until
every node has caught up, which stands in for the retry loop a real protocol
would run while quiescent.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .authority import MinerRegistry, RootAuthority
from .chain import (
    ROOT_ADDRESS,
    Block,
    ChainState,
    Transaction,
    address_for,
    auth_key_for,
    block_hash,
    make_transaction,
    replay_chain,
)
from .miner import MinerBehavior, MinerNode, BEHAVIOR_REFERENCE_CHEAT
from .rng import Splitmix64, stream_seed
from .scenario import AUTHORITY_NODE, ScenarioConfig
from .verification import STRATEGY_SELF_COMPUTE, Submission
from .work import WorkCache

_TAG_NET = 31
_TAG_WORKLOAD = 32

METRICS_COLUMNS = (
    "height",
    "strategy",
    "escalation_depth",
    "submissions",
    "accepted",
    "winner",
    "fabrication_accepted",
    "mean_step_count",
    "energy_cut",
    "round_ticks",
)


def deliver(
    sender: str, recipient: str, send_tick: int, cfg: ScenarioConfig, rng: Splitmix64
) -> int | None:
    """Delivery tick (send + base_latency + jitter) of one message between
    named nodes, or None when dropped. Pairs split by an active partition
    window are always dropped (no randomness consumed)."""
    for part in cfg.partitions:
        if part.start <= send_tick < part.end:
            if (sender in part.nodes) != (recipient in part.nodes):
                return None
    if cfg.drop_rate > 0.0 and rng.next_unit() < cfg.drop_rate:
        return None
    jitter = rng.next_below(cfg.jitter + 1) if cfg.jitter > 0 else 0
    return send_tick + cfg.base_latency + jitter


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    state: ChainState
    metrics: list[dict]
    summary: dict
    miners: dict[str, MinerNode]
    registry: MinerRegistry


class ScenarioRunner:
    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        self.registry = MinerRegistry()
        self.authority = RootAuthority(self.registry, cfg)

        self.miners: dict[str, MinerNode] = {}
        self.by_address: dict[bytes, MinerNode] = {}
        for group in cfg.miners:
            behavior = MinerBehavior(
                kind=group.behavior,
                k_correct=group.k_correct,
                group_seed=stream_seed(
                    int.from_bytes(address_for("group:" + group.group)[:8], "big")
                ),
            )
            for name in group.node_names():
                node = MinerNode(
                    name=name,
                    address=address_for(name),
                    auth_key=auth_key_for(name),
                    behavior=behavior,
                    speed=group.speed,
                    offline=group.offline,
                    block_reward=cfg.block_reward,
                    tx_cap=cfg.tx_cap,
                )
                self.miners[name] = node
                self.by_address[node.address] = node
                self.registry.register(name, node.address, node.auth_key)
        self.miner_names = sorted(self.miners)
        self.name_of = {ROOT_ADDRESS: AUTHORITY_NODE}
        self.name_of.update({m.address: name for name, m in self.miners.items()})

        self.net_rng = Splitmix64(stream_seed(cfg.seed, _TAG_NET))
        self.workload_rng = Splitmix64(stream_seed(cfg.seed, _TAG_WORKLOAD))
        self.queue: list[tuple[int, int, Callable, tuple]] = []  # a heap
        self._seq = 0
        self._pair_last: dict[tuple[str, str], int] = {}

        self.metrics: list[dict] = []
        self.rounds_done = 0
        self.now = 0
        self.dropped = 0
        self.delivered = 0
        self.round_arrivals = 0
        self.outcome_counts: Counter[str] = Counter()
        self.behavior_submitted: Counter[str] = Counter()
        self.behavior_accepted: Counter[str] = Counter()
        self.wins: Counter[str] = Counter()

    # -- events and messaging ----------------------------------------------------

    def schedule(self, tick: int, handler: Callable, *args: Any) -> None:
        """Call ``handler(*args, tick)`` at ``tick``."""
        heapq.heappush(self.queue, (tick, self._seq, handler, args))
        self._seq += 1

    def send(self, sender: str, recipient: str, handler: Callable, *args: Any, now: int) -> None:
        """Send ``handler(*args, tick)`` from node ``sender`` to ``recipient``:
        it runs at the delivery tick, or never when the message is dropped.
        The queue is always drained to empty, so a scheduled message is a
        delivered one."""
        tick = deliver(sender, recipient, now, self.cfg, self.net_rng)
        if tick is None:
            self.dropped += 1
            return
        pair = (sender, recipient)
        tick = max(tick, self._pair_last.get(pair, tick))  # per-pair FIFO under jitter
        self._pair_last[pair] = tick
        self.delivered += 1
        self.schedule(tick, handler, *args)

    # -- round flow ------------------------------------------------------------

    def _open_round(self, now: int) -> None:
        rnd = self.authority.open_round(deadline=now + self.cfg.round_interval)
        self.round_arrivals = 0
        for name in self.miner_names:
            miner = self.miners[name]
            self.send(AUTHORITY_NODE, name, self._on_params, miner, rnd.work, rnd.number, now=now)
        if self.cfg.txs_per_round > 0:
            self.schedule(now + 1, self._on_emit_txs)
        self.schedule(rnd.deadline, self._on_close)

    def _on_params(self, miner: MinerNode, work: WorkCache, number: int, now: int) -> None:
        if not miner.offline:
            self.schedule(now + miner.work_delay(work), self._on_work_done, miner, work, number)

    def _on_work_done(self, miner: MinerNode, work: WorkCache, number: int, now: int) -> None:
        # work for a closed round is refused as late, whatever it holds
        reference = None
        rnd = self.authority.round
        if miner.behavior.kind == BEHAVIOR_REFERENCE_CHEAT and rnd is not None and rnd.work is work:
            reference = self.authority.ensure_reference()
        sub = miner.compute_solution(work, number, reference=reference)
        self.behavior_submitted[miner.behavior.kind] += 1
        self.send(miner.name, AUTHORITY_NODE, self._on_submission, sub, now=now)

    def _on_submission(self, sub: Submission, now: int) -> None:
        outcome = self.authority.accept_submission(sub, now)
        self.round_arrivals += 1
        self.outcome_counts[outcome] += 1

    def _on_close(self, now: int) -> None:
        outcome = self.authority.close_round(now)
        verdict = outcome.verdict
        fabrication = False
        for addr in verdict.accepted:
            node = self.by_address.get(addr)
            if node is not None:
                self.behavior_accepted[node.behavior.kind] += 1
                if node.behavior.fabricates(self.cfg.n_configs):
                    fabrication = True
        winner_name = self.name_of.get(outcome.block.winner, outcome.block.winner.hex())
        self.wins[winner_name] += 1
        self.metrics.append(
            {
                "height": outcome.block.number,
                "strategy": verdict.strategy_used,
                "escalation_depth": outcome.escalation_depth,
                "submissions": self.round_arrivals,
                "accepted": len(verdict.accepted) if verdict.strategy_used != STRATEGY_SELF_COMPUTE else 0,
                "winner": outcome.block.winner.hex(),
                "fabrication_accepted": int(fabrication),
                "mean_step_count": outcome.cost_sample,
                "energy_cut": outcome.block.sim_params.energy_cut,
                "round_ticks": self.cfg.round_interval,  # every round closes at its deadline
            }
        )
        for name in self.miner_names:
            miner = self.miners[name]
            self.send(AUTHORITY_NODE, name, self._on_block, miner, outcome.block, now=now)
        self.rounds_done += 1
        if self.rounds_done < self.cfg.rounds:
            self._open_round(now)

    def _on_block(self, miner: MinerNode, block: Block, now: int) -> None:
        applied = miner.on_block(block)
        if not applied and block.number > miner.chain.height + 1:
            self.send(miner.name, AUTHORITY_NODE, self._on_sync_request, miner, miner.chain.height, now=now)

    def _on_sync_request(self, miner: MinerNode, height: int, now: int) -> None:
        blocks = tuple(self.authority.chain.blocks[height + 1 :])
        if blocks:
            self.send(AUTHORITY_NODE, miner.name, self._on_sync_reply, miner, blocks, now=now)

    def _on_sync_reply(self, miner: MinerNode, blocks: tuple[Block, ...], now: int) -> None:
        for block in blocks:
            if block.number == miner.chain.height + 1:
                miner.on_block(block)

    def _on_transaction(self, tx: Transaction, now: int) -> None:
        self.authority.submit_transaction(tx)

    def _on_emit_txs(self, now: int) -> None:
        eligible = [
            name
            for name in self.miner_names
            if not self.registry.is_banned(self.miners[name].address)
            and self.miners[name].chain.balance(self.miners[name].address) >= self.cfg.tx_amount
        ]
        if not eligible:
            return
        for _ in range(self.cfg.txs_per_round):
            sender = self.miners[eligible[self.workload_rng.next_below(len(eligible))]]
            idx = self.miner_names.index(sender.name)
            recipient = self.miners[self.miner_names[(idx + 1) % len(self.miner_names)]]
            if recipient.address == sender.address:
                continue
            tx = make_transaction(
                sender.auth_key,
                sender.address,
                recipient.address,
                self.cfg.tx_amount,
                sender.next_tx_nonce,
            )
            sender.next_tx_nonce += 1
            self.send(sender.name, AUTHORITY_NODE, self._on_transaction, tx, now=now)

    # -- main loop -----------------------------------------------------------------

    def _drain(self) -> None:
        while self.queue:
            tick, _, handler, args = heapq.heappop(self.queue)
            if tick < self.now:
                raise RuntimeError("event scheduled in the past")
            self.now = tick
            handler(*args, tick)

    def _end_sync(self) -> None:
        """Re-announce the tip until every node converges; models the retry
        loop of a quiescent sync protocol, under the same loss model."""
        tip_hash = block_hash(self.authority.chain.tip)
        for _ in range(64):
            lagging = [
                name
                for name in self.miner_names
                if block_hash(self.miners[name].chain.tip) != tip_hash
            ]
            if not lagging:
                return
            self.now += 1
            for name in lagging:
                miner = self.miners[name]
                blocks = tuple(self.authority.chain.blocks[miner.chain.height + 1 :])
                self.send(AUTHORITY_NODE, name, self._on_sync_reply, miner, blocks, now=self.now)
            self._drain()

    def run(self) -> ScenarioResult:
        self._open_round(0)
        self._drain()
        self._end_sync()
        state = self.authority.chain

        # replay audit: the exported block list must reproduce the
        # incrementally maintained state exactly, every run
        replayed = replay_chain(
            list(state.blocks), self.registry, state.block_reward, state.tx_cap
        )
        if (
            replayed.balances != state.balances
            or replayed.next_nonce != state.next_nonce
            or replayed.total_supply != state.total_supply
        ):
            raise RuntimeError("replayed chain state diverged from incremental state")

        tip_hash = block_hash(state.tip)
        diverged = sorted(
            name
            for name in self.miner_names
            if block_hash(self.miners[name].chain.tip) != tip_hash
        )
        behaviors = sorted(self.behavior_submitted | self.behavior_accepted)
        summary = {
            "rounds": self.cfg.rounds,
            "blocks": state.height,
            "total_supply": state.total_supply,
            "block_reward": state.block_reward,
            "final_height": state.height,
            "tip_hash": tip_hash.hex(),
            "fabrication_accepted_rounds": sum(r["fabrication_accepted"] for r in self.metrics),
            "escalated_rounds": sum(1 for r in self.metrics if r["escalation_depth"] > 0),
            "self_compute_rounds": sum(1 for r in self.metrics if r["strategy"] == STRATEGY_SELF_COMPUTE),
            "submission_outcomes": dict(sorted(self.outcome_counts.items())),
            "acceptance_by_behavior": {
                kind: {
                    "submitted": self.behavior_submitted[kind],
                    "accepted": self.behavior_accepted[kind],
                    "rate": (
                        self.behavior_accepted[kind] / self.behavior_submitted[kind]
                        if self.behavior_submitted[kind]
                        else 0.0
                    ),
                }
                for kind in behaviors
            },
            "wins": dict(sorted(self.wins.items())),
            "bans": sorted(
                (self.name_of.get(addr, addr.hex()), entry.ban_reason)
                for addr, entry in self.registry.entries.items()
                if entry.banned
            ),
            "messages_delivered": self.delivered,
            "messages_dropped": self.dropped,
            "diverged_nodes": diverged,
            "converged": not diverged,
            "replay_consistent": True,
        }
        return ScenarioResult(
            config=self.cfg,
            state=state,
            metrics=self.metrics,
            summary=summary,
            miners=self.miners,
            registry=self.registry,
        )


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run a scenario to completion; (cfg, seed) determines every byte."""
    return ScenarioRunner(cfg).run()


def metrics_csv(metrics: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for row in metrics:
        writer.writerow([row[c] for c in METRICS_COLUMNS])
    return buf.getvalue()


def summary_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def emit_metrics(result: ScenarioResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write the per-round metrics table and the totals summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"
    summary_path = out / "summary.json"
    metrics_path.write_text(metrics_csv(result.metrics), encoding="utf-8")
    summary_path.write_text(summary_json(result.summary), encoding="utf-8")
    return metrics_path, summary_path
