"""Span tracer for the benchmark's traced repetitions.

The tracer wraps layer-boundary functions of ``pouwsim`` from outside the
package: every module-level binding of a wrapped function is replaced, so a
``from .work import run_config`` in another module is traced too. Each call
becomes one span (name, start, end, parent, round), kept in memory and
written out once the repetition ends.

Small helpers called inside a boundary (``fit_line``, ``params_bytes``,
``kalman_filter_track`` and the like) and the whole ``rng`` module are not
wrapped: they run so often that a wrapper would cost more than it measures.
Their time is part of the calling span's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

# Wrapped names per module of the pouwsim package; "Class.method" wraps the
# method on the class. Layer = module.
TARGETS = {
    "scenario": ("resolve_scenario",),
    "netsim": (
        "ScenarioRunner.run",
        "deliver",
        "WorkCache.full",
        "WorkCache.config",
        "emit_metrics",
    ),
    "miner": (
        "MinerNode.compute_solution",
        "MinerNode.on_block",
        "choose_subset",
        "fabricated_config_entry",
        "fabricate_result",
        "resample_reference_result",
    ),
    "authority": (
        "RootAuthority.open_round",
        "RootAuthority.accept_submission",
        "RootAuthority.close_round",
        "RootAuthority.ensure_decoy",
        "RootAuthority.ensure_reference",
    ),
    "verification": (
        "build_reference",
        "verify_replication",
        "verify_decoy",
        "verify_reference_all",
        "verify_reference",
    ),
    "work": (
        "run_pipeline",
        "run_config",
        "generate_events",
        "transport_and_respond",
        "digitize",
        "canonical_digest",
        "config_entry_digest",
        "estimate_cost",
    ),
    "chain": (
        "block_hash",
        "validate_block",
        "apply_block",
        "replay_chain",
        "export_chain",
        "import_chain",
    ),
}
LAYERS = tuple(TARGETS)
RUN_SPAN = "netsim.ScenarioRunner.run"
_CACHE_SPANS = {"netsim.WorkCache.full": "work.run_pipeline", "netsim.WorkCache.config": "work.run_config"}


def rebind(fn, replacement) -> None:
    """Replace every module-level binding of ``fn`` in the loaded pouwsim
    modules, so ``from .work import run_config`` elsewhere sees it too."""
    for m in list(sys.modules.values()):
        if getattr(m, "__name__", "").split(".")[0] != "pouwsim":
            continue
        for key, value in list(vars(m).items()):
            if value is fn:
                setattr(m, key, replacement)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index, round]
        self.round = 0
        self.steps = 0
        self.reference_submissions = 0
        self.strategies = 0
        self.config_keys: set[tuple[int, int]] = set()
        self.fabrication_keys: set[tuple] = set()
        self._stack = [-1]

    # -- recording -------------------------------------------------------------

    def _note(self, name: str, args: tuple, result) -> None:
        """Counts taken at the boundary where the work happens."""
        if name == "authority.RootAuthority.open_round":
            self.round = result.number
        elif name == "work.transport_and_respond":
            self.steps += result[1]
        elif name == "work.run_config":
            self.config_keys.add((args[0].work_seed, result.index))
        elif name == "miner.fabricated_config_entry":
            self.fabrication_keys.add(args)
        elif name == "verification.verify_reference_all":
            self.reference_submissions += len(args[0])
        elif name == "authority.RootAuthority.close_round":
            self.strategies += result.escalation_depth + 1

    def _wrap(self, fn, name: str):
        sid = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        noted = name in _NOTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [sid, 0, 0, stack[-1], self.round]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if noted:
                self._note(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target. Call after importing pouwsim, before use."""
        for module, attrs in TARGETS.items():
            mod = importlib.import_module(f"pouwsim.{module}")
            for attr in attrs:
                owner, _, fname = attr.rpartition(".")
                if owner:
                    cls = getattr(mod, owner)
                    setattr(cls, fname, self._wrap(cls.__dict__[fname], f"{module}.{attr}"))
                    continue
                fn = getattr(mod, fname)
                rebind(fn, self._wrap(fn, f"{module}.{attr}"))

    # -- reduction -------------------------------------------------------------

    def summary(self, run_s: float) -> dict:
        """Reduce the spans of one repetition.

        "inside" maps each name to [calls, total ns by round, self ns by
        round] over the spans under ScenarioRunner.run; "outside" maps each
        name to its shortest call elsewhere (set-up, export, audit).
        "accounted" is the self time of all spans under run() over the run's
        wall time ``run_s`` as measured around the call."""
        n = len(self.spans)
        covered = [0] * n
        root = list(range(n))
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:  # a parent is always recorded before its children
                covered[parent] += end - start
                root[i] = root[parent]
        run_id = self.names.index(RUN_SPAN)
        n_rounds = self.round + 1
        inside: dict[str, list] = {}
        outside: dict[str, int] = {}
        cache_misses = 0
        for i, (sid, start, end, parent, rnd) in enumerate(self.spans):
            name = self.names[sid]
            dur = end - start
            if self.spans[root[i]][0] != run_id:
                outside[name] = min(outside.get(name, dur), dur)
                continue
            acc = inside.get(name)
            if acc is None:
                acc = inside[name] = [0, [0] * n_rounds, [0] * n_rounds]
            acc[0] += 1
            acc[1][rnd] += dur
            acc[2][rnd] += dur - covered[i]
            if parent >= 0 and _CACHE_SPANS.get(self.names[self.spans[parent][0]]) == name:
                cache_misses += 1
        return {
            "inside": inside,
            "outside": outside,
            "accounted": sum(sum(acc[2]) for acc in inside.values()) / (run_s * 1e9),
            "counts": {
                "steps": self.steps,
                "reference_submissions": self.reference_submissions,
                "strategies": self.strategies,
                "distinct_configs": len(self.config_keys),
                "distinct_fabrications": len(self.fabrication_keys),
                "cache_misses": cache_misses,
            },
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_ns,end_ns,parent,round\n")
            for sid, start, end, parent, rnd in self.spans:
                f.write(f"{self.names[sid]},{start},{end},{parent},{rnd}\n")


_NOTED = {
    "authority.RootAuthority.open_round",
    "work.transport_and_respond",
    "work.run_config",
    "miner.fabricated_config_entry",
    "verification.verify_reference_all",
    "authority.RootAuthority.close_round",
}


def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of repetitions that ran the same seed. Their
    spans cover identical work round by round, so the machine's noise is
    filtered by keeping each (name, round) cell's shortest time. Counts are
    identical across such repetitions; the first one's are kept."""
    first = summaries[0]
    inside = {
        name: [
            calls,
            [min(cell) for cell in zip(*(s["inside"][name][1] for s in summaries))],
            [min(cell) for cell in zip(*(s["inside"][name][2] for s in summaries))],
        ]
        for name, (calls, _, _) in first["inside"].items()
    }
    outside = {name: min(s["outside"][name] for s in summaries) for name in first["outside"]}
    return dict(first, inside=inside, outside=outside)


def _ratio(num: float, den: float) -> tuple[float, bool]:
    return (num / den, True) if den else (0.0, False)


def layer_metrics(s: dict, rounds: int) -> dict[str, tuple[float, str, bool]]:
    """Per-layer metrics from merged summaries of repetitions of ``rounds``
    rounds: name -> (value, unit, applies). A metric whose base is zero on a
    workload does not apply there; it reads 0."""
    inside, outside, c = s["inside"], s["outside"], s["counts"]
    absent = [0, [], []]

    def count(name):
        return inside.get(name, absent)[0]

    def total(*names):
        return sum(sum(inside.get(n, absent)[1]) for n in names)

    def self_ns(*names):
        return sum(sum(inside.get(n, absent)[2]) for n in names)

    def per_round_ms(ns, *names):
        return ns / 1e6 / rounds, any(count(n) for n in names)

    def per_call_ms(name):
        return (outside[name] / 1e6, True) if name in outside else (0.0, False)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, own) in inside.items():
        layer_self[name.split(".", 1)[0]] += sum(own)
    loop_self = self_ns(RUN_SPAN)
    layer_self["netsim"] -= loop_self

    def ms_total(*names):
        return per_round_ms(total(*names), *names)

    def ms_self(*names):
        return per_round_ms(self_ns(*names), *names)

    def per_round(n):
        return _ratio(n, rounds)

    fab = ("miner.fabricated_config_entry", "miner.fabricate_result",
           "miner.choose_subset", "miner.resample_reference_result")
    digests = ("work.canonical_digest", "work.config_entry_digest")
    transport = "work.transport_and_respond"
    fabricated = "miner.fabricated_config_entry"
    cache_calls = count("netsim.WorkCache.full") + count("netsim.WorkCache.config")
    ms, n, ratio = "ms/round", "count/round", "ratio"
    table = [
        ("work.generate_ms_per_round", ms, ms_total("work.generate_events")),
        ("work.transport_ms_per_round", ms, ms_total(transport)),
        ("work.transport_ns_per_step", "ns/step", _ratio(total(transport), c["steps"])),
        ("work.steps_per_round", n, per_round(c["steps"])),
        ("work.digitize_ms_per_round", ms, ms_total("work.digitize")),
        ("work.reconstruct_ms_per_round", ms, ms_self("work.run_config")),
        ("work.digest_ms_per_round", ms, ms_total(*digests)),
        ("work.digests_per_round", n, per_round(sum(count(d) for d in digests))),
        ("work.config_runs_per_round", n, per_round(count("work.run_config"))),
        ("work.config_useful_ratio", ratio, _ratio(c["distinct_configs"], count("work.run_config"))),
        ("netsim.workcache_hit_ratio", ratio, _ratio(cache_calls - c["cache_misses"], cache_calls)),
        ("netsim.loop_self_ms_per_round", ms, per_round_ms(loop_self, RUN_SPAN)),
        ("netsim.messages_per_round", n, per_round(count("netsim.deliver"))),
        ("miner.fabricate_ms_per_round", ms, ms_self(*fab)),
        ("miner.fabricated_entries_per_round", n, per_round(count(fabricated))),
        ("miner.fabrication_useful_ratio", ratio, _ratio(c["distinct_fabrications"], count(fabricated))),
        ("miner.compute_self_ms_per_round", ms, ms_self("miner.MinerNode.compute_solution")),
        ("miner.estimate_cost_ms_per_round", ms, ms_total("work.estimate_cost")),
        ("verification.build_reference_self_ms_per_round", ms, ms_self("verification.build_reference")),
        ("verification.reference_ms_per_round", ms, ms_total("verification.verify_reference_all")),
        ("verification.reference_checks_per_submission", ratio,
         _ratio(count("verification.verify_reference"), c["reference_submissions"])),
        ("verification.decoy_ms_per_round", ms, ms_total("verification.verify_decoy")),
        ("verification.replication_ms_per_round", ms, ms_total("verification.verify_replication")),
        ("authority.close_round_self_ms_per_round", ms, ms_self("authority.RootAuthority.close_round")),
        ("authority.intake_ms_per_round", ms, ms_total("authority.RootAuthority.accept_submission")),
        ("authority.submissions_per_round", n, per_round(count("authority.RootAuthority.accept_submission"))),
        ("authority.strategies_per_round", n, per_round(c["strategies"])),
        ("chain.block_hash_per_round", n, per_round(count("chain.block_hash"))),
        ("chain.block_hash_ms_per_round", ms, ms_total("chain.block_hash")),
        ("chain.validate_ms_per_round", ms, ms_self("chain.validate_block")),
        ("chain.apply_ms_per_round", ms, ms_self("chain.apply_block")),
        ("chain.replay_ms", "ms", per_call_ms("chain.replay_chain")),
        ("chain.import_ms", "ms", per_call_ms("chain.import_chain")),
        ("chain.export_ms", "ms", per_call_ms("chain.export_chain")),
        ("scenario.parse_ms", "ms", per_call_ms("scenario.resolve_scenario")),
    ]
    table += [(f"{layer}.self_ms_per_round", ms, (layer_self[layer] / 1e6 / rounds, True))
              for layer in LAYERS[1:]]
    table.append(("trace.accounted_ratio", ratio, (s["accounted"], True)))
    return {name: (value, unit, applies) for name, unit, (value, applies) in table}
