"""Workload table, seeded scenario construction and output checks.

Every workload is a bundled scenario run for a fixed number of rounds. The
benchmark seed becomes the scenario seed (as ``pouwsim run --seed`` does)
and also salts the miner group names. The bundled scenarios used here have
no jitter, drops or transactions, so the scenario seed alone changes no
output byte; renaming the miners changes every address, the cartel's group
seed and, through the winners, every work seed after round 1. Each seed
therefore gives a different but statistically equivalent run.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO_DIR = SRC / "pouwsim" / "scenarios"
OUTPUT_FILES = ("chain.jsonl", "metrics.csv", "summary.json")

# Accepted-fabrication share band on decoy_cartel, in binomial standard
# deviations around k/C. At 4.5 sd a correct run fails about once in 10^5.
FABRICATION_BAND_SD = 4.5


@dataclass(frozen=True)
class Workload:
    scenario: str  # bundled scenario name
    rounds: int  # rounds per repetition; the bundled files run longer


# Round counts make one repetition take 2 to 5 s on a 2-core x86 VM, so a
# run of the benchmark holds several repetitions. README.md gives the reasons
# for each workload.
WORKLOADS = {
    # decoy strategy, 6-member partial-fabrication cartel: fabrication,
    # WorkCache reuse, per-config digests and decoy checks
    "decoy_cartel": Workload("decoy_attack", 200),
    # reference strategy, 4x skewed 48-event truth run each round, every round
    # escalates to decoy: build_reference and quadratic association
    "reference_truth": Workload("mismatch_reference", 25),
    # 5 honest miners, 1 config x 4 events, replication: per-round fixed costs
    # of the event loop, messaging, block validation and close_round
    "fairness_chain": Workload("fairness", 2500),
}


def seeded_config(cfg, workload: str, seed: int):
    """Apply the workload's round count and the benchmark seed to a parsed
    bundled scenario, in place, and validate the result."""
    if cfg.partitions:
        raise ValueError("seed salting renames miners; partitions would need renaming too")
    salt = f".s{seed}"
    cfg.seed = seed
    cfg.rounds = WORKLOADS[workload].rounds
    cfg.miners = tuple(replace(g, name=g.name + salt, group=g.group + salt) for g in cfg.miners)
    cfg.validate()
    return cfg


def file_digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES
    }


def invariant_failures(workload: str, rep: dict) -> list[str]:
    """Seed-independent checks on one repetition's record; empty when all hold."""
    s = rep["summary"]
    problems = []
    if s["blocks"] != s["rounds"]:
        problems.append(f"blocks {s['blocks']} != rounds {s['rounds']}")
    if not s["converged"]:
        problems.append(f"not converged: {s['diverged_nodes']}")
    if rep["replay_error"]:
        problems.append(f"replay rejected the export: {rep['replay_error']}")
    if workload == "reference_truth" and s["escalated_rounds"] != s["rounds"]:
        problems.append(f"escalated_rounds {s['escalated_rounds']} != rounds {s['rounds']}")
    if workload == "decoy_cartel":
        n = s["rounds"]
        p = rep["partial_k_over_c"]
        share = s["fabrication_accepted_rounds"] / n
        half = FABRICATION_BAND_SD * math.sqrt(p * (1 - p) / n)
        if abs(share - p) > half:
            problems.append(f"fabrication share {share:.3f} outside {p} +- {half:.3f}")
    return problems


def _git_commit() -> str | None:
    """HEAD of the git repository at ROOT, read from .git directly, or None
    (an exported checkout has no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of the package sources, so a
    result names the code it measured even where git is unavailable."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "src_sha256": _tree_digest(SRC / "pouwsim"),
        "scenario": WORKLOADS[workload].scenario,
        "scenario_sha256": hashlib.sha256(
            (SCENARIO_DIR / f"{WORKLOADS[workload].scenario}.scn").read_bytes()
        ).hexdigest(),
    }
