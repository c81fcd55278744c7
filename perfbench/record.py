"""Record the output digests that run.py checks repetitions against.

    python3 perfbench/record.py --seeds 0-24

Runs one untraced repetition per workload and seed, checks the
seed-independent invariants, and writes the SHA-256 of chain.jsonl,
metrics.csv and summary.json to digests.json (existing entries for other
seeds are kept). Record only from a commit whose outputs are known good: the
digests become the reference every later commit is held to.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, OUT, run_rep
from workloads import WORKLOADS, invariant_failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-24")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    digests = json.loads(DIGESTS.read_text())
    for workload in sorted(WORKLOADS):
        for seed in seeds:
            rec, reason = run_rep(workload, seed, OUT / "record" / workload / f"s{seed}")
            problems = [reason] if rec is None else invariant_failures(workload, rec)
            if problems:
                print(f"{workload} seed {seed}: not recorded: {problems}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = rec["digests"]
            print(f"{workload} seed {seed}: {rec['digests']}")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
