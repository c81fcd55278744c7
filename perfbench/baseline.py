"""Summarise the results run.py wrote into baseline.json.

    python3 perfbench/baseline.py

Reads .bench_out/results/*.json (one per workload, seed and trace mode) and
writes, per workload and mode, each metric's value for every seed with the
median, the quartiles as statistics.quantiles(values, n=4) gives them and
the spread (quartile distance over median), plus the attempted and failed
repetition counts and the environment stamps of the runs.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import HERE, OUT


def main() -> int:
    groups: dict[tuple[str, str], list[dict]] = {}
    for path in sorted((OUT / "results").glob("*.json")):
        r = json.loads(path.read_text())
        groups.setdefault((r["workload"], f"trace{r['trace']}"), []).append(r)
    out: dict[str, dict] = {}
    for (workload, mode), results in sorted(groups.items()):
        results.sort(key=lambda r: r["seed"])
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            entry = {"unit": first["unit"], "values": values}
            if len(values) >= 2:
                q1, median, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, median=median, q3=q3, spread=(q3 - q1) / median if median else None)
            metrics[name] = entry
        envs = [json.dumps(r["env"], sort_keys=True) for r in results]
        out.setdefault(workload, {})[mode] = {
            "seeds": [r["seed"] for r in results],
            "seconds": sorted({r["seconds"] for r in results}),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "seeds_with_recorded_digests": [r["seed"] for r in results if r["digests_recorded"]],
            "env": [json.loads(e) for e in sorted(set(envs))],
            "metrics": metrics,
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
