"""pouwsim benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload decoy_cartel --seed 1 --seconds 40 --trace 0

Runs repetitions of the workload (rep.py, one fresh process each, one at a
time) until ``--seconds`` have passed, checks every repetition's outputs,
and prints a table of metrics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of tracer.py, with the tracing overhead. A repetition
fails when its outputs differ from the digests recorded in digests.json
for its seed, differ from another repetition of the same run, break a
seed-independent invariant (workloads.invariant_failures), or when the
repetition does not finish. Each result, with an environment stamp, is also
written to .bench_out/results/ for baseline.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics, merge
from workloads import ROOT, SRC, WORKLOADS, environment, invariant_failures

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
REP_TIMEOUT_S = 120
SETUP_SAMPLES = 7  # fewest set-up samples per untraced run; setup_s is their median


def run_rep(workload: str, seed: int, out_dir: Path, *flags: str) -> tuple[dict | None, str]:
    """Run rep.py once with ``flags``; returns (record, "") or (None, reason)."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out_dir), *flags]
    # a fixed hash seed keeps dict and set layouts, and so timings, alike across processes
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {REP_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"repetition exited {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.splitlines()[-1]), ""


def rep_failures(workload: str, rec: dict, expected: dict | None, first: dict | None) -> list[str]:
    """Checks on one repetition; ``first`` is the run's first record."""
    problems = invariant_failures(workload, rec)
    if expected is not None and rec["digests"] != expected:
        bad = sorted(k for k in expected if rec["digests"].get(k) != expected[k])
        problems.append(f"output digests differ from the recorded ones: {bad}")
    if first is None:
        return problems
    if rec["digests"] != first["digests"]:
        kind = "traced" if rec["traced"] else "untraced"
        problems.append(f"{kind} outputs differ from the first repetition's")
    if not (rec["traced"] or first["traced"]) and (
        rec["round_ends"] != first["round_ends"] or len(rec["segments_ms"]) != len(first["segments_ms"])
    ):
        problems.append("run() took another path than in the first repetition")
    return problems


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def round_gaps(segments_ms: list[float], ends: list[int]) -> list[float]:
    """Times between successive close_round returns, from segment times."""
    return [sum(segments_ms[a + 1 : b + 1]) for a, b in zip(ends, ends[1:])]


def end_to_end(recs: list[dict], setups: list[float]) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count).

    The repetitions of one run share their seed, so segment i of run() (cut
    at each close_round and pipeline-stage return) holds the same work in
    each. The machine's noise only adds time, so each segment's shortest
    time across the repetitions is kept; throughput and the round median
    come from these best times. The audit keeps each per-block step's shortest
    time across all its repeats in the same way.
    """
    best = [min(seg) for seg in zip(*(r["segments_ms"] for r in recs))]
    ends = recs[0]["round_ends"]
    gaps = round_gaps(best, ends)
    # A slow state that lasts through every repetition of some rounds leaves
    # those rounds slow among the best gaps, and a tail percentile picks
    # exactly them. A repetition's own p90/p50 ratio does not depend on how
    # fast the machine ran while its speed held, and a change of speed during
    # the repetition mostly widens it; so the narrowest ratio scales the p50.
    tail = min(quantile(g, 90) / quantile(g, 50) for g in (round_gaps(r["segments_ms"], ends) for r in recs))
    p50 = quantile(gaps, 50)
    audit_ms = sum(min(seg) for seg in zip(*(r["audit_best_ms"] for r in recs)))
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "rounds_per_s": (1e3 * recs[0]["rounds"] / sum(best), "1/s", len(recs)),
        "round_ms_p50": (p50, "ms", len(gaps)),
        "round_ms_p90": (p50 * tail, "ms", len(gaps) * len(recs)),
        "audit_blocks_per_s": (
            1e3 * recs[0]["blocks"] / audit_ms, "1/s", sum(r["audit_repeats"] for r in recs)
        ),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024 for r in recs), "MB", len(recs)),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str, bool]]:
    """name -> (value, unit, applies)."""
    out = layer_metrics(merge([r["trace"] for r in traced]), traced[0]["rounds"])
    overhead = min(r["run_s"] for r in traced) / min(r["run_s"] for r in plain)
    out["trace.overhead_ratio"] = (overhead, "ratio", True)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pouwsim" / "__init__.py").is_file():
        print(f"error: no pouwsim sources under {SRC}", file=sys.stderr)
        return 2

    expected = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed))
    run_dir = OUT / args.workload / f"s{args.seed}-t{args.trace}"
    recs: list[dict] = []
    failures: list[str] = []
    first = None
    # On a shared machine the CPUs differ in speed, and which is faster
    # changes over minutes. Repetitions take the CPUs in turn, so the
    # shortest time kept for each segment (see end_to_end) comes from the
    # faster one.
    cpus = [str(c) for c in sorted(os.sched_getaffinity(0))]
    start = time.monotonic()
    attempted = failed = 0
    longest = 0.0
    # Start another repetition only while it should end within --seconds;
    # run at least two (one untraced and one traced with --trace 1).
    reps = 0
    while reps < 2 or time.monotonic() - start + longest <= args.seconds:
        traced = bool(args.trace) and reps % 2 == 1
        t = time.monotonic()
        cpu = cpus[(reps // (1 + args.trace)) % len(cpus)]
        rec, reason = run_rep(args.workload, args.seed, run_dir / f"rep{reps}", "--cpu", cpu,
                              *(["--trace"] if traced else []))
        longest = max(longest, time.monotonic() - t)
        reps += 1
        attempted += 1
        problems = [reason] if rec is None else rep_failures(args.workload, rec, expected, first)
        first = first or rec
        if problems:
            failed += 1
            failures += [f"rep {reps - 1}: {p}" for p in problems]
        else:
            recs.append(rec)  # metrics come only from repetitions that passed

    plain = [r for r in recs if not r["traced"]]
    # Every repetition times its own set-up, so set-up is sampled across the
    # run's changes of machine speed; a run with few repetitions adds
    # set-up-only processes.
    setups = [r["setup_s"] for r in plain]
    for i in range(0 if args.trace else SETUP_SAMPLES - len(setups)):
        rec, reason = run_rep(args.workload, args.seed, run_dir, "--setup-only")
        attempted += 1
        if rec is None:
            failed += 1
            failures.append(f"set-up {i}: {reason}")
        else:
            setups.append(rec["setup_s"])
    traced_recs = [r for r in recs if r["traced"]]
    metrics: dict[str, dict] = {}
    lines = []
    if not args.trace and plain and setups:
        for name, (value, unit, n) in end_to_end(plain, setups).items():
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<22} {value:>12.6g} {unit:<4} n={n}")
    elif args.trace and plain and traced_recs:
        for name, (value, unit, applies) in per_layer(plain, traced_recs).items():
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<48} {value:>12.6g} {unit:<12} {'' if applies else 'n/a'}")

    env = environment(args.workload)
    result = {"correct": not failures and bool(metrics), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, failures=failures,
                  digests_recorded=expected is not None, setups=setups,
                  reps=[{k: v for k, v in r.items() if k != "trace"} for r in recs])
    (OUT / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{reps} repetitions and {len(setups)} set-ups, {failed} of {attempted} failed, "
          f"digests {'recorded' if expected is not None else 'not recorded; invariants only'}")
    print("env " + json.dumps(env, sort_keys=True))
    for f in failures:
        print("FAIL " + f)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
