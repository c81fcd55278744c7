"""One benchmark repetition in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --out DIR [--trace] [--setup-only] [--cpu N]

Makes the calls ``pouwsim run`` makes (resolve_scenario, ScenarioRunner.run,
export_chain, emit_metrics), then the ``verify-chain`` path (import_chain,
replay_chain) over the written chain, and prints one JSON record on stdout.
A fresh process per repetition makes set-up include the package import and
makes peak RSS that of one run.

Without ``--trace`` the only hooks are timestamps at each return of
RootAuthority.close_round and of the pipeline stages in CUT_AFTER; they cut
run() into segments that run.py compares across repetitions. With ``--trace`` the layer spans of
tracer.py are recorded instead and written to DIR/spans.csv when the
repetition ends.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, rebind
from workloads import SRC, WORKLOADS, file_digests, seeded_config

# The audit (import + replay) of a short chain takes milliseconds, so it is
# repeated for at least this long and at least AUDIT_MIN_REPEATS times. It is
# kept short so that a run holds more repetitions.
AUDIT_MIN_S = 0.15
AUDIT_MIN_REPEATS = 3

# Besides each close_round return, an untraced run() is cut at each return of
# these pipeline stages, so no segment lasts more than a few milliseconds.
CUT_AFTER = ("generate_events", "transport_and_respond", "digitize", "run_config")


def _marked(fn, marks: list[float], clock):
    """``fn`` with a timestamp appended to ``marks`` at each return."""

    @functools.wraps(fn)
    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.append(clock())
        return result

    return marked


def _segments_ms(start: float, marks: list[float], end: float) -> list[float]:
    return [1e3 * (b - a) for a, b in zip([start, *marks], [*marks, end])]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, str(SRC))
    clock = time.perf_counter

    t0 = clock()
    from pouwsim import authority, chain, netsim, scenario, work

    import_s = clock() - t0
    tracer = None
    marks: list[float] = []  # timestamps cutting run() into segments
    round_ends: list[int] = []  # indices of the marks made by close_round
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        close_round = authority.RootAuthority.close_round

        def timed_close_round(self, now):
            outcome = close_round(self, now)
            round_ends.append(len(marks))
            marks.append(clock())
            return outcome

        authority.RootAuthority.close_round = timed_close_round
        for name in CUT_AFTER:
            fn = getattr(work, name)
            rebind(fn, _marked(fn, marks, clock))

    t1 = clock()
    cfg = seeded_config(scenario.resolve_scenario(WORKLOADS[args.workload].scenario), args.workload, args.seed)
    runner = netsim.ScenarioRunner(cfg)
    setup_s = import_s + clock() - t1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    t2 = clock()
    result = runner.run()
    t_end = clock()
    run_s = t_end - t2

    args.out.mkdir(parents=True, exist_ok=True)
    chain_path = args.out / "chain.jsonl"
    chain.export_chain(result.state.blocks, chain_path)
    netsim.emit_metrics(result, args.out)
    summary = result.summary

    # The audit is cut at each block_from_record and apply_block return (the
    # per-block steps of import_chain and replay_chain) in the same way.
    audit_marks: list[float] = []
    for name in ("block_from_record", "apply_block"):
        setattr(chain, name, _marked(getattr(chain, name), audit_marks, clock))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    audit_best: list[float] = []  # per-block step, shortest across repeats
    audit_repeats = 0
    replay_error = None
    audit_end = clock() + AUDIT_MIN_S
    while audit_repeats < AUDIT_MIN_REPEATS or clock() < audit_end:
        audit_marks.clear()
        t3 = clock()
        try:
            state = chain.replay_chain(chain.import_chain(chain_path))
        except (chain.InvalidChainError, OSError, ValueError, KeyError) as exc:
            replay_error = f"{type(exc).__name__}: {exc}"
            break
        t4 = clock()
        segments = _segments_ms(t3, audit_marks, t4)
        audit_best = list(map(min, audit_best, segments)) if audit_best else segments
        audit_repeats += 1
        if chain.block_hash(state.tip).hex() != summary["tip_hash"]:
            replay_error = "replayed tip differs from the run's tip"
            break

    partial = [g for g in cfg.miners if g.behavior == "partial_fabricate"]
    record = {
        "traced": args.trace,
        "setup_s": setup_s,
        "run_s": run_s,
        "rounds": cfg.rounds,
        "segments_ms": _segments_ms(t2, marks, t_end),
        "round_ends": round_ends,
        "audit_best_ms": audit_best,
        "audit_repeats": audit_repeats,
        "blocks": summary["blocks"],
        "peak_rss_kb": peak_rss_kb,
        "digests": file_digests(args.out),
        "summary": {
            k: summary[k]
            for k in ("rounds", "blocks", "converged", "diverged_nodes", "escalated_rounds",
                      "fabrication_accepted_rounds", "tip_hash")
        },
        "partial_k_over_c": partial[0].k_correct / cfg.n_configs if partial else None,
        "replay_error": replay_error,
        "trace": None,
    }
    if tracer is not None:
        record["trace"] = tracer.summary(run_s)
        tracer.write(args.out / "spans.csv")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
