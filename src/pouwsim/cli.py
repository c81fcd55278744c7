"""Command-line interface.

Subcommands:

* ``run --scenario <file-or-name> [--seed N] [--out DIR]`` — run a scenario,
  write chain.jsonl, metrics.csv and summary.json into the output directory.
* ``verify-chain --chain <file>`` — replay and validate a chain export;
  prints OK or the first violation with its height.
* ``replay-balances --chain <file> --address <hex>`` — print the balance of
  an address (64 hex chars) derived purely by replaying the export.
* ``scenario-check --scenario <file-or-name>`` — validate a scenario file or
  bundled scenario without running it.

Exit codes: 0 success, 1 validation failure, 2 usage error. Error lines go
to stderr.
"""

from __future__ import annotations

import argparse
import re
import struct
import sys
from pathlib import Path

from .chain import ChainState, InvalidChainError, export_chain, import_chain, replay_chain
from .netsim import emit_metrics, run_scenario
from .scenario import ScenarioError, resolve_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pouwsim",
        description="Deterministic proof-of-useful-work blockchain simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and emit chain + metrics files")
    run_p.add_argument("--scenario", required=True, help="scenario file path or bundled name")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--out", default="out", help="output directory (default: ./out)")
    run_p.set_defaults(handler=_cmd_run)

    verify_p = sub.add_parser("verify-chain", help="replay and validate a chain export")
    verify_p.add_argument("--chain", required=True)
    verify_p.set_defaults(handler=_cmd_verify_chain)

    bal_p = sub.add_parser("replay-balances", help="derive an address balance by replay")
    bal_p.add_argument("--chain", required=True)
    bal_p.add_argument("--address", required=True, help="address as 64 hex chars")
    bal_p.set_defaults(handler=_cmd_replay_balances)

    check_p = sub.add_parser("scenario-check", help="validate a scenario without running it")
    check_p.add_argument("--scenario", required=True, help="scenario file path or bundled name")
    check_p.set_defaults(handler=_cmd_scenario_check)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    out = Path(args.out)
    try:
        cfg = resolve_scenario(args.scenario)
        if args.seed is not None:
            cfg.seed = args.seed
        out.mkdir(parents=True, exist_ok=True)  # before the run, so a bad path costs nothing
        result = run_scenario(cfg)
        export_chain(result.state.blocks, out / "chain.jsonl")
        emit_metrics(result, out)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 1
    print(
        f"ok: {result.summary['blocks']} blocks, supply {result.summary['total_supply']}, "
        f"outputs in {out}"
    )
    return 0


def _replay_export(path: str) -> ChainState | None:
    """Import and replay a chain export. On failure print the one-line
    reason and return None: a rule violation names its height, anything
    that cannot be read as an export (missing file, bad JSON, JSON nested
    too deeply to parse, missing keys, wrongly typed fields) is an
    unreadable export."""
    try:
        return replay_chain(import_chain(path))
    except InvalidChainError as exc:
        print(exc)  # "invalid block at height N: Rule detail"
    except (OSError, ValueError, KeyError, TypeError, RecursionError, struct.error) as exc:
        print(f"unreadable chain export: {exc}", file=sys.stderr)
    return None


def _cmd_verify_chain(args: argparse.Namespace) -> int:
    state = _replay_export(args.chain)
    if state is None:
        return 1
    print(f"OK height={state.height} supply={state.total_supply}")
    return 0


def _cmd_replay_balances(args: argparse.Namespace) -> int:
    if re.fullmatch("[0-9a-fA-F]{64}", args.address) is None:
        print("address must be 64 hex chars", file=sys.stderr)
        return 1
    address = bytes.fromhex(args.address)
    state = _replay_export(args.chain)
    if state is None:
        return 1
    print(state.balance(address))
    return 0


def _cmd_scenario_check(args: argparse.Namespace) -> int:
    try:
        resolve_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    print("OK")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    return args.handler(args)


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
