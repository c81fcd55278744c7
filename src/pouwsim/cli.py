"""Command-line interface.

Subcommands:

* ``run --scenario <file-or-name> [--seed N] [--out DIR]`` — run a scenario,
  write chain.jsonl, metrics.csv and summary.json into the output directory.
* ``verify-chain --chain <file>`` — replay and validate a chain export;
  prints OK or the first violation with its height.
* ``replay-balances --chain <file> --address <hex>`` — print the balance of
  an address derived purely by replaying the export.
* ``scenario-check --scenario <file>`` — validate a scenario file.

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import struct
import sys
from pathlib import Path

from .chain import ChainState, InvalidChainError, export_chain, import_chain, replay_chain
from .netsim import emit_metrics, run_scenario
from .scenario import ScenarioError, load_scenario, resolve_scenario


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

    verify_p = sub.add_parser("verify-chain", help="replay and validate a chain export")
    verify_p.add_argument("--chain", required=True)

    bal_p = sub.add_parser("replay-balances", help="derive an address balance by replay")
    bal_p.add_argument("--chain", required=True)
    bal_p.add_argument("--address", required=True, help="address as 64 hex chars")

    check_p = sub.add_parser("scenario-check", help="validate a scenario file only")
    check_p.add_argument("--scenario", required=True)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = resolve_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    result = run_scenario(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_chain(result.state.blocks, out / "chain.jsonl")
    emit_metrics(result, out)
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
        print(f"invalid block at height {exc.height}: {exc.rule}")
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
    try:
        address = bytes.fromhex(args.address)
    except ValueError:
        print("address must be hex", file=sys.stderr)
        return 1
    state = _replay_export(args.chain)
    if state is None:
        return 1
    print(state.balance(address))
    return 0


def _cmd_scenario_check(args: argparse.Namespace) -> int:
    try:
        load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}")
        return 1
    except OSError as exc:
        print(f"unreadable scenario file: {exc}", file=sys.stderr)
        return 1
    print("OK")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify-chain":
        return _cmd_verify_chain(args)
    if args.command == "replay-balances":
        return _cmd_replay_balances(args)
    if args.command == "scenario-check":
        return _cmd_scenario_check(args)
    parser.print_usage(sys.stderr)
    return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
