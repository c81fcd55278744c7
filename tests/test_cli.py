"""CLI subcommands, output files, and exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pouwsim.cli
from pouwsim.chain import chain_lines, import_chain
from pouwsim.cli import cli_main

ONE_ROUND = """
[scenario]
seed = 3
rounds = 1
round_interval = 80
strategy = replication

[work]
n_configs = 1
n_events = 4
beam_energy = 3.0
energy_cut = 1.0
n_layers = 4
smear_sigma = 0.02
split_scale = 6.0

[validation]
min_quorum = 1

[network]
base_latency = 1

[miners:solo]
behavior = honest
count = 1
"""


@pytest.fixture()
def one_round_scn(tmp_path):
    path = tmp_path / "one_round.scn"
    path.write_text(ONE_ROUND)
    return path


def test_run_bundled_default(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", "default", "--out", str(out)]) == 0
    assert (out / "chain.jsonl").is_file()
    assert (out / "metrics.csv").is_file()
    assert (out / "summary.json").is_file()
    assert "ok:" in capsys.readouterr().out


def test_run_twice_byte_identical(tmp_path, one_round_scn):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(["run", "--scenario", str(one_round_scn), "--out", str(out1)]) == 0
    assert cli_main(["run", "--scenario", str(one_round_scn), "--out", str(out2)]) == 0
    for name in ("chain.jsonl", "metrics.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_chain_ok_and_tampered(tmp_path, one_round_scn, capsys):
    out = tmp_path / "out"
    cli_main(["run", "--scenario", str(one_round_scn), "--out", str(out)])
    capsys.readouterr()
    chain_path = out / "chain.jsonl"
    assert cli_main(["verify-chain", "--chain", str(chain_path)]) == 0
    assert capsys.readouterr().out.startswith("OK height=1")

    lines = chain_path.read_text().splitlines()
    record = json.loads(lines[1])
    record["prev_hash"] = "11" * 32
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    assert cli_main(["verify-chain", "--chain", str(tampered)]) == 1
    assert "height 1" in capsys.readouterr().out


@pytest.fixture(scope="module")
def default_chain(tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    assert cli_main(["run", "--scenario", "default", "--out", str(out)]) == 0
    return (out / "chain.jsonl").read_text().splitlines()


# what the line prints after the rule's name, per forged field, or per
# forged field and value where the detail names the value
_TIP_DETAIL = {
    "work_seed": "",
    "n_events": " n_events must be >= 0",
    "beam_energy": " beam_energy must be finite and > 0",
    "energy_cut": " energy_cut must be finite and > 0",
    "smear_sigma": " smear_sigma must be finite and >= 0",
    "split_scale": " split_scale must be finite and > 0",
    ("n_events", 0): " n_events 0 != 16",
    ("n_layers", 2): " n_layers 2 != 6",
    ("smear_sigma", 0.0): " smear_sigma 0.0 != 0.02",
    ("split_scale", 4.0): " split_scale 4.0 != 8.0",
    ("energy_cut", 1000.0): " energy_cut 1000.0 not in [0.5, 2.0]",
    ("energy_cut", 0.25): " energy_cut 0.25 not in [0.5, 2.0]",
}


@pytest.mark.parametrize(
    "key,value,rule",
    [
        ("work_seed", 12345, "BadWorkSeed"),
        ("n_events", -3, "BadParams"),
        ("energy_cut", 0.0, "BadParams"),
        *[
            (key, value, "BadParams")
            for key in ("beam_energy", "energy_cut", "smear_sigma", "split_scale")
            for value in (math.nan, math.inf)
        ],
        ("n_events", 0, "ParamsChanged"),
        ("n_layers", 2, "ParamsChanged"),
        ("smear_sigma", 0.0, "ParamsChanged"),
        ("split_scale", 4.0, "ParamsChanged"),
        ("energy_cut", 1000.0, "CutStep"),
        ("energy_cut", 0.25, "CutStep"),
    ],
)
def test_tip_with_a_wrong_work_seed_or_invalid_params_exits_1(tmp_path, default_chain, key, value, rule, capsys):
    """No successor's link covers the tip, so only the chain rules tie its
    work seed to its parent, its parameters to the valid range, the fields
    a scenario fixes to its parent's and its cut to one difficulty step
    from the parent's (the run has no target cost, so the cut stays 1.0).
    The line names the rule and, where the rule has one, its detail. A
    config field is forged in every config. JSON writes a non-finite float
    as ``NaN`` or ``Infinity``, which import reads back as a float."""
    *lines, tip_line = default_chain
    record = json.loads(tip_line)
    params = record["params"]
    for target in params["configs"] if key in ("smear_sigma", "split_scale") else [params]:
        target[key] = value
    forged = tmp_path / "forged.jsonl"
    forged.write_text("\n".join([*lines, json.dumps(record, sort_keys=True, separators=(",", ":"))]) + "\n")
    capsys.readouterr()
    assert cli_main(["verify-chain", "--chain", str(forged)]) == 1
    captured = capsys.readouterr()
    detail = _TIP_DETAIL.get((key, value), _TIP_DETAIL.get(key))
    assert captured.out == f"invalid block at height {len(lines)}: {rule}{detail}\n"
    assert captured.err == ""


def test_a_subnormal_cut_steps_to_the_floor_and_verifies(tmp_path, capsys):
    """The controller raises a cut below the smallest normal float to that
    floor, which can be more than twice the cut; CutStep admits exactly the
    steps adjust_difficulty can take, floor included."""
    scenario = tmp_path / "subnormal.scn"
    scenario.write_text(
        ONE_ROUND.replace("rounds = 1", "rounds = 3").replace("energy_cut = 1.0", "energy_cut = 1e-320")
        + "\n[difficulty]\ntarget_cost = 1.0\n"
    )
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    cuts = [b.sim_params.energy_cut for b in import_chain(out / "chain.jsonl")[1:]]
    assert cuts == [1e-320, sys.float_info.min, 2 * sys.float_info.min]
    capsys.readouterr()
    assert cli_main(["verify-chain", "--chain", str(out / "chain.jsonl")]) == 0
    assert capsys.readouterr().out == "OK height=3 supply=3\n"


_MIXED = "the configs carry more than one smear_sigma and split_scale"
_ORDER = "config indices must be 0..C-1 in order"


def _smears(*values):
    return lambda configs: [dict(c, smear_sigma=v) for c, v in zip(configs, values)]


@pytest.mark.parametrize(
    "edit,detail",
    [
        (_smears(0.02, 0.02, 0.5, 0.02), _MIXED),
        (_smears(0.0, -0.0, 0.0, 0.0), _MIXED),
        (lambda configs: configs[:3] + [dict(configs[3], split_scale=2.0)], _MIXED),
        (lambda configs: configs[::-1], _ORDER),
        (lambda configs: configs[:2] + configs[3:], _ORDER),
        (lambda configs: [], "at least one config required"),
    ],
    ids=["smear", "signed-zero", "split", "reversed", "gap", "empty"],
)
def test_a_configs_array_export_never_writes_is_unreadable(default_chain, mutant_path, edit, detail, capsys):
    """Export writes C >= 1 configs indexed 0..C-1 that carry one smear and
    one split, compared bit for bit (``-0.0 == 0.0``, but the two encode
    apart). Any other array is unreadable, with one line."""
    *lines, tip_line = default_chain
    record = json.loads(tip_line)
    record["params"]["configs"] = edit(record["params"]["configs"])
    mutant_path.write_text("\n".join([*lines, json.dumps(record, sort_keys=True, separators=(",", ":"))]) + "\n")
    capsys.readouterr()
    assert cli_main(["verify-chain", "--chain", str(mutant_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"unreadable chain export: block {len(lines)}: {detail}\n"


def _set_n_layers(record):
    record["params"]["n_layers"] = 2.5


def _set_amount(record):
    record["transactions"][0]["amount"] = "x"


def _set_configs(record):
    record["params"]["configs"] = None


def _set_winner(record):
    record["winner"] = 5


@pytest.mark.parametrize("mutate", [_set_n_layers, _set_amount, _set_configs, _set_winner])
@pytest.mark.parametrize("command", [[], ["--address", "ab" * 32]])
def test_type_malformed_export_one_line(tmp_path, default_chain, mutate, command, capsys):
    # the block below the tip carries a transaction in the default run
    lines = list(default_chain)
    record = json.loads(lines[-2])
    mutate(record)
    lines[-2] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    subcommand = "replay-balances" if command else "verify-chain"
    assert cli_main([subcommand, "--chain", str(bad), *command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unreadable chain export: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [[], ["--address", "ab" * 32]])
def test_deeply_nested_export_line_one_line(tmp_path, default_chain, command, capsys):
    # the JSON decoder gives up on deep nesting with a RecursionError
    lines = list(default_chain)
    lines[1] = "[" * 100000
    bad = tmp_path / "nested.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    subcommand = "replay-balances" if command else "verify-chain"
    assert cli_main([subcommand, "--chain", str(bad), *command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unreadable chain export: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "edit,detail",
    [
        (lambda lines: lines + [""], "line 14: blank line"),
        (lambda lines: lines[:5] + [""] + lines[5:], "line 6: blank line"),
        (lambda lines: lines[:-1] + [" " + lines[-1]], "line 13: whitespace around the record"),
        (lambda lines: lines[:-1] + [lines[-1] + " "], "line 13: whitespace around the record"),
        (lambda lines: lines[:3] + ["\t" + lines[3]] + lines[4:], "line 4: whitespace around the record"),
    ],
)
def test_blank_or_padded_line_is_unreadable(default_chain, mutant_path, edit, detail, capsys):
    """Every line of an export is one record exactly as export writes it:
    a blank line, or whitespace before or after a record, makes the export
    unreadable with one line naming the line number."""
    lines = list(default_chain)
    assert len(lines) == 13
    mutant_path.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    assert cli_main(["verify-chain", "--chain", str(mutant_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"unreadable chain export: {detail}\n"


# -- any mutation of a valid export gives exit 0 or 1 and one line -----------------

_ODD_VALUES = st.one_of(
    st.integers(max_value=-1),
    st.sampled_from([2**64, 2**64 - 1, 2**63, 10**30, -(2**63) - 1]),
    st.sampled_from([0.5, 1.0, 2.5, -3.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from(["", "a", "abc", "zz" * 32, "0g", "ab" * 31 + "a"]),
    st.text(max_size=8),
    st.none(),
    st.booleans(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
)


def _paths(node, prefix=()):
    """Every key path into a JSON value, containers before their children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(record, path):
    for key in path[:-1]:
        record = record[key]
    return record


def _mutate(lines, data):
    lines = list(lines)
    kind = data.draw(st.sampled_from(["replace", "delete", "drop", "duplicate", "swap", "truncate"]))
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    if kind in ("replace", "delete"):
        record = json.loads(lines[i])
        paths = list(_paths(record))
        if kind == "delete":
            paths = [p for p in paths if isinstance(_parent(record, p), dict)]
        path = data.draw(st.sampled_from(paths), label="path")
        if kind == "replace":
            _parent(record, path)[path[-1]] = data.draw(_ODD_VALUES, label="value")
        else:
            del _parent(record, path)[path[-1]]
        lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = data.draw(st.integers(0, len(lines) - 1), label="other line")
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1), label="cut")]
    return lines


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutant") / "chain.jsonl"


@pytest.mark.parametrize("command", [[], ["--address", "ab" * 32]])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_export_mutation_exits_with_one_line(default_chain, mutant_path, command, data):
    mutant_path.write_text("\n".join(_mutate(default_chain, data)) + "\n")
    subcommand = "replay-balances" if command else "verify-chain"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([subcommand, "--chain", str(mutant_path), *command])
    assert code in (0, 1)
    printed = out.getvalue() + err.getvalue()
    assert printed.count("\n") == 1 and printed.endswith("\n"), printed


_HEX_KEYS = {"prev_hash", "winner", "data_hash", "from", "to", "tag"}


def _tip_mutations(record):
    """(path, value) for every type or length mutation of a block record:
    each object, array and scalar gets values of other JSON types, each hex
    field hex of another length, case or spacing too, and each unsigned
    integer field values out of its range. The same number in another JSON
    type counts too: an int or a boolean in a float field, a boolean in an
    integer field. Each decodes to a block that another record encodes."""
    for path in _paths(record):
        old = _parent(record, path)[path[-1]]
        if isinstance(old, dict):
            values = ["x", "", 5, None, []]
        elif isinstance(old, list):
            values = ["x", "", 5, None, {}]
        elif path[-1] in _HEX_KEYS:
            spaced = " ".join(old[i : i + 2] for i in range(0, len(old), 2))
            values = ["ab" * 31, "ab" * 33, "", "zz" * 32, 5, None, [], old.upper(), spaced]
        elif isinstance(old, float):
            values = ["x", str(old), None, [], {}, int(old), True]
        else:
            values = ["x", str(old), None, [], {}, float(old), old + 0.5, -1, 2**64, True, False]
        for value in values:
            yield path, value


@pytest.mark.parametrize("command", [[], ["--address", "ab" * 32]])
def test_any_type_or_length_mutation_of_the_tip_exits_1(default_chain, mutant_path, command):
    """No block hashes the tip, so replay serializes it on its own: a tip
    that cannot be encoded is as unreadable as any other block."""
    *lines, tip_line = default_chain
    tip = json.loads(tip_line)
    assert tip["transactions"], "the default tip should carry a transaction"
    subcommand = "replay-balances" if command else "verify-chain"
    mutations = list(_tip_mutations(tip))
    for path, value in mutations:
        record = json.loads(tip_line)
        _parent(record, path)[path[-1]] = value
        mutant = [*lines, json.dumps(record, sort_keys=True, separators=(",", ":"))]
        mutant_path.write_text("\n".join(mutant) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([subcommand, "--chain", str(mutant_path), *command])
        printed = out.getvalue() + err.getvalue()
        assert code == 1 and printed.count("\n") == 1, (path, value, printed)
    assert len(mutations) > 200


@pytest.mark.parametrize("key,value", [("index", False), ("smear_sigma", 0), ("split_scale", 8)])
def test_config_type_mutation_after_the_same_configs_exits_1(default_chain, mutant_path, key, value, capsys):
    """A config field of another JSON type mid-chain is unreadable, although
    the earlier blocks carry the same configs and ``False == 0`` and
    ``8 == 8.0`` in Python: every record passes its own type checks."""
    lines = list(default_chain)
    height = len(lines) // 2
    record = json.loads(lines[height])
    assert record["params"]["configs"] == json.loads(lines[1])["params"]["configs"]
    record["params"]["configs"][0][key] = value
    lines[height] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    mutant_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["verify-chain", "--chain", str(mutant_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"unreadable chain export: block {height}: a config has other keys or JSON types than export writes\n"


def _value_mutation(record, data):
    """Replace one value of a block record: with an odd value, with the same
    number in another JSON type, with the same digest in upper case or
    spaced hex, or by adding a key. Often the replacement is the old value,
    which leaves the record as export wrote it."""
    path = data.draw(st.sampled_from(list(_paths(record))), label="path")
    parent = _parent(record, path)
    old = parent[path[-1]]
    same = [old, True, False, 1, 0, 1.0, 0.0, -0.0]
    if isinstance(old, (int, float)) and not isinstance(old, bool) and abs(old) < 2**53:
        same += [int(old), float(old)]
    if isinstance(old, str):
        same += [old.upper(), " ".join(old[i : i + 2] for i in range(0, len(old), 2))]
    value = data.draw(st.one_of(st.sampled_from(same), _ODD_VALUES), label="value")
    if isinstance(parent, dict) and data.draw(st.booleans(), label="add key"):
        parent[data.draw(st.text(max_size=12), label="key")] = value
    else:
        parent[path[-1]] = value


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_export_that_verifies_re_exports_to_the_same_bytes(default_chain, mutant_path, data):
    """One encoding per export: a chain of records in export's JSON layout
    (sorted keys, no spaces, one per line) that verifies re-exports byte for
    byte, so no record other than the one export writes decodes to a valid
    block. Mutations hit the tip most often, as no hash covers it. Spacing
    inside a record and key order are layout, not values, and are not
    checked; blank lines and whitespace around a record are unreadable."""
    lines = list(default_chain)
    del lines[data.draw(st.integers(1, len(lines)), label="height") :]
    i = data.draw(st.sampled_from([len(lines) - 1] * 10 + list(range(len(lines)))), label="line")
    record = json.loads(lines[i])
    _value_mutation(record, data)
    lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    text = "\n".join(lines) + "\n"
    mutant_path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["verify-chain", "--chain", str(mutant_path)])
    if code == 0:
        assert chain_lines(import_chain(mutant_path)) == text


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """``default`` run in two processes under different ``PYTHONHASHSEED``
    values writes the three outputs recorded for it, byte for byte: no
    emitted byte depends on set or dict order of hashed strings."""
    tests = Path(__file__).parent
    recorded = json.loads((tests / "fixtures" / "scenario_output_digests.json").read_text())["default"]
    src = str(tests.parent / "src")
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        cmd = [sys.executable, "-m", "pouwsim.cli", "run", "--scenario", "default", "--out", str(out)]
        subprocess.run(cmd, check=True, capture_output=True, env=env)
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in recorded}
        assert digests == recorded, hash_seed


def test_replay_balances_round_one_winner(tmp_path, one_round_scn, capsys):
    out = tmp_path / "out"
    cli_main(["run", "--scenario", str(one_round_scn), "--out", str(out)])
    capsys.readouterr()
    metrics = (out / "metrics.csv").read_text().splitlines()
    winner_hex = metrics[1].split(",")[5]
    code = cli_main(
        ["replay-balances", "--chain", str(out / "chain.jsonl"), "--address", winner_hex]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"  # exactly one block reward


def test_replay_balances_unknown_address(tmp_path, one_round_scn, capsys):
    out = tmp_path / "out"
    cli_main(["run", "--scenario", str(one_round_scn), "--out", str(out)])
    capsys.readouterr()
    code = cli_main(["replay-balances", "--chain", str(out / "chain.jsonl"), "--address", "ab" * 32])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"
    # an address is exactly 64 hex chars: anything else is refused, not
    # reported as an empty balance
    for bad in ("ab", "", "ab" * 31, "ab" * 33, "zz" * 32, "ab" * 31 + " a", "AB" * 31 + "\u0661\u0662"):
        code = cli_main(["replay-balances", "--chain", str(out / "chain.jsonl"), "--address", bad])
        assert code == 1, bad
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "address must be 64 hex chars\n", bad
    assert cli_main(["replay-balances", "--chain", str(out / "chain.jsonl"), "--address", "AB" * 32]) == 0
    assert capsys.readouterr().out == "0\n"


def test_scenario_check(tmp_path, one_round_scn, capsys):
    assert cli_main(["scenario-check", "--scenario", str(one_round_scn)]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    bad = tmp_path / "bad.scn"
    bad.write_text(ONE_ROUND + "\n[scenario]\nbogus = 1\n")
    assert cli_main(["scenario-check", "--scenario", str(bad)]) == 1


# Zero events against a target no cost reaches, in rounds of 2 ticks: with
# base_latency 1 the earliest submission arrives on the deadline tick.
SHORT_ROUNDS = """
[scenario]
rounds = 1100
round_interval = 2
strategy = replication

[work]
n_events = 0

[difficulty]
target_cost = 1.0

[miners:h]
behavior = honest
count = 2
"""


def test_scenario_check_rejects_rounds_no_submission_can_reach(tmp_path, capsys):
    path = tmp_path / "short.scn"
    path.write_text(SHORT_ROUNDS)
    assert cli_main(["scenario-check", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("scenario error: round_interval must be >= 2 * base_latency + 2")
    assert captured.err.count("\n") == 1
    path.write_text(SHORT_ROUNDS.replace("round_interval = 2", "round_interval = 4"))
    assert cli_main(["scenario-check", "--scenario", str(path)]) == 0


# Scenarios that once passed scenario-check and then broke run with a
# traceback: an ADC sum past a u64 (struct.error in the digest), a cost
# model integrating up to inf (NaN in the work delay), and a cost model
# halving an energy 1024 or more times (OverflowError). Two more ran but
# turned on honest miners: a smear so wide that intake rejected every
# honest result as malformed and banned all three miners, and one whose
# Kalman innovation overflowed, so reference rounds escalated. A smear of
# -0.0 ran, but wrote "smear_sigma":-0.0 into every block, so a run that
# behaved like the 0.0 one emitted a different chain.
_DECOY_PROBE = """
[scenario]
rounds = 2
strategy = decoy

[work]
n_events = 2
n_configs = 2
beam_energy = {beam}

[miners:h]
behavior = honest
count = 2
"""
_ADMISSION_PROBES = {
    "adc sum past u64": (_DECOY_PROBE.format(beam="3e18"), "beam_energy * n_layers must be <= "),
    "cost model nan": (_DECOY_PROBE.format(beam="1e307"), "beam_energy * n_layers must be <= "),
    "cost model overflow": (
        "[scenario]\nrounds = 1\nstrategy = replication\n\n[work]\nn_events = 1\nn_configs = 1\n"
        "n_layers = 1100\n\n[miners:h]\nbehavior = honest\ncount = 2\n",
        "n_layers must be in 2..100",
    ),
    "smear bans honest miners": (
        "[scenario]\nrounds = 4\nstrategy = decoy\nban_threshold = 2\n\n[work]\nn_events = 4\nn_configs = 2\n"
        "smear_sigma = 1e300\n\n[miners:h]\nbehavior = honest\ncount = 3\n",
        "smear_sigma must be <= ",
    ),
    "smear of negative zero": (
        "[scenario]\nrounds = 1\n\n[work]\nsmear_sigma = -0.0\n\n[miners:h]\nbehavior = honest\ncount = 2\n",
        "smear_sigma must be >= 0 and not -0.0",
    ),
    "smear overflows the innovation": (
        "[scenario]\nrounds = 4\nstrategy = reference\n\n[work]\nn_events = 4\nn_configs = 2\n"
        "smear_sigma = 1e160\n\n[miners:h]\nbehavior = honest\ncount = 3\n",
        "smear_sigma must be <= ",
    ),
}


@pytest.mark.parametrize("probe", sorted(_ADMISSION_PROBES))
def test_scenario_the_pipeline_cannot_run_is_refused_at_admission(tmp_path, capsys, probe):
    text, reason = _ADMISSION_PROBES[probe]
    path = tmp_path / "probe.scn"
    path.write_text(text)
    for command in (["scenario-check"], ["run", "--out", str(tmp_path / "out")]):
        assert cli_main([*command, "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"scenario error: {reason}") and captured.err.count("\n") == 1, captured.err
    assert not (tmp_path / "out").exists()  # refused before the run starts


def test_scenario_check_accepts_bundled_names(capsys):
    for name in ("default", "fairness.scn"):
        assert cli_main(["scenario-check", "--scenario", name]) == 0
        assert capsys.readouterr().out == "OK\n"
    assert cli_main(["scenario-check", "--scenario", "no_such_scenario"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("scenario error: no bundled scenario")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "scenario-check"])
def test_unreadable_scenario_file_one_line(tmp_path, command, capsys):
    binary = tmp_path / "binary.scn"
    binary.write_bytes(b"\xff\xfe[scenario]\n")
    extra = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert cli_main([command, "--scenario", str(binary), *extra]) == 1
    captured = capsys.readouterr()
    printed = captured.out + captured.err
    assert printed.count("\n") == 1 and "unreadable scenario file" in printed, printed


@pytest.mark.parametrize("where", ["existing file", "under a file"])
def test_run_unusable_out_one_line_before_running(tmp_path, monkeypatch, capsys, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker if where == "existing file" else blocker / "out"
    runs = []
    monkeypatch.setattr(pouwsim.cli, "run_scenario", lambda cfg: runs.append(cfg))
    assert cli_main(["run", "--scenario", "default", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write outputs:") and captured.err.count("\n") == 1, captured.err
    assert runs == []  # rejected before the simulation runs
    assert blocker.read_text() == "not a directory"


def test_usage_errors_exit_2(capsys):
    assert cli_main(["run", "--scenario", "default", "--frobnicate"]) == 2
    assert cli_main(["no-such-command"]) == 2
    assert cli_main([]) == 2
    capsys.readouterr()


def test_missing_scenario_file_exit_1(tmp_path, capsys):
    assert cli_main(["run", "--scenario", str(tmp_path / "nope.scn")]) == 1
    capsys.readouterr()
