"""Scenario configuration: a strict, human-editable key-value format.

Files use INI sections. ``[scenario]``, ``[work]``, ``[validation]``,
``[difficulty]`` and ``[network]`` hold scalar knobs; each ``[miners:<name>]``
section declares a miner group; ``[partition:<name>]`` sections declare
network partition windows. Unknown sections or keys are rejected.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .miner import BEHAVIOR_KINDS, BEHAVIOR_PARTIAL_FABRICATE, BEHAVIOR_REFERENCE_CHEAT
from .verification import STRATEGY_DECOY, STRATEGY_REFERENCE, STRATEGY_REPLICATION

STRATEGIES = (STRATEGY_REPLICATION, STRATEGY_DECOY, STRATEGY_REFERENCE)
AUTHORITY_NODE = "authority"  # the root authority's node name

# The pipeline's worst case, so that every scenario validate() admits runs:
# * A unit draw is at least 2**-53, so a primary's energy is at most
#   beam_energy * 53 ln 2 and a hit's ADC count, floor(2 E), at most about
#   73.47 * beam_energy. A track claims at most one hit per plane, and its
#   adc_sum is packed as a u64 into the result digest. This bound also keeps
#   the cost model's integration range, up to cut + 50 * beam_energy, finite.
# * The cost model halves a particle's energy once per plane, e0 / 2**k for
#   k < n_layers, which overflows a float from k = 1024 on. Its cold
#   evaluation costs O(n_layers**2) per split scale: where every level lies
#   above the cut it measured 0.6 s at 100 layers and 1.5 s at 200 (2-core
#   x86 VM, CPython 3.11). MAX_LAYERS keeps a cold cost under a second.
# * A Box-Muller radius is at most sqrt(2 * 53 ln 2), about 8.572, and a
#   slope moves by 0.05 per split, at most once per plane, so a hit's |u| is
#   at most U = 8.58 * smear_sigma + n_layers * (1 + 0.05 * n_layers). A
#   line fitted to hits at distinct planes in 1..n_layers has |b| <= 2 U and
#   |a| <= (1 + 2 n_layers) U. The Kalman state is that fit shrunk toward
#   its prior's zero, so a prediction at a plane, and so an innovation, is
#   at most 3 (n_layers + 1)**2 U. The innovation's square must stay finite;
#   then so do measurement_variance and every other Kalman term, and |u|,
#   a and b stay far inside the intake's bound of 1e300.
_ADC_PER_BEAM = 73.5
MAX_LAYERS = 100
_SMEAR_RADIUS = 8.58
_INNOVATION_MAX = math.sqrt(sys.float_info.max)


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class MinerGroup:
    name: str
    behavior: str = "honest"
    count: int = 1
    speed: float = 1.0
    k_correct: int = 0
    group: str = ""
    offline: bool = False

    def node_names(self) -> list[str]:
        """The names of the group's miners, as partitions address them."""
        return [f"{self.name}-{i}" for i in range(self.count)]


@dataclass(frozen=True)
class PartitionWindow:
    name: str
    nodes: tuple[str, ...]  # miner names; AUTHORITY_NODE addresses the root
    start: int
    end: int


@dataclass
class ScenarioConfig:
    seed: int = 1
    rounds: int = 10
    round_interval: int = 1000
    strategy: str = STRATEGY_DECOY
    block_reward: int = 1
    tx_cap: int | None = None
    txs_per_round: int = 0
    tx_amount: int = 1
    ban_threshold: int = 2

    n_configs: int = 4
    n_events: int = 16
    beam_energy: float = 6.0
    energy_cut: float = 1.0
    n_layers: int = 6
    smear_sigma: float = 0.02
    split_scale: float = 8.0

    min_quorum: int = 2
    chi2_threshold: float = 3.0
    histogram_bins: int = 16
    reference_skew: float = 1.0

    target_cost: float | None = None
    difficulty_window: int = 1

    base_latency: int = 1
    jitter: int = 0
    drop_rate: float = 0.0

    miners: tuple[MinerGroup, ...] = ()
    partitions: tuple[PartitionWindow, ...] = field(default_factory=tuple)

    def validate(self) -> None:
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ScenarioError(f"{key} must be finite")
        if self.rounds < 1:
            raise ScenarioError("rounds must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ScenarioError(f"strategy must be one of {STRATEGIES}")
        if self.block_reward < 1:
            raise ScenarioError("block_reward must be >= 1")
        if self.tx_cap is not None and self.tx_cap < 0:
            raise ScenarioError("tx_cap must be >= 0")
        if self.tx_amount < 1:
            raise ScenarioError("tx_amount must be >= 1")
        if self.n_configs < 1:
            raise ScenarioError("n_configs must be >= 1")
        if self.n_events < 0:
            raise ScenarioError("n_events must be >= 0")
        if self.beam_energy <= 0 or self.energy_cut <= 0 or self.split_scale <= 0:
            raise ScenarioError("beam_energy, energy_cut and split_scale must be > 0")
        if not 2 <= self.n_layers <= MAX_LAYERS:
            raise ScenarioError(f"n_layers must be in 2..{MAX_LAYERS}")
        if _ADC_PER_BEAM * self.beam_energy * self.n_layers >= 2**64:
            raise ScenarioError(
                f"beam_energy * n_layers must be <= {2**64 / _ADC_PER_BEAM:.4g} for a track's ADC sum to fit 64 bits"
            )
        if math.copysign(1.0, self.smear_sigma) < 0:  # -0.0 too: it would pack apart from 0.0 in every block
            raise ScenarioError("smear_sigma must be >= 0 and not -0.0")
        layers = self.n_layers
        max_smear = (_INNOVATION_MAX / (3 * (layers + 1) ** 2) - layers * (1 + 0.05 * layers)) / _SMEAR_RADIUS
        if self.smear_sigma > max_smear:
            raise ScenarioError(
                f"smear_sigma must be <= {max_smear:.4g} at n_layers = {layers}"
                " for the Kalman innovation to stay finite"
            )
        if self.min_quorum < 1:
            raise ScenarioError("min_quorum must be >= 1")
        if self.histogram_bins < 8:
            raise ScenarioError("histogram_bins must be >= 8")
        if self.chi2_threshold <= 1:
            raise ScenarioError("chi2_threshold must be > 1")
        if self.reference_skew <= 0:
            raise ScenarioError("reference_skew must be > 0")
        if self.base_latency < 1:
            raise ScenarioError("base_latency must be >= 1")
        # params take base_latency, the work at least 1 tick and the reply
        # base_latency: no submission arrives sooner after the round opens
        if self.round_interval < 2 * self.base_latency + 2:
            raise ScenarioError("round_interval must be >= 2 * base_latency + 2 for any submission to arrive")
        if self.jitter < 0:
            raise ScenarioError("jitter must be >= 0")
        if not (0.0 <= self.drop_rate < 1.0):
            raise ScenarioError("drop_rate must be in [0, 1)")
        if self.target_cost is not None and self.target_cost <= 0:
            raise ScenarioError("target_cost must be > 0")
        if self.difficulty_window < 1:
            raise ScenarioError("difficulty_window must be >= 1")
        names = set()
        uses_reference = self.strategy == STRATEGY_REFERENCE
        for group in self.miners:
            if group.name in names:
                raise ScenarioError(f"duplicate miner group {group.name!r}")
            names.add(group.name)
            if group.behavior not in BEHAVIOR_KINDS:
                raise ScenarioError(f"unknown behavior {group.behavior!r}")
            if group.count < 0:
                raise ScenarioError("miner count must be >= 0")
            if not 0 < group.speed < math.inf:
                raise ScenarioError("miner speed must be finite and > 0")
            if group.behavior == BEHAVIOR_PARTIAL_FABRICATE and not (
                0 <= group.k_correct <= self.n_configs
            ):
                raise ScenarioError("k_correct must be in 0..n_configs")
            if group.behavior == BEHAVIOR_REFERENCE_CHEAT:
                uses_reference = True
        if uses_reference and self.n_layers < 3:
            raise ScenarioError("reference verification needs n_layers >= 3")
        miner_names = {AUTHORITY_NODE}.union(*(g.node_names() for g in self.miners))
        for part in self.partitions:
            if part.end <= part.start or part.start < 0:
                raise ScenarioError(f"partition {part.name!r} window is empty")
            for node in part.nodes:
                if node not in miner_names:
                    raise ScenarioError(f"partition {part.name!r} names unknown node {node!r}")


_SECTION_KEYS = {
    "scenario": {
        "seed": ("seed", int),
        "rounds": ("rounds", int),
        "round_interval": ("round_interval", int),
        "strategy": ("strategy", str),
        "block_reward": ("block_reward", int),
        "tx_cap": ("tx_cap", int),
        "txs_per_round": ("txs_per_round", int),
        "tx_amount": ("tx_amount", int),
        "ban_threshold": ("ban_threshold", int),
    },
    "work": {
        "n_configs": ("n_configs", int),
        "n_events": ("n_events", int),
        "beam_energy": ("beam_energy", float),
        "energy_cut": ("energy_cut", float),
        "n_layers": ("n_layers", int),
        "smear_sigma": ("smear_sigma", float),
        "split_scale": ("split_scale", float),
    },
    "validation": {
        "min_quorum": ("min_quorum", int),
        "chi2_threshold": ("chi2_threshold", float),
        "histogram_bins": ("histogram_bins", int),
        "reference_skew": ("reference_skew", float),
    },
    "difficulty": {
        "target_cost": ("target_cost", float),
        "window": ("difficulty_window", int),
    },
    "network": {
        "base_latency": ("base_latency", int),
        "jitter": ("jitter", int),
        "drop_rate": ("drop_rate", float),
    },
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _BOOL_TRUE:
        return True
    if lowered in _BOOL_FALSE:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# [miners:<name>] and [partition:<name>] keys; each default is its field's
_MINER_KEYS = {
    "behavior": ("behavior", str),
    "count": ("count", int),
    "speed": ("speed", float),
    "k_correct": ("k_correct", int),
    "group": ("group", str),
    "offline": ("offline", _parse_bool),
}
_PARTITION_KEYS = {
    "nodes": ("nodes", lambda raw: tuple(n.strip() for n in raw.split(",") if n.strip())),
    "start": ("start", int),
    "end": ("end", int),
}


def _convert(section: str, items: dict[str, str], schema: dict) -> dict:
    """The section's present keys as ``{field: value}``, in file order."""
    values = {}
    for key, raw in items.items():
        if key not in schema:
            raise ScenarioError(f"unknown key {key!r} in section [{section}]")
        attr, conv = schema[key]
        try:
            values[attr] = conv(raw)
        except ValueError as exc:
            raise ScenarioError(f"[{section}] {key}: {exc}") from exc
    return values


def parse_scenario(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc

    settings: dict = {}
    miners: list[MinerGroup] = []
    partitions: list[PartitionWindow] = []

    for section in parser.sections():
        items = dict(parser.items(section))
        kind, colon, name = section.partition(":")
        name = name.strip()
        if section in _SECTION_KEYS:
            settings.update(_convert(section, items, _SECTION_KEYS[section]))
        elif colon and kind == "miners":
            if not name:
                raise ScenarioError("miner section needs a name: [miners:<name>]")
            miners.append(MinerGroup(name, **{"group": name, **_convert(section, items, _MINER_KEYS)}))
        elif colon and kind == "partition":
            window = _convert(section, items, _PARTITION_KEYS)
            if len(window) < len(_PARTITION_KEYS):
                raise ScenarioError(f"[{section}] needs nodes, start and end")
            partitions.append(PartitionWindow(name, **window))
        else:
            raise ScenarioError(f"unknown section [{section}]")

    cfg = ScenarioConfig(**settings, miners=tuple(miners), partitions=tuple(partitions))
    cfg.validate()
    return cfg


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        return parse_scenario(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"unreadable scenario file: {exc}") from None


def bundled_scenario_names() -> list[str]:
    root = resources.files("pouwsim") / "scenarios"
    return sorted(p.name[: -len(".scn")] for p in root.iterdir() if p.name.endswith(".scn"))


def load_bundled_scenario(name: str) -> ScenarioConfig:
    root = resources.files("pouwsim") / "scenarios"
    candidate = root / f"{name}.scn"
    if not candidate.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}; have {bundled_scenario_names()}")
    return parse_scenario(candidate.read_text(encoding="utf-8"))


def resolve_scenario(spec: str | Path) -> ScenarioConfig:
    """Accept either a filesystem path or a bundled scenario name."""
    path = Path(spec)
    if path.is_file():
        return load_scenario(path)
    if isinstance(spec, str) and "/" not in spec and "\\" not in spec:
        return load_bundled_scenario(spec.removesuffix(".scn"))
    raise ScenarioError(f"scenario file not found: {spec}")
