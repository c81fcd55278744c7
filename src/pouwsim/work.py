"""Toy Monte Carlo work pipeline: event generation, detector transport,
digitization and track reconstruction, plus canonical result digests (each
derived from a result's entries, never claimed) and an analytic cost model.

The model is deliberately small but fully specified so that every stage can
be checked against brute-force oracles:

* Event generation draws, per event, 1 + (u64 mod 3) primaries. A primary
  has energy ``E = beam_energy * (-ln u)`` with ``u`` uniform in (0, 1) and a
  slope ``t`` uniform in (-1, 1).
* Transport walks each particle across detector planes at ``x = 1..n_layers``.
  At each plane the particle deposits ``0.1 * E`` and records
  ``u = t * x + N(0, smear_sigma)`` as a hit ``(layer, u, e_dep)`` whose
  layer is the 0-based plane index ``x - 1``. After a
  crossing it splits with probability ``E / (E + split_scale)`` into two
  children of energy ``E / 2`` and slopes ``t +- 0.05`` that continue from
  the next plane. Particles with ``E < energy_cut`` are dropped before
  crossing anything. ``step_count`` counts plane crossings.
* Digitization snaps positions to a pitch grid and quantizes deposits into
  integer ADC counts, giving each layer's digis ``(u_q, adc)``.
* Reconstruction greedily associates digis into tracks seeded on the first
  plane and fits a straight line by ordinary least squares.

All randomness comes from splitmix64 substreams keyed by
``(work_seed, config index, event-or-primary index, phase)``, so results are
identical across runs and platforms. Generation and transport take their
draws from the lane kernel of ``rng`` (``stream_seeds``, ``draw_lanes``),
which computes many draws of many streams in one big-integer pass. Its lanes
are masked to 64 bits before every multiply and its read-out is byte-order
independent. A unit draw is read out raw, as ``1 + m * 2**-52``, and a stage
forms the unit where it uses it, by the exact subtraction of ``UNIT_OFFSET``
(the ``rng`` docstring gives the argument), so a draw a pass never reads is
never converted. Each draw equals the one ``Splitmix64`` makes, and the
stages yield the same floats as drawing through the class.

A round's configs share its smear and split scale, so a config is its
index. The stages run on batches of config indices (``run_configs``). A
stream's draws do not depend on which other streams share its pass, so the
batch shares the kernel's fixed cost per call: one seeds pass and one draw
pass generate the events of every config, and transport walks consecutive
configs together, with one seeds pass and one draw pass per refill level,
as long as the group's first pass stays within ``_LANE_CAP`` lanes. Each
tree keeps its hits in its own list across the passes, and a config's hits
are its trees' lists joined in primary order.
Digitization and reconstruction run config by config. A config's entry is
the same in every batch, a batch of one included. A round's ``WorkCache``
holds the round's parameters, its results and its cost estimate, and runs
all of the round's configs as one batch on its first request. An entry
serializes itself once, and both digests read those bytes.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .rng import UNIT_OFFSET, draw_lanes, lanes_raw_units, lanes_u64, stream_seed, stream_seeds

DEPOSIT_FRACTION = 0.1
SPLIT_SLOPE_DELTA = 0.05
DEFAULT_PITCH = 0.01
ADC_GAIN = 0.05

# Floats are quantized to this grid before hashing so digests absorb
# platform-level rounding noise while still distinguishing real differences.
DIGEST_QUANTUM = 1e-6

_PHASE_GENERATE = 0
_PHASE_TRANSPORT = 1

_MAX_PRIMARIES = 3  # an event has 1 + (u64 mod 3) primaries
# Most first-pass lanes (3 * n_layers per primary) of one transport call
# for a group of configs (see run_configs). A shared pass saves the fixed
# cost per kernel call, but a group that holds thousands of lanes keeps
# that many draws and hits live at once, and each lane costs more. Paired
# runs of 4-config batches (n_layers 6, CPython 3.11, 2-core x86 VM), one
# group against one config at a time, median time ratio: 0.87 at 556
# lanes, 0.94 at 1166, 0.98 at 2295, 1.01 at 3510, 1.02-1.03 from 4770 to
# 9612 lanes.
_LANE_CAP = 2048
_TWO_PI = 2.0 * math.pi  # Splitmix64.next_gauss angle factor

# Pipeline records never leave this module, so they are plain tuples:
# a hit is (layer, u, e_dep), where layer is the 0-based plane index (plane
# coordinate layer + 1), and a digi is (u_q, adc), listed under its layer,
# where u_q is u snapped to the pitch grid.
Hit = tuple[int, float, float]
Digi = tuple[float, int]

_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)


@dataclass(frozen=True)
class SimulationParameters:
    """The full work definition broadcast for one round: ``n_configs``
    configs, indexed 0..C-1, that share one smear and split scale."""

    work_seed: int
    n_events: int
    beam_energy: float
    energy_cut: float
    n_layers: int
    n_configs: int
    smear_sigma: float
    split_scale: float

    def validate(self) -> None:
        """Raise ValueError naming the first invalid field."""
        if self.n_events < 0:
            raise ValueError("n_events must be >= 0")
        if not 0 < self.beam_energy < math.inf:
            raise ValueError("beam_energy must be finite and > 0")
        if not 0 < self.energy_cut < math.inf:
            raise ValueError("energy_cut must be finite and > 0")
        if self.n_layers < 2:
            raise ValueError("n_layers must be >= 2")
        if self.n_configs < 1:
            raise ValueError("at least one config required")
        if not 0 <= self.smear_sigma < math.inf:
            raise ValueError("smear_sigma must be finite and >= 0")
        if not 0 < self.split_scale < math.inf:
            raise ValueError("split_scale must be finite and > 0")


@dataclass(frozen=True)
class TrackRecord:
    """One fitted track and the measurements it claimed, each a (plane
    coordinate, grid position) pair; its hit count is ``len(hits)``."""

    a: float  # intercept of the fitted line u = a + b * x
    b: float  # slope
    adc_sum: int
    hits: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class ConfigResult:
    """Result of one configuration: its fitted tracks, each carrying its own
    measurements, and the work done. Its canonical bytes, which every digest
    over it reads, and its digest are derived when first read, then kept,
    as ``SimulationResult``'s digest is."""

    index: int
    tracks: tuple[TrackRecord, ...]
    step_count: int

    @cached_property
    def canonical_bytes(self) -> bytes:
        return config_entry_bytes(self)

    @cached_property
    def digest(self) -> bytes:
        return config_entry_digest(self)


@dataclass(frozen=True)
class SimulationResult:
    """One entry per config. The digest (the block's data hash) is derived
    from the entries when first read, then kept; it cannot disagree with
    them, and a result whose digest nobody reads is never hashed."""

    per_config: tuple[ConfigResult, ...]

    @cached_property
    def digest(self) -> bytes:
        return canonical_digest(self.per_config)

    @cached_property
    def step_count(self) -> int:
        """Plane crossings of all entries, summed once per result."""
        return sum(e.step_count for e in self.per_config)


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

def generate_events(params: SimulationParameters, indices: Sequence[int]) -> list[list[tuple[float, float]]]:
    """Generate primaries (energy, slope) for every event of each config in
    ``indices``.

    Each event has its own splitmix64 stream keyed by
    (work_seed, config index, event index, generate-phase); its first draw
    (u64) picks the primary count, then per primary the draw order is:
    energy u, slope u. All 7 draws an event can use are drawn for every
    event of every config in one lane-kernel pass. Returns one list of
    primaries per config, in the order of ``indices``.
    """
    n_events = params.n_events
    per_event = 1 + 2 * _MAX_PRIMARIES
    seeds = stream_seeds([(stream_seed(params.work_seed, i), n_events) for i in indices], _PHASE_GENERATE)
    lanes = draw_lanes(seeds, 0, per_event)
    counts = lanes_u64(lanes, per_event * len(seeds), per_event)
    units = lanes_raw_units(lanes, per_event * len(seeds))
    beam = params.beam_energy
    log, off = math.log, UNIT_OFFSET
    batch: list[list[tuple[float, float]]] = []
    for k in range(len(indices)):
        primaries: list[tuple[float, float]] = []
        for event in range(k * n_events, (k + 1) * n_events):
            first = per_event * event + 1
            last = first + 2 * (1 + counts[event] % _MAX_PRIMARIES)
            primaries += [
                (beam * -log(units[i] - off), 2.0 * (units[i + 1] - off) - 1.0) for i in range(first, last, 2)
            ]
        batch.append(primaries)
    return batch


def transport_and_respond(
    primaries: Sequence[Sequence[tuple[float, float]]],
    params: SimulationParameters,
    indices: Sequence[int],
) -> tuple[list[list[Hit]], int]:
    """Walk each primary's particle tree through the detector planes, for
    the primaries of each config (``primaries[k]`` belongs to config
    ``indices[k]``). Returns one hit list per config and the crossing count
    of the whole batch.

    Per crossing the draw order is: smear gaussian (two units), split
    uniform. Children are pushed (t + delta) then (t - delta), so the
    lower-slope child is transported first.

    Draws come from the lane kernel, ``3 * n_layers`` per primary at a time
    (a tree that never splits needs exactly that many), for the trees of
    every config in one pass. A tree that runs out stops with its current
    particle pushed back, and the next pass draws the following block for
    all such trees at once. Each tree appends to its own hit list, whatever
    pass it is in, and a config's hits are its trees' lists joined in
    primary order, so each config's order is that of walking its trees to
    the end in turn. The float expressions are those of
    ``Splitmix64.next_gauss`` and ``next_unit``, so hits are bit-identical
    to drawing through the class.
    """
    cut = params.energy_cut
    n_layers = params.n_layers
    sigma, split_scale = params.smear_sigma, params.split_scale
    sqrt, log, cos, two_pi, off = math.sqrt, math.log, math.cos, _TWO_PI, UNIT_OFFSET
    block = 3 * n_layers
    seeds = stream_seeds(
        [(stream_seed(params.work_seed, i), len(p)) for i, p in zip(indices, primaries)], _PHASE_TRANSPORT
    )
    # (stream seed, particle stack, hit list) of each tree still walking.
    # Particles below the cut are dropped before crossing anything, so they
    # never enter a stack: they would draw nothing and make no hit.
    jobs = []
    trees: list[list[list[Hit]]] = []  # per config, its trees' hit lists in primary order
    next_seeds = iter(seeds)
    for config_primaries in primaries:
        # primaries first: zip then takes exactly one seed per primary
        config_jobs = [(seed, [(e, t, 1)], []) for (e, t), seed in zip(config_primaries, next_seeds) if e >= cut]
        trees.append([job[2] for job in config_jobs])
        jobs += config_jobs
    start = 0
    while jobs:
        units = lanes_raw_units(draw_lanes([job[0] for job in jobs], start, block), len(jobs) * block)
        stopped = []
        end = 0
        for seed, stack, out in jobs:
            i, end = end, end + block
            append = out.append
            while stack:
                e, t, plane = stack.pop()
                e_dep = DEPOSIT_FRACTION * e
                p_split = e / (e + split_scale)
                stop = plane + (end - i) // 3  # first plane this block cannot reach
                if stop > n_layers:
                    stop = n_layers + 1
                for plane in range(plane, stop):
                    noise = sqrt(-2.0 * log(units[i] - off)) * cos(two_pi * (units[i + 1] - off)) * sigma
                    append((plane - 1, t * plane + noise, e_dep))
                    i += 3
                    if units[i - 1] - off < p_split:
                        half = 0.5 * e
                        if half >= cut and plane < n_layers:  # else the children cross nothing
                            stack.append((half, t + SPLIT_SLOPE_DELTA, plane + 1))
                            stack.append((half, t - SPLIT_SLOPE_DELTA, plane + 1))
                        break
                else:
                    if stop <= n_layers:  # out of draws: resume here next pass
                        stack.append((e, t, stop))
                        break
            if stack:
                stopped.append((seed, stack, out))
        jobs = stopped
        start += block
    batch = [list(chain.from_iterable(tree_hits)) for tree_hits in trees]
    return batch, sum(map(len, batch))  # one hit per crossing


def digitize(hits: Iterable[Hit]) -> dict[int, list[Digi]]:
    """Snap hit positions to the DEFAULT_PITCH grid and floor deposits into
    ADC counts, in one pass: each layer's digis ``(u_q, adc)`` in hit order."""
    floor, pitch = math.floor, DEFAULT_PITCH
    by_layer: dict[int, list[Digi]] = defaultdict(list)
    for layer, u, e_dep in hits:
        by_layer[layer].append((round(u / pitch) * pitch, floor(e_dep / ADC_GAIN)))
    return by_layer


def fit_line(points: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Ordinary least squares for u = a + b * x; needs >= 2 distinct x. The
    sums are added left to right, as association adds them; ``sum()``
    would compensate float sums from CPython 3.12 on."""
    n = 0
    sx = su = sxx = sxu = 0.0
    for x, u in points:
        n += 1
        sx += x
        su += u
        sxx += x * x
        sxu += x * u
    det = n * sxx - sx * sx
    if det == 0:
        raise ValueError("degenerate fit: need measurements at distinct planes")
    b = (n * sxu - sx * su) / det
    return (su - b * sx) / n, b


def _greedy_associate(digis: Mapping[int, Sequence[Digi]], window: float) -> list[list]:
    """Seed one track per first-plane digi (in (u_q, hit order) order),
    then, plane by plane, let each track claim the unclaimed digi with the
    smallest (|u_q - pred|, u_q) within the window; equal keys go to the
    digi that comes first in hit order. ``digis`` (by layer, as
    ``digitize`` gives them) is not modified. A track is a plain list
    ``[n, sx, su, sxx, sxu, a, b, adc, points]``: its line ``(a, b)`` is
    refitted from the sums, added left to right, only when it claims a
    digi, and ``pred`` is read from it (through the origin for one point).
    The refit updates the list in place with ``fit_line``'s expressions, so
    each line equals ``fit_line`` of the track's points bit for bit.

    Claimed digis leave the sorted list, so a track looks only at the two
    neighbours of ``pred`` and at their ties. That finds the same digi as a
    scan of all pairs: rounding keeps ``|u_q - pred|`` monotone on each side
    of ``pred``, so the right neighbour is the best digi at or above
    ``pred``, and the best below it is the lowest-index digi whose distance
    equals the left neighbour's. The two sides never tie on the full key
    because their u_q differ, and on equal distance the left (smaller u_q)
    wins.
    """
    seeds = digis.get(0)
    if not seeds:
        return []
    u_of = itemgetter(0)
    # stable sorts: order (u_q, hit index), as the all-pairs scan ranks them
    tracks = []
    for u, adc in sorted(seeds, key=u_of):
        s = 0.0 + u  # a sum from zero, as later points are added
        tracks.append([1, 1.0, s, 1.0, s, 0.0, s, adc, [(1, u)]])
    for layer in range(1, max(digis) + 1):
        entries = digis.get(layer)
        if not entries:
            continue
        entries = sorted(entries, key=u_of)
        us = [d[0] for d in entries]
        plane = layer + 1
        for trk in tracks:
            if not us:
                break
            pred = trk[5] + trk[6] * plane
            i = bisect_left(us, pred)  # us[:i] < pred <= us[i:]
            best = -1
            if i < len(us) and us[i] - pred <= window:
                best = i
            if i > 0:
                # pred - u equals abs(u - pred) bit for bit for u < pred
                diff = pred - us[i - 1]
                if diff <= window and (best < 0 or diff <= us[best] - pred):
                    best = i - 1
                    while best > 0 and pred - us[best - 1] == diff:
                        best -= 1
            if best >= 0:
                del us[best]
                u, adc = entries.pop(best)
                n = trk[0] = trk[0] + 1
                sx = trk[1] = trk[1] + plane
                su = trk[2] = trk[2] + u
                sxx = trk[3] = trk[3] + plane * plane
                sxu = trk[4] = trk[4] + plane * u
                det = n * sxx - sx * sx  # fit_line's refit, inline
                if det == 0:
                    raise ValueError("degenerate fit: need measurements at distinct planes")
                b = trk[6] = (n * sxu - sx * su) / det
                trk[5] = (su - b * sx) / n
                trk[7] += adc
                trk[8].append((plane, u))
    return tracks


def reconstruct_tracks(digis: Mapping[int, Sequence[Digi]], smear_sigma: float) -> list[TrackRecord]:
    """Greedy association within 3 * (smear_sigma + pitch) + least-squares
    fit, on ``digitize``'s by-layer digis. Returns the tracks, each with its
    claimed (plane, u_q) measurements, sorted by (slope, intercept,
    adc_sum, hit count, hits) as plain rows, then built; tracks with fewer
    than two measurements are dropped."""
    rows = [
        (b, a, adc, n, tuple(points))
        for n, _, _, _, _, a, b, adc, points in _greedy_associate(digis, 3.0 * (smear_sigma + DEFAULT_PITCH))
        if n >= 2
    ]
    rows.sort()
    return [TrackRecord(a, b, adc, hits) for b, a, adc, _, hits in rows]


def run_configs(params: SimulationParameters, indices: Sequence[int]) -> list[ConfigResult]:
    """Run all four stages for the configs ``indices``, as one batch; each
    entry equals the one the config gets in any other batch.

    Generation takes one lane pass for the whole batch. Transport takes
    consecutive configs together while the first pass of the group stays
    within ``_LANE_CAP`` lanes (``3 * n_layers`` per primary); a config
    that needs more goes alone. Each group is digitized and reconstructed,
    config by config, before the next group is transported."""
    primaries = generate_events(params, indices)
    block = 3 * params.n_layers
    results = []
    lo = 0
    while lo < len(indices):
        hi, lanes = lo + 1, len(primaries[lo]) * block
        while hi < len(indices) and lanes + len(primaries[hi]) * block <= _LANE_CAP:
            lanes += len(primaries[hi]) * block
            hi += 1
        batch, _ = transport_and_respond(primaries[lo:hi], params, indices[lo:hi])
        for index, hits in zip(indices[lo:hi], batch):
            tracks = tuple(reconstruct_tracks(digitize(hits), params.smear_sigma))
            results.append(ConfigResult(index, tracks, len(hits)))  # one hit per crossing
        lo = hi
    return results


def run_config(params: SimulationParameters, index: int) -> ConfigResult:
    """Run all four stages for config ``index``: a batch of one."""
    return run_configs(params, (index,))[0]


def run_pipeline(params: SimulationParameters) -> SimulationResult:
    """Run every configuration and assemble the canonical result."""
    params.validate()
    return build_result(run_configs(params, range(params.n_configs)))


class WorkCache:
    """One round's work: its parameters and the results computed for them.
    The authority opens one per round and sends it to every miner in place
    of the parameters, so the authority and all miners of a round share one
    run per config, and honest results are identical for every actor by
    determinism. The first request of any kind runs all configs as one
    batch and keeps only the full result, so a round whose only requests
    are a cartel's ``k`` configs and the decoy runs ``C`` configs, not
    ``k + 1`` (every bundled scenario with a cartel also has honest
    miners). A colluding group's submission is identical for every
    member, so ``group`` keeps one result per group key and every member
    submits that object. A miner that finishes after its round closed still
    holds its own round's cache, so no round's results mix with another's."""

    def __init__(self, params: SimulationParameters) -> None:
        self.params = params
        self._full: SimulationResult | None = None
        self._groups: dict[Hashable, SimulationResult] = {}

    @cached_property
    def cost(self) -> float:
        """The cost model's expected step count for the round's work."""
        return estimate_cost(self.params)

    def full(self) -> SimulationResult:
        if self._full is None:
            self._full = run_pipeline(self.params)
        return self._full

    def configs(self, indices: Iterable[int]) -> list[ConfigResult]:
        """The entries of configs ``indices``, in that order."""
        entries = self.full().per_config
        return [entries[i] for i in indices]

    def config(self, index: int) -> ConfigResult:
        return self.full().per_config[index]

    def group(self, key: Hashable, build: Callable[[], SimulationResult]) -> SimulationResult:
        """The result of the group named by ``key`` this round; ``build``
        runs only for the first member to ask."""
        result = self._groups.get(key)
        if result is None:
            result = self._groups[key] = build()
        return result


# ---------------------------------------------------------------------------
# Canonical serialization and digests
# ---------------------------------------------------------------------------

def _q(x: float) -> int:
    v = round(x / DIGEST_QUANTUM)
    if v > _I64_MAX:
        return _I64_MAX
    if v < _I64_MIN:
        return _I64_MIN
    return v


def _track_bytes(track: TrackRecord) -> bytes:
    """Big-endian a, b (quantized i64), adc_sum u64, hit count u32 twice,
    then per hit plane u32 + quantized u i64, in one pack. The format has
    two count fields, the claimed and the actual hit count. A track's only
    count is the length of its hits, so both fields carry ``len(hits)``;
    keeping both keeps the format, and so the pinned digests. Floats are
    clamped (``_q``) only when the pack fails, as it does for a quantized
    value past the i64 range; a NaN, an infinity or a count past its field
    raises either way."""
    quantum, hits = DIGEST_QUANTUM, track.hits
    n = len(hits)
    fields = [round(track.a / quantum), round(track.b / quantum), track.adc_sum, n, n]
    for plane, u in hits:
        fields += (plane, round(u / quantum))
    form = ">qqQII" + "Iq" * n
    try:
        return struct.pack(form, *fields)
    except struct.error:
        fields[:2] = _q(track.a), _q(track.b)
        fields[6::2] = [_q(u) for _, u in hits]
        return struct.pack(form, *fields)


def config_entry_bytes(entry: ConfigResult) -> bytes:
    """Canonical bytes of one per-config entry; tracks sorted by their own
    quantized encoding so byte order never depends on sub-quantum noise.
    ``ConfigResult.canonical_bytes`` keeps them, so each is made once."""
    blobs = sorted(map(_track_bytes, entry.tracks))
    return struct.pack(">IQI", entry.index, entry.step_count, len(blobs)) + b"".join(blobs)


def config_entry_digest(entry: ConfigResult) -> bytes:
    return hashlib.sha256(entry.canonical_bytes).digest()


def canonical_digest(entries: Iterable[ConfigResult]) -> bytes:
    """SHA-256 over the quantized canonical serialization of all entries,
    sorted by config index regardless of input order."""
    ordered = sorted(entries, key=lambda e: e.index)
    payload = struct.pack(">I", len(ordered)) + b"".join(e.canonical_bytes for e in ordered)
    return hashlib.sha256(payload).digest()


def build_result(entries: Iterable[ConfigResult]) -> SimulationResult:
    ordered = tuple(sorted(entries, key=lambda e: e.index))
    if tuple(e.index for e in ordered) != tuple(range(len(ordered))):
        raise ValueError("per-config entries must cover indices 0..C-1 exactly once")
    return SimulationResult(ordered)


def params_bytes(params: SimulationParameters) -> bytes:
    """Canonical big-endian serialization of work parameters (used in block
    hashing): work_seed u64, n_events u64, beam_energy f64, energy_cut f64,
    n_layers u32, config count u32, then per config index u32 + smear f64 +
    split f64. Every config carries the same smear and split."""
    head = struct.pack(
        ">QQddII",
        params.work_seed,
        params.n_events,
        params.beam_energy,
        params.energy_cut,
        params.n_layers,
        params.n_configs,
    )
    return head + _config_entries(params.n_configs, struct.pack(">dd", params.smear_sigma, params.split_scale))


@lru_cache(maxsize=1)
def _config_entries(n_configs: int, knobs: bytes) -> bytes:
    """The ``n_configs`` config entries of ``params_bytes``, each its index
    and then ``knobs``, the packed smear and split. The blocks of a run
    share them, so they are built once a run. The key holds the floats'
    bytes, not their values: ``-0.0 == 0.0``, but the two pack apart."""
    return b"".join(struct.pack(">I", i) + knobs for i in range(n_configs))


# ---------------------------------------------------------------------------
# Analytic cost model
# ---------------------------------------------------------------------------

def estimate_cost(params: SimulationParameters) -> float:
    """Expected total step count for these parameters.

    Exact recursion over the split/cut branching process for a particle of
    fixed energy, integrated over the exponential primary-energy law with a
    fixed-grid Simpson rule (pure Python, so the value is bit-stable).
    A round's ``WorkCache`` keeps its cost, so it runs once per round.
    """
    params.validate()
    term = _expected_steps_per_primary(params.beam_energy, params.energy_cut, params.n_layers, params.split_scale)
    per_primary = 0.0
    for _ in range(params.n_configs):  # C equal terms, left to right: n * term can round apart
        per_primary += term
    # events draw 1 + (u64 mod 3) primaries: mean 2 per event
    return params.n_events * 2.0 * per_primary


@lru_cache(maxsize=512)
def _expected_steps_per_primary(beam: float, cut: float, layers: int, scale: float) -> float:
    def crossings(e0: float) -> float:
        # f(k, r): expected crossings of a particle of energy e0 / 2**k with
        # r planes to go; f(k, r) = 1 + 2 p f(k+1, r-1) + (1-p) f(k, r-1) with
        # p = e / (e + scale), and 0 once r = 0 or e < cut. Built from the
        # deepest k up; ``below`` holds f(k+1, .) and ``row`` f(k, .).
        below = [0.0] * (layers + 1)
        for k in range(layers - 1, -1, -1):
            row = [0.0] * (layers + 1)
            e = e0 / (1 << k)
            if e >= cut:
                p = e / (e + scale)
                for r in range(1, layers - k + 1):
                    row[r] = 1.0 + 2.0 * p * below[r - 1] + (1.0 - p) * row[r - 1]
            below = row
        return below[layers]

    def integrand(e: float) -> float:
        return crossings(e) * math.exp(-e / beam) / beam

    lo, hi, n = cut, cut + 50.0 * beam, 1024
    h = (hi - lo) / n
    acc = integrand(lo) + integrand(hi)
    for i in range(1, n):
        acc += (4.0 if i % 2 else 2.0) * integrand(lo + i * h)
    return acc * h / 3.0
