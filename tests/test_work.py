"""Toy pipeline: generation vectors, transport statistics against a
brute-force oracle, transport, digitization and association against the
straightforward scalar implementations they replace, reconstruction against
closed-form least squares, digests, and the analytic cost model."""

import collections
import itertools
import json
import math
import random
import re
import statistics
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pouwsim.work
from pouwsim.rng import Splitmix64, draw_lanes, stream_seed
from pouwsim.work import (
    DEPOSIT_FRACTION,
    SPLIT_SLOPE_DELTA,
    ConfigResult,
    SimulationParameters,
    SimulationResult,
    TrackRecord,
    WorkCache,
    build_result,
    canonical_digest,
    config_entry_digest,
    digitize,
    estimate_cost,
    fit_line,
    generate_events,
    params_bytes,
    reconstruct_tracks,
    run_config,
    run_configs,
    run_pipeline,
    transport_and_respond,
)
from pouwsim.work import _expected_steps_per_primary, _greedy_associate, _track_bytes

from conftest import make_parameters

# Expected primaries for (work_seed 42, config 0, n_events 3, beam_energy 10),
# frozen from an independent splitmix64 + generation-rule oracle implemented
# separately (see test_rng for the PRNG oracle itself).
FROZEN_PRIMARIES = [
    (5.086018673623669, 0.11900874813776974),
    (26.925171156147584, -0.2414941365782275),
    (30.23217312389297, -0.2857824265426705),
    (16.824455347302266, -0.7968365547441587),
    (11.671099242406003, -0.5468354152902852),
]

# run_pipeline digest for the default-scenario knobs at work seed 123456789,
# frozen after its first verified computation and shipped under tests/fixtures.
_GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "golden_digests.json").read_text())
GOLDEN_DEFAULT_DIGEST = _GOLDEN["pipeline_digest_default_knobs_seed_123456789"]


def _params(seed=42, n_events=3, beam=10.0, cut=1.0, layers=6, smear=0.02, split=8.0, n_configs=1):
    return make_parameters(
        seed,
        n_events=n_events,
        beam_energy=beam,
        energy_cut=cut,
        n_layers=layers,
        n_configs=n_configs,
        smear_sigma=smear,
        split_scale=split,
    )


# -- generation ---------------------------------------------------------------

def test_generate_zero_events():
    p = _params(n_events=0, n_configs=2)
    assert generate_events(p, range(2)) == [[], []]
    assert generate_events(p, ()) == []


def test_generate_deterministic():
    p = _params()
    assert generate_events(p, (0,)) == generate_events(p, (0,))


def test_generate_frozen_vectors():
    """A platform pin: the frozen energies are ``math.log`` of this
    platform, to the last bit, so a libm one ulp off could fail this test
    while every emitted byte holds."""
    p = _params()
    assert repr(generate_events(p, (0,))) == repr([FROZEN_PRIMARIES])


def _oracle_generate(params, index):
    """Generation drawn event by event through the scalar generator."""
    primaries = []
    for event in range(params.n_events):
        rng = Splitmix64(stream_seed(params.work_seed, index, event, 0))
        for _ in range(1 + rng.next_below(3)):
            energy = params.beam_energy * -math.log(rng.next_unit())
            primaries.append((energy, 2.0 * rng.next_unit() - 1.0))
    return primaries


def test_generate_matches_per_event_oracle():
    """Each config of a batch (one, some or all configs, in any order) gets
    the primaries the scalar generator draws for it alone. A platform pin:
    floats are compared bit for bit with an oracle that calls this module's
    ``math``, so the test holds on any one libm but fails when
    ``pouwsim.work`` computes with another (as under the libm shim of
    ``test_output_digests``), while every emitted byte holds."""
    rng = random.Random(7)
    for k in range(60):
        p = _params(
            seed=rng.getrandbits(64),
            n_events=rng.choice((0, 1, 2, 5, 17, 64)),
            beam=rng.choice((0.5, 6.0, 40.0)),
            n_configs=3,
        )
        batch = rng.sample(range(3), 1 + k % 3)
        got = generate_events(p, batch)
        assert len(got) == len(batch)
        for index, primaries in zip(batch, got):
            assert repr(primaries) == repr(_oracle_generate(p, index))


# -- transport ----------------------------------------------------------------

def test_transport_all_dropped():
    p = _params(cut=1e9, n_configs=2)
    batch, steps = transport_and_respond(generate_events(p, range(2)), p, range(2))
    assert batch == [[], []] and steps == 0


def test_transport_noiseless_straight_line():
    p = _params(smear=0.0, split=1e12)
    [hits], steps = transport_and_respond([[(5.0, 0.3)]], p, (0,))
    assert steps == p.n_layers
    assert [layer for layer, _, _ in hits] == list(range(p.n_layers))
    for layer, u, e_dep in hits:
        assert u == pytest.approx(0.3 * (layer + 1), abs=1e-12)
        assert e_dep == pytest.approx(0.5)


def test_transport_mean_steps_vs_bruteforce_oracle():
    """Fixed (E=8, cut=1, split_scale=8, 3 layers): mean crossings of our
    transport must agree with an independent brute-force simulation of the
    same branching law within 3 sigma."""

    def oracle_trial(rng):
        steps = 0
        stack = [(8.0, 1)]
        while stack:
            e, plane = stack.pop()
            if e < 1.0:
                continue
            while plane <= 3:
                steps += 1
                split = rng.random() < e / (e + 8.0)
                plane += 1
                if split:
                    stack.append((e / 2, plane))
                    stack.append((e / 2, plane))
                    break
        return steps

    rng = random.Random(12345)
    trials = [oracle_trial(rng) for _ in range(100_000)]
    oracle_mean = statistics.mean(trials)
    oracle_sem = statistics.stdev(trials) / math.sqrt(len(trials))

    ours = []
    for seed in range(3000):
        p = _params(seed=seed, layers=3, split=8.0)
        _, steps = transport_and_respond([[(8.0, 0.25)]], p, (0,))
        ours.append(steps)
    our_mean = statistics.mean(ours)
    our_sem = statistics.stdev(ours) / math.sqrt(len(ours))

    assert abs(our_mean - oracle_mean) < 3.0 * math.hypot(oracle_sem, our_sem)


# -- digitization ---------------------------------------------------------------

def _by_layer(digis):
    """Flat (layer, u_q, adc) digis in digitize's by-layer form."""
    by_layer = {}
    for layer, u_q, adc in digis:
        by_layer.setdefault(layer, []).append((u_q, adc))
    return by_layer


def test_digitize_definitions():
    assert pouwsim.work.DEFAULT_PITCH == 0.01
    # deposit below one gain unit floors to zero
    assert digitize([(0, 0.0, 0.04)]) == {0: [(0.0, 0)]}
    [(layer, [(u_q, adc)])] = digitize([(2, 1.2345, 0.27)]).items()
    assert layer == 2
    assert u_q == pytest.approx(1.23, abs=1e-12)
    assert adc == 5
    assert digitize([]) == {}


def test_digitize_groups_by_layer_in_hit_order():
    hits = [(1, 0.5, 0.1), (0, 0.2, 0.2), (1, -0.3, 0.25), (3, 0.0, 0.4), (0, 0.1, 0.5)]
    assert digitize(hits) == {0: [(0.2, 4), (0.1, 10)], 1: [(0.5, 2), (-0.3, 5)], 3: [(0.0, 8)]}


# -- reconstruction ---------------------------------------------------------------

def test_reconstruct_empty():
    assert reconstruct_tracks({}, 0.0) == []
    assert reconstruct_tracks({1: [(0.5, 3)]}, 0.0) == []  # nothing on the first plane


def test_reconstruct_single_noiseless_particle():
    t = 0.25  # pitch-aligned at every plane
    digis = {l: [(t * (l + 1), 1)] for l in range(6)}
    [track] = reconstruct_tracks(digis, 0.0)
    assert track.b == pytest.approx(t, abs=1e-9)
    assert track.a == pytest.approx(0.0, abs=1e-9)
    assert track.adc_sum == 6
    # the claimed measurements, as (plane, u_q), plane by plane
    assert track.hits == tuple((l + 1, t * (l + 1)) for l in range(6))


def test_reconstruct_two_separated_particles_matches_closed_form(monkeypatch):
    monkeypatch.setattr(pouwsim.work, "DEFAULT_PITCH", 1e-12)  # association window 3e-12
    slopes = (0.5, -0.4)
    digis = []
    for t in slopes:
        digis.extend((l, t * (l + 1), 2) for l in range(6))
    tracks = reconstruct_tracks(_by_layer(digis), 0.0)
    assert len(tracks) == 2

    # closed-form least-squares oracle, computed independently
    def ols(points):
        n = len(points)
        mx = sum(x for x, _ in points) / n
        mu = sum(u for _, u in points) / n
        sxx = sum((x - mx) ** 2 for x, _ in points)
        sxu = sum((x - mx) * (u - mu) for x, u in points)
        b = sxu / sxx
        return mu - b * mx, b

    for expected_t, track in zip(sorted(slopes), sorted(tracks, key=lambda t: t.b)):
        a_ref, b_ref = ols([(x, expected_t * x) for x in range(1, 7)])
        assert track.b == pytest.approx(b_ref, abs=1e-9)
        assert track.a == pytest.approx(a_ref, abs=1e-9)
        assert track.b == pytest.approx(expected_t, abs=1e-9)

    # Both fits add their sums left to right. In 1e16 + 1.0 - 1e16 the 1.0
    # is lost; a compensated sum (sum() from CPython 3.12 on) keeps it.
    # An infinite smear opens the association window to every digi.
    points = [(1, 1e16), (2, 1.0), (3, -1e16)]

    def plain_fit(add):
        n = len(points)
        sx, su = add(x for x, _ in points), add(u for _, u in points)
        sxx, sxu = add(x * x for x, _ in points), add(x * u for x, u in points)
        b = (n * sxu - sx * su) / (n * sxx - sx * sx)
        return (su - b * sx) / n, b

    def left_to_right(values):
        total = 0.0
        for value in values:
            total += value
        return total

    [running] = reconstruct_tracks({x - 1: [(u, 0)] for x, u in points}, math.inf)
    assert running.hits == tuple(points)
    assert fit_line(points) == (running.a, running.b) == plain_fit(left_to_right) == (2e16, -1e16)
    assert plain_fit(math.fsum) != plain_fit(left_to_right)


def test_noiseless_fidelity_with_tiny_pitch(monkeypatch):
    # arbitrary slope, no smear, no splits: slope error below 1e-9
    monkeypatch.setattr(pouwsim.work, "DEFAULT_PITCH", 1e-12)
    p = _params(n_events=1, smear=0.0, split=1e12, layers=6)
    [hits], _ = transport_and_respond([[(6.0, 0.371)]], p, (0,))
    [track] = reconstruct_tracks(digitize(hits), p.smear_sigma)
    assert abs(track.b - 0.371) < 1e-9


# -- scalar oracles -----------------------------------------------------------------
# The pipeline's transport, digitization and association are tuned inner loops.
# These are the straightforward implementations they replaced; the tuned ones
# must agree with them exactly, float bits and tie-breaks included, so results
# are compared by repr, which tells every float apart (-0.0 too).


@dataclass(frozen=True)
class _Hit:
    layer: int
    u: float
    e_dep: float


@dataclass(frozen=True)
class _Digi:
    layer: int
    u_q: float
    adc: int


def _oracle_transport(primaries, params, index):
    hits = []
    steps = 0
    for pi, (energy, slope) in enumerate(primaries):
        rng = Splitmix64(stream_seed(params.work_seed, index, pi, 1))
        stack = [(energy, slope, 1)]
        while stack:
            e, t, plane = stack.pop()
            if e < params.energy_cut:
                continue
            while plane <= params.n_layers:
                steps += 1
                noise = rng.next_gauss() * params.smear_sigma
                hits.append(_Hit(layer=plane - 1, u=t * plane + noise, e_dep=DEPOSIT_FRACTION * e))
                split = rng.next_unit() < e / (e + params.split_scale)
                plane += 1
                if split:
                    stack.append((0.5 * e, t + SPLIT_SLOPE_DELTA, plane))
                    stack.append((0.5 * e, t - SPLIT_SLOPE_DELTA, plane))
                    break
    return hits, steps


def _oracle_digitize(hits, pitch=0.01):
    return [_Digi(h.layer, round(h.u / pitch) * pitch, math.floor(h.e_dep / 0.05)) for h in hits]


class _OracleTrack:
    """A track of the all-pairs oracle: its claimed (plane, u_q) points and
    ADC sum. It predicts from ``fit_line`` over its points, refitted at
    every prediction; one point predicts along the line through the origin."""

    def __init__(self, plane, u_q, adc):
        self.points = [(plane, u_q)]
        self.adc = adc

    def claim(self, plane, u_q, adc):
        self.points.append((plane, u_q))
        self.adc += adc

    def predict(self, plane):
        if len(self.points) == 1:
            x, u = self.points[0]
            return u / x * plane
        a, b = fit_line(self.points)
        return a + b * plane


def _oracle_associate(digis, window):
    """All-pairs greedy association on flat (layer, u_q, adc) digis; returns
    (claimed points, adc) per track."""
    by_layer = {}
    for seq, d in enumerate(digis):
        by_layer.setdefault(d[0], []).append((d[1], seq, d))
    if 0 not in by_layer:
        return []
    tracks = [_OracleTrack(1, u_q, d[2]) for u_q, _, d in sorted(by_layer[0])]
    for layer in range(1, max(by_layer) + 1):
        entries = sorted(by_layer.get(layer, []))
        claimed = [False] * len(entries)
        plane = layer + 1
        for trk in tracks:
            pred = trk.predict(plane)
            best, best_key = -1, None
            for j, (u_q, _, _) in enumerate(entries):
                diff = abs(u_q - pred)
                if claimed[j] or diff > window:
                    continue
                if best_key is None or (diff, u_q) < best_key:
                    best_key, best = (diff, u_q), j
            if best >= 0:
                claimed[best] = True
                u_q, _, d = entries[best]
                trk.claim(plane, u_q, d[2])
    return [(trk.points, trk.adc) for trk in tracks]


def test_transport_and_digitize_match_scalar_oracle():
    """Small and large sets: the first pass of lane draws covers a tree
    that never splits, so trees that split draw further passes. Batches
    hold one config or both, in either order, under one knob pair per
    case; each config's hits are those the scalar transport makes for it
    alone. The lane passes are counted (each ``draw_lanes`` call of
    transport is one), so the cases are known to include a batch that
    takes three passes or more and a two-config batch whose configs' trees
    run out in different passes. A platform pin, as the generation oracle
    test is: the oracle calls this module's ``math``."""
    rng = random.Random(20240)
    smears = (0.0, 0.0, 1e-4, 0.02, 0.3, 2.0)
    splits = (1e-12, 1e-3, 0.5, 8.0, 1e3, 1e12)
    passes = []

    def counted(seeds, start, count):
        passes.append(list(seeds))
        return draw_lanes(seeds, start, count)

    most_passes = staggered = 0
    for k in range(240):
        p = make_parameters(
            rng.getrandbits(64),
            n_events=rng.randint(0, 6) if k % 4 else rng.randint(7, 64),
            beam_energy=rng.choice((1.0, 6.0, 40.0)),
            energy_cut=rng.choice((0.05, 1.0, 4.0)),
            n_layers=rng.randint(2, 9),
            n_configs=2,
            smear_sigma=smears[k % len(smears)],
            split_scale=splits[(k // len(smears)) % len(splits)],
        )
        batch = (k % 2,) if k % 3 == 0 else (k % 2, 1 - k % 2)
        primaries = generate_events(p, batch)
        passes.clear()
        with mock.patch.object(pouwsim.work, "draw_lanes", counted):
            hits, steps = transport_and_respond(primaries, p, batch)
        assert len(hits) == len(batch)
        total = 0
        for index, config_primaries, config_hits in zip(batch, primaries, hits):
            old_hits, old_steps = _oracle_transport(config_primaries, p, index)
            total += old_steps
            assert repr(config_hits) == repr([(h.layer, h.u, h.e_dep) for h in old_hits])
            assert repr(sorted(digitize(config_hits).items())) == repr(
                sorted(_by_layer((d.layer, d.u_q, d.adc) for d in _oracle_digitize(old_hits)).items())
            )
        assert steps == total
        # the passes each tree took, and the most any tree of each config took
        taken = collections.Counter(seed for seeds in passes for seed in seeds)
        deepest = [
            max((taken[stream_seed(p.work_seed, index, i, 1)] for i in range(len(c))), default=0)
            for index, c in zip(batch, primaries)
        ]
        most_passes = max(most_passes, len(passes))
        staggered += len(batch) == 2 and min(deepest) >= 2 and deepest[0] != deepest[1]
    assert most_passes >= 3
    assert staggered > 0


@st.composite
def _digi_sets(draw):
    """Digis on a coarse pitch grid: many equal u_q, windows several pitches
    wide (the window reconstruct_tracks sets: 3 * (smear + pitch)), and
    layers that may be empty. Each digi's adc is a distinct power of two, so
    a track's adc sum names exactly the digis it claimed."""
    pitch = draw(st.sampled_from((0.01, 0.1, 0.25, 1.0)))
    smear = draw(st.sampled_from((0.0, 0.5, 1.0, 3.0))) * pitch
    n_layers = draw(st.integers(2, 7))
    layers = draw(st.lists(st.integers(0, n_layers - 1), min_size=1, max_size=n_layers, unique=True))
    cells = draw(st.lists(st.tuples(st.sampled_from(layers), st.integers(-6, 6)), min_size=1, max_size=60))
    digis = [(layer, k * pitch, 1 << i) for i, (layer, k) in enumerate(cells)]
    return digis, 3.0 * (smear + pitch)


@settings(max_examples=400, deadline=None)
@given(_digi_sets())
def test_windowed_association_matches_all_pairs_oracle(case):
    digis, window = case
    by_layer = _by_layer(digis)
    before = repr(by_layer)
    got = [(trk[-1], trk[-2]) for trk in _greedy_associate(by_layer, window)]  # (points, adc)
    assert repr(got) == repr(_oracle_associate(digis, window))
    assert repr(by_layer) == before  # the input is read, not consumed


# -- pipeline and digests ---------------------------------------------------------

def test_pipeline_empty_events_digest_of_empty_form():
    p = _params(n_events=0)
    result = run_pipeline(p)
    assert len(result.per_config) == 1
    assert result.per_config[0].tracks == ()
    assert result.per_config[0].step_count == 0
    assert result.digest == canonical_digest([ConfigResult(0, (), 0)])


def test_pipeline_matches_per_config_runs():
    p = _params(n_events=8, n_configs=3)
    assembled = build_result([run_config(p, i) for i in reversed(range(3))])
    assert assembled.digest == run_pipeline(p).digest


@st.composite
def _partitioned_params(draw):
    """Random parameters, the config indices cut into batches (any order,
    any sizes) and a lane cap for the transport passes."""
    n_configs = draw(st.integers(1, 4))
    params = SimulationParameters(
        work_seed=draw(st.integers(0, 2**64 - 1)),
        n_events=draw(st.sampled_from((0, 1)) | st.integers(0, 32)),
        beam_energy=draw(st.sampled_from((1.0, 6.0, 40.0))),
        energy_cut=draw(st.sampled_from((0.05, 1.0, 4.0, 1e9))),  # 1e9 is above every energy drawn
        n_layers=draw(st.integers(2, 8)),
        n_configs=n_configs,
        smear_sigma=draw(st.sampled_from((0.0, 1e-4, 0.02, 0.3, 2.0))),
        split_scale=draw(st.sampled_from((1e-3, 0.5, 8.0, 1e3, 1e12))),
    )
    order = draw(st.permutations(range(n_configs)))
    cuts = sorted(draw(st.sets(st.integers(1, n_configs - 1)))) if n_configs > 1 else []
    batches = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n_configs])]
    lane_cap = draw(st.sampled_from((1, pouwsim.work._LANE_CAP)) | st.integers(1, 4096))
    return params, batches, lane_cap


@settings(max_examples=120, deadline=None)
@given(_partitioned_params())
def test_batched_runs_equal_per_config_runs(case):
    """Any partition of the configs into batches gives each config the
    entry it gets alone, and each batch's transport reports the sum of
    their step counts, however the lane cap groups a batch's configs."""
    params, batches, lane_cap = case
    alone = [run_config(params, i) for i in range(params.n_configs)]
    with mock.patch.object(pouwsim.work, "_LANE_CAP", lane_cap):
        for batch in batches:
            assert repr(run_configs(params, batch)) == repr([alone[i] for i in batch])
            _, steps = transport_and_respond(generate_events(params, batch), params, batch)
            assert steps == sum(alone[i].step_count for i in batch)


@settings(max_examples=60, deadline=None)
@given(_partitioned_params())
def test_every_track_line_is_the_fit_of_its_hits_bit_for_bit(case):
    """Association refits a claiming track in place; the line it leaves on
    each reconstructed track is ``fit_line`` of the track's hits, bit for
    bit (compared as hex, so -0.0 and 0.0 differ)."""
    params, _, _ = case
    for entry in run_configs(params, range(params.n_configs)):
        for track in entry.tracks:
            a, b = fit_line(track.hits)
            assert (track.a.hex(), track.b.hex()) == (a.hex(), b.hex()), track


def test_result_digest_is_derived_from_entries(monkeypatch):
    """A result's digest is the digest of its entries: it cannot be passed
    in, a copy with other entries gets theirs, and it is computed once, on
    first read, never at construction."""
    p = _params(n_events=6, n_configs=2)
    entries = tuple(run_config(p, i) for i in range(2))
    result = SimulationResult(entries)
    assert result.digest == canonical_digest(entries)
    with pytest.raises(TypeError):
        SimulationResult(entries, b"\x00" * 32)
    with pytest.raises(TypeError):
        SimulationResult(per_config=entries, digest=canonical_digest(entries))
    other = (replace(entries[0], step_count=entries[0].step_count + 1),) + entries[1:]
    copy = replace(result, per_config=other)
    assert copy.digest == canonical_digest(other) != result.digest

    calls = []
    monkeypatch.setattr(pouwsim.work, "canonical_digest", lambda e: calls.append(e) or b"d" * 32)
    unhashable = SimulationResult((replace(entries[0], index=-1, step_count=-1),))
    assert calls == []
    fresh = SimulationResult(entries)
    assert fresh.digest == fresh.digest == b"d" * 32
    assert len(calls) == 1
    assert unhashable.per_config[0].step_count == -1


def test_work_cache_memoises_per_round():
    """A round's cache runs each config and each group once and assembles
    the full result from its entries. The next round's cache, even for
    equal parameters, returns none of the previous round's objects."""
    p = _params(n_events=6, n_configs=3)
    cache = WorkCache(p)
    assert cache.params is p
    entry = cache.config(1)
    assert entry == run_config(p, 1)
    assert cache.config(1) is entry
    full = cache.full()
    assert full == run_pipeline(p)
    assert cache.full() is full
    assert full.per_config[1] is entry  # assembled from the cached entries
    assert cache.config(2) is full.per_config[2]
    built = []
    group = cache.group("g", lambda: built.append(1) or build_result(cache.configs((0, 1, 2))))
    assert cache.group("g", lambda: built.append(1) or full) is group and built == [1]
    after = WorkCache(p)
    assert after.full() is not full and after.full() == full
    assert after.config(1) is not entry and after.config(1) == entry
    assert after.group("g", lambda: built.append(1) or full) is full and built == [1, 1]


def test_work_cache_runs_what_a_request_misses_as_one_batch(monkeypatch):
    """The first request of any shape runs all C configs as one batch and
    keeps the full result; no later request runs anything."""
    p = _params(n_events=6, n_configs=4)
    alone = [run_config(p, i) for i in range(4)]
    batches = []
    batched = pouwsim.work.run_configs

    def counted(params, indices):
        batches.append(list(indices))
        return batched(params, indices)

    monkeypatch.setattr(pouwsim.work, "run_configs", counted)
    firsts = (
        lambda cache: cache.configs((2, 0, 2)),
        lambda cache: cache.configs(()),
        lambda cache: cache.config(1),
        lambda cache: cache.full(),
    )
    for first in firsts:
        batches.clear()
        cache = WorkCache(p)
        first(cache)
        assert batches == [[0, 1, 2, 3]]
        full = cache.full()
        assert full.per_config == tuple(alone)
        assert cache.configs((2, 0, 2)) == [alone[2], alone[0], alone[2]]
        assert cache.configs((0, 3)) == [full.per_config[0], full.per_config[3]]
        assert cache.config(1) is full.per_config[1]
        assert cache.full() is full
        assert batches == [[0, 1, 2, 3]]


def test_pipeline_golden_digest():
    p = make_parameters(
        123456789,
        n_events=16,
        beam_energy=6.0,
        energy_cut=1.0,
        n_layers=6,
        n_configs=4,
        smear_sigma=0.02,
        split_scale=8.0,
    )
    assert run_pipeline(p).digest.hex() == GOLDEN_DEFAULT_DIGEST


def test_digest_quantization():
    base = run_config(_params(n_events=6), 0)
    tracks = list(base.tracks)
    assert tracks, "need at least one track for this test"

    def shifted(delta):
        t0 = tracks[0]
        new = type(t0)(a=t0.a + delta, b=t0.b, adc_sum=t0.adc_sum, hits=t0.hits)
        return ConfigResult(base.index, tuple([new] + tracks[1:]), base.step_count)

    assert canonical_digest([shifted(1e-9)]) == canonical_digest([base])
    assert canonical_digest([shifted(1e-3)]) != canonical_digest([base])


def test_digest_config_order_canonicalized():
    p = _params(n_events=6, n_configs=3)
    entries = [run_config(p, i) for i in range(3)]
    assert canonical_digest(entries) == canonical_digest(list(reversed(entries)))
    assert config_entry_digest(entries[0]) != config_entry_digest(entries[1])


def _clamped_track_bytes(track):
    """The track format with every float quantized and clamped to the i64
    range before the pack: the oracle for the inline quantization."""

    def q(x):
        return min(max(round(x / 1e-6), -(2**63)), 2**63 - 1)

    n = len(track.hits)
    fields = [q(track.a), q(track.b), track.adc_sum, n, n]
    for plane, u in track.hits:
        fields += (plane, q(u))
    return struct.pack(">qqQII" + "Iq" * n, *fields)


def _edge_floats():
    """+-1e300 and the floats next to +-2**63 quanta, on both sides of the
    i64 range once quantized."""
    edge = 2**63 * 1e-6
    near = [edge]
    for _ in range(4):
        near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], math.inf)]
    fits = [round(x / 1e-6) <= 2**63 - 1 for x in near]
    assert any(fits) and not all(fits)
    return [1e300, *near, 0.5] + [-x for x in (1e300, *near)]


def test_track_bytes_match_the_clamping_oracle():
    for x in _edge_floats():
        for track in (
            TrackRecord(a=x, b=0.25, adc_sum=5, hits=((1, 0.5), (2, -0.5))),
            TrackRecord(a=0.25, b=x, adc_sum=5, hits=((1, 0.5), (2, -0.5))),
            TrackRecord(a=0.25, b=-0.25, adc_sum=5, hits=((1, x), (2, -x), (3, 0.5))),
        ):
            assert _track_bytes(track) == _clamped_track_bytes(track)


def test_track_bytes_raise_on_values_the_format_cannot_hold():
    hits = ((1, 0.5), (2, -0.5))
    with pytest.raises(struct.error):
        _track_bytes(TrackRecord(a=0.25, b=0.25, adc_sum=2**64, hits=hits))
    with pytest.raises(struct.error):
        _track_bytes(TrackRecord(a=1e300, b=0.25, adc_sum=2**64, hits=hits))
    for bad, error in ((math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)):
        for track in (
            TrackRecord(a=bad, b=0.25, adc_sum=5, hits=hits),
            TrackRecord(a=0.25, b=bad, adc_sum=5, hits=hits),
            TrackRecord(a=0.25, b=0.25, adc_sum=5, hits=((1, 0.5), (2, bad))),
        ):
            with pytest.raises(error):
                _track_bytes(track)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SimulationParameters(1, -1, 1.0, 1.0, 2, 1, 0.0, 1.0).validate()
    with pytest.raises(ValueError):
        SimulationParameters(1, 1, 1.0, 0.0, 2, 1, 0.0, 1.0).validate()
    with pytest.raises(ValueError):
        SimulationParameters(1, 1, 1.0, 1.0, 1, 1, 0.0, 1.0).validate()
    with pytest.raises(ValueError):
        run_pipeline(SimulationParameters(1, 1, 1.0, 1.0, 2, 0, 0.0, 1.0))


def _params_bytes_oracle(params):
    """The documented layout, packed field by field."""
    p = params
    out = struct.pack(">QQ", p.work_seed, p.n_events) + struct.pack(">dd", p.beam_energy, p.energy_cut)
    out += struct.pack(">II", p.n_layers, p.n_configs)
    for index in range(p.n_configs):
        out += struct.pack(">I", index) + struct.pack(">d", p.smear_sigma) + struct.pack(">d", p.split_scale)
    return out


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_params_bytes_keeps_configs_bytes_by_identity_not_value(first):
    """params_bytes keeps the config entries it packed last, keyed by the
    bits of the smear and split, never by their value: two parameters that
    differ only in a zero smear's sign compare equal but pack to their own
    bytes, whichever is packed first and however often the two alternate."""
    a = SimulationParameters(7, 3, 2.0, 1.0, 4, 2, first, 8.0)
    b = replace(a, smear_sigma=-first)
    assert a == b
    assert params_bytes(a) != params_bytes(b)
    for params in (a, b, b, a, replace(a, work_seed=8), replace(a, n_configs=3), b, replace(b, split_scale=2.0)):
        assert params_bytes(params) == _params_bytes_oracle(params)


@pytest.mark.parametrize(
    "field,value,detail",
    [
        ("n_configs", 0, "at least one config required"),
        ("smear_sigma", math.nan, "smear_sigma must be finite and >= 0"),
        ("smear_sigma", -1.0, "smear_sigma must be finite and >= 0"),
        ("smear_sigma", math.inf, "smear_sigma must be finite and >= 0"),
        ("split_scale", 0.0, "split_scale must be finite and > 0"),
        ("split_scale", math.nan, "split_scale must be finite and > 0"),
    ],
    ids=["no-configs", "smear-nan", "smear-negative", "smear-inf", "split-zero", "split-nan"],
)
def test_validate_names_a_bad_config_field(field, value, detail):
    """The configs' fields are checked after the others, every time, with
    one detail each; a smear of -0.0 is valid."""
    good = _params(n_configs=3)
    for _ in range(2):
        good.validate()
        replace(good, smear_sigma=-0.0).validate()
        with pytest.raises(ValueError, match=re.escape(detail)):
            replace(good, **{field: value}).validate()


# -- cost model -------------------------------------------------------------------

def test_estimate_dominated_by_cut():
    p = _params(beam=1.0, cut=50.0, n_events=10)
    assert estimate_cost(p) < 1e-12


def test_work_cache_costs_its_round_once(monkeypatch):
    """A round's cache runs the cost model once, however often it is asked;
    the next round's cache, even for equal parameters, runs it again, and a
    cache whose parameters fail validate fails every time."""
    calls = []
    per_primary = pouwsim.work._expected_steps_per_primary
    monkeypatch.setattr(pouwsim.work, "_expected_steps_per_primary", lambda *a: calls.append(a) or per_primary(*a))
    a = _params(n_events=10)
    cache = WorkCache(a)
    cost = cache.cost
    assert cache.cost == cost and len(calls) == 1
    assert WorkCache(replace(a)).cost == cost and len(calls) == 2
    assert estimate_cost(a) == cost and len(calls) == 3
    bad = WorkCache(replace(a, energy_cut=0.0))
    for _ in range(2):
        with pytest.raises(ValueError, match="energy_cut"):
            bad.cost
    assert cache.cost == cost and len(calls) == 3


def test_estimate_monotone_in_cut():
    estimates = [estimate_cost(_params(cut=c, n_events=10)) for c in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(estimates, estimates[1:]))


def _oracle_steps_per_primary(beam, cut, layers, scale):
    """The cost model's first form: a memoised recursion per energy."""

    def crossings(e0):
        memo = {}

        def f(k, remaining):
            e = e0 / (1 << k)
            if remaining <= 0 or e < cut:
                return 0.0
            key = (k, remaining)
            got = memo.get(key)
            if got is not None:
                return got
            p = e / (e + scale)
            val = 1.0 + 2.0 * p * f(k + 1, remaining - 1) + (1.0 - p) * f(k, remaining - 1)
            memo[key] = val
            return val

        return f(0, layers)

    def integrand(e):
        return crossings(e) * math.exp(-e / beam) / beam

    lo, hi, n = cut, cut + 50.0 * beam, 1024
    h = (hi - lo) / n
    acc = integrand(lo) + integrand(hi)
    for i in range(1, n):
        acc += (4.0 if i % 2 else 2.0) * integrand(lo + i * h)
    return acc * h / 3.0


def test_estimate_table_equals_recursive_oracle():
    """A platform pin, as the generation oracle test is: the table must
    equal, bit for bit, an oracle that calls this module's ``math.exp``."""
    for beam, cut, layers, scale in itertools.product((0.5, 40.0), (0.05, 4.0), (2, 9), (1e-12, 8.0, 1e12)):
        got = _expected_steps_per_primary.__wrapped__(beam, cut, layers, scale)
        assert got == _oracle_steps_per_primary(beam, cut, layers, scale)


def test_estimate_within_10pct_of_empirical():
    kw = dict(n_events=10, beam=2.0, cut=1.0, layers=6, smear=0.02, split=4.0)
    totals = []
    for seed in range(200):
        p = _params(seed=seed, **kw)
        _, steps = transport_and_respond(generate_events(p, (0,)), p, (0,))
        totals.append(steps)
    empirical = statistics.mean(totals)
    estimate = estimate_cost(_params(seed=0, **kw))
    assert abs(estimate - empirical) / empirical < 0.10
