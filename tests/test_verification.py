"""Verification strategies: replication quorums, decoy filtering, Kalman
track validation, reference checks, and the escalation chain."""

import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pouwsim.miner import fabricate_result, choose_subset, resample_reference_result
from pouwsim.rng import Splitmix64, stream_seed
from pouwsim.verification import (
    DECOY_MISMATCH,
    EMPTY_SUBMISSION,
    ESCALATION_CHAIN,
    NO_QUORUM,
    DecoySpec,
    Submission,
    build_reference,
    kalman_filter_track,
    slope_histogram,
    verify_decoy,
    verify_reference,
    verify_reference_all,
    verify_replication,
)
from pouwsim.verification import _pooled_innovation
from pouwsim.work import (
    DIGEST_QUANTUM,
    SimulationResult,
    TrackRecord,
    ConfigResult,
    build_result,
    run_config,
    run_configs,
    run_pipeline,
)

from conftest import make_parameters

_TAG_DECOY = 21  # mirrors the authority's decoy stream tag
_TAG_TRUTH = 22


def _addr(label):
    return label.encode().ljust(32, b"\x00")


def _result(work):
    # results with different labels have different entries, so different digests
    return SimulationResult((ConfigResult(0, (), work),))


def _sub(label, work, number=1):
    return Submission(miner=_addr(label), block_number=number, params_echo=None, result=_result(work))


def _tiny_params(seed, n_configs=1, n_events=6, layers=5):
    return make_parameters(
        seed,
        n_events=n_events,
        beam_energy=4.0,
        energy_cut=1.0,
        n_layers=layers,
        n_configs=n_configs,
        smear_sigma=0.02,
        split_scale=6.0,
    )


# -- replication -----------------------------------------------------------------

def test_replication_majority():
    verdict = verify_replication([_sub("A", 1), _sub("B", 1), _sub("C", 2)], 2)
    assert verdict.accepted == (_addr("A"), _addr("B"))
    assert dict(verdict.rejected) == {_addr("C"): "NotInWinningCluster"}


def test_replication_no_quorum():
    verdict = verify_replication([_sub("A", 1)], 2)
    assert verdict.accepted == ()
    assert dict(verdict.rejected)[_addr("A")] == NO_QUORUM
    with pytest.raises(ValueError, match="min_quorum"):
        verify_replication([], 0)


def test_replication_sybil_weakness():
    # six colluders on a fake result beat four honest miners at quorum five
    subs = [_sub(f"c{i}", 666) for i in range(6)] + [_sub(f"h{i}", 1) for i in range(4)]
    verdict = verify_replication(subs, 5)
    assert len(verdict.accepted) == 6
    assert all(m.startswith(b"c") for m in verdict.accepted)


def test_replication_tie_breaks_on_smallest_digest():
    a, b = _sub("A", 1), _sub("B", 2)
    assert a.result.digest != b.result.digest
    winner = min((a, b), key=lambda s: s.result.digest)
    for order in ((a, b), (b, a)):
        verdict = verify_replication(order, 1)
        assert verdict.accepted == (winner.miner,)


# -- decoy ------------------------------------------------------------------------

def test_decoy_all_honest_single_cluster():
    params = _tiny_params(777, n_configs=3)
    honest = run_pipeline(params)
    decoy = DecoySpec(1, run_config(params, 1))
    subs = [
        Submission(_addr(f"h{i}"), 1, params, honest)
        for i in range(3)
    ]
    verdict = verify_decoy(subs, decoy)
    assert verdict.accepted == tuple(_addr(f"h{i}") for i in range(3))
    assert verdict.rejected == ()


def test_decoy_compares_entry_values_not_objects():
    """The decoy check hashes each entry object once, yet an equal but
    distinct entry still passes, and a distinct entry more than a quantum
    off still fails while the other submissions share one object."""
    params = _tiny_params(777, n_configs=3)
    honest = run_pipeline(params)
    decoy = DecoySpec(1, honest.per_config[1])
    copy = run_config(params, 1)
    assert copy == decoy.decoy_result and copy is not decoy.decoy_result
    track = copy.tracks[0]
    moved = replace(copy, tracks=(replace(track, a=track.a + 2 * DIGEST_QUANTUM),) + copy.tracks[1:])
    first, _, last = honest.per_config
    subs = [Submission(_addr(f"h{i}"), 1, params, honest) for i in range(3)]
    subs.append(Submission(_addr("eq"), 1, params, build_result([first, copy, last])))
    subs.append(Submission(_addr("off"), 1, params, build_result([first, moved, last])))
    verdict = verify_decoy(subs, decoy)
    assert set(verdict.accepted) == {_addr("h0"), _addr("h1"), _addr("h2"), _addr("eq")}
    assert verdict.rejected == ((_addr("off"), DECOY_MISMATCH),)


@given(st.dictionaries(st.integers(0, 50), st.integers(0, 3), max_size=8))
def test_decoy_survivors_cluster_as_replication_with_quorum_1(picks):
    """When every submission passes the decoy, decoy and replication with
    quorum 1 give one verdict: same accepted miners, same rejections."""
    shared = ConfigResult(0, (), 5)
    pool = [SimulationResult((shared, ConfigResult(1, (), work))) for work in range(4)]
    subs = [Submission(_addr(f"m{label}"), 1, None, pool[pick]) for label, pick in picks.items()]
    decoy = verify_decoy(subs, DecoySpec(0, ConfigResult(0, (), 5)))
    replication = verify_replication(subs, 1)
    assert decoy.strategy_used == "decoy"
    assert (decoy.accepted, decoy.rejected) == (replication.accepted, replication.rejected)


def test_decoy_filters_full_fabricator_always():
    params = _tiny_params(888, n_configs=3)
    decoy = DecoySpec(0, run_config(params, 0))
    for r in range(50):
        fab = fabricate_result(stream_seed(5, r), params)
        verdict = verify_decoy([Submission(_addr("f"), 1, params, fab)], decoy)
        assert verdict.accepted == ()
        assert dict(verdict.rejected)[_addr("f")] == DECOY_MISMATCH


def test_decoy_partial_fabricator_pass_rate_is_k_over_c():
    """A colluding group correct on k=3 of C=10 configs passes the secret
    spot-check in k/C of rounds; measured over 2000 independent rounds
    against the analytic rate (tolerance 0.05)."""
    k, c = 3, 10
    group_seed = 4242
    hits = 0
    rounds = 2000
    for r in range(rounds):
        work_seed = stream_seed(9000, r)
        decoy_index = Splitmix64(stream_seed(work_seed, _TAG_DECOY)).next_below(c)
        subset = choose_subset(group_seed, work_seed, k, c)
        hits += decoy_index in subset
    assert abs(hits / rounds - k / c) < 0.05


# -- kalman --------------------------------------------------------------------------

def test_kalman_noiseless_line():
    hits = [(float(x), 2.0 + 0.5 * x) for x in range(1, 7)]
    (a, b), chi2 = kalman_filter_track(hits, 0.01)
    assert abs(a - 2.0) <= 1e-9
    assert abs(b - 0.5) <= 1e-9
    assert chi2 <= 1e-9


def test_kalman_rejects_short_tracks():
    with pytest.raises(ValueError):
        kalman_filter_track([(1.0, 1.0)], 0.01)


def test_kalman_matched_noise_chi2_near_one():
    rng = random.Random(20240501)
    sigma = 0.1
    r = sigma * sigma
    total_chi2 = 0.0
    total_dof = 0
    for _ in range(1000):
        a = rng.uniform(-1, 1)
        b = rng.uniform(-1, 1)
        hits = [(float(x), a + b * x + rng.gauss(0.0, sigma)) for x in range(1, 9)]
        _, chi2 = kalman_filter_track(hits, r)
        total_chi2 += chi2
        total_dof += len(hits) - 2
    assert 0.8 <= total_chi2 / total_dof <= 1.2


def test_kalman_three_point_hand_case_matches_closed_form():
    hits = [(1.0, 1.0), (2.0, 2.1), (3.0, 2.9)]
    # independent closed-form least squares
    n = 3
    mx = sum(x for x, _ in hits) / n
    mu = sum(u for _, u in hits) / n
    sxx = sum((x - mx) ** 2 for x, _ in hits)
    sxu = sum((x - mx) * (u - mu) for x, u in hits)
    b_ref = sxu / sxx
    a_ref = mu - b_ref * mx
    (a, b), _ = kalman_filter_track(hits, 0.01)
    assert abs(a - a_ref) <= 1e-6
    assert abs(b - b_ref) <= 1e-6


def test_kalman_q_zero_equals_least_squares_everywhere():
    rng = random.Random(77)
    r = 0.04
    for _ in range(50):
        n = rng.randint(3, 9)
        pts = [(float(x), rng.uniform(-2, 2)) for x in range(1, n + 1)]
        mx = sum(x for x, _ in pts) / n
        mu = sum(u for _, u in pts) / n
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        sxu = sum((x - mx) * (u - mu) for x, u in pts)
        b_ref = sxu / sxx
        a_ref = mu - b_ref * mx
        (a, b), _ = kalman_filter_track(pts, r)
        assert abs(a - a_ref) <= 1e-6
        assert abs(b - b_ref) <= 1e-6


# -- reference -----------------------------------------------------------------------

def test_reference_accepts_honest_different_seed():
    params = _tiny_params(31337, n_configs=2, n_events=16, layers=6)
    ref = build_reference(params, stream_seed(params.work_seed, _TAG_TRUTH), 16)
    honest = run_pipeline(params)
    ok, reason = verify_reference(Submission(_addr("h"), 1, params, honest), ref, 3.0)
    assert ok, reason


def test_lazy_innovation_equals_the_eager_pooled_innovation():
    """The truth run's innovation is not derived when the reference is
    built; an honest submission reaches the innovation check and reads it,
    and it equals the pooled innovation of an eager truth run bit for bit."""
    params = _tiny_params(31337, n_configs=2, n_events=16, layers=6)
    truth_seed = stream_seed(params.work_seed, _TAG_TRUTH)
    ref = build_reference(params, truth_seed, 16)
    assert "mean_innovation" not in vars(ref)
    ok, reason = verify_reference(Submission(_addr("h"), 1, params, run_pipeline(params)), ref, 3.0)
    assert ok, reason
    assert "mean_innovation" in vars(ref)  # read by the innovation check
    truth = replace(params, work_seed=truth_seed)
    eager = _pooled_innovation(run_configs(truth, range(truth.n_configs)), truth)
    assert eager > 0.0 and ref.mean_innovation.hex() == eager.hex()
    # two planes give no track a degree of freedom: the innovation reads 0.0
    flat = _tiny_params(31337, n_configs=2, n_events=16, layers=2)
    assert build_reference(flat, truth_seed, 16).mean_innovation == 0.0


def test_reference_rejects_degenerate_all_zero_tracks():
    params = make_parameters(
        123,
        n_events=96,
        beam_energy=6.0,
        energy_cut=1.0,
        n_layers=6,
        n_configs=1,
        smear_sigma=0.02,
        split_scale=8.0,
    )
    ref = build_reference(params, stream_seed(params.work_seed, _TAG_TRUTH), 16)
    assert (track_count := sum(ref.histogram)) > 100  # enough population for the histogram to bite
    zero_tracks = tuple(TrackRecord(0.0, 0.0, 0, ((1, 0.0), (2, 0.0))) for _ in range(track_count))
    fake = SimulationResult(per_config=(ConfigResult(0, zero_tracks, 10),))
    ok, reason = verify_reference(Submission(_addr("z"), 1, params, fake), ref, 3.0)
    assert not ok
    assert reason == "HistogramMismatch"


def test_reference_rejects_empty_submission():
    params = _tiny_params(5, n_configs=1)
    ref = build_reference(params, 1, 16)
    empty = SimulationResult(per_config=(ConfigResult(0, (), 0),))
    ok, reason = verify_reference(Submission(_addr("e"), 1, params, empty), ref, 3.0)
    assert not ok and reason == EMPTY_SUBMISSION


def test_reference_rates_over_500_rounds():
    """Honest acceptance >= 0.99 at threshold 3.0; fabricators never pass.

    Run at the same reference density the scenarios use (about a hundred
    tracks per round): with a sparse reference a minimal fabrication can
    gather too little evidence for either check to reject."""
    honest_ok = 0
    fab_ok = 0
    rounds = 500
    for r in range(rounds):
        params = make_parameters(
            100_000 + r,
            n_events=16,
            beam_energy=6.0,
            energy_cut=1.0,
            n_layers=6,
            n_configs=4,
            smear_sigma=0.02,
            split_scale=8.0,
        )
        ref = build_reference(params, stream_seed(params.work_seed, _TAG_TRUTH), 16)
        honest = run_pipeline(params)
        ok, _ = verify_reference(Submission(_addr("h"), r, params, honest), ref, 3.0)
        honest_ok += ok
        fab = fabricate_result(stream_seed(31, r), params)
        ok, _ = verify_reference(Submission(_addr("f"), r, params, fab), ref, 3.0)
        fab_ok += ok
    assert honest_ok / rounds >= 0.99
    assert fab_ok == 0


def test_reference_cheat_with_oracle_access_passes():
    # the documented limitation: reference-data holders can fabricate matches
    params = _tiny_params(2025, n_configs=2, n_events=16, layers=6)
    ref = build_reference(params, stream_seed(params.work_seed, _TAG_TRUTH), 16)
    cheat = resample_reference_result(99, params, ref)
    ok, reason = verify_reference(Submission(_addr("s"), 1, params, cheat), ref, 3.0)
    assert ok, reason


def test_resampling_a_reference_with_no_tracks_gives_empty_entries():
    params = _tiny_params(2025, n_configs=3, n_events=0, layers=6)
    ref = build_reference(params, stream_seed(params.work_seed, _TAG_TRUTH), 16)
    assert ref.histogram == (0,) * 16
    cheat = resample_reference_result(99, params, ref)
    assert [(e.index, e.tracks, e.step_count) for e in cheat.per_config] == [(0, (), 0), (1, (), 0), (2, (), 0)]


def test_reference_all_caches_by_digest_and_sorts():
    params = _tiny_params(808, n_configs=1, n_events=12, layers=5)
    ref = build_reference(params, stream_seed(params.work_seed, _TAG_TRUTH), 16)
    honest = run_pipeline(params)
    subs = [Submission(_addr(f"h{i}"), 1, params, honest) for i in range(4)]
    verdict = verify_reference_all(subs, ref, 3.0)
    assert list(verdict.accepted) == sorted(verdict.accepted)
    assert len(verdict.accepted) == 4


# -- histogram helpers ------------------------------------------------------------------

def test_slope_histogram_bins_and_clamping():
    hist = slope_histogram([-1.0, -0.99, 0.0, 0.99, 5.0, -5.0], bins=8)
    assert sum(hist) == 6
    assert hist[0] >= 2  # far-left values clamp into the first bin
    assert hist[-1] >= 2


# -- escalation ----------------------------------------------------------------------

def test_escalation_chain_order():
    assert ESCALATION_CHAIN == ("reference", "decoy", "replication", "self_compute")


def test_verdict_determinism():
    params = _tiny_params(61, n_configs=2)
    honest = run_pipeline(params)
    subs = [Submission(_addr(f"m{i}"), 1, params, honest) for i in range(3)]
    v1 = verify_replication(subs, 2)
    v2 = verify_replication(list(reversed(subs)), 2)
    assert v1 == v2
