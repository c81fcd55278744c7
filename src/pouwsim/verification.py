"""Result-verification strategies and the escalation chain.

Three strategies are implemented:

* replication — cluster submissions by result digest and accept the largest
  cluster when it reaches the quorum. Cheap, but a colluding group that
  outnumbers honest miners and reaches the quorum wins.
* decoy — the authority recomputes one configuration itself and filters
  out every submission whose entry for that configuration does not match,
  then clusters the survivors as replication with quorum 1 does. A full
  fabricator never survives; a group that fabricated all but k of C
  configurations and picked them at random survives a round with
  probability k / C. The decoy index derives from the round's public work
  seed, so a group that derives it too always survives (ROADMAP item 1,
  open).
* reference — each submission is compared against a reference dataset built
  from an independent truth run: a slope-histogram chi-square plus a Kalman
  innovation consistency band. The truth run's pooled innovation is derived
  when first read, so a round whose submissions all fail the histogram
  check never filters the truth tracks. Fabricated results fail regardless
  of how many identities collude (unless the fabricator has oracle access
  to the reference data itself, which the miner module models
  deliberately).

When a strategy accepts nobody the round moves to the next step of
``ESCALATION_CHAIN``: reference -> decoy -> replication -> self-compute. In
the terminal step the authority's own pipeline run is the only submission,
and it is accepted, so every round terminates with a block."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from .work import (
    DEFAULT_PITCH,
    ConfigResult,
    SimulationParameters,
    SimulationResult,
    run_configs,
)

# rejection / failure reasons recorded in verdicts
NO_QUORUM = "NoQuorum"
NOT_IN_WINNING_CLUSTER = "NotInWinningCluster"
DECOY_MISMATCH = "DecoyMismatch"
HISTOGRAM_MISMATCH = "HistogramMismatch"
INNOVATION_MISMATCH = "InnovationMismatch"
EMPTY_SUBMISSION = "EmptySubmission"

STRATEGY_REPLICATION = "replication"
STRATEGY_DECOY = "decoy"
STRATEGY_REFERENCE = "reference"
STRATEGY_SELF_COMPUTE = "self_compute"

ESCALATION_CHAIN = (
    STRATEGY_REFERENCE,
    STRATEGY_DECOY,
    STRATEGY_REPLICATION,
    STRATEGY_SELF_COMPUTE,
)

_INNOVATION_FLOOR = 1e-12


@dataclass(frozen=True)
class Submission:
    """A miner's proposed solution for one block."""

    miner: bytes
    block_number: int
    params_echo: SimulationParameters
    result: SimulationResult


@dataclass(frozen=True)
class Verdict:
    """Outcome of validating one round's submissions."""

    strategy_used: str
    accepted: tuple[bytes, ...]
    rejected: tuple[tuple[bytes, str], ...]


@dataclass(frozen=True)
class DecoySpec:
    """The spot-check: one config index and the authority's own entry for
    it, computed fresh this round. The index is not secret: it derives from
    the round's public ``work_seed``, so any miner can compute it as soon
    as the round opens and compute just that config honestly (ROADMAP
    item 1, open)."""

    decoy_index: int
    decoy_result: ConfigResult


@dataclass(frozen=True)
class ReferenceDataset:
    """Statistics from a trusted truth run of the round's parameters: the
    slope histogram, whose length is the bin count and whose sum is the
    truth run's track count, and the truth entries and their parameters.
    The pooled innovation is derived from the entries when first read, then
    kept, as ``ConfigResult.digest`` is: only a submission that passes the
    histogram check reads it."""

    histogram: tuple[int, ...]
    entries: tuple[ConfigResult, ...]
    params: SimulationParameters

    @cached_property
    def mean_innovation(self) -> float:
        """Pooled innovation chi2 per degree of freedom of the truth
        tracks; 0.0 when no track contributes a degree of freedom."""
        mean = _pooled_innovation(self.entries, self.params)
        return mean if mean is not None else 0.0


# Kalman prior covariance: large enough to be uninformative, small enough to
# keep the covariance update far from catastrophic cancellation
_P0 = 1e8


def measurement_variance(smear_sigma: float) -> float:
    """Detector resolution plus pitch-quantization variance."""
    return smear_sigma * smear_sigma + DEFAULT_PITCH * DEFAULT_PITCH / 12.0


def kalman_filter_track(
    hits: Sequence[tuple[float, float]], r: float
) -> tuple[tuple[float, float], float]:
    """Filter (plane, position) measurements with measurement variance ``r``,
    the static state (a, b) and measurement model u = a + b * plane.

    Returns the final state and the innovation chi-square, summed over the
    terms after the two burn-in measurements (the state is underdetermined
    until two planes have been seen, and with a large prior those terms carry
    no information). Without process noise the final state equals the
    least-squares fit.
    """
    if len(hits) < 2:
        raise ValueError("need at least 2 measurements")
    a = 0.0
    b = 0.0
    p00 = _P0
    p01 = 0.0
    p11 = _P0
    chi2 = 0.0
    for i, (x, u) in enumerate(hits):
        c0 = p00 + x * p01
        c1 = p01 + x * p11
        s = c0 + x * c1 + r
        innovation = u - (a + b * x)
        if i >= 2:
            chi2 += innovation * innovation / s
        k0 = c0 / s
        k1 = c1 / s
        a += k0 * innovation
        b += k1 * innovation
        # P' = P - c c^T / s keeps the covariance symmetric by construction
        p00 -= k0 * c0
        p01 -= k0 * c1
        p11 -= k1 * c1
    return (a, b), chi2


def slope_histogram(slopes: Sequence[float], bins: int) -> tuple[int, ...]:
    """Counts of track slopes in ``bins`` equal bins over [-1, 1]; out-of-range
    values land in the edge bins so totals are preserved."""
    counts = [0] * bins
    for b in slopes:
        idx = int((b + 1.0) / 2.0 * bins)
        if idx < 0:
            idx = 0
        elif idx >= bins:
            idx = bins - 1
        counts[idx] += 1
    return tuple(counts)


def histogram_chi2(sim: Sequence[int], ref: Sequence[int]) -> float:
    """Per-bin (n_sim - n_ref)^2 / (n_sim + n_ref + 1), averaged over bins."""
    if len(sim) != len(ref):
        raise ValueError("histogram bin counts differ")
    total = 0.0
    for s, r in zip(sim, ref):
        d = s - r
        total += d * d / (s + r + 1)
    return total / len(sim)


def _pooled_innovation(
    entries: Sequence[ConfigResult], params: SimulationParameters
) -> float | None:
    """Innovation chi2 per dof pooled over all tracks with >= 3 measurements;
    None when no track contributes a degree of freedom."""
    chi_total = 0.0
    dof_total = 0
    for entry in entries:
        r = measurement_variance(params.configs[entry.index].smear_sigma)
        for track in entry.tracks:
            hits = track.hits
            if len(hits) < 3:
                continue
            _, chi2 = kalman_filter_track(hits, r)
            chi_total += chi2
            dof_total += len(hits) - 2
    if dof_total == 0:
        return None
    return chi_total / dof_total


def build_reference(params: SimulationParameters, truth_seed: int, bins: int) -> ReferenceDataset:
    """Run the trusted oracle with an independent truth seed and extract the
    statistics used for reference verification; the pooled innovation is
    left to the dataset's first read."""
    if bins < 8:
        raise ValueError("need at least 8 histogram bins")
    truth = replace(params, work_seed=truth_seed)
    truth.validate()
    # the truth run is never submitted, so its digest is not computed
    entries = tuple(run_configs(truth, truth.configs))
    slopes = [t.b for entry in entries for t in entry.tracks]
    return ReferenceDataset(histogram=slope_histogram(slopes, bins), entries=entries, params=truth)


def _cluster(
    strategy: str, subs: Sequence[Submission], min_quorum: int, rejected: list[tuple[bytes, str]]
) -> Verdict:
    """Cluster ``subs`` by result digest and accept the largest cluster (ties
    go to the smallest digest) when it has at least ``min_quorum`` members.
    Every other submission joins ``rejected``, which may hold the caller's
    own rejections."""
    groups: dict[bytes, list[bytes]] = {}
    for sub in subs:
        groups.setdefault(sub.result.digest, []).append(sub.miner)
    members = min(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))[1] if groups else []
    reason = NOT_IN_WINNING_CLUSTER
    if len(members) < min_quorum:
        members, reason = [], NO_QUORUM
    rejected += [(s.miner, reason) for s in subs if s.miner not in members]
    return Verdict(strategy, tuple(sorted(members)), tuple(sorted(rejected)))


def verify_replication(subs: Sequence[Submission], min_quorum: int) -> Verdict:
    """Accept the most common result when it reaches the quorum."""
    if min_quorum < 1:
        raise ValueError("min_quorum must be >= 1")
    return _cluster(STRATEGY_REPLICATION, subs, min_quorum, [])


def verify_decoy(subs: Sequence[Submission], decoy: DecoySpec) -> Verdict:
    """Filter by the recomputed configuration, then cluster the survivors as
    replication with quorum 1 does. Each entry hashes itself once, so the
    entries submissions share (the round's honest ones, a colluding group's
    one result) are hashed once."""
    want = decoy.decoy_result.digest
    index = decoy.decoy_index
    survivors: list[Submission] = []
    rejected: list[tuple[bytes, str]] = []
    for sub in subs:
        entries = sub.result.per_config
        if index < len(entries) and entries[index].digest == want:
            survivors.append(sub)
        else:
            rejected.append((sub.miner, DECOY_MISMATCH))
    return _cluster(STRATEGY_DECOY, survivors, 1, rejected)


def verify_reference(
    sub: Submission,
    ref: ReferenceDataset,
    chi2_threshold: float,
) -> tuple[bool, str | None]:
    """Check one submission against the reference dataset.

    Accept iff (1) the slope-histogram chi2 per dof stays within the
    threshold, and (2) the pooled Kalman innovation chi2/dof lies in the
    [ref/threshold, ref*threshold] band around the reference's own value.
    """
    slopes = [t.b for entry in sub.result.per_config for t in entry.tracks]
    if not slopes:
        return False, EMPTY_SUBMISSION
    sim_hist = slope_histogram(slopes, len(ref.histogram))
    if histogram_chi2(sim_hist, ref.histogram) > chi2_threshold:
        return False, HISTOGRAM_MISMATCH
    mean = _pooled_innovation(sub.result.per_config, sub.params_echo)
    if mean is not None:
        anchor = max(ref.mean_innovation, _INNOVATION_FLOOR)
        if not (anchor / chi2_threshold <= mean <= anchor * chi2_threshold):
            return False, INNOVATION_MISMATCH
    return True, None


def verify_reference_all(
    subs: Sequence[Submission],
    ref: ReferenceDataset,
    chi2_threshold: float,
) -> Verdict:
    """Apply the reference check to every submission; verdicts are cached per
    result digest since identical results verify identically."""
    accepted: list[bytes] = []
    rejected: list[tuple[bytes, str]] = []
    cache: dict[bytes, tuple[bool, str | None]] = {}
    for sub in sorted(subs, key=lambda s: s.miner):
        got = cache.get(sub.result.digest)
        if got is None:
            got = verify_reference(sub, ref, chi2_threshold)
            cache[sub.result.digest] = got
        ok, reason = got
        if ok:
            accepted.append(sub.miner)
        else:
            rejected.append((sub.miner, reason or "rejected"))
    return Verdict(STRATEGY_REFERENCE, tuple(accepted), tuple(rejected))


__all__ = [
    "Submission",
    "Verdict",
    "DecoySpec",
    "ReferenceDataset",
    "measurement_variance",
    "kalman_filter_track",
    "slope_histogram",
    "histogram_chi2",
    "build_reference",
    "verify_replication",
    "verify_decoy",
    "verify_reference",
    "verify_reference_all",
    "ESCALATION_CHAIN",
    "STRATEGY_REPLICATION",
    "STRATEGY_DECOY",
    "STRATEGY_REFERENCE",
    "STRATEGY_SELF_COMPUTE",
    "NO_QUORUM",
    "NOT_IN_WINNING_CLUSTER",
    "DECOY_MISMATCH",
    "HISTOGRAM_MISMATCH",
    "INNOVATION_MISMATCH",
    "EMPTY_SUBMISSION",
]
