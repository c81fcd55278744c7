"""PRNG checks against an independent splitmix64 oracle, and the lane
kernel against the scalar generator.

The oracle below is a standalone reimplementation (it does not touch
pouwsim.rng); the seed-0 outputs also match the published splitmix64
reference sequence, anchoring both sides.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pouwsim.rng
from pouwsim.rng import (
    GAMMA,
    MASK64,
    MIX1,
    MIX2,
    UNIT_OFFSET,
    Splitmix64,
    draw_lanes,
    lanes_raw_units,
    lanes_u64,
    mix64,
    stream_seed,
    stream_seeds,
)

_M = 0xFFFFFFFFFFFFFFFF


def _oracle_next(state):
    state = (state + 0x9E3779B97F4A7C15) & _M
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return z ^ (z >> 31), state


# published reference outputs for seed 0
SEED0_VECTORS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC)


def test_matches_published_vectors():
    rng = Splitmix64(0)
    assert tuple(rng.next_u64() for _ in range(4)) == SEED0_VECTORS


def test_matches_oracle_across_seeds():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        rng = Splitmix64(seed)
        state = seed & _M
        for _ in range(100):
            expected, state = _oracle_next(state)
            assert rng.next_u64() == expected


def test_mix64_is_single_oracle_step():
    for x in (0, 7, 123456789, 2**63):
        expected, _ = _oracle_next(x & _M)
        assert mix64(x) == expected


def test_stream_seed_distinct_keys():
    seeds = {stream_seed(99, a, b) for a in range(30) for b in range(30)}
    assert len(seeds) == 900
    assert stream_seed(99, 1, 2) == stream_seed(99, 1, 2)
    assert stream_seed(99, 1, 2) != stream_seed(99, 2, 1)


def test_next_unit_open_interval():
    rng = Splitmix64(5)
    draws = [rng.next_unit() for _ in range(10000)]
    assert all(0.0 < u < 1.0 for u in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.5) < 0.02


def test_next_gauss_moments():
    rng = Splitmix64(11)
    draws = [rng.next_gauss() for _ in range(20000)]
    mean = sum(draws) / len(draws)
    var = sum((x - mean) ** 2 for x in draws) / len(draws)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05


def test_next_below_range_and_determinism():
    rng = Splitmix64(3)
    values = [rng.next_below(7) for _ in range(1000)]
    assert set(values) <= set(range(7))
    assert Splitmix64(3).next_below(7) == values[0]


def test_mask_constant():
    assert MASK64 == 2**64 - 1


# -- lane kernel ------------------------------------------------------------------
# The kernel must equal the scalar generator draw for draw. Unit draws are
# compared by float.hex, which tells every bit apart.

_u64 = st.sampled_from((0, 1, 2**63, 2**64 - 1)) | st.integers(0, 2**64 - 1)
_counts = st.sampled_from((0, 1)) | st.integers(0, 40)


@settings(max_examples=150, deadline=None)
@given(parent=_u64, n=_counts, phase=_u64 | st.integers(0, 3))
def test_stream_seeds_match_stream_seed(parent, n, phase):
    assert stream_seeds([(parent, n)], phase) == [stream_seed(parent, i, phase) for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(runs=st.lists(st.tuples(_u64, _counts), max_size=8), phase=_u64 | st.integers(0, 3))
def test_stream_seeds_give_each_run_its_own_parent(runs, phase):
    expected = [stream_seed(parent, i, phase) for parent, n in runs for i in range(n)]
    assert stream_seeds(runs, phase) == expected


@settings(max_examples=150, deadline=None)
@given(
    seeds=st.lists(_u64, max_size=12),
    start=st.sampled_from((0, 1, 18)) | st.integers(0, 10**6),
    count=_counts,
)
def test_draw_lanes_match_scalar_draws(seeds, start, count):
    lanes = draw_lanes(seeds, start, count)
    n = len(seeds) * count
    u64s, raws = lanes_u64(lanes, n), lanes_raw_units(lanes, n)
    assert len(u64s) == len(raws) == n
    assert UNIT_OFFSET == 1 - 2**-53
    for p, seed in enumerate(seeds):
        rng = Splitmix64(seed)
        rng.state = (rng.state + start * GAMMA) & MASK64  # skip the first `start` draws
        unit_rng = Splitmix64(rng.state)
        block = slice(p * count, (p + 1) * count)
        assert u64s[block] == [rng.next_u64() for _ in range(count)]
        # a raw unit is 1 + m * 2**-52 for m the top 52 bits of the draw
        assert raws[block] == [1.0 + (x >> 12) * 2.0**-52 for x in u64s[block]]
        units = [raw - (1 - 2**-53) for raw in raws[block]]
        assert [u.hex() for u in units] == [unit_rng.next_unit().hex() for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(word=_u64, n=_counts, extra=_counts, count=st.integers(1, 12), m=st.integers(0, 6), more=st.integers(0, 6))
def test_repeating_constants_cut_from_a_larger_cap_equal_a_fresh_build(word, n, extra, count, m, more):
    """A repeating constant is cut by a shift from however many lanes are
    kept; asking for more lanes first must not change the cut."""
    rng = pouwsim.rng
    rng._tiled(word, n + extra)
    assert rng._tiled(word, n) == int.from_bytes(word.to_bytes(16, "little") * n, "little")

    def build(cap):
        return rng._offsets(count, cap)

    rng._repeated(("offsets", count), count * (m + more), build)
    fresh = b"".join(((j * GAMMA) & MASK64).to_bytes(16, "little") for j in range(1, count + 1)) * m
    assert rng._repeated(("offsets", count), count * m, build) == int.from_bytes(fresh, "little")


def test_lanes_u64_step_reads_every_step_th_lane():
    seeds = stream_seeds([(7, 5)], 0)
    lanes = draw_lanes(seeds, 0, 7)
    assert lanes_u64(lanes, 35, 7) == [Splitmix64(s).next_u64() for s in seeds]


def _unfinalize(z):
    """Inverse of the splitmix64 finalizer: the state whose draw is ``z``."""

    def unshift(x, k):
        y = x
        for _ in range(64 // k):
            y = x ^ (y >> k)
        return y

    z = unshift(z, 31)
    z = unshift(z * pow(MIX2, -1, 2**64) & _M, 27)
    return unshift(z * pow(MIX1, -1, 2**64) & _M, 30)


def test_unit_conversion_exact_at_the_extremes():
    """Draws chosen through the inverse finalizer: mantissa 0 and all ones,
    the lowest 12 bits set or clear, and the top bit alone."""
    words = (0, 2**64 - 1, 2**12 - 1, 2**12, (2**52 - 1) << 12, 2**63, 0x5555555555555555)
    seeds = [(_unfinalize(x) - GAMMA) & _M for x in words]
    lanes = draw_lanes(seeds, 0, 1)
    assert lanes_u64(lanes, len(words)) == list(words)
    raws = lanes_raw_units(lanes, len(words))
    assert [r.hex() for r in raws] == [(1.0 + (x >> 12) * 2.0**-52).hex() for x in words]
    assert min(raws) == 1.0 and max(raws) == 2.0 - 2.0**-52
    expected = [((x >> 12) + 0.5) * 2.0**-52 for x in words]
    assert [(raw - (1 - 2**-53)).hex() for raw in raws] == [u.hex() for u in expected]
    assert 0.0 < min(expected) and max(expected) < 1.0
