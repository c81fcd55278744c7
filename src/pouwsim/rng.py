"""splitmix64 generator and keyed substreams.

Every random decision in the simulator is drawn from one of these streams so
that runs are bit-reproducible across platforms. Python's own `random` module
is deliberately not used anywhere on the protocol path.
"""

from __future__ import annotations

import math

MASK64 = 0xFFFFFFFFFFFFFFFF

GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """One splitmix64 step applied to ``x``: advance by the gamma, finalize."""
    z = (x + GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def stream_seed(root: int, *keys: int) -> int:
    """Derive a substream seed from a root seed plus integer keys.

    Distinct key tuples yield effectively independent streams; the same tuple
    always yields the same stream. Used to key per-event, per-config and
    per-round randomness without any shared state.
    """
    s = root & MASK64
    for k in keys:
        s = mix64(s ^ mix64(k & MASK64))
    return s


class Splitmix64:
    """splitmix64: 64-bit state, one add plus finalizer per draw."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform draw in the open interval (0, 1)."""
        return ((self.next_u64() >> 12) + 0.5) * 2.0 ** -52

    def next_gauss(self) -> float:
        """Standard normal via Box-Muller; consumes two u64 draws."""
        u1 = self.next_unit()
        u2 = self.next_unit()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is negligible for n << 2**64."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n
