"""splitmix64 generator, keyed substreams and a lane-parallel kernel.

Every random decision in the simulator is drawn from one of these streams so
that runs are bit-reproducible across platforms. Python's own `random` module
is deliberately not used anywhere on the protocol path.

splitmix64 is counter-based: draw ``k`` of the stream seeded ``s`` is
``finalize(s + k * GAMMA)`` (Steele, Lea & Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014). So any run of draws can be
computed ahead, and many at once. The lane kernel packs values into one
Python int, lane ``i`` at bits ``128 i`` up, and does each add, xor, shift
and multiply of the finalizer for every lane in one big-integer operation.
It is bit-exact with ``Splitmix64``:

* every lane is masked to 64 bits before each add and multiply, so a sum
  or product fits its 128-bit lane and no carry reaches the next lane;
* a right shift by at most 64 moves the next lane's low bits only into the
  upper half of a lane, which the masks clear and the read-out ignores;
* a unit draw is converted in two steps. The read-out puts the exponent
  bits of 1.0 above ``m``, the top 52 bits of the draw, which reads as the
  double ``1 + m * 2**-52`` (``lanes_raw_units``). The caller subtracts
  ``UNIT_OFFSET = 1 - 2**-53`` where it uses the unit, so a draw it never
  reads is never converted. By Sterbenz's lemma that subtraction is exact,
  so the result is ``(m + 0.5) * 2**-52``, the value ``next_unit`` returns;
* lanes are written out little-endian and read as 64-bit words, byteswapped
  on a big-endian host, so the result does not depend on host byte order;
* a packed constant that repeats from lane to lane is cut to ``n`` lanes
  by shifting its top ``n`` lanes, which equal its low ones, down.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Callable, Hashable, Sequence

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


# -- lane kernel ---------------------------------------------------------------

_LANE_BYTES = 16  # a lane is 128 bits wide
_ONE_BITS = 0x3FF0000000000000  # exponent bits of the double 1.0
UNIT_OFFSET = 1.0 - 2.0 ** -53  # raw unit - UNIT_OFFSET is the next_unit value
_BIG_ENDIAN = sys.byteorder == "big"

# Packed constants, grown on demand and, all but the lane mask, cut to the
# lanes a call needs: key -> (lane count, packed value of that many lanes).
# A constant depends on its key alone, so sharing one across callers cannot
# change a draw.
_constants: dict[Hashable, tuple[int, int]] = {}


def _lane(word: int) -> bytes:
    return word.to_bytes(_LANE_BYTES, "little")


def _low(n: int) -> int:
    """All bits of lanes 0..n-1."""
    return (1 << (8 * _LANE_BYTES * n)) - 1


def _grown(key: Hashable, n: int, build: Callable[[int], bytes]) -> tuple[int, int]:
    """(cap, lanes 0..cap-1) of a constant, with cap >= n; ``build(cap)``
    returns its first ``cap`` or more lanes as bytes."""
    cap, packed = _constants.get(key, (0, 0))
    if n > cap:
        lanes = build(max(n, 2 * cap))
        cap, packed = len(lanes) // _LANE_BYTES, int.from_bytes(lanes, "little")
        _constants[key] = (cap, packed)
    return cap, packed


def _constant(key: Hashable, n: int, build: Callable[[int], bytes]) -> int:
    """Lanes 0..n-1 of a constant, cut to size: it may be added, XORed or
    ORed, where lanes above n would show in the result."""
    cap, packed = _grown(key, n, build)
    return packed if n == cap else packed & _low(n)


def _repeated(key: Hashable, n: int, build: Callable[[int], bytes]) -> int:
    """Lanes 0..n-1 of a constant whose lanes repeat with a period that
    divides ``n`` and every lane count ``build`` returns: its top ``n``
    lanes, which equal them, shifted down."""
    cap, packed = _grown(key, n, build)
    return packed >> (8 * _LANE_BYTES * (cap - n))


def _tiled(word: int, n: int) -> int:
    """``word`` in each of lanes 0..n-1."""
    return _repeated(word, n, lambda cap: _lane(word) * cap)


def _mask64(n: int) -> int:
    """2**64 - 1 in each of lanes 0..n-1 and in lanes above them: the mask
    is only ANDed with non-negative values below 2**(128 n), and such an
    AND is as short as its shorter operand, so the mask is not cut."""
    return _grown(MASK64, n, lambda cap: _lane(MASK64) * cap)[1]


def _finalize(z: int, mask: int) -> int:
    """The splitmix64 finalizer in every lane of ``z``, whose lanes are
    below 2**64; ``mask`` holds 2**64 - 1 in each lane. The low 64 bits of
    each lane of the result are the output; the bits above are not cleared."""
    z = ((z ^ (z >> 30)) & mask) * MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * MIX2 & mask
    return z ^ (z >> 31)


def _mixed_keys(cap: int) -> bytes:
    """mix64(i) in lane i, for i in 0..cap-1."""
    mask = _mask64(cap)
    z = int.from_bytes(b"".join(_lane(i + GAMMA) for i in range(cap)), "little")
    return (_finalize(z, mask) & mask).to_bytes(cap * _LANE_BYTES, "little")


def _offsets(count: int, cap: int) -> bytes:
    """Counter offsets j * GAMMA for j in 1..count, repeated for at least
    ``cap`` lanes, a whole number of times."""
    tile = b"".join(_lane((j * GAMMA) & MASK64) for j in range(1, count + 1))
    return tile * -(-cap // count)


def _words(z: int, n: int, code: str) -> array:
    """The low 64-bit words of the ``n`` lanes of ``z``, as an array of type
    ``code``, in host byte order."""
    words = array(code, z.to_bytes(n * _LANE_BYTES, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words[::2]


def stream_seeds(runs: Sequence[tuple[int, int]], phase: int) -> list[int]:
    """``stream_seed(parent, i, phase)`` for i in 0..n-1, for each
    ``(parent, n)`` of ``runs`` in turn: each lane carries its own parent.
    Each ``mix64`` round runs on the lanes of all runs at once, and the
    lanes stay packed between the rounds."""
    z = at = 0
    for parent, n in runs:
        if n > 0:
            keyed = _constant("mixed keys", n, _mixed_keys) ^ _tiled(1, n) * (parent & MASK64)
            z = z | keyed << (8 * _LANE_BYTES * at) if at else keyed
            at += n
    if at == 0:
        return []
    mask = _mask64(at)
    gamma = _tiled(GAMMA, at)
    z = _finalize((z + gamma) & mask, mask) & mask
    phase_key = _tiled(mix64(phase & MASK64), at)
    z = _finalize(((z ^ phase_key) + gamma) & mask, mask)
    return _words(z, at, "Q").tolist()


def draw_lanes(seeds: Sequence[int], start: int, count: int) -> int:
    """Draws start+1..start+count of the stream of each seed, packed
    stream-major: lane ``p * count + j`` holds draw start+j+1 of the stream
    seeded ``seeds[p]``. Read them with ``lanes_u64`` or ``lanes_raw_units``.

    Draw start+j of seed ``s`` is draw j of seed ``s + start * GAMMA``, so
    the offsets added to the seeds depend on ``count`` alone."""
    if count <= 0:
        return 0
    n = len(seeds) * count
    mask = _mask64(n)
    skip = start * GAMMA
    lanes = [((s + skip) & MASK64).to_bytes(_LANE_BYTES, "little") * count for s in seeds]
    z = int.from_bytes(b"".join(lanes), "little")
    z += _repeated(("offsets", count), n, lambda cap: _offsets(count, cap))
    return _finalize(z & mask, mask)


def lanes_u64(lanes: int, n: int, step: int = 1) -> list[int]:
    """Lanes 0, step, 2 * step, ... of ``draw_lanes`` output of ``n``
    lanes, as ``next_u64`` values."""
    return _words(lanes, n, "Q")[::step].tolist()


def lanes_raw_units(lanes: int, n: int) -> list[float]:
    """The ``n`` lanes of ``draw_lanes`` output, as raw units
    ``1 + m * 2**-52``; ``raw - UNIT_OFFSET`` is the ``next_unit`` value."""
    return _words((lanes >> 12) | _tiled(_ONE_BITS, n), n, "d").tolist()
