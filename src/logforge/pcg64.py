"""numpy's PCG64 stream, drawn in pure Python.

`Pcg64(seed)` draws exactly what `numpy.random.default_rng(seed)`, that is
`Generator(PCG64(SeedSequence(seed)))`, draws for the four calls the
simulator makes: `random()`, `uniform(low, high)`, `normal(loc, scale)` and
`exponential(scale)`, value for value and output for output, with numpy's
errors for bad parameters.  It follows numpy's algorithms:

- SeedSequence mixes the seed's 32-bit words into a pool of four, and draws
  eight words from the pool: the first four 64-bit words seed PCG64's state,
  the last four its increment;
- each output steps a 128-bit LCG and returns its XSL-RR permutation;
  `random()` is the output's top 53 bits times 2**-53;
- `normal` and `exponential` use numpy's 256-layer ziggurats, whose tables
  and tail constants are the data module `_ziggurat`, derived from numpy by
  `scripts/ziggurat_tables.py`.

numpy is never imported, so a run does not load it, and a trace does not
depend on the installed numpy's version (NEP 19 allows `Generator`'s
distributions to change between releases).  Each draw steps the LCG inline
rather than calling `random()` for its first output, which would add a
method call to every draw.
"""
from __future__ import annotations

from math import copysign, exp, log1p

from ._ziggurat import EXP_R, FE, FI, KE, KI, NOR_INV_R, NOR_R, WE, WI

MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_MASK32, _MASK53 = (1 << 32) - 1, (1 << 53) - 1
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
# XSL-RR output of a state s: v = (s >> 64) ^ s, low 64 bits, rotated right by
# s >> 122.  Bits [n, 64) of the output are bits [n, 64) of
# (v * _TWICE) >> (s >> 122), which holds v twice side by side.
_TWICE = (1 << 64) + 1
_TO_DOUBLE = 2.0 ** -53


def _negative(value: float) -> bool:
    """numpy's test of a non-negative parameter: -0.0 fails, NaN passes."""
    return value < 0 or (value == 0 and copysign(1.0, value) < 0)


def _seed_words(seed: int) -> list[int]:
    """The eight 32-bit words of `SeedSequence(seed).generate_state(8)`."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return words


class Pcg64:
    """numpy's `default_rng(seed)` for `random`, `uniform`, `normal` and
    `exponential`.  `state` and `inc` are the LCG's state and increment, as
    numpy's `bit_generator.state["state"]` names them."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        w = _seed_words(seed)
        # 64-bit words are little-endian pairs of 32-bit words; each 128-bit
        # value takes its high half from the first of two 64-bit words
        s0, s1, i0, i1 = (w[j] | w[j + 1] << 32 for j in range(0, 8, 2))
        # PCG's seeding: the increment is odd; step from state 0, add the
        # seed, step again
        self.inc = (((i0 << 64 | i1) << 1) | 1) & _MASK128
        self.state = ((self.inc + (s0 << 64 | s1)) * MULTIPLIER + self.inc) & _MASK128

    def random(self) -> float:
        """A double in [0, 1): the next output's top 53 bits times 2**-53."""
        s = self.state = (self.state * MULTIPLIER + self.inc) & _MASK128
        top = (((s >> 64) ^ s) & _MASK64) * _TWICE >> ((s >> 122) + 11)
        return (top & _MASK53) * _TO_DOUBLE

    def uniform(self, low: float, high: float) -> float:
        span = high - low
        if span - span != 0:  # infinite or NaN
            raise OverflowError("high - low range exceeds valid bounds")
        if not span > 0 and _negative(span):
            raise ValueError("high - low < 0")
        return low + span * self.random()

    def normal(self, loc: float, scale: float) -> float:
        if not scale > 0 and _negative(scale):
            raise ValueError("scale < 0")
        while True:
            s = self.state = (self.state * MULTIPLIER + self.inc) & _MASK128
            out = (((s >> 64) ^ s) & _MASK64) * _TWICE >> (s >> 122)  # output: bits [0, 64)
            # bits 0-7 pick the layer, bit 8 is the sign, 52 bits above it the magnitude
            idx, rabs = out & 0xFF, (out >> 9) & 0xFFFFFFFFFFFFF
            x = rabs * WI[idx]
            if out & 0x100:
                x = -x
            if rabs < KI[idx]:
                return loc + scale * x
            if idx == 0:  # the tail beyond NOR_R
                while True:
                    xx = -NOR_INV_R * log1p(-self.random())
                    yy = -log1p(-self.random())
                    if yy + yy > xx * xx:
                        return loc + scale * (-(NOR_R + xx) if (rabs >> 8) & 1 else NOR_R + xx)
            if (FI[idx - 1] - FI[idx]) * self.random() + FI[idx] < exp(-0.5 * x * x):
                return loc + scale * x

    def exponential(self, scale: float) -> float:
        if not scale > 0 and _negative(scale):
            raise ValueError("scale < 0")
        while True:
            s = self.state = (self.state * MULTIPLIER + self.inc) & _MASK128
            out = (((s >> 64) ^ s) & _MASK64) * _TWICE >> (s >> 122)  # output: bits [0, 64)
            # bits 0-2 are unused, 3-10 pick the layer, 53 bits above them the magnitude
            idx, ri = (out >> 3) & 0xFF, (out >> 11) & _MASK53
            x = ri * WE[idx]
            if ri < KE[idx]:
                return scale * x
            if idx == 0:  # the tail beyond EXP_R
                return scale * (EXP_R - log1p(-self.random()))
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < exp(-x):
                return scale * x
