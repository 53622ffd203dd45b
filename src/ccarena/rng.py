"""Deterministic random streams.

All randomness flows through DetRng, a 64-bit linear congruential generator
with fixed constants, so a given seed reproduces the same sample sequence on
every run. Normal variates come from Box-Muller (two uniforms per sample, no
cached spare), exponentials from inversion. The exact recipes are written out
in the README so runs can be reproduced outside this codebase.

Two hot loops step a DetRng's state inline with this module's constants
instead of calling its methods: simkit.gen_workload (rng.normal, then
rng.randrange per operator) and simkit._txn_process (rng.random and
rng.uniform_ms). Each draw there is the same float expression as the method
it stands for, so the samples are the same to the bit.
"""

import math

_MASK64 = (1 << 64) - 1
# Knuth MMIX multiplier/increment.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
# SplitMix64 finalizer constants, used only to derive sub-stream seeds.
_MIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB


def mix_seed(seed: int, salt: int) -> int:
    """Derive an independent 64-bit seed from (seed, salt)."""
    z = (seed + (salt + 1) * _MIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & _MASK64
    return z ^ (z >> 31)


class DetRng:
    """64-bit LCG stream: state' = state * a + c mod 2^64."""

    def __init__(self, seed: int):
        self._state = mix_seed(seed & _MASK64, 0)

    def spawn(self, salt: int) -> "DetRng":
        """Independent sub-stream; same (seed, salt) always gives the same stream."""
        child = DetRng.__new__(DetRng)
        child._state = mix_seed(self._state, salt)
        return child

    def next_u64(self) -> int:
        self._state = (self._state * _LCG_A + _LCG_C) & _MASK64
        return self._state

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits."""
        self._state = state = (self._state * _LCG_A + _LCG_C) & _MASK64
        return (state >> 11) * 2.0 ** -53

    # randrange and uniform_ms step the LCG inline, as random does; each
    # returns int(random() * n) to the bit.

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        self._state = state = (self._state * _LCG_A + _LCG_C) & _MASK64
        return int((state >> 11) * 2.0 ** -53 * n)

    def uniform_ms(self, bounds: tuple[int, int]) -> int:
        """Uniform integer milliseconds over an inclusive (lo, hi) range:
        lo + randrange(hi - lo + 1)."""
        lo, hi = bounds
        n = hi - lo + 1
        if n <= 0:
            raise ValueError(f"uniform_ms needs lo <= hi, got {bounds}")
        self._state = state = (self._state * _LCG_A + _LCG_C) & _MASK64
        return lo + int((state >> 11) * 2.0 ** -53 * n)

    def normal(self, mean: float, sd: float) -> float:
        """Box-Muller transform; consumes exactly two uniforms."""
        u1 = self.random()
        u2 = self.random()
        if u1 <= 0.0:
            u1 = 2.0 ** -53
        return mean + sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def exponential(self, mean: float) -> float:
        """Inversion method; mean <= 0 degenerates to 0."""
        if mean <= 0.0:
            self.next_u64()  # keep stream consumption independent of the mean
            return 0.0
        return -mean * math.log(1.0 - self.random())
