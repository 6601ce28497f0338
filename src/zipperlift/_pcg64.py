"""numpy's ``default_rng(seed)`` draws, computed without ``numpy.random``.

``uniform(seed, low, high, size)`` and ``integers(seed, high, size)`` return
exactly what ``np.random.default_rng(seed).uniform(low, high, size)`` and
``.integers(0, high, size)`` return, bit for bit, for a non-negative integer
seed.  Importing ``numpy.random`` loads eleven submodules, about 5.3 MB of
memory and 8 ms in a process that has loaded the CLI, for a handful of draws; these are numpy's own
published algorithms in integer arithmetic on uint64 arrays instead:

- ``SeedSequence``'s hash mixing of the seed's 32-bit words into a four-word
  pool, which ``generate_state`` expands into PCG64's 128-bit seed and
  increment;
- PCG64, the XSL-RR 128/64 generator (O'Neill 2014), whose 128-bit
  states are computed a block at a time by the affine jump
  ``s[t + k] = A_k s[t] + C_k (mod 2^128)``;
- Lemire's bounded integers with numpy's rejection rule, on the low then
  high 32-bit half of each output when the range fits 32 bits.

Each call starts a fresh generator, as each caller used to, so no state is
kept.  The functions that draw import this module when they run, so that a
command that draws nothing does not load it.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1

#: PCG64's 128-bit LCG multiplier.
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

#: Largest number of states computed at once, which bounds the transient
#: arrays of a long draw to a few hundred kB.
_BLOCK = 2**14


def _seed_sequence(seed):
    """The 128-bit seed and increment that ``SeedSequence(seed)`` hands PCG64."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)

    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for word in entropy[4:]:
        for target in range(4):
            pool[target] = mix(pool[target], hashmix(word))

    # generate_state(4, uint64): eight words cycled from the pool, paired
    # little-endian into four uint64; the first two are the seed (high half
    # first), the last two the increment
    hash_const, words = 0x8B51F9DD, [0, 0, 0, 0]
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words[i // 2] |= (value ^ value >> 16) << 32 * (i % 2)
    return words[0] << 64 | words[1], words[2] << 64 | words[3]


def _mul_hi(x, a):
    """High 64 bits of ``x * a`` for a uint64 array ``x`` and an int ``a < 2^64``."""
    a_low, a_high = a & _MASK32, a >> 32
    x_low, x_high = x & _MASK32, x >> 32
    cross_low, cross_high = x_low * a_high, x_high * a_low
    middle = (x_low * a_low >> 32) + (cross_low & _MASK32) + (cross_high & _MASK32)
    return x_high * a_high + (cross_low >> 32) + (cross_high >> 32) + (middle >> 32)


def _jump(high, low, multiplier, addend):
    """``multiplier * s + addend (mod 2^128)`` for the states ``s`` held as
    uint64 halves."""
    m_high, m_low = multiplier >> 64, multiplier & _MASK64
    new_low = low * m_low
    new_high = _mul_hi(low, m_low) + low * m_high + high * m_low
    added = new_low + (addend & _MASK64)
    return new_high + (addend >> 64) + (added < new_low), added


def _xsl_rr(high, low):
    """PCG64's outputs for the states held as uint64 halves: the halves' xor,
    rotated right by the state's top 6 bits."""
    folded, rotation = high ^ low, high >> 58
    return (folded >> rotation) | (folded << ((64 - rotation) & 63))


def _outputs(seed_state, increment):
    """PCG64's 64-bit outputs from ``_seed_sequence``'s seed and increment,
    in consecutive uint64 blocks of 1, 1, 2, 4, ... and then ``_BLOCK``
    outputs."""
    increment = (increment << 1 | 1) & _MASK128
    # from state 0: step, add the seed, step, and step once more to output
    state = ((increment + seed_state) * _MULTIPLIER + increment) & _MASK128
    state = (state * _MULTIPLIER + increment) & _MASK128
    high = np.array([state >> 64], dtype=np.uint64)
    low = np.array([state & _MASK64], dtype=np.uint64)
    multiplier, addend = _MULTIPLIER, increment  # the jump over high.size steps
    yield _xsl_rr(high, low)
    while True:
        next_high, next_low = _jump(high, low, multiplier, addend)
        yield _xsl_rr(next_high, next_low)
        if high.size < _BLOCK:
            # every state so far jumps by twice as many steps next time
            high, low = np.concatenate((high, next_high)), np.concatenate((low, next_low))
            multiplier, addend = (multiplier * multiplier & _MASK128,
                                  (multiplier * addend + addend) & _MASK128)
        else:
            high, low = next_high, next_low


def _fill(out, blocks):
    """``out``, filled with the leading values of the arrays ``blocks`` yields."""
    filled = 0
    while filled < out.size:
        block = next(blocks)[: out.size - filled]
        out[filled: filled + block.size] = block
        filled += block.size
    return out


def _bounded(outputs, high):
    """Lemire's draws in [0, high) from a block of outputs: a word w gives
    ``(w * high) >> bits``, and is rejected, so that numpy draws the next
    one, while the product's low bits fall below ``2^bits mod high``.  The
    words are 32-bit halves, low half first, when ``high <= 2^32``."""
    if high <= 2**32:
        words = np.empty(2 * outputs.size, dtype=np.uint64)
        words[0::2], words[1::2] = outputs & _MASK32, outputs >> 32
        products = words * high
        return (products >> 32)[(products & _MASK32) >= 2**32 % high]
    return _mul_hi(outputs, high)[outputs * high >= 2**64 % high]


def uniform(seed, low, high, size):
    """``np.random.default_rng(seed).uniform(low, high, size)``."""
    blocks = _outputs(*_seed_sequence(seed))
    # next_double: the top 53 bits, scaled exactly into [0, 1)
    unit = _fill(np.empty(size), ((outputs >> 11) * 2.0**-53 for outputs in blocks))
    return low + (high - low) * unit


def integers(seed, high, size):
    """``np.random.default_rng(seed).integers(0, high, size)`` for
    ``1 <= high <= 2^63``."""
    blocks = _outputs(*_seed_sequence(seed))
    return _fill(np.empty(size, dtype=np.int64), (_bounded(outputs, high) for outputs in blocks))
