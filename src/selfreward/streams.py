"""Per-item random streams, seeded exactly as numpy's ``SeedSequence`` seeds them.

Every agent, map and noise source of a scenario draws from a stream of its
own, ``default_rng(SeedSequence(entropy, spawn_key=key))``.  numpy hashes
each ``SeedSequence`` in Python, about 19 us apiece, and an auction builds
two streams for each of its thousands of agents.  ``rngs`` runs the same
hash over N items at once as uint32 array arithmetic, vectorised over the
items and over the four pool lanes, and hands each ``PCG64`` its
precomputed words through a minimal seed sequence, ``SeedWords``.  So
every generator starts in the state numpy's would, bit for bit.  Its
``bit_generator.seed_seq`` holds only those words: it neither spawns nor
generates any other state, and no scenario asks it to.

Some streams serve only a few draws, such as an auction agent's
construction draws.  ``random_raw`` gives the first k words of each item's
``PCG64`` without building a generator: it seeds each item as numpy does
(state 0 and increment ``(initseq << 1) | 1``; a step; the state plus
``initstate``; a step), then steps the 128-bit LCG and applies PCG64's
XSL-RR output, all as uint64 array arithmetic on the state's two halves,
the high half of a 64 x 64-bit product assembled from 32-bit partial
products.  The caller decodes its draws from the words.

The hash is numpy's ``SeedSequence``: an item's entropy words (padded with
zeros to the pool size when it has a spawn key), then its spawn key's words,
are hashed into a pool of four words; every pool word is mixed into every
other; each word beyond the fourth is mixed into all four; the pool is then
cycled into eight output words, read as four uint64 (``generate_state(4,
np.uint64)``, what ``PCG64`` seeds from).  The hash constant advances once
per hash call whatever the data, so every call's constants are known in
advance and shared by all items.  An integer becomes its 32-bit words, low
word first, and 0 the single word 0; a sequence becomes its elements' words
in turn.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16
STATE_WORDS = 8  # generate_state(4, np.uint64) as uint32 words
PCG_MULT_HI, PCG_MULT_LO = 2549297995355413924, 4865540595714422341  # PCG64's multiplier


def _words(value) -> list[int]:
    """The uint32 words numpy reads an entropy or spawn-key value as."""
    if isinstance(value, (int, np.integer)):
        n = int(value)
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        words = [n & MASK32]
        while n > MASK32:
            n >>= 32
            words.append(n & MASK32)
        return words
    if isinstance(value, (float, np.inexact)):
        raise TypeError("seed must be integer")
    return [w for v in value for w in _words(v)]


def _running(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """What hash calls 0 .. calls-1 XOR their value with, and then multiply
    it by: the running constant before and after each call advances it."""
    seq = [init]
    for _ in range(calls):
        seq.append(seq[-1] * mult & MASK32)
    return np.array(seq[:-1], dtype=np.uint32), np.array(seq[1:], dtype=np.uint32)


@functools.lru_cache(maxsize=16)
def _schedule(n_words: int) -> tuple:
    """The (xor, mul) constants of every hash call for items of up to
    ``n_words`` words, shaped as ``_hash`` takes them: the four pool words'
    calls; per source word, the calls that mix it into the other three (in
    its own lane a dummy, whose result is discarded); per later word, its
    four calls; and the eight calls that generate the state."""
    xor, mul = _running(INIT_A, MULT_A, POOL_SIZE * n_words)
    first = xor[:POOL_SIZE, None], mul[:POOL_SIZE, None]
    sources = []
    for src in range(POOL_SIZE):
        calls = [POOL_SIZE + 3 * src + d - (d > src) if d != src else 0
                 for d in range(POOL_SIZE)]
        sources.append((xor[calls, None], mul[calls, None]))
    rest = 4 * POOL_SIZE
    later = (xor[rest:].reshape(-1, POOL_SIZE, 1), mul[rest:].reshape(-1, POOL_SIZE, 1))
    xor, mul = _running(INIT_B, MULT_B, STATE_WORDS)
    schedule = (first, sources, later, (xor[:, None], mul[:, None]))
    for pair in (first, *sources, later, schedule[-1]):
        for a in pair:
            a.flags.writeable = False
    return schedule


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    out = values ^ xor
    out *= mul
    out ^= out >> XSHIFT
    return out


def _hash(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of N items, as (N, 4) uint64.

    ``entropy`` is (L, N) uint32: item j's assembled words in column j,
    then zeros, with L at least the pool size and every item's length
    ``lengths[j]``.
    """
    n_words = max(POOL_SIZE, lengths.max(initial=0))
    first, sources, later, generate = _schedule(n_words)
    # every pool word from its entropy word (0 past the end), in call order
    pool = _hashmix(entropy[:POOL_SIZE], *first)
    # then each word into every other, source by source
    for src, consts in enumerate(sources):
        mixed = pool * MIX_MULT_L
        mixed -= _hashmix(pool[src], *consts) * MIX_MULT_R
        mixed ^= mixed >> XSHIFT
        mixed[src] = pool[src]
        pool = mixed
    # then each later word into all four; none of these hashes reads the pool
    terms = _hashmix(entropy[POOL_SIZE:n_words, None], *later)
    terms *= MIX_MULT_R
    ragged = lengths.min(initial=n_words) < n_words
    for p, term in enumerate(terms, POOL_SIZE):
        mixed = pool * MIX_MULT_L
        mixed -= term
        mixed ^= mixed >> XSHIFT
        pool = np.where(lengths > p, mixed, pool) if ragged else mixed
    state = _hashmix(pool[np.arange(STATE_WORDS) % POOL_SIZE], *generate)
    # as numpy does: the words read little-endian, in pairs, as uint64
    return np.ascontiguousarray(state.T).astype("<u4", copy=False).view("<u8").astype(
        np.uint64, copy=False)


class SeedWords(ISeedSequence):
    """A seed sequence that holds the four words ``PCG64`` seeds from."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for (4, np.uint64), so that is tested before building a dtype
        if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            return self.words.copy()
        raise ValueError(f"only generate_state(4, np.uint64) is known, not ({n_words}, {dtype})")


def _seed_words(seeds, index=None) -> np.ndarray:
    """Each item's ``generate_state(4, np.uint64)`` as (N, 4) uint64;
    ``rngs`` states the arguments."""
    if index is None:
        seeds = np.asarray(seeds)
        if seeds.size and seeds.dtype.kind not in "iu":
            raise TypeError(f"seeds must be integers, got {seeds.dtype}")
        if seeds.ndim != 1 or seeds.size and seeds.min() < 0:
            raise ValueError(f"expected one row of non-negative integers, got {seeds!r}")
        seeds = seeds.astype(np.uint64)
        # two words each: under the pool size, a trailing 0 word hashes as none
        entropy = np.zeros((POOL_SIZE, len(seeds)), dtype=np.uint32)
        entropy[0], entropy[1] = seeds & MASK32, seeds >> 32
        return _hash(entropy, np.full(len(seeds), 2))
    index = [int(i) for i in index]
    if index and not (0 <= min(index) and max(index) <= MASK32):
        raise ValueError(f"indices must lie in [0, 2**32), got {min(index)} to {max(index)}")
    tail = np.array(index, dtype=np.uint32)
    # a spawned item's entropy is padded with zeros to the pool size
    bases = [np.array(run + [0] * (POOL_SIZE - len(run)) + _words(key), dtype=np.uint32)
             for run, key in ((_words(e), key) for e, key in seeds)]
    n_idx = len(index)
    entropy = np.zeros((max([len(b) + 1 for b in bases], default=POOL_SIZE),
                        len(bases) * n_idx), dtype=np.uint32)
    lengths = np.empty(entropy.shape[1], dtype=int)
    for r, base in enumerate(bases):
        cols = slice(r * n_idx, (r + 1) * n_idx)
        entropy[:len(base), cols] = base[:, None]
        entropy[len(base), cols] = tail
        lengths[cols] = len(base) + 1
    return _hash(entropy, lengths)


def rngs(seeds, index=None) -> Iterator:
    """Generators for N items, each in the state numpy gives it.

    Without ``index``, ``seeds`` is a 1-D integer array (or what numpy reads
    as one) of N non-negative seeds, and item j is
    ``default_rng(SeedSequence(seeds[j]))``.  With ``index``, each of
    ``seeds`` is a root ``(entropy, spawn_key)``: a non-negative integer or a
    sequence of them, and a tuple of them.  ``index`` holds integers in [0,
    2**32), and the items run root by root, then index by index: item (r, i)
    is ``default_rng(SeedSequence(entropy_r, spawn_key=spawn_key_r + (i,)))``.

    All N items are hashed at once, here; each generator is built only when
    the returned iterator reaches it, and its ``bit_generator.seed_seq`` is a
    ``SeedWords``.  A negative value raises a ValueError, as numpy's does,
    and so does an index of 2**32 or more; a seed that is not an integer
    raises a TypeError.
    """
    return (np.random.Generator(np.random.PCG64(SeedWords(w)))
            for w in _seed_words(seeds, index))


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each a * b, from 32-bit partial products."""
    a0, a1, b0, b1 = a & MASK32, a >> 32, b & MASK32, b >> 32
    low, cross0, cross1 = a0 * b0, a1 * b0, a0 * b1
    carry = ((low >> 32) + (cross0 & MASK32) + (cross1 & MASK32)) >> 32
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + carry


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
          inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 step, state = state * PCG_MULT + inc mod 2**128, on 64-bit halves."""
    new_hi = _mulhi(lo, PCG_MULT_LO) + lo * PCG_MULT_HI + hi * PCG_MULT_LO
    new_lo = lo * PCG_MULT_LO + inc_lo
    return new_hi + inc_hi + (new_lo < inc_lo), new_lo


def random_raw(seeds, k: int, index=None) -> np.ndarray:
    """The first k outputs of each item's ``PCG64``, as (N, k) uint64: the
    words ``rngs(seeds, index)``'s generators give ``bit_generator.random_raw(k)``.
    """
    words = _seed_words(seeds, index)
    w0, w1, w2, w3 = words.T
    # numpy's seeding: state = 0, inc = (initseq << 1) | 1; step (state = inc);
    # state += initstate; step
    inc_hi, inc_lo = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    lo = inc_lo + w1
    state = _step(inc_hi + w0 + (lo < w1), lo, inc_hi, inc_lo)
    out = np.empty((len(words), k), dtype=np.uint64)
    for j in range(k):
        state = hi, lo = _step(*state, inc_hi, inc_lo)
        # XSL-RR: the halves xor-ed, rotated right by the state's top six bits
        x, rot = hi ^ lo, hi >> 58
        out[:, j] = (x >> rot) | (x << ((64 - rot) & 63))
    return out
