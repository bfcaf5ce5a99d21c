"""Per-item streams: numpy's SeedSequence hash over many items at once, bit for bit."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfreward
from selfreward.streams import random_raw, rngs

# entropies and spawn-key elements of 2**32 and more take several words
ENTROPY = st.one_of(st.integers(0, 2 ** 256), st.lists(st.integers(0, 2 ** 70), max_size=6))
KEY = st.lists(st.integers(0, 2 ** 70), max_size=5).map(tuple)
COUNT = st.sampled_from([0, 1, 7, 600])
# first index of a run: small, just under 2**32 (so a run crosses into two
# words), or anywhere
FIRST = st.one_of(st.integers(0, 50), st.integers(2 ** 32 - 300, 2 ** 32), st.integers(0, 2 ** 70))


def assert_like_numpy(rng, seq: np.random.SeedSequence, draws: bool) -> None:
    """The generator's words and state are numpy's for seq; with ``draws``,
    so are its first draws and its spawned children."""
    want = np.random.default_rng(seq)
    words = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
    np.testing.assert_array_equal(words, seq.generate_state(4, np.uint64))
    assert words.dtype == np.uint64
    assert rng.bit_generator.state == want.bit_generator.state
    if draws:
        np.testing.assert_array_equal(rng.random(3), want.random(3))
        assert rng.integers(2 ** 63) == want.integers(2 ** 63)
        for _ in range(2):  # a second spawn continues the child count
            got, ref = rng.spawn(2), want.spawn(2)
            assert [g.bit_generator.state for g in got] == [r.bit_generator.state for r in ref]


@settings(max_examples=40, deadline=None)
@given(roots=st.lists(st.tuples(ENTROPY, KEY), min_size=1, max_size=3), first=FIRST,
       count=COUNT)
def test_spawned_items_match_numpy(roots, first, count):
    index = range(first, first + count)
    got = list(rngs(roots, index))
    assert len(got) == len(roots) * count
    items = [(e, key + (i,)) for e, key in roots for i in index]
    for j, (rng, (entropy, key)) in enumerate(zip(got, items)):
        seq = np.random.SeedSequence(entropy, spawn_key=key)
        assert_like_numpy(rng, seq, draws=j in (0, len(got) - 1))
        assert rng.bit_generator.seed_seq.entropy == entropy
        assert rng.bit_generator.seed_seq.spawn_key == key


@settings(max_examples=40, deadline=None)
@given(base=st.lists(ENTROPY, min_size=1, max_size=8), count=COUNT)
def test_plain_seeds_match_numpy(base, count):
    seeds = [base[k % len(base)] for k in range(count)]
    got = list(rngs(seeds))
    assert len(got) == count
    for j, (rng, seed) in enumerate(zip(got, seeds)):
        assert_like_numpy(rng, np.random.SeedSequence(seed), draws=j in (0, count - 1))
        assert rng.bit_generator.seed_seq.spawn_key == ()


@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 64 - 1), max_size=40), signed=st.booleans())
def test_integer_array_seeds_match_numpy(seeds, signed):
    if signed:
        seeds = [s >> 1 for s in seeds]
    array = np.array(seeds, dtype=np.int64 if signed else np.uint64)
    got = list(rngs(array))
    assert len(got) == len(seeds)
    for rng, seed in zip(got, seeds):
        assert_like_numpy(rng, np.random.SeedSequence(seed), draws=False)
        assert rng.bit_generator.seed_seq.entropy == seed


@settings(max_examples=40, deadline=None)
@given(seeds=st.one_of(
    st.lists(st.tuples(ENTROPY, KEY), min_size=1, max_size=3).map(lambda roots: ("roots", roots)),
    st.lists(ENTROPY, max_size=6).map(lambda seeds: ("plain", seeds)),
    st.lists(st.integers(0, 2 ** 64 - 1), max_size=30).map(
        lambda seeds: ("array", np.array(seeds, dtype=np.uint64)))),
    first=FIRST, count=st.sampled_from([0, 1, 5]), k=st.integers(0, 7))
def test_raw_outputs_match_numpy(seeds, first, count, k):
    kind, seeds = seeds
    if kind == "roots":
        index = range(first, first + count)
        got = random_raw(seeds, k, index)
        items = [np.random.SeedSequence(e, spawn_key=key + (i,)) for e, key in seeds for i in index]
    else:
        got = random_raw(seeds, k)
        plain = seeds.tolist() if kind == "array" else seeds
        items = [np.random.SeedSequence(s) for s in plain]
    assert got.shape == (len(items), k) and got.dtype == np.uint64
    for row, seq in zip(got, items):
        np.testing.assert_array_equal(row, np.random.default_rng(seq).bit_generator.random_raw(k))


@pytest.mark.parametrize("call", [
    lambda: rngs([-1]),
    lambda: rngs([[3, -2]]),
    lambda: rngs(np.array([5, -1])),
    lambda: rngs([(-1, (0,))], [0]),
    lambda: rngs([(0, (4, -1))], [0]),
    lambda: rngs([(0, ())], [2, -3]),
], ids=["plain", "in a list", "in an array", "root", "spawn key", "index"])
def test_negative_entropy_raises_as_numpy_does(call):
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        np.random.SeedSequence(0, spawn_key=(-1,))
    with pytest.raises(ValueError):
        call()


def test_empty_calls_build_nothing():
    assert list(rngs([])) == []
    assert random_raw([], 6).shape == random_raw([(5, (1,))], 6, []).shape == (0, 6)
    assert list(rngs([], range(5))) == []
    assert list(rngs([(5, (1,))], [])) == []
    assert list(rngs(np.zeros(0, dtype=np.int64))) == []


def test_generators_are_built_only_as_they_are_used(monkeypatch):
    built = []
    pcg64 = np.random.PCG64

    def counting(seed):
        built.append(seed)
        return pcg64(seed)

    monkeypatch.setattr(np.random, "PCG64", counting)
    streams = rngs([(0, ())], range(4096))
    assert built == []
    rng = next(streams)
    assert len(built) == 1
    assert rng.bit_generator.state == np.random.default_rng(
        np.random.SeedSequence(0, spawn_key=(0,))).bit_generator.state


def test_seed_sequence_stands_in_for_numpys():
    rng = next(rngs([(2 ** 40, (3,))], [9]))
    seq = rng.bit_generator.seed_seq
    ref = np.random.SeedSequence(2 ** 40, spawn_key=(3, 9))
    assert isinstance(seq, np.random.bit_generator.ISpawnableSeedSequence)
    for n_words, dtype in [(4, np.uint64), (4, "u8"), (4, np.dtype(np.uint64)), (3, np.uint32),
                           (8, np.uint64), (1, np.uint32)]:
        np.testing.assert_array_equal(seq.generate_state(n_words, dtype),
                                      ref.generate_state(n_words, dtype))
    # the words handed out are a copy
    seq.generate_state(4, np.uint64)[:] = 0
    np.testing.assert_array_equal(seq.generate_state(4, np.uint64),
                                  ref.generate_state(4, np.uint64))
    children = seq.spawn(3)
    assert [c.spawn_key for c in children] == [(3, 9, 0), (3, 9, 1), (3, 9, 2)]
    assert seq.n_children_spawned == 3
    # a generator pickles with its seed sequence, as numpy's does
    again = pickle.loads(pickle.dumps(rng))
    assert again.bit_generator.state == rng.bit_generator.state
    assert again.bit_generator.seed_seq.spawn_key == (3, 9)


def test_importing_the_package_leaves_numpy_random_unloaded():
    src = str(Path(selfreward.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    # the scenarios import streams on use, so the CLI's start-up neither
    # compiles it nor loads the numpy.random it imports
    code = ("import sys; import selfreward.cli; "
            "assert 'selfreward.streams' not in sys.modules; "
            "assert 'numpy.random' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
