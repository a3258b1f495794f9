"""`logforge.pcg64` draws numpy's stream: the same values, and the same
generator state after them, as `numpy.random.default_rng`.  numpy is needed
by these tests only."""
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logforge import _ziggurat
from logforge.pcg64 import MULTIPLIER, Pcg64

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MOD = 1 << 128
KINDS = ("random", "uniform", "normal", "exponential")
DRAWS_PER_EXAMPLE = 2_500  # of each kind
EXAMPLES = 40  # 10**5 draws of each kind


def numpy_state(rng: np.random.Generator) -> tuple[int, int]:
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


def at_state(state: int, inc: int) -> tuple[Pcg64, np.random.Generator]:
    ours, theirs = Pcg64(0), np.random.Generator(np.random.PCG64())
    ours.state, ours.inc = state, inc
    theirs.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                  "state": {"state": state, "inc": inc}}
    return ours, theirs


def crafted(y: int, z: int) -> tuple[int, int]:
    """The (state, inc) whose next two outputs are y and z: one step lands on
    the state y, whose XSL-RR output is y itself, and the next on z."""
    inc = (z - y * MULTIPLIER) % MOD
    return (y - inc) * pow(MULTIPLIER, -1, MOD) % MOD, inc


def second(y: int, k: int) -> int:
    """An output whose double is k * 2**-53; its low bit keeps inc odd."""
    return (k << 11) | (~y & 1)


finite = st.floats(-1e9, 1e9, allow_nan=False)
non_negative = st.floats(0.0, 1e6, allow_nan=False)


@given(seed=st.integers(0, 2**200), loc=finite, scale=non_negative, rate_scale=non_negative,
       low=finite, width=st.floats(0.0, 1e9, allow_nan=False))
# normal(mu, 0) and uniform(a, a)
@example(seed=0, loc=1.5, scale=0.0, rate_scale=0.0, low=-2.0, width=0.0)
@example(seed=2**200, loc=0.0, scale=1.0, rate_scale=1.0, low=0.0, width=1.0)
@settings(max_examples=EXAMPLES, deadline=None)
def test_every_draw_and_the_final_state_match_numpy(seed, loc, scale, rate_scale, low, width):
    high = low + width
    ours, theirs = Pcg64(seed), np.random.default_rng(seed)
    assert (ours.state, ours.inc) == numpy_state(theirs)
    order = [kind for kind in KINDS for _ in range(DRAWS_PER_EXAMPLE)]
    random.Random(seed).shuffle(order)
    args = {"random": (), "uniform": (low, high), "normal": (loc, scale),
            "exponential": (rate_scale,)}
    got = [getattr(ours, kind)(*args[kind]) for kind in order]
    want = [float(getattr(theirs, kind)(*args[kind])) for kind in order]
    assert list(map(float.hex, got)) == list(map(float.hex, want))
    assert (ours.state, ours.inc) == numpy_state(theirs)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 + 1, 20240302, 2**200])
def test_seeding_matches_numpy_at_word_boundaries(seed):
    ours = Pcg64(seed)
    assert (ours.state, ours.inc) == numpy_state(np.random.default_rng(seed))


def test_a_crafted_state_yields_the_two_chosen_outputs():
    y, z = 0x0123456789ABCDEF, 0xFEDCBA9876543210
    ours, theirs = at_state(*crafted(y, z))
    assert [int(v) for v in theirs.bit_generator.random_raw(2)] == [y, z]
    assert ours.random() == (y >> 11) * 2.0**-53 and ours.random() == (z >> 11) * 2.0**-53


# a first output that selects layer idx with magnitude n: normal draws take
# the layer from bits 0-7, the sign from bit 8 and 52 magnitude bits above;
# exponential draws ignore bits 0-2 and take the layer from bits 3-10 and
# 53 magnitude bits above
LAYOUT = {"normal": (lambda idx, n, sign=0: (n << 9) | (sign << 8) | idx, 52, _ziggurat.KI),
          "exponential": (lambda idx, n, sign=0: (n << 11) | (idx << 3), 53, _ziggurat.KE)}


@pytest.mark.parametrize("kind", sorted(LAYOUT))
def test_every_wedge_test_accepts_and_rejects_as_numpy_does(kind):
    first, bits, threshold = LAYOUT[kind]
    rand = random.Random(kind)
    draw = (lambda g: g.normal(0.5, 2.0)) if kind == "normal" else (lambda g: g.exponential(2.0))
    for idx in range(1, 256):
        outcomes = set()
        for n in (threshold[idx], (1 << bits) - 1, rand.randrange(threshold[idx], 1 << bits)):
            for k in (0, 1 << 52, (1 << 53) - 1, rand.randrange(1 << 53)):
                y = first(idx, n, sign=rand.randrange(2))
                z = second(y, k)
                ours, theirs = at_state(*crafted(y, z))
                assert draw(ours).hex() == float(draw(theirs)).hex(), (idx, n, k)
                assert (ours.state, ours.inc) == numpy_state(theirs), (idx, n, k)
                # accepted at the second output, or rejected and drawn again
                outcomes.add(ours.state == z)
        assert outcomes == {True, False}, idx


@pytest.mark.parametrize("kind", sorted(LAYOUT))
def test_both_tails_match_numpy(kind):
    first, bits, threshold = LAYOUT[kind]
    rand = random.Random(kind)
    draw = (lambda g: g.normal(0.0, 1.0)) if kind == "normal" else (lambda g: g.exponential(1.0))
    r = _ziggurat.NOR_R if kind == "normal" else _ziggurat.EXP_R
    for _ in range(200):
        # a normal tail draw takes its sign from bit 8 of the magnitude, not from the sign bit
        y = first(0, rand.randrange(threshold[0], 1 << bits), sign=rand.randrange(2))
        ours, theirs = at_state(*crafted(y, second(y, rand.randrange(1 << 53))))
        value = draw(ours)
        assert value.hex() == float(draw(theirs)).hex()
        assert (ours.state, ours.inc) == numpy_state(theirs)
        assert abs(value) >= r


@pytest.mark.parametrize("call,args", [
    ("normal", (0.0, -1.0)), ("normal", (0.0, -0.0)), ("normal", (0.0, float("nan"))),
    ("exponential", (-2.0,)), ("exponential", (-0.0,)), ("exponential", (float("inf"),)),
    ("uniform", (1.0, 0.0)), ("uniform", (0.0, -0.0)), ("uniform", (-1e308, 1e308)),
    ("uniform", (0.0, float("nan"))), ("uniform", (float("inf"), float("inf"))),
])
def test_a_bad_parameter_fails_as_in_numpy_and_draws_nothing(call, args):
    ours, theirs = Pcg64(7), np.random.default_rng(7)
    try:
        want = float(getattr(theirs, call)(*args))
    except (ValueError, OverflowError) as e:
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            getattr(ours, call)(*args)
        assert (ours.state, ours.inc) == numpy_state(theirs)
        assert numpy_state(theirs) == numpy_state(np.random.default_rng(7))
    else:
        assert getattr(ours, call)(*args).hex() == want.hex()


def test_the_script_derives_the_embedded_tables_from_numpy():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "ziggurat_tables.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    with open(_ziggurat.__file__, encoding="utf-8") as fh:
        assert done.stdout == fh.read()
