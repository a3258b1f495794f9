#!/usr/bin/env python3
"""Re-derive numpy's ziggurat tables by probing numpy, and print them as the
data module `logforge._ziggurat`.

    python3 scripts/ziggurat_tables.py > src/logforge/_ziggurat.py

Needs numpy.  `logforge.pcg64` draws numpy's normal and exponential variates
with 256-layer ziggurats whose tables (`wi`, `ki`, `fi` for the normal, `we`,
`ke`, `fe` for the exponential) and tail constants are numpy's data.  This
script reads them back from numpy's draws alone.  It sets the state of
numpy's PCG64 so that its next two outputs are any chosen y and z: with
`inc = z - y*M` and `state = (y - inc) * M**-1 (mod 2**128)`, one LCG step
gives the state y, whose XSL-RR output is y itself, and the next gives z.  A
probe is one draw from such a state; whether it returned after one, two or
more outputs is read from numpy's state afterwards.

- `wi` and `we` are the draws at rabs = 1 and ri = 1 (x = 1 * w).
- `ki` and `ke` are the smallest rabs and ri that a layer does not accept on
  its first output, found by bisection.
- `fi` and `fe` enter only the wedge test of a rejected first output, which
  accepts x iff `(f[i-1] - f[i]) * u + f[i] < density(x)` with u the second
  output's double.  Each entry starts as the density at the layer's outer
  edge (`wi * 2**52`, `we * 2**53`), with `f[0] = 1.0`, and candidates a few
  ulps around it are kept only while they predict every probe's outcome;
  probes are chosen where the surviving candidates disagree, until each entry
  is the one value that fits them all.
- The normal tail returns `r + xx` with `xx = -inv_r * log1p(-u)`, and the
  exponential tail `r - log1p(-u)`: at u = 0 they give `r` itself, and
  `inv_r` is pinned among its candidates by tail draws at other u.
"""
from __future__ import annotations

import math
import random
import sys

import numpy as np

M = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
MASK64, MASK128 = (1 << 64) - 1, (1 << 128) - 1
M_INV = pow(M, -1, 1 << 128)
K_END = 1 << 53  # the second output's double is k * 2**-53, k < K_END
WINDOW = 8  # ulps on each side of a wedge entry's first guess
LAYERS = 256


def crafted(y: int, k: int) -> tuple[int, int]:
    """The (state, inc) whose next two outputs are y and one whose double is
    k * 2**-53; that output's low bit, which its double drops, keeps inc odd."""
    z = (k << 11) | (~y & 1)
    inc = (z - y * M) & MASK128
    return ((y - inc) * M_INV) & MASK128, inc


def steps(state: int, inc: int, n: int) -> int:
    for _ in range(n):
        state = (state * M + inc) & MASK128
    return state


def double_of(state: int) -> float:
    """The double of a state's XSL-RR output."""
    v, r = ((state >> 64) ^ state) & MASK64, state >> 122
    return (((v >> r) | (v << (64 - r)) & MASK64) >> 11) * 2.0 ** -53


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"ziggurat_tables: {what}")


class Probe:
    """numpy's Generator, drawing from crafted states."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.PCG64(0))
        self.bit_generator = self.gen.bit_generator

    def draw(self, kind: str, y: int, k: int) -> tuple[float, int]:
        """numpy's standard `kind` draw from `crafted(y, k)`, and how many
        outputs it took (0 for more than 16)."""
        state, inc = crafted(y, k)
        self.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                    "state": {"state": state, "inc": inc}}
        value = float(getattr(self.gen, "standard_" + kind)())
        after = self.bit_generator.state["state"]["state"]
        for outputs in range(1, 17):
            state = steps(state, inc, 1)
            if state == after:
                return value, outputs
        return value, 0


class Ziggurat:
    """How numpy's draw of one kind lays out its first output."""

    def __init__(self, kind: str, bits: int, density):
        self.kind, self.bits, self.density = kind, bits, density

    def first(self, idx: int, n: int) -> int:
        """The first output that selects layer idx with magnitude n."""
        if self.kind == "normal":  # idx in bits 0-7, sign in bit 8, rabs from bit 9
            return (n << 9) | idx
        return (n << 11) | (idx << 3)  # bits 0-2 unused, idx in 3-10, ri from 11


NORMAL = Ziggurat("normal", 52, lambda x: math.exp(-0.5 * x * x))
EXPONENTIAL = Ziggurat("exponential", 53, lambda x: math.exp(-x))


def widths(probe: Probe, zig: Ziggurat) -> list[float]:
    out = []
    for idx in range(LAYERS):
        # accepted on the first output, or by the wedge test at u = 0
        value, outputs = probe.draw(zig.kind, zig.first(idx, 1), 0)
        expect(outputs in (1, 2), f"{zig.kind} layer {idx} rejects x = w")
        out.append(value)
    return out


def thresholds(probe: Probe, zig: Ziggurat) -> list[int]:
    out = []
    for idx in range(LAYERS):
        lo, hi = 0, 1 << zig.bits  # the first rejected magnitude lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if probe.draw(zig.kind, zig.first(idx, mid), 0)[1] == 1:
                lo = mid + 1
            else:
                hi = mid
        out.append(lo)
    return out


def flips(a: np.ndarray, b: np.ndarray, e: float) -> np.ndarray:
    """For each candidate pair (f[i-1], f[i]) = (a, b), the smallest k at
    which the wedge test rejects density e; K_END if it never does.  The
    wedge value is monotone in k, so this is a bisection, pair-wise."""
    lo, hi = np.zeros(a.shape, np.int64), np.full(a.shape, K_END, np.int64)
    d = a - b
    while (lo < hi).any():
        mid = (lo + hi) // 2
        rejects = d * (mid.astype(np.float64) * 2.0 ** -53) + b >= e
        hi = np.where(rejects, mid, hi)
        lo = np.where(rejects, lo, mid + 1)
    return lo


def around(x: float, n: int) -> list[float]:
    """x and the n doubles on each side of it."""
    out, up, down = [x], x, x
    for _ in range(n):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return sorted(out)


def wedges(probe: Probe, zig: Ziggurat, w: list[float], k: list[int]) -> list[float]:
    rand = random.Random(zig.kind)
    top = 1 << zig.bits
    f = [1.0]
    previous = [1.0]  # candidates still open for f[i-1]
    for idx in range(1, LAYERS):
        guess = zig.density(w[idx] * top)
        pairs = [(a, b) for a in previous for b in around(guess, WINDOW)]
        a, b = (np.array(c) for c in zip(*pairs))
        low = max(k[idx], 1)
        # magnitudes at both ends of the layer pin f[i-1] and f[i]; the rest spread
        ns = ([low + j for j in range(8)] + [top - 1 - j for j in range(8)]
              + [rand.randrange(low, top) for _ in range(48)])
        for n in ns:
            if a.size <= 1:
                break
            x = n * w[idx]
            e = zig.density(x)
            while a.size:
                at = flips(a, b, e)
                cuts = np.unique(at)
                if cuts.size == 1:
                    break
                cut = int(cuts[(cuts.size - 1) // 2])  # pairs flipping at or below it reject
                value, outputs = probe.draw(zig.kind, zig.first(idx, n), cut)
                accepted = outputs == 2 and value == x
                keep = (cut < at) == accepted
                a, b = a[keep], b[keep]
            expect(a.size > 0, f"{zig.kind} layer {idx}: no candidate fits the probes")
        expect(np.unique(a).size == 1, f"{zig.kind} layer {idx}: entry {idx - 1} is not pinned")
        f[idx - 1] = float(a[0])
        previous = sorted(set(b.tolist()))
        f.append(previous[0])
    expect(len(previous) == 1, f"{zig.kind}: the last entry is not pinned")
    return f


def tail_constants(probe: Probe, ki: list[int], ke: list[int]) -> tuple[float, float, float]:
    exp_r, outputs = probe.draw("exponential", EXPONENTIAL.first(0, (1 << 53) - 1), 0)
    expect(outputs == 2 and (1 << 53) - 1 >= ke[0], "the exponential tail takes two outputs")
    # rabs with bit 8 clear: the tail's sign is that bit, not the draw's sign bit
    rabs = ((1 << 52) - 1) & ~(1 << 8)
    nor_r, outputs = probe.draw("normal", NORMAL.first(0, rabs), 0)
    expect(outputs == 3 and rabs >= ki[0], "the normal tail takes three outputs")
    # xx = -inv_r * log1p(-u) with u the second output's double is accepted
    # iff yy + yy > xx * xx, with yy = -log1p(-u3) of the third output's double
    candidates = around(1.0 / nor_r, WINDOW)
    rand = random.Random("tail")
    for _ in range(4000):
        if len(candidates) == 1:
            return nor_r, candidates[0], exp_r
        y = NORMAL.first(0, rand.randrange(max(ki[0], 1 << 51), 1 << 52) & ~(1 << 8))
        k = rand.randrange(1, K_END // 2)
        value, outputs = probe.draw("normal", y, k)
        yy = -math.log1p(-double_of(steps(*crafted(y, k), 3)))
        kept = []
        for c in candidates:
            xx = -c * math.log1p(-k * 2.0 ** -53)
            if (yy + yy > xx * xx) == (outputs == 3) and (outputs != 3 or value == nor_r + xx):
                kept.append(c)
        candidates = kept
    raise SystemExit(f"ziggurat_tables: the normal tail's inverse r is not pinned: {candidates}")


def derive() -> dict:
    """Every table and constant, by name, as `logforge._ziggurat` holds them."""
    probe = Probe()
    wi, we = widths(probe, NORMAL), widths(probe, EXPONENTIAL)
    ki, ke = thresholds(probe, NORMAL), thresholds(probe, EXPONENTIAL)
    nor_r, nor_inv_r, exp_r = tail_constants(probe, ki, ke)
    return {"NOR_R": nor_r, "NOR_INV_R": nor_inv_r, "EXP_R": exp_r,
            "WI": wi, "KI": ki, "FI": wedges(probe, NORMAL, wi, ki),
            "WE": we, "KE": ke, "FE": wedges(probe, EXPONENTIAL, we, ke)}


def module_text(tables: dict) -> str:
    lines = ['"""numpy\'s ziggurat tables for the normal and exponential draws of',
             "`logforge.pcg64`, as `scripts/ziggurat_tables.py` derives them from numpy.",
             "Generated by that script; do not edit.", '"""', ""]
    for name, value in tables.items():
        if isinstance(value, float):
            lines.append(f"{name} = {value!r}")
    for name, value in tables.items():
        if isinstance(value, list):
            lines += ["", f"{name} = ("]
            for i in range(0, len(value), 4):
                lines.append("    " + " ".join(f"{v!r}," for v in value[i:i + 4]))
            lines.append(")")
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.stdout.write(module_text(derive()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
