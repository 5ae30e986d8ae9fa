"""The host-speed reference: a fixed miniature of level-0 simulation.

On a shared host the CPU speed drifts by up to 2x, in phases of a few
seconds and over minutes, as other tenants come and go.  The benchmark
times `reference_work` between every two operations and scales each
operation's time by REFERENCE_S over the mean of the two reference times
around it, so a sample taken while the host runs 20 % slow reads about the
same as one taken on a quiet host.

The reference evaluates a 48-block dataflow chain tick by tick the way
`Level0Sim.tick` does (tuple-keyed pin dicts, per-kind step functions,
tuple states), because a reference that does the same kind of work speeds
up and slows down with the host as the simulators do; a tight arithmetic
loop gains more than they do in a fast phase.  It is the benchmark's own
code and imports nothing from fdmflow, so no change to the package moves
it.
"""

from __future__ import annotations

# A typical median time of `reference_work` on a shared 2-vCPU Linux VM with
# Python 3.11 (run medians ranged 0.028-0.034 s over an hour): every
# end-to-end time is scaled to a host of that speed.
REFERENCE_S = 0.03

KINDS = ("gain", "add", "quant", "delay", "fir", "clip")
TICKS = 350


def _chain(n: int = 48) -> dict:
    """path -> (kind, params, driver pins), in evaluation order."""
    blocks = {}
    for i in range(n):
        kind = KINDS[i % len(KINDS)]
        srcs = (("top", "x") if i == 0 else (f"top/b{i - 1}", "out"),)
        if kind == "add":
            srcs += ((f"top/b{i // 2}", "out"),)
        blocks[f"top/b{i}"] = (kind, {"k": i % 5 + 1, "taps": (1, 2, 1)},
                               srcs)
    return blocks


BLOCKS = _chain()


def _step(kind: str, params: dict, vals: tuple, state: tuple):
    if kind == "gain":
        return (vals[0] * params["k"],), state
    if kind == "add":
        return (vals[0] + vals[1],), state
    if kind == "quant":
        return ((vals[0] >> 1) << 1,), state
    if kind == "delay":
        return (state[0],), state[1:] + (vals[0],)
    if kind == "fir":
        hist = (vals[0],) + state[:2]
        return (sum(t * h for t, h in zip(params["taps"], hist)),), hist
    return (max(-512, min(511, vals[0])),), state


def reference_work() -> int:
    states = {path: (0, 0, 0) for path in BLOCKS}
    out = []
    for t in range(TICKS):
        pins = {("top", "x"): t * 7 % 97}
        for path, (kind, params, srcs) in BLOCKS.items():
            vals = tuple(pins[s] for s in srcs)
            outs, states[path] = _step(kind, params, vals, states[path])
            pins[(path, "out")] = outs[0] & 0xFFFF
        out.append(pins[(path, "out")])
    return sum(out)
