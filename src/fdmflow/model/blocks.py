"""Bit-true block semantics.

Every abstraction level in the toolchain evaluates blocks through the
step functions that ``block_fn`` binds, so a value computed at the
functional level is reproduced bit for bit after partitioning, behavior
generation, FSM synthesis and hardware refinement.  The simulators bind
each block once, when they are built.  Samples are 32-bit two's-complement
integers with wrapping arithmetic.

``user`` and ``for_loop`` blocks call the functions of the one constant
table ``USER_FUNCTIONS``; every stage reads it directly, so no stage takes
or passes a function table of its own.
"""

from __future__ import annotations

_MASK = (1 << 32) - 1


def wrap32(x: int) -> int:
    """Reduce an integer to 32-bit two's complement."""
    return ((x + (1 << 31)) & _MASK) - (1 << 31)


def _clip(x: int) -> int:
    return max(-(1 << 20), min((1 << 20) - 1, x))


# The functions ``user(name)`` and ``for_loop(n, name)`` blocks may call:
# name -> (input ports, output ports, fn).  A model file names only these,
# so it stays self-contained.
USER_FUNCTIONS = {
    "inc": (("in",), ("out",), lambda x: (wrap32(x + 1),)),
    "dbl": (("in",), ("out",), lambda x: (wrap32(2 * x),)),
    "huff": (("in",), ("out",), lambda x: (wrap32((x << 3) ^ (x >> 2) ^ 0x2B),)),
    "clip": (("in",), ("out",), lambda x: (_clip(x),)),
    "frame_reader": (("in",), ("out",), lambda x: (wrap32(x ^ 0x55),)),
    "pcm_writer": (("in",), ("out",), lambda x: (x,)),
    "mix2": (("in1", "in2"), ("out",), lambda a, b: (wrap32(a + b - (b >> 1)),)),
}


# kind -> (param shape, fixed input ports, fixed output ports)
# Variadic kinds (fir, mux, demux, user) are resolved by port_names().
_FIXED_PORTS = {
    "const": ((), ("out",)),
    "add": (("in1", "in2"), ("out",)),
    "sub": (("in1", "in2"), ("out",)),
    "mul": (("in1", "in2"), ("out",)),
    "gain": (("in",), ("out",)),
    "delay": (("in",), ("out",)),
    "fir": (("in",), ("out",)),
    "quant": (("in",), ("out",)),
    "if_else": (("pred", "a", "b"), ("out",)),
    "for_loop": (("in",), ("out",)),
    "sink": (("in",), ()),
}

KIND_NAMES = set(_FIXED_PORTS) | {"mux", "demux", "user"}


def port_names(kind: str, params: tuple):
    """Return (input ports, output ports) for a block kind."""
    if kind == "mux":
        n = params[0]
        return ("sel",) + tuple(f"in{i}" for i in range(n)), ("out",)
    if kind == "demux":
        n = params[0]
        return ("sel", "in"), tuple(f"out{i}" for i in range(n))
    if kind == "user":
        # an unknown function gets one in and one out; validation reports it
        return USER_FUNCTIONS.get(params[0], (("in",), ("out",)))[:2]
    return _FIXED_PORTS[kind]


def init_state(kind: str, params: tuple):
    """Zero-initialized per-block state (delay queue, fir history)."""
    if kind == "delay":
        return (0,) * params[0]
    if kind == "fir":
        return (0,) * (len(params) - 1)
    return None


def _quant(v: int, step: int) -> int:
    q = abs(v) // abs(step)
    if (v < 0) != (step < 0):
        q = -q
    return wrap32(q * step)


def block_fn(kind: str, params: tuple):
    """Bind one block: return ``fn(inputs, state) -> (outputs, state')``.

    This is the one definition of what every block kind does.  The kind,
    the params and any user or loop function are resolved here, once, so a
    simulator that binds its blocks when it is built decodes nothing per
    tick.  All non-delay kinds have zero algorithmic delay; delay(k) emits
    the oldest queued sample and enqueues the input.
    """
    if kind == "const":
        out = (wrap32(params[0]),)
        return lambda inputs, state: (out, state)
    if kind == "add":
        return lambda inputs, state: ((wrap32(inputs[0] + inputs[1]),), state)
    if kind == "sub":
        return lambda inputs, state: ((wrap32(inputs[0] - inputs[1]),), state)
    if kind == "mul":
        return lambda inputs, state: ((wrap32(inputs[0] * inputs[1]),), state)
    if kind == "gain":
        g = params[0]
        return lambda inputs, state: ((wrap32(g * inputs[0]),), state)
    if kind == "delay":
        return lambda inputs, state: ((state[0],), state[1:] + (inputs[0],))
    if kind == "fir":
        c0, taps = params[0], params[1:]

        def fir(inputs, state):
            acc = c0 * inputs[0]
            for c, h in zip(taps, state):
                acc += c * h
            new = (inputs[0],) + state[:-1] if state else state
            return (wrap32(acc),), new
        return fir
    if kind == "quant":
        step = params[0]
        return lambda inputs, state: ((_quant(inputs[0], step),), state)
    if kind == "if_else":
        return lambda inputs, state: (
            (inputs[1] if inputs[0] != 0 else inputs[2],), state)
    if kind == "for_loop":
        n, fname = params
        fn = USER_FUNCTIONS[fname][2]

        def for_loop(inputs, state):
            v = inputs[0]
            for _ in range(n):
                v = wrap32(fn(v)[0])
            return (v,), state
        return for_loop
    if kind == "mux":
        n = params[0]
        return lambda inputs, state: ((inputs[1 + inputs[0] % n],), state)
    if kind == "demux":
        n = params[0]

        def demux(inputs, state):
            sel = inputs[0] % n
            return tuple(inputs[1] if i == sel else 0 for i in range(n)), state
        return demux
    if kind == "user":
        fn = USER_FUNCTIONS[params[0]][2]
        return lambda inputs, state: (
            tuple([wrap32(v) for v in fn(*inputs)]), state)
    if kind == "sink":
        return lambda inputs, state: ((), state)
    raise ValueError(f"unknown block kind {kind!r}")
