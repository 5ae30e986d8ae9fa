"""Bit-true block semantics: each block kind is one record of ``KINDS``.

A record (``Kind``) holds all that the stages read of a kind: its source
template, its ports, the argument signature the parser checks, the value
rules validation checks, its zero state, the parameters that shape its
text and the RTL IP hardware synthesis maps it to; a new kind is one
entry.

Every simulator splices the templates into the code it generates (the
block sweeps of level 0 and of the hardware models, the behaviors of
levels 1 and 2, the FSM states of level 3), so a value computed at the
functional level is reproduced bit for bit at every level.  Samples are
32-bit two's-complement integers with wrapping arithmetic.  A template
fills in the inputs ``{i0}``, ..., the output targets ``{o0}``, ..., the
state cells ``{s0}``, ... and the parameters ``{k0}``, ...: a parameter
is a name the generator binds to its value (``sim.sweep.Names``), so
``gain(3)`` and ``gain(5)`` share one text.  User functions are
templates too: ``user`` and ``for_loop`` blocks splice the expressions of
their function in the one constant table ``USER_FUNCTIONS``.
``block_src`` expands each template once per shape into positional format
strings, so a template or expression holds a brace only in a field.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

# The functions ``user(name)`` and ``for_loop(n, name)`` blocks may call:
# name -> (input ports, output ports, one expression per output over the
# inputs {x0}, {x1}, ...).  A model file names only these.
USER_FUNCTIONS = {
    "inc": (("in",), ("out",), ("{x0} + 1",)),
    "dbl": (("in",), ("out",), ("2 * {x0}",)),
    "huff": (("in",), ("out",), ("({x0} << 3) ^ ({x0} >> 2) ^ 0x2B",)),
    "clip": (("in",), ("out",), ("-1048576 if {x0} < -1048576 else 1048575"
                                 " if {x0} > 1048575 else {x0}",)),
    "frame_reader": (("in",), ("out",), ("{x0} ^ 0x55",)),
    "pcm_writer": (("in",), ("out",), ("{x0}",)),
    "mix2": (("in1", "in2"), ("out",), ("{x0} + {x1} - ({x1} >> 1)",)),
}

# user functions with a shipped RTL implementation (name -> latency)
RTL_USER_INDEX: dict[str, int] = {"clip": 2}


def _W(e: str) -> str:
    """``e`` wrapped to 32 bits inline: ``e`` is evaluated once, into the
    local ``w``, and a value in range is kept without arithmetic."""
    return (f"(w if -0x80000000 <= (w := {e}) < 0x80000000"
            " else ((w + 0x80000000) & 0xFFFFFFFF) - 0x80000000)")


def _fir(p):
    """out = c0 * in + c1 * s0 + ...; the history then shifts in ``in``."""
    acc = " + ".join(["{k0} * {i0}"] + [
        f"{{k{j + 1}}} * {{s{j}}}" for j in range(len(p) - 1)])
    return ["{o0} = " + _W(acc)] + [
        f"{{s{j}}} = {{s{j - 1}}}" for j in range(len(p) - 2, 0, -1)] + \
        ["{s0} = {i0}"][:len(p) - 1]


def _user(p):
    """The outputs, at once, each its function's expression wrapped."""
    ins, outs, exprs = USER_FUNCTIONS[p[0]]
    xs = {f"x{j}": f"{{i{j}}}" for j in range(len(ins))}
    return [", ".join(f"{{o{j}}}" for j in range(len(outs))) + " = " +
            ", ".join(_W(e.format_map(xs)) for e in exprs)]


def _takes(*types):
    """An argument check: one argument of each of ``types``, in order."""
    return lambda args: len(args) == len(types) and \
        all(map(isinstance, args, types))


def _rule(test, message: str):
    """A value rule: ``message`` formatted with the parameters, or None."""
    return lambda p: message.format(*p) if test(p) else None


class Kind(NamedTuple):
    """Every fact about one block kind; ``ports`` and ``ip`` are values,
    or functions of the parameters returning them."""

    # an expression for the one output of a stateless kind, else a function
    # of the parameters returning statement lines, which may be indented
    template: str | Callable
    ports: tuple | Callable  # (input ports, output ports)
    args: tuple  # (the parser's check of the arguments, its message)
    # the RTL IP: (name, default latency, "pipelined" | "multicycle"); the
    # latencies are uncalibrated placeholders that cost_cycles overrides
    ip: tuple | Callable
    rules: tuple = ()  # validation's, in order: a message or None each
    state: Callable | None = None  # the zero state of the block's cells
    shaping: slice = slice(0)  # the parameters the template's text reads


_BINARY, _UNARY = (("in1", "in2"), ("out",)), (("in",), ("out",))
_ONE_INT = (_takes(int), "expected one integer parameter")
_NO_ARGS = (_takes(), "takes no parameters")

KINDS = {
    "const": Kind(_W("{k0}"), ((), ("out",)), _ONE_INT,
                  ("const_reg", 0, "pipelined")),
    "add": Kind(_W("{i0} + {i1}"), _BINARY, _NO_ARGS,
                ("adder", 0, "pipelined")),
    "sub": Kind(_W("{i0} - {i1}"), _BINARY, _NO_ARGS,
                ("subtractor", 0, "pipelined")),
    "mul": Kind(_W("{i0} * {i1}"), _BINARY, _NO_ARGS,
                ("multiplier", 1, "pipelined")),
    "gain": Kind(_W("{k0} * {i0}"), _UNARY, _ONE_INT,
                 ("scaler", 0, "pipelined")),
    # |in| // |step| steps, toward zero, with the sign of in / step
    "quant": Kind(_W("abs({i0}) // abs({k0}) * ({k0} if ({i0} < 0) == "
                     "({k0} < 0) else -{k0})"), _UNARY, _ONE_INT,
                  ("quantizer", 1, "pipelined"),
                  rules=(_rule(lambda p: p[0] == 0,
                               "quant step must be non-zero"),)),
    "if_else": Kind("{i1} if {i0} != 0 else {i2}",
                    (("pred", "a", "b"), ("out",)), _NO_ARGS,
                    ("selector", 0, "pipelined")),
    # emits in its first line and queues in the rest
    "delay": Kind(lambda p: ["{o0} = {s0}"] + [
        f"{{s{j}}} = {{s{j + 1}}}" for j in range(p[0] - 1)] + [
        f"{{s{p[0] - 1}}} = {{i0}}"], _UNARY, _ONE_INT,
        ("delay_line", 0, "pipelined"),
        rules=(_rule(lambda p: p[0] < 1, "delay parameter k must be >= 1"),),
        state=lambda p: (0,) * p[0], shaping=slice(1)),
    "fir": Kind(_fir, _UNARY, (lambda a: a and all(
        isinstance(x, int) for x in a), "expected one or more integer taps"),
        # 1 + ceil(log2(taps)) cycles
        lambda p: ("fir_core", 1 + (len(p) - 1).bit_length(), "pipelined"),
        state=lambda p: (0,) * (len(p) - 1)),
    "for_loop": Kind(
        lambda p: ["{o0} = {i0}", "for _ in range({k0}):",
                   "    {o0} = " + _W(USER_FUNCTIONS[p[1]][2][0]
                                      .format(x0="{o0}"))],
        _UNARY, (_takes(int, str), "expected (count, body-function)"),
        lambda p: ("loop_engine", p[0], "multicycle"),
        rules=(_rule(lambda p: p[0] < 1, "for_loop count must be >= 1"),
               _rule(lambda p: p[1] not in USER_FUNCTIONS,
                     "unknown loop body function {1!r}"),
               _rule(lambda p: USER_FUNCTIONS.get(p[1], _UNARY)[:2] != _UNARY,
                     "loop body function {1!r} must have one input and "
                     "one output")),
        shaping=slice(1, 2)),
    "mux": Kind(lambda p: ["{o0} = (" + "".join(
        f"{{i{j}}}, " for j in range(1, p[0] + 1)) + ")[{i0} % {k0}]"],
        lambda p: (("sel",) + tuple(f"in{i}" for i in range(p[0])),
                   ("out",)), _ONE_INT, ("mux", 0, "pipelined"),
        rules=(_rule(lambda p: p[0] < 1, "mux way count must be >= 1"),),
        shaping=slice(1)),
    "demux": Kind(lambda p: ["sel = {i0} % {k0}"] + [
        f"{{o{j}}} = {{i1}} if sel == {j} else 0" for j in range(p[0])],
        lambda p: (("sel", "in"), tuple(f"out{i}" for i in range(p[0]))),
        _ONE_INT, ("demux", 0, "pipelined"),
        rules=(_rule(lambda p: p[0] < 1, "demux way count must be >= 1"),),
        shaping=slice(1)),
    # an unknown function gets one in and one out; validation reports it
    "user": Kind(_user, lambda p: USER_FUNCTIONS.get(p[0], _UNARY)[:2],
                 (_takes(str), "expected a function name"),
                 lambda p: (f"u_{p[0]}", RTL_USER_INDEX.get(p[0], 1),
                            "multicycle"),
                 rules=(_rule(lambda p: p[0] not in USER_FUNCTIONS,
                              "unknown user function {0!r}"),),
                 shaping=slice(1)),
    "sink": Kind(lambda p: ["pass"], (("in",), ()), _NO_ARGS,
                 ("probe", 0, "pipelined")),
}


def port_names(kind: str, params: tuple):
    """Return (input ports, output ports) for a block kind."""
    ports = KINDS[kind].ports
    return ports(params) if callable(ports) else ports


def init_state(kind: str, params: tuple):
    """Zero-initialized per-block state (delay queue, fir history)."""
    state = KINDS[kind].state
    return state(params) if state else None


# one expansion per kind, text-shaping parameters and field counts; the
# generated 1,365-block design uses 16
@lru_cache(maxsize=256)
def _expand(kind: str, shape: tuple, *counts: int) -> tuple[str, ...]:
    """The template of ``kind`` as positional format strings, its fields
    numbered over the ``counts`` parameters, inputs, outputs and state
    cells in that order.  ``shape`` holds the text-shaping parameters; the
    template sees None for every other one."""
    params = [None] * counts[0]
    params[KINDS[kind].shaping] = shape
    t = KINDS[kind].template
    lines = ["{o0} = " + t] if isinstance(t, str) else t(params)
    fields = [f"{c}{j}" for c, n in zip("kios", counts) for j in range(n)]
    pos = {f: f"{{{i}}}" for i, f in enumerate(fields)}
    return tuple(ln.format_map(pos) for ln in lines)


def block_src(kind: str, params: tuple, ins, outs, cells, name) -> list:
    """The lines firing one block: its template with ``name(value)`` for
    each parameter, in order, and the source texts ``ins``, ``outs`` and
    ``cells`` filled in.  The template is expanded once per shape
    (``_expand``), so a call only names the parameters and fills each line
    with one ``str.format``."""
    lines = _expand(kind, params[KINDS[kind].shaping], len(params),
                    len(ins), len(outs), len(cells))
    args = [*map(name, params), *ins, *outs, *cells]
    return [ln.format(*args) for ln in lines]
