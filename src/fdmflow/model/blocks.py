"""Bit-true block semantics, each block kind defined once as a source
template.

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


# kind -> template: an expression for the one output of a stateless kind,
# else a function of the parameters returning statement lines, which may
# be indented.  A delay emits in its first line and queues in the rest.
TEMPLATES = {
    "const": _W("{k0}"),
    "add": _W("{i0} + {i1}"),
    "sub": _W("{i0} - {i1}"),
    "mul": _W("{i0} * {i1}"),
    "gain": _W("{k0} * {i0}"),
    # |in| // |step| steps, toward zero, with the sign of in / step
    "quant": _W("abs({i0}) // abs({k0}) * ({k0} if ({i0} < 0) == ({k0} < 0)"
                " else -{k0})"),
    "if_else": "{i1} if {i0} != 0 else {i2}",
    "delay": lambda p: ["{o0} = {s0}"] + [
        f"{{s{j}}} = {{s{j + 1}}}" for j in range(p[0] - 1)] + [
        f"{{s{p[0] - 1}}} = {{i0}}"],
    "fir": _fir,
    "for_loop": lambda p: ["{o0} = {i0}", "for _ in range({k0}):",
                           "    {o0} = " + _W(USER_FUNCTIONS[p[1]][2][0]
                                              .format(x0="{o0}"))],
    "mux": lambda p: ["{o0} = (" + "".join(
        f"{{i{j}}}, " for j in range(1, p[0] + 1)) + ")[{i0} % {k0}]"],
    "demux": lambda p: ["sel = {i0} % {k0}"] + [
        f"{{o{j}}} = {{i1}} if sel == {j} else 0" for j in range(p[0])],
    "user": _user,
    "sink": lambda p: ["pass"],
}

KIND_NAMES = set(TEMPLATES)

# kind -> (fixed input ports, fixed output ports)
# Variadic kinds (mux, demux, user) are resolved by port_names().
_BINARY, _UNARY = (("in1", "in2"), ("out",)), (("in",), ("out",))
_FIXED_PORTS = {
    "const": ((), ("out",)), "add": _BINARY, "sub": _BINARY, "mul": _BINARY,
    "gain": _UNARY, "delay": _UNARY, "fir": _UNARY, "quant": _UNARY,
    "if_else": (("pred", "a", "b"), ("out",)), "for_loop": _UNARY,
    "sink": (("in",), ()),
}


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


# kind -> the slice of its parameters that its template's text depends
# on; every other parameter enters the text only as its name {kN}
_SHAPING = {"delay": slice(1), "for_loop": slice(1, 2), "mux": slice(1),
            "demux": slice(1), "user": slice(1)}


# one expansion per kind, text-shaping parameters and field counts; the
# generated 1,365-block design uses 16
@lru_cache(maxsize=256)
def _expand(kind: str, shape: tuple, *counts: int) -> tuple[str, ...]:
    """The template of ``kind`` as positional format strings, its fields
    numbered over the ``counts`` parameters, inputs, outputs and state
    cells in that order.  ``shape`` holds the text-shaping parameters; the
    template sees None for every other one."""
    params = [None] * counts[0]
    params[_SHAPING.get(kind, slice(0))] = shape
    t = TEMPLATES[kind]
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
    lines = _expand(kind, params[_SHAPING.get(kind, slice(0))], len(params),
                    len(ins), len(outs), len(cells))
    args = [*map(name, params), *ins, *outs, *cells]
    return [ln.format(*args) for ln in lines]
