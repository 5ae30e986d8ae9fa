"""Parameter templates and their attachment to the netlist.

Every module gets a cost_cycles entry; every port gets protocol, width
and addr_hint.  Templates start from defaults, the designer fills them
in, and attach_params binds them, rejecting missing or unknown keys.  A
value is an integer when it is ASCII decimal (``-?[0-9]+``), as in a
model, and a string otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .netlist import ColifNetlist
from .tree import Module, Port

PORT_KEYS = ("protocol", "width", "addr_hint")
MODULE_KEYS = ("cost_cycles",)
_DEFAULTS = {"protocol": "fifo", "width": 1, "addr_hint": "auto",
             "cost_cycles": 0}
_INT_MIN = {"width": 1, "cost_cycles": 0}  # integer keys, least values
_INT = re.compile(r"-?[0-9]+")  # an integer value, read as in a model


class ParamError(Exception):
    pass


@dataclass
class ModuleParams:
    module: dict = field(default_factory=dict)
    ports: dict = field(default_factory=dict)  # port name -> key/value dict


@dataclass
class ParamSet:
    entries: dict  # module path -> ModuleParams


def emit_param_templates(n: ColifNetlist) -> ParamSet:
    entries = {}
    for path, m in n.modules():
        mp = ModuleParams({k: _DEFAULTS[k] for k in MODULE_KEYS})
        for p in m.ports:
            mp.ports[p.name] = {k: _DEFAULTS[k] for k in PORT_KEYS}
        entries[path] = mp
    return ParamSet(entries)


def _check(loc: str, got: dict, want: tuple[str, ...]):
    missing = [k for k in want if k not in got]
    if missing:
        raise ParamError(f"{loc}: missing key {missing[0]!r}")
    unknown = [k for k in got if k not in want]
    if unknown:
        raise ParamError(f"{loc}: unknown key {unknown[0]!r}")
    for k in want:
        if k in _INT_MIN and not isinstance(got[k], int):
            raise ParamError(f"{loc}: {k} must be an integer, got {got[k]!r}")
        if k in _INT_MIN and got[k] < _INT_MIN[k]:
            raise ParamError(f"{loc}: {k} must be >= {_INT_MIN[k]}, got {got[k]}")


def _copy_module(m: Module) -> Module:
    """``m`` and its subtree with their own ports and params dicts, the
    parts ``attach_params`` rebinds; every other value is shared."""
    params = dict(m.params)
    if "port_hints" in params:
        params["port_hints"] = dict(params["port_hints"])
    return Module(m.name, m.kind,
                  [Port(q.name, q.direction, q.width, q.protocol)
                   for q in m.ports], params,
                  [_copy_module(c) for c in m.children])


def attach_params(n: ColifNetlist, p: ParamSet) -> ColifNetlist:
    """Bind a filled parameter set; the netlist is not modified in place."""
    out = ColifNetlist(_copy_module(n.top), list(n.nets))
    modules = dict(out.modules())
    for path in p.entries:
        if path not in modules:
            raise ParamError(f"parameters name unknown module {path}")
    for path, m in modules.items():
        mp = p.entries.get(path)
        if mp is None:
            raise ParamError(f"{path}: missing parameter entry")
        _check(path, mp.module, MODULE_KEYS)
        m.params.update(mp.module)
        declared = {port.name for port in m.ports}
        for pname in mp.ports:
            if pname not in declared:
                raise ParamError(f"{path}: parameters name unknown port {pname}")
        for port in m.ports:
            pv = mp.ports.get(port.name)
            if pv is None:
                raise ParamError(f"{path}.{port.name}: missing parameter entry")
            _check(f"{path}.{port.name}", pv, PORT_KEYS)
            port.protocol = str(pv["protocol"])
            port.width = pv["width"]
            m.params.setdefault("port_hints", {})[port.name] = pv["addr_hint"]
    return out


# ---------------------------------------------------------------------------
# on-disk form: one file per module, "key = value" lines


def _fname(path: str) -> str:
    return f"module.{path.replace('/', '.')}.params"


def param_files(p: ParamSet) -> dict[str, str]:
    files = {}
    for path, mp in p.entries.items():
        lines = [f"# {path}"]
        for k in MODULE_KEYS:
            lines.append(f"{k} = {mp.module.get(k, '')}")
        for pname, pv in mp.ports.items():
            for k in PORT_KEYS:
                lines.append(f"port.{pname}.{k} = {pv.get(k, '')}")
        files[_fname(path)] = "\n".join(lines) + "\n"
    return files


def load_param_files(files: dict[str, str]) -> ParamSet:
    entries = {}
    for fname, text in sorted(files.items()):
        if not (fname.startswith("module.") and fname.endswith(".params")):
            raise ParamError(f"unrecognized parameter file name {fname}")
        path = fname[len("module."):-len(".params")].replace(".", "/")
        mp = ModuleParams()
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParamError(f"{fname}:{ln}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            value: object = int(val) if _INT.fullmatch(val) else val
            if key.startswith("port."):
                parts = key.split(".", 2)
                if len(parts) != 3:
                    raise ParamError(
                        f"{fname}:{ln}: expected port.<port>.<key> = value")
                mp.ports.setdefault(parts[1], {})[parts[2]] = value
            else:
                mp.module[key] = value
        entries[path] = mp
    return ParamSet(entries)
