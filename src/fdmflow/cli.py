"""Command-line frontend.

One binary with subcommands mirroring the stage boundaries: check, flow,
gma, synth-sw, synth-hw, simulate, compare, report.  Exit codes: 0
success, 1 diagnostics or failed verdicts, 2 usage or I/O problems.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .flow import CompiledDesign, FlowError, compile_design, \
    default_stimulus, load_model_file, run_flow, simulate
from .gma import netlist_to_json, param_files
from .gma.behavior import format_behavior
from .gma.params import ParamError, load_param_files
from .hwsynth import emit_rtl_text
from .model.parser import ParseError, parse_model
from .model.validate import validate_model
from .sim.interp import SimError
from .sim.trace import PortSetMismatch, Stimulus, Trace, compare_traces
from .swsynth import format_address_map, format_fsm
from .tlm import recognize_partition, validate_partition


def _read_model(path: str):
    try:
        return load_model_file(path)
    except OSError as e:
        raise _Usage(f"cannot read model: {e}")
    except ParseError as e:
        raise _Fail(str(e))


class _Fail(Exception):
    pass


class _Usage(Exception):
    pass


def _load_params(pdir: str | None):
    if pdir is None:
        return None
    d = Path(pdir)
    if not d.is_dir():
        raise _Usage(f"params directory not found: {pdir}")
    files = {p.name: p.read_text() for p in sorted(d.iterdir())
             if p.name.endswith(".params")}
    return load_param_files(files)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("FLOW_OUT")
    if not out:
        raise _Usage("no output directory (use --out or FLOW_OUT)")
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _compile(args) -> CompiledDesign:
    model = _read_model(args.model)
    try:
        return compile_design(model, _load_params(args.params))
    except (FlowError, ParamError) as e:
        raise _Fail(str(e))


def cmd_check(args) -> int:
    model = _read_model(args.model)
    report = validate_model(model)
    diags = list(report.diagnostics)
    if report.ok:
        tlm = recognize_partition(model)
        diags += validate_partition(tlm).diagnostics
    bad = False
    for d in diags:
        print(f"{d.severity}: {d.location}: {d.message}")
        if d.cycle:
            print(f"  cycle: {' -> '.join(d.cycle)}")
        bad = bad or d.severity == "error"
    return 1 if bad else 0


def cmd_flow(args) -> int:
    out = _out_dir(args)
    model = _read_model(args.model)
    levels = _parse_levels(args.level)
    try:
        res = run_flow(model, out, params=_load_params(args.params),
                       levels=levels, ticks=args.ticks, seed=args.seed,
                       compare_mode=args.compare)
    except (FlowError, ParamError) as e:
        print(str(e), file=sys.stderr)
        return 1
    for label, v in res.verdicts:
        print(f"{label}: {v}")
    for node in sorted(res.hw_latency):
        print(f"hw {node}: latency/interval {res.hw_latency[node]}")
    return 0 if res.ok else 1


def cmd_gma(args) -> int:
    out = _out_dir(args)
    cd = _compile(args)
    (out / "netlist.colif.json").write_text(netlist_to_json(cd.netlist))
    pdir = out / "params"
    pdir.mkdir(exist_ok=True)
    for fname, text in sorted(param_files(cd.params).items()):
        (pdir / fname).write_text(text)
    bdir = out / "behaviors"
    bdir.mkdir(exist_ok=True)
    for name in sorted(cd.behaviors):
        fname = name.replace("/", ".") + ".behavior.txt"
        (bdir / fname).write_text(format_behavior(cd.behaviors[name]))
    print(f"wrote netlist, {len(cd.params.entries)} parameter files, "
          f"{len(cd.behaviors)} behaviors to {out}")
    return 0


def cmd_synth_sw(args) -> int:
    out = _out_dir(args)
    cd = _compile(args)
    for name in sorted(cd.macro_fsms):
        safe = name.replace("/", ".")
        (out / f"{safe}.fsm.txt").write_text(format_fsm(cd.macro_fsms[name]))
        (out / f"{safe}.micro.fsm.txt").write_text(
            format_fsm(cd.micro_fsms[name]))
    (out / "address_map.txt").write_text(format_address_map(cd.address_map))
    print(f"wrote {len(cd.macro_fsms)} FSMs and the address map to {out}")
    return 0


def cmd_synth_hw(args) -> int:
    out = _out_dir(args)
    cd = _compile(args)
    for node in sorted(cd.hw_impl):
        impl = cd.hw_impl[node]
        (out / f"{node}.rtl.txt").write_text(emit_rtl_text(impl[1]))
        print(f"{node}: {impl[0]}, latency/interval {cd.hw_latency[node]}")
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    cd = _compile(args)
    levels = _parse_levels(args.level)
    if args.stimulus:
        try:
            stim = Stimulus.load(args.stimulus)
        except OSError as e:
            raise _Usage(f"cannot read stimulus: {e}")
    else:
        stim = default_stimulus(cd.model, args.ticks, args.seed)
    for level in levels:
        tr = simulate(level, cd, stim, args.ticks)
        path = out / f"level{level}.trace"
        tr.save(path)
        print(f"level {level}: {sum(len(v) for v in tr.ports.values())} "
              f"records -> {path}")
    return 0


def cmd_compare(args) -> int:
    try:
        a = Trace.load(args.a)
        b = Trace.load(args.b)
    except OSError as e:
        raise _Usage(f"cannot read trace: {e}")
    try:
        v = compare_traces(a, b, args.compare)
    except PortSetMismatch as e:
        print(f"FAIL [{args.compare}] {e}")
        return 1
    print(str(v))
    return 0 if v.passed else 1


def cmd_report(args) -> int:
    out = _out_dir(args)
    tpath = out / "timings.json"
    if not tpath.is_file():
        raise _Usage(f"no timings.json in {out}; run the flow first")
    timings = {int(k): float(v) for k, v in
               json.loads(tpath.read_text()).items()}
    if len(timings) < 2:
        print("need at least two timed levels", file=sys.stderr)
        return 1
    rows = []
    base = timings[min(timings)]
    for level in sorted(timings):
        tr_path = out / "traces" / f"level{level}.trace"
        units = "cycles" if level >= 2 else "ticks"
        n = 0
        if tr_path.is_file():
            tr = Trace.load(tr_path)
            n = max((len(v) for v in tr.ports.values()), default=0)
        ratio = timings[level] / base if base > 0 else float("inf")
        rows.append((level, f"{n} {units}", timings[level], ratio))
    ordered = all(a[2] <= b[2] for a, b in zip(rows, rows[1:]))
    if args.report == "csv":
        print("level,simulated,wall_seconds,ratio_to_fastest")
        for level, n, t, r in rows:
            print(f"{level},{n},{t:.6f},{r:.2f}")
    else:
        print("| level | simulated | wall-clock (s) | ratio |")
        print("|---|---|---|---|")
        for level, n, t, r in rows:
            print(f"| {level} | {n} | {t:.6f} | {r:.2f}x |")
    print("ratios are machine-specific, not calibrated figures")
    if not ordered:
        print("warning: wall-clock times are not monotone in level")
        return 1
    return 0


def _parse_levels(spec: str):
    try:
        levels = tuple(sorted({int(x) for x in spec.split(",") if x != ""}))
    except ValueError:
        raise _Usage(f"bad --level value {spec!r}")
    if not levels or any(not 0 <= x <= 3 for x in levels):
        raise _Usage(f"bad --level value {spec!r}")
    return levels


def _add_model(p, params=True):
    p.add_argument("--model", required=True, help="model file (.fdm)")
    if params:
        p.add_argument("--params", default=None,
                       help="directory of filled parameter files")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fdmflow",
        description="multilevel refinement flow for block-diagram models")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="parse and validate a model")
    _add_model(p, params=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("flow", help="run every stage and compare levels")
    _add_model(p)
    p.add_argument("--out", default=None)
    p.add_argument("--level", default="0,1,2,3")
    p.add_argument("--ticks", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compare", default=None,
                   choices=["exact", "modulo_latency", "values_only"])
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("gma", help="emit netlist, parameters and behaviors")
    _add_model(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gma)

    p = sub.add_parser("synth-sw", help="emit task FSMs and the address map")
    _add_model(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_synth_sw)

    p = sub.add_parser("synth-hw", help="emit hardware structure per node")
    _add_model(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_synth_hw)

    p = sub.add_parser("simulate", help="simulate at selected levels")
    _add_model(p)
    p.add_argument("--out", default=None)
    p.add_argument("--level", default="0")
    p.add_argument("--ticks", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stimulus", default=None, help="stimulus csv file")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="compare two trace files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--compare", default="exact",
                   choices=["exact", "modulo_latency", "values_only"])
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("report", help="tabulate per-level simulation cost")
    p.add_argument("--out", default=None)
    p.add_argument("--report", default="markdown",
                   choices=["markdown", "csv"])
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _Usage as e:
        print(str(e), file=sys.stderr)
        return 2
    except _Fail as e:
        print(str(e), file=sys.stderr)
        return 1
    except SimError as e:
        print(f"simulation failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
