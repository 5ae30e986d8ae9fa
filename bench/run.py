"""fdmflow benchmark: compile time, per-level simulation cost and verdicts.

Run from the repository root; it imports the package from ``src/``:

    python3 bench/run.py --workload codec_long --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Each workload is a closed loop with one client in one thread: it repeats a
round of operations (set-up, one full flow, one simulation per level, trace
verdicts) until ``--seconds`` have passed, always finishing the first round.
Between every two operations it times a fixed host-speed reference
(``reference.py``); each sample is scaled by the references around it, and
each metric is the median of its scaled samples.  Every sample's output is
checked; ``bench/WORKLOADS.md`` says why each workload exists and which
per-layer metric should move which end-to-end metric.

With ``--trace 1`` the run wraps every layer's entry points (see
``tracer.py``), runs whole rounds and reports per-layer self times and
counts instead; these times are not scaled.  Times are host wall time on
this process's clock; cycles, bus transactions and trace records are
modelled quantities.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every output is correct, 1 when a check fails, 2 when the package is not
there or the arguments are wrong (then nothing is printed to stdout).
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from gen_wide import generate
from reference import REFERENCE_S, reference_work
from tracer import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CODEC = SRC / "fdmflow" / "models" / "mini_codec.fdm"
WORK = ROOT / ".bench_work"

# SHA-256 of the level-0 trace file of mini_codec for the CLI defaults
# (seed 0, 256 ticks), as `fdmflow simulate --level 0` writes it, pinned
# when this benchmark was added: a reference that no other level derives.
PINNED_L0_SHA256 = \
    "d899d76d72dbca30ce13ab76cabfabcebfd71d6d1572fd5f7b963b09dcac5f20"
DIGEST_SEED, DIGEST_TICKS = 0, 256

# The compare_mutant candidate: one block of HW_post changed.
MUTATION = ("block rnd : quant(2);", "block rnd : quant(4);")
LEVELS = (0, 1, 2, 3)
WIDE_SIZE = 50  # tasks, and HW nodes, of the wide_gen design


@dataclass(frozen=True)
class Workload:
    name: str
    sim_ticks: int  # input ticks per simulate(level) sample
    flow_ticks: int  # input ticks per run_flow sample
    flows: int  # run_flow samples per round
    setups: int  # set-up samples per round
    setup_batch: int  # set-ups timed together as one sample
    verdicts: int  # verdict samples per round
    verdict_batch: int  # verdict steps timed together as one sample
    sim_reps: tuple = (1, 1, 1, 1)  # simulate samples per level per round
    mutant_ticks: int = 0  # samples per compare_mutant trace file


# Each sample is scaled by the host-speed reference timed just before and
# just after it (see reference.py), and each metric is the median of its
# scaled samples over the whole run.  Short operations are batched into
# samples of 0.1 s or more.
WORKLOADS = {
    # Simulation dominates and compile is a few ms: evaluator and engine work.
    "codec_long": Workload(
        "codec_long", sim_ticks=2500, flow_ticks=2000, flows=2,
        setups=4, setup_batch=50, verdicts=4, verdict_batch=10,
        sim_reps=(3, 3, 3, 3)),
    # Compile and simulator construction dominate; level 3 polls 50 tasks.
    "wide_gen": Workload(
        "wide_gen", sim_ticks=100, flow_ticks=100, flows=2,
        setups=4, setup_batch=1, verdicts=4, verdict_batch=400,
        sim_reps=(2, 2, 2, 2)),
    # The verdict layer: one passing and one failing modulo_latency search.
    "compare_mutant": Workload(
        "compare_mutant", sim_ticks=2500, flow_ticks=2000, flows=2,
        setups=4, setup_batch=50, verdicts=8, verdict_batch=1,
        sim_reps=(2, 2, 2, 2), mutant_ticks=8000),
}

# end-to-end metrics that are the median of their scaled samples -> unit
TIMED = {
    "setup_s": "s", "flow_s": "s", "l0_us_per_tick": "us",
    "l1_us_per_tick": "us", "l2_us_per_tick": "us", "l3_us_per_tick": "us",
    "verdict_s": "s",
}


def _fdmflow():
    """Import the package from this checkout's src/, or None if absent."""
    if not (SRC / "fdmflow" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import fdmflow.flow
    import fdmflow.model.parser
    import fdmflow.sim.trace
    return fdmflow


def _design_counts(cd) -> dict:
    def blocks(scope) -> int:
        return len(scope.blocks) + sum(blocks(s) for s in scope.subsystems)
    tlm = cd.tlm
    return {
        "blocks": blocks(cd.model),
        "tasks": sum(u.kind == "task" for u in tlm.units.values()),
        "hw_nodes": sum(n.role == "hardware" for n in tlm.nodes.values()),
        "channels": len(tlm.channels),
    }


class Bench:
    """One workload's inputs, operations and correctness bookkeeping.

    Each timed operation starts from a full garbage collection, so where the
    collector's passes fall inside a sample does not depend on what ran
    before it; the passes the operation itself triggers stay in its time.
    """

    def __init__(self, fdm, wl: Workload, seed: int, work: Path):
        self.flow = fdm.flow
        self.parser = fdm.model.parser
        self.tr = fdm.sim.trace
        self.wl = wl
        self.seed = seed
        self.work = work
        self.tracer = None
        self.samples: dict[str, list[float]] = {}  # raw host times
        self.scaled: dict[str, list[float]] = {}  # see `reference`
        self.unscaled: list[tuple[str, float]] = []  # since the last ref
        self.attempted = 0  # verdicts checked against a known answer
        self.failed = 0  # of those, wrong or missing
        self.errors: list[str] = []  # one line per problem found
        self.flows = 0
        self.setup_batch, self.verdict_batch = wl.setup_batch, wl.verdict_batch
        self.flow_out: Path | None = None  # the latest flow's artifacts
        self.rounds = 0
        codec = CODEC.read_text()
        self.text = generate(seed, WIDE_SIZE) if wl.name == "wide_gen" \
            else codec
        self.setup()
        self.stim = self.flow.default_stimulus(self.model, wl.sim_ticks, seed)
        self.traces: dict[int, object] = {}
        self.records: dict[int, int] = {}
        self.mutant_files: dict[str, Path] = {}
        self.check_pinned_digest()
        if wl.mutant_ticks:
            self.make_mutant_files(codec)

    # -- bookkeeping ------------------------------------------------------

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)
        self.unscaled.append((metric, value))

    def error(self, what: str, exc: BaseException) -> None:
        msg = f"{type(exc).__name__}: {exc}".splitlines()[0]
        self.errors.append(f"{self.wl.name} {what}: {msg}")

    def expect(self, what: str, ok: bool, detail: str = "") -> None:
        """Count one verdict against its known answer."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{self.wl.name} {what}: wrong verdict {detail}")

    def expect_agree(self, what: str, v) -> None:
        # Under valid gating every level sees the same stream, so the only
        # right answer is PASS with k == 0; PASS at k > 0 is a vacuous pass.
        self.expect(what, v.passed and v.k == 0, str(v))

    def scope(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.scope = name

    # -- operations -------------------------------------------------------

    def reference(self) -> None:
        """Time the host-speed reference and scale the samples taken since
        the previous reference by the two references' mean."""
        t0 = time.perf_counter()
        reference_work()
        ref = time.perf_counter() - t0
        refs = self.samples.setdefault("reference_s", [])
        speed = REFERENCE_S / ((refs[-1] + ref) / 2 if refs else ref)
        for metric, value in self.unscaled:
            self.scaled.setdefault(metric, []).append(value * speed)
        self.unscaled.clear()
        refs.append(ref)

    def setup(self) -> None:
        """Model text to CompiledDesign; a sample is the mean of a batch."""
        self.scope("setup")
        n = self.setup_batch
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(n):
            model = self.parser.parse_model(self.text)
            cd = self.flow.compile_design(model)
        self.sample("setup_s", (time.perf_counter() - t0) / n)
        self.model, self.cd = model, cd

    def run_flow(self) -> None:
        """One `fdmflow flow` into a fresh directory, which the verdict op
        then reads like `fdmflow compare` would.

        The directories are removed only when the run ends: removing
        hundreds of files between flows made the next flow's file writes
        up to 30x slower, which timed the removal, not the flow."""
        self.scope("flow")
        out = self.flow_out = self.work / f"flow{self.flows}"
        self.flows += 1
        try:
            gc.collect()
            t0 = time.perf_counter()
            res = self.flow.run_flow(self.model, out, levels=LEVELS,
                                     ticks=self.wl.flow_ticks, seed=self.seed)
            self.sample("flow_s", time.perf_counter() - t0)
        except Exception as e:  # a raised flow error is a wrong verdict
            self.error("flow", e)
            for a, b in zip(LEVELS, LEVELS[1:]):
                self.expect(f"flow level{a}-vs-level{b}", False, "missing")
            shutil.rmtree(out, ignore_errors=True)
            self.flow_out = None
            return
        for label, v in res.verdicts:
            self.expect_agree(f"flow {label}", v)

    def simulate(self, level: int) -> None:
        self.scope(f"sim{level}")
        if level == 0:
            self.traces.clear()
        ticks = self.wl.sim_ticks
        try:
            gc.collect()
            t0 = time.perf_counter()
            tr = self.flow.simulate(level, self.cd, self.stim, ticks)
            self.sample(f"l{level}_us_per_tick",
                        (time.perf_counter() - t0) / ticks * 1e6)
        except Exception as e:
            self.error(f"simulate level {level}", e)
            tr = None
        else:
            self.traces[level] = tr
            self.records[level] = sum(len(r) for r in tr.ports.values())
        if level == 0:
            return
        prev = self.traces.get(level - 1)
        if tr is None or prev is None:
            self.expect(f"level{level - 1}-vs-level{level}", False, "missing")
        else:
            self.expect_agree(f"level{level - 1}-vs-level{level}",
                              self.tr.compare_traces(prev, tr, _mode(level)))

    def verdict(self) -> None:
        """Trace files to verdicts: Trace.load + compare_traces per pair."""
        self.scope("verdict")
        if self.wl.mutant_ticks:
            f = self.mutant_files
            pairs = [("ref-vs-unmutated", f["ref"], f["unmutated"],
                      "modulo_latency", True),
                     ("ref-vs-mutant", f["ref"], f["mutant"],
                      "modulo_latency", False)]
        elif self.flow_out is not None:
            d = self.flow_out / "traces"
            pairs = [(f"level{a}-vs-level{b} files", d / f"level{a}.trace",
                      d / f"level{b}.trace", _mode(b), True)
                     for a, b in zip(LEVELS, LEVELS[1:])]
        else:  # the flow that writes the files failed
            for _ in LEVELS[1:]:
                self.expect("trace files", False, "missing")
            return
        n = self.verdict_batch
        steps = []
        gc.collect()
        t0 = time.perf_counter()
        try:
            for _ in range(n):
                steps.append([self.tr.compare_traces(
                    self.tr.Trace.load(a), self.tr.Trace.load(b), mode)
                    for _, a, b, mode, _ in pairs])
        except Exception as e:
            self.error("verdict", e)
            steps.append([])
        else:
            self.sample("verdict_s", (time.perf_counter() - t0) / n)
        for results in steps:
            for i, (label, _, _, _, should_pass) in enumerate(pairs):
                if i >= len(results):
                    self.expect(label, False, "missing")
                elif should_pass:
                    self.expect_agree(label, results[i])
                else:
                    self.expect(label, not results[i].passed, str(results[i]))

    def round_ops(self, flows: int, setups: int, verdicts: int,
                  sim_reps: tuple = (1,) * len(LEVELS)) -> list:
        """A round opens with a flow; further flows, repeated simulations
        and the short set-up and verdict samples are spread between the
        simulations, so each metric's samples span the run and its median
        is not one moment's speed."""
        levels = [lv for r in range(max(sim_reps)) for lv in LEVELS
                  if r < sim_reps[lv]]
        n = len(levels)
        ops = []
        for i, lv in enumerate(levels):
            if i * flows % n < flows:
                ops.append(("flow", self.run_flow))
            ops.append((f"sim{lv}", functools.partial(self.simulate, lv)))
            ops += [("setup", self.setup)] * _share(setups, i, n)
            ops += [("verdict", self.verdict)] * _share(verdicts, i, n)
        return ops

    # -- inputs and pinned answers ---------------------------------------

    def check_pinned_digest(self) -> None:
        model = self.parser.parse_model(CODEC.read_text())
        stim = self.flow.default_stimulus(model, DIGEST_TICKS, DIGEST_SEED)
        try:
            tr = self.flow.simulate(0, self.flow.compile_design(model), stim,
                                    DIGEST_TICKS)
            path = self.work / "digest.trace"
            tr.save(path)
            got = hashlib.sha256(path.read_bytes()).hexdigest()
        except Exception as e:
            self.error("pinned level-0 digest", e)
            got = "error"
        self.expect("pinned level-0 digest", got == PINNED_L0_SHA256, got)

    def make_mutant_files(self, codec: str) -> None:
        """Reference: level 0 of mini_codec; candidates: level 1 of the
        unmutated design and of the one-block mutant.  Not timed."""
        mutant = codec.replace(*MUTATION)
        if mutant == codec:
            raise ValueError(f"mutation site {MUTATION[0]!r} not in {CODEC}")
        ticks = self.wl.mutant_ticks
        stim = self.flow.default_stimulus(self.model, ticks, self.seed)
        for name, text, level in (("ref", codec, 0), ("unmutated", codec, 1),
                                  ("mutant", mutant, 1)):
            cd = self.flow.compile_design(self.parser.parse_model(text))
            path = self.mutant_files[name] = self.work / f"{name}.trace"
            self.flow.simulate(level, cd, stim, ticks).save(path)


def _share(total: int, i: int, parts: int) -> int:
    """Part i of `total` spread as evenly as possible over `parts` slots."""
    return (i + 1) * total // parts - i * total // parts


def _mode(level: int) -> str:
    # the flow's own rule: exact up to level 2, modulo_latency at level 3
    return "exact" if level <= 2 else "modulo_latency"


def run_rounds(ops: list, seconds: float, on_round=None) -> int:
    """Repeat the round until the next operation would end past the deadline;
    the first round always runs whole.  Returns the number of whole rounds."""
    deadline = time.perf_counter() + seconds
    cost: dict[str, float] = {}
    rounds = 0
    while True:
        for name, op in ops:
            if rounds and time.perf_counter() + cost[name] > deadline:
                return rounds
            t0 = time.perf_counter()
            op()
            cost[name] = time.perf_counter() - t0
        rounds += 1
        if on_round is not None:
            on_round(rounds)


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None  # JSON null


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- traced run -------------------------------------------------------------

COMPILE_LAYERS = ("model.parse", "model.validate", "tlm.partition",
                  "gma.tree", "gma.netlist", "gma.params", "gma.behavior",
                  "gma.module_at", "swsynth.fsm", "swsynth.address_map",
                  "swsynth.lower", "hwsynth.map", "hwsynth.delay_correct",
                  "hwsynth.controller", "flow.compile")


def layer_metrics(st: dict, records: dict) -> dict:
    """Per-layer metrics of one traced round, each read from its own op."""
    calls, self_s, count = st["calls"], st["self"], st["count"]
    m = {}
    for name in COMPILE_LAYERS:
        m[f"{name}_s"] = self_s[("setup", name)]
    m["gma.module_at_calls"] = calls[("setup", "gma.module_at")]
    sims = [f"sim{lv}" for lv in LEVELS]
    m["model.topo_order_calls"] = sum(calls[(s, "model.topo_order")] for s in sims)
    m["model.topo_order_s"] = sum(self_s[(s, "model.topo_order")] for s in sims)
    for lv, s in zip(LEVELS, sims):
        p = f"L{lv}."
        m[p + "level0.builds"] = calls[(s, "level0.build")]
        m[p + "level0.build_s"] = self_s[(s, "level0.build")]
        m[p + "level0.ticks"] = calls[(s, "level0.tick")]
        m[p + "level0.tick_s"] = self_s[(s, "level0.tick")]
        m[p + "trace.records"] = records.get(lv, 0)
        if lv == 0:
            continue
        m[p + "engine.build_s"] = self_s[(s, "engine.build")]
        m[p + "engine.run_s"] = self_s[(s, "engine.run")]
        rounds = count[(s, "engine.rounds")]
        events = count[(s, "engine.events")]
        m[p + "engine.rounds"] = rounds
        m[p + "engine.events"] = events
        m[p + "engine.events_per_round"] = events / rounds if rounds else 0.0
        m[p + "channels.pushes"] = count[(s, "channels.pushes")]
        m[p + "channels.pops"] = count[(s, "channels.pops")]
        m[p + "channels.push_blocked"] = count[(s, "channels.push_blocked")]
        m[p + "channels.pop_blocked"] = count[(s, "channels.pop_blocked")]
    m["L3.hwsynth.rtl_steps"] = calls[("sim3", "hwsynth.rtl_step")]
    m["L3.hwsynth.rtl_step_s"] = self_s[("sim3", "hwsynth.rtl_step")]
    m["L3.hwsynth.ctrl_fires"] = calls[("sim3", "hwsynth.ctrl_fire")]
    m["L3.hwsynth.ctrl_fire_s"] = self_s[("sim3", "hwsynth.ctrl_fire")]
    steps = calls[("sim3", "interp.fsm_step")]
    m["L3.interp.fsm_steps"] = steps
    m["L3.interp.fsm_step_s"] = self_s[("sim3", "interp.fsm_step")]
    m["L3.interp.fsm_step_useful_ratio"] = \
        count[("sim3", "interp.fsm_useful")] / steps if steps else 0.0
    m["L3.trace.time_rewrites"] = count[("sim3", "trace.time_rewrites")]
    m["L3.engine.bus_transactions"] = count[("sim3", "engine.bus_transactions")]
    m["L3.engine.cycles"] = count[("sim3", "engine.cycles")]
    m["trace.compare_calls"] = calls[("verdict", "trace.compare")]
    m["trace.compare_s"] = self_s[("verdict", "trace.compare")]
    m["trace.load_s"] = self_s[("verdict", "trace.load")]
    m["trace.save_s"] = self_s[("flow", "trace.save")]
    m["flow.artifacts_s"] = self_s[("flow", "flow.run_flow")]
    return m


def traced_run(fdm, bench: Bench, seconds: float) -> dict:
    # Untraced references, measured before any wrapper is installed.
    for _ in range(3):
        bench.run_flow()
    untraced_flow = statistics.median(bench.samples["flow_s"])
    sizes = {}
    for size in (WIDE_SIZE, 2 * WIDE_SIZE):
        text = generate(bench.seed, size)
        times = []
        for _ in range(3):
            gc.collect()
            t0 = time.perf_counter()
            fdm.flow.compile_design(fdm.model.parser.parse_model(text))
            times.append(time.perf_counter() - t0)
        sizes[size] = statistics.median(times)

    tracer = Tracer()
    bench.tracer = tracer
    bench.setup_batch = bench.verdict_batch = 1
    rounds: list[dict] = []
    flow_before = len(bench.samples["flow_s"])

    def on_round(n: int) -> None:
        rounds.append(layer_metrics(tracer.take(), bench.records))
        tracer.round = n

    with instrument(tracer):
        run_rounds(bench.round_ops(1, 1, 1), seconds, on_round)
    bench.tracer = None
    tracer.write_spans(WORK / f"spans-{bench.wl.name}-seed{bench.seed}.jsonl")

    metrics = {}
    for name, first in rounds[0].items():
        values = [r[name] for r in rounds]
        if name.endswith("_s"):  # host times vary; everything else repeats
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = first
            if any(v != first for v in values):
                bench.errors.append(f"{bench.wl.name} {name}: count differs "
                                    f"between rounds: {values}")
    traced_flow = _median(bench.samples["flow_s"][flow_before:])
    if traced_flow is not None:  # else the failed flows are in bench.errors
        metrics["tracing.overhead_s"] = traced_flow - untraced_flow
        metrics["tracing.overhead_ratio"] = traced_flow / untraced_flow
    metrics["compile.size_ratio_2x"] = sizes[2 * WIDE_SIZE] / sizes[WIDE_SIZE]
    bench.rounds = len(rounds)
    return metrics


LAYER_UNITS = (("_calls", "count"), ("_ratio", "ratio"), ("_2x", "ratio"),
               ("_s", "s"), ("events_per_round", "events/round"))


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


# -- entry points -------------------------------------------------------------

def run_workload(fdm, wl: Workload, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, Bench]:
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(fdm, wl, seed, work)
        if trace:
            values = traced_run(fdm, bench, seconds)
            metrics = {k: {"value": v, "unit": _layer_unit(k)}
                       for k, v in values.items()}
        else:
            bench.samples["setup_s"].clear()  # the first set-up warms imports
            bench.unscaled.clear()
            ops = bench.round_ops(wl.flows, wl.setups, wl.verdicts,
                                  wl.sim_reps)
            ops = [x for op in ops for x in (("ref", bench.reference), op)]
            bench.rounds = run_rounds(ops, seconds)
            bench.reference()  # closes the last operation's samples
            metrics = {name: {"value": _median(bench.scaled.get(name, [])),
                              "unit": unit} for name, unit in TIMED.items()}
            metrics["peak_rss_mib"] = {"value": peak_rss_mib(), "unit": "MiB"}
            metrics["verdict_ok_ratio"] = {
                "value": (bench.attempted - bench.failed) / bench.attempted,
                "unit": "ratio"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, bench


def report(wl: Workload, seed: int, metrics: dict, bench: Bench) -> None:
    counts = _design_counts(bench.cd)
    print(f"workload {wl.name} seed {seed}: " + ", ".join(
        f"{v} {k}" for k, v in counts.items())
        + f"; simulate {wl.sim_ticks} ticks, flow {wl.flow_ticks} ticks; "
        f"{bench.rounds} whole rounds")
    ref = bench.samples.get("reference_s", [])
    if ref:
        print(f"  host reference {statistics.median(ref):.6g} s (median of "
              f"{len(ref)}, min {min(ref):.6g}, max {max(ref):.6g}); times "
              f"below are scaled to a reference of {REFERENCE_S} s")
    for name, m in metrics.items():
        got = bench.samples.get(name, [])
        extra = f"  (raw median of {len(got)} {statistics.median(got):.6g}, " \
                f"min {min(got):.6g}, max {max(got):.6g})" \
            if len(got) > 1 else ""
        value = "none" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:36s} {value:>14s} {m['unit']}{extra}")
    for line in bench.errors:
        print(f"error: {line}", file=sys.stderr)


def run_all(args) -> int:
    """Run each workload in its own process, so peak memory is its own."""
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            metrics[f"{name}.{k}"] = v
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    fdm = _fdmflow()
    if fdm is None:
        print(f"error: no fdmflow package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    wl = WORKLOADS[args.workload]
    try:
        metrics, bench = run_workload(fdm, wl, args.seed, args.seconds,
                                      bool(args.trace))
    except Exception as e:  # e.g. the workload's model does not compile
        msg = f"{type(e).__name__}: {e}".splitlines()[0]
        print(f"error: {wl.name}: {msg}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    report(wl, args.seed, metrics, bench)
    correct = not bench.errors
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
