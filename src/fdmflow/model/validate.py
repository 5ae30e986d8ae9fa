"""Structural validation of a parsed model.

Algebraic loops are the cyclic components, found by ``graph.sccs``, of
the combinational graph ``comb_successors``; each is reported once with
one cycle through it."""

from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import USER_FUNCTIONS
from .graph import ModelGraph, comb_successors, flatten, sccs


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    location: str
    message: str
    cycle: tuple[str, ...] | None = None
    line: int = 0


@dataclass
class ValidationReport:
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors()

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


def _param_checks(g: ModelGraph, out: list[Diagnostic]):
    def walk(scope, path):
        for b in scope.blocks:
            loc = f"{path}/{b.id}" if path else b.id
            if b.kind == "delay" and b.params[0] < 1:
                out.append(Diagnostic("error", loc, "delay parameter k must be >= 1",
                                      line=b.line))
            if b.kind == "for_loop" and b.params[0] < 1:
                out.append(Diagnostic("error", loc, "for_loop count must be >= 1",
                                      line=b.line))
            if b.kind == "quant" and b.params[0] == 0:
                out.append(Diagnostic("error", loc, "quant step must be non-zero",
                                      line=b.line))
            if b.kind in ("mux", "demux") and b.params[0] < 1:
                out.append(Diagnostic("error", loc, f"{b.kind} way count must be >= 1",
                                      line=b.line))
            if b.kind == "user" and b.params[0] not in USER_FUNCTIONS:
                out.append(Diagnostic("error", loc,
                                      f"unknown user function {b.params[0]!r}",
                                      line=b.line))
            if b.kind == "for_loop" and b.params[1] not in USER_FUNCTIONS:
                out.append(Diagnostic("error", loc,
                                      f"unknown loop body function {b.params[1]!r}",
                                      line=b.line))
            elif b.kind == "for_loop" and \
                    USER_FUNCTIONS[b.params[1]][:2] != (("in",), ("out",)):
                out.append(Diagnostic("error", loc,
                                      f"loop body function {b.params[1]!r} must "
                                      "have one input and one output",
                                      line=b.line))
        for s in scope.subsystems:
            walk(s, f"{path}/{s.id}" if path else s.id)

    walk(g, "")


def _cycle_path(comp: list[str], succ, order_key) -> tuple[str, ...]:
    members = set(comp)
    start = min(comp, key=order_key)
    path = [start]
    seen = {start}
    cur = start
    while True:
        nxts = [w for w in succ[cur] if w in members]
        nxt = min(nxts, key=order_key)
        if nxt == start:
            return tuple(path)
        if nxt in seen:
            # trim to the cycle portion
            i = path.index(nxt)
            return tuple(path[i:])
        path.append(nxt)
        seen.add(nxt)
        cur = nxt


def validate_model(g: ModelGraph) -> ValidationReport:
    """Check every structural invariant of the model.

    The report is empty iff the model is accepted for downstream stages.
    Diagnostics are ordered by source position for stable golden output,
    the ones with no position last.
    """
    out: list[Diagnostic] = []
    if not g.outputs:
        out.append(Diagnostic("error", g.name,
                              "model has no output, so no level can be "
                              "compared", line=g.line))
    _param_checks(g, out)
    flat = flatten(g)
    for issue in flat.issues:
        out.append(Diagnostic("error", issue.location, issue.message, line=issue.line))

    succ = comb_successors(flat)
    decl = {p: i for i, p in enumerate(flat.blocks)}
    loops = sccs(list(flat.blocks), succ)
    for comp in sorted(loops, key=lambda c: min(decl[p] for p in c)):
        cyc = _cycle_path(comp, succ, lambda p: decl[p])
        out.append(Diagnostic("error", cyc[0],
                              "algebraic loop: cycle without a delay block",
                              cycle=cyc))

    # an issue found with no line, such as an undriven port, follows the
    # located ones, which are likelier its cause
    out.sort(key=lambda d: (not d.line, d.line, d.location, d.message))
    return ValidationReport(out)
