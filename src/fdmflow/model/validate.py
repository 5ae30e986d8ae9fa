"""Structural validation of a parsed model.

The model is flattened once, by ``graph.flatten``: the diagnostics it
reports, the parameter rules over its blocks and the algebraic loops make
the report, which keeps the flat graph for level 0 to run.  Algebraic
loops are the cyclic components, found by ``graph.sccs``, of the
combinational graph: ``graph.successors`` without the ``delay_wires``;
each is reported once with one cycle through it.
``tlm.gate`` runs these rules and then the partition's, for ``check`` and
``flow`` alike.  ``Diagnostic`` is ``graph``'s, re-exported here."""

from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import KINDS
from .graph import Diagnostic, FlatGraph, ModelGraph, delay_wires, \
    flatten, sccs, successors


@dataclass
class ValidationReport:
    diagnostics: list[Diagnostic] = field(default_factory=list)
    flat: FlatGraph | None = None  # the model's, in validate_model's report

    @property
    def ok(self) -> bool:
        return not self.errors()

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


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
    flat = flatten(g)
    out += flat.issues
    for path, b in flat.blocks.items():  # its kind's value rules
        out += [Diagnostic("error", path, m, line=b.line)
                for rule in KINDS[b.kind].rules if (m := rule(b.params))]

    succ = successors(flat, delay_wires(flat))
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
    return ValidationReport(out, flat)
