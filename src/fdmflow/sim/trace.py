"""Traces, stimuli and trace comparison."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Stimulus:
    """Finite per-input value sequences; short sequences are padded with 0."""

    values: dict[str, list[int]]
    length: int

    def column(self, port: str, n: int) -> list[int]:
        """The first ``n`` values of ``port``, padded with 0."""
        return (self.values.get(port, [])[:n] + [0] * n)[:n]

    def save(self, path) -> None:
        cols = [self.column(p, self.length) for p in self.values]
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(self.values) + "\n")
            for row in zip(*cols) if cols else [()] * self.length:
                f.write(",".join(map(str, row)) + "\n")

    @classmethod
    def load(cls, path) -> "Stimulus":
        """Read a csv written by ``save``, blank lines only if it names no
        port; ValueError names a bad line."""
        with open(path, encoding="utf-8") as f:
            raw = [(i, ln.strip()) for i, ln in enumerate(f, 1)]
        if not raw:
            raise ValueError(f"{path}: empty stimulus file")
        lines = [(i, ln) for i, ln in raw if ln]
        if not lines:  # a header naming no port, and rows of no cell
            return cls({}, len(raw) - 1)
        ports = lines[0][1].split(",")
        for i, p in enumerate(ports):
            if p in ports[:i]:
                raise ValueError(f"{path}:{lines[0][0]}: port {p!r} named twice")
        rows = []
        for i, ln in lines[1:]:
            try:
                rows.append([int(v) for v in ln.split(",")])
            except ValueError:
                raise ValueError(f"{path}:{i}: non-integer cell in {ln!r}") from None
            if len(rows[-1]) != len(ports):
                raise ValueError(f"{path}:{i}: {len(rows[-1])} cells for "
                                 f"{len(ports)} ports")
        values = {p: [row[i] for row in rows] for i, p in enumerate(ports)}
        return cls(values, len(rows))


@dataclass
class Trace:
    """Per-port timed value records, strictly increasing in time."""

    ports: dict[str, list[tuple[int, int]]]
    level: int = 0
    design: str = ""

    def record(self, port: str, time: int, value: int) -> None:
        recs = self.ports.setdefault(port, [])
        if recs and time <= recs[-1][0]:
            time = recs[-1][0] + 1
        recs.append((time, value))

    def values(self, port: str) -> list[int]:
        return [v for _, v in self.ports[port]]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# level {self.level}\n")
            f.write(f"# design {self.design}\n")
            for port in self.ports:
                for t, v in self.ports[port]:
                    f.write(f"{t},{port},{v}\n")

    @classmethod
    def load(cls, path) -> "Trace":
        """Read a file written by ``save``; ValueError names a bad line.

        A line first tries the record form unstripped: ``int`` skips the
        blanks ``strip`` removes, bar ``\\x1c``-``\\x1f``.  Only a line that
        fails is stripped, then skipped if blank, read as a header or
        reported.  A port's times must increase."""
        tr = cls({})
        empty = True
        port = recs = None  # the last record's port and its list
        with open(path, encoding="utf-8") as f:
            for i, ln in enumerate(f, 1):
                try:
                    t, p, v = ln.split(",")
                    rec = (t := int(t), int(v))
                except ValueError:
                    ln = ln.strip()
                    if not ln:
                        continue
                    empty = False
                    try:
                        if ln.startswith("#"):
                            parts = ln[1:].split()
                            if parts[0] == "level":
                                tr.level = int(parts[1])
                            elif parts[0] == "design":
                                tr.design = parts[1] if len(parts) > 1 else ""
                            continue
                        t, p, v = ln.split(",")
                        rec = (t := int(t), int(v))
                    except (ValueError, IndexError):
                        raise ValueError(f"{path}:{i}: malformed trace line "
                                         f"{ln!r}; expected time,port,value") \
                            from None
                if p != port:
                    port, recs = p, tr.ports.setdefault(p, [])
                    last = recs[-1][0] if recs else t - 1  # and its time
                if t <= last:
                    raise ValueError(f"{path}:{i}: time {t} on port {p!r} "
                                     "does not increase")
                last = t
                recs.append(rec)
        if empty and not tr.ports:
            raise ValueError(f"{path}: empty trace file")
        return tr


@dataclass
class Verdict:
    passed: bool
    mode: str
    k: int | None = None
    message: str = ""

    def __str__(self) -> str:
        if self.passed:
            extra = f" k={self.k}" if self.k is not None else ""
            return f"PASS [{self.mode}]{extra}"
        return f"FAIL [{self.mode}] {self.message}"


class PortSetMismatch(ValueError):
    pass


def _first_diff(a: list, b: list) -> str:
    """``i: x != y`` at the first index where the differing lists ``a``
    and ``b`` part; an item past the end of its list reads None."""
    n = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    return f"{n}: {a[n] if len(a) > n else None} != " \
        f"{b[n] if len(b) > n else None}"


def compare_traces(a: Trace, b: Trace, mode: str = "exact",
                   expected_k: int | None = None) -> Verdict:
    """Compare two traces over the same port set.  A reference ``a`` that
    holds no sample has nothing to compare and fails in every mode.

    exact          -- identical (time, value) records.
    modulo_latency -- one constant index shift k >= 0, shared across ports,
                      with b[n + k] == a[n] for every sample n of a: the
                      shifted b must hold the whole reference.  If
                      expected_k is given only that shift is accepted,
                      otherwise the smallest feasible k is reported.
    values_only    -- identical per-port value sequences, times ignored.
    """
    if mode not in ("exact", "modulo_latency", "values_only"):
        raise ValueError(f"unknown comparison mode {mode!r}")
    if set(a.ports) != set(b.ports):
        raise PortSetMismatch(
            f"port sets differ: {sorted(a.ports)} vs {sorted(b.ports)}")
    if not any(a.ports.values()):
        return Verdict(False, mode, message="the reference holds no sample")

    # each port's list is compared whole; only one that differs is
    # searched for its first difference
    if mode == "exact":
        for port, recs in a.ports.items():
            if recs != b.ports[port]:
                return Verdict(False, mode, message=f"port {port} record "
                               f"{_first_diff(recs, b.ports[port])}")
        return Verdict(True, mode, k=0)

    if mode == "values_only":
        for port in a.ports:
            av, bv = a.values(port), b.values(port)
            if av != bv:
                return Verdict(False, mode, message=f"port {port} value "
                               f"{_first_diff(av, bv)}")
        return Verdict(True, mode)

    av = {p: a.values(p) for p in a.ports}
    bv = {p: b.values(p) for p in b.ports}
    slack = min(len(bv[p]) - len(av[p]) for p in av)
    ks = [expected_k] if expected_k is not None else range(slack + 1)
    for k in ks:
        if all(bv[p][k:k + len(av[p])] == av[p] for p in av):
            return Verdict(True, mode, k=k)
    return Verdict(False, mode,
                   message="no constant latency shift aligns the traces")
