r"""Parser for the textual model format (.fdm).

A token is an ASCII identifier (``[A-Za-z_][A-Za-z0-9_]*``), an optionally
negative ASCII decimal integer (``-?[0-9]+``), a double-quoted string that
ends on its line, ``->`` or one of ``{ } ( ) ; : , . =``.  Blanks and ``#``
comments, which run to the end of the line, separate tokens.  The text is
lexed one line at a time, with one regex match per token that takes the
blanks before it along; a comment is one match more, and the blanks that
end a line none.  A line ends at ``\n`` alone (``\r``, ``\f`` and ``\v``
are blanks), so the ``line:col`` of a ``ParseError`` counts ``\n`` only.
The whole text is lexed before parsing starts, so its first bad character
is reported before any syntax error.  Block arguments are separated by
commas, with none after the last.
"""

from __future__ import annotations

import re

from .blocks import KINDS
from .graph import Block, Endpoint, Link, ModelGraph, Subsystem

# A comment is an alternative, not part of the blank prefix: as a prefix,
# a failed match could backtrack into it and read its tail as tokens.
_TOKEN = re.compile(
    r"""\s*(?: (?P<punct>->|[{}();:,.=])
             | (?P<num>-?[0-9]+)
             | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
             | (?P<str>"[^"]*")
             | \#.*
             | (?P<bad>\S) )
    """,
    re.VERBOSE,
)

_KEYWORDS = {"model", "block", "subsystem", "link", "input", "output", "param"}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[tuple]:
    """Every token as ``(kind, value, line, col)``, then ``eof`` after the
    last character of the last line."""
    toks = []
    append = toks.append
    lines = text.split("\n")
    for line, s in enumerate(lines, 1):
        for m in _TOKEN.finditer(s):
            kind = m.lastgroup
            if kind is None:  # a comment
                continue
            value = m[kind]
            col = m.start(kind) + 1
            if kind == "num":
                value = int(value)
            elif kind == "str":
                value = value[1:-1]
            elif kind == "bad":
                raise ParseError(f"unexpected character {value!r}", line, col)
            append((kind, value, line, col))
    append(("eof", None, len(lines), len(lines[-1]) + 1))
    return toks


def _unexpected(want: str, t: tuple) -> ParseError:
    return ParseError(f"expected {want}, found {t[1]!r}", t[2], t[3])


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def at(self, value: str) -> bool:
        """Whether the punctuation ``value`` comes next."""
        t = self.toks[self.i]
        return t[1] == value and t[0] == "punct"

    def punct(self, value: str) -> None:
        t = self.toks[self.i]
        if t[1] != value or t[0] != "punct":
            raise _unexpected(repr(value), t)
        self.i += 1

    def ident(self) -> tuple:
        t = self.toks[self.i]
        if t[0] != "ident":
            raise _unexpected("identifier", t)
        self.i += 1
        return t

    # ---- grammar ----

    def model(self) -> ModelGraph:
        t = self.toks[0]
        if t[:2] != ("ident", "model"):
            raise _unexpected("'model'", t)
        self.i = 1
        g = ModelGraph(self.ident()[1], line=t[2])
        self.punct("{")
        self._scope_items(g)
        self.punct("}")
        if self.toks[self.i][0] != "eof":
            raise _unexpected("'eof'", self.toks[self.i])
        return g

    def _scope_items(self, scope):
        names: set[str] = set()
        toks = self.toks
        while True:
            t = toks[self.i]
            kw = t[1]
            if t[0] != "ident" or kw not in _KEYWORDS:
                if self.at("}"):
                    return
                raise _unexpected("declaration", t)
            self.i += 1
            if kw == "block":
                scope.blocks.append(self._block(names))
            elif kw == "subsystem":
                scope.subsystems.append(self._subsystem(names))
            elif kw == "link":
                scope.links.append(self._link(t[2]))
            elif kw == "input":
                scope.inputs.append(self._port_decl())
            elif kw == "output":
                scope.outputs.append(self._port_decl())
            elif kw == "param":
                if not isinstance(scope, Subsystem):
                    raise ParseError("param is only allowed inside a subsystem",
                                     t[2], t[3])
                k, v = self._param()
                scope.params[k] = v

    def _declare(self, names: set, nt: tuple):
        """Add the name token ``nt`` to its scope's ``names``; a name
        declared twice is reported at the second one."""
        if nt[1] in names:
            raise ParseError(f"duplicate identifier {nt[1]!r}", nt[2], nt[3])
        names.add(nt[1])

    def _block(self, names: set) -> Block:
        nt = self.ident()
        self.punct(":")
        kt = self.ident()
        if kt[1] not in KINDS:
            raise ParseError(f"unknown block kind {kt[1]!r}", kt[2], kt[3])
        args: list = []
        if self.at("("):
            self.i += 1
            if not self.at(")"):
                args.append(self._argument())
                while self.at(","):
                    self.i += 1
                    args.append(self._argument())
            self.punct(")")
        self.punct(";")
        params = self._check_args(kt, args)
        self._declare(names, nt)
        return Block(nt[1], kt[1], params, line=nt[2])

    def _argument(self):
        a = self.toks[self.i]
        if a[0] not in ("num", "ident", "str"):
            raise ParseError(f"bad block argument {a[1]!r}", a[2], a[3])
        self.i += 1
        return a[1]

    def _check_args(self, kt: tuple, args: list) -> tuple:
        """``args`` checked against the signature of kind ``kt``."""
        check, message = KINDS[kt[1]].args
        if not check(args):
            raise ParseError(f"{kt[1]}: {message}", kt[2], kt[3])
        return tuple(args)

    def _subsystem(self, names: set) -> Subsystem:
        nt = self.ident()
        s = Subsystem(nt[1], line=nt[2])
        self.punct("{")
        self._scope_items(s)
        self.punct("}")
        self._declare(names, nt)
        return s

    def _link(self, line: int) -> Link:
        src = self._endpoint()
        self.punct("->")
        dst = self._endpoint()
        self.punct(";")
        return Link(src, dst, line=line)

    def _endpoint(self) -> Endpoint:
        blk = self.ident()[1]
        self.punct(".")
        return Endpoint(blk, self.ident()[1])

    def _port_decl(self) -> str:
        name = self.ident()[1]
        self.punct(";")
        return name

    def _param(self):
        key = self.ident()[1]
        self.punct("=")
        t = self.toks[self.i]
        if t[0] not in ("num", "str"):
            raise ParseError("param value must be an integer or string",
                             t[2], t[3])
        self.i += 1
        self.punct(";")
        return key, t[1]


def parse_model(text: str) -> ModelGraph:
    """Parse a complete model file.

    Name resolution is deferred to validation; only syntax, duplicate
    identifiers and unknown block kinds are rejected here.
    """
    return _Parser(text).model()
