"""The model parser: every ``ParseError`` with its exact position and
text, the lexical edge cases, and one digest over the graphs it builds for
the shipped, helper and generated models."""

import hashlib
import importlib.resources as ir

import pytest

import helpers
from fdmflow.model.parser import ParseError, parse_model

# one row per error site: model text, then the exact "line:col: message"
ERRORS = [pytest.param(text, msg, id=name) for name, text, msg in [
    ("character", "model m { input a; $ }",
     "1:20: unexpected character '$'"),
    # lexing ends before parsing starts, so a bad character anywhere wins
    # over a syntax error placed before it
    ("character_after_syntax_error",
     "model m {\n  block b add;\n  output y; $\n}",
     "3:13: unexpected character '$'"),
    ("character_last_line", "model m {\n}\n@",
     "3:1: unexpected character '@'"),
    ("minus_alone", "model m { block k : gain(- 5); }",
     "1:26: unexpected character '-'"),
    ("non_ascii_ident", "model m { block café : add; }",
     "1:20: unexpected character 'é'"),
    ("unterminated_string", 'model m { block u : user("inc); }',
     "1:26: unexpected character '\"'"),
    ("string_across_lines", 'model m { block u : user("in\nc"); }',
     "1:26: unexpected character '\"'"),
    ("expected_punct", "model m { block b add; }",
     "1:19: expected ':', found 'add'"),
    ("expected_arrow", "model m {\n  link a.out b.in;\n}",
     "2:14: expected '->', found 'b'"),
    ("expected_brace", "model m input a;",
     "1:9: expected '{', found 'input'"),
    ("found_arrow", "model m { block b -> add; }",
     "1:19: expected ':', found '->'"),
    ("expected_identifier", "model 5 { }",
     "1:7: expected identifier, found 5"),
    ("expected_identifier_string", 'model m { link a."out" -> b.in; }',
     "1:18: expected identifier, found 'out'"),
    ("expected_declaration", "model m { wire w; }",
     "1:11: expected declaration, found 'wire'"),
    ("expected_declaration_punct", "model m {\n  ;\n}",
     "2:3: expected declaration, found ';'"),
    # the eof token sits after the last character of the last line
    ("expected_declaration_eof", "model m {\n  input a;\n  ",
     "3:3: expected declaration, found None"),
    ("eof_after_comment", "model m {\n  # no close",
     "2:13: expected declaration, found None"),
    ("eof_after_newline", "model m {\n",
     "2:1: expected declaration, found None"),
    ("expected_model", "modul m { }",
     "1:1: expected 'model', found 'modul'"),
    ("expected_model_punct", "{ }",
     "1:1: expected 'model', found '{'"),
    ("empty_text", "", "1:1: expected 'model', found None"),
    ("trailing_junk", "model m { }\nx", "2:1: expected 'eof', found 'x'"),
    ("trailing_number", "model m { } 7", "1:13: expected 'eof', found 7"),
    ("unknown_kind", "model m { block b : warp(1); }",
     "1:21: unknown block kind 'warp'"),
    ("bad_argument", "model m { block g : gain(;); }",
     "1:26: bad block argument ';'"),
    ("bad_argument_brace", "model m { block g : fir(1, {); }",
     "1:28: bad block argument '{'"),
    # arguments take a comma between them and none after the last
    ("arguments_without_comma", "model m { block f : fir(1 2 3); }",
     "1:27: expected ')', found 2"),
    ("argument_trailing_comma", "model m { block g : gain(4,); }",
     "1:28: bad block argument ')'"),
    # integers are ASCII decimal, as identifiers are ASCII
    ("non_ascii_digit", "model m { block g : gain(\u0663); }",
     "1:26: unexpected character '\u0663'"),
    ("one_integer_none", "model m { block g : gain(); }",
     "1:21: gain: expected one integer parameter"),
    ("one_integer_ident", "model m {\n  block g : delay(x);\n}",
     "2:13: delay: expected one integer parameter"),
    ("one_integer_two", "model m { block g : quant(1, 2); }",
     "1:21: quant: expected one integer parameter"),
    ("fir_taps_none", "model m { block f : fir; }",
     "1:21: fir: expected one or more integer taps"),
    ("fir_taps_string", 'model m { block f : fir(1, "2"); }',
     "1:21: fir: expected one or more integer taps"),
    ("for_loop_args", "model m { block f : for_loop(3); }",
     "1:21: for_loop: expected (count, body-function)"),
    ("for_loop_order", "model m { block f : for_loop(inc, 3); }",
     "1:21: for_loop: expected (count, body-function)"),
    ("user_name", "model m { block u : user(3); }",
     "1:21: user: expected a function name"),
    ("no_params", "model m { block a : add(1); }",
     "1:21: add: takes no parameters"),
    ("sink_params", "model m { block s : sink(x); }",
     "1:21: sink: takes no parameters"),
    ("const_ident", "model m { block c : const(x); }",
     "1:21: const: expected one integer parameter"),
    ("mux_two", "model m { block x : mux(1, 2); }",
     "1:21: mux: expected one integer parameter"),
    ("demux_none", "model m { block x : demux(); }",
     "1:21: demux: expected one integer parameter"),
    ("if_else_params", "model m { block x : if_else(1); }",
     "1:21: if_else: takes no parameters"),
    ("sub_params", 'model m { block x : sub("a"); }',
     "1:21: sub: takes no parameters"),
    ("mul_params", "model m { block x : mul(x, y); }",
     "1:21: mul: takes no parameters"),
    ("model_param", "model m {\n  param depth = 1;\n}",
     "2:3: param is only allowed inside a subsystem"),
    ("param_value", "model m { subsystem CHAN_c { param depth = deep; } }",
     "1:44: param value must be an integer or string"),
    ("param_value_punct", "model m { subsystem CHAN_c { param depth = ; } }",
     "1:44: param value must be an integer or string"),
    # a duplicate is reported at the second declaration's name
    ("duplicate_block", "model m {\n  block b : add;\n    block b : sub;\n}",
     "3:11: duplicate identifier 'b'"),
    ("duplicate_subsystem",
     "model m { subsystem s { } input a; subsystem s { } }",
     "1:46: duplicate identifier 's'"),
    ("duplicate_block_subsystem",
     "model m { block s : add; subsystem  s { } }",
     "1:37: duplicate identifier 's'"),
    ("duplicate_nested",
     "model m { subsystem s { block k : add; block k : mul; } }",
     "1:46: duplicate identifier 'k'"),
]]


@pytest.mark.parametrize("text,msg", ERRORS)
def test_parse_error(text, msg):
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert str(e.value) == msg
    line, col, message = msg.split(":", 2)
    assert (e.value.line, e.value.col, e.value.message) == \
        (int(line), int(col), message[1:])


def _lines(g):
    """Each declaration's name with its line, in declaration order."""
    out = [("model", g.name, g.line)]
    for scope in [g] + g.subsystems:
        out += [("block", b.id, b.line) for b in scope.blocks]
        out += [("subsystem", s.id, s.line) for s in scope.subsystems]
        out += [("link", str(ln.src), ln.line) for ln in scope.links]
    return out


class TestLexical:
    def test_crlf(self):
        """``\\r`` is a blank inside a line, and lines end at ``\\n``."""
        g = parse_model("model m {\r\n  input a; output y;\r\n"
                        "  block k : gain(2);\r\n"
                        "  link self.a -> k.in; link k.out -> self.y;\r\n}\r\n")
        assert _lines(g) == [("model", "m", 1), ("block", "k", 3),
                             ("link", "self.a", 4), ("link", "k.out", 4)]

    def test_form_feed_and_vertical_tab_stay_on_the_line(self):
        """``\\f``, ``\\v`` and the Unicode line separators are blanks
        that end no line, unlike ``str.splitlines``."""
        g = parse_model("model m {\f block a : add;\v block b : sub;\n"
                        "  subsystem s {\v\f\x85\u2028}\n}")
        assert _lines(g) == [("model", "m", 1), ("block", "a", 1),
                             ("block", "b", 1), ("subsystem", "s", 2)]
        with pytest.raises(ParseError) as e:
            parse_model("model m {\v\f $ }")
        assert str(e.value) == "1:13: unexpected character '$'"

    def test_comment_on_last_line_without_newline(self):
        g = parse_model("model m {\n  block a : add; # one\n}  # end")
        assert _lines(g) == [("model", "m", 1), ("block", "a", 2)]

    def test_empty_string(self):
        g = parse_model('model m {\n  subsystem CHAN_c {\n'
                        '    param topology = "";\n  }\n}\n')
        assert g.subsystems[0].params == {"topology": ""}
        assert g.subsystems[0].line == 2

    def test_hash_inside_string(self):
        g = parse_model('model m { subsystem CHAN_c { param t = "a#b"; } '
                        '# "c"\n  block u : user("x#y"); }')
        assert g.subsystems[0].params == {"t": "a#b"}
        assert (g.blocks[0].params, g.blocks[0].line) == (("x#y",), 2)

    def test_negative_number_and_arrow(self):
        g = parse_model("model m { block c : const(-7); block d : gain(-0);\n"
                        "link c.out->d.in; }")
        assert [b.params for b in g.blocks] == [(-7,), (0,)]
        assert str(g.links[0].dst) == "d.in" and g.links[0].line == 2


def test_graph_digest():
    """The graphs of the shipped model, every ``*_FDM`` helper and the
    generated wide designs, line numbers included, hash to one pinned
    value."""
    gen = helpers.gen_wide()
    texts = [(ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()]
    texts += [v for k, v in sorted(vars(helpers).items())
              if k.endswith("_FDM")]
    texts += [gen.generate(seed, 50) for seed in (0, 1, 2)]
    texts.append(gen.generate(1, 200))
    h = hashlib.sha256()
    for text in texts:
        h.update(repr(parse_model(text)).encode())
    assert len(texts) == 15
    assert h.hexdigest() == \
        "923e0541b58670abafcb459929d476afd816e25ba35b18f77b82baead3f68f80"
