import random
import re

import pytest

from gatefuzz.bench import parse_bench, write_bench
from gatefuzz.fixtures import fixture_text
from gatefuzz.graph import build_graph
from gatefuzz.netlist import Netlist, NetlistError, NetlistSyntaxError, RawGate, scan_convert

from conftest import random_netlist


def test_minimal_and():
    n = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")
    assert n.primary_inputs == ["a", "b"]
    assert n.primary_outputs == ["y"]
    assert len(n.gates) == 1
    assert n.gates[0].kind == "AND"
    assert n.gates[0].inputs == ("a", "b")


def test_bundled_c17_counts():
    n = parse_bench(fixture_text("c17.bench"), name="c17")
    assert len(n.primary_inputs) == 5
    assert len(n.primary_outputs) == 2
    assert len(n.gates) == 6
    assert all(g.kind == "NAND" for g in n.gates)


def _structure_error(text):
    """The error that graph build reports; parsing checks only syntax."""
    netlist = parse_bench(text)
    with pytest.raises(NetlistError) as exc:
        build_graph(netlist)
    assert not isinstance(exc.value, NetlistSyntaxError)
    return str(exc.value)


def test_and_arity_violation():
    # reported by Netlist.validate, which names the gate but not the line
    assert _structure_error("INPUT(a)\nOUTPUT(y)\ny = AND(a)") == \
        "AND requires >= 2 inputs, got 1 for 'y'"


def test_comments_blanks_and_buff_alias():
    n = parse_bench("# header\n\nINPUT(a)  # trailing\nOUTPUT(y)\ny = BUFF(a)\n")
    assert n.gates[0].kind == "BUF"


def test_case_sensitive_identifiers():
    assert _structure_error("INPUT(A)\nOUTPUT(y)\ny = NOT(a)") == \
        "undefined signal 'a' feeding gate 'y'"


def test_syntax_error_has_line():
    with pytest.raises(NetlistSyntaxError, match="line 2"):
        parse_bench("INPUT(a)\nwhat is this\n")


@pytest.mark.parametrize("line", ["OUTPUT(y=a)", "INPUT(a) = b", "y = ", "= AND(a, b)", "y == AND(a, b)"])
def test_lines_with_equals_that_are_not_gates(line):
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_bench(f"INPUT(a)\nINPUT(b)\n{line}\nOUTPUT(y)\ny = AND(a, b)")
    assert str(exc.value) == f"line 3, col 1: unrecognized construct {line.strip()!r}"


def test_duplicate_definition():
    assert _structure_error("INPUT(a)\nINPUT(b)\ny = AND(a, b)\ny = OR(a, b)\nOUTPUT(y)") == \
        "duplicate definition of 'y'"


def test_undefined_reference():
    assert _structure_error("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)") == \
        "undefined signal 'ghost' feeding gate 'y'"


def test_unsupported_keyword():
    with pytest.raises(NetlistSyntaxError, match="unsupported gate keyword"):
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(a, b)")


@pytest.mark.parametrize("line,message", [
    # the keyword's column, not the first match of its text in the output name
    ("FOOx = FOO(a)", "line 2, col 8: unsupported gate keyword 'FOO'"),
    # columns count the indentation that parsing strips
    ("    y = FOO(a)", "line 2, col 9: unsupported gate keyword 'FOO'"),
    ("  y = AND(a, )", "line 2, col 10: empty argument in gate input list"),
    ("    what is this", "line 2, col 5: unrecognized construct 'what is this'"),
    # a tab is one column of indentation
    ("\ty = AND(a, )", "line 2, col 9: empty argument in gate input list"),
    ("\t\twhat is this", "line 2, col 3: unrecognized construct 'what is this'"),
    # CRLF line endings: the carriage return is neither a column nor part of the line
    ("INPUT(b)\r\n  y = FOO(a, b)\r", "line 3, col 7: unsupported gate keyword 'FOO'"),
    # a trailing comment is not part of the construct, nor of the keyword
    ("what is this  # a comment", "line 2, col 1: unrecognized construct 'what is this'"),
    ("y = FOO(a) # = BUF(a)", "line 2, col 5: unsupported gate keyword 'FOO'"),
    # keywords are matched case-insensitively, so only the unknown one fails
    ("b =buff( a )\ny  =  foo( a ,b )", "line 3, col 7: unsupported gate keyword 'foo'"),
    # NBSP and the unit separator \x1f are blanks, and each is one column
    ("\xa0\x1fy\xa0=\xa0FOO(a)", "line 2, col 7: unsupported gate keyword 'FOO'"),
    # a comment cuts a gate line short wherever it starts
    ("y = AND(a # , b)", "line 2, col 1: unrecognized construct 'y = AND(a'"),
])
def test_syntax_error_columns(line, message):
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_bench(f"INPUT(a)\n{line}\nOUTPUT(y)")
    assert str(exc.value) == message


def test_numeric_identifiers():
    n = parse_bench("INPUT(1)\nINPUT(3)\nOUTPUT(10)\n10 = NAND(1, 3)")
    assert n.gates[0].output == "10"


def test_scan_convert_single_dff():
    n = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(d)\nd = AND(a, q)\ny = OR(b, q)")
    c = scan_convert(n)
    assert not c.has_dff
    assert c.primary_inputs == ["a", "b", "q"]
    assert c.primary_outputs == ["y", "d"]


def test_scan_convert_combinational_identity():
    n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)")
    c = scan_convert(n)
    assert c is n
    assert c.gates == n.gates
    assert c.primary_inputs == n.primary_inputs


def test_scan_convert_idempotent():
    n = parse_bench(fixture_text("s27.bench"), name="s27")
    once = scan_convert(n)
    twice = scan_convert(once)
    assert twice is once


@pytest.mark.parametrize("gates,message", [
    ([RawGate("q", "DFF", ())], "DFF requires exactly 1 input, got 0 for 'q'"),
    ([RawGate("q", "DFF", ("a", "a"))], "DFF requires exactly 1 input, got 2 for 'q'"),
    ([RawGate("q", "DFF", ("d",))], "undefined signal 'd' feeding gate 'q'"),
])
def test_scan_convert_rejects_an_invalid_sequential_netlist(gates, message):
    n = Netlist("x", ["a"], ["q"], gates)
    with pytest.raises(NetlistError) as exc:
        scan_convert(n)
    assert str(exc.value) == message


def test_s27_scan_counts():
    n = parse_bench(fixture_text("s27.bench"), name="s27")
    assert sum(1 for g in n.gates if g.kind == "DFF") == 3
    assert len(n.primary_inputs) == 4
    c = scan_convert(n)
    assert len(c.primary_inputs) == 7
    assert len(c.primary_outputs) == len(n.primary_outputs) + 3


def test_round_trip_fixture():
    n = parse_bench(fixture_text("c17.bench"), name="c17")
    again = parse_bench(write_bench(n), name="c17")
    assert again.primary_inputs == n.primary_inputs
    assert again.primary_outputs == n.primary_outputs
    assert again.gates == n.gates


def _crlf_with_comments(text):
    return "".join(f"{line}  # note\r\n" for line in text.splitlines())


def _lowercase_buff_odd_spacing(text):
    # keywords in lower case, BUF as its alias BUFF, and blanks around every token
    text = re.sub(r" = ([A-Z]+)\(", lambda m: f"\t=  {m.group(1).lower()}( ", text)
    return text.replace("=  buf(", "=  buff(").replace(", ", " ,\t").replace(")\n", " )\n")


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(25):
        n = random_netlist(rng, n_inputs=rng.randint(1, 6), n_gates=rng.randint(1, 20),
                           with_dffs=True)
        text = write_bench(n)
        for spelled in (text, _crlf_with_comments(text), _lowercase_buff_odd_spacing(text)):
            again = parse_bench(spelled, name=n.name)
            assert again.primary_inputs == n.primary_inputs
            assert again.primary_outputs == n.primary_outputs
            assert again.gates == n.gates


@pytest.mark.parametrize("line,message", [
    ("what is this", "line 1002, col 1: unrecognized construct 'what is this'"),
    ("y = FOO(a)", "line 1002, col 5: unsupported gate keyword 'FOO'"),
    ("y = AND(a,,b)", "line 1002, col 8: empty argument in gate input list"),
])
def test_first_error_after_many_valid_lines_reports_its_line(line, message):
    body = "".join(f"g{i} = NOT(a)\n" if i % 7 else "# every seventh line a comment\n"
                   for i in range(1000))
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_bench(f"INPUT(a)\n{body}{line}\nalso bad\n")
    assert str(exc.value) == message
    assert exc.value.line == 1002


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_lines_split_where_splitlines_splits(sep):
    n = parse_bench(sep.join(["INPUT(a)", "OUTPUT(y)", "y = NOT(a)"]))
    assert (n.primary_inputs, n.primary_outputs, n.gates) == (["a"], ["y"], [("y", "NOT", ("a",))])
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_bench(sep.join(["INPUT(a)", "  # note", "", "  what is this"]))
    assert str(exc.value) == "line 4, col 3: unrecognized construct 'what is this'"


def test_blanks_that_are_not_line_breaks_separate_tokens():
    # NBSP, tab and the unit separator \x1f are whitespace but do not end a line
    n = parse_bench("\xa0INPUT\t(\xa0a\x1f)\nINPUT(b)\nOUTPUT( y )\xa0\n"
                    "\ty\xa0=\tAND(\xa0a ,\tb\x1f)\xa0\x1f\n")
    assert n.primary_inputs == ["a", "b"]
    assert n.primary_outputs == ["y"]
    assert n.gates == [("y", "AND", ("a", "b"))]


def test_a_comment_may_hold_parentheses_and_equals():
    n = parse_bench("INPUT(a) # (x = y\nINPUT(b)#)\nOUTPUT(y) # = AND(a, b)\n"
                    "y = AND(a, b) # = OR(a, b)\n# y = (\n")
    assert n.primary_inputs == ["a", "b"]
    assert n.primary_outputs == ["y"]
    assert n.gates == [("y", "AND", ("a", "b"))]


@pytest.mark.parametrize("text", ["", "\n", "# only a comment", "  \n\t\n"])
def test_text_without_constructs_is_an_empty_netlist(text):
    n = parse_bench(text, name="empty")
    assert n == Netlist("empty")


def test_no_trailing_newline():
    n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)  # last")
    assert n.gates == [("y", "BUF", ("a",))]
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, )")
    assert str(exc.value) == "line 3, col 8: empty argument in gate input list"


_BLANKS = ["", "", " ", "  ", "\t", "\xa0", "\x1f"]


def _respelled(text, rng):
    """``text`` with random blanks between its tokens, comments, blank lines
    and line breaks."""
    lines = []
    for line in text.splitlines():
        tokens = re.findall(r"[(),=]|[^(),=\s]+", line)
        if tokens[0] == "#":
            lines.append(line)
            continue
        spelled = "".join(rng.choice(_BLANKS) + t for t in tokens) + rng.choice(_BLANKS)
        if rng.random() < 0.3:
            spelled += rng.choice(["#", " # (a = b)", "\t#,", "# INPUT(x)"])
        lines.append(spelled)
        if rng.random() < 0.1:
            lines.append(rng.choice(["", " ", "# a comment", "\t# = ("]))
    breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028"]
    return "".join(line + rng.choice(breaks) for line in lines)


def test_round_trip_random_spelling():
    rng = random.Random(30)
    for _ in range(40):
        n = random_netlist(rng, n_inputs=rng.randint(1, 8), n_gates=rng.randint(1, 60),
                           with_dffs=True)
        text = write_bench(n)
        assert parse_bench(text, name=n.name) == n
        assert parse_bench(_respelled(text, rng), name=n.name) == n


BAD_LINES = ["what is this", "y = FOO(a)", "y = AND(a,,b)", "y = AND(a b", "  INPUT(a",
             "x = and(a, )"]


def _first_error(text):
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_bench(text)
    return type(exc.value), str(exc.value), exc.value.line, exc.value.column


def test_line_breaks_do_not_change_the_parse():
    # a text that "\n" alone breaks is matched in place; any other break
    # sends it through str.splitlines; both must read the same netlist, and
    # the same first error, with its line and column
    rng = random.Random(2026)
    for _ in range(40):
        n = random_netlist(rng, n_inputs=rng.randint(1, 8), n_gates=rng.randint(1, 60),
                           with_dffs=rng.random() < 0.5)
        lines = write_bench(n).splitlines()
        spellings = ["\n".join(lines), "\n".join(lines) + "\n", "\r\n".join(lines) + "\r\n",
                     "\u2028".join(lines)]
        assert all(parse_bench(text, name=n.name) == n for text in spellings)
        bad = rng.randrange(len(lines) + 1)
        broken = [*lines[:bad], rng.choice(BAD_LINES), *lines[bad:]]
        errors = [_first_error(sep.join(broken) + end)
                  for sep, end in (("\n", ""), ("\n", "\n"), ("\r\n", "\r\n"), ("\u2028", ""))]
        assert errors[0][2] == bad + 1
        assert errors.count(errors[0]) == len(errors)
