import warnings

import pytest

from gatefuzz.blif import BlifCoverError, parse_blif
from gatefuzz.netlist import Netlist, NetlistSyntaxError, RawGate


def _single_gate(text):
    n = parse_blif(text)
    assert len(n.gates) == 1
    return n.gates[0]


def test_canonical_and():
    g = _single_gate(".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end")
    assert g.kind == "AND" and g.inputs == ("a", "b") and g.output == "y"


def test_canonical_not():
    g = _single_gate(".model t\n.inputs a\n.outputs y\n.names a y\n0 1\n.end")
    assert g.kind == "NOT"


def test_buf_both_forms():
    assert _single_gate(".inputs a\n.outputs y\n.names a y\n1 1\n.end").kind == "BUF"
    assert _single_gate(".inputs a\n.outputs y\n.names a y\n0 0\n.end").kind == "BUF"


def test_or_one_hot_rows():
    g = _single_gate(".inputs a b c\n.outputs y\n.names a b c y\n1-- 1\n-1- 1\n--1 1\n.end")
    assert g.kind == "OR" and g.inputs == ("a", "b", "c")


def test_nor_offset_single_row():
    g = _single_gate(".inputs a b\n.outputs y\n.names a b y\n00 1\n.end")
    assert g.kind == "NOR"


def test_nand_as_onset_zeros():
    g = _single_gate(".inputs a b\n.outputs y\n.names a b y\n0- 1\n-0 1\n.end")
    assert g.kind == "NAND"


def test_xor_full_rows():
    g = _single_gate(".inputs a b\n.outputs y\n.names a b y\n01 1\n10 1\n.end")
    assert g.kind == "XOR"


def test_xnor_full_rows():
    g = _single_gate(".inputs a b\n.outputs y\n.names a b y\n00 1\n11 1\n.end")
    assert g.kind == "XNOR"


def test_xor3():
    rows = "001 1\n010 1\n100 1\n111 1"
    g = _single_gate(f".inputs a b c\n.outputs y\n.names a b c y\n{rows}\n.end")
    assert g.kind == "XOR"


def test_constants():
    n = parse_blif(".outputs y\n.names y\n1\n.end")
    assert n.gates[0].kind == "CONST1"
    n = parse_blif(".outputs y\n.names y\n.end")
    assert n.gates[0].kind == "CONST0"


def test_inexpressible_cover_reports_rows():
    text = ".inputs a b c\n.outputs y\n.names a b c y\n1-1 1\n-11 1\n.end"
    with pytest.raises(BlifCoverError) as exc:
        parse_blif(text)
    assert "1-1 1" in str(exc.value)
    assert "-11 1" in str(exc.value)


def test_mixed_onset_offset_rejected():
    with pytest.raises(BlifCoverError, match="mixed"):
        parse_blif(".inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end")


def test_latch_becomes_dff_of_d_and_q_alone(caplog, capsys):
    # full scan makes every flip-flop output a free input, so the latch's
    # type, clock and init fields change no pattern and are dropped unremarked
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for latch in (".latch d q", ".latch d q 0", ".latch d q re clk 2"):
            n = parse_blif(f".model seq\n.inputs d\n.outputs q\n{latch}\n.end")
            assert n == Netlist(name="seq", primary_inputs=["d"], primary_outputs=["q"],
                                gates=[RawGate("q", "DFF", ("d",))])
    assert caplog.records == []
    assert capsys.readouterr() == ("", "")


def test_line_continuation():
    n = parse_blif(".inputs a \\\n b\n.outputs y\n.names a b y\n11 1\n.end")
    assert n.primary_inputs == ["a", "b"]


def test_bad_row_width():
    with pytest.raises(NetlistSyntaxError, match="does not match"):
        parse_blif(".inputs a b\n.outputs y\n.names a b y\n111 1\n.end")


def test_unsupported_construct():
    with pytest.raises(NetlistSyntaxError, match="unsupported BLIF construct"):
        parse_blif(".subckt foo a=b\n.end")


_AB = ".inputs a b\n.outputs y\n"


@pytest.mark.parametrize("text, line, message", [
    # syntax
    (".names y\n1\n.end\n.names z\n", 4, "content after .end"),
    (".model a\n.model b\n", 2, "multiple .model sections are not supported"),
    (".latch d\n", 1, ".latch requires <input> <output>"),
    (".names\n", 1, ".names requires at least an output"),
    (_AB + ".names a b y\n1 1 1\n", 4, "malformed cover row '1 1 1'"),
    # rows
    (_AB + ".names a b y\n1 1\n", 4, "cover row '1 1' does not match 2 inputs"),
    (_AB + ".names a b y\n12 1\n", 4, "cover row '12 1' does not match 2 inputs"),
    (_AB + ".names a b y\n11 x\n", 4, "cover output must be 0 or 1, got 'x'"),
    # outside a cover
    (".subckt foo a=b\n.end\n", 1, "unsupported BLIF construct '.subckt'"),
    (_AB + "11 1\n.end\n", 3, "unsupported BLIF construct '11'"),
    # a continued row is reported at the logical line's first line
    (_AB + ".names a b y\n11 1\n11 \\\nx\n.end\n", 5, "cover output must be 0 or 1, got 'x'"),
])
def test_syntax_errors_pinned(text, line, message):
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_blif(text)
    assert type(exc.value) is NetlistSyntaxError
    assert str(exc.value) == f"line {line}, col 1: {message}"
    assert exc.value.line == line


@pytest.mark.parametrize("text, detail, rows", [
    (_AB + ".names a b y\n11 1\n00 0\n", "mixed on-set and off-set rows", [("11", "1"), ("00", "0")]),
    (_AB + ".names a b y\n.end\n", "empty cover with inputs", []),
    (".outputs y\n.names y\n1\n1\n.end\n", "malformed constant cover", [("", "1"), ("", "1")]),
    (".inputs a\n.outputs y\n.names a y\n- 1\n.end\n", "unrecognized unary cover", [("-", "1")]),
    (_AB + ".names a b y\n10 1\n.end\n", "no supported gate matches", [("10", "1")]),
])
def test_cover_errors_pinned(text, detail, rows):
    with pytest.raises(BlifCoverError) as exc:
        parse_blif(text)
    rows_text = "; ".join(" ".join(r) for r in rows) or "<empty>"
    assert str(exc.value) == (f"cover for 'y' not expressible as a supported gate kind "
                              f"({detail}); rows: {rows_text}")
    assert exc.value.rows == rows


def test_cover_errors_before_the_directive_that_closes_it():
    # a cover closes at the next directive, so its own error comes first
    with pytest.raises(BlifCoverError, match="no supported gate matches"):
        parse_blif(_AB + ".names a b y\n10 1\n.subckt foo a=b\n")
    with pytest.raises(BlifCoverError, match="empty cover with inputs"):
        parse_blif(_AB + ".names a b y\n.end\n.end\n")


def test_cover_closed_by_the_end_of_text():
    n = parse_blif(".model t\n" + _AB + ".names a\\\n b y\n1- 1\n-1 1")
    assert n == Netlist(name="t", primary_inputs=["a", "b"], primary_outputs=["y"],
                        gates=[RawGate("y", "OR", ("a", "b"))])
    assert parse_blif(".outputs y\n.names y").gates == [RawGate("y", "CONST0", ())]
