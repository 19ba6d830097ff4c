import random

import pytest

import gatefuzz
from gatefuzz.blif import parse_blif
from gatefuzz.graph import build_graph
from gatefuzz.netlist import scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.simulate import simulate


def test_first_input_is_the_leftmost_character_and_the_top_bit():
    p = InputPattern((1, 0, 0, 1, 1))
    assert p.to_string() == "10011"
    assert p.word == 0b10011 and p.width == len(p) == 5
    assert p.bits == (1, 0, 0, 1, 1)
    assert InputPattern.from_string(p.to_string()) == p


def test_bits_and_word_constructions_are_one_value():
    rng = random.Random(3)
    for width in (1, 7, 64, 65, 200):
        bits = tuple(rng.randrange(2) for _ in range(width))
        a = InputPattern(bits)
        b = InputPattern.from_word(int("".join(map(str, bits)), 2), width)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a.bits == bits
    assert InputPattern((0, 1)) != InputPattern((1,))  # same word, other width
    assert InputPattern((True, False)) == InputPattern((1, 0))


@pytest.mark.parametrize("width", [0, 1, 5, 64, 200])
def test_bulk_construction_equals_one_word_at_a_time(width):
    rng = random.Random(width)
    words = [rng.getrandbits(width) for _ in range(40)] + [0, (1 << width) - 1]
    patterns = InputPattern.from_words(iter(words), width)
    assert patterns == [InputPattern.from_word(word, width) for word in words]
    assert all(type(p) is InputPattern and hash(p) == hash(InputPattern.from_word(p.word, width))
               for p in patterns)
    assert InputPattern.from_words([], width) == []
    with pytest.raises(AttributeError):
        patterns[0].word = 1


def test_width_zero_pattern():
    p = InputPattern(())
    assert p.to_string() == "" and p.bits == () and len(p) == 0
    assert p == InputPattern.from_string("") == InputPattern.from_word(0, 0)
    assert hash(p) == hash(InputPattern.from_word(0, 0))
    g = build_graph(scan_convert(parse_blif(".model k\n.outputs y\n.names y\n1\n.end\n")))
    assert g.input_count == 0
    assert simulate(g, p)[g.node_id("y")] == 1


@pytest.mark.parametrize("bits", [(0, 2), (1, -1), (0, 1, 3)])
def test_bits_outside_zero_one_rejected(bits):
    with pytest.raises(ValueError, match="0 or 1"):
        InputPattern(bits)


@pytest.mark.parametrize("text", ["012", "1x", "0b1", "1_0", "+1", "1 0"])
def test_from_string_rejects_non_binary_text(text):
    with pytest.raises(ValueError):
        InputPattern.from_string(text)


@pytest.mark.parametrize("word, width", [(4, 2), (1, 0), (-1, 3)])
def test_from_word_rejects_words_wider_than_the_pattern(word, width):
    with pytest.raises(ValueError, match="does not fit"):
        InputPattern.from_word(word, width)


def test_patterns_are_immutable():
    p = InputPattern((1, 0))
    with pytest.raises(AttributeError):
        p.word = 3
    with pytest.raises(AttributeError):
        del p.width
    assert p == InputPattern((1, 0))


def test_every_exported_name_resolves():
    for name in gatefuzz.__all__:
        assert getattr(gatefuzz, name) is not None, name
