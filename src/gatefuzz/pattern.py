"""Primary-input patterns: total bit assignments in primary-input order.

A pattern is held packed: ``word`` is a ``width``-bit int whose most
significant bit is the first primary input.  That is the order of a pattern
file line, so :meth:`InputPattern.to_string` is ``word`` in base 2, and the
Hamming distance of two patterns is ``(p.word ^ q.word).bit_count()``.  The
solver keeps its input words in the same order (input variable ``v`` is bit
``width - v``), so a model's :attr:`~gatefuzz.sat.SatResult.inputs` is its
pattern's word.  Other modules use the word whole (XOR, popcount, masks of
free inputs), build one by shifting in the inputs' values first input first,
or go through the string form.
"""

from __future__ import annotations


class InputPattern:
    """A total assignment to the primary inputs; ``bits[0]`` is the first input.

    Patterns are immutable values: two are equal, and hash equal, when their
    words and widths are.
    """

    __slots__ = ("word", "width")

    def __init__(self, bits):
        word = 0
        width = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("pattern bits must be 0 or 1")
            word = word << 1 | b
            width += 1
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "width", width)

    @classmethod
    def from_word(cls, word: int, width: int) -> "InputPattern":
        """The pattern whose first input is bit ``width - 1`` of ``word``."""
        if word < 0 or word >> width:
            raise ValueError(f"pattern word {word} does not fit in {width} bits")
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "word", word)
        object.__setattr__(pattern, "width", width)
        return pattern

    @classmethod
    def from_words(cls, words, width: int) -> list["InputPattern"]:
        """The patterns of ``words``, which the caller has kept within
        ``width`` bits (a model's inputs, a mutant of such words): unlike
        :meth:`from_word`, nothing is checked."""
        new, set_word, set_width = object.__new__, cls.word.__set__, cls.width.__set__
        patterns = []
        for word in words:
            pattern = new(cls)
            set_word(pattern, word)
            set_width(pattern, width)
            patterns.append(pattern)
        return patterns

    @classmethod
    def from_string(cls, text: str) -> "InputPattern":
        text = text.strip()
        if not set(text) <= {"0", "1"}:
            raise ValueError("pattern bits must be 0 or 1")
        return cls.from_word(int(text, 2) if text else 0, len(text))

    def to_string(self) -> str:
        return format(self.word, f"0{self.width}b") if self.width else ""

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, self.to_string()))

    def __len__(self):
        return self.width

    def __eq__(self, other):
        if not isinstance(other, InputPattern):
            return NotImplemented
        return self.word == other.word and self.width == other.width

    def __hash__(self):
        return hash((self.word, self.width))

    def __repr__(self):
        return f"InputPattern.from_string({self.to_string()!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"InputPattern is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"InputPattern is immutable; cannot delete {name!r}")
