"""Primary-input patterns: total bit assignments in primary-input order."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InputPattern:
    """A total assignment to the primary inputs; ``bits[0]`` is the first input."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("pattern bits must be 0 or 1")

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_string(cls, text: str) -> "InputPattern":
        return cls(tuple(int(ch) for ch in text.strip()))

    def hamming(self, other: "InputPattern") -> int:
        if len(other) != len(self):
            raise ValueError("patterns have different widths")
        return sum(a != b for a, b in zip(self.bits, other.bits))
