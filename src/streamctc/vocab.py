"""Token vocabulary and label sequences.

The default vocabulary has 29 tokens: CTC blank (index 0), the word
delimiter ``|`` (1), an unknown marker (2), and the 26 lowercase letters
(3..28). Labels never contain the blank.
"""

from __future__ import annotations

from dataclasses import dataclass

BLANK = 0
DELIMITER = 1
UNKNOWN = 2


@dataclass(frozen=True)
class Vocabulary:
    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ValueError("vocabulary needs blank plus at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols")

    @classmethod
    def default(cls) -> "Vocabulary":
        letters = tuple(chr(c) for c in range(ord("a"), ord("z") + 1))
        return cls(symbols=("<blank>", "|", "<unk>") + letters)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def char_of(self, token: int) -> str:
        sym = self.symbols[token]
        return "?" if sym == "<unk>" else sym

    def encode(self, text: str) -> "LabelSequence":
        """Text to label tokens; spaces map to the word delimiter, unmapped
        characters to the unknown token."""
        lookup = {s: i for i, s in enumerate(self.symbols)}
        tokens = []
        for ch in text:
            if ch == " ":
                tokens.append(DELIMITER)
            elif ch in lookup and lookup[ch] != BLANK:
                tokens.append(lookup[ch])
            else:
                tokens.append(UNKNOWN)
        return LabelSequence(tuple(tokens))

    def decode(self, labels: "LabelSequence") -> str:
        return "".join(self.char_of(t) for t in labels.tokens)


@dataclass(frozen=True)
class LabelSequence:
    """Token indices excluding blank."""

    tokens: tuple

    def __post_init__(self):
        toks = tuple(int(t) for t in self.tokens)
        if any(t == BLANK for t in toks):
            raise ValueError("labels must not contain the blank token")
        if any(t < 0 for t in toks):
            raise ValueError("negative token index")
        object.__setattr__(self, "tokens", toks)
