"""Tokenizer for the synthesizable HLS C subset."""

from __future__ import annotations

import dataclasses
import re

KEYWORDS = {
    "void", "float", "double", "int", "for", "if", "else", "return", "const",
}

#: Multi-character operators, longest first so the tokenizer is greedy.
OPERATORS = [
    "+=", "-=", "*=", "/=", "==", "!=", "<=", ">=", "++", "--", "&&", "||",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "?", ":",
]

PUNCTUATION = ["(", ")", "{", "}", "[", "]", ";", ","]


@dataclasses.dataclass
class Token:
    """A single lexical token with its source line for diagnostics."""

    kind: str  # "keyword", "identifier", "number", "operator", "punct", "eof"
    text: str
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


class LexError(Exception):
    """Raised on an unrecognised character."""


_NUMBER_RE = re.compile(r"\d+\.\d*([eE][+-]?\d+)?[fF]?|\.\d+([eE][+-]?\d+)?[fF]?|\d+[fF]?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def tokenize(source: str) -> list[Token]:
    """Tokenize C source, skipping comments and ``#pragma`` / ``#include`` lines."""
    tokens: list[Token] = []
    line = 1
    i = 0
    length = len(source)
    while i < length:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            # Preprocessor directive: skip the rest of the (logical) line.
            while i < length and source[i] != "\n":
                i += 1
            continue
        if source.startswith("//", i):
            while i < length and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LexError(f"unterminated block comment at line {line}")
            line += source.count("\n", i, end)
            i = end + 2
            continue
        number = _NUMBER_RE.match(source, i)
        if number and number.start() == i and source[i].isdigit() or (ch == "." and number):
            text = number.group(0)
            tokens.append(Token("number", text, line))
            i = number.end()
            continue
        ident = _IDENT_RE.match(source, i)
        if ident:
            text = ident.group(0)
            kind = "keyword" if text in KEYWORDS else "identifier"
            tokens.append(Token(kind, text, line))
            i = ident.end()
            continue
        matched = False
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("operator", op, line))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in PUNCTUATION:
            tokens.append(Token("punct", ch, line))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r} at line {line}")
    tokens.append(Token("eof", "", line))
    return tokens
