"""Estimated text geometry from bundled average-advance tables.

No real shaping: a width is the left-to-right sum of per-character
advances for a generic proportional face (scaled per family) or a flat
monospace advance, which keeps layout deterministic and dependency-free.
"""

from __future__ import annotations

import functools
import math

from .numeric import left_sum

# per-mille-of-em advances for ASCII 32..126, generic proportional face
_PROPORTIONAL = {
    " ": 278, "!": 278, '"': 355, "#": 556, "$": 556, "%": 889, "&": 667,
    "'": 191, "(": 333, ")": 333, "*": 389, "+": 584, ",": 278, "-": 333,
    ".": 278, "/": 278, "0": 556, "1": 556, "2": 556, "3": 556, "4": 556,
    "5": 556, "6": 556, "7": 556, "8": 556, "9": 556, ":": 278, ";": 278,
    "<": 584, "=": 584, ">": 584, "?": 556, "@": 1015, "A": 667, "B": 667,
    "C": 722, "D": 722, "E": 667, "F": 611, "G": 778, "H": 722, "I": 278,
    "J": 500, "K": 667, "L": 556, "M": 833, "N": 722, "O": 778, "P": 667,
    "Q": 778, "R": 722, "S": 667, "T": 611, "U": 722, "V": 667, "W": 944,
    "X": 667, "Y": 667, "Z": 611, "[": 278, "\\": 278, "]": 278, "^": 469,
    "_": 556, "`": 333, "a": 556, "b": 556, "c": 500, "d": 556, "e": 556,
    "f": 278, "g": 556, "h": 556, "i": 222, "j": 222, "k": 500, "l": 222,
    "m": 833, "n": 556, "o": 556, "p": 556, "q": 556, "r": 333, "s": 500,
    "t": 278, "u": 556, "v": 500, "w": 722, "x": 500, "y": 500, "z": 500,
    "{": 334, "|": 260, "}": 334, "~": 584,
}
_DEFAULT_ADVANCE = 556
_MONO_ADVANCE = 600

_MONOSPACE = {"menlo", "consolas", "courier new", "courier", "monaco"}

# rough per-family width scaling relative to the generic face
_FAMILY_SCALE = {
    "verdana": 1.10, "georgia": 1.05, "calibri": 0.93,
    "arial": 1.0, "helvetica": 1.0,
}

LINE_HEIGHT_FACTOR = 1.3


def font_px(font_size_pt: int | float) -> int:
    """CSS pixels for a point size (96 dpi reference)."""
    return math.ceil(font_size_pt * 4 / 3)


def line_height(font_size_pt: int | float) -> int:
    return math.ceil(font_px(font_size_pt) * LINE_HEIGHT_FACTOR)


class _Advances(dict):
    """Character -> advance in CSS pixels for one (font family, size); any
    character not in the table gets the family's default advance."""

    __slots__ = ("default",)

    def __missing__(self, ch: str) -> float:
        return self.default


@functools.lru_cache(maxsize=256)
def _advances(font_family: str, font_size_pt: int | float) -> _Advances:
    # each entry is computed exactly as mille / 1000 * px * scale, so widths
    # summed from the table equal those summed from per-character formulas
    family = font_family.lower()
    px = font_px(font_size_pt)
    table = _Advances()
    if family in _MONOSPACE:
        table.default = _MONO_ADVANCE / 1000 * px * 1.0
    else:
        scale = _FAMILY_SCALE.get(family, 1.0)
        table.default = _DEFAULT_ADVANCE / 1000 * px * scale
        for ch, mille in _PROPORTIONAL.items():
            table[ch] = mille / 1000 * px * scale
    return table


def paragraph_advances(text: str, font_family: str, font_size_pt: int | float) -> list[list[float]]:
    """The advance of each character of the text, one list per line of it."""
    advance = _advances(font_family, font_size_pt).__getitem__
    return [list(map(advance, part)) for part in text.split("\n")]


def text_width(text: str, font_family: str, font_size_pt: int | float) -> float:
    """Width of the widest line of the text, unwrapped."""
    return max(map(left_sum, paragraph_advances(text, font_family, font_size_pt)))


def _break_long_word(
    word: str, advances: list[float], max_width: float
) -> list[tuple[str, list[float]]]:
    """Hard-break a word wider than the limit into (piece, advances) pairs."""
    pieces: list[tuple[str, list[float]]] = []
    start = 0
    width = 0.0
    for i, adv in enumerate(advances):
        if i > start and width + adv > max_width:
            pieces.append((word[start:i], advances[start:i]))
            start, width = i, adv
        else:
            width += adv
    if start < len(word):
        pieces.append((word[start:], advances[start:]))
    return pieces


def wrap_text(text: str, font_family: str, font_size_pt: int | float, max_width: float) -> list[str]:
    """Greedy word-boundary wrap; words wider than the limit are hard-broken."""
    paragraphs = paragraph_advances(text, font_family, font_size_pt)
    return wrap_measured(text, paragraphs, font_family, font_size_pt, max_width)


def wrap_measured(
    text: str,
    paragraphs: list[list[float]],
    font_family: str,
    font_size_pt: int | float,
    max_width: float,
) -> list[str]:
    """wrap_text of a text whose paragraph_advances are given, so that a
    caller that measured the text already does not measure it again."""
    space = _advances(font_family, font_size_pt)[" "]
    lines: list[str] = []
    for paragraph, measured in zip(text.split("\n"), paragraphs):
        if left_sum(measured) <= max_width and not paragraph.startswith(" "):
            # every width the loop below compares is a prefix of this left
            # to right sum, so it would break nowhere; it drops only leading
            # spaces, which the test keeps from this shortcut
            lines.append(paragraph)
            continue
        line = ""
        line_width = 0.0  # text_width(line): its advances summed left to right
        start = 0  # where the word starts in the paragraph
        for word in paragraph.split(" "):
            advances = measured[start : start + len(word)]
            start += len(word) + 1
            if word and left_sum(advances) > max_width:
                pieces = _break_long_word(word, advances, max_width)
            else:
                pieces = [(word, advances)]
            for piece, piece_advances in pieces:
                if line:
                    width = left_sum(piece_advances, line_width + space)
                    if width <= max_width:
                        line, line_width = line + " " + piece, width
                        continue
                    lines.append(line)
                line, line_width = piece, left_sum(piece_advances)
        lines.append(line)
    return lines
