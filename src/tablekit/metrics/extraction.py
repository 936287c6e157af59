"""Pulling structured answers out of free-form model responses.

The preferred route is the last balanced top-level JSON object in the
text; for `tr` it must hold an "answer", as one without it is table text
(the {} of an empty LaTeX \\multicolumn, say). When no object parses,
task-aware regular expressions try to recover the answer from plain
prose; failing that the trimmed text is returned as-is. Only an empty
response yields Failed. Total: never raises on arbitrary input.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass

from ..taskdefs import TaskKind


class ExtractionStatus(enum.Enum):
    PARSED_JSON = "parsed_json"
    REGEX_FALLBACK = "regex_fallback"
    RAW_TEXT = "raw_text"
    FAILED = "failed"


@dataclass(frozen=True)
class ExtractionResult:
    status: ExtractionStatus
    payload: object  # dict for the first two statuses, str for raw text, None for failed


_OUTSIDE, _INSIDE, _ESCAPED = 0, 1, 2  # string states of a brace scan
# the characters a brace scan reacts to; a backslash comes with the character
# it escapes, so an escaped group always resolves within the same match
_SIGNIFICANT = re.compile(r'[{}"]|\\.?', re.S)


class _ScanGroup:
    """Brace scans in the same string state. They see the same characters
    the same way from here on, so one depth counter serves them all; each
    start is filed under the counter value at which its scan closes."""

    __slots__ = ("depth", "pending", "size")

    def __init__(self) -> None:
        self.depth = 0
        self.pending: dict[int, list[int]] = {}
        self.size = 0

    def merge(self, other: "_ScanGroup") -> "_ScanGroup":
        """The union of two groups: the smaller is re-based into the larger."""
        big, small = (self, other) if self.size >= other.size else (other, self)
        shift = big.depth - small.depth
        for depth, starts in small.pending.items():
            big.pending.setdefault(depth + shift, []).extend(starts)
        big.size += small.size
        return big


def _step(
    groups: dict[int, _ScanGroup], ch: str, i: int, closing: dict[int, int]
) -> dict[int, _ScanGroup]:
    """Advance every group over text[i] == ch, recording the scans that
    close there."""
    moved: dict[int, _ScanGroup] = {}
    for state, group in groups.items():
        if state == _OUTSIDE:
            if ch == '"':
                state = _INSIDE
            elif ch == "{":
                group.depth += 1
            elif ch == "}":
                group.depth -= 1
                starts = group.pending.pop(group.depth, None)
                if starts is not None:
                    for start in starts:
                        closing[start] = i
                    group.size -= len(starts)
                    if not group.size:
                        continue
        elif state == _INSIDE:
            if ch == "\\":
                state = _ESCAPED
            elif ch == '"':
                state = _OUTSIDE
        else:
            state = _INSIDE
        other = moved.get(state)
        moved[state] = group if other is None else other.merge(group)
    return moved


def _closing_braces(text: str) -> dict[int, int]:
    """For every '{' in text, the index of the '}' that a string-aware scan
    started there stops at (depth back to 0 outside a JSON string); braces
    that never close are absent.

    All scans run in one pass: a scan's future depends only on its string
    state and its depth, so scans are kept in one group per state, and
    groups that reach the same state merge. Merging the smaller group into
    the larger keeps the pass O(n log n) at worst, where a scan per brace
    would be O(n^2).
    """
    closing: dict[int, int] = {}
    groups: dict[int, _ScanGroup] = {}
    for match in _SIGNIFICANT.finditer(text):
        for i in range(match.start(), match.end()):
            ch = text[i]
            if ch == "{":
                group = groups.get(_OUTSIDE)
                if group is None:
                    group = groups[_OUTSIDE] = _ScanGroup()
                group.pending.setdefault(group.depth, []).append(i)
                group.size += 1
            elif not groups:
                continue
            groups = _step(groups, ch, i, closing)
    return closing


def _last_json_object(text: str) -> dict | None:
    """The last balanced top-level span of text that parses as a JSON
    object, or None.

    A response that is one JSON object, and nothing else but whitespace, is
    parsed directly, without the brace scan. That gives the same object:
    valid JSON has backslashes only inside strings, so the string-aware
    scan from the first '{' closes at the last '}', and the stripped text
    is the only top-level span, the one the scan below would parse.
    """
    whole = text.strip()
    if whole.startswith("{") and whole.endswith("}"):
        try:
            value = json.loads(whole)
        except (json.JSONDecodeError, RecursionError):
            value = None
        if isinstance(value, dict):
            return value
    closing = _closing_braces(text)
    spans: list[tuple[int, int]] = []
    i = text.find("{")
    while i >= 0:
        end = closing.get(i)
        if end is None:
            i = text.find("{", i + 1)
        else:
            spans.append((i, end + 1))
            i = text.find("{", end + 1)
    for start, end in reversed(spans):
        try:
            value = json.loads(text[start:end])
        except (json.JSONDecodeError, RecursionError):
            continue
        if isinstance(value, dict):
            return value
    return None


# Each run of characters in these patterns is owned by one quantifier, so a
# failed match backtracks over a run once and a search is linear in the text:
# the optional words and brackets own the space that follows them, a reversed
# `tsd` form starts only at the first digit of a run (any match from inside a
# run also exists from its first digit, which a search reaches first), and an
# answer or a `tce` value runs to its last non-space character before the line
# ends (or a `;`, for `tce`). tests/oracles.py holds the equivalent patterns
# whose runs overlap, and tests compare the two.
_TSD_ROW = re.compile(
    r"rows?[\s_-]*(?:(?:number|count)\s*)?(?:(?:is|was|[:=])\s*)?(\d+)", re.I
)
_TSD_COL = re.compile(
    r"col(?:umn)?s?[\s_-]*(?:(?:number|count)\s*)?(?:(?:is|was|[:=])\s*)?(\d+)", re.I
)
_TSD_ROW_REV = re.compile(r"(?<!\d)(\d+)\s+rows?\b", re.I)
_TSD_COL_REV = re.compile(r"(?<!\d)(\d+)\s+col(?:umn)?s?\b", re.I)

_MCD_FLAG = re.compile(r"\b(yes|no|true|false)\b", re.I)
_MCD_REGION = re.compile(
    r"[(\[]\s*(?:[(\[]\s*)?(\d+)\s*,\s*(\d+)\s*(?:[)\]]\s*)?,"
    r"\s*(?:[(\[]\s*)?(\d+)\s*,\s*(\d+)\s*(?:[)\]]\s*)?[)\]]"
)

# the marker is one of is, was, is:, was:, : and =; an answer starts with
# neither space nor a colon, so a marker with nothing after it matches none
_QA_ANSWER = re.compile(
    r"answer\s*(?:(?:is|was)(?:\s*:)?|[:=])\s*([^\s:](?:[^\n]*\S)?)\s*$", re.I | re.M
)

# a value that ends in a quote before the space and the `;` or line end loses
# that one quote (the first alternative); otherwise it ends at its last
# non-space character
_TCE_PAIR = re.compile(
    r"[(\[]\s*(\d+)\s*,\s*(\d+)\s*[)\]]\s*(?:->|[:=])\s*['\"]?"
    r"([^\n;]*(?=['\"][^\S\n]*(?:[\n;]|$))|(?:[^\n;]*[^\s;])?)['\"]?\s*(?=[\n;]|$)",
    re.M,
)
_TCL_PAIR = re.compile(
    r"['\"]([^'\"\n]+)['\"]\s*(?:->|[:=]|\bis at\b|\bat\b)\s*[(\[]\s*(\d+)\s*,\s*(\d+)\s*[)\]]",
    re.I,
)


def _fallback_tsd(text: str) -> dict | None:
    out: dict = {}
    row = _TSD_ROW.search(text) or _TSD_ROW_REV.search(text)
    col = _TSD_COL.search(text) or _TSD_COL_REV.search(text)
    if row:
        out["row_number"] = int(row.group(1))
    if col:
        out["column_number"] = int(col.group(1))
    return out or None


def _fallback_mcd(text: str) -> dict | None:
    regions = [
        [[int(m.group(1)), int(m.group(2))], [int(m.group(3)), int(m.group(4))]]
        for m in _MCD_REGION.finditer(text)
    ]
    flag = _MCD_FLAG.search(text)
    if not regions and not flag:
        return None
    has_merged = bool(regions)
    if flag:
        has_merged = flag.group(1).lower() in ("yes", "true") or bool(regions)
    return {"has_merged": has_merged, "regions": regions}


def _fallback_qa(text: str) -> dict | None:
    matches = _QA_ANSWER.findall(text)
    if not matches:
        return None
    return {"answer": matches[-1].strip().strip("'\"")}


def _fallback_tce(text: str) -> dict | None:
    cells = [
        {"position": [int(m.group(1)), int(m.group(2))], "value": m.group(3).strip()}
        for m in _TCE_PAIR.finditer(text)
    ]
    return {"cells": cells} if cells else None


def _fallback_tcl(text: str) -> dict | None:
    cells = [
        {"value": m.group(1).strip(), "position": [int(m.group(2)), int(m.group(3))]}
        for m in _TCL_PAIR.finditer(text)
    ]
    return {"cells": cells} if cells else None


_FALLBACKS = {
    TaskKind.TSD: _fallback_tsd,
    TaskKind.MCD: _fallback_mcd,
    TaskKind.QA_WRAP: _fallback_qa,
    TaskKind.TCE: _fallback_tce,
    TaskKind.TCL: _fallback_tcl,
    # TR and RCE answers are whole serialized tables / long listings; prose
    # recovery is handled by the raw-text route instead
}


def extract_json_answer(text: object, task: TaskKind | None = None) -> ExtractionResult:
    """Best-effort answer recovery; see the module docstring for the order."""
    if not isinstance(text, str):
        text = "" if text is None else str(text)
    payload = _last_json_object(text)
    if payload is not None and (task is not TaskKind.TR or "answer" in payload):
        return ExtractionResult(ExtractionStatus.PARSED_JSON, payload)
    fallback = _FALLBACKS.get(task)
    if fallback is not None:
        recovered = fallback(text)
        if recovered is not None:
            return ExtractionResult(ExtractionStatus.REGEX_FALLBACK, recovered)
    trimmed = text.strip()
    if trimmed:
        return ExtractionResult(ExtractionStatus.RAW_TEXT, trimmed)
    return ExtractionResult(ExtractionStatus.FAILED, None)
