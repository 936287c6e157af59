"""Scoring of prediction files against synthesized gold samples.

Alignment is by sample_id. Gold samples with no prediction score zero
and count as extraction failures; prediction ids absent from the gold
file are reported as skipped. Multi-turn gold samples are expanded into
one record per turn (ids suffixed #turn1, #turn2, ...) and matched
against a "responses" list in the prediction line. All scoring is total
over arbitrary response text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..formats import parse_tolerant, sniff_format
from ..formats.common import TableFormat
from ..numeric import left_sum
from ..taskdefs import TaskKind
from .bleu import bleu
from .extraction import ExtractionResult, ExtractionStatus, extract_json_answer
from .teds import html_to_tree, table_to_tree, teds, teds_of_trees


class FileFormatError(ValueError):
    """A predictions or gold file line is not usable."""


def normalize_cell(value: object) -> str:
    """Trim, collapse internal whitespace, case-fold."""
    return " ".join(str(value).split()).casefold()


def _as_int(value: object) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str) and re.fullmatch(r"-?\d+", value.strip()):
        return int(value.strip())
    return None


def _as_position(value: object) -> tuple[int, int] | None:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        r, c = _as_int(value[0]), _as_int(value[1])
        if r is not None and c is not None:
            return (r, c)
    return None


def score_tsd(payload: object, gold: Mapping) -> tuple[bool, bool]:
    """Exact integer comparison, each axis judged independently."""
    row_ok = col_ok = False
    if isinstance(payload, dict):
        row_ok = _as_int(payload.get("row_number")) == gold["row_number"]
        col_ok = _as_int(payload.get("column_number")) == gold["column_number"]
    return row_ok, col_ok


def _cell_entries(value: object) -> list[dict]:
    if not isinstance(value, list):
        return []
    return [entry for entry in value if isinstance(entry, dict)]


def score_cell_accuracy(pred_cells: object, gold_cells: Sequence[Mapping], keyed_by: str) -> float:
    """Fraction of gold cells matched; see the task schemas.

    keyed_by="position": look the predicted value up by grid position and
    compare normalized text. keyed_by="value": look the predicted position
    up by normalized value and compare positions exactly.
    """
    if keyed_by not in ("position", "value"):
        raise ValueError(f"keyed_by must be position or value, got {keyed_by!r}")
    matched = 0
    if keyed_by == "position":
        by_pos: dict[tuple[int, int], str] = {}
        for entry in _cell_entries(pred_cells):
            pos = _as_position(entry.get("position"))
            if pos is not None:
                by_pos[pos] = normalize_cell(entry.get("value", ""))
        for gold_cell in gold_cells:
            pos = _as_position(gold_cell["position"])
            if by_pos.get(pos) == normalize_cell(gold_cell["value"]):
                matched += 1
    else:
        by_value: dict[str, tuple[int, int]] = {}
        for entry in _cell_entries(pred_cells):
            pos = _as_position(entry.get("position"))
            if pos is not None:
                by_value[normalize_cell(entry.get("value", ""))] = pos
        for gold_cell in gold_cells:
            if by_value.get(normalize_cell(gold_cell["value"])) == _as_position(
                gold_cell["position"]
            ):
                matched += 1
    return matched / len(gold_cells)


def score_set_f1(pred_set: set, gold_set: set) -> tuple[float, float, float]:
    """Precision, recall, F1 over exact set elements; empty vs empty is 1."""
    overlap = len(pred_set & gold_set)
    precision = overlap / len(pred_set) if pred_set else (1.0 if not gold_set else 0.0)
    recall = overlap / len(gold_set) if gold_set else (1.0 if not pred_set else 0.0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _region_set(value: object) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    regions = set()
    if isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, (list, tuple)) and len(item) == 2:
                top_left = _as_position(item[0])
                bottom_right = _as_position(item[1])
                if top_left is not None and bottom_right is not None:
                    regions.add((top_left, bottom_right))
    return regions


def score_mcd(payload: object, gold: Mapping) -> tuple[float, float, float]:
    # an answer must arrive as an object; prose never earns the empty-set match
    if not isinstance(payload, dict):
        return 0.0, 0.0, 0.0
    pred_regions = _region_set(payload.get("regions"))
    gold_regions = _region_set(gold.get("regions"))
    return score_set_f1(pred_regions, gold_regions)


def _line_set(cells: object) -> set[tuple[int, str]]:
    if not isinstance(cells, (list, tuple)):
        return set()
    return {
        (i, normalize_cell(cell))
        for i, cell in enumerate(cells)
        if isinstance(cell, (str, int, float))
    }


def score_rce(payload: object, gold: Mapping) -> float:
    """Per-line F1 over (index, normalized content), averaged over the
    requested lines."""
    pred_lines: dict[str, object] = {}
    if isinstance(payload, dict) and isinstance(payload.get("lines"), dict):
        for key, cells in payload["lines"].items():
            pred_lines[str(key).strip()] = cells
    scores = []
    for key, cells in gold["lines"].items():
        gold_set = _line_set(cells)
        pred_set = _line_set(pred_lines.get(str(key)))
        scores.append(score_set_f1(pred_set, gold_set)[2])
    return _mean(scores)


def score_tr(pred_text: object, pred_fmt: TableFormat, gold_html: str) -> float:
    """TEDS of the prediction, parsed tolerantly in its format, against the
    gold HTML, parsed as teds parses HTML (html_to_tree), so one repair
    policy holds for both sides.

    An unrecoverable prediction gives the sentinel table's tree, which
    scores near zero but never crashes.
    """
    pred_tree = table_to_tree(parse_tolerant(str(pred_text), pred_fmt)[0])
    return teds_of_trees(pred_tree, html_to_tree(gold_html))


_NUMERIC = re.compile(r"-?\d[\d,]*(?:\.\d+)?\s*%?")


def _as_number(value: object) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip()
    if not _NUMERIC.fullmatch(text):
        return None
    return float(text.rstrip("%").strip().replace(",", ""))


def answers_match(pred: object, gold: object) -> bool:
    """Normalized answer equality with a numeric tolerance of 1e-6 (after
    stripping thousands separators and percent signs); list answers
    compare as order-insensitive multisets."""
    if isinstance(gold, (list, tuple)) or isinstance(pred, (list, tuple)):
        gold_items = list(gold) if isinstance(gold, (list, tuple)) else [gold]
        pred_items = list(pred) if isinstance(pred, (list, tuple)) else [pred]
        if len(gold_items) != len(pred_items):
            return False
        remaining = list(pred_items)
        for item in gold_items:
            for i, candidate in enumerate(remaining):
                if answers_match(candidate, item):
                    del remaining[i]
                    break
            else:
                return False
        return True
    pred_num, gold_num = _as_number(pred), _as_number(gold)
    if pred_num is not None and gold_num is not None:
        return abs(pred_num - gold_num) <= 1e-6
    return normalize_cell(pred) == normalize_cell(gold)


@dataclass
class MetricReport:
    per_task: dict[str, dict[str, float]]
    counts: dict[str, int]
    per_sample: list[dict] = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        return {
            "per_task": self.per_task,
            "counts": self.counts,
            "per_sample": self.per_sample,
        }

    def summary_lines(self) -> list[str]:
        lines = ["task      metric            value      n"]
        for task in sorted(self.per_task):
            entry = self.per_task[task]
            n = entry.get("n", 0)
            for metric, value in entry.items():
                if metric == "n":
                    continue
                lines.append(f"{task:<10}{metric:<18}{value:>8.4f}  {int(n):>5}")
        counts = self.counts
        lines.append(
            "evaluated {evaluated}  extraction_failed {extraction_failed}  skipped {skipped}".format(
                **counts
            )
        )
        return lines


def _read_jsonl(path: str | Path) -> list[dict]:
    records = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}")
    # records are delimited by newlines only; str.splitlines would also break
    # on characters like NEL that may appear raw inside a JSON string
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}:{lineno}: not valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise FileFormatError(f"{path}:{lineno}: expected an object")
        records.append(obj)
    return records


@dataclass(frozen=True)
class _GoldRecord:
    sample_id: str
    task: TaskKind
    gold_answer: dict
    tr_format: str | None  # set for every tr answer, None for other tasks
    split: str
    source: dict  # the record or turn the answer came from


def _gold_problem(task: TaskKind, gold_answer: object, tr_format: object) -> str | None:
    """What a task's scorer would trip over in this gold answer, if anything."""
    if not isinstance(gold_answer, dict):
        return "gold_answer is not an object"
    if task is TaskKind.TSD:
        missing = [key for key in ("row_number", "column_number") if key not in gold_answer]
        if missing:
            return f"tsd gold_answer lacks {', '.join(missing)}"
    elif task in (TaskKind.TCE, TaskKind.TCL):
        cells = gold_answer.get("cells")
        if not isinstance(cells, list) or not cells:
            return f"{task.value} gold_answer needs a non-empty cells list"
        if not all(isinstance(cell, dict) and "position" in cell and "value" in cell for cell in cells):
            return f"{task.value} gold cells need a position and a value"
    elif task is TaskKind.RCE:
        lines = gold_answer.get("lines")
        if not isinstance(lines, dict) or not lines:
            return "rce gold_answer needs a non-empty lines object"
    elif task is TaskKind.TR and tr_format is not None:
        if tr_format not in [fmt.value for fmt in TableFormat]:
            return f"unknown tr_format {tr_format!r}"
    return None


def _flatten_gold(records: Iterable[dict]) -> list[_GoldRecord]:
    """One record per scored answer, the one place that splits a gold record
    into answers: a conversation gives one per turn (ids suffixed #turn1,
    #turn2, ...), any other record one. A gold answer that its task's scorer
    cannot read raises FileFormatError naming the sample.

    A tr answer's format is the record's meta.tr_format for a single record
    and is sniffed from the gold answer otherwise: turns can mix formats
    within one conversation, and the conversation-level value mirrors turn 1
    only.
    """
    flat: list[_GoldRecord] = []
    for record in records:
        try:
            sample_id = str(record["sample_id"])
        except KeyError as exc:
            raise FileFormatError(f"bad gold record {record.get('sample_id')}: {exc!r}")
        meta = record.get("meta")
        meta = meta if isinstance(meta, dict) else {}
        split = meta.get("split", "train")
        turns = record.get("turns")
        if turns and not isinstance(turns, list):
            raise FileFormatError(f"bad gold record {sample_id}: turns is not a list")
        answers = (
            [(f"{sample_id}#turn{i}", turn, None) for i, turn in enumerate(turns, start=1)]
            if turns
            else [(sample_id, record, meta.get("tr_format"))]
        )
        for answer_id, source, tr_format in answers:
            try:
                task = TaskKind(source["task"])
                gold_answer = source["gold_answer"]
            except (KeyError, TypeError, ValueError) as exc:
                raise FileFormatError(f"bad gold record {answer_id}: {exc!r}")
            problem = _gold_problem(task, gold_answer, tr_format)
            if problem:
                raise FileFormatError(f"bad gold record {answer_id}: {problem}")
            if task is not TaskKind.TR:
                tr_format = None
            elif not tr_format:
                tr_format = sniff_format(str(gold_answer.get("answer", ""))).value
            flat.append(_GoldRecord(answer_id, task, gold_answer, tr_format, split, source))
    return flat


def _prediction_map(records: Iterable[dict]) -> dict[str, str]:
    responses: dict[str, str] = {}
    for record in records:
        if "sample_id" not in record:
            raise FileFormatError("prediction line lacks sample_id")
        sample_id = str(record["sample_id"])
        if "responses" in record and isinstance(record["responses"], list):
            for i, response in enumerate(record["responses"], start=1):
                responses[f"{sample_id}#turn{i}"] = "" if response is None else str(response)
        elif "response" in record:
            response = record["response"]
            responses[sample_id] = "" if response is None else str(response)
        else:
            raise FileFormatError(f"prediction {sample_id} has neither response nor responses")
    return responses


def _zero_scores(task: TaskKind, gold_answer: Mapping, fmt: TableFormat | None) -> dict:
    if task is TaskKind.TSD:
        return {"row_correct": False, "column_correct": False}
    if task in (TaskKind.TCE, TaskKind.TCL):
        return {"cell_accuracy": 0.0}
    if task is TaskKind.MCD:
        return {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    if task is TaskKind.RCE:
        return {"f1": 0.0, "axis": gold_answer.get("axis", "row")}
    if task is TaskKind.TR:
        return {"teds": 0.0, "format": fmt.value}
    gold_text = gold_answer.get("answer", "")
    return {
        "correct": False,
        "pred_text": "",
        "gold_text": gold_text if isinstance(gold_text, str) else json.dumps(gold_text),
    }


def score_sample(task: TaskKind, response: str, gold_answer: Mapping, tr_format: str | None) -> dict:
    """One sample's scores plus the extraction status, as a plain dict.

    An empty response (extraction Failed) hard-zeroes every score for the
    sample; in particular it never collects the empty-vs-empty set match.
    A tr answer is scored in tr_format, or, when that is None, in the
    format sniffed from the gold answer.
    """
    fmt = None
    if task is TaskKind.TR:
        gold_table = str(gold_answer.get("answer", ""))
        fmt = TableFormat(tr_format) if tr_format else sniff_format(gold_table)
    extraction: ExtractionResult = extract_json_answer(response, task)
    payload = extraction.payload
    record: dict = {"extraction": extraction.status.value}
    if extraction.status is ExtractionStatus.FAILED:
        record.update(_zero_scores(task, gold_answer, fmt))
        return record
    if task is TaskKind.TSD:
        row_ok, col_ok = score_tsd(payload, gold_answer)
        record["row_correct"] = row_ok
        record["column_correct"] = col_ok
    elif task in (TaskKind.TCE, TaskKind.TCL):
        cells = payload.get("cells") if isinstance(payload, dict) else None
        keyed_by = "position" if task is TaskKind.TCE else "value"
        record["cell_accuracy"] = score_cell_accuracy(cells, gold_answer["cells"], keyed_by)
    elif task is TaskKind.MCD:
        precision, recall, f1 = score_mcd(payload, gold_answer)
        record.update({"precision": precision, "recall": recall, "f1": f1})
    elif task is TaskKind.RCE:
        record["f1"] = score_rce(payload, gold_answer)
        record["axis"] = gold_answer.get("axis", "row")
    elif task is TaskKind.TR:
        if isinstance(payload, dict) and "answer" not in payload:
            # an object without an answer is part of the table text, such as
            # the {} of an empty LaTeX \multicolumn, not a wrapped answer
            payload = str(response).strip()
            record["extraction"] = ExtractionStatus.RAW_TEXT.value
        if isinstance(payload, dict):
            pred_table = str(payload["answer"])
        else:
            pred_table = str(payload)
        record["teds"] = teds(pred_table, gold_table, fmt)
        record["format"] = fmt.value
    else:  # QA_WRAP
        gold_text = gold_answer.get("answer", "")
        if isinstance(payload, dict):
            pred_text = payload.get("answer", "")
        else:
            pred_text = payload if payload is not None else ""
        record["correct"] = answers_match(pred_text, gold_text)
        record["pred_text"] = pred_text if isinstance(pred_text, str) else json.dumps(pred_text)
        record["gold_text"] = gold_text if isinstance(gold_text, str) else json.dumps(gold_text)
    return record


def _mean(values: Sequence[float]) -> float:
    return left_sum(values) / len(values) if values else 0.0


def aggregate(per_sample: Sequence[dict]) -> dict[str, dict[str, float]]:
    """Per-task metric summary; a pure reduction over per-sample records."""
    by_task: dict[str, list[dict]] = {}
    for record in per_sample:
        by_task.setdefault(record["task"], []).append(record)
    out: dict[str, dict[str, float]] = {}
    for task, records in sorted(by_task.items()):
        entry: dict[str, float] = {"n": float(len(records))}
        if task == TaskKind.TSD.value:
            entry["row_accuracy"] = _mean([float(r["row_correct"]) for r in records])
            entry["column_accuracy"] = _mean([float(r["column_correct"]) for r in records])
        elif task in (TaskKind.TCE.value, TaskKind.TCL.value):
            entry["cell_accuracy"] = _mean([r["cell_accuracy"] for r in records])
        elif task == TaskKind.MCD.value:
            for key in ("precision", "recall", "f1"):
                entry[key] = _mean([r[key] for r in records])
        elif task == TaskKind.RCE.value:
            rows = [r["f1"] for r in records if r.get("axis") == "row"]
            cols = [r["f1"] for r in records if r.get("axis") == "column"]
            if rows:
                entry["row_f1"] = _mean(rows)
            if cols:
                entry["col_f1"] = _mean(cols)
        elif task == TaskKind.TR.value:
            entry["teds"] = _mean([r["teds"] for r in records])
            formats = sorted({r["format"] for r in records})
            for fmt in formats:
                entry[f"teds_{fmt}"] = _mean([r["teds"] for r in records if r["format"] == fmt])
        elif task == TaskKind.QA_WRAP.value:
            entry["accuracy"] = _mean([float(r["correct"]) for r in records])
            entry["bleu"] = bleu(
                [r.get("pred_text", "") for r in records],
                [r.get("gold_text", "") for r in records],
            )
        out[task] = entry
    return out


def evaluate(predictions_path: str | Path, gold_path: str | Path) -> MetricReport:
    gold_records = _flatten_gold(_read_jsonl(gold_path))
    predictions = _prediction_map(_read_jsonl(predictions_path))
    gold_ids = {g.sample_id for g in gold_records}
    skipped = sum(1 for sample_id in predictions if sample_id not in gold_ids)

    per_sample: list[dict] = []
    extraction_failed = 0
    for gold in gold_records:
        response = predictions.get(gold.sample_id, "")
        record = score_sample(gold.task, response, gold.gold_answer, gold.tr_format)
        record["sample_id"] = gold.sample_id
        record["task"] = gold.task.value
        if record["extraction"] == ExtractionStatus.FAILED.value:
            extraction_failed += 1
        per_sample.append(record)

    return MetricReport(
        per_task=aggregate(per_sample),
        counts={
            "evaluated": len(per_sample),
            "extraction_failed": extraction_failed,
            "skipped": skipped,
        },
        per_sample=per_sample,
    )
