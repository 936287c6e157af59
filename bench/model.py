"""A seeded simulated model for eval_noisy, with the scores it must get.

Answers are built from the benchmark's own tables (the model "reads" the
table), not copied from the gold file. Every answer is one of a fixed set
of behaviours, assigned in exact shares per task, and carries what the
scorer must report for it: the extraction route and, except for `tr`, the
exact score computed with `reference`. For `tr` the expectation is 1.0
for an unperturbed table, the single-cell formula for a one-cell text
edit, and an upper bound from the tree sizes otherwise.
"""

from __future__ import annotations

import json
import random
import string

import gen
import reference

ALNUM = string.ascii_lowercase + string.digits
FLOOD = 2000  # unbalanced '{' before a hostile answer
LONG_CELL = 2000  # characters in a hostile tr cell

# (behaviour, share); the first behaviour takes the rounding remainder
PLAN = {
    "tr": (("exact", 0.26), ("prose_json", 0.04), ("raw", 0.04), ("edit1", 0.20),
           ("long_cell", 0.02), ("edits", 0.13), ("drop_row", 0.07), ("drop_col", 0.07),
           ("grow", 0.13), ("missing", 0.04)),
    "other": (("exact", 0.35), ("prose_json", 0.15), ("prose", 0.15), ("wrong", 0.20),
              ("raw", 0.07), ("missing", 0.05), ("flood", 0.005)),
}
ROUTE = {"exact": "parsed_json", "prose_json": "parsed_json", "wrong": "parsed_json",
         "flood": "parsed_json", "prose": "regex_fallback", "raw": "raw_text",
         "missing": "failed", "edit1": "parsed_json", "long_cell": "parsed_json",
         "edits": "parsed_json", "drop_row": "parsed_json", "drop_col": "parsed_json",
         "grow": "parsed_json"}
GHOSTS = 4  # prediction lines whose ids the gold file lacks


def sniff_format(answer: str) -> str:
    """Format of a gold tr answer, from its text."""
    if answer.lstrip().startswith("<"):
        return "html"
    return "latex" if "\\begin{tabular}" in answer else "markdown"


def gold_turns(records: list[dict]) -> list[tuple[str, dict, dict]]:
    """(turn id, turn fields, record) for every scored turn, in file order."""
    out = []
    for record in records:
        if record.get("turns"):
            for i, turn in enumerate(record["turns"], start=1):
                out.append((f"{record['sample_id']}#turn{i}", turn, record))
        else:
            out.append((record["sample_id"], record, record))
    return out


def assign(ids_by_task: dict[str, list[str]], size: dict[str, int]) -> dict[str, str]:
    """Behaviour per turn id, in exact shares per task. Each behaviour is
    spread evenly over the turns sorted by table size (systematic sampling),
    so that what it costs to score barely depends on the seed. A hostile
    long cell is compared with every gold cell, so those few go to the
    median-sized tables instead of one per size band."""
    behaviour = {}
    for task, ids in sorted(ids_by_task.items()):
        plan = PLAN["tr" if task == "tr" else "other"]
        counts = dict((name, round(share * len(ids))) for name, share in plan)
        counts[plan[0][0]] += len(ids) - sum(counts.values())
        by_size = sorted(ids, key=lambda i: (size[i], i))
        n_long = counts.pop("long_cell", 0)
        mid = (len(by_size) - n_long) // 2
        behaviour.update(dict.fromkeys(by_size[mid:mid + n_long], "long_cell"))
        by_size = by_size[:mid] + by_size[mid + n_long:]
        slots = sorted(((j + 0.5) / n, name) for name, n in counts.items() for j in range(n))
        behaviour.update(zip(by_size, [name for _, name in slots]))
    return behaviour


# ---------------------------------------------------------------------------
# grid-level table edits that keep a table valid
# ---------------------------------------------------------------------------


def _matrix(table: dict) -> list[list[int]]:
    grid = [[0] * table["n_cols"] for _ in range(table["n_rows"])]
    for i, a in enumerate(table["anchors"]):
        for r in range(a["row"] - 1, a["row"] - 1 + a["row_span"]):
            for c in range(a["col"] - 1, a["col"] - 1 + a["col_span"]):
                grid[r][c] = i
    return grid


def _from_matrix(table: dict, grid: list[list[int]]) -> dict:
    """Anchors as the bounding boxes of each anchor's remaining positions;
    removing a whole row or column keeps every region a rectangle."""
    boxes: dict[int, list[int]] = {}
    for r, row in enumerate(grid):
        for c, i in enumerate(row):
            box = boxes.setdefault(i, [r, c, r, c])
            box[2], box[3] = max(box[2], r), max(box[3], c)
    anchors = [
        dict(table["anchors"][i], row=r0 + 1, col=c0 + 1, row_span=r1 - r0 + 1, col_span=c1 - c0 + 1)
        for i, (r0, c0, r1, c1) in sorted(boxes.items(), key=lambda kv: (kv[1][0], kv[1][1]))
    ]
    return {**table, "n_rows": len(grid), "n_cols": len(grid[0]), "anchors": anchors}


def drop_row(table: dict, r: int) -> dict:
    grid = _matrix(table)
    del grid[r]
    return _from_matrix(table, grid)


def drop_col(table: dict, c: int) -> dict:
    grid = _matrix(table)
    for row in grid:
        del row[c]
    return _from_matrix(table, grid)


def grow(table: dict, rng: random.Random, extra_rows: int, extra_cols: int) -> dict:
    """New 1x1 cells appended below and to the right; no span crosses an edge."""
    anchors = [dict(a) for a in table["anchors"]]
    n_rows, n_cols = table["n_rows"] + extra_rows, table["n_cols"] + extra_cols
    for r in range(1, n_rows + 1):
        for c in range(1, n_cols + 1):
            if r > table["n_rows"] or c > table["n_cols"]:
                anchors.append({"row": r, "col": c, "row_span": 1, "col_span": 1,
                                "content": gen.cell_text(rng), "is_header": False})
    return {**table, "n_rows": n_rows, "n_cols": n_cols, "anchors": anchors}


def _settled(text: str) -> str:
    """Text as a table parser keeps it: trimmed, whitespace-collapsed."""
    return " ".join(text.split())


def edit_text(text: str, rng: random.Random) -> str:
    """1 to 5 character edits with letters and digits; never a text a parser
    would read as a Markdown separator or trim differently."""
    chars = list(text)
    for _ in range(rng.randint(1, 5)):
        op = rng.randrange(3) if chars else 0
        if op == 0:
            chars.insert(rng.randint(0, len(chars)), rng.choice(ALNUM))
        elif op == 1:
            chars[rng.randrange(len(chars))] = rng.choice(ALNUM)
        else:
            del chars[rng.randrange(len(chars))]
    out = _settled("".join(chars))
    if not out or set(out) <= set(":-"):
        out += rng.choice(ALNUM)
    return out


def with_text(table: dict, index: int, text: str) -> dict:
    anchors = [dict(a) for a in table["anchors"]]
    anchors[index]["content"] = text
    return {**table, "anchors": anchors}


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


def _exact_payload(task: str, gold: dict, table: dict, qa_answer: str | None) -> dict:
    grid = reference.position_map(table)
    if task == "tsd":
        return {"row_number": table["n_rows"], "column_number": table["n_cols"]}
    if task == "tce":
        return {"cells": [{"position": c["position"], "value": grid[tuple(c["position"])]["content"]}
                          for c in gold["cells"]]}
    if task == "tcl":
        where = {a["content"]: [a["row"], a["col"]] for a in table["anchors"]}
        return {"cells": [{"value": c["value"], "position": where[c["value"]]} for c in gold["cells"]]}
    if task == "mcd":
        regions = reference.merged_regions(table)
        return {"has_merged": bool(regions), "regions": regions}
    if task == "rce":
        return {"axis": gold["axis"],
                "lines": {k: reference.line(table, gold["axis"], int(k)) for k in gold["lines"]}}
    return {"answer": qa_answer}


def _wrong_payload(task: str, payload: dict, rng: random.Random) -> dict:
    p = json.loads(json.dumps(payload))
    if task == "tsd":
        p["row_number"] += 1
        if rng.random() < 0.5:
            p["column_number"] += 2
    elif task == "tce":
        for cell in p["cells"][::2]:
            cell["value"] = f"wrong {rng.randint(0, 99)}"
    elif task == "tcl":
        for cell in p["cells"][::2]:
            cell["position"] = [cell["position"][0] + 1, cell["position"][1]]
    elif task == "mcd":
        p["regions"] = p["regions"][1:] + [[[1, 1], [1, 1]]]
    elif task == "rce":
        for cells in p["lines"].values():
            cells[0] = "wrong"
            if len(cells) > 1:
                cells.pop()
    else:
        p["answer"] = "wrong answer"
    return p


def _prose(task: str, payload: dict) -> str:
    """Plain-language answer the task's fallback patterns recover in full."""
    if task == "tsd":
        return f"It has {payload['row_number']} rows and {payload['column_number']} columns."
    if task == "tce":
        lines = [f'({c["position"][0]}, {c["position"][1]}): "{c["value"]}"' for c in payload["cells"]]
        return "Here are the cells:\n" + "\n".join(lines)
    if task == "tcl":
        lines = [f'"{c["value"]}" is at ({c["position"][0]}, {c["position"][1]})' for c in payload["cells"]]
        return "Found them:\n" + "\n".join(lines)
    if task == "mcd":
        if not payload["regions"]:
            return "No, none of the cells are merged."
        spans = ", ".join(f"(({a}, {b}), ({c}, {d}))" for (a, b), (c, d) in payload["regions"])
        return f"Yes. The merged regions are {spans}"
    if task == "rce":  # no pattern exists for line listings: this is raw text
        return "The " + payload["axis"] + " reads: " + ", ".join(
            " / ".join(cells) for cells in payload["lines"].values())
    return f"Looking at the table, the answer is {payload['answer']}"


def _score(task: str, payload: dict | None, gold: dict) -> dict:
    """The scores tablekit must report for this payload (None: no answer)."""
    if task == "tsd":
        ok = payload is not None
        return {"row_correct": ok and payload["row_number"] == gold["row_number"],
                "column_correct": ok and payload["column_number"] == gold["column_number"]}
    if task in ("tce", "tcl"):
        if payload is None:
            return {"cell_accuracy": 0.0}
        keyed_by = "position" if task == "tce" else "value"
        return {"cell_accuracy": reference.cell_accuracy(payload["cells"], gold["cells"], keyed_by)}
    if task == "mcd":
        if payload is None:
            return {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        as_set = lambda regions: {(tuple(a), tuple(b)) for a, b in regions}  # noqa: E731
        p, r, f = reference.set_f1(as_set(payload["regions"]), as_set(gold["regions"]))
        return {"precision": p, "recall": r, "f1": f}
    if task == "rce":
        lines = payload["lines"] if payload is not None else {}
        return {"f1": reference.line_f1(lines, gold["lines"]), "axis": gold["axis"]}
    ok = payload is not None and reference.normalize(payload["answer"]) == reference.normalize(gold["answer"])
    return {"correct": ok}


def _wrap(kind: str, body: str) -> str:
    if kind == "prose_json":
        return f"Sure, here is what I found.\n```json\n{body}\n```\nHope this helps!"
    if kind == "flood":
        return "{" * FLOOD + "\n" + body
    return body


def answer(task: str, kind: str, gold: dict, table: dict, qa_answer: str | None,
           rng: random.Random) -> tuple[str, dict]:
    """(response text, expectation) for one non-tr turn."""
    expect = {"route": ROUTE[kind], "task": task}
    if kind == "missing":
        expect["scores"] = _score(task, None, gold)
        return "", expect
    payload = _exact_payload(task, gold, table, qa_answer)
    if kind == "wrong":
        payload = _wrong_payload(task, payload, rng)
    if kind == "raw" or (kind == "prose" and task == "rce"):
        text = "I cannot tell from the image." if kind == "raw" else _prose(task, payload)
        expect["route"] = "raw_text"
        expect["scores"] = _score(task, None, gold)
        if task == "qa_wrap":  # raw text is the answer itself
            expect["scores"] = {"correct": reference.normalize(text) == reference.normalize(gold["answer"])}
        return text, expect
    expect["scores"] = _score(task, payload, gold)
    text = _prose(task, payload) if kind == "prose" else _wrap(kind, json.dumps(payload, ensure_ascii=False))
    return text, expect


def answer_tr(kind: str, fmt: str, table: dict, rng: random.Random) -> tuple[str, dict]:
    """(response text, expectation) for one tr turn, in the gold's format."""
    expect: dict = {"route": ROUTE[kind], "task": "tr", "kind": kind}
    gold_nodes = reference.tree_size(table)
    if kind == "missing":
        expect["teds"] = 0.0
        return "", expect
    pred = table
    if kind in ("exact", "prose_json", "raw"):
        expect["teds"] = 1.0
    elif kind in ("edit1", "long_cell"):
        index = rng.randrange(len(table["anchors"]))
        old = table["anchors"][index]["content"]
        new = (edit_text(old, rng) if kind == "edit1"
               else "".join(rng.choice(ALNUM) for _ in range(LONG_CELL)))
        pred = with_text(table, index, new)
        expect["teds"] = reference.single_edit_teds(old, new, gold_nodes)
    else:
        if kind == "edits":
            for index in rng.sample(range(len(table["anchors"])), min(4, len(table["anchors"]))):
                pred = with_text(pred, index, edit_text(pred["anchors"][index]["content"], rng))
        elif kind == "drop_row" and table["n_rows"] > 1:
            pred = drop_row(table, rng.randrange(table["n_rows"]))
        elif kind == "drop_col" and table["n_cols"] > 1:
            pred = drop_col(table, rng.randrange(table["n_cols"]))
        else:  # grow, or a drop that would leave nothing
            pred = grow(table, rng, 2, 1)
        expect["teds_max"] = reference.teds_upper_bound(reference.tree_size(pred), gold_nodes)
    text = gen.SERIALIZERS[fmt](pred)
    if kind == "raw" and "{}" in text:
        # extraction takes the '{}' of an empty LaTeX cell for an (empty) JSON
        # answer, so such a table is only ever sent wrapped
        kind = expect["kind"] = "exact"
        expect["route"] = ROUTE[kind]
    if kind != "raw":
        text = _wrap(kind, json.dumps({"answer": text}, ensure_ascii=False))
    return text, expect


def noisy_predictions(records: list[dict], tables: dict[str, dict], qa: dict[str, str],
                      seed: int) -> tuple[list[dict], dict[str, dict], int]:
    """(prediction lines, expectation per turn id, count of unknown-id lines)."""
    rng = random.Random(f"model|{seed}")
    turns = gold_turns(records)
    ids_by_task: dict[str, list[str]] = {}
    size = {}
    for turn_id, turn, record in turns:
        ids_by_task.setdefault(turn["task"], []).append(turn_id)
        size[turn_id] = reference.tree_size(tables[record["table_id"]])
    behaviour = assign(ids_by_task, size)

    expect: dict[str, dict] = {}
    responses: dict[str, str] = {}
    for turn_id, turn, record in turns:
        table = tables[record["table_id"]]
        kind = behaviour[turn_id]
        if turn["task"] == "tr":
            fmt = sniff_format(turn["gold_answer"]["answer"])
            text, exp = answer_tr(kind, fmt, table, rng)
        else:
            text, exp = answer(turn["task"], kind, turn["gold_answer"], table,
                               qa.get(record["table_id"]), rng)
        expect[turn_id] = exp
        responses[turn_id] = text

    lines = []
    for record in records:
        sid = record["sample_id"]
        if record.get("turns"):
            texts = [responses[f"{sid}#turn{i}"] for i in range(1, len(record["turns"]) + 1)]
            while texts and texts[-1] == "":
                texts.pop()  # a missing last turn is simply not sent
            lines.append({"sample_id": sid, "responses": texts})
        elif responses[sid] != "" or rng.random() < 0.5:
            lines.append({"sample_id": sid, "response": responses[sid]})
    for i in range(GHOSTS):
        lines.append({"sample_id": f"ghost-{seed}-{i}", "response": '{"row_number": 1}'})
    return lines, expect, GHOSTS
