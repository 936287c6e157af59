"""Correctness checks on tablekit's outputs. Each returns a list of problems
(empty when everything holds)."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import gen
import reference
from model import gold_turns, sniff_format

MAX_REPORTED = 20


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line.strip()]


def dataset_files(out: Path, manifest: dict, records: list[dict]) -> list[str]:
    """Every manifest digest matches its file, and every referenced table
    has exactly one SVG image."""
    problems = []
    for name, digest in manifest["files"].items():
        path = out / name
        if not path.is_file():
            problems.append(f"manifest lists missing file {name}")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"digest mismatch for {name}")
    referenced = {r["table_id"] for r in records}
    images = {p.name for p in (out / "images").iterdir()}
    for table_id in sorted(referenced):
        if f"{table_id}.svg" not in images or f"images/{table_id}.svg" not in manifest["files"]:
            problems.append(f"no image for referenced table {table_id}")
    if len(images) != len(referenced):
        problems.append(f"{len(images)} images for {len(referenced)} referenced tables")
    return problems


def dataset_counts(manifest: dict, records: list[dict], config: dict, qa: dict[str, str]) -> list[str]:
    """Per task and split: samples (conversation turns included) equal the
    configured count minus the reported shortfall, and qa_wrap samples equal
    the pairs whose table is in that split."""
    counts: dict[str, int] = {}
    split_of: dict[str, str] = {}
    for turn_id, turn, record in gold_turns(records):
        key = f"{turn['task']}-{record['meta']['split']}"
        counts[key] = counts.get(key, 0) + 1
        split_of[record["table_id"]] = record["meta"]["split"]
    expected: dict[str, int] = {}
    for task, (train, eval_) in config["counts"].items():
        for split, n in (("train", train), ("eval", eval_)):
            n -= manifest["shortfalls"].get(f"{task}-{split}", 0)
            if n:
                expected[f"{task}-{split}"] = n
    for table_id in qa:
        key = f"qa_wrap-{split_of.get(table_id)}"
        expected[key] = expected.get(key, 0) + 1
    problems = []
    if counts != expected:
        problems.append(f"sample counts {counts} != configured minus shortfalls {expected}")
    if manifest["qa_pairs_skipped"] != 0:
        problems.append(f"{manifest['qa_pairs_skipped']} qa pairs skipped")
    if manifest["counts"] != dict(sorted(counts.items())):
        problems.append("manifest counts differ from the samples file")
    return problems


def gold_answers(records: list[dict], tables: dict[str, dict], qa: dict[str, str], parse) -> list[str]:
    """Every gold answer against the benchmark's own tables. `parse(text,
    fmt)` is tablekit's strict parser returning a table dict: a tr answer
    must parse back to the source table as its format can carry it."""
    problems = []
    for turn_id, turn, record in gold_turns(records):
        table = tables[record["table_id"]]
        task, gold = turn["task"], turn["gold_answer"]
        grid = reference.position_map(table)
        if task == "tsd":
            ok = gold == {"row_number": table["n_rows"], "column_number": table["n_cols"]}
        elif task == "tce":
            positions = [tuple(c["position"]) for c in gold["cells"]]
            ok = (len(set(positions)) == len(positions) == min(3, table["n_rows"] * table["n_cols"])
                  and all(grid[tuple(c["position"])]["content"] == c["value"] for c in gold["cells"]))
        elif task == "tcl":
            texts = [a["content"] for a in table["anchors"]]
            ok = len(gold["cells"]) == 3 and all(
                c["value"] and texts.count(c["value"]) == 1
                and grid[tuple(c["position"])]["content"] == c["value"]
                and [grid[tuple(c["position"])]["row"], grid[tuple(c["position"])]["col"]] == c["position"]
                for c in gold["cells"])
        elif task == "mcd":
            regions = reference.merged_regions(table)
            ok = gold == {"has_merged": bool(regions), "regions": regions}
        elif task == "rce":
            ok = gold["axis"] in ("row", "column") and 1 <= len(gold["lines"]) <= 3 and all(
                cells == reference.line(table, gold["axis"], int(k)) for k, cells in gold["lines"].items())
        elif task == "tr":
            fmt = sniff_format(gold["answer"])
            if record.get("meta", {}).get("tr_format") and not record.get("turns"):
                ok = record["meta"]["tr_format"] == fmt
            else:
                ok = True
            source = gen.project(table, fmt)
            ok = ok and reference.canonical(parse(gold["answer"], fmt)) == reference.canonical(source)
        else:
            ok = gold == {"answer": qa.get(record["table_id"])}
        if not ok:
            problems.append(f"gold answer of {turn_id} ({task}) disagrees with table {record['table_id']}")
        if len(problems) >= MAX_REPORTED:
            break
    return problems


def replay_report(report: dict, n_turns: int) -> list[str]:
    """A gold replay scores perfectly everywhere."""
    problems = []
    for task, entry in report["per_task"].items():
        for metric, value in entry.items():
            want = 100.0 if metric == "bleu" else 1.0
            if metric != "n" and abs(value - want) > 1e-9:
                problems.append(f"replay {task}.{metric} = {value}, expected {want}")
    counts = report["counts"]
    if counts != {"evaluated": n_turns, "extraction_failed": 0, "skipped": 0}:
        problems.append(f"replay counts {counts}, expected {n_turns} evaluated and no failures")
    return problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


def noisy_report(report: dict, expect: dict[str, dict], ghosts: int) -> list[str]:
    """Per turn: the extraction route and the exact score (tr: 1.0, the
    single-cell formula, or within [0, size bound]); per task: means."""
    problems = []
    by_id = {r["sample_id"]: r for r in report["per_sample"]}
    if set(by_id) != set(expect):
        problems.append("report turn ids differ from the gold turns")
        return problems
    per_task: dict[str, list[dict]] = {}
    for turn_id, exp in expect.items():
        got = by_id[turn_id]
        per_task.setdefault(exp["task"], []).append(exp)
        if got["extraction"] != exp["route"]:
            problems.append(f"{turn_id}: route {got['extraction']}, expected {exp['route']}")
        if exp["task"] == "tr":
            if "teds" in exp:
                ok, want = _close(got["teds"], exp["teds"]), exp["teds"]
            else:
                ok = -1e-12 <= got["teds"] <= exp["teds_max"] + 1e-12
                want = f"in [0, {exp['teds_max']}]"
            if not ok:
                problems.append(f"{turn_id}: tr {exp['kind']} teds {got['teds']}, expected {want}")
            continue
        for key, value in exp["scores"].items():
            same = got.get(key) == value if isinstance(value, (bool, str)) else _close(got.get(key, -1), value)
            if not same:
                problems.append(f"{turn_id}: {key} = {got.get(key)}, expected {value}")
        if len(problems) >= MAX_REPORTED:
            return problems

    def mean(values):
        return sum(values) / len(values)

    for task, exps in per_task.items():
        entry = report["per_task"][task]
        scores = [e.get("scores", {}) for e in exps]
        want = {}
        if task == "tsd":
            want = {"row_accuracy": mean([float(s["row_correct"]) for s in scores]),
                    "column_accuracy": mean([float(s["column_correct"]) for s in scores])}
        elif task in ("tce", "tcl"):
            want = {"cell_accuracy": mean([s["cell_accuracy"] for s in scores])}
        elif task == "mcd":
            want = {k: mean([s[k] for s in scores]) for k in ("precision", "recall", "f1")}
        elif task == "rce":
            for axis, name in (("row", "row_f1"), ("column", "col_f1")):
                f1s = [s["f1"] for s in scores if s["axis"] == axis]
                if f1s:
                    want[name] = mean(f1s)
        elif task == "qa_wrap":
            want = {"accuracy": mean([float(s["correct"]) for s in scores])}
            if not 0.0 <= entry["bleu"] <= 100.0:
                problems.append(f"qa_wrap bleu {entry['bleu']} outside [0, 100]")
        for metric, value in want.items():
            if not _close(entry.get(metric, -1.0), value):
                problems.append(f"{task}.{metric} = {entry.get(metric)}, expected {value}")
    counts = report["counts"]
    failed = sum(1 for e in expect.values() if e["route"] == "failed")
    if counts != {"evaluated": len(expect), "extraction_failed": failed, "skipped": ghosts}:
        problems.append(f"counts {counts}, expected {len(expect)} evaluated, {failed} failed, "
                        f"{ghosts} skipped")
    return problems
