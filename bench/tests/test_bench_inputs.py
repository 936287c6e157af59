"""The benchmark's input generator and simulated model are deterministic
for a given seed, and their table edits keep tables valid.

Run from the repository root: python3 -m pytest bench/tests
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402
import model  # noqa: E402
import reference  # noqa: E402

SHAPES = gen.shapes(40, 12, 8)


def corpus_bytes(seed: int, where: Path) -> dict[str, bytes]:
    tables = gen.build_corpus(seed, SHAPES)
    gen.write_corpus(tables, where)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def is_tiling(table: dict) -> bool:
    covered = [(r, c) for a in table["anchors"]
               for r in range(a["row"], a["row"] + a["row_span"])
               for c in range(a["col"], a["col"] + a["col_span"])]
    every = {(r, c) for r in range(1, table["n_rows"] + 1) for c in range(1, table["n_cols"] + 1)}
    return len(covered) == len(set(covered)) and set(covered) == every


def test_corpus_files_are_identical_for_the_same_seed(tmp_path):
    first = corpus_bytes(7, tmp_path / "a")
    assert first == corpus_bytes(7, tmp_path / "b")
    assert first != corpus_bytes(8, tmp_path / "c")


def test_shapes_do_not_depend_on_the_seed():
    sizes = lambda seed: sorted((t["n_rows"], t["n_cols"]) for t in gen.build_corpus(seed, SHAPES).values())  # noqa: E731
    assert sizes(1) == sizes(2) == sorted(SHAPES)
    assert all(1 <= r <= 12 and 1 <= c <= 8 for r, c in SHAPES)


def test_generated_tables_are_valid_and_format_consistent():
    for table in gen.build_corpus(3, SHAPES).values():
        assert is_tiling(table)
        if table["format"] == "markdown":
            assert not gen.has_spans(table)
        if table["format"] in ("markdown", "latex"):
            assert table["caption"] is None


def test_qa_pairs_are_deterministic_and_cover_half_the_tables():
    tables = gen.build_corpus(5, SHAPES)
    pairs = gen.qa_pairs(tables, 5)
    assert pairs == gen.qa_pairs(tables, 5)
    assert len(pairs) == len(tables) // 2
    assert all(p["answer"] for p in pairs)


def fake_gold(tables: dict[str, dict]) -> list[dict]:
    """Minimal gold records: one tsd and one tr sample per table."""
    records = []
    for i, (table_id, table) in enumerate(tables.items()):
        records.append({"sample_id": f"tsd-train-{i:06d}", "table_id": table_id, "task": "tsd",
                        "gold_answer": {"row_number": table["n_rows"], "column_number": table["n_cols"]},
                        "turns": None, "meta": {"split": "train"}})
        records.append({"sample_id": f"tr-train-{i:06d}", "table_id": table_id, "task": "tr",
                        "gold_answer": {"answer": gen.to_html(table)}, "turns": None,
                        "meta": {"split": "train", "tr_format": "html"}})
    return records


def test_noisy_model_is_deterministic_for_a_seed():
    tables = gen.build_corpus(9, SHAPES)
    records = fake_gold(tables)
    first = model.noisy_predictions(records, tables, {}, 9)
    assert json.dumps(first) == json.dumps(model.noisy_predictions(records, tables, {}, 9))
    assert json.dumps(first) != json.dumps(model.noisy_predictions(records, tables, {}, 10))


def test_behaviours_take_exact_shares():
    ids = [f"x{i}" for i in range(200)]
    behaviour = model.assign({"tsd": ids}, {i: n for n, i in enumerate(ids)})
    kinds = list(behaviour.values())
    assert kinds.count("wrong") == 40 and kinds.count("flood") == 1
    assert len(kinds) == 200


def test_table_edits_keep_tables_valid():
    rng = random.Random(4)
    for table in gen.build_corpus(11, SHAPES).values():
        if table["n_rows"] > 1:
            dropped = model.drop_row(table, rng.randrange(table["n_rows"]))
            assert is_tiling(dropped) and dropped["n_rows"] == table["n_rows"] - 1
        if table["n_cols"] > 1:
            dropped = model.drop_col(table, rng.randrange(table["n_cols"]))
            assert is_tiling(dropped) and dropped["n_cols"] == table["n_cols"] - 1
        grown = model.grow(table, rng, 2, 1)
        assert is_tiling(grown)
        assert reference.tree_size(grown) == reference.tree_size(table) + 2 + 2 * (table["n_cols"] + 1) + table["n_rows"]


def test_text_edits_stay_as_a_parser_reads_them():
    rng = random.Random(2)
    for text in ["", "a", "v1, v2", "-8", "alpha bravo"] * 50:
        out = model.edit_text(text, rng)
        assert out == " ".join(out.split()) and out and set(out) - set(":-")
