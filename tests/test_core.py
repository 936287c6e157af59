"""Table model: tiling validation, grid expansion, merged regions, JSON form."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from tablekit import core
from tablekit.core import (
    AnchorCell,
    CellRef,
    InvalidTable,
    Table,
    checked,
    expand_grid,
    merged_regions,
    table_from_dict,
    table_from_json,
    table_to_dict,
    validate,
)
from tablekit.formats import TableFormat, serialize
from tablekit.render import StyleFamily, StyleSpec, layout

from oracles import (
    coverage_counts,
    is_perfect_tiling,
    oracle_regions,
    position_map,
    random_table_dict,
)
from scaling import growth_ratio


def t(n_rows, n_cols, anchors, caption=None):
    return Table(n_rows=n_rows, n_cols=n_cols, anchors=tuple(anchors), caption=caption)


def a(row, col, row_span=1, col_span=1, content="", is_header=False):
    return AnchorCell(row, col, row_span, col_span, content, is_header)


def test_validate_accepts_exact_tiling_with_span():
    # 2x2: (1,1) spans two rows, (1,2) and (2,2) fill the rest
    table = t(2, 2, [a(1, 1, row_span=2), a(1, 2), a(2, 2)])
    verdict = validate(table)
    assert verdict.ok
    assert verdict.problem is None
    assert bool(verdict)


def test_validate_reports_overlap_position():
    table = t(2, 2, [a(1, 1, row_span=2, col_span=2), a(2, 2)])
    verdict = validate(table)
    assert not verdict.ok
    assert "overlap" in verdict.problem
    assert verdict.position == CellRef(2, 2)


def test_validate_reports_first_gap_row_major():
    table = t(2, 2, [a(1, 1)])
    verdict = validate(table)
    assert not verdict.ok
    assert "gap" in verdict.problem
    assert verdict.position == CellRef(1, 2)


def test_validate_rejects_nonpositive_dims_and_spans():
    assert not validate(t(0, 1, [])).ok
    assert not validate(t(1, 0, [])).ok
    bad_span = t(1, 1, [a(1, 1, row_span=0)])
    verdict = validate(bad_span)
    assert not verdict.ok and verdict.position == CellRef(1, 1)


def test_validate_rejects_out_of_bounds_span():
    table = t(2, 2, [a(1, 1), a(1, 2), a(2, 1), a(2, 2, col_span=2)])
    verdict = validate(table)
    assert not verdict.ok
    assert "bounds" in verdict.problem
    assert verdict.position == CellRef(2, 2)


def test_validate_refuses_a_grid_past_the_size_limit_before_allocating_it():
    assert validate(Table(core.MAX_ROWS, core.MAX_COLS, (AnchorCell(1, 1, core.MAX_ROWS, core.MAX_COLS),)))
    for n_rows, n_cols in ((core.MAX_ROWS + 1, 1), (1, core.MAX_COLS + 1)):
        verdict = validate(Table(n_rows, n_cols, (AnchorCell(1, 1, n_rows, n_cols),)))
        assert verdict.problem == f"grid {n_rows}x{n_cols} exceeds the 512x512 limit"

    # the refusal reads the declared size only: a grid 16 times the area
    # costs no more to refuse
    def make(n: int) -> Table:
        return Table(n, n, (AnchorCell(1, 1, n, n),))

    ratio = growth_ratio(validate, make, 2_000, repeat=9)
    assert ratio < 2, ratio


def test_expand_grid_resolves_spanned_positions_to_anchor():
    big = a(1, 1, row_span=2, col_span=2, content="hub")
    table = t(3, 3, [big, a(1, 3), a(2, 3), a(3, 1), a(3, 2), a(3, 3)])
    grid = expand_grid(table)
    assert grid.anchor_at(2, 2) is big
    assert grid.content_at(2, 2) == "hub"
    assert grid.anchor_at(1, 1) is big
    assert grid.anchor_at(3, 3).content == ""


def test_expand_grid_rejects_invalid():
    with pytest.raises(InvalidTable):
        expand_grid(t(2, 2, [a(1, 1)]))


def test_validity_is_computed_once_per_table_instance(monkeypatch):
    calls = []
    real_validate = core.validate
    monkeypatch.setattr(core, "validate", lambda table: calls.append(table) or real_validate(table))
    style = StyleSpec(StyleFamily.EXCEL, "Arial", 11, "#d9e1f2", None, 1, 4, 120)
    table = t(2, 2, [a(1, 1, col_span=2, content="x"), a(2, 1), a(2, 2)])
    for _ in range(2):
        expand_grid(table)
        layout(table, style)
        serialize(table, TableFormat.HTML)
        serialize(table, TableFormat.LATEX)
    assert len(calls) == 1
    # a replaced table is a new instance, checked afresh
    assert checked(dataclasses.replace(table, caption="t")).ok
    assert len(calls) == 2

    broken = t(2, 2, [a(1, 1)])
    for _ in range(2):
        with pytest.raises(InvalidTable):
            expand_grid(broken)
        with pytest.raises(InvalidTable):
            layout(broken, style)
        with pytest.raises(ValueError):
            serialize(broken, TableFormat.HTML)
    assert len(calls) == 3
    assert checked(broken) == validate(broken)


def test_grid_row_and_column_views():
    table = t(2, 2, [a(1, 1, content="x", row_span=2), a(1, 2, content="y"), a(2, 2, content="z")])
    grid = expand_grid(table)
    assert [c.content for c in grid.row(2)] == ["x", "z"]
    assert [c.content for c in grid.column(1)] == ["x", "x"]


def test_merged_regions_row_major_order():
    table = t(3, 3, [
        a(1, 2, col_span=2),
        a(1, 1, row_span=2),
        a(2, 2), a(2, 3),
        a(3, 1), a(3, 2), a(3, 3),
    ])
    assert merged_regions(table) == [
        (CellRef(1, 1), CellRef(2, 1)),
        (CellRef(1, 2), CellRef(1, 3)),
    ]


def test_merged_regions_empty_for_flat_table():
    table = t(1, 2, [a(1, 1), a(1, 2)])
    assert merged_regions(table) == []


def test_random_tables_validate_and_match_oracle():
    rng = random.Random(20260816)
    for _ in range(300):
        data = random_table_dict(rng)
        assert is_perfect_tiling(data)
        table = table_from_dict(data)
        verdict = validate(table)
        assert verdict.ok, verdict.problem
        # span areas partition the grid
        area = sum(x.row_span * x.col_span for x in table.anchors)
        assert area == table.n_rows * table.n_cols
        grid = expand_grid(table)
        pm = position_map(data)
        for r in range(1, table.n_rows + 1):
            for c in range(1, table.n_cols + 1):
                assert grid.content_at(r, c) == pm[(r, c)]["content"]
        assert [
            ((tl.row_id, tl.col_id), (br.row_id, br.col_id))
            for tl, br in merged_regions(table)
        ] == oracle_regions(data)


def test_mutated_tables_fail_validation():
    rng = random.Random(99)
    checked = 0
    while checked < 120:
        data = random_table_dict(rng)
        anchors = [dict(x) for x in data["anchors"]]
        mode = rng.choice(["drop", "dup", "grow"])
        if mode == "drop":
            anchors.pop(rng.randrange(len(anchors)))
            if not anchors:
                continue
        elif mode == "dup":
            anchors.append(dict(rng.choice(anchors)))
        else:
            victim = anchors[rng.randrange(len(anchors))]
            victim["row_span"] += 1
        mutated = dict(data, anchors=anchors)
        table = table_from_dict(mutated)
        assert not validate(table).ok
        assert not is_perfect_tiling(mutated)
        checked += 1


def test_json_round_trip_preserves_table():
    rng = random.Random(7)
    for _ in range(100):
        table = table_from_dict(random_table_dict(rng))
        again = table_from_json(json.dumps(table_to_dict(table), ensure_ascii=False))
        assert again == table


def test_json_field_shape():
    table = t(1, 2, [a(1, 1, content="k", is_header=True), a(1, 2, content="v")], caption="cap")
    data = table_to_dict(table)
    assert set(data) == {"n_rows", "n_cols", "caption", "anchors"}
    assert data["anchors"][0] == {
        "row": 1, "col": 1, "row_span": 1, "col_span": 1,
        "content": "k", "is_header": True,
    }


def test_json_rejects_garbage():
    with pytest.raises(InvalidTable):
        table_from_json("not json at all")
    with pytest.raises(InvalidTable):
        table_from_json("[1, 2]")
    with pytest.raises(InvalidTable):
        table_from_json('{"n_rows": 1}')


def test_coverage_oracle_flags_out_of_bounds():
    bad = {"n_rows": 1, "n_cols": 1, "caption": None,
           "anchors": [{"row": 1, "col": 1, "row_span": 2, "col_span": 1,
                        "content": "", "is_header": False}]}
    assert not is_perfect_tiling(bad)
    assert coverage_counts(bad)[(1, 1)] == 1


def test_every_consumer_reads_one_grid_per_table_and_raises_invalid_table():
    from tablekit.render import render_svg
    from tablekit.tasks import unique_nonempty_anchors

    style = StyleSpec(StyleFamily.EXCEL, "Arial", 11, "#d9e1f2", None, 1, 4, 120)
    table = t(2, 2, [a(1, 1, col_span=2, content="x"), a(2, 1), a(2, 2)])
    grid = expand_grid(table)
    assert expand_grid(table) is grid is checked(table).grid
    assert validate(t(2, 2, [a(1, 1)])).grid is None

    broken = t(2, 2, [a(1, 1), a(1, 2), a(2, 1, col_span=2), a(2, 2)])
    for fmt in TableFormat:
        with pytest.raises(InvalidTable, match="overlap at"):
            serialize(broken, fmt)
    with pytest.raises(InvalidTable):
        layout(broken, style)
    with pytest.raises(InvalidTable):
        render_svg(broken, style)
    with pytest.raises(InvalidTable):
        unique_nonempty_anchors(broken)


def test_grid_anchors_are_every_anchor_once_row_major():
    rng = random.Random(6)
    for _ in range(200):
        data = random_table_dict(rng)
        rng.shuffle(data["anchors"])
        table = table_from_dict(data)
        grid = expand_grid(table)
        row_major = sorted(table.anchors, key=lambda x: (x.row, x.col))
        assert grid.anchors() == row_major
        for r in range(1, table.n_rows + 1):
            assert grid.row_anchors(r) == [x for x in row_major if x.row == r]
