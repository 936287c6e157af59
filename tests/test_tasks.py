"""Tests for sample synthesis: gold answers, seeding, driver behavior."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from tablekit.core import AnchorCell, Table, table_from_dict, table_to_dict
from tablekit.formats import parse
from tablekit.formats.common import TableFormat, UnrepresentableInFormat
from tablekit.taskdefs import TaskKind
from tablekit.tasks import (
    DEFAULT_TR_WEIGHTS,
    STRUCTURE_TASKS,
    InsufficientUniqueCells,
    KTooLarge,
    Sample,
    SampleContext,
    SynthConfig,
    compose_multiturn,
    derive_seed,
    materialize,
    partition_tables,
    plan,
    synth_mcd,
    synth_rce,
    synth_tce,
    synth_tcl,
    synth_tr,
    synth_tsd,
    synthesize,
    unique_cell_count,
    unique_nonempty_anchors,
    wrap_qa,
)
from tablekit.templates import default_pool

import oracles


def _ctx(sample_id="s-000000", table_id="tbl-0", seed=7) -> SampleContext:
    return SampleContext(
        sample_id=sample_id,
        table_id=table_id,
        image_ref=f"images/{table_id}.svg",
        gold_seed=seed,
        request_seed=seed + 1,
        pool=default_pool(),
        meta={"style_family": "web_page", "split": "train"},
    )


def _grid_table(rows: list[list[str]]) -> Table:
    anchors = tuple(
        AnchorCell(row=r + 1, col=c + 1, content=rows[r][c])
        for r in range(len(rows))
        for c in range(len(rows[0]))
    )
    return Table(n_rows=len(rows), n_cols=len(rows[0]), anchors=anchors)


def _random_table(rng: random.Random, **kwargs) -> Table:
    return table_from_dict(oracles.random_table_dict(rng, **kwargs))


def test_tsd_gold():
    t = _grid_table([["a", "b", "c", "d"], ["e", "f", "g", "h"], ["i", "j", "k", "l"]])
    s = synth_tsd(t, _ctx())
    assert s.gold_answer == {"row_number": 3, "column_number": 4}
    assert synth_tsd(_grid_table([["x"]]), _ctx()).gold_answer == {
        "row_number": 1,
        "column_number": 1,
    }
    merged = Table(
        n_rows=2,
        n_cols=3,
        anchors=(
            AnchorCell(1, 1, row_span=2, content="m"),
            AnchorCell(1, 2, content="b"),
            AnchorCell(1, 3, content="c"),
            AnchorCell(2, 2, content="e"),
            AnchorCell(2, 3, content="f"),
        ),
    )
    assert synth_tsd(merged, _ctx()).gold_answer == {"row_number": 2, "column_number": 3}


def test_tce_full_coverage_and_merged_lookup():
    t = _grid_table([["a", "b"], ["c", "d"]])
    s = synth_tce(t, 4, _ctx())
    got = {tuple(c["position"]): c["value"] for c in s.gold_answer["cells"]}
    assert got == {(1, 1): "a", (1, 2): "b", (2, 1): "c", (2, 2): "d"}
    merged = Table(
        n_rows=2,
        n_cols=2,
        anchors=(
            AnchorCell(1, 1, row_span=2, content="tall"),
            AnchorCell(1, 2, content="b"),
            AnchorCell(2, 2, content="d"),
        ),
    )
    s = synth_tce(merged, 4, _ctx())
    got = {tuple(c["position"]): c["value"] for c in s.gold_answer["cells"]}
    assert got[(2, 1)] == "tall"  # covered position reports the anchor content


def test_tce_k_bounds():
    t = _grid_table([["a", "b"], ["c", "d"]])
    with pytest.raises(KTooLarge):
        synth_tce(t, 5, _ctx())
    with pytest.raises(KTooLarge):
        synth_tce(t, 0, _ctx())


def test_tce_positions_distinct_and_request_mentions_them():
    rng = random.Random(41)
    for _ in range(60):
        t = _random_table(rng)
        k = min(3, t.n_rows * t.n_cols)
        s = synth_tce(t, k, _ctx(seed=rng.randrange(2**32)))
        positions = [tuple(c["position"]) for c in s.gold_answer["cells"]]
        assert len(set(positions)) == len(positions) == k
        for r, c in positions:
            assert f"({r}, {c})" in s.request


def test_tcl_gold_and_uniqueness_guard():
    t = _grid_table([["u", "v"], ["zebra", "w"]])
    found = None
    for seed in range(30):
        s = synth_tcl(t, 3, _ctx(seed=seed))
        for cell in s.gold_answer["cells"]:
            if cell["value"] == "zebra":
                found = cell["position"]
    assert found == [2, 1]
    same = _grid_table([["x", "x"], ["x", "x"]])
    with pytest.raises(InsufficientUniqueCells):
        synth_tcl(same, 1, _ctx())


def test_tcl_inverse_lookup_random():
    rng = random.Random(99)
    checked = 0
    for _ in range(80):
        t = _random_table(rng)
        candidates = unique_nonempty_anchors(t)
        assert unique_cell_count(t) == len(candidates)
        if len(candidates) < 3:
            continue
        s = synth_tcl(t, 3, _ctx(seed=rng.randrange(2**32)))
        data = table_to_dict(t)
        for cell in s.gold_answer["cells"]:
            assert oracles.oracle_positions_of(data, cell["value"]) == [tuple(cell["position"])]
            assert f"'{cell['value']}'" in s.request
        checked += 1
    assert checked > 20


def test_mcd_gold():
    plain = _grid_table([["a", "b"], ["c", "d"]])
    assert synth_mcd(plain, _ctx()).gold_answer == {"has_merged": False, "regions": []}
    merged = Table(
        n_rows=1,
        n_cols=3,
        anchors=(AnchorCell(1, 1, col_span=2, content="wide"), AnchorCell(1, 3, content="c")),
    )
    assert synth_mcd(merged, _ctx()).gold_answer == {
        "has_merged": True,
        "regions": [[[1, 1], [1, 2]]],
    }


def test_rce_lines_match_oracle():
    rng = random.Random(5)
    for _ in range(80):
        t = _random_table(rng)
        s = synth_rce(t, _ctx(seed=rng.randrange(2**32)))
        axis = s.gold_answer["axis"]
        assert axis in ("row", "column")
        data = table_to_dict(t)
        limit = t.n_rows if axis == "row" else t.n_cols
        assert 1 <= len(s.gold_answer["lines"]) <= min(3, limit)
        for key, values in s.gold_answer["lines"].items():
            assert values == oracles.oracle_line(data, axis, int(key))
        assert axis in s.request


def test_rce_repeats_merged_content():
    t = Table(
        n_rows=2,
        n_cols=2,
        anchors=(
            AnchorCell(1, 1, row_span=2, content="tall"),
            AnchorCell(1, 2, content="b"),
            AnchorCell(2, 2, content="d"),
        ),
    )
    seen_column_1 = False
    for seed in range(40):
        s = synth_rce(t, _ctx(seed=seed))
        if s.gold_answer["axis"] == "column" and "1" in s.gold_answer["lines"]:
            assert s.gold_answer["lines"]["1"] == ["tall", "tall"]
            seen_column_1 = True
    assert seen_column_1


def test_tr_explicit_format():
    t = _grid_table([["x"]])
    s = synth_tr(t, TableFormat.HTML, _ctx())
    assert s.gold_answer == {"answer": "<table><tr><td>x</td></tr></table>"}
    assert "HTML" in s.request
    assert s.meta["tr_format"] == "html"
    spanned = Table(
        n_rows=1, n_cols=2, anchors=(AnchorCell(1, 1, col_span=2, content="w"),)
    )
    with pytest.raises(UnrepresentableInFormat):
        synth_tr(spanned, TableFormat.MARKDOWN, _ctx())


def test_tr_never_draws_markdown_for_spanned_tables():
    spanned = Table(
        n_rows=1, n_cols=2, anchors=(AnchorCell(1, 1, col_span=2, content="w"),)
    )
    for seed in range(200):
        s = synth_tr(spanned, None, _ctx(seed=seed))
        assert s.meta["tr_format"] in ("html", "latex")


def test_tr_weight_frequencies():
    t = _grid_table([["a", "b"], ["c", "d"]])
    counts = {"html": 0, "markdown": 0, "latex": 0}
    n = 15_000
    for i in range(n):
        s = synth_tr(t, None, _ctx(seed=derive_seed("trmix", i)), DEFAULT_TR_WEIGHTS)
        counts[s.meta["tr_format"]] += 1
    assert abs(counts["html"] / n - 0.64) < 0.015
    assert abs(counts["markdown"] / n - 0.18) < 0.015
    assert abs(counts["latex"] / n - 0.18) < 0.015


def test_wrap_qa_envelope():
    t = _grid_table([["a"]])
    s = wrap_qa(t, "Is the claim supported?", "entailed", _ctx())
    assert s.gold_answer == {"answer": "entailed"}
    assert json.loads(s.gold_response) == {"answer": "entailed"}
    assert "Is the claim supported?" in s.request
    with pytest.raises(ValueError):
        wrap_qa(t, "", "x", _ctx())
    with pytest.raises(ValueError):
        wrap_qa(t, "q", "", _ctx())


def test_gold_response_parses_back_to_gold_answer():
    rng = random.Random(2024)
    for _ in range(40):
        t = _random_table(rng)
        seed = rng.randrange(2**32)
        samples = [
            synth_tsd(t, _ctx(seed=seed)),
            synth_tce(t, min(3, t.n_rows * t.n_cols), _ctx(seed=seed)),
            synth_mcd(t, _ctx(seed=seed)),
            synth_rce(t, _ctx(seed=seed)),
            synth_tr(t, TableFormat.HTML, _ctx(seed=seed)),
        ]
        for s in samples:
            assert json.loads(s.gold_response) == s.gold_answer


def test_synth_functions_deterministic():
    rng = random.Random(77)
    t = _random_table(rng)
    for fn in (synth_tsd, synth_mcd, synth_rce):
        assert fn(t, _ctx(seed=123)) == fn(t, _ctx(seed=123))
    assert synth_tce(t, 1, _ctx(seed=5)) == synth_tce(t, 1, _ctx(seed=5))


def test_compose_multiturn_group_rules():
    def mk(i, table_id):
        return Sample(
            sample_id=f"tsd-train-{i:06d}",
            table_id=table_id,
            task=TaskKind.TSD,
            image_ref=f"images/{table_id}.svg",
            request=f"req {i}",
            gold_response='{"row_number": 1, "column_number": 1}',
            gold_answer={"row_number": 1, "column_number": 1},
            meta={"split": "train"},
        )

    lonely = [mk(0, "solo")]
    convs, consumed = compose_multiturn(lonely, fraction=1.0, master_seed=0)
    assert convs == () and consumed == frozenset()

    group = [mk(i, "shared") for i in range(4)]
    convs, consumed = compose_multiturn(group, fraction=1.0, master_seed=0)
    assert len(convs) == 1
    conv = convs[0]
    assert conv.turns is not None and 2 <= len(conv.turns) <= 4
    assert conv.table_id == "shared"
    assert conv.request == conv.turns[0].request
    assert conv.gold_response == conv.turns[0].gold_response
    sources = [t.source_sample_id for t in conv.turns]
    assert len(set(sources)) == len(sources)
    assert consumed == frozenset(sources)

    # eval samples never join conversations
    eval_group = [dataclasses.replace(mk(i, "ev"), meta={"split": "eval"}) for i in range(4)]
    convs, consumed = compose_multiturn(eval_group, fraction=1.0, master_seed=0)
    assert convs == ()


def test_compose_multiturn_fraction_zero():
    group = [
        Sample(
            sample_id=f"mcd-train-{i:06d}",
            table_id="t",
            task=TaskKind.MCD,
            image_ref="images/t.svg",
            request="r",
            gold_response="{}",
            gold_answer={},
            meta={"split": "train"},
        )
        for i in range(3)
    ]
    assert compose_multiturn(group, fraction=0.0, master_seed=1) == ((), frozenset())


def _corpus(n: int, seed: int = 11, **kwargs) -> dict[str, Table]:
    rng = random.Random(seed)
    return {f"tbl-{i:04d}": _random_table(rng, **kwargs) for i in range(n)}


def test_synthesize_exact_counts_and_ids():
    tables = _corpus(30)
    counts = {t: (5, 2) for t in STRUCTURE_TASKS}
    config = SynthConfig(counts=counts, master_seed=9)
    result = synthesize(tables, config)
    assert result.shortfalls == {}
    for task in STRUCTURE_TASKS:
        train = [s for s in result.samples if s.task is task and s.meta["split"] == "train"]
        evals = [s for s in result.samples if s.task is task and s.meta["split"] == "eval"]
        assert len(train) == 5 and len(evals) == 2
        assert [s.sample_id for s in train] == [f"{task.value}-train-{i:06d}" for i in range(5)]
    for s in result.samples:
        assert s.image_ref == f"images/{s.table_id}.svg"
        assert json.loads(s.gold_response) == s.gold_answer
        assert {"style_family", "split", "n_rows", "n_cols", "tr_format"} <= set(s.meta)


def test_synthesize_train_eval_tables_disjoint():
    tables = _corpus(40)
    config = SynthConfig(counts={t: (6, 3) for t in STRUCTURE_TASKS}, master_seed=3)
    result = synthesize(tables, config)
    train_tables = {s.table_id for s in result.samples if s.meta["split"] == "train"}
    eval_tables = {s.table_id for s in result.samples if s.meta["split"] == "eval"}
    assert train_tables and eval_tables
    assert not train_tables & eval_tables


def test_synthesize_deterministic():
    tables = _corpus(25)
    config = SynthConfig(counts={t: (4, 2) for t in STRUCTURE_TASKS}, master_seed=21)
    a = synthesize(tables, config)
    b = synthesize(tables, config)
    assert [s.to_dict() for s in a.samples] == [s.to_dict() for s in b.samples]


def test_materialize_over_disjoint_tables_builds_disjoint_shares_of_synthesize():
    tables = _corpus(30)
    config = SynthConfig(
        counts={t: (6, 3) for t in STRUCTURE_TASKS},
        multiturn_fraction=0.5,
        tcl_cells_per_sample=4,
        master_seed=13,
    )
    qa = [{"table_id": tid, "question": "Which?", "answer": str(i)} for i, tid in enumerate(list(tables)[::4])]
    whole = synthesize(tables, config, qa_pairs=qa)
    assert whole.conversations and whole.consumed_singles
    planned = plan({tid: unique_cell_count(t) for tid, t in tables.items()}, config, qa)
    assert planned.consumed_singles == whole.consumed_singles
    merged: dict = {}
    styles: dict = {}
    for k in range(3):
        share, share_styles = materialize(planned, {tid: tables[tid] for tid in sorted(tables)[k::3]}, config)
        assert not merged.keys() & share.keys()
        assert all(sample.table_id in share_styles for sample in share.values())
        merged.update(share)
        styles.update(share_styles)
    assert [merged[p] for p in range(len(merged))] == list(whole.samples)
    assert styles == materialize(planned, tables, config)[1]


def test_synthesize_reports_shortfalls():
    # a single table cannot serve a disjoint eval pool
    tables = _corpus(1)
    config = SynthConfig(counts={TaskKind.TSD: (2, 2)}, master_seed=0)
    result = synthesize(tables, config)
    assert result.shortfalls.get("tsd-eval") == 2
    # no table has unique non-empty cells, so TCL cannot be satisfied
    same = {
        f"dup-{i}": Table(n_rows=1, n_cols=2, anchors=(AnchorCell(1, 1, content="x"), AnchorCell(1, 2, content="x")))
        for i in range(4)
    }
    config = SynthConfig(counts={TaskKind.TCL: (3, 0)}, master_seed=0)
    result = synthesize(same, config)
    assert result.shortfalls == {"tcl-train": 3}
    assert result.samples == ()


def test_synthesize_tcl_probes_past_unusable_tables():
    tables = {
        "allsame": Table(n_rows=1, n_cols=2, anchors=(AnchorCell(1, 1, content="x"), AnchorCell(1, 2, content="x"))),
        "rich": _grid_table([["a", "b", "c"], ["d", "e", "f"]]),
    }
    config = SynthConfig(counts={TaskKind.TCL: (4, 0)}, master_seed=2)
    result = synthesize(tables, config)
    assert len(result.samples) == 4
    assert {s.table_id for s in result.samples} == {"rich"}


def test_synthesize_qa_pairs():
    tables = _corpus(12)
    ids = list(tables)
    qa = [
        {"table_id": ids[0], "question": "How many boats?", "answer": "7"},
        {"table_id": ids[1], "question": "Largest navy?", "answer": "blue"},
        {"table_id": "missing", "question": "q", "answer": "a"},
        {"table_id": ids[2], "question": "", "answer": "a"},
        {"table_id": ids[3], "question": "Q?", "answer": "  "},
        {"table_id": ids[4], "question": " \n", "answer": "a"},
    ]
    config = SynthConfig(counts={TaskKind.TSD: (3, 1)}, master_seed=6)
    result = synthesize(tables, config, qa_pairs=qa)
    wrapped = [s for s in result.samples if s.task is TaskKind.QA_WRAP]
    assert len(wrapped) == 2
    assert result.qa_pairs_skipped == 4
    answers = {s.gold_answer["answer"] for s in wrapped}
    assert answers == {"7", "blue"}


def test_synthesize_multiturn_consumes_singles():
    tables = _corpus(10)
    counts = {t: (20, 0) for t in STRUCTURE_TASKS}
    config = SynthConfig(counts=counts, master_seed=4, multiturn_fraction=1.0)
    result = synthesize(tables, config)
    assert result.conversations > 0
    assert result.consumed_singles >= 2 * result.conversations
    ids = [s.sample_id for s in result.samples]
    assert len(ids) == len(set(ids))
    consumed_sources = {
        t.source_sample_id for s in result.samples if s.turns for t in s.turns
    }
    for s in result.samples:
        if s.turns is None:
            assert s.sample_id not in consumed_sources
        else:
            assert len(s.turns) >= 2
            assert len({s.table_id}) == 1


def test_gold_answers_match_brute_force_random():
    rng = random.Random(314)
    for _ in range(300):
        t = _random_table(rng)
        data = table_to_dict(t)
        seed = rng.randrange(2**32)
        ctx = _ctx(seed=seed)

        tsd = synth_tsd(t, ctx).gold_answer
        assert (tsd["row_number"], tsd["column_number"]) == oracles.oracle_dims(data)

        tce = synth_tce(t, min(3, t.n_rows * t.n_cols), ctx).gold_answer
        for cell in tce["cells"]:
            r, c = cell["position"]
            assert cell["value"] == oracles.oracle_content_at(data, r, c)

        mcd = synth_mcd(t, ctx).gold_answer
        assert mcd["regions"] == [
            [list(tl), list(br)] for tl, br in oracles.oracle_regions(data)
        ]
        assert mcd["has_merged"] == bool(oracles.oracle_regions(data))

        rce = synth_rce(t, ctx).gold_answer
        for key, values in rce["lines"].items():
            assert values == oracles.oracle_line(data, rce["axis"], int(key))


def test_partition_respects_demand_ratio():
    tables = _corpus(100)
    config = SynthConfig(counts={t: (80, 10) for t in STRUCTURE_TASKS}, master_seed=0)
    train, evals = partition_tables(list(tables), config)
    assert len(train) + len(evals) == 100
    assert not set(train) & set(evals)
    # 60 eval demand out of 540 total demand, so about 11 of 100 tables
    assert 5 <= len(evals) <= 20


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(counts={TaskKind.TSD: (-1, 0)})
    with pytest.raises(ValueError):
        SynthConfig(tr_format_weights={TableFormat.HTML: 0.5})
    with pytest.raises(ValueError):
        SynthConfig(multiturn_fraction=1.5)
    with pytest.raises(ValueError):
        SynthConfig(tce_cells_per_sample=0)


def test_tr_gold_parses_back_to_table():
    rng = random.Random(404)
    for _ in range(60):
        t = _random_table(rng)
        s = synth_tr(t, None, _ctx(seed=rng.randrange(2**32)))
        fmt = TableFormat(s.meta["tr_format"])
        parsed, _ = parse(s.gold_answer["answer"], fmt)
        assert parsed.n_rows == t.n_rows and parsed.n_cols == t.n_cols
        spans = lambda tab: sorted(
            (a.row, a.col, a.row_span, a.col_span) for a in tab.anchors
        )
        assert spans(parsed) == spans(t)
