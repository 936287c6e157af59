"""Acceptance gate: one test per shipped guarantee, each printing a
PASS line with the measured quantity when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
import time

import pytest

from tablekit.core import Table, table_from_dict, table_to_dict
from tablekit.formats import parse, serialize
from tablekit.formats.common import TableFormat
from tablekit.metrics.bleu import bleu
from tablekit.metrics.evaluate import evaluate, score_sample
from tablekit.metrics.teds import TreeNode, html_to_tree, teds, tree_edit_distance, tree_size
from tablekit.pipeline import PipelineConfig, cmd_synth
from tablekit.taskdefs import TaskKind
from tablekit.tasks import (
    DEFAULT_TR_WEIGHTS,
    InsufficientUniqueCells,
    SampleContext,
    SynthConfig,
    derive_seed,
    synth_mcd,
    synth_rce,
    synth_tce,
    synth_tcl,
    synth_tr,
    synth_tsd,
    synthesize,
    unique_nonempty_anchors,
)
from tablekit.render import DEFAULT_STYLE_MIX, StyleFamily, sample_style
from tablekit.templates import default_pool

import oracles
from test_formats import project_latex, project_markdown


def _ok(label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {label}{suffix}")


def _node(t: tuple) -> TreeNode:
    return TreeNode(t[0], t[1], t[2], t[3], [_node(c) for c in t[4]])


def _ctx(i: int, tag: str) -> SampleContext:
    return SampleContext(
        sample_id=f"acc-{tag}-{i:06d}",
        table_id=f"tbl-{i:04d}",
        image_ref=f"images/tbl-{i:04d}.svg",
        gold_seed=derive_seed("acc", tag, i, "gold"),
        request_seed=derive_seed("acc", tag, i, "request"),
        pool=default_pool(),
        meta={"style_family": "web_page", "split": "train"},
    )


def _random_tables(seed: int, n: int, **kwargs) -> dict[str, Table]:
    rng = random.Random(seed)
    return {f"tbl-{i:04d}": table_from_dict(oracles.random_table_dict(rng, **kwargs)) for i in range(n)}


# ---------------------------------------------------------------------------
# 1. tree edit distance equals an exhaustive search over edit mappings
# ---------------------------------------------------------------------------


def test_c1_distance_equals_exhaustive_search():
    rng = random.Random(10001)
    started = time.monotonic()
    for _ in range(200):
        t1 = oracles.random_tree(rng, max_nodes=6)
        t2 = oracles.random_tree(rng, max_nodes=6)
        got = tree_edit_distance(_node(t1), _node(t2))
        want = oracles.exhaustive_tree_distance(t1, t2)
        assert got == want, (t1, t2, got, want)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _ok("tree edit distance matches exhaustive search on 200 pairs", f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. similarity anchors, derived by hand before the build
# ---------------------------------------------------------------------------


def test_c2_similarity_anchors():
    table = '<table><tr><td colspan="2">a</td></tr><tr><td>b</td><td>c</td></tr></table>'
    assert teds(table, table) == 1.0
    rename = teds(
        "<table><tr><td>a</td></tr></table>", "<table><tr><td>b</td></tr></table>"
    )
    assert abs(rename - (1.0 - 1.0 / 3.0)) <= 1e-9, rename
    sentinel = teds("<table></table>", "<table><tr><td>x</td></tr></table>")
    assert abs(sentinel - (1.0 - 2.0 / 3.0)) <= 1e-9, sentinel
    _ok(
        "similarity anchors",
        f"identical=1.0 rename={rename:.10f} sentinel={sentinel:.10f}",
    )


# ---------------------------------------------------------------------------
# 3. serialize/parse round trip on 1,000 random tables per format
# ---------------------------------------------------------------------------


def test_c3_round_trip_1000_tables_per_format():
    rng = random.Random(10003)
    started = time.monotonic()
    for i in range(1000):
        html_table = table_from_dict(oracles.random_table_dict(rng))
        back, _ = parse(serialize(html_table, TableFormat.HTML), TableFormat.HTML)
        assert back == Table(
            html_table.n_rows, html_table.n_cols, html_table.anchors, html_table.caption
        ), f"html iteration {i}"

        md_table = table_from_dict(project_markdown(oracles.random_table_dict(rng, spans=False)))
        back_md, _ = parse(serialize(md_table, TableFormat.MARKDOWN), TableFormat.MARKDOWN)
        assert back_md == md_table, f"markdown iteration {i}"

        tex_table = table_from_dict(project_latex(oracles.random_table_dict(rng)))
        back_tex, _ = parse(serialize(tex_table, TableFormat.LATEX), TableFormat.LATEX)
        assert back_tex == tex_table, f"latex iteration {i}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _ok("round trip on 1,000 tables x 3 formats", f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. gold answers equal a brute-force recomputation on 1,000 tables x 6 tasks
# ---------------------------------------------------------------------------


def _grid_maps(data: dict):
    """Content and span at every covered position, by direct span scan."""
    pmap = oracles.position_map(data)
    content = {pos: a["content"] for pos, a in pmap.items()}
    spans = {
        pos: (a.get("row_span", 1), a.get("col_span", 1)) for pos, a in pmap.items()
    }
    return content, spans


def test_c4_gold_soundness_1000_tables():
    rng = random.Random(10004)
    started = time.monotonic()
    for i in range(1000):
        data = oracles.random_table_dict(rng)
        table = table_from_dict(data)

        tsd = synth_tsd(table, _ctx(i, "tsd")).gold_answer
        assert (tsd["row_number"], tsd["column_number"]) == oracles.oracle_dims(data)

        k = min(3, table.n_rows * table.n_cols)
        tce = synth_tce(table, k, _ctx(i, "tce")).gold_answer
        positions = [tuple(c["position"]) for c in tce["cells"]]
        assert len(positions) == k == len(set(positions))
        for cell in tce["cells"]:
            r, c = cell["position"]
            assert cell["value"] == oracles.oracle_content_at(data, r, c)

        unique = unique_nonempty_anchors(table)
        if not unique:
            with pytest.raises(InsufficientUniqueCells):
                synth_tcl(table, 1, _ctx(i, "tcl"))
        else:
            k_tcl = min(3, len(unique))
            tcl = synth_tcl(table, k_tcl, _ctx(i, "tcl")).gold_answer
            assert len(tcl["cells"]) == k_tcl
            for cell in tcl["cells"]:
                assert oracles.oracle_positions_of(data, cell["value"]) == [
                    tuple(cell["position"])
                ]

        mcd = synth_mcd(table, _ctx(i, "mcd")).gold_answer
        want_regions = oracles.oracle_regions(data)
        got_regions = [
            (tuple(region[0]), tuple(region[1])) for region in mcd["regions"]
        ]
        assert got_regions == want_regions
        assert mcd["has_merged"] == bool(want_regions)

        rce = synth_rce(table, _ctx(i, "rce")).gold_answer
        assert rce["axis"] in ("row", "column")
        assert list(rce["lines"]) == sorted(rce["lines"], key=int)
        for line_id, cells in rce["lines"].items():
            assert cells == oracles.oracle_line(data, rce["axis"], int(line_id))

        tr = synth_tr(table, None, _ctx(i, "tr"), DEFAULT_TR_WEIGHTS)
        fmt = TableFormat(tr.meta["tr_format"])
        parsed, _ = parse(tr.gold_answer["answer"], fmt)
        parsed_data = table_to_dict(parsed)
        assert (parsed.n_rows, parsed.n_cols) == (table.n_rows, table.n_cols)
        got_content, got_spans = _grid_maps(parsed_data)
        want_content, want_spans = _grid_maps(data)
        assert got_content == want_content
        assert got_spans == want_spans
    elapsed = time.monotonic() - started
    _ok("gold answers equal brute-force recomputation on 1,000 tables x 6 tasks", f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. style mix and TR format mix land on the configured proportions
# ---------------------------------------------------------------------------


def test_c5_style_and_format_mixes():
    n_styles = 10_000
    counts = {f: 0 for f in StyleFamily}
    for seed in range(n_styles):
        counts[sample_style(DEFAULT_STYLE_MIX, seed).family] += 1
    style_targets = {
        StyleFamily.WEB_PAGE: 0.708,
        StyleFamily.EXCEL: 0.194,
        StyleFamily.MARKDOWN: 0.098,
    }
    for family, target in style_targets.items():
        got = counts[family] / n_styles
        assert abs(got - target) < 0.015, (family, got)

    n_formats = 15_000
    table = table_from_dict(
        {
            "n_rows": 2,
            "n_cols": 2,
            "caption": None,
            "anchors": [
                {"row": 1, "col": 1, "content": "a"},
                {"row": 1, "col": 2, "content": "b"},
                {"row": 2, "col": 1, "content": "c"},
                {"row": 2, "col": 2, "content": "d"},
            ],
        }
    )
    fmt_counts = {"html": 0, "markdown": 0, "latex": 0}
    for i in range(n_formats):
        sample = synth_tr(table, None, _ctx(i, "trmix"), DEFAULT_TR_WEIGHTS)
        fmt_counts[sample.meta["tr_format"]] += 1
    for name, target in (("html", 0.64), ("markdown", 0.18), ("latex", 0.18)):
        got = fmt_counts[name] / n_formats
        assert abs(got - target) < 0.015, (name, got)
    _ok(
        "style mix within 1.5pp at n=10,000 and format mix within 1.5pp at n=15,000",
        f"styles={ {f.value: c for f, c in counts.items()} } formats={fmt_counts}",
    )


# ---------------------------------------------------------------------------
# 6 + 7. dataset shape at configured scale, deterministic across workers
# ---------------------------------------------------------------------------

SIX = ("tsd", "tce", "tcl", "mcd", "rce", "tr")


@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc-corpus")
    corpus = root / "corpus"
    corpus.mkdir()
    rng = random.Random(10006)
    for i in range(500):
        data = oracles.random_table_dict(rng)
        (corpus / f"t{i:04d}.json").write_text(json.dumps(data), encoding="utf-8")
    config = {
        "corpus_dir": "corpus",
        "master_seed": 606,
        "counts": {name: [80, 10] for name in SIX},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return root, config_path


def test_c6_dataset_shape_at_configured_scale(big_corpus):
    root, config_path = big_corpus
    config = PipelineConfig.from_file(config_path)
    out = root / "shape-out"
    started = time.monotonic()
    manifest = cmd_synth(config, out)
    elapsed = time.monotonic() - started

    assert manifest["corpus"] == {"tables": 500, "skipped_files": 0}
    assert manifest["shortfalls"] == {}
    for name in SIX:
        assert manifest["counts"][f"{name}-train"] == 80, name
        assert manifest["counts"][f"{name}-eval"] == 10, name

    # the manifest verifies: every digest matches the bytes on disk
    for rel, digest in manifest["files"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
    records = [json.loads(l) for l in (out / "samples.jsonl").read_text().splitlines()]
    assert len(records) == sum(manifest["counts"].values()) == 540
    _ok(
        "cmd_synth emits exactly 80 train / 10 eval per task from a 500-table corpus",
        f"{elapsed:.2f}s for 540 samples + {len(manifest['files']) - 1} images",
    )


def test_c7_digest_identical_across_worker_counts(big_corpus):
    root, config_path = big_corpus
    config = PipelineConfig.from_file(config_path)
    out1 = root / "w1"
    out2 = root / "w3"
    cmd_synth(config, out1, workers=1)
    cmd_synth(config, out2, workers=3)
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
    _ok(
        "outputs digest-identical across --workers 1 and 3",
        f"{len(files1)} files compared byte for byte",
    )


# ---------------------------------------------------------------------------
# 8. gold replay scores perfectly; byte-string fuzzing never raises and
#    never lifts a structure-task score off zero
# ---------------------------------------------------------------------------


def test_c8a_gold_replay_is_perfect(tmp_path):
    tables = _random_tables(10008, 14)
    config = SynthConfig(
        counts={TaskKind(name): (4, 2) for name in SIX},
        multiturn_fraction=0.4,
        master_seed=808,
    )
    qa_pairs = [
        {"table_id": "tbl-0000", "question": "What repeats?", "answer": "the header"},
        {"table_id": "tbl-0001", "question": "Largest value?", "answer": "9,001"},
    ]
    result = synthesize(tables, config, qa_pairs=qa_pairs)
    assert result.shortfalls == {}
    tasks_present = set()
    for s in result.samples:
        if s.turns is None:
            tasks_present.add(s.task)
        else:
            tasks_present.update(t.task for t in s.turns)
    assert tasks_present == set(TaskKind)

    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text(
        "\n".join(json.dumps(s.to_dict(), ensure_ascii=False) for s in result.samples) + "\n",
        encoding="utf-8",
    )
    lines = []
    for s in result.samples:
        if s.turns is not None:
            record = {"sample_id": s.sample_id, "responses": [t.gold_response for t in s.turns]}
        else:
            record = {"sample_id": s.sample_id, "response": s.gold_response}
        lines.append(json.dumps(record, ensure_ascii=False))
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    report = evaluate(pred_path, gold_path)
    assert report.counts["extraction_failed"] == 0
    assert report.counts["skipped"] == 0
    for task, entry in report.per_task.items():
        for metric, value in entry.items():
            if metric == "n":
                continue
            want = 100.0 if metric == "bleu" else 1.0
            assert value == want, (task, metric, value)
    _ok(
        "gold replay scores 1.0 everywhere and BLEU 100",
        f"{report.counts['evaluated']} samples over {sorted(report.per_task)}",
    )


def _fuzz_strings(rng: random.Random, n: int) -> list[str]:
    return [
        rng.randbytes(rng.randint(0, 80)).decode("latin-1") for _ in range(n)
    ]


def test_c8b_fuzz_structure_tasks_never_score(tmp_path):
    # golds: real synthesized answers; merged-cell golds drawn from tables
    # that actually have spans, so an empty prediction set can never tie
    mixed = _random_tables(10018, 60)
    spanned = dict([(tid, t) for tid, t in _random_tables(10028, 400).items() if t.has_spans()][:60])
    assert len(spanned) == 60
    structure_config = SynthConfig(
        counts={
            TaskKind.TSD: (500, 0),
            TaskKind.TCE: (500, 0),
            TaskKind.TCL: (500, 0),
            TaskKind.RCE: (500, 0),
        },
        master_seed=818,
    )
    mcd_config = SynthConfig(counts={TaskKind.MCD: (500, 0)}, master_seed=828)
    samples = list(synthesize(mixed, structure_config).samples)
    samples += list(synthesize(spanned, mcd_config).samples)
    assert len(samples) == 2500

    rng = random.Random(10038)
    responses = _fuzz_strings(rng, 10_000)
    gold_lines = []
    pred_lines = []
    for k in range(4):  # 4 x 2,500 sample replicas = 10,000 scored responses
        for s in samples:
            record = s.to_dict()
            record["sample_id"] = f"{record['sample_id']}-fz{k}"
            gold_lines.append(json.dumps(record, ensure_ascii=False))
    for sample_id, response in zip(
        (json.loads(line)["sample_id"] for line in gold_lines), responses
    ):
        pred_lines.append(json.dumps({"sample_id": sample_id, "response": response}, ensure_ascii=False))
    gold_path = tmp_path / "gold.jsonl"
    pred_path = tmp_path / "preds.jsonl"
    gold_path.write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
    pred_path.write_text("\n".join(pred_lines) + "\n", encoding="utf-8")

    report = evaluate(pred_path, gold_path)
    assert report.counts["evaluated"] == 10_000
    for record in report.per_sample:
        task = record["task"]
        if task == "tsd":
            assert record["row_correct"] is False and record["column_correct"] is False, record
        elif task in ("tce", "tcl"):
            assert record["cell_accuracy"] == 0.0, record
        elif task == "mcd":
            assert record["f1"] == 0.0 and record["precision"] == 0.0, record
        elif task == "rce":
            assert record["f1"] == 0.0, record
    _ok("10,000 random byte strings never raise and never score on structure tasks")


def test_c8c_fuzz_table_recognition_bounds():
    table = table_from_dict(
        {
            "n_rows": 2,
            "n_cols": 2,
            "caption": None,
            "anchors": [
                {"row": 1, "col": 1, "content": "a"},
                {"row": 1, "col": 2, "content": "b"},
                {"row": 2, "col": 1, "content": "c"},
                {"row": 2, "col": 2, "content": "d"},
            ],
        }
    )
    golds = {
        "markdown": {"answer": serialize(table, TableFormat.MARKDOWN)},
        "html": {"answer": serialize(table, TableFormat.HTML)},
    }
    floors = {}
    for name, gold in golds.items():
        gold_html = (
            gold["answer"]
            if name == "html"
            else "<table>"
            + "".join(
                f"<tr><td>{c}</td><td>{d}</td></tr>"
                for c, d in (("a", "b"), ("c", "d"))
            )
            + "</table>"
        )
        floors[name] = 1.0 / tree_size(html_to_tree(gold_html))

    rng = random.Random(10048)
    marker_free = 0
    for i in range(2000):
        response = rng.randbytes(rng.randint(0, 80)).decode("latin-1")
        name = "markdown" if i % 2 == 0 else "html"
        record = score_sample(TaskKind.TR, response, golds[name], name)
        assert 0.0 <= record["teds"] <= 1.0, (name, response)
        if response.strip() and not any(ch in response for ch in "|<\\"):
            # nothing any parser accepts: the conversion sentinel exactly
            marker_free += 1
            assert abs(record["teds"] - floors[name]) < 1e-12, (name, response)
    assert marker_free > 100
    _ok(
        "table-recognition fuzz stays in [0, 1]; markerless junk scores the sentinel floor",
        f"{marker_free} markerless cases hit the floor exactly",
    )


# ---------------------------------------------------------------------------
# 9. BLEU agrees with an independent reference implementation
# ---------------------------------------------------------------------------


def test_c9_bleu_against_reference():
    rng = random.Random(10009)
    vocab = [
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 6)))
        for _ in range(24)
    ]

    def sentence() -> str:
        words = []
        for _ in range(rng.randint(0, 12)):
            w = rng.choice(vocab)
            if rng.random() < 0.3:
                w += rng.choice(",.!?;:")
            words.append(w)
        return " ".join(words)

    pairs = [(sentence(), sentence()) for _ in range(50)]
    corpus_got = bleu([p for p, _ in pairs], [r for _, r in pairs])
    corpus_want = oracles.reference_bleu(pairs)
    assert abs(corpus_got - corpus_want) <= 1e-6, (corpus_got, corpus_want)
    worst = 0.0
    for pred, ref in pairs:
        got = bleu([pred], [ref])
        want = oracles.reference_bleu([(pred, ref)])
        worst = max(worst, abs(got - want))
    assert worst <= 1e-6, worst
    _ok(
        "BLEU agrees with the independent reference on 50 pairs",
        f"corpus diff {abs(corpus_got - corpus_want):.2e}, worst pair diff {worst:.2e}",
    )
