"""Tests for the dataset pipeline and the command-line interface."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from tablekit import core, pipeline, render, tasks
from tablekit.cli import main
from tablekit.core import table_from_dict, table_to_dict
from tablekit.formats import serialize
from tablekit.formats.common import ParseError, TableFormat
from tablekit.metrics.evaluate import FileFormatError
from tablekit.pipeline import (
    CorpusLoad,
    PipelineConfig,
    PipelineConfigError,
    cmd_convert,
    cmd_eval,
    cmd_render,
    cmd_synth,
    dataset_stats,
    load_corpus,
)
from tablekit.render import default_style_ranges

import oracles
from scaling import growth_ratio

SIX_TASKS = ("tsd", "tce", "tcl", "mcd", "rce", "tr")


def _make_corpus(tmp_path, n=12, seed=501):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = random.Random(seed)
    for i in range(n):
        data = oracles.random_table_dict(rng)
        table = table_from_dict(data)
        if i % 4 == 0 and not table.has_spans():
            (corpus / f"t{i:03d}.md").write_text(
                serialize(table, TableFormat.MARKDOWN), encoding="utf-8"
            )
        elif i % 4 == 1:
            (corpus / f"t{i:03d}.html").write_text(
                serialize(table, TableFormat.HTML), encoding="utf-8"
            )
        elif i % 4 == 2 and not table.has_spans() and not any(
            a.is_header for a in table.anchors
        ):
            (corpus / f"t{i:03d}.tex").write_text(
                serialize(table, TableFormat.LATEX), encoding="utf-8"
            )
        else:
            (corpus / f"t{i:03d}.json").write_text(
                json.dumps(table_to_dict(table)), encoding="utf-8"
            )
    return corpus


def _write_config(tmp_path, counts, **extra):
    config = {"corpus_dir": "corpus", "master_seed": 17, "counts": counts}
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_config_from_file_resolves_relative_paths(tmp_path):
    _make_corpus(tmp_path, n=4)
    path = _write_config(tmp_path, {"tsd": [2, 1]})
    config = PipelineConfig.from_file(path)
    assert config.base_dir == tmp_path
    assert config._resolve(config.corpus_dir) == tmp_path / "corpus"
    assert config.counts == {"tsd": (2, 1)}


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus_dir": "c", "surprise": 1}), encoding="utf-8")
    with pytest.raises(PipelineConfigError):
        PipelineConfig.from_file(path)


def test_config_rejects_bad_shapes(tmp_path):
    cases = [
        {"counts": {"tsd": [1]}},
        {"counts": {"not-a-task": [1, 1]}},
        {"counts": {"tsd": [-1, 0]}},
        {"tr_format_weights": {"html": 0.5}},
        {"style_mix": {"paper": 1.0}},
        {"multiturn_fraction": 1.5},
    ]
    for extra in cases:
        raw = {"corpus_dir": "c"}
        raw.update(extra)
        with pytest.raises(PipelineConfigError):
            PipelineConfig.from_dict(raw)
    with pytest.raises(PipelineConfigError):
        PipelineConfig.from_dict({"master_seed": 3})
    with pytest.raises(PipelineConfigError):
        PipelineConfig.from_dict([1, 2])
    with pytest.raises(PipelineConfigError):
        PipelineConfig.from_file(tmp_path / "missing.json")


@pytest.mark.parametrize("extra", [
    {"master_seed": "abc"},
    {"master_seed": None},
    {"counts": [1, 2]},
    {"counts": {"tsd": ["a", 1]}},
    {"tr_format_weights": [1]},
    {"tr_format_weights": {"html": None}},
    {"style_mix": [1]},
    {"raster_dpi": "x"},
    {"multiturn_fraction": {}},
    {"qa_pairs_path": 5},
    # a path is a string, and corpus_dir is required
    {"corpus_dir": 5},
    {"corpus_dir": None},
    {"corpus_dir": [1]},
    # a raster command template names a command and formats with its five
    # placeholders only
    {"rasterizer_command": "echo {inptu} {output}"},
    {"rasterizer_command": "echo { {output}"},
    {"rasterizer_command": ""},
    {"rasterizer_command": "  "},
    # integer keys take JSON integers only
    {"master_seed": 3.7},
    {"master_seed": float("inf")},
    {"master_seed": "7"},
    {"counts": {"tsd": [True, 1.9]}},
    {"raster_dpi": False},
    {"tce_cells_per_sample": 2.0},
    # weights are finite, >= 0 and sum to 1
    {"tr_format_weights": {"html": 1.5, "markdown": -0.5, "latex": 0}},
    {"tr_format_weights": {"html": float("nan")}},
    {"style_mix": {"web_page": float("nan")}},
    # number keys and weights take JSON numbers only, and a dpi is >= 1
    {"multiturn_fraction": True},
    {"multiturn_fraction": "0.5"},
    {"tr_format_weights": {"html": True, "markdown": 0, "latex": 0}},
    {"tr_format_weights": {"html": "1", "markdown": 0, "latex": 0}},
    {"style_mix": {"web_page": True, "excel": 0, "markdown": 0}},
    {"style_mix": {"web_page": "1", "excel": 0, "markdown": 0}},
    {"raster_dpi": 0},
    {"raster_dpi": -96},
])  # fmt: skip
def test_synth_reports_a_wrongly_typed_config_value(tmp_path, capsys, extra):
    key = next(iter(extra))
    path = _write_config(tmp_path, **{"counts": {"tsd": [2, 1]}, **extra})
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err, err


def test_config_seed_override():
    config = PipelineConfig.from_dict({"corpus_dir": "c", "master_seed": 5})
    assert config.to_synth_config().master_seed == 5
    assert config.to_synth_config(seed_override=99).master_seed == 99


# ---------------------------------------------------------------------------
# corpus ingestion
# ---------------------------------------------------------------------------


def test_load_corpus_mixed_formats(tmp_path):
    corpus = _make_corpus(tmp_path, n=12)
    load = load_corpus(corpus)
    assert isinstance(load, CorpusLoad)
    assert len(load.tables) == 12
    assert load.skipped == []
    # sorted walk puts ids in file order and every id is the file stem
    ids = list(load.tables)
    assert ids == sorted(ids)
    assert all(tid.startswith("t0") for tid in ids)


def test_load_corpus_tables_keep_the_verdict_of_their_read(tmp_path, monkeypatch):
    # load_corpus hands on the tables its reads checked, not copies of them,
    # so using a loaded table never validates it again
    load = load_corpus(_make_corpus(tmp_path, n=6))
    assert len(load.tables) == 6
    calls = []
    real_validate = core.validate
    monkeypatch.setattr(core, "validate", lambda table: calls.append(table) or real_validate(table))
    for table in load.tables.values():
        core.expand_grid(table)
    assert calls == []


@pytest.mark.parametrize("source_id", ["other", 5])
def test_load_corpus_ignores_a_source_id_key_in_a_json_table(tmp_path, source_id):
    # a table's id is its file's; a source_id key, of any type, is a key
    # the table object does not define
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    data = {"n_rows": 1, "n_cols": 1, "caption": None, "anchors": [{"row": 1, "col": 1, "content": "x"}]}
    (corpus / "a.json").write_text(json.dumps({**data, "source_id": source_id}), encoding="utf-8")
    load = load_corpus(corpus)
    assert load.skipped == []
    assert load.tables == {"a": table_from_dict(data)}


def test_load_corpus_skips_malformed_and_counts(tmp_path):
    corpus = _make_corpus(tmp_path, n=4)
    (corpus / "broken.html").write_text("<p>no table", encoding="utf-8")
    (corpus / "broken.json").write_text("{not json", encoding="utf-8")
    (corpus / "badgrid.json").write_text(
        json.dumps(
            {
                "n_rows": 2,
                "n_cols": 2,
                "caption": None,
                "anchors": [{"row": 1, "col": 1, "content": "only one cell"}],
            }
        ),
        encoding="utf-8",
    )
    (corpus / "notes.txt").write_text("ignored, not a table extension", encoding="utf-8")
    oversize = ("wide.html", "wide.tex", "tall.md", "huge.json")  # past the size limit
    mistyped = ("caption.json", "float-row.json", "string-header.json", "bool-rows.json")
    for name in oversize + mistyped:
        (corpus / name).write_text(_BAD_TABLE_FILES[name][0], encoding="utf-8")
    load = load_corpus(corpus)
    assert len(load.tables) == 4
    assert len(load.skipped) == 11
    reasons = {path.rsplit("/", 1)[-1]: reason for path, reason in load.skipped}
    assert set(reasons) == {"broken.html", "broken.json", "badgrid.json", *oversize, *mistyped}
    assert reasons["badgrid.json"].endswith("invalid table: gap at (1,2)")
    for name in oversize + mistyped:
        assert reasons[name] == f"{corpus / name}: {_BAD_TABLE_FILES[name][1]}", reasons[name]


def test_load_corpus_deduplicates_stems(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    table = table_from_dict(
        {
            "n_rows": 1,
            "n_cols": 1,
            "caption": None,
            "anchors": [{"row": 1, "col": 1, "content": "x"}],
        }
    )
    (corpus / "dup.html").write_text(serialize(table, TableFormat.HTML), encoding="utf-8")
    (corpus / "dup.json").write_text(json.dumps(table_to_dict(table)), encoding="utf-8")
    load = load_corpus(corpus)
    assert sorted(load.tables) == ["dup", "dup-2"]

    # a stem whose id a file read earlier holds takes the first free suffix,
    # so each id, and the image it names, belongs to one table
    (corpus / "a-2.html").write_text("<table><tr><td>x</td></tr></table>", encoding="utf-8")
    (corpus / "a.html").write_text("<table><tr><td>y</td></tr><tr><td>z</td></tr></table>", encoding="utf-8")
    (corpus / "a.md").write_text("| h | i |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |\n", encoding="utf-8")
    load = load_corpus(corpus)
    assert list(load.tables) == ["a-2", "a", "a-3", "dup", "dup-2"]
    sizes = {tid: (t.n_rows, t.n_cols) for tid, t in load.tables.items()}
    out = tmp_path / "out"
    cmd_synth(PipelineConfig.from_file(_write_config(tmp_path, {"tsd": [5, 0]})), out)
    records = [json.loads(line) for line in (out / "samples.jsonl").read_text(encoding="utf-8").splitlines()]
    assert sorted(r["table_id"] for r in records) == sorted(sizes)
    assert sorted(p.name for p in (out / "images").glob("*.svg")) == sorted(f"{tid}.svg" for tid in sizes)
    for record in records:
        gold = record["gold_answer"]
        assert (gold["row_number"], gold["column_number"]) == sizes[record["table_id"]]


def test_table_ids_of_one_stem_in_many_directories_stay_linear():
    # each file resumes its stem's suffix search where the last one ended;
    # searching from the bare stem every time would make this quadratic
    def make(n):
        return [Path(f"d{i:06d}") / "t.html" for i in range(n)], [1] * n

    paths, reports = make(3)
    assert pipeline._table_ids(paths, reports) == {0: "t", 1: "t-2", 2: "t-3"}
    ratio = growth_ratio(lambda args: pipeline._table_ids(*args), make, 2_000)
    assert ratio < 9, ratio


def test_load_corpus_missing_dir(tmp_path):
    with pytest.raises(PipelineConfigError):
        load_corpus(tmp_path / "nowhere")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

COUNTS = {name: [4, 2] for name in SIX_TASKS}


def test_cmd_synth_counts_and_digests(tmp_path):
    _make_corpus(tmp_path)
    config = PipelineConfig.from_file(_write_config(tmp_path, COUNTS))
    out = tmp_path / "out"
    manifest = cmd_synth(config, out)

    assert manifest["shortfalls"] == {}
    for name in SIX_TASKS:
        assert manifest["counts"][f"{name}-train"] == 4
        assert manifest["counts"][f"{name}-eval"] == 2

    # every digest in the manifest matches the bytes on disk
    assert set(manifest["files"]) >= {"samples.jsonl"}
    for rel, digest in manifest["files"].items():
        data = (out / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # an image exists for exactly the referenced tables, and the manifest
    # lists each at the ref its samples give
    records = [json.loads(l) for l in (out / "samples.jsonl").read_text().splitlines()]
    referenced = {r["table_id"] for r in records}
    on_disk = {p.name[: -len(".svg")] for p in (out / "images").glob("*.svg")}
    assert on_disk == referenced
    assert {r["image_ref"] for r in records} == {rel for rel in manifest["files"] if rel.startswith("images/")}

    # the manifest carries a fixed key set and no timestamps
    assert set(manifest) == {
        "version",
        "config",
        "master_seed",
        "corpus",
        "counts",
        "conversations",
        "consumed_singles",
        "shortfalls",
        "qa_pairs_skipped",
        "style_mix_achieved",
        "tr_format_mix_achieved",
        "files",
    }
    assert manifest["master_seed"] == 17
    assert abs(sum(manifest["style_mix_achieved"].values()) - 1.0) < 1e-9


def test_cmd_synth_identical_across_worker_counts(tmp_path):
    _make_corpus(tmp_path)
    config = PipelineConfig.from_file(_write_config(tmp_path, COUNTS))
    cmd_synth(config, tmp_path / "o1", workers=1)
    cmd_synth(config, tmp_path / "o2", workers=3)
    for rel in ("manifest.json", "samples.jsonl"):
        assert (tmp_path / "o1" / rel).read_bytes() == (tmp_path / "o2" / rel).read_bytes()
    imgs1 = sorted((tmp_path / "o1" / "images").glob("*.svg"))
    imgs2 = sorted((tmp_path / "o2" / "images").glob("*.svg"))
    assert [p.name for p in imgs1] == [p.name for p in imgs2]
    for p1, p2 in zip(imgs1, imgs2):
        assert p1.read_bytes() == p2.read_bytes()


def test_cmd_synth_starts_at_most_one_shard_per_file_and_cpu(tmp_path, monkeypatch):
    # a stand-in shard process records its start and runs its shard in this
    # process, so no process is ever started
    started = []

    class InProcessShard(pipeline._Shard):
        def __init__(self):
            super().__init__()
            started.append(self)

    monkeypatch.setattr(pipeline, "_ShardProcess", InProcessShard)
    _make_corpus(tmp_path, n=6)
    config = PipelineConfig.from_file(_write_config(tmp_path, {"tsd": [3, 0]}))
    cmd_synth(config, tmp_path / "serial", workers=1)
    assert started == []
    # the CPUs in the affinity mask, or, without one, os.cpu_count()
    cases = [("mask", 1, 0), ("mask", 2, 2), ("mask", 64, 6), ("count", None, 0), ("count", 3, 3)]
    for source, cpus, want in cases:
        if source == "mask":
            monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        else:
            monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
        started.clear()
        out = tmp_path / f"{source}{cpus}"
        cmd_synth(config, out, workers=50)
        assert len(started) == want, (source, cpus)
        _assert_same_tree(tmp_path / "serial", out)


def _assert_same_tree(expected, actual):
    files = sorted(p.relative_to(expected) for p in expected.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(actual) for p in actual.rglob("*") if p.is_file())
    for rel in files:
        assert (actual / rel).read_bytes() == (expected / rel).read_bytes(), rel


def _sharding_corpus(tmp_path):
    """A corpus and config with every case a shard split must keep: a stem
    in two subdirectories whose first file fails to parse, so the second
    takes the bare id; a skipped file; QA pairs, some on unknown tables or
    unusable; conversations; a tcl shortfall in the eval split; and a
    template pool, style mix and style ranges of its own."""
    corpus = tmp_path / "corpus"
    (corpus / "a").mkdir(parents=True)
    (corpus / "b").mkdir()
    (corpus / "a" / "dup.json").write_text("{not json", encoding="utf-8")
    (corpus / "b" / "dup.html").write_text("<table><tr><td>x</td><td>y</td></tr></table>", encoding="utf-8")
    (corpus / "broken.md").write_text("no table here", encoding="utf-8")
    rng = random.Random(601)
    for i in range(16):
        table = table_from_dict(oracles.random_table_dict(rng))
        latex = i % 2 and not table.has_spans() and not any(a.is_header for a in table.anchors)
        fmt = TableFormat.LATEX if latex else TableFormat.HTML
        (corpus / f"t{i:02d}.{'tex' if latex else 'html'}").write_text(serialize(table, fmt), encoding="utf-8")
        if i % 3 == 0:
            (corpus / f"j{i:02d}.json").write_text(json.dumps(table_to_dict(table)), encoding="utf-8")
    qa = [
        {"table_id": "dup", "question": "Which letter comes first?", "answer": "x"},
        {"table_id": "t03", "question": "What is in the corner?", "answer": "a"},
        {"table_id": "t10", "question": "How many rows?", "answer": "2"},
        {"table_id": "no-such-table", "question": "?", "answer": "!"},
        {"table_id": "t05", "question": "", "answer": "!"},
    ]
    (tmp_path / "qa.json").write_text(json.dumps(qa), encoding="utf-8")
    # the shipped pool cut to three templates and one hint per task
    pool = json.loads(resources.files("tablekit.data").joinpath("default_templates.json").read_text(encoding="utf-8"))
    pool = {section: {task: entries[:3 if section == "templates" else 1] for task, entries in pool[section].items()}
            for section in ("templates", "hints")}  # fmt: skip
    (tmp_path / "pool.json").write_text(json.dumps(pool), encoding="utf-8")
    (tmp_path / "styles.json").write_text(_style_ranges_with(font_size=[12, 13]), encoding="utf-8")
    counts = {name: [6, 3] for name in SIX_TASKS}
    return PipelineConfig.from_file(_write_config(
        tmp_path, counts, master_seed=23, multiturn_fraction=0.6, qa_pairs_path="qa.json",
        tcl_cells_per_sample=6, template_pool_path="pool.json", style_ranges_path="styles.json",
        style_mix={"web_page": 0.25, "excel": 0.25, "markdown": 0.5},
    ))  # fmt: skip


def test_cmd_synth_shards_write_the_serial_bytes(tmp_path, monkeypatch):
    config = _sharding_corpus(tmp_path)
    # more shards than this machine may have CPUs: the split, not the CPU
    # count, is under test
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    manifests = [cmd_synth(config, tmp_path / f"w{workers}", workers=workers) for workers in (1, 2, 3)]
    for workers in (2, 3):
        _assert_same_tree(tmp_path / "w1", tmp_path / f"w{workers}")
    manifest = manifests[0]
    assert manifest["corpus"] == {"tables": 23, "skipped_files": 2}
    assert manifest["qa_pairs_skipped"] == 2
    assert manifest["shortfalls"] == {"tcl-eval": 3}
    assert manifest["conversations"] > 0

    records = [json.loads(line) for line in (tmp_path / "w1" / "samples.jsonl").read_text(encoding="utf-8").splitlines()]
    assert {r["image_ref"] for r in records} == {rel for rel in manifest["files"] if rel.startswith("images/")}
    # the bare id went to b/dup.html, a 1x2 table, once a/dup.json failed
    dup = [r["meta"] for r in records if r["table_id"] == "dup"]
    assert dup and all((meta["n_rows"], meta["n_cols"]) == (1, 2) for meta in dup)
    assert "dup-2" not in {r["table_id"] for r in records}
    # synthesize, in one process over the loaded corpus, gives the same records
    result = tasks.synthesize(
        load_corpus(tmp_path / "corpus").tables,
        config.to_synth_config(),
        qa_pairs=config.resolve_qa_pairs(),
    )
    assert [s.to_dict() for s in result.samples] == records


def test_cmd_synth_shards_under_the_spawn_start_method(tmp_path):
    config = _sharding_corpus(tmp_path)
    cmd_synth(config, tmp_path / "w1", workers=1)
    script = (
        "import multiprocessing, sys\n"
        "from tablekit import pipeline\n"
        "multiprocessing.set_start_method('spawn')\n"
        "pipeline._usable_cpus = lambda: 2\n"
        "config = pipeline.PipelineConfig.from_file(sys.argv[1])\n"
        "pipeline.cmd_synth(config, sys.argv[2], workers=2)\n"
    )
    src = Path(pipeline.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "config.json"), str(tmp_path / "w2")],
        capture_output=True, text=True, env=env, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    _assert_same_tree(tmp_path / "w1", tmp_path / "w2")


def test_an_exception_in_a_shard_process_reaches_the_caller(tmp_path):
    shard = pipeline._ShardProcess()
    try:
        # build before read: the shard holds no table for the file
        shard.send("build", {str(tmp_path / "never-read.json"): "x"}, None, None, tmp_path)
        with pytest.raises(KeyError) as caught:
            shard.recv()
        assert "in a synth shard process" in str(caught.value.__cause__)
    finally:
        shard.close()


@pytest.mark.parametrize("argv", [
    ["synth", "--config", "c.json", "--out", "o", "--workers", "0"],
    ["synth", "--config", "c.json", "--out", "o", "--workers", "-2"],
    ["render", "t.json", "--out", "t.png", "--dpi", "0"],
    ["render", "t.json", "--out", "t.png", "--dpi", "-96"],
])  # fmt: skip
def test_cli_count_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_cmd_synth_reused_out_keeps_only_listed_images(tmp_path):
    rng = random.Random(502)
    out = tmp_path / "out"
    for prefix, n in (("a", 3), ("b", 2)):
        corpus = tmp_path / f"corpus_{prefix}"
        corpus.mkdir()
        for i in range(n):
            data = oracles.random_table_dict(rng)
            (corpus / f"{prefix}{i}.json").write_text(json.dumps(data), encoding="utf-8")
        path = tmp_path / f"config_{prefix}.json"
        path.write_text(
            json.dumps({"corpus_dir": corpus.name, "master_seed": 17, "counts": {"tsd": [n, 0]}}),
            encoding="utf-8",
        )
        manifest = cmd_synth(PipelineConfig.from_file(path), out)
    listed = {rel for rel in manifest["files"] if rel.startswith("images/")}
    on_disk = {f"images/{p.name}" for p in (out / "images").iterdir()}
    assert on_disk == listed == {"images/b0.svg", "images/b1.svg"}


def test_cmd_synth_draws_each_table_style_once(tmp_path, monkeypatch):
    _make_corpus(tmp_path)
    config = PipelineConfig.from_file(_write_config(tmp_path, COUNTS))
    seeds = []
    real = tasks.sample_style

    def counting(mix, seed, ranges=None):
        seeds.append(seed)
        return real(mix, seed, ranges)

    monkeypatch.setattr(tasks, "sample_style", counting)
    manifest = cmd_synth(config, tmp_path / "out", workers=1)
    images = [rel for rel in manifest["files"] if rel.startswith("images/")]
    assert len(seeds) == len(set(seeds)) == len(images)


def test_cmd_synth_that_stops_part_way_leaves_no_manifest(tmp_path, monkeypatch):
    _make_corpus(tmp_path)
    config = PipelineConfig.from_file(_write_config(tmp_path, COUNTS))
    out = tmp_path / "out"
    cmd_synth(config, out)
    assert (out / "manifest.json").is_file()

    def failing_render(table, style):
        raise RuntimeError("render failed")

    monkeypatch.setattr(render, "render_svg", failing_render)
    with pytest.raises(RuntimeError):
        cmd_synth(config, out)
    assert sorted(p.name for p in out.iterdir()) == ["images", "samples.jsonl"]


def test_cmd_synth_seed_changes_output(tmp_path):
    _make_corpus(tmp_path)
    config = PipelineConfig.from_file(_write_config(tmp_path, COUNTS))
    m1 = cmd_synth(config, tmp_path / "o1")
    m2 = cmd_synth(config, tmp_path / "o2", seed=12345)
    assert m2["master_seed"] == 12345
    assert m1["files"]["samples.jsonl"] != m2["files"]["samples.jsonl"]
    # the seed override is reflected in the manifest, not the config echo
    assert m2["config"]["master_seed"] == 17


def test_cmd_synth_qa_pairs_and_multiturn(tmp_path):
    corpus = _make_corpus(tmp_path)
    first_table = sorted(p.stem for p in corpus.iterdir())[0]
    qa = [
        {"table_id": first_table, "question": "What stands out?", "answer": "row two"},
        {"table_id": "no-such-table", "question": "?", "answer": "!"},
    ]
    (tmp_path / "qa.json").write_text(json.dumps(qa), encoding="utf-8")
    config = PipelineConfig.from_file(
        _write_config(
            tmp_path, COUNTS, qa_pairs_path="qa.json", multiturn_fraction=1.0
        )
    )
    manifest = cmd_synth(config, tmp_path / "out")
    assert manifest["qa_pairs_skipped"] == 1
    assert manifest["conversations"] > 0
    assert manifest["consumed_singles"] >= 2 * manifest["conversations"]
    total = sum(manifest["counts"].values())
    # consumed singles are still counted under their task
    assert total == sum(a + b for a, b in COUNTS.values()) + 1


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_dataset_stats_matches_manifest(tmp_path):
    _make_corpus(tmp_path)
    config = PipelineConfig.from_file(_write_config(tmp_path, COUNTS))
    manifest = cmd_synth(config, tmp_path / "out")
    stats = dataset_stats(tmp_path / "out" / "samples.jsonl")
    assert stats["per_task"] == manifest["counts"]
    assert stats["style_mix"] == manifest["style_mix_achieved"]
    assert stats["tr_format_mix"] == manifest["tr_format_mix_achieved"]
    with (tmp_path / "out" / "samples.jsonl").open(encoding="utf-8") as lines:
        assert stats["samples"] == sum(1 for _ in lines)
    assert stats["request_tokens_avg"] > 0
    assert stats["table_rows"]["min"] >= 1


def test_eval_stats_and_manifest_count_the_same_answers(tmp_path):
    _make_corpus(tmp_path)
    counts = {name: [8, 2] for name in SIX_TASKS}
    counts["tr"] = [36, 4]
    weights = {"html": 0.4, "markdown": 0.3, "latex": 0.3}
    config = PipelineConfig.from_file(
        _write_config(tmp_path, counts, tr_format_weights=weights, multiturn_fraction=0.5)
    )
    out = tmp_path / "out"
    manifest = cmd_synth(config, out)
    stats = dataset_stats(out / "samples.jsonl")
    records = [json.loads(line) for line in (out / "samples.jsonl").read_text().splitlines()]
    predictions = tmp_path / "replay.jsonl"
    predictions.write_text("".join(
        json.dumps({"sample_id": r["sample_id"], "responses": [t["gold_response"] for t in r["turns"]]})
        + "\n" if r.get("turns") else
        json.dumps({"sample_id": r["sample_id"], "response": r["gold_response"]}) + "\n"
        for r in records
    ), encoding="utf-8")
    report = cmd_eval(predictions, out / "samples.jsonl")

    assert manifest["counts"] == stats["per_task"]
    for task in SIX_TASKS:
        n = sum(v for k, v in stats["per_task"].items() if k.rsplit("-", 1)[0] == task)
        assert report.per_task[task]["n"] == n
    tr_scored = [r for r in report.per_sample if r["task"] == "tr"]
    assert {
        fmt: sum(r["format"] == fmt for r in tr_scored) / len(tr_scored)
        for fmt in sorted({r["format"] for r in tr_scored})
    } == stats["tr_format_mix"] == manifest["tr_format_mix_achieved"]
    assert len(stats["tr_format_mix"]) == 3

    # each turn was a single sample before it joined a conversation; that
    # single's meta records the format its gold answer is written in
    singles = tasks.synthesize(
        load_corpus(tmp_path / "corpus").tables,
        dataclasses.replace(config.to_synth_config(), multiturn_fraction=0.0),
    ).samples
    written_in = {s.sample_id: s.meta["tr_format"] for s in singles}
    by_id = {r["sample_id"]: r for r in report.per_sample}
    turn_formats = []
    for record in records:
        for i, turn in enumerate(record["turns"] or [], start=1):
            if turn["task"] == "tr":
                scored = by_id[f"{record['sample_id']}#turn{i}"]
                assert scored["format"] == written_in[turn["source_sample_id"]]
                assert scored["teds"] == 1.0
                turn_formats.append((record["sample_id"], scored["format"]))
    # some conversation mixes formats, so no turn could borrow the record's
    assert any(
        len({fmt for sid, fmt in turn_formats if sid == conv}) > 1 for conv, _ in turn_formats
    )


def test_dataset_stats_reads_cells_with_unicode_line_breaks_as_eval_does(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = random.Random(7)
    for i in range(3):
        data = oracles.random_table_dict(rng)
        # NEL and LINE SEPARATOR stay raw in samples.jsonl (ensure_ascii=False)
        data["anchors"][0]["content"] = f"a\u0085b\u2028c{i}"
        (corpus / f"t{i}.json").write_text(json.dumps(data), encoding="utf-8")
    config = PipelineConfig.from_file(_write_config(tmp_path, {"tce": [3, 1], "tr": [3, 1]}))
    manifest = cmd_synth(config, tmp_path / "out")
    samples = tmp_path / "out" / "samples.jsonl"
    assert "\u2028" in samples.read_text(encoding="utf-8")
    stats = dataset_stats(samples)
    assert stats["samples"] == sum(manifest["counts"].values())
    assert stats["per_task"] == manifest["counts"]
    assert stats["tr_format_mix"] == manifest["tr_format_mix_achieved"]


def test_dataset_stats_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    stats = dataset_stats(path)
    assert stats["samples"] == 0
    assert stats["per_task"] == {}
    assert stats["request_tokens_avg"] == 0.0
    assert stats["table_rows"] == {"min": 0, "max": 0, "mean": 0.0}


_TSD_GOLD = {"row_number": 1, "column_number": 2}


@pytest.mark.parametrize(
    "record",
    [
        {"sample_id": "s-7"},
        {"sample_id": "s-7", "task": "tr", "gold_answer": "t"},
        {"sample_id": "s-7", "task": "tsd", "gold_answer": _TSD_GOLD, "meta": 3},
        {"sample_id": "s-7", "task": "tsd", "gold_answer": _TSD_GOLD, "meta": {"n_rows": "a", "n_cols": 1}},
        {"sample_id": "s-7", "task": "tsd", "gold_answer": _TSD_GOLD, "meta": {"style_family": "web_page"}},
        {"sample_id": "s-7", "task": "tsd", "gold_answer": _TSD_GOLD, "turns": ["not a turn"]},
    ],
)
def test_stats_of_an_unreadable_record_is_an_error_naming_it(tmp_path, capsys, record):
    path = tmp_path / "samples.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match="s-7"):
        dataset_stats(path)
    assert main(["stats", str(path)]) == 1
    assert "s-7" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# render / convert helpers
# ---------------------------------------------------------------------------


def _one_table_file(tmp_path):
    table = {
        "n_rows": 2,
        "n_cols": 2,
        "caption": None,
        "anchors": [
            {"row": 1, "col": 1, "content": "a", "is_header": True},
            {"row": 1, "col": 2, "content": "b", "is_header": True},
            {"row": 2, "col": 1, "content": "c"},
            {"row": 2, "col": 2, "content": "d"},
        ],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    return path


def test_cmd_render_svg_deterministic(tmp_path):
    src = _one_table_file(tmp_path)
    out1 = cmd_render(src, tmp_path / "a.svg", seed=4)
    out2 = cmd_render(src, tmp_path / "b.svg", seed=4)
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("<svg")


def test_cmd_render_png_via_command_backend(tmp_path):
    src = _one_table_file(tmp_path)
    config = PipelineConfig.from_dict(
        {"corpus_dir": "c", "rasterizer_command": "cp {input} {output}"},
        base_dir=tmp_path,
    )
    out = cmd_render(src, tmp_path / "a.png", image_format="png", config=config)
    # the stand-in backend copies the svg bytes through the png path
    assert out.read_bytes().startswith(b"<svg")


@pytest.mark.parametrize("template", ["echo {inptu} {output}", "echo { {output}", "", "  "])
def test_cli_render_refuses_a_rasterizer_command_that_does_not_format(tmp_path, capsys, template):
    config = tmp_path / "render.json"
    config.write_text(json.dumps({"corpus_dir": "c", "rasterizer_command": template}), encoding="utf-8")
    args = ["render", str(_one_table_file(tmp_path)), "--out", str(tmp_path / "t.png"), "--format", "png"]
    assert main(args + ["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad config value for rasterizer_command: raster command template {template!r}: "), err
    assert not (tmp_path / "t.png").exists()


def test_cli_render_png_dpi_is_the_config_raster_dpi_unless_given(tmp_path, monkeypatch):
    src = _one_table_file(tmp_path)
    config = tmp_path / "render.json"
    config.write_text(
        json.dumps({"corpus_dir": "c", "raster_dpi": 150, "rasterizer_command": "cp {input} {output}"}),
        encoding="utf-8",
    )
    seen = []

    def fake_rasterize(svg, dpi, backend):
        seen.append(dpi)
        return b"png"

    monkeypatch.setattr(render, "rasterize", fake_rasterize)
    args = ["render", str(src), "--out", str(tmp_path / "t.png"), "--format", "png"]
    assert main(args + ["--config", str(config)]) == 0
    assert main(args + ["--config", str(config), "--dpi", "300"]) == 0
    assert main(args) == 0
    assert seen == [150, 300, 96]

    # the library call checks the dpi where the CLI does not reach
    monkeypatch.undo()
    png = tmp_path / "zero.png"
    with pytest.raises(ValueError, match="dpi must be >= 1"):
        cmd_render(src, png, image_format="png", dpi=0, config=PipelineConfig.from_file(config))
    assert not png.exists()


# table files that no reader can take, each with what the error says about it
_BAD_TABLE_FILES = {
    "gap.json": (json.dumps({"n_rows": 2, "n_cols": 2, "anchors": [{"row": 1, "col": 1}]}), "invalid table: gap at"),
    "no-anchors.json": ('{"n_rows": 1}', "malformed table object"),
    "list.json": ("[1, 2]", "table JSON must be an object"),
    "cut.json": ("{", "not valid JSON"),
    "bytes.html": (b"\xff\xfe<table>", "can't decode"),
    "overlap.html": (
        '<table><tr><td>a</td><td rowspan="2">b</td></tr><tr><td colspan="2">c</td></tr></table>',
        "row 2: overlapping span at column 1",
    ),
    "nested.html": ("<table><tr><td><table></table></td></tr></table>", "nested table"),
    # past the table model's size limit, however little text declares it
    "wide.html": ('<table><tr><td colspan="10000000">a</td></tr></table>', "row 1: cells beyond column 512"),
    "wide.tex": ("\\begin{tabular}{c}\n\\multicolumn{10000000}{c}{a} \\\\\n\\end{tabular}", "row 1: cells beyond column 512"),
    "tall.md": ("| h |\n| --- |\n" + "| x |\n" * 512, "table: more than 512 rows"),
    "huge.json": (
        json.dumps({"n_rows": 100000, "n_cols": 100000, "anchors": [{"row": 1, "col": 1, "row_span": 100000, "col_span": 100000}]}),
        "invalid table: grid 100000x100000 exceeds the 512x512 limit",
    ),
    # JSON types are read as written, never coerced
    "caption.json": (
        json.dumps({"n_rows": 1, "n_cols": 1, "caption": 5, "anchors": [{"row": 1, "col": 1}]}),
        "malformed table object: caption: expected a string or null, got 5",
    ),
    "float-row.json": (
        json.dumps({"n_rows": 1, "n_cols": 1, "anchors": [{"row": 1.9, "col": 1}]}),
        "malformed table object: row: expected an integer, got 1.9",
    ),
    "string-header.json": (
        json.dumps({"n_rows": 1, "n_cols": 1, "anchors": [{"row": 1, "col": 1, "is_header": "false"}]}),
        "malformed table object: is_header: expected a boolean, got 'false'",
    ),
    "bool-rows.json": (
        json.dumps({"n_rows": True, "n_cols": 1, "anchors": [{"row": 1, "col": 1}]}),
        "malformed table object: n_rows: expected an integer, got True",
    ),
}


@pytest.mark.parametrize("name", list(_BAD_TABLE_FILES))
def test_invalid_table_file_is_a_parse_error(tmp_path, capsys, name):
    data, reason = _BAD_TABLE_FILES[name]
    bad = tmp_path / name
    bad.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    with pytest.raises(ParseError, match=reason) as caught:
        cmd_convert(bad, TableFormat.HTML)
    assert caught.value.location == str(bad)
    for args in (["convert", str(bad), "--format", "html"], ["render", str(bad), "--out", str(tmp_path / "o.svg")]):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and reason in err, err


def test_cmd_convert_round_trip(tmp_path):
    src = _one_table_file(tmp_path)
    html = cmd_convert(src, TableFormat.HTML, tmp_path / "one.html")
    assert html.startswith("<table>")
    assert (tmp_path / "one.html").read_text(encoding="utf-8") == html
    md = cmd_convert(tmp_path / "one.html", TableFormat.MARKDOWN)
    assert md.splitlines()[0] == "| a | b |"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_synth_eval_stats_round_trip(tmp_path, capsys):
    _make_corpus(tmp_path)
    config_path = _write_config(tmp_path, COUNTS)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0

    records = [json.loads(l) for l in (out / "samples.jsonl").read_text().splitlines()]
    preds = [
        {"sample_id": r["sample_id"], "response": r["gold_response"]} for r in records
    ]
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text("\n".join(json.dumps(p) for p in preds), encoding="utf-8")

    report_path = tmp_path / "report.json"
    assert (
        main(
            ["eval", str(pred_path), str(out / "samples.jsonl"), "--out", str(report_path)]
        )
        == 0
    )
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["counts"]["extraction_failed"] == 0
    assert capsys.readouterr().out.count("1.0000") >= 6

    assert main(["stats", str(out / "samples.jsonl")]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["samples"] == len(records)


def test_cli_errors_are_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert main(["stats", str(tmp_path / "missing.jsonl")]) == 1
    src = _one_table_file(tmp_path)
    assert main(["render", str(src), "--out", str(tmp_path / "x.png"), "--format", "png"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def _style_ranges_with(**changes) -> str:
    """The shipped style ranges as JSON, with each key of every family set
    to the given value, or dropped for None."""
    ranges = json.loads(json.dumps(default_style_ranges()))
    for family in ranges["families"].values():
        for key, value in changes.items():
            if value is None:
                del family[key]
            else:
                family[key] = value
    return json.dumps(ranges)


_NOT_UTF8 = b'{"\xff": 1}\n'
_SYNTH = ["synth", "--config", "{config}", "--out", "{out}"]

# input files other than table files that no reader can take: the file's name
# and bytes, and a command line that reads it ({file}), directly or through
# the config ({config}, which names qa.json, styles.json and pool.json)
_BAD_INPUT_FILES = {
    "eval predictions": ("preds.jsonl", _NOT_UTF8, ["eval", "{file}", "{empty}"]),
    "eval gold": ("gold.jsonl", _NOT_UTF8, ["eval", "{empty}", "{file}"]),
    "stats": ("samples.jsonl", _NOT_UTF8, ["stats", "{file}"]),
    "synth config": ("config.json", _NOT_UTF8, _SYNTH),
    "render config": ("config.json", _NOT_UTF8, ["render", "{table}", "--out", "{out}", "--config", "{file}"]),
    "render config's template pool": ("pool.json", _NOT_UTF8, ["render", "{table}", "--out", "{out}", "--config", "{config}"]),
    "qa pairs": ("qa.json", _NOT_UTF8, _SYNTH),
    "template pool": ("pool.json", _NOT_UTF8, _SYNTH),
    "style ranges without font_size": ("styles.json", _style_ranges_with(font_size=None), _SYNTH),
    "style ranges past what StyleSpec takes": ("styles.json", _style_ranges_with(cell_paddings=[4, 200]), _SYNTH),
}


@pytest.mark.parametrize("case", list(_BAD_INPUT_FILES))
def test_an_unreadable_input_file_is_an_error_naming_it(tmp_path, capsys, case):
    name, data, argv = _BAD_INPUT_FILES[case]
    _make_corpus(tmp_path, n=4)
    config = _write_config(
        tmp_path, COUNTS, qa_pairs_path="qa.json", style_ranges_path="styles.json", template_pool_path="pool.json"
    )
    (tmp_path / "qa.json").write_text("[]", encoding="utf-8")
    pool = resources.files("tablekit.data").joinpath("default_templates.json").read_text(encoding="utf-8")
    (tmp_path / "pool.json").write_text(pool, encoding="utf-8")
    (tmp_path / "styles.json").write_text(_style_ranges_with(), encoding="utf-8")
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    bad = tmp_path / name
    bad.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    paths = {"file": bad, "config": config, "empty": tmp_path / "empty.jsonl",
             "table": _one_table_file(tmp_path), "out": tmp_path / "out"}  # fmt: skip
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err, err


def test_cli_render_and_convert(tmp_path, capsys):
    src = _one_table_file(tmp_path)
    assert main(["render", str(src), "--out", str(tmp_path / "t.svg"), "--seed", "2"]) == 0
    assert (tmp_path / "t.svg").read_text().startswith("<svg")
    assert main(["convert", str(src), "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert "\\begin{tabular}" in out
