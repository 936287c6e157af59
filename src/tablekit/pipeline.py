"""Dataset construction end to end: corpus directory in, benchmark out.

The synth driver loads a corpus of table files, synthesizes instruction
samples, renders one SVG per referenced table, and writes samples.jsonl,
images/, and a manifest with a sha256 digest of every emitted file. All
outputs are pure functions of (config, seed), so two runs agree byte for
byte regardless of worker count; the manifest carries no timestamps.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import __version__
from .core import InvalidTable, Table, checked, table_from_json
from .formats import detect_format, parse, serialize
from .formats.common import ParseError, TableFormat, UnrepresentableInFormat
from .metrics.evaluate import (
    FileFormatError,
    MetricReport,
    _flatten_gold,
    _GoldRecord,
    _mean,
    _read_jsonl,
    evaluate,
)
from .render import (
    DEFAULT_STYLE_MIX,
    CommandRasterizer,
    StyleFamily,
    StyleMix,
    StyleSpec,
    load_style_ranges,
    rasterize,
    render_svg,
    sample_style,
)
from .taskdefs import TaskKind
from .tasks import SynthConfig, SynthResult, synthesize
from .templates import default_pool, load_pool


class PipelineConfigError(ValueError):
    """The pipeline config file is missing, malformed, or inconsistent."""


@dataclass
class PipelineConfig:
    """Everything cmd_synth needs, loaded from one JSON file.

    Relative paths are resolved against the config file's directory.
    """

    corpus_dir: str
    master_seed: int = 0
    counts: dict[str, tuple[int, int]] | None = None
    tce_cells_per_sample: int = 3
    tcl_cells_per_sample: int = 3
    tr_format_weights: dict[str, float] | None = None
    multiturn_fraction: float = 0.0
    style_mix: dict[str, float] | None = None
    style_ranges_path: str | None = None
    template_pool_path: str | None = None
    qa_pairs_path: str | None = None
    rasterizer_command: str | None = None
    raster_dpi: int = 96
    base_dir: Path = field(default_factory=Path)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise PipelineConfigError(f"cannot read config {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise PipelineConfigError(f"config {path} is not valid JSON: {exc}")
        return cls.from_dict(raw, base_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: object, base_dir: str | Path = ".") -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise PipelineConfigError("config must be a JSON object")
        unknown = set(raw).difference(_COERCE)
        if unknown:
            raise PipelineConfigError(f"unknown config keys: {sorted(unknown)}")
        if "corpus_dir" not in raw:
            raise PipelineConfigError("config lacks corpus_dir")
        values = {}
        for key, value in raw.items():
            try:
                values[key] = _COERCE[key](value)
            except (TypeError, ValueError, AttributeError) as exc:
                raise PipelineConfigError(f"bad config value for {key}: {exc}")
        config = cls(**values, base_dir=Path(base_dir))
        config.to_synth_config()  # surface count/weight problems at load time
        config.resolve_style_mix()
        return config

    def _resolve(self, value: str) -> Path:
        path = Path(value)
        return path if path.is_absolute() else self.base_dir / path

    def echo(self) -> dict:
        """The config as fed in, for the manifest: every key that is set."""
        out = {key: getattr(self, key) for key in _COERCE}
        if self.counts is not None:
            out["counts"] = {k: list(v) for k, v in sorted(self.counts.items())}
        return {key: value for key, value in out.items() if value is not None}

    def to_synth_config(self, seed_override: int | None = None) -> SynthConfig:
        kwargs: dict = {
            "tce_cells_per_sample": self.tce_cells_per_sample,
            "tcl_cells_per_sample": self.tcl_cells_per_sample,
            "multiturn_fraction": self.multiturn_fraction,
            "master_seed": self.master_seed if seed_override is None else seed_override,
        }
        try:
            if self.counts is not None:
                kwargs["counts"] = {TaskKind(name): pair for name, pair in self.counts.items()}
            if self.tr_format_weights is not None:
                kwargs["tr_format_weights"] = {
                    TableFormat(name): float(w) for name, w in self.tr_format_weights.items()
                }
            return SynthConfig(**kwargs)
        except ValueError as exc:
            raise PipelineConfigError(str(exc))

    def resolve_style_mix(self) -> StyleMix:
        if self.style_mix is None:
            return DEFAULT_STYLE_MIX
        try:
            return StyleMix({StyleFamily(name): float(w) for name, w in self.style_mix.items()})
        except ValueError as exc:
            raise PipelineConfigError(f"bad style_mix: {exc}")

    def resolve_style_ranges(self) -> dict | None:
        if self.style_ranges_path is None:
            return None
        path = self._resolve(self.style_ranges_path)
        try:
            return load_style_ranges(path)
        except (OSError, ValueError) as exc:
            raise PipelineConfigError(f"bad style ranges file {path}: {exc}")

    def resolve_pool(self):
        if self.template_pool_path is None:
            return default_pool()
        path = self._resolve(self.template_pool_path)
        try:
            return load_pool(path)
        except (OSError, ValueError) as exc:
            raise PipelineConfigError(f"bad template pool {path}: {exc}")

    def resolve_qa_pairs(self) -> list[dict]:
        if self.qa_pairs_path is None:
            return []
        path = self._resolve(self.qa_pairs_path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise PipelineConfigError(f"bad qa pairs file {path}: {exc}")
        if not isinstance(raw, list) or not all(isinstance(p, dict) for p in raw):
            raise PipelineConfigError(f"{path} must hold a JSON list of objects")
        return raw


def _int(value: object) -> int:
    """A JSON integer as written; a float, a boolean or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _counts(value: object) -> dict[str, tuple[int, int]] | None:
    if value is None:
        return None
    counts = {}
    for name, pair in value.items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"counts[{name!r}] must be [train, eval]")
        counts[str(name)] = (_int(pair[0]), _int(pair[1]))
    return counts


def _weights(value: object) -> object:
    """The weights as written, for the manifest echo, once each reads as a number."""
    if value is not None:
        for weight in value.values():
            float(weight)
    return value


def _path(value: object) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


# the one coercion of each config key (a field of PipelineConfig other than
# base_dir); a key left out takes the field default, and null is the default
# of a key whose default is None
_COERCE = {
    "corpus_dir": str,
    "master_seed": _int,
    "counts": _counts,
    "tce_cells_per_sample": _int,
    "tcl_cells_per_sample": _int,
    "tr_format_weights": _weights,
    "multiturn_fraction": float,
    "style_mix": _weights,
    "style_ranges_path": _path,
    "template_pool_path": _path,
    "qa_pairs_path": _path,
    "rasterizer_command": _path,
    "raster_dpi": _int,
}


# ---------------------------------------------------------------------------
# corpus ingestion
# ---------------------------------------------------------------------------


@dataclass
class CorpusLoad:
    tables: list[Table]
    skipped: list[tuple[str, str]]  # (path, reason)

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)


_CORPUS_SUFFIXES = (".json", ".html", ".htm", ".md", ".markdown", ".tex")


def _load_table_file(path: Path, source_id: str | None = None) -> Table:
    """One valid table from a file; source_id, when given, replaces the file's own.

    A file that cannot be read raises OSError; any other failure, from bytes
    that are not UTF-8 to a table that does not tile, is a ParseError naming
    the file."""
    fmt = detect_format(path)
    if fmt is None and path.suffix.lower() != ".json":
        raise ParseError(str(path), f"unsupported extension {path.suffix!r}")
    try:
        text = path.read_text(encoding="utf-8")
        table = table_from_json(text) if fmt is None else parse(text, fmt)[0]
    except (UnicodeDecodeError, InvalidTable, ParseError) as exc:
        raise ParseError(str(path), str(exc)) from exc
    if source_id is not None:
        table = dataclasses.replace(table, source_id=source_id)
    verdict = checked(table)
    if not verdict.ok:
        raise ParseError(str(path), f"invalid table: {verdict.problem}")
    return table


def load_corpus(corpus_dir: str | Path) -> CorpusLoad:
    """Reads every recognized table file under the directory, recursively.

    Files are visited in sorted path order; table ids come from file stems
    (deduplicated with a numeric suffix); malformed files are skipped and
    reported, never fatal.
    """
    root = Path(corpus_dir)
    if not root.is_dir():
        raise PipelineConfigError(f"corpus directory not found: {root}")
    tables: list[Table] = []
    skipped: list[tuple[str, str]] = []
    seen_ids: dict[str, int] = {}
    paths = sorted(p for p in root.rglob("*") if p.is_file() and p.suffix.lower() in _CORPUS_SUFFIXES)
    for path in paths:
        stem = path.stem
        n = seen_ids.get(stem, 0) + 1
        try:
            table = _load_table_file(path, stem if n == 1 else f"{stem}-{n}")
        except Exception as exc:  # malformed corpus entries must never abort the run
            skipped.append((str(path), str(exc)))
            continue
        seen_ids[stem] = n
        tables.append(table)
    return CorpusLoad(tables=tables, skipped=skipped)


# ---------------------------------------------------------------------------
# rendering: each worker gets the job map once and writes its own SVGs
# ---------------------------------------------------------------------------

RenderJob = tuple[Table, StyleSpec, Path]  # table, its style, the SVG path

_worker_jobs: dict[str, RenderJob] = {}  # a render worker's job map, by table id


def _set_worker_jobs(jobs: dict[str, RenderJob]) -> None:
    """Pool initializer: the job map reaches each worker once, not per job."""
    global _worker_jobs
    _worker_jobs = jobs


def _write_svg(table: Table, style: StyleSpec, path: Path) -> str:
    """Renders the table, writes the SVG and returns its sha256."""
    data = render_svg(table, style).encode("utf-8")
    path.write_bytes(data)
    return _sha256(data)


def _render_job(table_id: str) -> str:
    return _write_svg(*_worker_jobs[table_id])


def _render_all(jobs: dict[str, RenderJob], workers: int) -> list[str]:
    """The sha256 of each job's SVG, in the order of jobs."""
    if workers <= 1 or len(jobs) < 2:
        return [_write_svg(*job) for job in jobs.values()]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_set_worker_jobs, initargs=(jobs,)
    ) as pool:
        # map preserves input order, so every digest lands in its place
        # whatever the scheduling
        return list(pool.map(_render_job, jobs, chunksize=8))


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _shares(names: Sequence[str]) -> dict[str, float]:
    """Each distinct name's share of the list, by name."""
    counts = Counter(names)
    return {name: counts[name] / len(names) for name in sorted(counts)}


def _record_task_counts(answers: Sequence[_GoldRecord]) -> dict[str, int]:
    return dict(sorted(Counter(f"{a.task.value}-{a.split}" for a in answers).items()))


def _tr_format_mix(answers: Sequence[_GoldRecord]) -> dict[str, float]:
    return _shares([a.tr_format for a in answers if a.task is TaskKind.TR])


def _style_mix_achieved(records: Sequence[dict]) -> dict[str, float]:
    by_table: dict[str, str] = {}
    for record in records:
        family = record.get("meta", {}).get("style_family")
        if family:
            by_table.setdefault(record["table_id"], family)
    return _shares(list(by_table.values()))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cmd_synth(
    config: PipelineConfig,
    out_dir: str | Path,
    *,
    seed: int | None = None,
    workers: int = 1,
) -> dict:
    """Builds the dataset under out_dir and returns the manifest dict.

    manifest.json is removed first and written last, so a run that stops
    part way never leaves a directory that looks complete.
    """
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    corpus = load_corpus(config._resolve(config.corpus_dir))
    synth_config = config.to_synth_config(seed_override=seed)
    style_mix = config.resolve_style_mix()
    style_ranges = config.resolve_style_ranges()
    pool = config.resolve_pool()
    qa_pairs = config.resolve_qa_pairs()

    result: SynthResult = synthesize(
        corpus.tables,
        synth_config,
        pool=pool,
        qa_pairs=qa_pairs,
        style_mix=style_mix,
        style_ranges=style_ranges,
    )
    records = [s.to_dict() for s in result.samples]
    answers = _flatten_gold(records)

    images_dir = out / "images"
    # images from an earlier run into the same directory would outlive the
    # manifest that no longer lists them
    if images_dir.is_dir():
        shutil.rmtree(images_dir)
    images_dir.mkdir(parents=True)

    digests: dict[str, str] = {}
    samples_bytes = (
        "\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n"
        if records
        else ""
    ).encode("utf-8")
    (out / "samples.jsonl").write_bytes(samples_bytes)
    digests["samples.jsonl"] = _sha256(samples_bytes)

    by_id = {t.source_id: t for t in corpus.tables}
    jobs = {
        tid: (by_id[tid], result.styles[tid], images_dir / f"{tid}.svg")
        for tid in sorted({r["table_id"] for r in records})
    }
    for tid, digest in zip(jobs, _render_all(jobs, workers)):
        digests[f"images/{tid}.svg"] = digest

    manifest = {
        "version": __version__,
        "config": config.echo(),
        "master_seed": synth_config.master_seed,
        "corpus": {"tables": len(corpus.tables), "skipped_files": corpus.skipped_count},
        "counts": _record_task_counts(answers),
        "conversations": result.conversations,
        "consumed_singles": result.consumed_singles,
        "shortfalls": dict(sorted(result.shortfalls.items())),
        "qa_pairs_skipped": result.qa_pairs_skipped,
        "style_mix_achieved": _style_mix_achieved(records),
        "tr_format_mix_achieved": _tr_format_mix(answers),
        "files": dict(sorted(digests.items())),
    }
    partial = out / "manifest.json.tmp"
    partial.write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    os.replace(partial, manifest_path)
    return manifest


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(
    predictions_path: str | Path,
    gold_path: str | Path,
    out_path: str | Path | None = None,
) -> MetricReport:
    report = evaluate(predictions_path, gold_path)
    if out_path is not None:
        Path(out_path).write_text(
            json.dumps(report.to_dict(), ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return report


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def dataset_stats(samples_path: str | Path) -> dict:
    """Summary of a samples.jsonl file, from the records alone. The file is
    read as eval reads it: a line that is not a JSON object, or a record
    that eval could not score or whose meta the summary cannot read,
    raises FileFormatError naming the sample."""
    records = _read_jsonl(samples_path)
    answers = _flatten_gold(records)
    rows: list[int] = []
    cols: list[int] = []
    conversations = 0
    for record in records:
        if record.get("turns"):
            conversations += 1
        meta = record.get("meta", {})
        if not isinstance(meta, dict):
            raise FileFormatError(f"bad record {record['sample_id']}: meta is not an object")
        if meta.get("style_family") and "table_id" not in record:
            raise FileFormatError(f"bad record {record['sample_id']}: a style_family but no table_id")
        if "n_rows" in meta and "n_cols" in meta:
            try:
                rows.append(int(meta["n_rows"]))
                cols.append(int(meta["n_cols"]))
            except (TypeError, ValueError) as exc:
                raise FileFormatError(f"bad record {record['sample_id']}: table size {exc}")

    def _tokens(key: str) -> list[int]:
        return [len(str(a.source.get(key, "")).split()) for a in answers]

    def _dist(values: Sequence[int]) -> dict:
        return {"min": min(values, default=0), "max": max(values, default=0), "mean": _mean(values)}

    return {
        "samples": len(records),
        "conversations": conversations,
        "per_task": _record_task_counts(answers),
        "request_tokens_avg": _mean(_tokens("request")),
        "response_tokens_avg": _mean(_tokens("gold_response")),
        "style_mix": _style_mix_achieved(records),
        "tr_format_mix": _tr_format_mix(answers),
        "table_rows": _dist(rows),
        "table_cols": _dist(cols),
    }


# ---------------------------------------------------------------------------
# render / convert (single-file helpers behind the CLI)
# ---------------------------------------------------------------------------


def cmd_render(
    input_path: str | Path,
    out_path: str | Path,
    *,
    seed: int = 0,
    image_format: str = "svg",
    dpi: int | None = None,
    config: PipelineConfig | None = None,
) -> Path:
    """Renders one table file to SVG (or PNG via the configured rasterizer).

    A PNG is rasterized at dpi when given, else at the config's raster_dpi.
    """
    table = _load_table_file(Path(input_path))
    mix = config.resolve_style_mix() if config is not None else DEFAULT_STYLE_MIX
    ranges = config.resolve_style_ranges() if config is not None else None
    spec = sample_style(mix, seed, ranges)
    svg = render_svg(table, spec)
    out = Path(out_path)
    if image_format == "svg":
        out.write_text(svg, encoding="utf-8")
        return out
    if image_format != "png":
        raise PipelineConfigError(f"unsupported image format {image_format!r}")
    command = config.rasterizer_command if config is not None else None
    backend = CommandRasterizer(command) if command else None
    if dpi is None:
        dpi = config.raster_dpi if config is not None else 96
    out.write_bytes(rasterize(svg, dpi=dpi, backend=backend))
    return out


def cmd_convert(
    input_path: str | Path,
    target: TableFormat,
    out_path: str | Path | None = None,
) -> str:
    """Strictly parses one table file and serializes it in the target format."""
    table = _load_table_file(Path(input_path))
    text = serialize(table, target)
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    return text
