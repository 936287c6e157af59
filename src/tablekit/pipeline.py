"""Dataset construction end to end: corpus directory in, benchmark out.

The synth driver loads a corpus of table files, synthesizes instruction
samples, renders one SVG per referenced table, and writes samples.jsonl,
images/, and a manifest with a sha256 digest of every emitted file. All
outputs are pure functions of (config, seed), so two runs agree byte for
byte regardless of worker count; the manifest carries no timestamps.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from . import __version__
from .core import InvalidTable, Table, checked, table_from_json
from .formats import detect_format, parse, serialize
from .formats.common import ParseError, TableFormat, UnrepresentableInFormat
from .metrics.evaluate import (
    FileFormatError,
    MetricReport,
    _flatten_gold,
    _mean,
    _read_jsonl,
    evaluate,
)
from .numeric import json_int
from .taskdefs import TaskKind

# render, tasks and templates are imported where synth and render use them,
# so that eval, stats and convert never load them; each such import binds a
# name local to its function, never one of this module
if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from .render import CommandRasterizer, StyleMix, StyleSpec
    from .tasks import Plan, SynthConfig
    from .templates import TemplatePool


class PipelineConfigError(ValueError):
    """The pipeline config file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything cmd_synth and cmd_render need, loaded from one JSON file.

    Each key is read once, when the config loads: relative paths are
    resolved against the config file's directory, and the template pool
    and style ranges files are read into the synthesis settings.
    """

    corpus_dir: Path
    synth: SynthConfig
    qa_pairs_path: Path | None
    rasterizer: CommandRasterizer | None
    raster_dpi: int
    echo: dict  # for the manifest: the keys as fed in, and the value each number key left out took

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
        from .render import CSS_DPI, load_style_ranges
        from .tasks import SynthConfig, SynthConfigError
        from .templates import load_pool

        if not isinstance(raw, dict):
            raise PipelineConfigError("config must be a JSON object")
        unknown = set(raw).difference(_COERCE)
        if unknown:
            raise PipelineConfigError(f"unknown config keys: {sorted(unknown)}")
        if raw.get("corpus_dir") is None:
            raise PipelineConfigError("config lacks corpus_dir")
        settings = {}
        for key, value in raw.items():
            try:
                value = _COERCE[key](value)
            except (TypeError, ValueError, AttributeError) as exc:
                raise PipelineConfigError(f"bad config value for {key}: {exc}")
            if value is not None:  # null: the key's default
                settings[key] = value
        paths = {key: Path(base_dir, settings.pop(key)) for key in _PATH_KEYS if key in settings}
        for key, what, read, field_name in (
            ("template_pool_path", "template pool", load_pool, "pool"),
            ("style_ranges_path", "style ranges file", load_style_ranges, "style_ranges"),
        ):
            if key in paths:
                try:
                    settings[field_name] = read(paths[key])
                except (OSError, ValueError) as exc:
                    raise PipelineConfigError(f"bad {what} {paths[key]}: {exc}")
        rasterizer = settings.pop("rasterizer_command", None)
        raster_dpi = settings.pop("raster_dpi", CSS_DPI)
        try:
            synth = SynthConfig(**settings)
        except SynthConfigError as exc:
            raise PipelineConfigError(f"bad config value for {exc.key}: {exc}")
        echo = {key: value for key, value in raw.items() if value is not None}
        echo.update({key: getattr(synth, key) for key in _SCALAR_KEYS}, raster_dpi=raster_dpi)
        return cls(
            corpus_dir=paths["corpus_dir"],
            synth=synth,
            qa_pairs_path=paths.get("qa_pairs_path"),
            rasterizer=rasterizer,
            raster_dpi=raster_dpi,
            echo=echo,
        )

    def resolve_pool(self) -> TemplatePool:
        return self.synth.pool

    def resolve_qa_pairs(self) -> list[dict]:
        path = self.qa_pairs_path
        if path is None:
            return []
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise PipelineConfigError(f"bad qa pairs file {path}: {exc}")
        if not isinstance(raw, list) or not all(isinstance(p, dict) for p in raw):
            raise PipelineConfigError(f"{path} must hold a JSON list of objects")
        return raw


def _number(value: object) -> float:
    """A JSON number, integer or not; a boolean or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _positive_int(value: object) -> int:
    if json_int(value) < 1:
        raise ValueError(f"expected an integer >= 1, got {value!r}")
    return value


def _counts(value: object) -> dict[TaskKind, tuple[int, int]] | None:
    if value is None:
        return None
    counts = {}
    for name, pair in value.items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"counts[{name!r}] must be [train, eval]")
        counts[TaskKind(name)] = (json_int(pair[0]), json_int(pair[1]))
    return counts


def _tr_format_weights(value: object) -> dict[TableFormat, float] | None:
    if value is None:
        return None
    return {TableFormat(name): _number(weight) for name, weight in value.items()}


def _style_mix(value: object) -> StyleMix | None:
    if value is None:
        return None
    from .render import StyleFamily, StyleMix

    return StyleMix({StyleFamily(name): _number(weight) for name, weight in value.items()})


def _path(value: object) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _command(value: object) -> CommandRasterizer | None:
    if _path(value) is None:
        return None
    from .render import CommandRasterizer

    return CommandRasterizer(value)


# the one reading of each config key, from its JSON value to what it sets:
# a SynthConfig field of the same name, a path (_PATH_KEYS), or a setting of
# the config itself; a key left out takes its default, and null is the
# default of a key whose default is none
_COERCE = {
    "corpus_dir": _path,
    "master_seed": json_int,
    "counts": _counts,
    "tce_cells_per_sample": json_int,
    "tcl_cells_per_sample": json_int,
    "tr_format_weights": _tr_format_weights,
    "multiturn_fraction": _number,
    "style_mix": _style_mix,
    "style_ranges_path": _path,
    "template_pool_path": _path,
    "qa_pairs_path": _path,
    "rasterizer_command": _command,
    "raster_dpi": _positive_int,
}
_PATH_KEYS = ("corpus_dir", "qa_pairs_path", "style_ranges_path", "template_pool_path")
# the SynthConfig number keys, which the manifest echoes even when left out
_SCALAR_KEYS = ("master_seed", "tce_cells_per_sample", "tcl_cells_per_sample", "multiturn_fraction")


# ---------------------------------------------------------------------------
# corpus ingestion
# ---------------------------------------------------------------------------


@dataclass
class CorpusLoad:
    tables: dict[str, Table]  # by id
    skipped: list[tuple[str, str]]  # (path, reason)


def _is_table_file(path: Path) -> bool:
    return detect_format(path) is not None or path.suffix.lower() == ".json"


def _load_table_file(path: Path) -> Table:
    """One valid table from a file.

    A file that cannot be read raises OSError; any other failure, from bytes
    that are not UTF-8 to a table that does not tile, is a ParseError naming
    the file."""
    if not _is_table_file(path):
        raise ParseError(str(path), f"unsupported extension {path.suffix!r}")
    fmt = detect_format(path)
    try:
        text = path.read_text(encoding="utf-8")
        table = table_from_json(text) if fmt is None else parse(text, fmt)[0]
    except (UnicodeDecodeError, InvalidTable, ParseError) as exc:
        raise ParseError(str(path), str(exc)) from exc
    verdict = checked(table)
    if not verdict.ok:
        raise ParseError(str(path), f"invalid table: {verdict.problem}")
    return table


def _corpus_paths(corpus_dir: Path) -> list[Path]:
    """Every table file under the directory, recursively, in sorted order."""
    if not corpus_dir.is_dir():
        raise PipelineConfigError(f"corpus directory not found: {corpus_dir}")
    return sorted(p for p in corpus_dir.rglob("*") if p.is_file() and _is_table_file(p))


def _read_corpus_file(path: Path) -> Table | str:
    """The file's table, or the reason the file is skipped."""
    try:
        return _load_table_file(path)
    except Exception as exc:  # malformed corpus entries must never abort the run
        return str(exc)


def _table_ids(paths: Sequence[Path], reports: Sequence[object]) -> dict[int, str]:
    """The id rule for corpus tables. Given the sorted paths and, per path,
    what reading it gave (its table or a count, or the reason the file is
    skipped, a string), the id of each read file, by index: its file stem,
    or, when an earlier table holds that id, the stem with the first free
    suffix -2, -3, ... A file that is skipped takes no id."""
    taken: set[str] = set()
    resume: dict[str, int] = {}  # per stem, the suffix below which every id is taken
    ids: dict[int, str] = {}
    for i, (path, report) in enumerate(zip(paths, reports)):
        if isinstance(report, str):
            continue
        stem = path.stem
        n = resume.get(stem, 1)
        while (table_id := stem if n == 1 else f"{stem}-{n}") in taken:
            n += 1
        resume[stem] = n + 1
        taken.add(table_id)
        ids[i] = table_id
    return ids


def load_corpus(corpus_dir: str | Path) -> CorpusLoad:
    """Reads and numbers every table file under the directory, recursively,
    as synth does: the tables by id, in sorted path order, each id by the
    rule of _table_ids; malformed files are skipped and reported, never fatal.
    """
    paths = _corpus_paths(Path(corpus_dir))
    reports = [_read_corpus_file(path) for path in paths]
    ids = _table_ids(paths, reports)
    return CorpusLoad(
        tables={table_id: reports[i] for i, table_id in ids.items()},
        skipped=[(str(path), report) for path, report in zip(paths, reports) if isinstance(report, str)],
    )


# ---------------------------------------------------------------------------
# synth shards: each reads, materializes and renders its own tables
# ---------------------------------------------------------------------------

RenderJob = tuple[Table, "StyleSpec", Path]  # table, its style, the SVG path


def _render_all(jobs: dict[str, RenderJob]) -> list[str]:
    """Renders each job's table and writes its SVG; each SVG's sha256, in job
    order."""
    import hashlib

    from .render import render_svg

    digests = []
    for table, style, path in jobs.values():
        data = render_svg(table, style).encode("utf-8")
        path.write_bytes(data)
        digests.append(hashlib.sha256(data).hexdigest())
    return digests


# what a shard hands back from phase 2: the encoded record lines by output
# position, (task, split, tr_format) per scored answer, the digest of each
# SVG it wrote, by the image ref of its samples, and the style family of
# each of its tables, by table id
ShardOutput = tuple[dict[int, str], list[tuple[TaskKind, str, str | None]], dict[str, str], dict[str, str]]


class _Shard:
    """One share of the corpus files. Phase 1 (read) parses them and keeps
    the tables; phase 2 (build) materializes, encodes and renders the
    planned samples on them. Used directly, it is the shard that runs in
    this process: send runs a phase at once and recv returns its result."""

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}  # by path
        self._result: object = None

    def read(self, paths: Sequence[str]) -> list[int | str]:
        """Per file, its table's count of content-unique non-empty cells, or
        the reason the file is skipped."""
        from .tasks import unique_cell_count

        reports: list[int | str] = []
        for path in paths:
            table = _read_corpus_file(Path(path))
            if isinstance(table, Table):
                self.tables[path] = table
                table = unique_cell_count(table)
            reports.append(table)
        return reports

    def build(
        self,
        ids: dict[str, str],
        planned: Plan,
        synth_config: SynthConfig,
        out: Path,
    ) -> ShardOutput:
        """The planned samples on the tables of these files, by their ids,
        each table's SVG written under out at its samples' image ref."""
        from .tasks import materialize

        tables = {table_id: self.tables[path] for path, table_id in ids.items()}
        samples, styles = materialize(planned, tables, synth_config)
        lines: dict[int, str] = {}
        answers = []
        refs: dict[str, str] = {}  # table id by image ref
        for position, sample in samples.items():
            record = sample.to_dict()
            lines[position] = json.dumps(record, ensure_ascii=False)
            answers += [(a.task, a.split, a.tr_format) for a in _flatten_gold([record])]
            refs[sample.image_ref] = sample.table_id
        jobs = {ref: (tables[tid], styles[tid], out / ref) for ref, tid in sorted(refs.items())}
        digests = dict(zip(jobs, _render_all(jobs)))
        return lines, answers, digests, {tid: spec.family.value for tid, spec in styles.items()}

    def send(self, method: str, *args: object) -> None:
        self._result = getattr(self, method)(*args)

    def recv(self) -> object:
        return self._result

    def close(self) -> None:
        self.tables = {}  # the run no longer needs them


def _serve_shard(conn: Connection) -> None:
    """A shard process: runs each (method, args) it receives on its one
    _Shard and sends back (error, result), until the pipe closes."""
    shard = _Shard()
    with conn:
        while True:
            try:
                method, args = conn.recv()
            except EOFError:
                return
            try:
                conn.send((None, getattr(shard, method)(*args)))
            except Exception as exc:
                import traceback

                conn.send(((exc, traceback.format_exc()), None))


class _ShardProcess:
    """A _Shard in a process of its own, driven through a pipe. No thread
    of this process takes part, so any start method serves."""

    def __init__(self) -> None:
        import multiprocessing  # here, so that only a run with shard processes imports it

        self._conn, child = multiprocessing.Pipe()
        self._process = multiprocessing.Process(target=_serve_shard, args=(child,), daemon=True)
        self._process.start()
        child.close()

    def send(self, method: str, *args: object) -> None:
        self._conn.send((method, args))

    def recv(self) -> object:
        try:
            error, result = self._conn.recv()
        except EOFError:
            raise RuntimeError("a synth shard process ended without a result") from None
        if error is not None:
            exc, remote_traceback = error
            raise exc from RuntimeError(f"in a synth shard process:\n{remote_traceback}")
        return result

    def close(self) -> None:
        # after its last result a shard only waits for the next call, and
        # after a failure elsewhere its work is not wanted
        self._conn.close()
        self._process.terminate()
        self._process.join()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _shares(names: Sequence[str]) -> dict[str, float]:
    """Each distinct name's share of the list, by name."""
    counts = Counter(names)
    return {name: counts[name] / len(names) for name in sorted(counts)}


def _record_task_counts(answers: Iterable[tuple[TaskKind, str, str | None]]) -> dict[str, int]:
    """Answers per task and split, from (task, split, tr_format) per answer."""
    return dict(sorted(Counter(f"{task.value}-{split}" for task, split, _ in answers).items()))


def _tr_format_mix(answers: Iterable[tuple[TaskKind, str, str | None]]) -> dict[str, float]:
    return _shares([fmt for task, _, fmt in answers if task is TaskKind.TR])


def _style_mix_achieved(records: Sequence[dict]) -> dict[str, float]:
    by_table: dict[str, str] = {}
    for record in records:
        family = record.get("meta", {}).get("style_family")
        if family:
            by_table.setdefault(record["table_id"], family)
    return _shares(list(by_table.values()))


def _write_json(path: Path, value: object) -> None:
    """value as JSON at path by way of a file beside it, so that path never
    holds part of a file."""
    partial = path.with_name(path.name + ".tmp")
    partial.write_text(
        json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.replace(partial, path)


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
    import hashlib

    from .tasks import plan

    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    paths = _corpus_paths(config.corpus_dir)
    synth_config = config.synth if seed is None else replace(config.synth, master_seed=seed)
    qa_pairs = config.resolve_qa_pairs()
    images_dir = out / "images"

    # at most one shard per usable CPU and per corpus file; shard k reads
    # files k, k + n, k + 2n, ... of the sorted list and keeps their tables
    n = max(1, min(workers, len(paths), _usable_cpus()))
    shards: list[_Shard | _ShardProcess] = []
    try:
        for _ in range(n):
            shards.append(_ShardProcess() if n > 1 else _Shard())
        for k, shard in enumerate(shards):
            # paths as strings: a Path is slow to unpickle
            shard.send("read", [str(path) for path in paths[k::n]])
        reports: list = [None] * len(paths)
        for k, shard in enumerate(shards):
            reports[k::n] = shard.recv()

        ids = _table_ids(paths, reports)
        unique_cells = {table_id: reports[i] for i, table_id in ids.items()}
        shard_ids: list[dict[str, str]] = [{} for _ in shards]
        for i, table_id in ids.items():
            shard_ids[i % n][str(paths[i])] = table_id
        planned = plan(unique_cells, synth_config, qa_pairs)

        # images from an earlier run into the same directory would outlive
        # the manifest that no longer lists them
        if images_dir.is_dir():
            shutil.rmtree(images_dir)
        images_dir.mkdir(parents=True)
        for shard, their_ids in zip(shards, shard_ids):
            shard.send("build", their_ids, planned, synth_config, out)
        built: list[ShardOutput] = [shard.recv() for shard in shards]
    finally:
        for shard in shards:
            shard.close()

    lines: dict[int, str] = {}
    answers: list[tuple[TaskKind, str, str | None]] = []
    digests: dict[str, str] = {}
    families: dict[str, str] = {}
    for shard_lines, shard_answers, shard_digests, shard_families in built:
        lines.update(shard_lines)
        answers += shard_answers
        digests.update(shard_digests)
        families.update(shard_families)
    samples_bytes = (
        "\n".join(lines[p] for p in range(len(lines))) + "\n" if lines else ""
    ).encode("utf-8")
    (out / "samples.jsonl").write_bytes(samples_bytes)
    digests["samples.jsonl"] = hashlib.sha256(samples_bytes).hexdigest()

    manifest = {
        "version": __version__,
        "config": config.echo,
        "master_seed": synth_config.master_seed,
        "corpus": {"tables": len(unique_cells), "skipped_files": len(paths) - len(unique_cells)},
        "counts": _record_task_counts(answers),
        "conversations": planned.conversations,
        "consumed_singles": planned.consumed_singles,
        "shortfalls": dict(sorted(planned.shortfalls.items())),
        "qa_pairs_skipped": planned.qa_pairs_skipped,
        "style_mix_achieved": _shares(list(families.values())),
        "tr_format_mix_achieved": _tr_format_mix(answers),
        "files": dict(sorted(digests.items())),
    }
    _write_json(manifest_path, manifest)
    return manifest


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(
    predictions_path: str | Path,
    gold_path: str | Path,
    out_path: str | Path | None = None,
) -> MetricReport:
    """The report, also written to out_path if given. A report already there
    is removed first, so a run that fails leaves none, not an earlier one."""
    if out_path is not None:
        Path(out_path).unlink(missing_ok=True)
    report = evaluate(predictions_path, gold_path)
    if out_path is not None:
        _write_json(Path(out_path), report.to_dict())
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
    summary = [(a.task, a.split, a.tr_format) for a in answers]
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
        "per_task": _record_task_counts(summary),
        "request_tokens_avg": _mean(_tokens("request")),
        "response_tokens_avg": _mean(_tokens("gold_response")),
        "style_mix": _style_mix_achieved(records),
        "tr_format_mix": _tr_format_mix(summary),
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
    from .render import CSS_DPI, rasterize, render_svg, sample_style
    from .tasks import SynthConfig

    table = _load_table_file(Path(input_path))
    settings = config.synth if config is not None else SynthConfig()
    svg = render_svg(table, sample_style(settings.style_mix, seed, settings.style_ranges))
    out = Path(out_path)
    if image_format == "svg":
        out.write_text(svg, encoding="utf-8")
        return out
    if image_format != "png":
        raise PipelineConfigError(f"unsupported image format {image_format!r}")
    if dpi is None:
        dpi = config.raster_dpi if config is not None else CSS_DPI
    out.write_bytes(rasterize(svg, dpi=dpi, backend=config.rasterizer if config is not None else None))
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
