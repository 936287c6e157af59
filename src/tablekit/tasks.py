"""Synthesis of instruction samples from canonical tables.

Six structure tasks are generated directly from a Table; externally
supplied question/answer pairs are wrapped into the same sample shape;
single-turn samples over one table can be composed into multi-turn
conversations. Every random draw is seeded from (master_seed, table_id,
task, index) so synthesis is order- and parallelism-independent.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import Table, expand_grid, merged_regions
from .formats import serialize
from .formats.common import TableFormat
from .numeric import check_weights, left_sum
from .render import DEFAULT_STYLE_MIX, StyleMix, StyleSpec, sample_style
from .taskdefs import TaskKind
from .templates import TemplatePool, build_request, default_pool


class KTooLarge(ValueError):
    """More cells requested than the table grid holds."""


class InsufficientUniqueCells(ValueError):
    """The table lacks enough content-unique non-empty cells."""


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from the joined string forms of the parts."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def style_seed(master_seed: int, table_id: str) -> int:
    """Seed used to draw one table's rendering style."""
    return derive_seed(master_seed, "style", table_id)


FORMAT_NAMES = {
    TableFormat.HTML: "HTML",
    TableFormat.MARKDOWN: "Markdown",
    TableFormat.LATEX: "LaTeX",
}

DEFAULT_TR_WEIGHTS: dict[TableFormat, float] = {
    TableFormat.HTML: 96 / 150,
    TableFormat.MARKDOWN: 27 / 150,
    TableFormat.LATEX: 27 / 150,
}


@dataclass(frozen=True)
class Turn:
    task: TaskKind
    request: str
    gold_response: str
    gold_answer: dict
    source_sample_id: str

    def to_dict(self) -> dict:
        return {
            "task": self.task.value,
            "request": self.request,
            "gold_response": self.gold_response,
            "gold_answer": self.gold_answer,
            "source_sample_id": self.source_sample_id,
        }


@dataclass(frozen=True)
class Sample:
    sample_id: str
    table_id: str
    task: TaskKind
    image_ref: str
    request: str
    gold_response: str
    gold_answer: dict
    turns: tuple[Turn, ...] | None = None
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "table_id": self.table_id,
            "task": self.task.value,
            "image_ref": self.image_ref,
            "request": self.request,
            "gold_response": self.gold_response,
            "gold_answer": self.gold_answer,
            "turns": [t.to_dict() for t in self.turns] if self.turns else None,
            "meta": dict(self.meta),
        }


@dataclass(frozen=True)
class SampleContext:
    """Everything one synthesis call needs besides the table itself."""

    sample_id: str
    table_id: str
    image_ref: str
    gold_seed: int
    request_seed: int
    pool: TemplatePool
    meta: Mapping[str, object] = field(default_factory=dict)


def _finish(
    table: Table,
    task: TaskKind,
    ctx: SampleContext,
    gold_answer: dict,
    inputs: dict[str, str],
    tr_format: TableFormat | None = None,
) -> Sample:
    request = build_request(ctx.pool, task, inputs, ctx.request_seed)
    meta = dict(ctx.meta)
    meta["n_rows"] = table.n_rows
    meta["n_cols"] = table.n_cols
    meta["tr_format"] = tr_format.value if tr_format is not None else None
    return Sample(
        sample_id=ctx.sample_id,
        table_id=ctx.table_id,
        task=task,
        image_ref=ctx.image_ref,
        request=request,
        gold_response=json.dumps(gold_answer, ensure_ascii=False),
        gold_answer=gold_answer,
        meta=meta,
    )


def synth_tsd(table: Table, ctx: SampleContext) -> Sample:
    gold = {"row_number": table.n_rows, "column_number": table.n_cols}
    return _finish(table, TaskKind.TSD, ctx, gold, {})


def synth_tce(table: Table, k: int, ctx: SampleContext) -> Sample:
    total = table.n_rows * table.n_cols
    if k < 1 or k > total:
        raise KTooLarge(f"k={k} outside 1..{total}")
    rng = random.Random(ctx.gold_seed)
    grid = expand_grid(table)
    flat = rng.sample(range(total), k)
    positions = [(i // table.n_cols + 1, i % table.n_cols + 1) for i in flat]
    cells = [{"position": [r, c], "value": grid.content_at(r, c)} for r, c in positions]
    phrase = ", ".join(f"({r}, {c})" for r, c in positions)
    return _finish(table, TaskKind.TCE, ctx, {"cells": cells}, {"cells": phrase})


def unique_nonempty_anchors(table: Table) -> list:
    """Anchors whose content is non-empty and occurs exactly once."""
    counts = Counter(a.content for a in table.anchors)
    return [a for a in expand_grid(table).anchors() if a.content and counts[a.content] == 1]


def synth_tcl(table: Table, k: int, ctx: SampleContext) -> Sample:
    candidates = unique_nonempty_anchors(table)
    if k < 1 or k > len(candidates):
        raise InsufficientUniqueCells(
            f"need {k} content-unique non-empty cells, table has {len(candidates)}"
        )
    rng = random.Random(ctx.gold_seed)
    chosen = rng.sample(candidates, k)
    cells = [{"value": a.content, "position": [a.row, a.col]} for a in chosen]
    phrase = ", ".join(f"'{a.content}'" for a in chosen)
    return _finish(table, TaskKind.TCL, ctx, {"cells": cells}, {"cells": phrase})


def synth_mcd(table: Table, ctx: SampleContext) -> Sample:
    regions = merged_regions(table)
    gold = {
        "has_merged": bool(regions),
        "regions": [[[tl.row_id, tl.col_id], [br.row_id, br.col_id]] for tl, br in regions],
    }
    return _finish(table, TaskKind.MCD, ctx, gold, {})


def _line_phrase(axis: str, ids: Sequence[int]) -> str:
    noun = axis if len(ids) == 1 else axis + "s"
    if len(ids) == 1:
        return f"{noun} {ids[0]}"
    head = ", ".join(str(i) for i in ids[:-1])
    return f"{noun} {head} and {ids[-1]}"


def synth_rce(table: Table, ctx: SampleContext) -> Sample:
    rng = random.Random(ctx.gold_seed)
    axis = rng.choice(("row", "column"))
    length = table.n_rows if axis == "row" else table.n_cols
    size = rng.randint(1, min(3, length))
    ids = sorted(rng.sample(range(1, length + 1), size))
    grid = expand_grid(table)
    lines: dict[str, list[str]] = {}
    for i in ids:
        cells = grid.row(i) if axis == "row" else grid.column(i)
        lines[str(i)] = [a.content for a in cells]
    gold = {"axis": axis, "lines": lines}
    return _finish(table, TaskKind.RCE, ctx, gold, {"cells": _line_phrase(axis, ids)})


def _draw_format(
    rng: random.Random, weights: Mapping[TableFormat, float], has_spans: bool
) -> TableFormat:
    fmts = list(TableFormat)
    ws = [float(weights.get(f, 0.0)) for f in fmts]
    fmt = rng.choices(fmts, weights=ws)[0]
    if fmt is TableFormat.MARKDOWN and has_spans:
        # pipe tables cannot express spans; redraw over the other formats
        fmts = [f for f in fmts if f is not TableFormat.MARKDOWN]
        ws = [float(weights.get(f, 0.0)) for f in fmts]
        if left_sum(ws) <= 0.0:
            return TableFormat.HTML
        fmt = rng.choices(fmts, weights=ws)[0]
    return fmt


def synth_tr(
    table: Table,
    fmt: TableFormat | None,
    ctx: SampleContext,
    weights: Mapping[TableFormat, float] | None = None,
) -> Sample:
    if fmt is None:
        rng = random.Random(ctx.gold_seed)
        fmt = _draw_format(rng, weights or DEFAULT_TR_WEIGHTS, table.has_spans())
    gold = {"answer": serialize(table, fmt)}
    return _finish(
        table, TaskKind.TR, ctx, gold, {"format_name": FORMAT_NAMES[fmt]}, tr_format=fmt
    )


def wrap_qa(table: Table, task_input: str, task_output: str, ctx: SampleContext) -> Sample:
    if not task_input or not task_output:
        raise ValueError("qa wrapping needs non-empty input and output text")
    gold = {"answer": task_output}
    return _finish(table, TaskKind.QA_WRAP, ctx, gold, {"question": task_input})


def compose_multiturn(
    samples: Sequence[Sample], *, fraction: float, master_seed: int
) -> tuple[tuple[Sample, ...], frozenset[str]]:
    """Builds 2-4 turn conversations from train-split singles that share a
    table. Returns (conversations, ids of singles consumed into them)."""
    if fraction <= 0.0:
        return (), frozenset()
    groups: dict[str, list[Sample]] = {}
    for s in samples:
        if s.meta.get("split") == "train" and s.turns is None:
            groups.setdefault(s.table_id, []).append(s)
    conversations: list[Sample] = []
    consumed: set[str] = set()
    index = 0
    for table_id in sorted(groups):
        group = groups[table_id]
        if len(group) < 2:
            continue
        rng = random.Random(derive_seed(master_seed, "multiturn", table_id))
        if rng.random() >= fraction:
            continue
        n_turns = rng.randint(2, min(4, len(group)))
        chosen = rng.sample(group, n_turns)
        turns = tuple(
            Turn(s.task, s.request, s.gold_response, s.gold_answer, s.sample_id) for s in chosen
        )
        head = chosen[0]
        conversations.append(
            Sample(
                sample_id=f"multiturn-train-{index:06d}",
                table_id=table_id,
                task=head.task,
                image_ref=head.image_ref,
                request=head.request,
                gold_response=head.gold_response,
                gold_answer=head.gold_answer,
                turns=turns,
                meta={**head.meta, "turn_count": len(turns)},
            )
        )
        index += 1
        consumed.update(t.source_sample_id for t in turns)
    return tuple(conversations), frozenset(consumed)


def _default_counts() -> dict[TaskKind, tuple[int, int]]:
    return {t: (80, 10) for t in STRUCTURE_TASKS}


@dataclass(frozen=True)
class SynthConfig:
    counts: Mapping[TaskKind, tuple[int, int]] = field(default_factory=_default_counts)
    tce_cells_per_sample: int = 3
    tcl_cells_per_sample: int = 3
    tr_format_weights: Mapping[TableFormat, float] = field(
        default_factory=lambda: dict(DEFAULT_TR_WEIGHTS)
    )
    multiturn_fraction: float = 0.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        for task, (train_n, eval_n) in self.counts.items():
            if train_n < 0 or eval_n < 0:
                raise ValueError(f"counts for {task.value} must be >= 0")
        check_weights(self.tr_format_weights, "tr_format_weights")
        if not 0.0 <= self.multiturn_fraction <= 1.0:
            raise ValueError("multiturn_fraction must be in [0, 1]")
        if self.tce_cells_per_sample < 1 or self.tcl_cells_per_sample < 1:
            raise ValueError("cells per sample must be >= 1")


@dataclass(frozen=True)
class SynthResult:
    samples: tuple[Sample, ...]
    shortfalls: dict[str, int]
    conversations: int
    consumed_singles: int
    qa_pairs_skipped: int
    # the style drawn for each table a sample refers to, by table id
    styles: dict[str, StyleSpec] = field(default_factory=dict)


def partition_tables(
    pairs: Sequence[tuple[str, Table]], config: SynthConfig
) -> tuple[tuple[tuple[str, Table], ...], tuple[tuple[str, Table], ...]]:
    """Disjoint (train, eval) table pools, shuffled under the master seed and
    split in proportion to the aggregate per-split demand."""
    ordered = sorted(pairs, key=lambda p: p[0])
    rng = random.Random(derive_seed(config.master_seed, "partition"))
    shuffled = list(ordered)
    rng.shuffle(shuffled)
    total_train = sum(c[0] for c in config.counts.values())
    total_eval = sum(c[1] for c in config.counts.values())
    if not shuffled or total_eval == 0:
        return tuple(shuffled), ()
    if total_train == 0:
        return (), tuple(shuffled)
    eval_n = round(len(shuffled) * total_eval / (total_eval + total_train))
    eval_n = min(len(shuffled) - 1, max(1, eval_n))
    return tuple(shuffled[eval_n:]), tuple(shuffled[:eval_n])


STRUCTURE_TASKS = (
    TaskKind.TSD,
    TaskKind.TCE,
    TaskKind.TCL,
    TaskKind.MCD,
    TaskKind.RCE,
    TaskKind.TR,
)


def synthesize(
    tables: Iterable[Table],
    config: SynthConfig | None = None,
    pool: TemplatePool | None = None,
    qa_pairs: Sequence[Mapping[str, str]] = (),
    style_mix: StyleMix | None = None,
    style_ranges: dict | None = None,
) -> SynthResult:
    """Generates the configured sample counts from the table corpus.

    Tables cycle within their split pool; a shortfall is recorded when a
    count cannot be met (empty pool, or no table satisfies a task's
    precondition), never padded. QA pairs reference tables by id; when
    the config has no explicit QA_WRAP count every usable pair is wrapped.
    A table id (source_id, else table-<index>) given twice raises ValueError.
    """
    config = config if config is not None else SynthConfig()
    pool = pool if pool is not None else default_pool()
    style_mix = style_mix if style_mix is not None else DEFAULT_STYLE_MIX

    table_by_id: dict[str, Table] = {}
    for i, table in enumerate(tables):
        table_id = table.source_id or f"table-{i:05d}"
        if table_id in table_by_id:
            raise ValueError(f"table id {table_id!r} is repeated")
        table_by_id[table_id] = table
    train_pool, eval_pool = partition_tables(list(table_by_id.items()), config)
    pools = {"train": train_pool, "eval": eval_pool}

    styles: dict[str, StyleSpec] = {}

    def family_of(table_id: str) -> str:
        spec = styles.get(table_id)
        if spec is None:
            spec = sample_style(style_mix, style_seed(config.master_seed, table_id), style_ranges)
            styles[table_id] = spec
        return spec.family.value

    def make_context(task: TaskKind, split: str, index: int, table_id: str) -> SampleContext:
        return SampleContext(
            sample_id=f"{task.value}-{split}-{index:06d}",
            table_id=table_id,
            image_ref=f"images/{table_id}.svg",
            gold_seed=derive_seed(config.master_seed, table_id, task.value, index, "gold"),
            request_seed=derive_seed(config.master_seed, table_id, task.value, index, "request"),
            pool=pool,
            meta={"style_family": family_of(table_id), "split": split},
        )

    tcl_ok: dict[str, bool] = {}

    def qualifies_tcl(table_id: str, table: Table) -> bool:
        ok = tcl_ok.get(table_id)
        if ok is None:
            ok = len(unique_nonempty_anchors(table)) >= config.tcl_cells_per_sample
            tcl_ok[table_id] = ok
        return ok

    singles: list[Sample] = []
    shortfalls: dict[str, int] = {}

    for task in STRUCTURE_TASKS:
        train_n, eval_n = config.counts.get(task, (0, 0))
        for split, count in (("train", train_n), ("eval", eval_n)):
            split_pool = pools[split]
            made = 0
            for index in range(count):
                if not split_pool:
                    break
                pos = index % len(split_pool)
                if task is TaskKind.TCL:
                    # the assigned table may lack enough unique cells; probe forward
                    for step in range(len(split_pool)):
                        cand_id, cand = split_pool[(pos + step) % len(split_pool)]
                        if qualifies_tcl(cand_id, cand):
                            pos = (pos + step) % len(split_pool)
                            break
                    else:
                        continue
                table_id, table = split_pool[pos]
                ctx = make_context(task, split, index, table_id)
                if task is TaskKind.TSD:
                    sample = synth_tsd(table, ctx)
                elif task is TaskKind.TCE:
                    k = min(config.tce_cells_per_sample, table.n_rows * table.n_cols)
                    sample = synth_tce(table, k, ctx)
                elif task is TaskKind.TCL:
                    sample = synth_tcl(table, config.tcl_cells_per_sample, ctx)
                elif task is TaskKind.MCD:
                    sample = synth_mcd(table, ctx)
                elif task is TaskKind.RCE:
                    sample = synth_rce(table, ctx)
                else:
                    sample = synth_tr(table, None, ctx, config.tr_format_weights)
                singles.append(sample)
                made += 1
            if made < count:
                shortfalls[f"{task.value}-{split}"] = count - made

    train_ids = {tid for tid, _ in train_pool}
    qa_split: dict[str, list[tuple[str, str, str]]] = {"train": [], "eval": []}
    qa_skipped = 0
    for pair in qa_pairs:
        tid = str(pair.get("table_id", ""))
        question = str(pair.get("question", "") or "")
        answer = str(pair.get("answer", "") or "")
        if tid not in table_by_id or not question or not answer:
            qa_skipped += 1
            continue
        qa_split["train" if tid in train_ids else "eval"].append((tid, question, answer))
    if TaskKind.QA_WRAP in config.counts:
        qa_counts = config.counts[TaskKind.QA_WRAP]
    else:
        qa_counts = (len(qa_split["train"]), len(qa_split["eval"]))
    for split, count in (("train", qa_counts[0]), ("eval", qa_counts[1])):
        available = qa_split[split]
        for index, (tid, question, answer) in enumerate(available[:count]):
            ctx = make_context(TaskKind.QA_WRAP, split, index, tid)
            singles.append(wrap_qa(table_by_id[tid], question, answer, ctx))
        if count > len(available):
            shortfalls[f"qa_wrap-{split}"] = count - len(available)

    conversations, consumed = compose_multiturn(
        singles, fraction=config.multiturn_fraction, master_seed=config.master_seed
    )
    emitted = tuple(s for s in singles if s.sample_id not in consumed) + conversations
    return SynthResult(
        samples=emitted,
        shortfalls=shortfalls,
        conversations=len(conversations),
        consumed_singles=len(consumed),
        qa_pairs_skipped=qa_skipped,
        styles=styles,
    )
