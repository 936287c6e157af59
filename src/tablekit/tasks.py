"""Synthesis of instruction samples from canonical tables.

Six structure tasks are generated directly from a Table; externally
supplied question/answer pairs are wrapped into the same sample shape;
single-turn samples over one table can be composed into multi-turn
conversations. Every random draw is seeded from (master_seed, table_id,
task, index) so synthesis is order- and parallelism-independent.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, TypeVar

from .core import Table, expand_grid, merged_regions
from .formats import serialize
from .formats.common import TableFormat
from .numeric import check_weights, left_sum
from .render import DEFAULT_STYLE_MIX, StyleMix, StyleSpec, sample_style
from .taskdefs import TaskKind
from .templates import TemplatePool, build_request, default_pool


T = TypeVar("T")


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


def unique_cell_count(table: Table) -> int:
    """len(unique_nonempty_anchors(table)) of a valid table, without
    expanding its grid: each content that occurs once is one such anchor."""
    counts = Counter(a.content for a in table.anchors)
    return sum(1 for content, n in counts.items() if content and n == 1)


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
    if not task_input.strip() or not task_output.strip():
        raise ValueError("qa wrapping needs non-blank input and output text")
    gold = {"answer": task_output}
    return _finish(table, TaskKind.QA_WRAP, ctx, gold, {"question": task_input})


def _pick_turns(
    groups: Mapping[str, Sequence[T]], fraction: float, master_seed: int
) -> list[tuple[str, list[T]]]:
    """The conversations drawn from train-split singles grouped by table, in
    table id order: (table id, its 2-4 turns). A table's draw is seeded from
    its id alone, so it depends only on the length of its group."""
    picked = []
    for table_id in sorted(groups):
        group = groups[table_id]
        if len(group) < 2:
            continue
        rng = random.Random(derive_seed(master_seed, "multiturn", table_id))
        if rng.random() >= fraction:
            continue
        n_turns = rng.randint(2, min(4, len(group)))
        picked.append((table_id, rng.sample(group, n_turns)))
    return picked


def _conversation(index: int, chosen: Sequence[Sample]) -> Sample:
    """The conversation numbered index whose turns are the chosen singles;
    the first turn gives its top-level fields."""
    turns = tuple(
        Turn(s.task, s.request, s.gold_response, s.gold_answer, s.sample_id) for s in chosen
    )
    head = chosen[0]
    return Sample(
        sample_id=f"multiturn-train-{index:06d}",
        table_id=head.table_id,
        task=head.task,
        image_ref=head.image_ref,
        request=head.request,
        gold_response=head.gold_response,
        gold_answer=head.gold_answer,
        turns=turns,
        meta={**head.meta, "turn_count": len(turns)},
    )


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
    conversations = tuple(
        _conversation(index, chosen)
        for index, (_, chosen) in enumerate(_pick_turns(groups, fraction, master_seed))
    )
    consumed = frozenset(t.source_sample_id for c in conversations for t in c.turns)
    return conversations, consumed


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
    pool: TemplatePool = field(default_factory=default_pool)
    style_mix: StyleMix = DEFAULT_STYLE_MIX
    style_ranges: dict | None = None  # None: the shipped ranges

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


def partition_tables(table_ids: Iterable[str], config: SynthConfig) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Disjoint (train, eval) pools of table ids, shuffled under the master
    seed and split in proportion to the aggregate per-split demand."""
    shuffled = sorted(table_ids)
    rng = random.Random(derive_seed(config.master_seed, "partition"))
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


# one single sample as plan fixes it, everything but the table's content:
# (task, split, its number within its task and split, table id, question,
# answer), the last two a qa_wrap's and empty otherwise. A plain tuple, as a
# plan is sent to every synth shard process and plain tuples pickle fastest.
PlannedSample = tuple[TaskKind, str, int, str, str, str]


@dataclass(frozen=True)
class Plan:
    """What synthesize emits, decided from table ids and cell counts alone."""

    singles: tuple[PlannedSample, ...]  # in synthesis order
    # per emitted sample, in output order, the singles it is made of: one
    # single, or a conversation's turns; the conversations come last
    outputs: tuple[tuple[int, ...], ...]
    conversations: int
    shortfalls: dict[str, int]
    qa_pairs_skipped: int

    @property
    def consumed_singles(self) -> int:
        """How many singles became turns of a conversation."""
        return len(self.singles) - (len(self.outputs) - self.conversations)

    def table_of(self, position: int) -> str:
        return self.singles[self.outputs[position][0]][3]


def plan(
    unique_cells: Mapping[str, int],
    config: SynthConfig | None = None,
    qa_pairs: Sequence[Mapping[str, str]] = (),
) -> Plan:
    """Fixes every emitted sample from each table's id and its count of
    content-unique non-empty cells (unique_cell_count).

    Tables cycle within their split pool; a tcl sample whose table has too
    few unique cells moves forward to the next table that has enough. A
    shortfall is recorded when a count cannot be met (empty pool, or no table
    satisfies a task's precondition), never padded. QA pairs reference tables
    by id; when the config has no explicit QA_WRAP count every usable pair is
    wrapped.
    """
    config = config if config is not None else SynthConfig()
    train_ids, eval_ids = partition_tables(unique_cells, config)
    pools = {"train": train_ids, "eval": eval_ids}

    singles: list[PlannedSample] = []
    shortfalls: dict[str, int] = {}
    for task in STRUCTURE_TASKS:
        train_n, eval_n = config.counts.get(task, (0, 0))
        for split, count in (("train", train_n), ("eval", eval_n)):
            ids = pools[split]
            # the pool positions a sample of the task may take
            usable = range(len(ids))
            if task is TaskKind.TCL:
                usable = [i for i in usable if unique_cells[ids[i]] >= config.tcl_cells_per_sample]
            made = count if usable else 0
            for index in range(made):
                pos = index % len(ids)
                # the first usable position at or after pos, wrapping round
                pos = usable[bisect.bisect_left(usable, pos) % len(usable)]
                singles.append((task, split, index, ids[pos], "", ""))
            if made < count:
                shortfalls[f"{task.value}-{split}"] = count - made

    train_ids = set(pools["train"])
    qa_split: dict[str, list[tuple[str, str, str]]] = {"train": [], "eval": []}
    qa_skipped = 0
    for pair in qa_pairs:
        tid = str(pair.get("table_id", ""))
        question = str(pair.get("question", "") or "")
        answer = str(pair.get("answer", "") or "")
        if tid not in unique_cells or not question.strip() or not answer.strip():
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
            singles.append((TaskKind.QA_WRAP, split, index, tid, question, answer))
        if count > len(available):
            shortfalls[f"qa_wrap-{split}"] = count - len(available)

    picked: list[tuple[str, list[int]]] = []
    if config.multiturn_fraction > 0.0:
        groups: dict[str, list[int]] = {}
        for i, (_, split, _, table_id, _, _) in enumerate(singles):
            if split == "train":
                groups.setdefault(table_id, []).append(i)
        picked = _pick_turns(groups, config.multiturn_fraction, config.master_seed)
    consumed = {i for _, turns in picked for i in turns}
    outputs = [(i,) for i in range(len(singles)) if i not in consumed]
    outputs += [tuple(turns) for _, turns in picked]
    return Plan(
        singles=tuple(singles),
        outputs=tuple(outputs),
        conversations=len(picked),
        shortfalls=shortfalls,
        qa_pairs_skipped=qa_skipped,
    )


def materialize(
    planned: Plan,
    tables: Mapping[str, Table],
    config: SynthConfig | None = None,
) -> tuple[dict[int, Sample], dict[str, StyleSpec]]:
    """The planned samples on the given tables, by output position, and the
    style drawn for each of those tables. Samples on other tables are left
    out, so disjoint sets of tables build disjoint shares of the output."""
    config = config if config is not None else SynthConfig()
    styles: dict[str, StyleSpec] = {}

    def build(single: PlannedSample) -> Sample:
        task, split, index, table_id, question, answer = single
        table = tables[table_id]
        spec = styles.get(table_id)
        if spec is None:
            spec = sample_style(config.style_mix, style_seed(config.master_seed, table_id), config.style_ranges)
            styles[table_id] = spec
        ctx = SampleContext(
            sample_id=f"{task.value}-{split}-{index:06d}",
            table_id=table_id,
            image_ref=f"images/{table_id}.svg",
            gold_seed=derive_seed(config.master_seed, table_id, task.value, index, "gold"),
            request_seed=derive_seed(config.master_seed, table_id, task.value, index, "request"),
            pool=config.pool,
            meta={"style_family": spec.family.value, "split": split},
        )
        if task is TaskKind.TSD:
            return synth_tsd(table, ctx)
        if task is TaskKind.TCE:
            return synth_tce(table, min(config.tce_cells_per_sample, table.n_rows * table.n_cols), ctx)
        if task is TaskKind.TCL:
            return synth_tcl(table, config.tcl_cells_per_sample, ctx)
        if task is TaskKind.MCD:
            return synth_mcd(table, ctx)
        if task is TaskKind.RCE:
            return synth_rce(table, ctx)
        if task is TaskKind.TR:
            return synth_tr(table, None, ctx, config.tr_format_weights)
        return wrap_qa(table, question, answer, ctx)

    samples: dict[int, Sample] = {}
    first_conversation = len(planned.outputs) - planned.conversations
    for position, made_of in enumerate(planned.outputs):
        if planned.table_of(position) in tables:
            built = [build(planned.singles[i]) for i in made_of]
            samples[position] = (
                built[0]
                if position < first_conversation
                else _conversation(position - first_conversation, built)
            )
    return samples, styles


def synthesize(
    tables: Mapping[str, Table],
    config: SynthConfig | None = None,
    qa_pairs: Sequence[Mapping[str, str]] = (),
) -> SynthResult:
    """Generates the configured sample counts from the tables, by id: plan,
    then materialize over every table (see both)."""
    unique_cells = {table_id: unique_cell_count(table) for table_id, table in tables.items()}
    planned = plan(unique_cells, config, qa_pairs)
    samples, _ = materialize(planned, tables, config)
    return SynthResult(
        samples=tuple(samples[p] for p in range(len(planned.outputs))),
        shortfalls=planned.shortfalls,
        conversations=planned.conversations,
        consumed_singles=planned.consumed_singles,
        qa_pairs_skipped=planned.qa_pairs_skipped,
    )
