"""Instruction template pools and request construction.

A pool holds, per task, a list of instruction templates and a list of
format hints (short descriptions of the required JSON answer shape).
Requests are built by drawing one of each uniformly under a seed and
substituting the task inputs into the template placeholders.
"""

from __future__ import annotations

import functools
import json
import random
import re
import subprocess
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterator

from .taskdefs import REQUIRED_PLACEHOLDERS, TaskKind, allowed_placeholders


class PoolFormatError(ValueError):
    """The pool file does not have the expected shape."""


class PoolExpansionError(RuntimeError):
    """The external expansion command failed to produce usable output."""


class DuplicateId(PoolFormatError):
    """Two entries of the same kind share an id."""


class MissingMandatoryDefault(PoolFormatError):
    """A built-in task has no template or no hint in the pool."""


class MissingPlaceholder(KeyError):
    """A template references a placeholder absent from the task input."""


_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class Template:
    id: str
    task: TaskKind
    body: str

    def placeholders(self) -> set[str]:
        return set(_PLACEHOLDER.findall(self.body))


@dataclass(frozen=True)
class FormatHint:
    id: str
    task: TaskKind
    body: str


@dataclass(frozen=True)
class TemplatePool:
    """Entries per task; a task the pool has none of draws from default_pool()."""

    templates: dict[TaskKind, tuple[Template, ...]] = field(default_factory=dict)
    hints: dict[TaskKind, tuple[FormatHint, ...]] = field(default_factory=dict)

    def templates_for(self, task: TaskKind) -> tuple[Template, ...]:
        return self.templates.get(task) or default_pool().templates[task]

    def hints_for(self, task: TaskKind) -> tuple[FormatHint, ...]:
        return self.hints.get(task) or default_pool().hints[task]


def _placeholder_problem(template: Template) -> str | None:
    used = template.placeholders()
    unknown = used - allowed_placeholders(template.task)
    if unknown:
        return f"template {template.id!r} uses placeholders {sorted(unknown)} not defined for task {template.task.value}"
    missing = REQUIRED_PLACEHOLDERS[template.task] - used
    if missing:
        return f"template {template.id!r} is missing required placeholders {sorted(missing)} for task {template.task.value}"
    return None


_TASK_NAMES = frozenset(task.value for task in TaskKind)


def _read_entries(
    kind: type[Template] | type[FormatHint], task_name: str, entries: list, seen: set[str]
) -> Iterator[tuple[str, Template | FormatHint | PoolFormatError]]:
    """The one reader of pool entries, for pool files and expansions alike.

    Yields (label, entry) for each entry of a task's list, in order, or
    (label, error) for an entry it refuses: an entry of an unknown task, one
    whose 'id' or 'body' is not a JSON string, one whose id is in seen
    (DuplicateId), or a template with placeholders its task lacks or does
    not define. The label is the entry's id once its id and body read, else
    "<task>[<i>]". The id of each entry it accepts joins seen."""
    for i, raw in enumerate(entries):
        if task_name not in _TASK_NAMES:
            yield f"{task_name}[{i}]", PoolFormatError(f"unknown task {task_name!r}")
        elif not (isinstance(raw, dict) and isinstance(raw.get("id"), str) and isinstance(raw.get("body"), str)):
            yield f"{task_name}[{i}]", PoolFormatError("entry needs 'id' and 'body' strings")
        elif raw["id"] in seen:
            yield raw["id"], DuplicateId("duplicate id")
        else:
            entry = kind(raw["id"], TaskKind(task_name), raw["body"])
            problem = _placeholder_problem(entry) if kind is Template else None
            if problem is None:
                seen.add(entry.id)
            yield entry.id, entry if problem is None else PoolFormatError(problem)


def _build_pool(data: dict) -> TemplatePool:
    if not isinstance(data, dict) or "templates" not in data or "hints" not in data:
        raise PoolFormatError("pool must be an object with 'templates' and 'hints' sections")
    sections: dict[str, dict] = {}
    for section, kind in (("templates", Template), ("hints", FormatHint)):
        if not isinstance(data[section], dict):
            raise PoolFormatError(f"'{section}' must map task names to entry lists")
        sink = sections[section] = {}
        seen: set[str] = set()
        for task_name, entries in data[section].items():
            if task_name not in _TASK_NAMES:  # refused even when its list is empty
                raise PoolFormatError(f"{section}: unknown task {task_name!r}")
            if not isinstance(entries, list):
                raise PoolFormatError(f"'{section}.{task_name}' must be a list")
            read = []
            for label, entry in _read_entries(kind, task_name, entries, seen):
                if isinstance(entry, PoolFormatError):
                    raise type(entry)(f"{section} {label}: {entry}")
                read.append(entry)
            sink[TaskKind(task_name)] = tuple(read)
    for task in TaskKind:
        for section, sink in sections.items():
            if not sink.get(task):
                raise MissingMandatoryDefault(f"no {section} for built-in task {task.value}")
    return TemplatePool(**sections)


def load_pool(path: str | Path) -> TemplatePool:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PoolFormatError(f"pool file is not valid JSON: {exc}")
    return _build_pool(data)


@functools.cache
def default_pool() -> TemplatePool:
    """The shipped pool: at least 20 templates and 5 hints per task."""
    text = resources.files("tablekit.data").joinpath("default_templates.json").read_text(encoding="utf-8")
    return _build_pool(json.loads(text))


@dataclass(frozen=True)
class ExpansionResult:
    pool: TemplatePool
    accepted: tuple[Template, ...]
    rejected: tuple[tuple[str, str], ...]  # (entry label, reason)


def expand_pool(pool: TemplatePool, command: str, timeout: float = 60.0) -> ExpansionResult:
    """Grows a pool's template lists through an external command.

    The command receives the templates each task draws from (templates_for,
    so the shipped ones for a task the pool leaves out) as JSON on standard
    input, shaped {"templates": {"<task>": [{"id": ..., "body": ...}, ...]}},
    and must print candidate templates in the same shape on standard output.
    The new pool holds those templates and the accepted candidates.
    Candidates are read by the reader of pool files; an entry it refuses is
    dropped and reported in `rejected` with the reason a pool file raises,
    never raised. Hints are not expanded. The command crashing,
    timing out, or printing something other than the expected JSON raises
    PoolExpansionError.
    """
    current = {task: pool.templates_for(task) for task in TaskKind}
    seed = {
        "templates": {
            task.value: [{"id": t.id, "body": t.body} for t in entries]
            for task, entries in current.items()
        }
    }
    try:
        proc = subprocess.run(
            command.split(),
            input=json.dumps(seed).encode("utf-8"),
            capture_output=True,
            timeout=timeout,
        )
    except FileNotFoundError as exc:
        raise PoolExpansionError(f"expansion command not found: {command.split()[0]}") from exc
    except subprocess.TimeoutExpired as exc:
        raise PoolExpansionError(f"expansion command timed out after {timeout}s") from exc
    if proc.returncode != 0:
        detail = proc.stderr.decode("utf-8", "replace").strip()[:200]
        raise PoolExpansionError(f"expansion command exited {proc.returncode}: {detail}")
    try:
        data = json.loads(proc.stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PoolExpansionError(f"expansion command printed invalid JSON: {exc}")
    if not isinstance(data, dict) or not isinstance(data.get("templates"), dict):
        raise PoolExpansionError("expansion output must be an object with a 'templates' map")

    seen_ids = {t.id for entries in current.values() for t in entries}
    accepted: list[Template] = []
    rejected: list[tuple[str, str]] = []
    for task_name, entries in data["templates"].items():
        if not isinstance(entries, list):
            raise PoolExpansionError(f"'templates.{task_name}' must be a list")
        for label, entry in _read_entries(Template, task_name, entries, seen_ids):
            if isinstance(entry, PoolFormatError):
                rejected.append((label, str(entry)))
            else:
                accepted.append(entry)

    merged = {task: list(entries) for task, entries in current.items()}
    for entry in accepted:
        merged[entry.task].append(entry)
    new_pool = TemplatePool({t: tuple(v) for t, v in merged.items()}, pool.hints)
    return ExpansionResult(new_pool, tuple(accepted), tuple(rejected))


def build_request(
    pool: TemplatePool,
    task: TaskKind,
    task_input: dict[str, str],
    rng_seed: int,
) -> str:
    """One template and one hint, drawn uniformly and independently under the
    seed; placeholders substituted from task_input. The hint is appended after
    a newline unless the template inlines it via {format_hint}."""
    rng = random.Random(rng_seed)
    template = rng.choice(pool.templates_for(task))
    hint = rng.choice(pool.hints_for(task))
    inline_hint = "format_hint" in template.placeholders()
    values = dict(task_input)
    if inline_hint:
        values["format_hint"] = hint.body

    # single pass so substituted content is never rescanned for markers
    def _fill(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise MissingPlaceholder(f"task input lacks {{{name}}} for template {template.id!r}")
        return str(values[name])

    text = _PLACEHOLDER.sub(_fill, template.body)
    if not inline_hint:
        text = text + "\n" + hint.body
    return text
