"""Tests for the instruction template pool and request builder."""

from __future__ import annotations

import collections
import hashlib
import json

import pytest

from tablekit.taskdefs import TaskKind
from tablekit.templates import (
    DuplicateId,
    FormatHint,
    MissingMandatoryDefault,
    MissingPlaceholder,
    PoolFormatError,
    Template,
    TemplatePool,
    build_request,
    default_pool,
    load_pool,
)

TASK_INPUTS = {
    TaskKind.TSD: {},
    TaskKind.TCE: {"cells": "(1, 2), (2, 1), (3, 3)"},
    TaskKind.TCL: {"cells": "'alpha', 'beta', 'gamma'"},
    TaskKind.MCD: {},
    TaskKind.RCE: {"cells": "row 2"},
    TaskKind.TR: {"format_name": "HTML"},
    TaskKind.QA_WRAP: {"question": "Which fleet has the most ships?"},
}


def _seed(tag: str, i: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{tag}|{i}".encode()).digest()[:8], "big")


def _expected_text(template: Template, hint: FormatHint, values: dict) -> str:
    # independent reconstruction: each marker occurs at most once in the
    # shipped bodies and the test values contain no marker syntax
    body = template.body
    inline = "{format_hint}" in body
    if inline:
        body = body.replace("{format_hint}", hint.body)
    for name, value in values.items():
        body = body.replace("{" + name + "}", value)
    if not inline:
        body = body + "\n" + hint.body
    return body


def test_default_pool_counts():
    pool = default_pool()
    for task in TaskKind:
        assert len(pool.templates_for(task)) >= 20
        assert len(pool.hints_for(task)) >= 5
    template_ids = [t.id for entries in pool.templates.values() for t in entries]
    hint_ids = [h.id for entries in pool.hints.values() for h in entries]
    assert len(template_ids) == len(set(template_ids))
    assert len(hint_ids) == len(set(hint_ids))


def test_requests_deterministic():
    pool = default_pool()
    for task in TaskKind:
        for i in range(10):
            seed = _seed("det", i)
            a = build_request(pool, task, TASK_INPUTS[task], seed)
            b = build_request(pool, task, TASK_INPUTS[task], seed)
            assert a == b
    texts = {build_request(pool, TaskKind.TSD, {}, _seed("vary", i)) for i in range(50)}
    assert len(texts) > 1


def test_all_markers_resolved():
    pool = default_pool()
    markers = ["{cells}", "{format_name}", "{question}", "{format_hint}"]
    for task in TaskKind:
        for i in range(300):
            text = build_request(pool, task, TASK_INPUTS[task], _seed("markers", i))
            for marker in markers:
                assert marker not in text
            assert text.strip()


def test_substitution_and_hint_append():
    task = TaskKind.TCE
    pool = TemplatePool(
        templates={task: (Template("t1", task, "Extract {cells} now."),)},
        hints={task: (FormatHint("h1", task, "Answer as JSON."),)},
    )
    text = build_request(pool, task, {"cells": "(1, 1)"}, 0)
    assert text == "Extract (1, 1) now.\nAnswer as JSON."


def test_inline_format_hint_not_duplicated():
    task = TaskKind.TSD
    pool = TemplatePool(
        templates={task: (Template("t1", task, "Count rows.\n{format_hint}"),)},
        hints={task: (FormatHint("h1", task, "Use JSON."),)},
    )
    text = build_request(pool, task, {}, 3)
    assert text == "Count rows.\nUse JSON."
    assert text.count("Use JSON.") == 1


def test_substituted_content_is_not_rescanned():
    task = TaskKind.QA_WRAP
    pool = TemplatePool(
        templates={task: (Template("t1", task, "Q: {question}"),)},
        hints={task: (FormatHint("h1", task, "JSON only."),)},
    )
    text = build_request(pool, task, {"question": "does {cells} stay literal?"}, 1)
    assert "{cells}" in text


def test_missing_placeholder_raises():
    pool = default_pool()
    with pytest.raises(MissingPlaceholder):
        build_request(pool, TaskKind.TCE, {}, 5)
    with pytest.raises(MissingPlaceholder):
        build_request(pool, TaskKind.QA_WRAP, {"cells": "x"}, 5)


def test_extra_inputs_ignored():
    pool = default_pool()
    text = build_request(pool, TaskKind.TSD, {"unused": "zzz"}, 9)
    assert "zzz" not in text


def test_empty_pool_serves_fallbacks():
    pool = TemplatePool()
    for task in TaskKind:
        text = build_request(pool, task, TASK_INPUTS[task], 11)
        assert text.strip()
        assert "{" + "format_hint" + "}" not in text


def test_a_pool_without_a_task_draws_it_from_the_default_pool():
    task = TaskKind.TCE
    own = TemplatePool(
        templates={task: (Template("t1", task, "Extract {cells} now."),), TaskKind.TSD: ()},
        hints={task: (FormatHint("h1", task, "Answer as JSON."),)},
    )
    shipped = default_pool()
    assert build_request(own, task, TASK_INPUTS[task], 0) == "Extract (1, 2), (2, 1), (3, 3) now.\nAnswer as JSON."
    for other in TaskKind:
        if other is task:
            continue
        assert own.templates_for(other) == shipped.templates[other]
        assert own.hints_for(other) == shipped.hints[other]
        for i in range(20):
            seed = _seed("partial", i)
            assert build_request(own, other, TASK_INPUTS[other], seed) == build_request(shipped, other, TASK_INPUTS[other], seed)


def _pool_dict() -> dict:
    required = {
        "tce": " {cells}",
        "tcl": " {cells}",
        "rce": " {cells}",
        "tr": " {format_name}",
        "qa_wrap": "\n{question}",
    }
    data: dict = {"templates": {}, "hints": {}}
    for task in TaskKind:
        name = task.value
        data["templates"][name] = [{"id": f"{name}-t1", "body": "Do the task." + required.get(name, "")}]
        data["hints"][name] = [{"id": f"{name}-h1", "body": "Answer as JSON."}]
    return data


def _write(tmp_path, data) -> str:
    path = tmp_path / "pool.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def test_load_pool_roundtrip(tmp_path):
    pool = load_pool(_write(tmp_path, _pool_dict()))
    for task in TaskKind:
        assert len(pool.templates_for(task)) == 1
        assert pool.templates_for(task)[0].id == f"{task.value}-t1"
        assert len(pool.hints_for(task)) == 1
    text = build_request(pool, TaskKind.TR, {"format_name": "Markdown"}, 4)
    assert "Markdown" in text and text.endswith("Answer as JSON.")


def test_load_pool_rejects_bad_shapes(tmp_path):
    with pytest.raises(PoolFormatError):
        load_pool(_write(tmp_path, "not json {"))
    with pytest.raises(PoolFormatError):
        load_pool(_write(tmp_path, [1, 2]))
    data = _pool_dict()
    del data["hints"]
    with pytest.raises(PoolFormatError):
        load_pool(_write(tmp_path, data))
    data = _pool_dict()
    data["templates"]["bogus_task"] = [{"id": "x", "body": "y"}]
    with pytest.raises(PoolFormatError):
        load_pool(_write(tmp_path, data))
    data = _pool_dict()
    data["templates"]["tsd"].append({"id": "only-an-id"})
    with pytest.raises(PoolFormatError):
        load_pool(_write(tmp_path, data))


def test_load_pool_rejects_duplicate_ids(tmp_path):
    data = _pool_dict()
    data["templates"]["tce"][0]["id"] = "tsd-t1"
    with pytest.raises(DuplicateId):
        load_pool(_write(tmp_path, data))
    data = _pool_dict()
    data["hints"]["mcd"].append({"id": "mcd-h1", "body": "again"})
    with pytest.raises(DuplicateId):
        load_pool(_write(tmp_path, data))
    # template ids and hint ids live in separate spaces
    data = _pool_dict()
    data["hints"]["tsd"][0]["id"] = "tsd-t1"
    load_pool(_write(tmp_path, data))


def test_load_pool_requires_full_coverage(tmp_path):
    data = _pool_dict()
    del data["templates"]["mcd"]
    with pytest.raises(MissingMandatoryDefault):
        load_pool(_write(tmp_path, data))
    data = _pool_dict()
    data["hints"]["rce"] = []
    with pytest.raises(MissingMandatoryDefault):
        load_pool(_write(tmp_path, data))


def test_load_pool_validates_placeholders(tmp_path):
    data = _pool_dict()
    data["templates"]["tce"][0]["body"] = "Extract some cells."  # lacks {cells}
    with pytest.raises(PoolFormatError):
        load_pool(_write(tmp_path, data))
    data = _pool_dict()
    data["templates"]["tsd"][0]["body"] = "Count {cells}."  # not allowed for this task
    with pytest.raises(PoolFormatError):
        load_pool(_write(tmp_path, data))
    data = _pool_dict()
    data["templates"]["mcd"][0]["body"] = "Find merges {bogus}."
    with pytest.raises(PoolFormatError):
        load_pool(_write(tmp_path, data))


def test_default_pool_draws_cover_every_entry_uniformly():
    pool = default_pool()
    task = TaskKind.TCE
    values = TASK_INPUTS[task]
    lookup = {}
    for template in pool.templates_for(task):
        for hint in pool.hints_for(task):
            lookup[_expected_text(template, hint, values)] = (template.id, hint.id)
    counts: collections.Counter = collections.Counter()
    n = 10_000
    for i in range(n):
        text = build_request(pool, task, values, _seed("cover", i))
        assert text in lookup
        counts[lookup[text]] += 1
    assert {t for t, _ in counts} == {t.id for t in pool.templates_for(task)}
    assert {h for _, h in counts} == {h.id for h in pool.hints_for(task)}
    pairs = [(t.id, h.id) for t in pool.templates_for(task) for h in pool.hints_for(task)]
    expected = n / len(pairs)
    chi2 = sum((counts.get(p, 0) - expected) ** 2 / expected for p in pairs)
    assert chi2 < 148.3  # 0.999 quantile of chi-square at 99 degrees of freedom
    for pair in pairs:
        # expectation 100 per pair, standard deviation just under 10
        assert 60 <= counts.get(pair, 0) <= 140


def test_synthetic_grid_uniformity():
    task = TaskKind.TCE
    pool = TemplatePool(
        templates={task: tuple(Template(f"t{i:02d}", task, f"T{i:02d} {{cells}}") for i in range(20))},
        hints={task: tuple(FormatHint(f"h{j:02d}", task, f"H{j:02d}") for j in range(20))},
    )
    counts: collections.Counter = collections.Counter()
    n = 10_000
    for i in range(n):
        text = build_request(pool, task, {"cells": "(1, 1)"}, _seed("grid", i))
        first, second = text.split("\n")
        counts[(first.split()[0], second)] += 1
    expected = n / 400.0
    chi2 = sum(
        (counts.get((f"T{i:02d}", f"H{j:02d}"), 0) - expected) ** 2 / expected
        for i in range(20)
        for j in range(20)
    )
    assert chi2 < 492.2  # 0.999 quantile of chi-square at 399 degrees of freedom
    for i in range(20):
        for j in range(20):
            # expectation 25 per pair, four standard deviations is just under 20
            assert 5 <= counts.get((f"T{i:02d}", f"H{j:02d}"), 0) <= 45


# ---------------------------------------------------------------------------
# external pool expansion
# ---------------------------------------------------------------------------

_EXPANDER = """\
import json, sys

seed = json.load(sys.stdin)
first_tsd_id = seed["templates"]["tsd"][0]["id"]
print(json.dumps({
    "templates": {
        "tsd": [
            {"id": "x-tsd-1", "body": "Count the rows and columns of the pictured table."},
            {"id": "x-tsd-2", "body": "Report the {bogus} of the table."},
            {"id": first_tsd_id, "body": "Count the rows again."},
        ],
        "tce": [
            {"id": "x-tce-1", "body": "Copy out the cells {cells} from the image."},
            {"id": "x-tce-2", "body": "Copy out some cells from the image."},
            {"id": "x-tce-3"},
        ],
        "zzz": [
            {"id": "x-zzz-1", "body": "whatever"}
        ],
    }
}))
"""


def _write_expander(tmp_path, text: str) -> str:
    import sys

    script = tmp_path / "expander.py"
    script.write_text(text, encoding="utf-8")
    return f"{sys.executable} {script}"


def test_expand_pool_filters_candidates(tmp_path):
    from tablekit.templates import expand_pool

    pool = default_pool()
    result = expand_pool(pool, _write_expander(tmp_path, _EXPANDER))

    assert [t.id for t in result.accepted] == ["x-tsd-1", "x-tce-1"]
    reasons = dict(result.rejected)
    assert "placeholders ['bogus']" in reasons["x-tsd-2"]
    assert "missing required placeholders ['cells']" in reasons["x-tce-2"]
    first_tsd_id = pool.templates[TaskKind.TSD][0].id
    assert reasons[first_tsd_id] == "duplicate id"
    assert "'id' and 'body'" in reasons["tce[2]"]
    assert "unknown task" in reasons["zzz[0]"]

    # merged pool grows by exactly the accepted entries; hints untouched
    assert len(result.pool.templates[TaskKind.TSD]) == len(pool.templates[TaskKind.TSD]) + 1
    assert len(result.pool.templates[TaskKind.TCE]) == len(pool.templates[TaskKind.TCE]) + 1
    assert result.pool.hints is pool.hints
    assert any(t.id == "x-tce-1" for t in result.pool.templates_for(TaskKind.TCE))
    # the input pool is not mutated
    assert all(not t.id.startswith("x-") for t in pool.templates_for(TaskKind.TSD))

    # requests draw from the merged pool deterministically
    a = build_request(result.pool, TaskKind.TSD, {}, 7)
    b = build_request(result.pool, TaskKind.TSD, {}, 7)
    assert a == b


def test_expand_pool_keeps_the_shipped_templates_of_a_task_the_pool_leaves_out(tmp_path):
    from tablekit.templates import TemplatePool, expand_pool

    shipped = default_pool().templates
    reused = shipped[TaskKind.TSD][0].id
    seen = tmp_path / "seen.json"
    output = json.dumps({"templates": {"tsd": [
        {"id": "x1", "body": "Count the rows and columns."},
        {"id": reused, "body": "Count them."},
    ]}})  # fmt: skip
    expander = f"import sys\nopen({str(seen)!r}, 'w').write(sys.stdin.read())\nprint({output!r})\n"
    result = expand_pool(TemplatePool(), _write_expander(tmp_path, expander))

    # the expander sees, and the reader checks ids against, what each task draws
    sent = json.loads(seen.read_text(encoding="utf-8"))["templates"]
    assert {task: [t["id"] for t in entries] for task, entries in sent.items()} == {
        task.value: [t.id for t in shipped[task]] for task in TaskKind
    }
    assert result.rejected == ((reused, "duplicate id"),)
    # the 20 shipped tsd templates plus x1 are drawn; every other task is unchanged
    drawn = [t.id for t in result.pool.templates_for(TaskKind.TSD)]
    assert drawn == [t.id for t in shipped[TaskKind.TSD]] + ["x1"] and len(drawn) == 21
    for task in TaskKind:
        if task is not TaskKind.TSD:
            assert result.pool.templates_for(task) == shipped[task]


# one malformed entry each: (task, entry, reason, label in `rejected`)
_MALFORMED_ENTRIES = {
    "unknown task": ("zzz", {"id": "x-1", "body": "Do it."}, "unknown task 'zzz'", "zzz[0]"),
    "integer id": ("tsd", {"id": 7, "body": "Count the rows."}, "entry needs 'id' and 'body' strings", "tsd[0]"),
    "null body": ("tsd", {"id": "x-1", "body": None}, "entry needs 'id' and 'body' strings", "tsd[0]"),
    "reused id": ("tsd", {"id": "tsd-t1", "body": "Count the rows."}, "duplicate id", "tsd-t1"),
    "missing placeholder": (
        "tce",
        {"id": "x-1", "body": "Copy out some cells."},
        "template 'x-1' is missing required placeholders ['cells'] for task tce",
        "x-1",
    ),
    "unknown placeholder": (
        "tsd",
        {"id": "x-1", "body": "Report the {bogus}."},
        "template 'x-1' uses placeholders ['bogus'] not defined for task tsd",
        "x-1",
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED_ENTRIES))
def test_pool_files_and_expansions_refuse_an_entry_alike(tmp_path, case):
    task_name, entry, reason, label = _MALFORMED_ENTRIES[case]
    data = _pool_dict()
    data["templates"].setdefault(task_name, []).append(entry)
    with pytest.raises(PoolFormatError) as raised:
        load_pool(_write(tmp_path, data))
    assert str(raised.value).endswith(": " + reason)
    assert isinstance(raised.value, DuplicateId) == (reason == "duplicate id")

    from tablekit.templates import expand_pool

    pool = load_pool(_write(tmp_path, _pool_dict()))
    output = json.dumps({"templates": {task_name: [entry]}})
    result = expand_pool(pool, _write_expander(tmp_path, f"print({output!r})\n"))
    assert result.accepted == ()
    assert result.rejected == ((label, reason),)


def test_expand_pool_command_failures(tmp_path):
    import sys

    from tablekit.templates import PoolExpansionError, expand_pool

    pool = default_pool()
    failing = _write_expander(tmp_path, "import sys; sys.stderr.write('boom'); sys.exit(3)\n")
    with pytest.raises(PoolExpansionError, match="exited 3"):
        expand_pool(pool, failing)

    not_json = _write_expander(tmp_path, "print('this is not json')\n")
    with pytest.raises(PoolExpansionError, match="invalid JSON"):
        expand_pool(pool, not_json)

    wrong_shape = _write_expander(tmp_path, "print('[1, 2, 3]')\n")
    with pytest.raises(PoolExpansionError, match="'templates' map"):
        expand_pool(pool, wrong_shape)

    with pytest.raises(PoolExpansionError, match="not found"):
        expand_pool(pool, "no-such-command-zzz")
