"""Outputs that do not depend on how the interpreter rounds a float sum.

From Python 3.12 the built-in sum() compensates the rounding of a float sum
(gh-100425), so sum() of the same floats can end in other bits than on 3.11.
tablekit adds floats left to right through numeric.left_sum, which makes a
synth tree and an eval report byte-identical on Python 3.10-3.13.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil
import random
import sys
from pathlib import Path

import pytest

import tablekit
from tablekit.pipeline import PipelineConfig, cmd_eval, cmd_synth
from tablekit.tasks import STRUCTURE_TASKS

import oracles

# sha256 of the synth manifest's "files" map (canonical JSON) and of the eval
# report's bytes, recorded on Python 3.11; a change that means to alter the
# outputs must record them again
FILES_SHA256 = "ab4986ac4d7076e1cfe1da9d70b7a021ace0d6f9100ec995a9a41990d9ef398f"
REPORT_SHA256 = "a89995d036aa2e4982625820702f21c807c5a28be295384f5b73ced74209d9db"


def _compensated_sum(values, start=0):
    """sum() as CPython 3.12 and later compute it: exact while the total is
    an int, then each float added with Neumaier compensation."""
    total, compensation = start, 0.0
    for x in values:
        if not (isinstance(total, float) and isinstance(x, float)):
            total = total + x
            continue
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation else total


def _edit(text: str, rng: random.Random) -> str:
    """One to three seeded character substitutions, deletions or insertions."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars))
        op = rng.randrange(3)
        if op == 0:
            chars[i] = rng.choice("x7 ")
        elif op == 1:
            del chars[i]
        else:
            chars.insert(i, rng.choice("x7 "))
    return "".join(chars)


def _response(turn: dict, rng: random.Random) -> str:
    # gold responses everywhere, but edited tables, so TEDS means are fractions
    if turn["task"] == "tr":
        return json.dumps({"answer": _edit(turn["gold_answer"]["answer"], rng)})
    return turn["gold_response"]


def _write_predictions(samples: Path, path: Path) -> None:
    rng = random.Random(13)
    lines = []
    for line in samples.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["turns"]:
            responses = [_response(turn, rng) for turn in record["turns"]]
            lines.append({"sample_id": record["sample_id"], "responses": responses})
        else:
            lines.append({"sample_id": record["sample_id"], "response": _response(record, rng)})
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def _synth_and_eval(root: Path, name: str) -> tuple[dict[str, bytes], bytes]:
    """The synth tree ({relative path: bytes}) of the corpus under root at one
    worker, and the eval report of edited gold responses against it."""
    config = PipelineConfig.from_dict(
        {
            "corpus_dir": "corpus",
            "master_seed": 3,
            "multiturn_fraction": 0.3,
            "counts": {task.value: [80, 10] for task in STRUCTURE_TASKS},
        },
        base_dir=root,
    )
    out = root / name
    cmd_synth(config, out / "dataset", workers=1)
    tree = {
        p.relative_to(out / "dataset").as_posix(): p.read_bytes()
        for p in sorted((out / "dataset").rglob("*"))
        if p.is_file()
    }
    _write_predictions(out / "dataset" / "samples.jsonl", out / "predictions.jsonl")
    cmd_eval(out / "predictions.jsonl", out / "dataset" / "samples.jsonl", out / "report.json")
    return tree, (out / "report.json").read_bytes()


def _write_corpus(root: Path) -> None:
    """200 random tables of up to 12x8, as JSON files."""
    corpus = root / "corpus"
    corpus.mkdir()
    rng = random.Random(2024)
    for i in range(200):
        data = oracles.random_table_dict(rng, 12, 8)
        (corpus / f"t{i:04d}.json").write_text(json.dumps(data), encoding="utf-8")


def _digests(tree: dict[str, bytes], report: bytes) -> tuple[str, str]:
    files = json.loads(tree["manifest.json"])["files"]
    canonical = json.dumps(files, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest(), hashlib.sha256(report).hexdigest()


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("float-sums")
    _write_corpus(root)
    return root


@pytest.fixture(scope="module")
def plain_run(corpus_root) -> tuple[dict[str, bytes], bytes]:
    return _synth_and_eval(corpus_root, "plain")


def test_outputs_do_not_depend_on_how_sum_rounds_floats(corpus_root, plain_run, monkeypatch):
    # every float sum goes through left_sum, so giving each tablekit module
    # the compensating sum() of Python 3.12 changes no byte; each module is
    # imported first, so that none the run loads later escapes the patch
    names = ["tablekit", *(info.name for info in pkgutil.walk_packages(tablekit.__path__, "tablekit."))]
    for name in names:
        monkeypatch.setattr(importlib.import_module(name), "sum", _compensated_sum, raising=False)
    tree, report = _synth_and_eval(corpus_root, "compensated")
    # every module of code the run loaded was patched (tablekit.data, a
    # directory of data files, holds none)
    loaded = {name for name, module in sys.modules.items() if name.split(".")[0] == "tablekit" and module.__file__}
    assert loaded <= set(names)
    plain_tree, plain_report = plain_run
    assert sorted(tree) == sorted(plain_tree)
    for rel in plain_tree:
        assert tree[rel] == plain_tree[rel], rel
    assert report == plain_report


def test_outputs_match_the_digests_pinned_on_python_3_11(plain_run):
    files_sha256, report_sha256 = _digests(*plain_run)
    assert files_sha256 == FILES_SHA256
    assert report_sha256 == REPORT_SHA256


def test_compensated_sum_is_the_builtin_of_python_3_12():
    assert _compensated_sum([0.1] * 10) == 1.0  # 0.9999999999999999 added in turn
    assert _compensated_sum([3, 4], 5) == 12 and type(_compensated_sum([3, 4])) is int
    if sys.version_info >= (3, 12):
        rng = random.Random(12)
        for n in range(40):
            values = [rng.uniform(-1e3, 1e3) for _ in range(n)] + [rng.randint(-9, 9), 0.1]
            assert _compensated_sum(values) == sum(values)
            assert _compensated_sum(values, 0.25) == sum(values, 0.25)
