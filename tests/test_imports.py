"""What importing tablekit loads: scoring never loads the synth side.

`tablekit eval`, `stats` and `convert` import the pipeline and the CLI but
never render, template or synthesize, so `tablekit.render`, `tasks`,
`templates` and `textmetrics` load only when synth or render first uses
them. The package's names from those modules resolve when first read.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tablekit
from tablekit.pipeline import PipelineConfig, cmd_synth

SYNTH_SIDE = ("tablekit.render", "tablekit.tasks", "tablekit.templates", "tablekit.textmetrics")

_EVAL_SCRIPT = """\
import json, sys
from tablekit.pipeline import PipelineConfig, cmd_eval, cmd_synth
import tablekit.cli
imported = set(sys.modules)
cmd_eval(sys.argv[1], sys.argv[2], sys.argv[3])
print(json.dumps({"imported": sorted(imported), "by_eval": sorted(set(sys.modules) - imported)}))
"""


def _replay_dataset(tmp_path: Path) -> tuple[Path, Path]:
    """A small synth dataset of every structure task and conversations, and
    predictions that replay its gold responses."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.html").write_text(
        "<table><tr><th>h</th><th>i</th></tr><tr><td>1</td><td>2</td></tr>"
        "<tr><td colspan=2>3</td></tr></table>",
        encoding="utf-8",
    )
    (corpus / "b.md").write_text("| x | y |\n| --- | --- |\n| 3 | 4 |\n| 5 | 6 |\n", encoding="utf-8")
    counts = {task: [2, 2] for task in ("tsd", "tce", "tcl", "mcd", "rce", "tr")}
    config = PipelineConfig.from_dict(
        {"corpus_dir": "corpus", "master_seed": 5, "counts": counts, "multiturn_fraction": 0.3},
        base_dir=tmp_path,
    )
    cmd_synth(config, tmp_path / "out")
    gold = tmp_path / "out" / "samples.jsonl"
    predictions = tmp_path / "predictions.jsonl"
    with gold.open(encoding="utf-8") as lines, predictions.open("w", encoding="utf-8") as out:
        for line in lines:
            record = json.loads(line)
            if record["turns"]:
                answer = {"sample_id": record["sample_id"], "responses": [t["gold_response"] for t in record["turns"]]}
            else:
                answer = {"sample_id": record["sample_id"], "response": record["gold_response"]}
            out.write(json.dumps(answer) + "\n")
    return predictions, gold


def test_eval_loads_no_synth_module_and_imports_nothing_while_it_scores(tmp_path):
    predictions, gold = _replay_dataset(tmp_path)
    src = Path(tablekit.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _EVAL_SCRIPT, str(predictions), str(gold), str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "tablekit.cli" in loaded["imported"]
    assert [name for name in loaded["imported"] if name in SYNTH_SIDE] == []
    assert loaded["by_eval"] == []
    per_task = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["per_task"]
    assert sorted(per_task) == ["mcd", "rce", "tce", "tcl", "tr", "tsd"]


def test_every_public_name_resolves_and_is_listed():
    listed = dir(tablekit)
    for name in tablekit.__all__:
        assert name in listed, name
        value = getattr(tablekit, name)
        module = getattr(value, "__module__", None)
        if module in SYNTH_SIDE:
            # the module's current binding, never a copy kept in the package
            assert value is getattr(sys.modules[module], name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from tablekit import *", namespace)
    assert [name for name in tablekit.__all__ if name not in namespace] == []
    assert namespace["render_svg"] is sys.modules["tablekit.render"].render_svg


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tablekit.no_such_name
    assert not hasattr(tablekit, "StyleSpecs")
    assert getattr(tablekit, "pipeline_v2", None) is None
