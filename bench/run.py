"""tablekit benchmark: `synth` and `eval` end to end, or per layer.

    python3 bench/run.py --workload synth_corpus --seed 1 --seconds 35 --trace 0

Workloads (see bench/README.md):
  synth_corpus  cmd_synth at 2 workers over a seeded corpus of 2,000 tables
  eval_replay   cmd_eval of the gold responses against a seeded gold dataset
  eval_noisy    cmd_eval of a seeded simulated model against that dataset

With --trace 0 the measured call runs in a fresh process per round, rounds
repeat for about --seconds (at least three if they fit), and the end-to-end
metrics are the medians over rounds. With --trace 1 the workload runs once in this
process with every layer's public functions wrapped, at one worker; the
spans go to .bench_work/traces/. Either way every output is checked and
the last line of stdout is the JSON result. Run from the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import model

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("synth_corpus", "eval_replay", "eval_noisy")
SYNTH_TABLES = (2000, 30, 10)  # tables, max rows, max cols
EVAL_TABLES = (250, 12, 8)
EVAL_SPLIT = 0.1  # share of tables in the eval split
SYNTH_TASK_SHARE = 0.5  # structure tasks other than tsd, per table
EVAL_TASK_SHARE = 1.0
WORKERS = 2
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120  # one round; with --seconds 35 a run stays under 180 s
REPLAY_COVER_CELLS = 24  # trace of synth_corpus: replay samples on tables this small
REPLAY_COVER_PER_TASK = 40
OVERHEAD_REPEATS = 3  # traced run: untraced and traced calls, alternating


class RoundFailed(RuntimeError):
    pass


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def strict_parse():
    """tablekit's strict parser, from this checkout's sources, returning a
    table dict."""
    sys.path.insert(0, str(ROOT / "src"))
    from tablekit import TableFormat, parse, table_to_dict
    return lambda text, fmt: table_to_dict(parse(text, TableFormat(fmt))[0])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


class Inputs:
    """The workload's generated corpus, QA pairs and synth config."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        big = workload == "synth_corpus"
        n, max_rows, max_cols = SYNTH_TABLES if big else EVAL_TABLES
        self.seed = seed
        self.tables = gen.build_corpus(seed, gen.shapes(n, max_rows, max_cols))
        gen.write_corpus(self.tables, work / "corpus")
        pairs = gen.qa_pairs(self.tables, seed)
        self.qa = {p["table_id"]: p["answer"] for p in pairs}
        (work / "qa.json").write_text(json.dumps(pairs), encoding="utf-8")
        self.config_path = gen.write_config(
            work, work / "corpus", work / "qa.json", gen.pool_sizes(n, EVAL_SPLIT), seed,
            SYNTH_TASK_SHARE if big else EVAL_TASK_SHARE)
        self.config = json.loads(self.config_path.read_text(encoding="utf-8"))

    def check_dataset(self, out: Path, parse, full: bool) -> tuple[list[str], list[dict]]:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        records = checks.read_jsonl(out / "samples.jsonl")
        problems = checks.dataset_files(out, manifest, records)
        if full:
            problems += checks.dataset_counts(manifest, records, self.config, self.qa)
            problems += checks.gold_answers(records, self.tables, self.qa, parse)
        return problems, records


def write_predictions(workload: str, records: list[dict], inputs: Inputs, path: Path):
    """Prediction lines for the eval workload, and what the report must say."""
    if workload == "eval_replay":
        lines = [{"sample_id": r["sample_id"], "responses": [t["gold_response"] for t in r["turns"]]}
                 if r.get("turns") else {"sample_id": r["sample_id"], "response": r["gold_response"]}
                 for r in records]
        expect = None
    else:
        lines, expect, ghosts = model.noisy_predictions(records, inputs.tables, inputs.qa, inputs.seed)
        expect = (expect, ghosts)
    path.write_text("".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines),
                    encoding="utf-8")
    return expect


def check_report(report: dict, n_turns: int, expect) -> list[str]:
    if expect is None:
        return checks.replay_report(report, n_turns)
    return checks.noisy_report(report, *expect)


# ---------------------------------------------------------------------------
# timed run: one fresh process per round
# ---------------------------------------------------------------------------


def spawn(args: list[str]) -> dict:
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(ROOT), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundFailed(proc.stderr.strip()[-3000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    inputs = Inputs(workload, seed, work)
    parse = strict_parse()
    problems: list[str] = []
    empty = work / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    spawn(["eval", str(empty), str(empty), str(work / "warm.json")])  # compiles bytecode once

    if workload == "synth_corpus":
        first_manifest: list[str] = []

        def one_round(i: int) -> dict:
            out = work / f"round{i}"
            result = spawn(["synth", str(inputs.config_path), str(out), str(WORKERS)])
            found, records = inputs.check_dataset(out, parse, full=(i == 0))
            digest = sha256(out / "manifest.json")
            first_manifest.append(digest)
            if digest != first_manifest[0]:
                found.append(f"round {i} manifest differs from round 0 under the same seed")
            result["done"] = len(records)
            problems.extend(found)
            shutil.rmtree(out)
            return result
    else:
        gold = work / "gold"
        spawn(["synth", str(inputs.config_path), str(gold), str(WORKERS)])
        found, records = inputs.check_dataset(gold, parse, full=True)
        problems.extend(found)
        n_turns = len(model.gold_turns(records))
        predictions = work / "predictions.jsonl"
        expect = write_predictions(workload, records, inputs, predictions)

        def one_round(i: int) -> dict:
            report_path = work / f"report{i}.json"
            result = spawn(["eval", str(predictions), str(gold / "samples.jsonl"), str(report_path)])
            report = json.loads(report_path.read_text(encoding="utf-8"))
            problems.extend(check_report(report, n_turns, expect))
            report_path.unlink()
            return result

    rounds: list[dict] = []
    failed = 0
    start = time.monotonic()

    def another_round() -> bool:
        """Start a round if it should end within --seconds, so that a run lasts
        about --seconds however long its rounds are; short of MIN_ROUNDS,
        start one as long as --seconds has not run out."""
        n, elapsed = len(rounds) + failed, time.monotonic() - start
        return n == 0 or elapsed * (1 + 1 / n) <= seconds or (n < MIN_ROUNDS and elapsed < seconds)

    while another_round():
        try:
            rounds.append(one_round(len(rounds) + failed))
        except (RoundFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
            log(f"round failed: {exc}")
            failed += 1
            if failed >= MIN_ROUNDS:
                break
        else:
            r = rounds[-1]
            log(f"round {len(rounds) - 1}: setup {r['setup_s']:.3f} s, wall {r['wall_s']:.3f} s, "
                f"{r['done']} samples, peak rss {r['peak_rss_mb']:.1f} MB")
    for problem in problems[:checks.MAX_REPORTED]:
        log(f"CHECK FAILED: {problem}")

    per_round = rounds[0]["done"] if rounds else 1
    attempted = per_round * (len(rounds) + failed)
    if not rounds:
        return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}
    median = lambda key: statistics.median(r[key] for r in rounds)  # noqa: E731
    metrics = {
        "setup_s": (median("setup_s"), "s"),
        "wall_s": (median("wall_s"), "s"),
        "samples_per_s": (statistics.median(r["done"] / r["wall_s"] for r in rounds), "samples/s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }
    return {"correct": not problems and not failed, "attempted": attempted,
            "failed": per_round * failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# traced run: in this process, one worker, every layer wrapped
# ---------------------------------------------------------------------------


def traced_run(workload: str, seed: int, work: Path) -> dict:
    import tracing

    inputs = Inputs(workload, seed, work)
    parse = strict_parse()
    from tablekit import pipeline  # calls go through the module, so wrappers apply

    config = pipeline.PipelineConfig.from_file(inputs.config_path)
    tracer = tracing.Tracer()
    problems: list[str] = []

    def overhead(plain_call, traced_call) -> tuple[float, float]:
        """Median untraced and traced times over alternating repeats; the
        layer numbers come from the first traced repeat."""
        plain, traced = [], []
        for rep in range(OVERHEAD_REPEATS):
            start = time.perf_counter()
            plain_call(rep)
            plain.append(time.perf_counter() - start)
            with (tracer if rep == 0 else tracing.Tracer()).installed():
                start = time.perf_counter()
                traced_call(rep)
                traced.append(time.perf_counter() - start)
        return statistics.median(plain), statistics.median(traced)

    if workload == "synth_corpus":
        def synth(name: str, rep: int) -> None:
            out = work / f"{name}{rep}"
            pipeline.cmd_synth(config, out, workers=1)
            if rep or name == "plain":
                shutil.rmtree(out)

        plain, traced = overhead(lambda rep: synth("plain", rep), lambda rep: synth("traced", rep))
        found, records = inputs.check_dataset(work / "traced0", parse, full=True)
        problems += found
        attempted = len(records)
        # the eval layers, on a gold replay of the small tables' samples
        chosen: list[dict] = []
        per_task: dict[str, int] = {}
        for r in records:
            table = inputs.tables[r["table_id"]]
            if table["n_rows"] * table["n_cols"] <= REPLAY_COVER_CELLS and not r.get("turns"):
                if per_task.get(r["task"], 0) < REPLAY_COVER_PER_TASK:
                    per_task[r["task"]] = per_task.get(r["task"], 0) + 1
                    chosen.append(r)
        gold = work / "cover.jsonl"
        gold.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in chosen), encoding="utf-8")
        write_predictions("eval_replay", chosen, inputs, work / "cover-predictions.jsonl")
        with tracer.installed():
            report = pipeline.cmd_eval(work / "cover-predictions.jsonl", gold).to_dict()
        problems += checks.replay_report(report, len(chosen))
    else:
        gold = work / "gold"
        with tracer.installed():
            pipeline.cmd_synth(config, gold, workers=1)
        found, records = inputs.check_dataset(gold, parse, full=True)
        problems += found
        predictions = work / "predictions.jsonl"
        expect = write_predictions(workload, records, inputs, predictions)
        gold_samples = gold / "samples.jsonl"
        plain, traced = overhead(
            lambda rep: pipeline.cmd_eval(predictions, gold_samples, work / "plain.json"),
            lambda rep: pipeline.cmd_eval(predictions, gold_samples, work / f"report{rep}.json"))
        report = json.loads((work / "report0.json").read_text(encoding="utf-8"))
        attempted = len(model.gold_turns(records))
        problems += check_report(report, attempted, expect)

    for problem in problems[:checks.MAX_REPORTED]:
        log(f"CHECK FAILED: {problem}")
    trace_path = WORK_ROOT / "traces" / f"{workload}-seed{seed}.json"
    tracer.write(trace_path, {"workload": workload, "seed": seed, "untraced_s": plain, "traced_s": traced})
    log(f"traced {traced:.3f} s against untraced {plain:.3f} s, medians of {OVERHEAD_REPEATS} "
        f"(overhead x{traced / plain:.3f}); spans in {trace_path}")
    for line in tracer.self_time_table():
        log(line)
    return {"correct": not problems, "attempted": attempted, "failed": 0,
            "metrics": tracing.layer_metrics(tracer, traced / plain)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tablekit" / "__init__.py").is_file():
        log(f"error: no tablekit sources under {ROOT / 'src'}; run from a tablekit checkout")
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, work)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, work)
    except RoundFailed as exc:  # set-up (warm-up or gold build) could not run
        log(f"error: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
