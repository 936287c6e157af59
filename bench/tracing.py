"""Per-layer tracing from outside the program: tablekit's public functions
are wrapped in place for the length of a traced call.

Each wrapped call records its inclusive and self time under a layer name.
Calls of hot functions (thousands per table) are only aggregated; every
other call is also kept as a span (id, parent id, name, start, end) and
written out at the end. A span's self time is its duration minus the time
of the wrapped calls made inside it.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

TASKS = ("tsd", "tce", "tcl", "mcd", "rce", "tr", "qa_wrap")

# (module, function, layer name, hot)
TARGETS = [
    ("tablekit.pipeline", "cmd_synth", "pipeline.cmd_synth", False),
    ("tablekit.pipeline", "load_corpus", "pipeline.load_corpus", False),
    ("tablekit.pipeline", "_render_all", "pipeline.render_all", False),
    ("tablekit.pipeline", "cmd_eval", "pipeline.cmd_eval", False),
    ("tablekit.core", "validate", "core.validate", True),
    ("tablekit.core", "expand_grid", "core.expand_grid", True),
    ("tablekit.core", "table_to_dict", "core.table_to_dict", True),
    ("tablekit.core", "table_from_dict", "core.table_from_dict", True),
    ("tablekit.tasks", "synthesize", "tasks.synthesize", False),
    *[("tablekit.tasks", f"synth_{t}", f"tasks.synth_{t}", False) for t in TASKS[:6]],
    ("tablekit.tasks", "wrap_qa", "tasks.synth_qa_wrap", False),
    ("tablekit.tasks", "compose_multiturn", "tasks.compose_multiturn", False),
    ("tablekit.templates", "build_request", "templates.build_request", False),
    ("tablekit.render", "sample_style", "render.sample_style", False),
    ("tablekit.render", "layout", "render.layout", False),
    ("tablekit.render", "render_svg", "render.render_svg", False),
    ("tablekit.textmetrics", "text_width", "textmetrics.text_width", True),
    ("tablekit.formats.html", "serialize_html", "formats.serialize_html", False),
    ("tablekit.formats.markdown", "serialize_markdown", "formats.serialize_markdown", False),
    ("tablekit.formats.latex", "serialize_latex", "formats.serialize_latex", False),
    *[(f"tablekit.formats.{fmt}", f"parse_{fmt}", f"formats.parse_{fmt}", False)
      for fmt in ("html", "markdown", "latex")],
    ("tablekit.formats", "convert", "formats.convert", False),
    ("tablekit.metrics.extraction", "extract_json_answer", "extraction.extract", False),
    ("tablekit.metrics.teds", "teds", "teds.teds", False),
    ("tablekit.metrics.teds", "html_to_tree", "teds.html_to_tree", False),
    ("tablekit.metrics.teds", "tree_edit_distance", "teds.tree_edit_distance", False),
    ("tablekit.metrics.teds", "levenshtein", "teds.levenshtein", True),
    ("tablekit.metrics.evaluate", "_read_jsonl", "evaluate.read", False),
    ("tablekit.metrics.evaluate", "score_sample", "evaluate.score", False),
    ("tablekit.metrics.evaluate", "aggregate", "evaluate.aggregate", False),
    ("tablekit.metrics.bleu", "bleu", "bleu.bleu", False),
]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.durations: dict[str, list[float]] = {"extraction.extract": [], "evaluate.score": []}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, time in wrapped children]
        self._next_id = 0
        self._t0 = time.perf_counter()

    def _bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _after(self, name: str, args: tuple, result: object) -> None:
        if name == "render.render_svg":
            self._bump("render.svg_bytes", len(result.encode("utf-8")))
        elif name == "extraction.extract":
            self._bump(f"extraction.{result.status.value}")
        elif name == "teds.teds" and args[0] == args[1]:
            self._bump("teds.identical_calls")

    def wrap(self, func, name: str, hot: bool):
        tracer = self
        by_task = name == "evaluate.score"
        kept = self.durations.get(name)

        def wrapper(*args, **kwargs):
            label = f"evaluate.score_{args[0].value}" if by_task else name
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                entry = tracer.stats.setdefault(label, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if kept is not None:
                    kept.append(duration)
                if not hot:
                    tracer.spans.append((frame[0], parent[0] if parent else None, label,
                                         start - tracer._t0, end - tracer._t0))
            tracer._after(name, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Every reference to a target held by a tablekit module, directly or
        as a value of a module-level dict, points at its wrapper inside."""
        import tablekit.pipeline  # noqa: F401  (imports every layer)
        from tablekit.tasks import Sample

        undo = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "tablekit"]
        for module_name, attr, name, hot in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, hot)
            for module in modules:
                space = vars(module)
                for key, value in list(space.items()):
                    if value is original:
                        undo.append((space, key, original))
                        space[key] = wrapper
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                undo.append((value, k, original))
                                value[k] = wrapper
        original_to_dict = Sample.to_dict
        Sample.to_dict = self.wrap(original_to_dict, "tasks.to_dict", True)
        try:
            yield self
        finally:
            Sample.to_dict = original_to_dict
            for space, key, original in reversed(undo):
                space[key] = original

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def p99_ms(self, name: str) -> float:
        values = sorted(self.durations[name])
        return 1000 * values[min(len(values) - 1, int(0.99 * len(values)))] if values else 0.0

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        summary = {name: {"calls": c, "total_s": t, "self_s": s}
                   for name, (c, t, s) in sorted(self.stats.items())}
        payload = {**extra, "summary": summary, "counts": self.counts,
                   "span_fields": ["id", "parent", "name", "start_s", "end_s"], "spans": self.spans}
        path.write_text(json.dumps(payload), encoding="utf-8")

    def self_time_table(self, top: int = 25) -> list[str]:
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])[:top]
        lines = [f"{'layer function':<34}{'calls':>10}{'self s':>10}{'total s':>10}"]
        lines += [f"{name:<34}{c:>10}{s:>10.3f}{t:>10.3f}" for name, (c, t, s) in rows]
        return lines


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, dict]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    t, n = tracer.total, tracer.calls
    values = {
        "pipeline.load_corpus_s": (t("pipeline.load_corpus"), "s"),
        "pipeline.write_digest_s": (tracer.self_time("pipeline.cmd_synth"), "s"),
        "core.validate_calls": (n("core.validate"), "count"),
        "core.validate_s": (t("core.validate"), "s"),
        "core.expand_grid_calls": (n("core.expand_grid"), "count"),
        "tasks.synthesize_s": (t("tasks.synthesize"), "s"),
        **{f"tasks.synth_{task}_s": (t(f"tasks.synth_{task}"), "s") for task in TASKS},
        "tasks.compose_multiturn_s": (t("tasks.compose_multiturn"), "s"),
        "tasks.to_dict_s": (t("tasks.to_dict"), "s"),
        "templates.build_request_s": (t("templates.build_request"), "s"),
        "render.sample_style_calls": (n("render.sample_style"), "count"),
        "render.layout_s": (t("render.layout"), "s"),
        "render.render_svg_s": (t("render.render_svg"), "s"),
        "render.svg_mb": (tracer.counts.get("render.svg_bytes", 0) / 1e6, "MB"),
        "textmetrics.text_width_calls": (n("textmetrics.text_width"), "count"),
        "textmetrics.text_width_s": (t("textmetrics.text_width"), "s"),
        **{f"formats.serialize_{fmt}_s": (t(f"formats.serialize_{fmt}"), "s")
           for fmt in ("html", "markdown", "latex")},
        "formats.convert_calls": (n("formats.convert"), "count"),
        "formats.convert_s": (t("formats.convert"), "s"),
        "extraction.extract_s": (t("extraction.extract"), "s"),
        "extraction.p99_ms": (tracer.p99_ms("extraction.extract"), "ms"),
        **{f"extraction.{route}": (tracer.counts.get(f"extraction.{route}", 0), "count")
           for route in ("parsed_json", "regex_fallback", "raw_text", "failed")},
        "teds.calls": (n("teds.teds"), "count"),
        "teds.identical_calls": (tracer.counts.get("teds.identical_calls", 0), "count"),
        "teds.s": (t("teds.teds"), "s"),
        "teds.html_to_tree_s": (t("teds.html_to_tree"), "s"),
        "teds.tree_edit_distance_s": (t("teds.tree_edit_distance"), "s"),
        "teds.levenshtein_calls": (n("teds.levenshtein"), "count"),
        "teds.levenshtein_s": (t("teds.levenshtein"), "s"),
        "evaluate.read_s": (t("evaluate.read"), "s"),
        **{f"evaluate.score_{task}_s": (t(f"evaluate.score_{task}"), "s") for task in TASKS},
        "evaluate.score_p99_ms": (tracer.p99_ms("evaluate.score"), "ms"),
        "evaluate.aggregate_s": (t("evaluate.aggregate"), "s"),
        "bleu.s": (t("bleu.bleu"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
