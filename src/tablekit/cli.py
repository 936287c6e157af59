"""Command-line entry point.

Subcommands: synth (corpus -> dataset), eval (predictions vs gold),
stats (summarize a samples file), render (one table -> image), and
convert (one table file -> another text format). Exit status is 0 on
success and nonzero on any fatal problem.
"""

from __future__ import annotations

import argparse
import json
import sys

from .formats.common import ParseError, TableFormat, UnrepresentableInFormat
from .metrics.evaluate import FileFormatError
from .pipeline import (
    PipelineConfig,
    PipelineConfigError,
    cmd_convert,
    cmd_eval,
    cmd_render,
    cmd_synth,
    dataset_stats,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tablekit",
        description="Build multimodal table benchmarks and score predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a dataset from a table corpus")
    synth.add_argument("--config", required=True, help="pipeline config JSON")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=None, help="override the master seed")
    synth.add_argument("--workers", type=_positive_int, default=1, help="synth processes, at most one per usable CPU and per corpus file")

    evalp = sub.add_parser("eval", help="score a predictions file against gold samples")
    evalp.add_argument("predictions", help="predictions JSONL")
    evalp.add_argument("gold", help="gold samples JSONL")
    evalp.add_argument("--out", default=None, help="write the full report JSON here")

    stats = sub.add_parser("stats", help="summarize a samples JSONL file")
    stats.add_argument("samples", help="samples JSONL")

    render = sub.add_parser("render", help="render one table file to an image")
    render.add_argument("input", help="table file (.json/.html/.md/.tex)")
    render.add_argument("--out", required=True, help="output image path")
    render.add_argument("--seed", type=int, default=0, help="style draw seed")
    render.add_argument("--format", choices=("svg", "png"), default="svg")
    render.add_argument(
        "--dpi", type=_positive_int, default=None, help="raster dpi (default: the config's raster_dpi, or 96)"
    )
    render.add_argument("--config", default=None, help="pipeline config JSON (style + rasterizer)")

    conv = sub.add_parser("convert", help="convert one table file to another format")
    conv.add_argument("input", help="table file (.json/.html/.md/.tex)")
    conv.add_argument(
        "--format",
        required=True,
        choices=tuple(fmt.value for fmt in TableFormat),
        help="target format",
    )
    conv.add_argument("--out", default=None, help="output path (default: stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    fatal = [PipelineConfigError, FileFormatError, ParseError, UnrepresentableInFormat, OSError]
    try:
        if args.command == "synth":
            config = PipelineConfig.from_file(args.config)
            manifest = cmd_synth(config, args.out, seed=args.seed, workers=args.workers)
            counts = manifest["counts"]
            print(f"wrote {sum(counts.values())} task instances to {args.out}")
            if manifest["shortfalls"]:
                print(f"shortfalls: {manifest['shortfalls']}", file=sys.stderr)
            return 0
        if args.command == "eval":
            report = cmd_eval(args.predictions, args.gold, args.out)
            for line in report.summary_lines():
                print(line)
            return 0
        if args.command == "stats":
            print(json.dumps(dataset_stats(args.samples), ensure_ascii=False, indent=2))
            return 0
        if args.command == "render":
            from .render import RasterizerUnavailable  # here, so that only render loads render

            fatal.append(RasterizerUnavailable)
            config = PipelineConfig.from_file(args.config) if args.config else None
            out = cmd_render(
                args.input,
                args.out,
                seed=args.seed,
                image_format=args.format,
                dpi=args.dpi,
                config=config,
            )
            print(f"wrote {out}")
            return 0
        if args.command == "convert":
            text = cmd_convert(args.input, TableFormat(args.format), args.out)
            if args.out is None:
                print(text, end="" if text.endswith("\n") else "\n")
            else:
                print(f"wrote {args.out}")
            return 0
    except tuple(fatal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # unreachable with required=True subparsers


if __name__ == "__main__":
    sys.exit(main())
