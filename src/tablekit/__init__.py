"""Toolkit that builds multimodal table-understanding benchmarks and
scores predictions against them.

The pieces compose left to right: a canonical table model (`core`),
strict and tolerant text formats (`formats`), deterministic SVG
rendering (`render`), instruction templating (`templates`), sample
synthesis (`tasks`), metrics (`metrics`), and a pipeline plus CLI that
tie a corpus directory to a finished dataset (`pipeline`, `cli`).

The names taken from `render`, `tasks` and `templates` load those modules
when first used, so a program that only scores never imports them.
"""

from __future__ import annotations

__version__ = "0.1.0"

import importlib

from .core import AnchorCell, Grid, InvalidTable, Table, table_from_dict, table_to_dict, validate
from .formats import convert, detect_format, parse, serialize
from .formats.common import ParseError, TableFormat, UnrepresentableInFormat
from .taskdefs import TaskKind

# each name is read from its module on every access, never kept here, so
# that it is always the module's current binding
_LAZY = {
    name: module
    for module, names in {
        "render": ("DEFAULT_STYLE_MIX", "StyleFamily", "StyleMix", "StyleSpec", "render_svg", "sample_style"),
        "tasks": ("Sample", "SynthConfig", "SynthResult", "synthesize"),
        "templates": ("ExpansionResult", "TemplatePool", "default_pool", "expand_pool", "load_pool"),
    }.items()
    for name in names
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "__version__",
    "AnchorCell",
    "Grid",
    "InvalidTable",
    "Table",
    "table_from_dict",
    "table_to_dict",
    "validate",
    "convert",
    "detect_format",
    "parse",
    "serialize",
    "ParseError",
    "TableFormat",
    "UnrepresentableInFormat",
    "DEFAULT_STYLE_MIX",
    "StyleFamily",
    "StyleMix",
    "StyleSpec",
    "render_svg",
    "sample_style",
    "TaskKind",
    "Sample",
    "SynthConfig",
    "SynthResult",
    "synthesize",
    "ExpansionResult",
    "TemplatePool",
    "default_pool",
    "expand_pool",
    "load_pool",
]
