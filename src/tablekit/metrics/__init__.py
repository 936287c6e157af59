"""Metrics: answer extraction, task scoring, BLEU, and table-tree similarity."""

from .bleu import LengthMismatch, bleu, tokenize
from .evaluate import (
    FileFormatError,
    MetricReport,
    aggregate,
    answers_match,
    evaluate,
    normalize_cell,
    score_cell_accuracy,
    score_mcd,
    score_rce,
    score_sample,
    score_set_f1,
    score_tsd,
)
from .extraction import ExtractionResult, ExtractionStatus, extract_json_answer
from .teds import (
    TreeNode,
    html_to_tree,
    levenshtein,
    table_to_tree,
    teds,
    teds_of_trees,
    tree_edit_distance,
    tree_size,
)

__all__ = [
    "LengthMismatch",
    "bleu",
    "tokenize",
    "FileFormatError",
    "MetricReport",
    "aggregate",
    "answers_match",
    "evaluate",
    "normalize_cell",
    "score_cell_accuracy",
    "score_mcd",
    "score_rce",
    "score_sample",
    "score_set_f1",
    "score_tsd",
    "ExtractionResult",
    "ExtractionStatus",
    "extract_json_answer",
    "TreeNode",
    "html_to_tree",
    "levenshtein",
    "table_to_tree",
    "teds",
    "teds_of_trees",
    "tree_edit_distance",
    "tree_size",
]
