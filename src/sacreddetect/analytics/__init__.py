"""Label counts of the corpus and the comparative statistics computed from them."""

from .consistency import duplicate_consistency
from .matrix import LabelMatrix, tabulate
from .reports import render_from_bundle
from .stats import disagreement_ratios, group_rates, pairwise_agreement
from .terms import term_report

__all__ = [
    "LabelMatrix",
    "disagreement_ratios",
    "duplicate_consistency",
    "group_rates",
    "pairwise_agreement",
    "render_from_bundle",
    "tabulate",
    "term_report",
]
