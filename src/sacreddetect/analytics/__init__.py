"""Joined label matrix and the comparative statistics computed from it."""

from .consistency import ConsistencyGroup, duplicate_consistency
from .matrix import LabelMatrix, MatrixRow, tabulate
from .reports import render_from_bundle
from .stats import (
    AgreementStats,
    DisagreementRatios,
    GroupRates,
    RateCell,
    RatioCell,
    disagreement_ratios,
    group_rates,
    pairwise_agreement,
)
from .terms import TermReport, term_report

__all__ = [
    "AgreementStats",
    "ConsistencyGroup",
    "DisagreementRatios",
    "GroupRates",
    "LabelMatrix",
    "MatrixRow",
    "RateCell",
    "RatioCell",
    "TermReport",
    "disagreement_ratios",
    "duplicate_consistency",
    "group_rates",
    "pairwise_agreement",
    "render_from_bundle",
    "tabulate",
    "term_report",
]
