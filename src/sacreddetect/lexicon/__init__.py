"""Hierarchical religious-concept lexicon and word-boundary matching."""
