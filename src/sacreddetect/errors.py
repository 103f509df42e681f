"""Exception types shared across the pipeline.

Each class carries the exit code cli.run returns for it: ConfigError and
LexiconError 2, PrerequisiteError 3, ProviderError 4, and any other
SacredDetectError 1. Everything else is a bug and surfaces as a traceback.
"""


class SacredDetectError(Exception):
    """Base class for all pipeline errors."""

    exit_code = 1


class ConfigError(SacredDetectError):
    """Invalid configuration file or configuration values."""

    exit_code = 2


class PrerequisiteError(SacredDetectError):
    """A stage was run before the stage(s) it depends on."""

    exit_code = 3


class ProviderError(SacredDetectError):
    """A live LLM provider failed at the run level (auth, quota, network)."""

    exit_code = 4


class CdxParseError(SacredDetectError):
    """The CDX server response could not be parsed."""


class LexiconError(SacredDetectError):
    """The lexicon file failed to parse or validate."""

    exit_code = 2


class CoverageError(SacredDetectError):
    """A label source does not cover the corpus."""


class StageLockedError(SacredDetectError):
    """Another stage execution holds the output-root lock."""


class CorruptLineError(SacredDetectError, ValueError):
    """A JSONL line is not valid UTF-8 or not valid JSON."""
