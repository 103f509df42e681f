"""Exception types shared across the pipeline.

Exit-code mapping (see cli.run): ConfigError -> 2, PrerequisiteError -> 3,
ProviderError -> 4, any other SacredDetectError -> 1. Everything else is a
bug and surfaces as a traceback.
"""


class SacredDetectError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(SacredDetectError):
    """Invalid configuration file or configuration values."""


class PrerequisiteError(SacredDetectError):
    """A stage was run before the stage(s) it depends on."""


class ProviderError(SacredDetectError):
    """A live LLM provider failed at the run level (auth, quota, network)."""


class CdxParseError(SacredDetectError):
    """The CDX server response could not be parsed."""


class LexiconError(SacredDetectError):
    """The lexicon file failed to parse or validate."""


class CoverageError(SacredDetectError):
    """A label source does not cover the corpus."""


class StageLockedError(SacredDetectError):
    """Another stage execution holds the output-root lock."""


class CorruptLineError(SacredDetectError, ValueError):
    """A JSONL line is not valid UTF-8 or not valid JSON."""
