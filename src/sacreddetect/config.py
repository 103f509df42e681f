"""Pipeline configuration: sources, models, fetch policy and paths.

The configuration file is standard TOML, read with the standard
library's tomllib. Each value is type-checked here, and an error names
the field. A key no table knows is an error too, so a misspelt setting
cannot fall back to its default unnoticed. Relative paths are resolved
against the config file's directory. The bundled default configuration
covers the nine NGOs of the study corpus with the 2014-2024 harvest range.
"""

from __future__ import annotations

import difflib
import math
import tomllib
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .analytics.reports import phrase_slug
from .errors import ConfigError
from .judge.prompts import TEMPLATE_IDS

GROUPS = ("religious", "secular")
PROVIDERS = ("openai-batch", "groq-batch", "stub")

DEFAULT_REPORT_PHRASES = ("mother earth", "sacred earth", "ubuntu")


@dataclass(frozen=True)
class SourceSpec:
    """One NGO to harvest: scheme-less base URL plus a year range."""

    ngo_id: str
    group: str
    base_url: str
    from_year: int
    to_year: int

    def validate(self, where: str = "source") -> None:
        if not self.ngo_id:
            raise ConfigError(f"{where}.ngo_id: must be non-empty")
        if self.group not in GROUPS:
            raise ConfigError(
                f"{where}.group: {self.group!r} is not one of {'/'.join(GROUPS)}"
            )
        if "://" in self.base_url or not self.base_url:
            raise ConfigError(
                f"{where}.base_url: {self.base_url!r} must be host-relative "
                "(no scheme prefix)"
            )
        if self.from_year > self.to_year:
            raise ConfigError(
                f"{where}.from_year: {self.from_year} exceeds to_year {self.to_year}"
            )


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    provider: str

    def validate(self, where: str = "model") -> None:
        if not self.model_id:
            raise ConfigError(f"{where}.model_id: must be non-empty")
        if self.provider not in PROVIDERS:
            raise ConfigError(
                f"{where}.provider: {self.provider!r} is not one of {'/'.join(PROVIDERS)}"
            )


@dataclass(frozen=True)
class FetchPolicy:
    """Politeness knobs for live fetching."""

    rate_per_host: float = 1.0  # max requests per second per host
    retries: int = 3
    timeout: float = 20.0
    backoff: float = 2.0  # exponential base for retry delays

    def validate(self) -> None:
        # NaN fails every comparison, so each bound is written to fail on it
        if not 0 < self.rate_per_host < math.inf:
            raise ConfigError("policy.rate_per_host: must be a finite number > 0")
        if self.retries < 0:
            raise ConfigError("policy.retries: must be >= 0")
        if not 0 < self.timeout < math.inf:
            raise ConfigError("policy.timeout: must be a finite number > 0")
        if not 0 <= self.backoff < math.inf:
            raise ConfigError("policy.backoff: must be a finite number >= 0")


@dataclass
class PipelineConfig:
    sources: list[SourceSpec]
    models: list[ModelSpec]
    policy: FetchPolicy
    lexicon_path: Path
    prompt_template: str
    output_root: Path
    report_phrases: tuple[str, ...] = DEFAULT_REPORT_PHRASES

    def groups(self) -> dict[str, str]:
        return {s.ngo_id: s.group for s in self.sources}


def bundled_path(name: str) -> Path:
    """Path of a bundled data file (starter lexicon, default configs)."""
    return Path(str(resources.files("sacreddetect").joinpath("data", name)))


def default_config_path() -> Path:
    return bundled_path("default.toml")


def sample_config_path() -> Path:
    return bundled_path("sample.toml")


def validate_config(path: str | Path, tree_only: bool = False) -> PipelineConfig:
    """Parse and invariant-check a configuration file.

    Raises ConfigError naming the offending field path.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "rb") as fh:
            raw = tomllib.load(fh)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    base = path.parent
    _reject_unknown_keys(raw, _TOP_LEVEL_KEYS, "", "the top level")

    sources = []
    for i, entry in enumerate(_expect_list(raw, "sources")):
        where = f"sources[{i}]"
        _reject_unknown_keys(entry, _field_names(SourceSpec), where, "[[sources]]")
        spec = SourceSpec(
            ngo_id=_expect(entry, "ngo_id", str, where),
            group=_expect(entry, "group", str, where),
            base_url=_expect(entry, "base_url", str, where),
            from_year=_expect(entry, "from_year", int, where),
            to_year=_expect(entry, "to_year", int, where),
        )
        spec.validate(where)
        sources.append(spec)
    if not sources:
        raise ConfigError("sources: at least one source is required")
    seen: set[str] = set()
    for i, s in enumerate(sources):
        if s.ngo_id in seen:
            raise ConfigError(f"sources[{i}].ngo_id: duplicate id {s.ngo_id!r}")
        seen.add(s.ngo_id)

    models = []
    for i, entry in enumerate(_expect_list(raw, "models")):
        where = f"models[{i}]"
        _reject_unknown_keys(entry, _field_names(ModelSpec), where, "[[models]]")
        spec = ModelSpec(
            model_id=_expect(entry, "model_id", str, where),
            provider=_expect(entry, "provider", str, where),
        )
        spec.validate(where)
        models.append(spec)
    if not models and not tree_only:
        raise ConfigError(
            "models: configure at least one model, or pass --tree-only to run "
            "the rule-based classifier alone"
        )
    model_ids = [m.model_id for m in models]
    if len(set(model_ids)) != len(model_ids):
        raise ConfigError("models: duplicate model_id")

    pol = _expect(raw, "policy", dict, default={})
    _reject_unknown_keys(pol, _field_names(FetchPolicy), "policy", "[policy]")
    default = FetchPolicy()
    policy = FetchPolicy(
        rate_per_host=float(_expect(pol, "rate_per_host", _NUMBER, "policy", default.rate_per_host)),
        retries=_expect(pol, "retries", int, "policy", default.retries),
        timeout=float(_expect(pol, "timeout", _NUMBER, "policy", default.timeout)),
        backoff=float(_expect(pol, "backoff", _NUMBER, "policy", default.backoff)),
    )
    policy.validate()

    lexicon_raw = _expect(raw, "lexicon", str, default="starter")
    if lexicon_raw == "starter":
        lexicon_path = bundled_path("starter.tree")
    else:
        lexicon_path = (base / lexicon_raw).resolve()
    if not lexicon_path.is_file():
        raise ConfigError(f"lexicon: file not found: {lexicon_path}")

    template = _expect(raw, "prompt_template", str, default="revised")
    if template not in TEMPLATE_IDS:
        raise ConfigError(
            f"prompt_template: {template!r} is not one of {'/'.join(TEMPLATE_IDS)}"
        )

    output_root = Path(_expect(raw, "output_root", str, default="runs/default"))
    if not output_root.is_absolute():
        output_root = (base / output_root).resolve()

    report = _expect(raw, "report", dict, default={})
    _reject_unknown_keys(report, ("phrases",), "report", "[report]")
    phrases = tuple(_expect_list(report, "phrases", str, "report", DEFAULT_REPORT_PHRASES))
    slugs: dict[str, str] = {}
    for p in phrases:
        if not p.strip():
            raise ConfigError("report.phrases: phrases must be non-empty")
        # each phrase's report is reports/terms/<slug>.md, so two phrases
        # with one slug would silently share, and overwrite, one file
        slug = phrase_slug(p)
        if slug in slugs:
            raise ConfigError(
                f"report.phrases: {slugs[slug]!r} and {p!r} both write reports/terms/{slug}.md"
            )
        slugs[slug] = p

    return PipelineConfig(
        sources=sources,
        models=models,
        policy=policy,
        lexicon_path=lexicon_path,
        prompt_template=template,
        output_root=output_root,
        report_phrases=phrases,
    )


_TOP_LEVEL_KEYS = (
    "output_root", "lexicon", "prompt_template", "policy", "report", "models", "sources"
)


def _field_names(spec: type) -> tuple[str, ...]:
    """The keys of a table that maps field for field onto spec."""
    return tuple(f.name for f in fields(spec))


def _reject_unknown_keys(table: dict, known: tuple[str, ...], where: str, table_name: str) -> None:
    """ConfigError naming the first key of table that is not in known, with
    the closest known key as a suggestion."""
    for key in table:
        if key in known:
            continue
        name = f"{where}.{key}" if where else key
        message = f"{name}: unknown key in {table_name}"
        close = difflib.get_close_matches(key, known, n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise ConfigError(message)


_NUMBER = (int, float)
_TYPE_NAMES = {
    str: "a string", int: "an integer", _NUMBER: "a number", dict: "a table", list: "an array"
}
_MISSING = object()


def _expect_list(table: dict, key: str, item_type: type = dict, where: str = "", default=()):
    """table[key], checked to be an array of item_type (tables by default)."""
    value = _expect(table, key, list, where, default)
    if not all(isinstance(v, item_type) for v in value):
        noun = "tables" if item_type is dict else "strings"
        name = f"{where}.{key}" if where else key
        raise ConfigError(f"{name}: expected an array of {noun}, got {value!r}")
    return value


def _expect(table: dict, key: str, typ, where: str = "", default=_MISSING):
    """table[key], checked to be typ; default when the key is absent, or a
    ConfigError naming the field when no default is given."""
    name = f"{where}.{key}" if where else key
    if key not in table:
        if default is _MISSING:
            raise ConfigError(f"{name}: missing")
        return default
    value = table[key]
    if not isinstance(value, typ) or isinstance(value, bool):
        raise ConfigError(f"{name}: expected {_TYPE_NAMES[typ]}, got {value!r}")
    return value
