"""Staged command-line driver.

Each stage is its own subcommand because the expensive ones (live harvests,
hosted batch inference) run for hours and get scheduled independently;
operators launch stages and read files. Every setting of a run lives in
its config file, and the global --config and --output-root choose which
run. Exit codes: 0 success, 2 config error, 3 prerequisite error, 4
provider failure (resumable).
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from . import __version__
from .config import PipelineConfig, default_config_path, validate_config
from .errors import (
    ConfigError,
    LexiconError,
    PrerequisiteError,
    ProviderError,
    SacredDetectError,
)
from . import stages

log = logging.getLogger("sacreddetect")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PREREQUISITE = 3
EXIT_PROVIDER = 4


def _load_config(ctx: click.Context, tree_only: bool = False) -> PipelineConfig:
    config = validate_config(ctx.obj["config_path"], tree_only=tree_only)
    if ctx.obj["output_root"]:
        config.output_root = Path(ctx.obj["output_root"]).resolve()
    return config


@click.group()
@click.option(
    "--config",
    "config_path",
    type=click.Path(path_type=Path),
    default=None,
    help="Pipeline configuration file (defaults to the bundled nine-NGO config).",
)
@click.option(
    "--output-root",
    type=click.Path(path_type=Path),
    default=None,
    help="Override the configured output root.",
)
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
@click.pass_context
def main(ctx, config_path, output_root, verbose):
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path or default_config_path()
    ctx.obj["output_root"] = output_root


@main.command()
@click.option("--tree-only", is_flag=True, help="Accept configs without models.")
@click.pass_context
def validate(ctx, tree_only):
    """Parse and invariant-check the configuration."""
    config = _load_config(ctx, tree_only=tree_only)
    groups = {}
    for s in config.sources:
        groups[s.group] = groups.get(s.group, 0) + 1
    click.echo(
        f"ok: {len(config.sources)} sources "
        f"({groups.get('secular', 0)} secular, {groups.get('religious', 0)} religious), "
        f"{len(config.models)} models, template '{config.prompt_template}', "
        f"output root {config.output_root}"
    )


@main.command()
@click.option("--sample", is_flag=True, help="Install the bundled sample pages instead of fetching.")
@click.pass_context
def harvest(ctx, sample):
    """Query the archive index and fetch live pages into the raw store.

    A URL already stored, fetched or failed, is never fetched again.
    """
    stages.run_harvest(_load_config(ctx, tree_only=True), sample=sample)


@main.command()
@click.pass_context
def extract(ctx):
    """Clean HTML, drop non-English documents, split into sentences."""
    stages.run_extract(_load_config(ctx, tree_only=True))


@main.command()
@click.pass_context
def match(ctx):
    """Label every sentence with the configured lexicon tree."""
    stages.run_match(_load_config(ctx, tree_only=True))


@main.command("batch-build")
@click.pass_context
def batch_build(ctx):
    """Write provider batch request files for every configured model."""
    stages.run_batch_build(_load_config(ctx))


@main.command()
@click.option("--model", default=None, help="Classify with this model only.")
@click.option("--stub", is_flag=True, help="Use the deterministic stub provider.")
@click.option("--strict-json", is_flag=True, help="Require whole-message JSON responses.")
@click.pass_context
def classify(ctx, model, stub, strict_json):
    """Run the LLM judges (or the stub) over the batch files.

    The prompt template is a batch-build input: to change it, edit the
    config and re-run batch-build.
    """
    stages.run_classify(
        _load_config(ctx),
        stub=stub,
        only_model=model,
        strict_json=strict_json,
    )


@main.command()
@click.option("--tree-only", is_flag=True, help="Analyze the rule-based labels alone.")
@click.pass_context
def analyze(ctx, tree_only):
    """Join labels and compute rates, agreement, ratios, term reports."""
    config = _load_config(ctx, tree_only=tree_only)
    stages.run_analyze(config, tree_only=tree_only)


@main.command()
@click.pass_context
def report(ctx):
    """Render the report bundle from the analysis results."""
    stages.run_report(_load_config(ctx, tree_only=True))


def run() -> int:
    try:
        main(standalone_mode=False)
    except (ConfigError, LexiconError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except PrerequisiteError as exc:
        log.error("%s", exc)
        return EXIT_PREREQUISITE
    except ProviderError as exc:
        log.error("%s", exc)
        return EXIT_PROVIDER
    except SacredDetectError as exc:
        log.error("%s", exc)
        return 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(run())
