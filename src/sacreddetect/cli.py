"""Staged command-line driver.

Each stage is its own subcommand because the expensive ones (live harvests,
hosted batch inference) run for hours and get scheduled independently;
operators launch stages and read files. Every setting of a run lives in
its config file, and the global --config and --output-root choose which
run. The config's [[models]] list decides which judges batch-build,
classify and analyze run: a config with none runs the rule-based tree
alone. Exit codes: 0 success, 2 config or lexicon error, 3 prerequisite
error, 4 provider failure (resumable), 1 any other pipeline error; each
error class in errors.py carries its own.
"""

from __future__ import annotations

import logging
import sys
from collections import Counter
from pathlib import Path

import click

from .config import PipelineConfig, default_config_path, validate_config
from .errors import SacredDetectError
from . import stages

log = logging.getLogger("sacreddetect")


def _load_config(ctx: click.Context) -> PipelineConfig:
    config = validate_config(ctx.obj["config_path"])
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
@click.pass_context
def validate(ctx):
    """Parse and invariant-check the configuration."""
    config = _load_config(ctx)
    groups = Counter(s.group for s in config.sources)
    click.echo(
        f"ok: {len(config.sources)} sources "
        f"({groups['secular']} secular, {groups['religious']} religious), "
        f"{len(config.models)} models, template '{config.prompt_template}', "
        f"output root {config.output_root}"
    )


@main.command()
@click.option("--sample", is_flag=True, help="Harvest the bundled pages from a recorded web, offline.")
@click.pass_context
def harvest(ctx, sample):
    """Query the archive index and fetch live pages into the raw store.

    A URL already stored, fetched or failed, is never fetched again.
    """
    stages.run_harvest(_load_config(ctx), sample=sample)


@main.command()
@click.pass_context
def extract(ctx):
    """Clean HTML, drop non-English documents, split into sentences."""
    stages.run_extract(_load_config(ctx))


@main.command()
@click.pass_context
def match(ctx):
    """Label every sentence with the configured lexicon tree."""
    stages.run_match(_load_config(ctx))


@main.command("batch-build")
@click.pass_context
def batch_build(ctx):
    """Write provider batch request files for every configured model."""
    stages.run_batch_build(_load_config(ctx))


@main.command()
@click.option("--stub", is_flag=True, help="Use the deterministic stub provider.")
@click.pass_context
def classify(ctx, stub):
    """Run every configured model's judge (or the stub) over its batch files.

    The prompt template is a batch-build input: to change it, edit the
    config and re-run batch-build.
    """
    stages.run_classify(_load_config(ctx), stub=stub)


@main.command()
@click.pass_context
def analyze(ctx):
    """Join the tree's and every configured model's labels and compute
    rates, agreement, ratios, term reports."""
    stages.run_analyze(_load_config(ctx))


@main.command()
@click.pass_context
def report(ctx):
    """Render the report bundle from the analysis results."""
    stages.run_report(_load_config(ctx))


def run() -> int:
    try:
        main(standalone_mode=False)
    except SacredDetectError as exc:
        log.error("%s", exc)
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
