"""Staged command-line driver.

Each stage is its own subcommand because the expensive ones (live harvests,
hosted batch inference) run for hours and get scheduled independently;
operators launch stages and read files. Exit codes: 0 success, 2 config
error, 3 prerequisite error, 4 provider failure (resumable).
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
@click.option("--stub", is_flag=True, help="Force the deterministic stub provider.")
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
@click.pass_context
def main(ctx, config_path, output_root, stub, verbose):
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path or default_config_path()
    ctx.obj["output_root"] = output_root
    ctx.obj["stub"] = stub


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
@click.option("--rate", type=float, default=None, help="Max requests/second per host.")
@click.option("--retries", type=int, default=None, help="Retry count for fetches.")
@click.option("--timeout", type=float, default=None, help="Fetch timeout in seconds.")
@click.option("--resume/--no-resume", default=True, help="Skip URLs already stored.")
@click.option("--sample", is_flag=True, help="Install the bundled sample pages instead of fetching.")
@click.pass_context
def harvest(ctx, rate, retries, timeout, resume, sample):
    """Query the archive index and fetch live pages into the raw store."""
    config = _load_config(ctx, tree_only=True)
    if rate is not None or retries is not None or timeout is not None:
        from .config import FetchPolicy

        config.policy = FetchPolicy(
            rate_per_host=rate if rate is not None else config.policy.rate_per_host,
            retries=retries if retries is not None else config.policy.retries,
            timeout=timeout if timeout is not None else config.policy.timeout,
            backoff=config.policy.backoff,
        )
        config.policy.validate()
    stages.run_harvest(config, resume=resume, sample=sample)


@main.command()
@click.pass_context
def extract(ctx):
    """Clean HTML, drop non-English documents, split into sentences."""
    stages.run_extract(_load_config(ctx, tree_only=True))


@main.command()
@click.option("--lexicon", type=click.Path(exists=True, path_type=Path), default=None)
@click.option("--corpus", "corpus_dir", type=click.Path(path_type=Path), default=None)
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None)
@click.pass_context
def match(ctx, lexicon, corpus_dir, out_dir):
    """Label every sentence with the hierarchical lexicon.

    --corpus/--out run an ad-hoc match over explicit directories instead of
    the staged layout.
    """
    config = _load_config(ctx, tree_only=True)
    stages.run_match(config, lexicon_path=lexicon, corpus_dir=corpus_dir, out_dir=out_dir)


@main.command("batch-build")
@click.pass_context
def batch_build(ctx):
    """Write provider batch request files for every configured model."""
    stages.run_batch_build(_load_config(ctx))


@main.command()
@click.option("--model", default=None, help="Classify with this model only.")
@click.option("--provider", default=None, help="Override the configured provider.")
@click.option("--stub", "stub_flag", is_flag=True, help="Use the deterministic stub provider.")
@click.option("--strict-json", is_flag=True, help="Require whole-message JSON responses.")
@click.pass_context
def classify(ctx, model, provider, stub_flag, strict_json):
    """Run the LLM judges (or the stub) over the batch files.

    The prompt template is a batch-build input: to change it, edit the
    config and re-run batch-build.
    """
    stages.run_classify(
        _load_config(ctx),
        stub=stub_flag or ctx.obj["stub"],
        only_model=model,
        provider_override=provider,
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
