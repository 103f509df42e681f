import sys

import pytest
from click.testing import CliRunner

from sacreddetect import cli
from sacreddetect.config import sample_config_path


def invoke(args, **kwargs):
    return CliRunner().invoke(cli.main, args, catch_exceptions=False, **kwargs)


def run_cli(argv, monkeypatch):
    """Exercise the real entry point with its exit-code mapping."""
    monkeypatch.setattr(sys, "argv", ["sacreddetect", *argv])
    return cli.run()


def test_validate_default_config():
    result = invoke(["validate"])
    assert result.exit_code == 0
    assert "9 sources (4 secular, 5 religious)" in result.output


def test_validate_sample_config():
    result = invoke(["--config", str(sample_config_path()), "validate"])
    assert result.exit_code == 0
    assert "4 sources" in result.output


def test_config_error_exit_code(monkeypatch, tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text("this is not = valid toml =\n")
    assert run_cli(["--config", str(bad), "validate"], monkeypatch) == 2


def test_missing_config_exit_code(monkeypatch, tmp_path):
    assert run_cli(["--config", str(tmp_path / "none.toml"), "validate"], monkeypatch) == 2


def test_prerequisite_error_exit_code(monkeypatch, tmp_path):
    code = run_cli(
        [
            "--config", str(sample_config_path()),
            "--output-root", str(tmp_path / "empty"),
            "analyze",
        ],
        monkeypatch,
    )
    assert code == 3


def test_provider_failure_exit_code(monkeypatch, tmp_path):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    monkeypatch.delenv("GROQ_API_KEY", raising=False)
    root = str(tmp_path / "run")
    config = ["--config", str(sample_config_path()), "--output-root", root]
    assert run_cli([*config, "harvest", "--sample"], monkeypatch) == 0
    assert run_cli([*config, "extract"], monkeypatch) == 0
    assert run_cli([*config, "batch-build"], monkeypatch) == 0
    # force a live provider without credentials -> run-level failure
    code = run_cli(
        [*config, "classify", "--model", "gpt-4o-mini", "--provider", "openai-batch"],
        monkeypatch,
    )
    assert code == 4


def test_global_stub_flag(monkeypatch, tmp_path):
    root = str(tmp_path / "run")
    config = ["--config", str(sample_config_path()), "--output-root", root, "--stub"]
    assert run_cli([*config, "harvest", "--sample"], monkeypatch) == 0
    assert run_cli([*config, "extract"], monkeypatch) == 0
    assert run_cli([*config, "match"], monkeypatch) == 0
    assert run_cli([*config, "batch-build"], monkeypatch) == 0
    assert run_cli([*config, "classify"], monkeypatch) == 0
    assert run_cli([*config, "analyze"], monkeypatch) == 0
    assert run_cli([*config, "report"], monkeypatch) == 0


def test_help_lists_all_commands():
    result = invoke(["--help"])
    for command in ("validate", "harvest", "extract", "match", "batch-build",
                    "classify", "analyze", "report"):
        assert command in result.output


def test_unknown_model_is_config_error(monkeypatch, tmp_path):
    root = str(tmp_path / "run")
    config = ["--config", str(sample_config_path()), "--output-root", root]
    assert run_cli([*config, "harvest", "--sample"], monkeypatch) == 0
    assert run_cli([*config, "extract"], monkeypatch) == 0
    assert run_cli([*config, "batch-build"], monkeypatch) == 0
    assert run_cli([*config, "classify", "--model", "no-such-model"], monkeypatch) == 2


def test_corrupt_stage_file_exits_1_naming_the_file_and_line(monkeypatch, tmp_path, caplog):
    root = tmp_path / "run"
    config = ["--config", str(sample_config_path()), "--output-root", str(root)]
    assert run_cli([*config, "harvest", "--sample"], monkeypatch) == 0
    assert run_cli([*config, "extract"], monkeypatch) == 0
    corpus = root / "corpus" / "cca.jsonl"
    torn_line = len(corpus.read_bytes().splitlines()) + 1
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write('{"torn')
    assert run_cli([*config, "match"], monkeypatch) == 1
    assert f"{corpus}: line {torn_line}: " in caplog.text
    assert not (root / "labels").exists()  # nor the parent the failed build made
