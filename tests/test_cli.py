import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import sacreddetect
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


def _sample_config_with(tmp_path, old, new):
    """A copy of the sample config with the first old line replaced by new."""
    text = sample_config_path().read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "config.toml"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return path


def test_provider_failure_exit_code(monkeypatch, tmp_path):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    monkeypatch.delenv("GROQ_API_KEY", raising=False)
    # the first model, gpt-4o-mini, on a live provider without credentials
    path = _sample_config_with(tmp_path, 'provider = "stub"', 'provider = "openai-batch"')
    config = ["--config", str(path), "--output-root", str(tmp_path / "run")]
    assert run_cli([*config, "harvest", "--sample"], monkeypatch) == 0
    assert run_cli([*config, "extract"], monkeypatch) == 0
    assert run_cli([*config, "batch-build"], monkeypatch) == 0
    assert run_cli([*config, "classify"], monkeypatch) == 4  # a run-level provider failure


@pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
def test_harvest_rate_must_be_finite_and_positive(monkeypatch, tmp_path, caplog, rate):
    path = _sample_config_with(tmp_path, "rate_per_host = 1.0", f"rate_per_host = {rate}")
    root = tmp_path / "run"
    config = ["--config", str(path), "--output-root", str(root)]
    assert run_cli([*config, "harvest", "--sample"], monkeypatch) == 2
    assert "policy.rate_per_host: must be a finite number > 0" in caplog.text
    assert not root.exists()


def test_each_command_has_only_its_pinned_options():
    """Every setting of a run lives in its config file, so an option here
    chooses which run or what to do; a new one must be added to this list."""

    def options(command):
        return ["/".join(param.opts) for param in command.params]

    assert options(cli.main) == ["--config", "--output-root", "-v/--verbose"]
    assert {name: options(command) for name, command in cli.main.commands.items()} == {
        "validate": [],
        "harvest": ["--sample"],
        "extract": [],
        "match": [],
        "batch-build": [],
        "classify": ["--stub"],
        "analyze": [],
        "report": [],
    }


def test_help_lists_all_commands():
    result = invoke(["--help"])
    for command in ("validate", "harvest", "extract", "match", "batch-build",
                    "classify", "analyze", "report"):
        assert command in result.output


def test_a_config_without_models_runs_the_tree_alone(monkeypatch, tmp_path, caplog):
    text = sample_config_path().read_text(encoding="utf-8")
    path = tmp_path / "tree.toml"
    path.write_text(
        "\n\n".join(b for b in text.split("\n\n") if not b.startswith("[[models]]")),
        encoding="utf-8",
    )
    root = tmp_path / "run"
    config = ["--config", str(path), "--output-root", str(root)]
    for command in (["harvest", "--sample"], ["extract"], ["match"], ["analyze"], ["report"]):
        assert run_cli([*config, *command], monkeypatch) == 0, command
    stats = json.loads((root / "analysis" / "stats.json").read_text(encoding="utf-8"))
    assert stats["classifiers"] == ["tree"]
    assert not (root / "reports" / "table4.md").exists()  # no pair of models to compare
    for command in (["batch-build"], ["classify", "--stub"]):
        caplog.clear()
        assert run_cli([*config, *command], monkeypatch) == 2, command
        assert "models:" in caplog.text
    assert not (root / "batches").exists()
    assert sorted(p.name for p in (root / "labels").iterdir()) == ["tree"]


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


def test_a_lexicon_without_the_general_root_exits_2_from_match(monkeypatch, tmp_path, caplog):
    (tmp_path / "no-general.tree").write_text("Christianity:\n  bible: bible\n", encoding="utf-8")
    path = _sample_config_with(tmp_path, 'lexicon = "starter"', 'lexicon = "no-general.tree"')
    root = tmp_path / "run"
    config = ["--config", str(path), "--output-root", str(root)]
    assert run_cli([*config, "harvest", "--sample"], monkeypatch) == 0
    assert run_cli([*config, "extract"], monkeypatch) == 0
    assert run_cli([*config, "match"], monkeypatch) == 2  # a LexiconError
    assert "lexicon lacks the 'general' root" in caplog.text
    assert not (root / "labels").exists()


@pytest.mark.parametrize(
    "command",
    [["validate"], ["harvest", "--sample"], ["extract"], ["match"], ["batch-build"],
     ["classify", "--stub"], ["analyze"], ["report"]],
    ids=lambda command: command[0],
)
def test_a_model_named_tree_exits_2_from_every_command(monkeypatch, tmp_path, caplog, command):
    # its labels would be labels/tree, the rule-based tree's own
    path = _sample_config_with(tmp_path, 'model_id = "gpt-4o-mini"', 'model_id = "tree"')
    root = tmp_path / "run"
    assert run_cli(["--config", str(path), "--output-root", str(root), *command], monkeypatch) == 2
    assert "models[0].model_id: 'tree'" in caplog.text
    assert not root.exists()


NETWORK_MODULES = ("requests", "urllib3", "ssl", "http.client", "urllib.request")


def _network_modules_after(code, *args):
    """The network modules loaded by running code in a fresh interpreter."""
    src = Path(sacreddetect.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code += f"\nprint(sorted(m for m in {NETWORK_MODULES!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()[-1]


def test_offline_commands_load_no_network_stack(tmp_path):
    pipeline = """
import sys
from sacreddetect import cli
config, root = sys.argv[1:]
for command in (["harvest", "--sample"], ["extract"], ["match"], ["batch-build"],
                ["classify", "--stub"], ["analyze"], ["report"]):
    sys.argv = ["sacreddetect", "--config", config, "--output-root", root, *command]
    assert cli.run() == 0, command
"""
    root = tmp_path / "run"
    assert _network_modules_after(pipeline, str(sample_config_path()), str(root)) == "[]"
    assert (root / "reports" / "table1.md").is_file()
    assert _network_modules_after("import sys, sacreddetect.harvest.fetch") == "[]"
