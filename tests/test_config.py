import pytest

from sacreddetect import tomlcfg
from sacreddetect.config import (
    default_config_path,
    sample_config_path,
    validate_config,
)
from sacreddetect.errors import ConfigError


def test_default_config_nine_sources_four_secular_five_religious():
    config = validate_config(default_config_path())
    assert len(config.sources) == 9
    groups = [s.group for s in config.sources]
    assert groups.count("secular") == 4
    assert groups.count("religious") == 5
    assert len(config.models) == 2
    assert {m.provider for m in config.models} == {"openai-batch", "groq-batch"}
    assert all(2014 == s.from_year and s.to_year == 2024 for s in config.sources)
    assert config.prompt_template == "revised"
    assert config.lexicon_path.is_file()


def test_sample_config_valid():
    config = validate_config(sample_config_path())
    assert {s.ngo_id for s in config.sources} == {"cca", "greenfaith", "ien", "icsd"}
    assert all(m.provider == "stub" for m in config.models)


def write_config(tmp_path, body):
    path = tmp_path / "pipeline.toml"
    path.write_text(body, encoding="utf-8")
    return path


MINIMAL = """
output_root = "out"
[[models]]
model_id = "m"
provider = "stub"
[[sources]]
ngo_id = "a"
group = "secular"
base_url = "a.org"
from_year = 2014
to_year = 2024
"""


def test_minimal_config_parses(tmp_path):
    config = validate_config(write_config(tmp_path, MINIMAL))
    assert config.sources[0].ngo_id == "a"
    assert config.output_root == (tmp_path / "out").resolve()


def test_duplicate_ngo_id_rejected(tmp_path):
    body = MINIMAL + """
[[sources]]
ngo_id = "a"
group = "religious"
base_url = "b.org"
from_year = 2014
to_year = 2024
"""
    with pytest.raises(ConfigError, match=r"sources\[1\].ngo_id"):
        validate_config(write_config(tmp_path, body))


def test_phrases_sharing_a_report_file_rejected(tmp_path):
    body = MINIMAL + '[report]\nphrases = ["sacred earth", "Sacred-Earth"]\n'
    with pytest.raises(ConfigError, match=r"'sacred earth' and 'Sacred-Earth'.*sacred-earth\.md"):
        validate_config(write_config(tmp_path, body))


def test_missing_lexicon_path_rejected(tmp_path):
    body = 'lexicon = "nowhere.tree"\n' + MINIMAL
    with pytest.raises(ConfigError, match="lexicon"):
        validate_config(write_config(tmp_path, body))


def test_year_range_inverted_rejected(tmp_path):
    body = MINIMAL.replace('from_year = 2014', 'from_year = 2030')
    with pytest.raises(ConfigError, match="from_year"):
        validate_config(write_config(tmp_path, body))


def test_scheme_prefix_rejected(tmp_path):
    body = MINIMAL.replace('base_url = "a.org"', 'base_url = "https://a.org"')
    with pytest.raises(ConfigError, match="base_url"):
        validate_config(write_config(tmp_path, body))


def test_bad_group_rejected(tmp_path):
    body = MINIMAL.replace('group = "secular"', 'group = "other"')
    with pytest.raises(ConfigError, match="group"):
        validate_config(write_config(tmp_path, body))


def test_no_models_needs_tree_only(tmp_path):
    body = MINIMAL.replace('[[models]]\nmodel_id = "m"\nprovider = "stub"\n', "")
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match="tree-only"):
        validate_config(path)
    config = validate_config(path, tree_only=True)
    assert config.models == []


def test_unknown_provider_rejected(tmp_path):
    body = MINIMAL.replace('provider = "stub"', 'provider = "mystery"')
    with pytest.raises(ConfigError, match=r"models\[0\].provider"):
        validate_config(write_config(tmp_path, body))


def test_missing_field_names_path(tmp_path):
    body = MINIMAL.replace('base_url = "a.org"\n', "")
    with pytest.raises(ConfigError, match=r"sources\[0\].base_url"):
        validate_config(write_config(tmp_path, body))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        validate_config(tmp_path / "nope.toml")


# --- the TOML subset reader ---------------------------------------------------


def test_toml_scalars_and_comments():
    doc = tomlcfg.loads(
        's = "a # not comment"  # real comment\n'
        "i = 42\nf = 2.5\nb = true\nneg = -3\n"
    )
    assert doc == {"s": "a # not comment", "i": 42, "f": 2.5, "b": True, "neg": -3}


def test_toml_arrays():
    doc = tomlcfg.loads('xs = ["a", "b,c", 3]\nempty = []\n')
    assert doc["xs"] == ["a", "b,c", 3]
    assert doc["empty"] == []


def test_toml_tables_and_array_tables():
    doc = tomlcfg.loads("[t]\nx = 1\n[[rows]]\na = 1\n[[rows]]\na = 2\n")
    assert doc["t"] == {"x": 1}
    assert [r["a"] for r in doc["rows"]] == [1, 2]


def test_toml_string_escapes():
    assert tomlcfg.loads(r's = "a\"b\\c\nd"')["s"] == 'a"b\\c\nd'


def test_toml_errors_name_lines():
    with pytest.raises(ConfigError, match="line 2"):
        tomlcfg.loads("a = 1\nbad line\n")
    with pytest.raises(ConfigError, match="line 1"):
        tomlcfg.loads('a = "unterminated\n')
    with pytest.raises(ConfigError, match="line 3"):
        tomlcfg.loads("a = 1\nb = 2\nc = @nope\n")


def test_toml_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        tomlcfg.loads("a = 1\na = 2\n")
