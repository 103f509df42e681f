import json
import re
from dataclasses import MISSING, fields

import pytest

from sacreddetect.config import (
    FetchPolicy,
    ModelSpec,
    SourceSpec,
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


def test_no_policy_table_yields_the_fetch_policy_defaults(tmp_path):
    assert validate_config(write_config(tmp_path, MINIMAL)).policy == FetchPolicy()


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


def test_a_config_without_models_validates(tmp_path):
    body = MINIMAL.replace('[[models]]\nmodel_id = "m"\nprovider = "stub"\n', "")
    assert "[[models]]" not in body
    config = validate_config(write_config(tmp_path, body))
    assert config.models == []  # the rule-based tree alone


def test_unknown_provider_rejected(tmp_path):
    body = MINIMAL.replace('provider = "stub"', 'provider = "mystery"')
    with pytest.raises(ConfigError, match=r"models\[0\].provider"):
        validate_config(write_config(tmp_path, body))


# each id names files under the output root, so it must be one plain file
# name: a model named tree would overwrite labels/tree, and an NGO named
# "a.results" would write batches/<model>/a.results.jsonl, NGO a's results
@pytest.mark.parametrize(
    "line, value",
    [
        pytest.param('ngo_id = "a"', "a/b", id="ngo-slash"),
        pytest.param('ngo_id = "a"', "a\\\\b", id="ngo-backslash"),
        pytest.param('ngo_id = "a"', "a\\u0000b", id="ngo-nul"),
        pytest.param('ngo_id = "a"', ".", id="ngo-dot"),
        pytest.param('ngo_id = "a"', "..", id="ngo-dotdot"),
        pytest.param('ngo_id = "a"', ".a", id="ngo-hidden"),
        pytest.param('ngo_id = "a"', "a.results", id="ngo-inner-dot"),
        pytest.param('model_id = "m"', "tree", id="model-tree"),
        pytest.param('model_id = "m"', "m/x", id="model-slash"),
        pytest.param('model_id = "m"', "m\\\\x", id="model-backslash"),
        pytest.param('model_id = "m"', "m\\u0000x", id="model-nul"),
        pytest.param('model_id = "m"', ".", id="model-dot"),
        pytest.param('model_id = "m"', "..", id="model-dotdot"),
        pytest.param('model_id = "m"', ".m", id="model-hidden"),
    ],
)
def test_an_id_that_is_not_a_plain_file_name_rejected(tmp_path, line, value):
    key = line.split(" = ")[0]
    table = "sources" if key == "ngo_id" else "models"
    body = MINIMAL.replace(line, f'{key} = "{value}"')
    with pytest.raises(ConfigError, match=rf"^{table}\[0\]\.{key}: "):
        validate_config(write_config(tmp_path, body))


def test_a_model_id_may_hold_a_dot(tmp_path):
    body = MINIMAL.replace('model_id = "m"', 'model_id = "llama-3.3-70b-versatile"')
    assert validate_config(write_config(tmp_path, body)).models[0].model_id == "llama-3.3-70b-versatile"


def test_missing_field_names_path(tmp_path):
    body = MINIMAL.replace('base_url = "a.org"\n', "")
    with pytest.raises(ConfigError, match=r"sources\[0\].base_url"):
        validate_config(write_config(tmp_path, body))


@pytest.mark.parametrize(
    "where, key",
    [
        (where, f.name)
        for where, spec in (("sources[0]", SourceSpec), ("models[0]", ModelSpec))
        for f in fields(spec)
        if f.default is MISSING
    ],
)
def test_each_missing_required_field_names_its_path(tmp_path, where, key):
    body = re.sub(rf"^{key} = .*\n", "", MINIMAL, count=1, flags=re.MULTILINE)
    assert body != MINIMAL
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)}\.{key}: missing$"):
        validate_config(write_config(tmp_path, body))


# one table of each kind, every field away from its default
TABLES = {
    "[[sources]]": SourceSpec("b", "religious", "b.org", 2015, 2020),
    "[[models]]": ModelSpec("m2", "openai-batch"),
    "[policy]": FetchPolicy(rate_per_host=0.5, retries=7, timeout=3.0, backoff=1.5),
}


@pytest.mark.parametrize("header", TABLES)
def test_the_keys_a_table_accepts_are_its_dataclass_fields(tmp_path, header):
    body = "".join(
        f"{name}\n" + "".join(f"{f.name} = {json.dumps(getattr(spec, f.name))}\n" for f in fields(spec))
        for name, spec in TABLES.items()
    )
    config = validate_config(write_config(tmp_path, body))
    read = {"[[sources]]": config.sources, "[[models]]": config.models, "[policy]": [config.policy]}
    assert read[header] == [TABLES[header]]  # every field is read from its key
    extra = body.replace(f"{header}\n", f"{header}\nextra = 1\n")
    with pytest.raises(ConfigError, match=rf"\.extra: unknown key in {re.escape(header)}$"):
        validate_config(write_config(tmp_path, extra))  # and no other key is


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        validate_config(tmp_path / "nope.toml")


@pytest.mark.parametrize(
    "body, field",
    [
        pytest.param(MINIMAL + '[report]\nphrases = "sacred"\n', "report.phrases", id="phrases-string"),
        pytest.param(MINIMAL + "[report]\nphrases = [1]\n", "report.phrases", id="phrases-number"),
        pytest.param("report = 5\n" + MINIMAL, "report", id="report-number"),
        pytest.param("lexicon = 5\n" + MINIMAL, "lexicon", id="lexicon-number"),
        pytest.param(MINIMAL.replace('output_root = "out"', "output_root = 3"), "output_root", id="output-root-number"),
        pytest.param("prompt_template = true\n" + MINIMAL, "prompt_template", id="template-bool"),
        pytest.param(MINIMAL + '[policy]\nrate_per_host = "fast"\n', "policy.rate_per_host", id="rate-string"),
        pytest.param(MINIMAL + "[policy]\ntimeout = false\n", "policy.timeout", id="timeout-bool"),
        pytest.param(MINIMAL + "[policy]\nretries = 2.5\n", "policy.retries", id="retries-float"),
        pytest.param("policy = 5\n" + MINIMAL, "policy", id="policy-number"),
        pytest.param(MINIMAL.replace("[[models]]", "[models]"), "models", id="models-table"),
        pytest.param('models = ["m"]\n' + MINIMAL.replace('[[models]]\nmodel_id = "m"\nprovider = "stub"\n', ""), "models", id="models-strings"),
        pytest.param(MINIMAL.replace("from_year = 2014", 'from_year = "2014"'), r"sources\[0\]\.from_year", id="year-string"),
    ],
)
def test_wrong_value_type_names_the_field(tmp_path, body, field):
    with pytest.raises(ConfigError, match=rf"^{field}: expected "):
        validate_config(write_config(tmp_path, body))


# --- the TOML reader, through validate_config ----------------------------------


def test_toml_scalars_and_comments(tmp_path):
    body = MINIMAL.replace('output_root = "out"', 'output_root = "out # not comment"  # real comment')
    body += "[policy]\nretries = 42\ntimeout = 5\nbackoff = 1_0.5\n"
    config = validate_config(write_config(tmp_path, body))
    assert config.output_root.name == "out # not comment"
    assert (config.policy.retries, config.policy.timeout, config.policy.backoff) == (42, 5.0, 10.5)
    assert isinstance(config.policy.timeout, float)  # an integer is a number too


def test_toml_arrays(tmp_path):
    body = MINIMAL + """
[report]
phrases = [
    'mother earth',  # literal string, array over several lines
    \"\"\"ubuntu\"\"\", "b,c",
]
"""
    config = validate_config(write_config(tmp_path, body))
    assert config.report_phrases == ("mother earth", "ubuntu", "b,c")


def test_toml_tables_and_array_tables(tmp_path):
    body = "[policy]\nrate_per_host = 0.5\n" + MINIMAL.replace('output_root = "out"\n', "")
    body += MINIMAL[MINIMAL.index("[[sources]]"):].replace('"a"', '"b"')
    config = validate_config(write_config(tmp_path, body))
    assert config.policy.rate_per_host == 0.5
    assert [s.ngo_id for s in config.sources] == ["a", "b"]
    assert [m.model_id for m in config.models] == ["m"]


def test_toml_string_escapes(tmp_path):
    body = MINIMAL + '[report]\nphrases = ["a\\"b\\\\c\\td", "caf\\u00e9"]\n'
    config = validate_config(write_config(tmp_path, body))
    assert config.report_phrases == ('a"b\\c\td', "café")


def test_toml_errors_name_lines(tmp_path):
    for body, line in [
        ("a = 1\nbad line\n", 2),  # a statement that is not key = value
        ('a = "unterminated\n', 1),
        ("a = 1\nb = 2\nc = @nope\n", 3),
    ]:
        path = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: .*\bline {line}\b"):
            validate_config(path)


def test_toml_duplicate_key_rejected(tmp_path):
    path = write_config(tmp_path, MINIMAL.replace('output_root = "out"', 'output_root = "out"\noutput_root = "x"'))
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: .*\bline 3\b"):
        validate_config(path)


@pytest.mark.parametrize(
    "body, message",
    [
        (
            'prompt_templat = "general"\n' + MINIMAL,
            r"^prompt_templat: unknown key in the top level \(did you mean 'prompt_template'\?\)$",
        ),
        (
            MINIMAL + "[policy]\nrate_per_hots = 5.0\n",
            r"^policy\.rate_per_hots: unknown key in \[policy\] \(did you mean 'rate_per_host'\?\)$",
        ),
        (
            MINIMAL + '[report]\nphrase = ["ubuntu"]\n',
            r"^report\.phrase: unknown key in \[report\] \(did you mean 'phrases'\?\)$",
        ),
        (
            MINIMAL.replace('provider = "stub"', 'provider = "stub"\nmodel = "m2"'),
            r"^models\[0\]\.model: unknown key in \[\[models\]\] \(did you mean 'model_id'\?\)$",
        ),
        (
            MINIMAL.replace("to_year = 2024", "to_year = 2024\ntoyear = 2025"),
            r"^sources\[0\]\.toyear: unknown key in \[\[sources\]\] \(did you mean 'to_year'\?\)$",
        ),
        (MINIMAL + "[policy]\nzzz = 1\n", r"^policy\.zzz: unknown key in \[policy\]$"),
    ],
)
def test_unknown_keys_rejected_with_a_suggestion(tmp_path, body, message):
    with pytest.raises(ConfigError, match=message):
        validate_config(write_config(tmp_path, body))


@pytest.mark.parametrize(
    "policy, field",
    [
        pytest.param("rate_per_host = nan", "rate_per_host", id="rate-nan"),
        pytest.param("rate_per_host = inf", "rate_per_host", id="rate-inf"),
        pytest.param("rate_per_host = -1.0", "rate_per_host", id="rate-negative"),
        pytest.param("timeout = nan", "timeout", id="timeout-nan"),
        pytest.param("backoff = -2.0", "backoff", id="backoff-negative"),
        pytest.param("backoff = nan", "backoff", id="backoff-nan"),
        pytest.param("backoff = inf", "backoff", id="backoff-inf"),
    ],
)
def test_non_finite_or_negative_policy_values_rejected(tmp_path, policy, field):
    # nan would turn HostGate's spacing off, and a negative backoff would
    # crash the harvest at its first retry
    with pytest.raises(ConfigError, match=rf"^policy\.{field}: must be a finite number"):
        validate_config(write_config(tmp_path, MINIMAL + f"[policy]\n{policy}\n"))


def test_zero_backoff_accepted(tmp_path):
    config = validate_config(write_config(tmp_path, MINIMAL + "[policy]\nbackoff = 0\n"))
    assert config.policy.backoff == 0.0
