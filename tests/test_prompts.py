import pytest

from sacreddetect.judge.prompts import prompt_hash, render_prompt

# Committed golden hashes: any drift in the bundled prompt files fails here.
GOLDEN_HASHES = {
    "general": "260cf31a46f6d050a6834cf4a4e11bdfb94bef607c39a9c50929d8e5da403dc5",
    "revised": "d2a7bf9a150bf42199e5aa71b4062297bbb25a4b04cdcda91b6a511ac15c13bd",
}


@pytest.mark.parametrize("template_id", ["general", "revised"])
def test_prompt_hashes_match_goldens(template_id):
    assert prompt_hash(template_id) == GOLDEN_HASHES[template_id]


def test_general_prompt_content():
    text = render_prompt("general")
    assert text.startswith("You are an expert in recognizing religious language")
    assert "Focus on the overall meaning of the text, not on individual words" in text
    assert '"Religious": "Yes or no"' in text
    assert "percentage score" in text


def test_revised_prompt_content():
    text = render_prompt("revised")
    assert (
        "the 'prison epistles': Ephesians, Philippians, Colossians, and Philemon"
        in text
    )
    assert "when used descriptively, are not to be considered religious language" in text
    assert "'sharing in His suffering'" in text
    assert "Be concise in your argumentation." in text


def test_unknown_template_id_rejected():
    with pytest.raises(KeyError, match="v3"):
        render_prompt("v3")


def test_render_is_stable():
    assert render_prompt("revised") == render_prompt("revised")
