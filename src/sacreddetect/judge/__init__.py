"""Zero-shot LLM classification: prompts, batch files, providers, verdicts."""

from .batch import build_batch_file
from .prompts import TEMPLATE_IDS, prompt_hash, render_prompt
from .providers import StubProvider, get_provider
from .verdicts import Verdict, parse_verdict, serialize_verdict

__all__ = [
    "StubProvider",
    "TEMPLATE_IDS",
    "Verdict",
    "build_batch_file",
    "get_provider",
    "parse_verdict",
    "prompt_hash",
    "render_prompt",
    "serialize_verdict",
]
