"""Zero-shot LLM classification: prompts, batch files, providers, verdicts."""
