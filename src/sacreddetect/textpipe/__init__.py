"""Raw HTML to a clean, English, sentence-level corpus."""
