"""Label counts of the corpus and the comparative statistics computed from them."""
