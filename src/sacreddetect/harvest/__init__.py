"""Web-archive index queries, worklist derivation and polite live fetching."""
