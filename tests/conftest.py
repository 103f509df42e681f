from __future__ import annotations

import http.server
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles helper module

from sacreddetect.config import bundled_path
from sacreddetect.lexicon import compile_matcher, load_lexicon
from sacreddetect.textpipe.corpus import CleanDocument, build_sentence_corpus
from sacreddetect.textpipe.htmltext import extract_main_text
from sacreddetect.textpipe.langid import detect_language

SAMPLE_NGOS = ("cca", "greenfaith", "ien", "icsd")

# A failing property prints the @reproduce_failure blob that replays its
# example on any machine.
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def starter_lexicon():
    return load_lexicon(bundled_path("starter.tree"))


@pytest.fixture(scope="session")
def starter_matcher(starter_lexicon):
    return compile_matcher(starter_lexicon)


@pytest.fixture(scope="session")
def sample_documents():
    """The bundled ten-sentence pages, pushed through real extraction."""
    docs = []
    for ngo_id in SAMPLE_NGOS:
        body = bundled_path(f"sample/{ngo_id}.html").read_bytes()
        text = extract_main_text(body)
        lang, confidence = detect_language(text)
        docs.append(
            CleanDocument(
                doc_id=f"doc-{ngo_id}",
                ngo_id=ngo_id,
                text=text,
                lang=lang,
                lang_confidence=confidence,
            )
        )
    return docs


@pytest.fixture(scope="session")
def sample_corpus(sample_documents):
    return build_sentence_corpus(sample_documents)


class _Handler(http.server.BaseHTTPRequestHandler):
    server_version = "TestServer/1.0"

    def log_message(self, *args):
        pass

    def do_GET(self):
        srv = self.server
        srv.request_log.append((self.path, time.monotonic()))
        if self.path == "/robots.txt":
            body = b"User-agent: *\nDisallow: /private/\n"
            self._send(200, body, "text/plain")
        elif self.path.startswith("/missing"):
            self._send(404, b"not here", "text/html")
        elif self.path.startswith("/flaky"):
            srv.flaky_hits += 1
            if srv.flaky_hits <= 2:
                self._send(503, b"try later", "text/html")
            else:
                self._send(200, b"<p>recovered at last, " + b"word " * 12 + b"</p>", "text/html")
        elif self.path.startswith("/throttled"):
            srv.throttled_hits += 1
            if srv.throttled_hits <= 2:
                self._send(429, b"slow down", "text/html")
            else:
                self._send(200, b"<p>let through at last, " + b"word " * 12 + b"</p>", "text/html")
        else:
            body = b"<html><body><p>" + b"plain words " * 10 + b"</p></body></html>"
            self._send(200, body, "text/html")

    def _send(self, status, body, ctype):
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def http_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.request_log = []
    server.flaky_hits = 0
    server.throttled_hits = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield server, base
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
