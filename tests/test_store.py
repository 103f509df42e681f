import json
import sys
import threading
from datetime import datetime, timezone

from sacreddetect.harvest.store import DocumentStore, RawDocument


def make_doc(url="https://a.com/x", body=b"<p>hello</p>", status=200):
    return RawDocument.make(
        ngo_id="ngo",
        url=url,
        status=status,
        content_type="text/html",
        body=body,
        fetched_at=datetime(2024, 1, 1, tzinfo=timezone.utc),
    )


def test_round_trip_preserves_bytes():
    doc = make_doc(body=b"\x00\xffbinary\x80bytes")
    again = RawDocument.from_dict(doc.to_dict())
    assert again == doc


def test_doc_id_depends_on_url_and_body():
    a = make_doc(url="https://a.com/1", body=b"same")
    b = make_doc(url="https://a.com/2", body=b"same")
    c = make_doc(url="https://a.com/1", body=b"same")
    assert a.doc_id != b.doc_id
    assert a.doc_id == c.doc_id


def test_store_appends_and_reloads_index(tmp_path):
    store = DocumentStore(tmp_path / "raw")
    doc = make_doc()
    store.append(doc)
    store.flush_index()

    again = DocumentStore(tmp_path / "raw")
    assert again.has_url(doc.url)
    assert [d.doc_id for d in again.iter_ngo("ngo")] == [doc.doc_id]


def test_store_keeps_failures(tmp_path):
    store = DocumentStore(tmp_path / "raw")
    store.append(make_doc(url="https://a.com/404", body=b"", status=404))
    [doc] = list(store.iter_ngo("ngo"))
    assert doc.status == 404
    assert doc.body == b""


def test_raw_lines_are_ascii(tmp_path):
    # a tear inside a multi-byte character would make the text reader fail
    # on the whole file, not on the torn line alone
    store = DocumentStore(tmp_path)
    doc = make_doc(url="https://a.com/près")
    store.append(doc)
    assert (tmp_path / "ngo.jsonl").read_bytes().isascii()
    assert list(store.iter_ngo("ngo")) == [doc]


def test_concurrent_appends_with_a_missing_index_lose_no_url(tmp_path):
    # one thread per source, as harvest runs them; the first to touch the
    # store rebuilds the index, and no thread may work on a copy of it
    raw = tmp_path / "raw"
    DocumentStore(raw).append(make_doc(url="https://a.com/stored"))  # never flushed
    store = DocumentStore(raw)
    urls = [f"https://a.com/{t}/{i}" for t in range(8) for i in range(25)]

    def harvest(t):
        for url in urls[t * 25 : (t + 1) * 25]:
            assert store.has_url("https://a.com/stored")
            store.append(make_doc(url=url))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=harvest, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    store.flush_index()
    index = json.loads((raw / "index.json").read_text())
    assert sorted(index) == sorted([*urls, "https://a.com/stored"])
