"""HTTP fetch tier (stages/fetch.py): retry/backoff/status-class
semantics with an injected deterministic opener, and the crawl's
``fetch_mode="http"`` integration."""

from __future__ import annotations

import os
import time

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vat_abcd_crawler_ray.functions.urlkeys import murmur3_64
from vat_abcd_crawler_ray.stages.fetch import FETCH_HTTP_ERROR, HttpFetchStage


class ScriptedOpener:
    """url → scripted list of (status, body) responses, in order; the
    last entry repeats. Call counts are recorded."""

    def __init__(self, script: dict):
        self.script = script
        self.calls: dict[str, int] = {}

    def __call__(self, url: str):
        n = self.calls.get(url, 0)
        self.calls[url] = n + 1
        responses = self.script[url]
        status, body = responses[min(n, len(responses) - 1)]
        if status == -1:
            raise ConnectionError("boom")
        return status, body


def _run(stage: HttpFetchStage, urls: list[str]) -> pd.DataFrame:
    out = stage(pa.table({"url": pa.array(urls, pa.string())}))
    return out.to_pandas()


class TestHttpFetchStage:
    def test_success_and_permanent_and_transient(self):
        op = ScriptedOpener(
            {
                "http://ok": [(200, b"body")],
                "http://gone": [(404, b"")],
                "http://flaky": [(503, b""), (200, b"late")],
                "http://down": [(503, b"")],
                "http://reset": [(-1, b""), (200, b"after-reset")],
            }
        )
        stage = HttpFetchStage(op, max_attempts=3)
        df = _run(stage, ["http://ok", "http://gone", "http://flaky",
                          "http://down", "http://reset"]).set_index("url")

        assert df.loc["http://ok", "html"] == b"body"
        assert df.loc["http://ok", "fetch_attempts"] == 1
        assert df.loc["http://ok", "fetch_error_kind"] is None

        # 4xx: permanent, exactly ONE attempt, classified
        assert df.loc["http://gone", "html"] is None
        assert df.loc["http://gone", "fetch_attempts"] == 1
        assert df.loc["http://gone", "fetch_error_kind"] == FETCH_HTTP_ERROR
        assert op.calls["http://gone"] == 1

        # transient 503 then 200: retried within the task
        assert df.loc["http://flaky", "html"] == b"late"
        assert df.loc["http://flaky", "fetch_attempts"] == 2

        # transient exhausted after max_attempts
        assert df.loc["http://down", "html"] is None
        assert df.loc["http://down", "fetch_attempts"] == 3
        assert op.calls["http://down"] == 3
        assert "503" in df.loc["http://down", "fetch_error_message"]

        # transport exception: transient, then success
        assert df.loc["http://reset", "html"] == b"after-reset"
        assert df.loc["http://reset", "fetch_attempts"] == 2


class TestWithinBatchConcurrency:
    """Cross-host thread-pool fan-out with per-host serialization and
    pacing (the politeness contract inside one task)."""

    def test_cross_host_fetches_overlap(self):
        import threading

        barrier = threading.Barrier(2, timeout=10)

        def opener(url):
            # only releases when BOTH hosts' fetches are in flight —
            # a serial implementation would deadlock until timeout
            barrier.wait()
            return 200, b"x"

        stage = HttpFetchStage(opener, max_concurrency=4)
        df = _run(stage, ["http://a.example.org/1", "http://b.example.org/1"])
        assert list(df["html"]) == [b"x", b"x"]

    def test_same_host_never_overlaps_and_order_kept(self):
        import threading

        inflight: dict[str, int] = {}
        max_inflight: dict[str, int] = {}
        order: dict[str, list[str]] = {}
        lock = threading.Lock()

        def opener(url):
            host = url.split("/")[2]
            with lock:
                inflight[host] = inflight.get(host, 0) + 1
                max_inflight[host] = max(max_inflight.get(host, 0), inflight[host])
                order.setdefault(host, []).append(url)
            time.sleep(0.005)
            with lock:
                inflight[host] -= 1
            return 200, url.encode()

        stage = HttpFetchStage(opener, max_concurrency=8)
        urls = [
            f"http://{h}.example.org/{i}"
            for i in range(4)
            for h in ("a", "b", "c")
        ]
        df = _run(stage, urls)
        # per-host in-flight never exceeded 1, and each host saw its
        # urls in input order
        assert max(max_inflight.values()) == 1
        for host, seen in order.items():
            assert seen == [u for u in urls if u.split("/")[2] == host]
        # output row order == input row order despite threaded fetches
        assert list(df["url"]) == urls
        assert list(df["html"]) == [u.encode() for u in urls]

    def test_per_host_pacing_delay(self):
        calls: list[float] = []

        def opener(url):
            calls.append(time.perf_counter())
            return 200, b"x"

        stage = HttpFetchStage(opener, per_host_delay_s=0.05)
        _run(stage, [f"http://a.example.org/{i}" for i in range(3)])
        gaps = [b - a for a, b in zip(calls, calls[1:])]
        assert all(g >= 0.045 for g in gaps), gaps


@pytest.mark.usefixtures("ray_session")
def test_crawl_fetch_mode_http_matches_store(tmp_path):
    from parquet_dirs import read_parquet_dir
    from vat_abcd_crawler_ray.pipelines.crawl import CrawlRun
    from vat_abcd_crawler_ray.sources.synthetic import corpus_dir

    class CorpusOpener:
        """Fetches from an in-memory page dict; urls present in the
        corpus whose key % 7 == 0 fail with 503 on the FIRST attempt
        (transient); absent urls are 404 (permanent). Defined locally
        so cloudpickle ships it by value to the workers."""

        def __init__(self, pages: dict):
            self.pages = pages
            self.calls: dict[str, int] = {}

        def __call__(self, url: str):
            n = self.calls.get(url, 0)
            self.calls[url] = n + 1
            body = self.pages.get(url)
            if body is None:
                return 404, b""
            if murmur3_64(url) % 7 == 0 and n == 0:
                return 503, b""
            return 200, body

    corpus = corpus_dir("/root/testdata/sf0.001")
    pages = {
        r["url"]: r["html"]
        for r in pq.read_table(
            os.path.join(corpus, "pages.parquet"), columns=["url", "html"]
        ).to_pylist()
    }

    def fetch_log(run_dir):
        base = os.path.join(str(run_dir), "staging", "extracted")
        frames = []
        for rnd in sorted(os.listdir(base)):
            d = os.path.join(base, rnd, "record_type=dataset")
            if os.path.isdir(d):
                frames.append(
                    read_parquet_dir(d, columns=["url", "surrogate", "seq", "round"]).to_pandas()
                )
        return (
            pd.concat(frames, ignore_index=True)
            .sort_values(["round", "seq"])
            .reset_index(drop=True)
        )

    args = (
        f"{corpus}/pages.parquet",
        f"{corpus}/seeds.parquet",
        f"{corpus}/politeness.parquet",
    )
    r_store = CrawlRun(*args, str(tmp_path / "store"))
    r_store.run()
    r_http = CrawlRun(
        *args,
        str(tmp_path / "http"),
        fetch_mode="http",
        http_opener=CorpusOpener(pages),
    )
    r_http.run()

    # transient 503s are retried inside the fetch tasks, so the crawl
    # (fetch order, seen set, surrogates) is IDENTICAL to store mode
    pd.testing.assert_frame_equal(fetch_log(tmp_path / "store"), fetch_log(tmp_path / "http"))
    pd.testing.assert_frame_equal(
        r_store.seen.to_table().to_pandas(), r_http.seen.to_table().to_pandas()
    )

    # absent urls land as classified HTTP dead letters (404), not misses
    err_dirs = []
    base = os.path.join(str(tmp_path / "http"), "staging", "extracted")
    for rnd in sorted(os.listdir(base)):
        d = os.path.join(base, rnd, "record_type=error")
        if os.path.isdir(d):
            err_dirs.append(read_parquet_dir(d, columns=["url", "error_kind", "error_message"]).to_pandas())
    errs = pd.concat(err_dirs, ignore_index=True)
    http_errs = errs[errs["error_kind"] == FETCH_HTTP_ERROR]
    assert len(http_errs) > 0
    assert http_errs["url"].str.contains("missing.example.org").all()
    assert http_errs["error_message"].str.contains("404").all()


class TestUrllibOpenerFactory:
    """Production opener wiring (no network in-sandbox: urlopen is
    monkeypatched; what's under test is status/body/HTTPError
    translation and the header/timeout plumbing)."""

    def test_success_and_http_error(self, monkeypatch):
        import urllib.error
        import urllib.request

        from vat_abcd_crawler_ray.stages.fetch import urllib_opener_factory

        seen = {}

        class FakeResp:
            status = 200
            headers = {"Content-Encoding": None}

            def read(self, n):
                return b"body-bytes"

            def __enter__(self):
                return self

            def __exit__(self, *a):
                return False

        def fake_urlopen(req, timeout=None):
            seen["ua"] = req.headers.get("User-agent")
            seen["timeout"] = timeout
            if "missing" in req.full_url:
                raise urllib.error.HTTPError(
                    req.full_url, 404, "nope", hdrs=None, fp=None
                )
            return FakeResp()

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        opener = urllib_opener_factory(timeout_s=7.5, user_agent="test-ua/1")
        assert opener("https://ok.example.org/x") == (200, b"body-bytes")
        assert seen["ua"] == "test-ua/1"
        assert seen["timeout"] == 7.5
        # HTTP-level errors are RETURNED as statuses (stage classifies)
        assert opener("https://missing.example.org/x") == (404, b"")

    def test_transport_errors_propagate(self, monkeypatch):
        import urllib.request

        from vat_abcd_crawler_ray.stages.fetch import urllib_opener_factory

        def fake_urlopen(req, timeout=None):
            raise ConnectionError("dns down")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        opener = urllib_opener_factory()
        with pytest.raises(ConnectionError):
            opener("https://x.example.org/")


class TestDecodeBody:
    """Content-Encoding handling for the production opener: gzip,
    both deflate variants, bomb capping, corrupt-stream passthrough."""

    def test_gzip(self):
        import gzip

        from vat_abcd_crawler_ray.stages.fetch import decode_body

        body = b"<html>hello compressed world</html>" * 20
        assert decode_body(gzip.compress(body), "gzip", 1 << 20) == body

    def test_deflate_zlib_wrapped(self):
        import zlib

        from vat_abcd_crawler_ray.stages.fetch import decode_body

        body = b"zlib-wrapped deflate per the RFC" * 10
        assert decode_body(zlib.compress(body), "deflate", 1 << 20) == body

    def test_deflate_raw_rfc_violator(self):
        import zlib

        from vat_abcd_crawler_ray.stages.fetch import decode_body

        body = b"raw deflate like broken IIS servers send" * 10
        c = zlib.compressobj(wbits=-zlib.MAX_WBITS)
        raw = c.compress(body) + c.flush()
        assert decode_body(raw, "deflate", 1 << 20) == body

    def test_identity_and_unknown_pass_through(self):
        from vat_abcd_crawler_ray.stages.fetch import decode_body

        assert decode_body(b"plain", None, 100) == b"plain"
        assert decode_body(b"plain", "identity", 100) == b"plain"
        assert decode_body(b"??", "br", 100) == b"??"  # brotli: no stdlib

    def test_bomb_capped(self):
        import gzip

        from vat_abcd_crawler_ray.stages.fetch import decode_body

        bomb = gzip.compress(b"\x00" * (50 << 20))  # 50 MB of zeros
        out = decode_body(bomb, "gzip", 1 << 16)
        assert len(out) == 1 << 16  # truncated, not 50 MB

    def test_corrupt_returns_raw(self):
        from vat_abcd_crawler_ray.stages.fetch import decode_body

        junk = b"\x1f\x8bnot really gzip at all"
        assert decode_body(junk, "gzip", 1 << 20) == junk

    def test_gzip_response_inflated(self, monkeypatch):
        import gzip
        import urllib.request

        from vat_abcd_crawler_ray.stages.fetch import urllib_opener_factory

        seen = {}
        body = b"<html>compressed page body</html>"

        class GzResp:
            status = 200
            headers = {"Content-Encoding": "gzip"}

            def read(self, n):
                return gzip.compress(body)

            def __enter__(self):
                return self

            def __exit__(self, *a):
                return False

        def fake_urlopen(req, timeout=None):
            seen["ae"] = req.headers.get("Accept-encoding")
            return GzResp()

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        opener = urllib_opener_factory()
        assert opener("https://gz.example.org/") == (200, body)
        assert seen["ae"] == "gzip, deflate"
