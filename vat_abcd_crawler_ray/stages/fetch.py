"""HTTP fetch tier — the S3 seam for REAL crawls
(``/root/reference/src/file_downloader.rs:8-29``: GET → error on
non-2xx status, one temp file per dataset).

:class:`HttpFetchStage` is a ``map_batches`` body (task pool, NOT an
actor holding connections hostage): each task fetches its batch's urls
through an injected ``opener`` and emits one row per input row —
either the page bytes or a classified fetch error. Politeness is
enforced UPSTREAM by the round selection (per-host budgets), so tasks
can fetch their batch at full parallelism; a batch never contains more
urls for one host than that host's per-round budget.

Error model (the reference's ``DownloadError`` classes, extended with
industry-standard retry semantics):

- 2xx → success, body kept;
- 429 / 5xx → transient: retried up to ``max_attempts`` with
  deterministic (non-wall-clock-seeded) exponential backoff;
  exhausted retries → ``FetchHttpError``;
- other statuses (4xx) → permanent, no retry → ``FetchHttpError``;
- opener exceptions (DNS, timeout, connection reset) → transient.

``opener(url) -> (status:int, body:bytes)`` is injected so the tier is
testable without a network (this sandbox has none): tests drive it
with a deterministic in-memory opener; production would pass a
``urllib``/``requests`` opener built once per task. No live-network
default is provided on purpose — constructing one here would be
untestable dead code in this container.
"""

from __future__ import annotations

import time
from typing import Callable

import pyarrow as pa

FETCH_OK = "ok"
FETCH_HTTP_ERROR = "FetchHttpError"

Opener = Callable[[str], tuple[int, bytes]]


def decode_body(
    raw: bytes, content_encoding: str | None, max_bytes: int
) -> bytes:
    """Apply ``Content-Encoding`` (gzip / deflate, incl. the raw-
    deflate servers that violate the RFC) with the output capped at
    ``max_bytes`` — a decompression bomb must not OOM the fetch actor;
    it gets truncated like any oversized body. Unknown encodings and
    corrupt streams return the raw bytes (the extractor's soft-error
    path reports them — same errors-are-data model as the codecs)."""
    import zlib

    enc = (content_encoding or "").strip().lower()
    if enc in ("", "identity"):
        return raw
    try:
        if enc == "gzip":
            d = zlib.decompressobj(16 + zlib.MAX_WBITS)
        elif enc == "deflate":
            try:  # zlib-wrapped first (the RFC meaning)
                d = zlib.decompressobj(zlib.MAX_WBITS)
                return d.decompress(raw, max_bytes)
            except zlib.error:
                d = zlib.decompressobj(-zlib.MAX_WBITS)  # raw deflate
        else:
            return raw
        return d.decompress(raw, max_bytes)
    except zlib.error:
        return raw


def urllib_opener_factory(
    timeout_s: float = 30.0,
    user_agent: str = "vat-abcd-crawler-ray/0.3",
    max_body_bytes: int = 64 * 1024 * 1024,
) -> Opener:
    """Production opener built on the stdlib (no extra deps): GET with
    UA + ``Accept-Encoding: gzip, deflate`` headers and a timeout;
    compressed responses are inflated (output bomb-capped at
    ``max_body_bytes``, see :func:`decode_body`); non-2xx statuses are
    RETURNED (the stage classifies them — ``file_downloader.rs:8-29``
    errors on non-2xx), transport failures raise (classified transient
    by the stage). Build one per task/actor and inject it via
    ``CrawlRun(http_opener=...)`` or ``HttpFetchStage(opener)`` — this
    sandbox has no network, so the factory is never the implicit
    default."""
    import urllib.error
    import urllib.request

    def opener(url: str) -> tuple[int, bytes]:
        req = urllib.request.Request(
            url,
            headers={
                "User-Agent": user_agent,
                "Accept-Encoding": "gzip, deflate",
            },
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout_s) as resp:
                raw = resp.read(max_body_bytes)
                return resp.status, decode_body(
                    raw, resp.headers.get("Content-Encoding"), max_body_bytes
                )
        except urllib.error.HTTPError as e:
            # an HTTP-level error IS a status, not a transport failure
            return e.code, b""

    return opener


class HttpFetchStage:
    """map_batches body: rows with a ``url`` column → same rows +
    ``html`` (binary, NULL on failure), ``fetch_status`` (last HTTP
    status, -1 for transport errors), ``fetch_attempts``,
    ``fetch_error_kind`` / ``fetch_error_message`` (NULL on success).

    A batch's urls are fetched CONCURRENTLY across hosts (bounded
    thread pool, ``max_concurrency`` workers) but strictly SEQUENTIALLY
    within one host, with ``per_host_delay_s`` between that host's
    requests — so throughput is no longer ≈ hosts/latency-serial while
    each individual host still sees exactly the reference's
    one-request-at-a-time pacing (``src/main.rs:154``: the sequential
    loop spaced requests implicitly; here the spacing is explicit).
    Output row order always equals input row order regardless of
    completion order.
    """

    def __init__(
        self,
        opener: Opener,
        max_attempts: int = 3,
        retry_statuses: tuple[int, ...] = (429, 500, 502, 503, 504),
        backoff_base_s: float = 0.0,
        max_concurrency: int = 8,
        per_host_delay_s: float = 0.0,
    ):
        self.opener = opener
        self.max_attempts = max_attempts
        self.retry_statuses = frozenset(retry_statuses)
        # 0.0 in tests/sandbox; production sets e.g. 0.5 → 0.5s, 1s, 2s
        self.backoff_base_s = backoff_base_s
        self.max_concurrency = max(1, max_concurrency)
        self.per_host_delay_s = per_host_delay_s
        # one pool per stage INSTANCE, built lazily on first use and
        # reused across every batch the worker processes (a pool per
        # batch re-spawned max_concurrency threads per 256 rows);
        # dropped on pickle — each Ray worker rebuilds its own
        self._pool = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_pool"] = None  # thread pools don't serialize
        return state

    def _fetch_one(self, url: str) -> tuple[bytes | None, int, int, str | None]:
        """→ (body | None, last_status, attempts, error_message | None)."""
        status, err = -1, None
        for attempt in range(1, self.max_attempts + 1):
            try:
                status, body = self.opener(url)
            except Exception as exc:  # transport error: transient
                status, err = -1, f"transport error: {exc}"
            else:
                if 200 <= status < 300:
                    return body, status, attempt, None
                err = f"HTTP status {status}"
                if status not in self.retry_statuses:
                    return None, status, attempt, err  # permanent
            if attempt < self.max_attempts and self.backoff_base_s:
                time.sleep(self.backoff_base_s * (2 ** (attempt - 1)))
        return None, status, self.max_attempts, err

    def _get_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_concurrency)
        return self._pool

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.urlkeys import host_of

        urls = batch["url"].to_pylist()
        results: list = [None] * len(urls)

        # group row indices by host (same host key the politeness
        # budgets use); each group fetches in INPUT order
        by_host: dict[str, list[int]] = {}
        for i, h in enumerate(map(host_of, urls)):
            by_host.setdefault(h, []).append(i)

        def fetch_host(idxs: list[int]) -> None:
            for k, i in enumerate(idxs):
                if k and self.per_host_delay_s:
                    time.sleep(self.per_host_delay_s)
                results[i] = self._fetch_one(urls[i])

        groups = list(by_host.values())
        if len(groups) > 1 and self.max_concurrency > 1:
            # distinct list slots per thread: no cross-thread writes to
            # the same index, so no lock is needed on `results`
            list(self._get_pool().map(fetch_host, groups))
        else:
            for g in groups:
                fetch_host(g)

        htmls, statuses, attempts, kinds, msgs = [], [], [], [], []
        for body, status, n, err in results:
            htmls.append(body)
            statuses.append(status)
            attempts.append(n)
            kinds.append(None if err is None else FETCH_HTTP_ERROR)
            msgs.append(err)
        return (
            batch.append_column("html", pa.array(htmls, pa.binary()))
            .append_column("fetch_status", pa.array(statuses, pa.int32()))
            .append_column("fetch_attempts", pa.array(attempts, pa.int32()))
            .append_column("fetch_error_kind", pa.array(kinds, pa.string()))
            .append_column("fetch_error_message", pa.array(msgs, pa.string()))
        )
