"""WARC source — the ISO 28500 web-archive format Common Crawl ships
(`.warc` / `.warc.gz`), read as a Ray Dataset of response records.

Format (public spec): a WARC file is a sequence of records, each a
header block (``WARC/1.0`` version line + ``Name: value`` lines, CRLF
terminated, blank-line separated) followed by ``Content-Length``
payload bytes and ``\\r\\n\\r\\n``. Response records carry an HTTP
message as payload (status line + headers + body). ``.warc.gz`` is a
sequence of per-record gzip MEMBERS — stdlib ``gzip`` decodes
concatenated members natively, so no external library is needed.

Scale shape: one WARC file is read inside the task that owns it
(Common Crawl's convention is ~1 GB per file → block-per-file is the
right granularity; ``read_binary_files`` + the explode keeps payloads
off the driver). Malformed records dead-letter as ``warc_error`` rows
(the C2 errors-are-data model) — a crawled archive always contains a
few.
"""

from __future__ import annotations

import gzip
import io
import zlib
from typing import Iterator

import pyarrow as pa

_MAX_PAYLOAD = 512 << 20  # per-record sanity cap (spec has none)


def _parse_headers(block: bytes) -> dict[str, str]:
    """Header block → {lower(name): value}; folds LWS continuations."""
    out: dict[str, str] = {}
    last = None
    for line in block.split(b"\r\n"):
        if not line:
            continue
        if line[:1] in (b" ", b"\t") and last:
            out[last] += " " + line.strip().decode("latin-1")
            continue
        name, _, val = line.partition(b":")
        last = name.strip().lower().decode("latin-1")
        out[last] = val.strip().decode("latin-1")
    return out


def iter_warc_records(data: bytes) -> Iterator[dict]:
    """Raw (already-decompressed) WARC bytes → record dicts:
    ``{type, url, date, content_type, payload}``. Raises ValueError on
    a malformed stream (the caller decides whether that dead-letters
    the file or the record)."""
    pos = 0
    n = len(data)
    while pos < n:
        # skip inter-record CRLFs
        while pos < n and data[pos : pos + 2] == b"\r\n":
            pos += 2
        if pos >= n:
            return
        if not data[pos : pos + 5].startswith(b"WARC/"):
            raise ValueError(f"bad WARC version line at offset {pos}")
        hdr_end = data.find(b"\r\n\r\n", pos)
        if hdr_end < 0:
            raise ValueError("truncated WARC header block")
        version_end = data.find(b"\r\n", pos)
        headers = _parse_headers(data[version_end + 2 : hdr_end])
        try:
            length = int(headers["content-length"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad WARC Content-Length: {exc!r}") from exc
        if not 0 <= length <= _MAX_PAYLOAD:
            raise ValueError(f"WARC payload length {length} out of range")
        body_start = hdr_end + 4
        if body_start + length > n:
            raise ValueError("truncated WARC payload")
        yield {
            "type": headers.get("warc-type", ""),
            "url": headers.get("warc-target-uri", ""),
            "date": headers.get("warc-date", ""),
            "content_type": headers.get("content-type", ""),
            "payload": data[body_start : body_start + length],
        }
        pos = body_start + length


def split_http_response(payload: bytes) -> tuple[int, str, bytes]:
    """HTTP response message → (status, content_type, body). A payload
    that is not an HTTP message yields (-1, "", payload) — metadata/
    resource records store raw content."""
    if not payload.startswith(b"HTTP/"):
        return -1, "", payload
    hdr_end = payload.find(b"\r\n\r\n")
    if hdr_end < 0:
        return -1, "", payload
    status_line = payload[: payload.find(b"\r\n")]
    parts = status_line.split(None, 2)
    try:
        status = int(parts[1])
    except (IndexError, ValueError):
        return -1, "", payload
    headers = _parse_headers(payload[payload.find(b"\r\n") + 2 : hdr_end])
    body = payload[hdr_end + 4 :]
    # Content-Encoding on the archived HTTP message (gzip-era captures)
    from ..stages.fetch import decode_body

    body = decode_body(body, headers.get("content-encoding"), _MAX_PAYLOAD)
    return status, headers.get("content-type", ""), body


def parse_warc_file(name: str, data: bytes) -> pa.Table:
    """One WARC(.gz) file's bytes → Arrow table of response rows:
    ``(warc_file, url, date, status, content_type, html, warc_error)``.
    Non-response records (warcinfo/request/metadata) are skipped; a
    malformed stream yields ONE dead-letter row for the remainder of
    the file (everything parsed before the corruption is kept; a
    corrupt gzip layer dead-letters the whole file)."""
    urls, dates, statuses, ctypes, bodies, errs = [], [], [], [], [], []
    try:
        if data[:2] == b"\x1f\x8b":
            # concatenated gzip members (the .warc.gz convention)
            data = gzip.GzipFile(fileobj=io.BytesIO(data)).read()
        for rec in iter_warc_records(data):
            if rec["type"] != "response":
                continue
            status, ctype, body = split_http_response(rec["payload"])
            urls.append(rec["url"])
            dates.append(rec["date"])
            statuses.append(status)
            ctypes.append(ctype)
            bodies.append(body)
            errs.append(None)
    except (ValueError, OSError, EOFError, zlib.error) as exc:
        urls.append("")
        dates.append("")
        statuses.append(-1)
        ctypes.append("")
        bodies.append(b"")
        errs.append(str(exc))
    n = len(urls)
    return pa.table(
        {
            "warc_file": pa.array([name] * n, pa.string()),
            "url": pa.array(urls, pa.string()),
            "date": pa.array(dates, pa.string()),
            "status": pa.array(statuses, pa.int32()),
            "content_type": pa.array(ctypes, pa.string()),
            "html": pa.array(bodies, pa.binary()),
            "warc_error": pa.array(errs, pa.string()),
        }
    )


def read_warc(paths: list[str] | str):
    """WARC file path(s) → Dataset of response rows (schema above).

    ``read_binary_files`` assigns each ~1 GB WARC to its own read task
    (Common Crawl's file convention makes file-granularity the right
    block size); the per-file parse runs inside that task, so payloads
    never pass through the driver."""
    import ray.data

    ds = ray.data.read_binary_files(paths, include_paths=True)

    def explode(batch: pa.Table) -> pa.Table:
        tables = [
            parse_warc_file(p, b)
            for p, b in zip(
                batch["path"].to_pylist(), batch["bytes"].to_pylist()
            )
        ]
        return pa.concat_tables(tables)

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=1)


def write_warc(records: list[dict], gz: bool = False) -> bytes:
    """Response records → WARC/1.0 bytes (test fixture writer; one
    gzip member per record when ``gz``, per the .warc.gz convention).
    Each record: ``{url, date, status, content_type, body}``."""
    out = bytearray()
    for r in records:
        http = (
            f"HTTP/1.1 {r.get('status', 200)} OK\r\n"
            f"Content-Type: {r.get('content_type', 'text/html')}\r\n"
            f"Content-Length: {len(r['body'])}\r\n\r\n"
        ).encode() + r["body"]
        hdr = (
            "WARC/1.0\r\n"
            "WARC-Type: response\r\n"
            f"WARC-Target-URI: {r['url']}\r\n"
            f"WARC-Date: {r.get('date', '2024-01-01T00:00:00Z')}\r\n"
            "Content-Type: application/http;msgtype=response\r\n"
            f"Content-Length: {len(http)}\r\n\r\n"
        ).encode()
        rec = hdr + http + b"\r\n\r\n"
        out += gzip.compress(rec) if gz else rec
    return bytes(out)
