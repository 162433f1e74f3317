"""Sitemap parsing (sitemaps.org XML protocol, public spec) — the
URL-discovery side of the crawl front end: ``/robots.txt`` names
sitemaps, sitemaps name URLs (or more sitemaps), and the parsed URL
list feeds the seed frontier.

Both document kinds are handled: ``<urlset>`` (leaf: ``<url><loc>``
entries with optional lastmod/priority) and ``<sitemapindex>``
(``<sitemap><loc>`` entries pointing at further sitemap files — the
caller fetches those and recurses; the parser itself never touches
the network). Gzip'd bodies (the ``.xml.gz`` convention) inflate via
stdlib. Parsing uses ElementTree with namespace-agnostic tag
matching — real sitemaps mix default/prefixed/absent namespaces.
"""

from __future__ import annotations

import gzip
import xml.etree.ElementTree as ET
import zlib

import pandas as pd


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1].lower()


def parse_sitemap(data: bytes | str) -> dict:
    """Sitemap bytes/str → ``{kind, urls, sitemaps, lastmod,
    priority}``; ``kind`` is "urlset" or "sitemapindex". Gzip'd input
    inflates first; a corrupt gzip layer or malformed XML raises
    ValueError (dead-letter at the caller, C2 style)."""
    if isinstance(data, str):
        data = data.encode()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:  # BadGzipFile is an OSError
            raise ValueError(f"corrupt gzip sitemap: {exc}") from exc
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise ValueError(f"malformed sitemap XML: {exc}") from exc
    kind = _local(root.tag)
    if kind not in ("urlset", "sitemapindex"):
        raise ValueError(f"not a sitemap document (root <{kind}>)")
    urls: list[str] = []
    subs: list[str] = []
    lastmod: list[str | None] = []
    priority: list[float | None] = []
    for entry in root:
        ename = _local(entry.tag)
        loc = lm = None
        pr = None
        for child in entry:
            c = _local(child.tag)
            text = (child.text or "").strip()
            if c == "loc":
                loc = text
            elif c == "lastmod":
                lm = text
            elif c == "priority":
                try:
                    pr = float(text)
                except ValueError:
                    pr = None
        if not loc:
            continue
        if ename == "url":
            urls.append(loc)
            lastmod.append(lm)
            priority.append(pr)
        elif ename == "sitemap":
            subs.append(loc)
    return {
        "kind": kind,
        "urls": urls,
        "sitemaps": subs,
        "lastmod": lastmod,
        "priority": priority,
    }


def sitemap_urls_batch(bodies: pd.Series) -> pd.DataFrame:
    """map_batches body: sitemap blobs → exploded seed rows
    ``(sitemap_idx, url, lastmod, priority, is_index, sitemap_error)``
    — index documents contribute their CHILD sitemap urls with
    ``is_index=True`` (the pipeline fetches and re-feeds them);
    malformed blobs dead-letter as one error row."""
    idxs: list[int] = []
    urls: list[str] = []
    lms: list[str | None] = []
    prs: list[float | None] = []
    is_idx: list[bool] = []
    errs: list[str | None] = []
    for i, body in enumerate(bodies):
        try:
            parsed = parse_sitemap(body if body is not None else b"")
        except ValueError as exc:
            idxs.append(i)
            urls.append("")
            lms.append(None)
            prs.append(None)
            is_idx.append(False)
            errs.append(str(exc))
            continue
        for u, lm, pr in zip(
            parsed["urls"], parsed["lastmod"], parsed["priority"]
        ):
            idxs.append(i)
            urls.append(u)
            lms.append(lm)
            prs.append(pr)
            is_idx.append(False)
            errs.append(None)
        for s in parsed["sitemaps"]:
            idxs.append(i)
            urls.append(s)
            lms.append(None)
            prs.append(None)
            is_idx.append(True)
            errs.append(None)
    return pd.DataFrame(
        {
            "sitemap_idx": pd.array(idxs, dtype="int64"),
            "url": urls,
            "lastmod": lms,
            "priority": pd.array(prs, dtype="float64"),
            "is_index": is_idx,
            "sitemap_error": errs,
        }
    )
