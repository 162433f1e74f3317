"""functions/sitemap + urlkeys URL hygiene — crawl front-end
discovery pieces (sitemaps.org protocol; tracking-param stripping)."""

import gzip

import pandas as pd
import pytest

from vat_abcd_crawler_ray.functions.sitemap import (
    parse_sitemap,
    sitemap_urls_batch,
)
from vat_abcd_crawler_ray.functions.urlkeys import strip_tracking_params

URLSET = """<?xml version="1.0" encoding="UTF-8"?>
<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">
  <url><loc>https://a.example/page1</loc>
       <lastmod>2024-01-01</lastmod><priority>0.8</priority></url>
  <url><loc>https://a.example/page2</loc></url>
  <url><lastmod>2024-01-01</lastmod></url>
</urlset>"""

INDEX = """<?xml version="1.0"?>
<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">
  <sitemap><loc>https://a.example/sm1.xml</loc></sitemap>
  <sitemap><loc>https://a.example/sm2.xml.gz</loc></sitemap>
</sitemapindex>"""


class TestParseSitemap:
    def test_urlset(self):
        p = parse_sitemap(URLSET)
        assert p["kind"] == "urlset"
        assert p["urls"] == ["https://a.example/page1",
                             "https://a.example/page2"]
        assert p["lastmod"] == ["2024-01-01", None]
        assert p["priority"] == [0.8, None]

    def test_index(self):
        p = parse_sitemap(INDEX)
        assert p["kind"] == "sitemapindex"
        assert p["sitemaps"] == ["https://a.example/sm1.xml",
                                 "https://a.example/sm2.xml.gz"]
        assert p["urls"] == []

    def test_gzip_body(self):
        p = parse_sitemap(gzip.compress(URLSET.encode()))
        assert len(p["urls"]) == 2

    def test_no_namespace_variant(self):
        p = parse_sitemap("<urlset><url><loc>https://x/</loc></url></urlset>")
        assert p["urls"] == ["https://x/"]

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_corrupt_gzip_is_one_dead_letter_row(self, damage):
        """A corrupt .xml.gz (cut short: EOFError; a flipped deflate
        byte: zlib.error or a CRC BadGzipFile) raises ValueError, so the
        batch dead-letters it as one sitemap_error row."""
        data = bytearray(gzip.compress(URLSET.encode()))
        if damage == "truncate":
            data = data[: len(data) // 2]
        else:
            data[len(data) // 2] ^= 0xFF
        with pytest.raises(ValueError, match="corrupt gzip"):
            parse_sitemap(bytes(data))
        df = sitemap_urls_batch(pd.Series([bytes(data), URLSET]))
        bad = df[df.sitemap_error.notna()]
        assert bad["sitemap_idx"].tolist() == [0]
        assert (df.sitemap_idx == 1).sum() == 2

    def test_malformed_and_wrong_root(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_sitemap(b"<urlset><broken")
        with pytest.raises(ValueError, match="not a sitemap"):
            parse_sitemap(b"<html></html>")


class TestBatch:
    def test_explode_with_dead_letters(self):
        df = sitemap_urls_batch(pd.Series([
            URLSET, INDEX, b"not xml at all", None,
        ]))
        ok = df[df.sitemap_error.isna()]
        assert list(ok[ok.sitemap_idx == 0]["url"]) == [
            "https://a.example/page1", "https://a.example/page2"]
        idx_rows = ok[ok.sitemap_idx == 1]
        assert idx_rows["is_index"].all() and len(idx_rows) == 2
        bad = df[df.sitemap_error.notna()]
        assert sorted(bad["sitemap_idx"]) == [2, 3]


class TestTrackingStrip:
    @pytest.mark.parametrize("url,want", [
        ("https://a.ex/p?utm_source=x&id=3&utm_medium=y",
         "https://a.ex/p?id=3"),
        ("https://a.ex/p?gclid=abc", "https://a.ex/p"),
        ("https://a.ex/p?fbclid=1&q=hello&utm_campaign=z",
         "https://a.ex/p?q=hello"),
        ("https://a.ex/p?b=2&a=1", "https://a.ex/p?b=2&a=1"),  # order kept
        ("https://a.ex/p", "https://a.ex/p"),
        ("https://a.ex/p?utm_x=1#frag", "https://a.ex/p#frag"),
        ("https://a.ex/p?UTM_SOURCE=x&ok=1", "https://a.ex/p?ok=1"),
    ])
    def test_cases(self, url, want):
        assert strip_tracking_params(url) == want
