"""sources/warc — ISO 28500 WARC reading (the Common Crawl shipping
format); no reference analog (the reference ingests ZIPs of XML)."""

import gzip

import pytest

from vat_abcd_crawler_ray.sources.warc import (
    iter_warc_records,
    parse_warc_file,
    read_warc,
    split_http_response,
    write_warc,
)


def _records(n=5):
    return [
        {
            "url": f"https://h{i % 3}.example/p{i}",
            "status": 200 if i % 4 else 404,
            "content_type": "text/html",
            "body": f"<html>page {i} body</html>".encode(),
        }
        for i in range(n)
    ]


class TestWarcParse:
    def test_roundtrip_plain(self):
        recs = _records()
        t = parse_warc_file("f.warc", write_warc(recs))
        assert t.num_rows == 5
        assert t["url"].to_pylist() == [r["url"] for r in recs]
        assert t["status"].to_pylist() == [r["status"] for r in recs]
        assert t["html"].to_pylist() == [r["body"] for r in recs]
        assert t["warc_error"].to_pylist() == [None] * 5

    def test_roundtrip_gz_members(self):
        recs = _records(4)
        t = parse_warc_file("f.warc.gz", write_warc(recs, gz=True))
        assert t.num_rows == 4
        assert t["html"].to_pylist() == [r["body"] for r in recs]

    def test_non_response_records_skipped(self):
        info = (
            b"WARC/1.0\r\nWARC-Type: warcinfo\r\n"
            b"Content-Type: application/warc-fields\r\n"
            b"Content-Length: 10\r\n\r\nxxxxxxxxxx\r\n\r\n"
        )
        t = parse_warc_file("f", info + write_warc(_records(2)))
        assert t.num_rows == 2

    def test_corrupt_tail_keeps_parsed_prefix(self):
        data = write_warc(_records(3)) + b"GARBAGE NOT A RECORD"
        t = parse_warc_file("f", data)
        ok = [e for e in t["warc_error"].to_pylist() if e is None]
        bad = [e for e in t["warc_error"].to_pylist() if e]
        assert len(ok) == 3 and len(bad) == 1
        assert "WARC" in bad[0]

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_corrupt_gzip_is_one_dead_letter_row(self, damage):
        """A .warc.gz whose gzip layer is corrupt (cut short: EOFError;
        a flipped deflate byte: zlib.error or a CRC OSError) yields the
        single warc_error row instead of failing the read task."""
        data = bytearray(write_warc(_records(3), gz=True))
        if damage == "truncate":
            data = data[: len(data) // 2]
        else:
            data[len(data) // 2] ^= 0xFF
        t = parse_warc_file("f.warc.gz", bytes(data))
        assert t.num_rows == 1 and t["warc_error"][0].as_py()

    def test_truncated_payload(self):
        data = write_warc(_records(1))[:-30]
        t = parse_warc_file("f", data)
        assert t["warc_error"].to_pylist()[0] is not None

    def test_header_continuation_lines(self):
        recs = list(iter_warc_records(
            b"WARC/1.0\r\nWARC-Type: response\r\n"
            b"WARC-Target-URI: https://a.example/\r\n"
            b"X-Folded: part one\r\n  part two\r\n"
            b"Content-Length: 2\r\n\r\nhi\r\n\r\n"
        ))
        assert recs[0]["payload"] == b"hi"

    def test_http_split_and_content_encoding(self):
        body = b"<html>compressed archive capture</html>"
        http = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
            b"Content-Encoding: gzip\r\n\r\n" + gzip.compress(body)
        )
        status, ctype, out = split_http_response(http)
        assert (status, ctype) == (200, "text/html")
        assert out == body

    def test_non_http_payload_passthrough(self):
        status, ctype, out = split_http_response(b"raw resource bytes")
        assert status == -1 and out == b"raw resource bytes"


@pytest.mark.usefixtures("ray_session")
class TestReadWarcDataset:
    def test_read_mixed_plain_and_gz(self, tmp_path):
        a = tmp_path / "a.warc"
        b = tmp_path / "b.warc.gz"
        a.write_bytes(write_warc(_records(6)))
        b.write_bytes(write_warc(_records(3), gz=True))
        df = read_warc([str(a), str(b)]).to_pandas()
        assert len(df) == 9
        assert set(df["warc_file"]) == {str(a), str(b)}
        assert df["warc_error"].isna().all()
        assert (df["status"].isin([200, 404])).all()

    def test_pipeline_composition(self, tmp_path):
        # WARC → text extraction feels like the real ingest: html body
        # decodes and flows into a map_batches transform
        import pandas as pd

        p = tmp_path / "c.warc"
        p.write_bytes(write_warc(_records(8)))
        ds = read_warc(str(p))
        out = ds.map_batches(
            lambda df: pd.DataFrame({
                "url": df["url"],
                "n_bytes": [len(b) for b in df["html"]],
            }),
            batch_format="pandas",
        ).to_pandas()
        assert len(out) == 8 and (out["n_bytes"] > 0).all()
