"""Page store: file routing, the in-task lookup, miss and duplicate
behavior, and the fetch chunks a crawl round cuts."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vat_abcd_crawler_ray.state.page_store import PageStore, lookup


def _write_pages(d, files: list[list[str]]) -> str:
    os.makedirs(d)
    for fi, part in enumerate(files):
        t = pa.table(
            {
                "url": pa.array(part),
                "html": pa.array([f"{u}#{i}".encode() for i, u in enumerate(part)],
                                 pa.binary()),
                "lang": pa.array(["en"] * len(part)),
                "warc_ts": pa.array([0] * len(part), pa.timestamp("us")),
            }
        )
        pq.write_table(t, os.path.join(d, f"part-{fi}.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    urls = sorted(f"https://h{i:04d}.org/p" for i in range(100))
    d = tmp_path_factory.mktemp("pages") / "pages.parquet"
    return _write_pages(d, [urls[fi * 20 : (fi + 1) * 20] for fi in range(5)]), urls


def _fetch(store: PageStore, urls: list[str]) -> pa.Table:
    """One chunk over every url, as a fetch task looks it up."""
    import ray

    meta = pa.table({"url": urls, "seq": np.arange(len(urls))})
    return lookup(meta, store.file_of(urls), ray.get(store.files))


@pytest.mark.usefixtures("ray_session")
class TestPageStore:
    def test_lookup_all_and_boundaries(self, store_dir):
        path, urls = store_dir
        store = PageStore(path)
        # every url resolves, including exact file-boundary urls, with
        # the request's columns appended to its own row
        req = urls[::-1]
        got = _fetch(store, req)
        assert sorted(got["url"].to_pylist()) == urls
        assert dict(zip(got["url"].to_pylist(), got["seq"].to_pylist())) == {
            u: i for i, u in enumerate(req)
        }
        assert got.column_names == PageStore.COLUMNS + ["seq"]
        for fi in range(5):  # the first and last url of every file
            for u in (urls[fi * 20], urls[fi * 20 + 19]):
                assert _fetch(store, [u])["url"].to_pylist() == [u]
        # html round-trips
        assert _fetch(store, [urls[0]])["html"][0].as_py() == f"{urls[0]}#0".encode()

    def test_misses_absent(self, store_dir):
        path, urls = store_dir
        store = PageStore(path)
        miss = ["https://zzz.example/none", urls[3], "https://a.example/", urls[40] + "x"]
        got = _fetch(store, miss)
        assert got["url"].to_pylist() == [urls[3]]
        assert got["seq"].to_pylist() == [1]

    def test_duplicate_url_resolves_to_its_last_row(self, tmp_path):
        """A url stored twice resolves to its last row, as a url → row
        dict built in file order would."""
        urls = ["https://a.org/1", "https://a.org/2", "https://a.org/2", "https://b.org/"]
        store = PageStore(_write_pages(tmp_path / "pages", [urls[:3], urls[3:]]))
        got = _fetch(store, ["https://a.org/2", "https://a.org/1"])
        assert got["html"].to_pylist() == [b"https://a.org/2#2", b"https://a.org/1#0"]

    def test_key_collisions_resolve_by_url(self, store_dir, monkeypatch):
        """Urls whose keys collide still resolve to their own rows: with
        every url keyed alike, a lookup walks the key's run by url."""
        from vat_abcd_crawler_ray.state import page_store

        path, urls = store_dir
        monkeypatch.setattr(page_store, "murmur3_64_batch",
                            lambda a: np.zeros(len(a), np.int64))
        store = PageStore(path)
        files = [page_store._load_file._function(os.path.join(path, f), PageStore.COLUMNS)
                 for f in sorted(os.listdir(path))]
        req = [urls[5], "https://zzz.example/none", urls[0], urls[99]]
        got = lookup(pa.table({"url": req}), store.file_of(req), files)
        assert got["url"].to_pylist() == [urls[5], urls[0], urls[99]]
        assert got["html"].to_pylist() == [f"{u}#{i}".encode()
                                           for u, i in ((urls[5], 5), (urls[0], 0), (urls[99], 19))]

    def test_empty_file_is_skipped(self, tmp_path):
        """A corpus file with no rows neither breaks the store nor takes
        a url range: next to a one-row file, every url is found (and the
        url-sorted check still runs over the files with rows)."""
        urls = ["https://a.org/", "https://b.org/"]
        path = _write_pages(tmp_path / "pages", [urls[:1], [], urls[1:]])
        store = PageStore(path)
        assert len(store.files) == 2
        assert sorted(_fetch(store, urls[::-1])["url"].to_pylist()) == urls
        one = _write_pages(tmp_path / "one", [urls[:1], []])
        assert _fetch(PageStore(one), urls)["url"].to_pylist() == urls[:1]
        with pytest.raises(ValueError, match="globally url-sorted"):
            PageStore(_write_pages(tmp_path / "unsorted", [urls[1:], [], urls[:1]]))

    def test_unsorted_corpus_raises(self, tmp_path):
        path = _write_pages(tmp_path / "pages", [["https://b.org/"], ["https://a.org/"]])
        with pytest.raises(ValueError, match="globally url-sorted"):
            PageStore(path)

    def test_narrow_round_is_one_chunk_across_files(self, store_dir, tmp_path):
        """A round narrower than one extract batch is one task holding
        the refs of every file its urls fall in; a wide round is cut in
        file order into at most 2 × CPU chunks of at least one batch."""
        import ray

        from vat_abcd_crawler_ray.pipelines.crawl import CrawlRun

        path, urls = store_dir
        pol = str(tmp_path / "politeness.parquet")
        pq.write_table(pa.table({"host": ["h"], "max_fetches_per_round": [1],
                                 "robots_disallow_prefix": [""]}), pol)
        run = CrawlRun(path, "", pol, str(tmp_path / "run"))
        n = len(urls)
        meta = run._fetch_meta(
            pa.table({"canonical_url": urls[::-1], "surrogate": np.arange(n),
                      "seq": np.arange(n), "priority": np.ones(n)}),
            0,
        )
        (chunk,) = run._fetch_store_refs(meta)
        assert len(chunk) == 2 + 5  # meta, fidx, one ref per file
        got = lookup(chunk[0], chunk[1], ray.get(list(chunk[2:])))
        assert sorted(got["url"].to_pylist()) == urls
        run.settings.crawl.batch_size = 8
        chunks = run._fetch_store_refs(meta)
        ncpu = int(ray.cluster_resources()["CPU"])
        assert 1 < len(chunks) <= 2 * ncpu
        assert min(c[0].num_rows for c in chunks) >= 8
        got = [u for c in chunks for u in lookup(c[0], c[1], ray.get(list(c[2:])))["url"].to_pylist()]
        assert sorted(got) == urls
