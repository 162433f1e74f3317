"""Page store — the simulated network (S3 fetch analog).

The reference fetches each dataset over HTTP (O(1) per url,
``/root/reference/src/file_downloader.rs:8-29``). In this sandbox the
"network" is the pages Parquet table; a naive per-round
``read_parquet(filter=url.isin(...))`` re-scans the whole corpus every
round — O(corpus × rounds). This store instead loads each corpus file
ONCE per Ray session into the object store and answers each fetch
chunk with indexed lookups, like a real fetch tier.

One ``num_cpus=1`` task per file (:func:`_load_file`) returns the
file's Arrow table with a sorted murmur3 url-key index; the driver
keeps only the refs, never the pages. The files are globally
url-sorted, so the driver routes a url to its file by binary search
over the file-start urls (:meth:`PageStore.file_of`); a fetch chunk's
task gets the refs of the files its urls fall in (zero-copy) and finds
its pages itself (:func:`lookup`, O(chunk · log file)). No actor holds
the corpus.

At true 100 TB scale the same interface fronts an HTTP fetcher or a
bucketed page archive; the batched lookup contract stays.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.urlkeys import murmur3_64_batch


@ray.remote(num_cpus=1)
def _load_file(path: str, columns: list[str]) -> tuple:
    """(table, sorted url keys, row of each sorted key). The stable
    sort keeps duplicate urls in file order, so a url's LAST row ends
    its key run."""
    t = pq.read_table(path, columns=columns).combine_chunks()
    keys = murmur3_64_batch(t["url"].combine_chunks())
    rows = np.argsort(keys, kind="stable")
    return t, keys[rows], rows


def _find(table: pa.Table, skeys: np.ndarray, rows: np.ndarray,
          urls: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(positions in ``urls``, table rows) of the urls present in one
    loaded file; a duplicated url resolves to its last row."""
    keys = murmur3_64_batch(urls)
    last = np.maximum(np.searchsorted(skeys, keys, side="right") - 1, 0)
    pos = np.flatnonzero(skeys[last] == keys)
    found = rows[last[pos]]
    same = np.array(
        pc.equal(table["url"].take(found), urls.take(pos)).fill_null(False), dtype=bool
    )
    # a 64-bit key collision: search the rest of the key's run
    for i in np.flatnonzero(~same):
        url = urls[int(pos[i])].as_py()
        run = rows[np.searchsorted(skeys, keys[pos[i]]) : last[pos[i]]]
        match = [r for r in run if table["url"][int(r)].as_py() == url]
        if match:
            found[i], same[i] = match[-1], True
    return pos[same], found[same]


def lookup(meta: pa.Table, fidx: np.ndarray, files: list[tuple]) -> pa.Table:
    """The pages of ``meta``'s urls (column ``url``), url ``i`` looked up
    in loaded file ``files[fidx[i]]``: one row per present url, in file
    order and then ``meta`` order (``meta`` order for a chunk cut in
    file order), with ``meta``'s other columns appended. Misses are
    simply absent (the caller diffs against its request list)."""
    urls = meta["url"].combine_chunks()
    parts, where = [], []
    for j, (table, skeys, rows) in enumerate(files):
        sel = np.flatnonzero(fidx == j)
        pos, found = _find(table, skeys, rows, urls.take(sel))
        parts.append(table.take(found))
        where.append(sel[pos])
    pages = pa.concat_tables(parts)
    mt = meta.take(np.concatenate(where))
    for name in meta.column_names:
        if name != "url":
            pages = pages.append_column(name, mt[name])
    return pages


_STORE_CACHE: dict[tuple[str, str], "PageStore"] = {}


def get_page_store(pages_path: str) -> "PageStore":
    """Session-scoped cache: repeated crawls over the same corpus
    (tests, benches, resumes) reuse its loaded files instead of
    re-decoding the parquet. Keyed by this driver's Ray connection too,
    so refs from a shut-down cluster are never reused."""
    session = ray.get_runtime_context().get_worker_id()
    for key in [k for k in _STORE_CACHE if k[1] != session]:
        del _STORE_CACHE[key]
    key = (pages_path, session)
    if key not in _STORE_CACHE:
        _STORE_CACHE[key] = PageStore(pages_path)
    return _STORE_CACHE[key]


class PageStore:
    """Driver-side handle: the file router and one loaded-file ref per
    corpus file."""

    COLUMNS = ["url", "html", "lang", "warc_ts"]

    def __init__(self, pages_path: str):
        if os.path.isdir(pages_path):
            files = sorted(
                os.path.join(pages_path, f)
                for f in os.listdir(pages_path)
                if f.endswith(".parquet")
            )
        else:
            files = [pages_path]
        # File-start boundaries from the FIRST ROW of each file (one
        # tiny batch per file), not footer statistics — parquet writers
        # may truncate string min/max stats, which would silently
        # misroute lookups. Routing also requires a globally url-sorted
        # corpus; validate the invariant here and fail loudly instead of
        # turning present pages into FetchMiss dead-letter rows. A file
        # with no rows has no first url and serves no page: it is
        # skipped (one is kept when every file is empty, so a lookup
        # still has a file to miss in).
        starts: list[str] = []
        kept = []
        for f in files:
            pf = pq.ParquetFile(f)
            if pf.metadata.num_rows:
                batch = next(pf.iter_batches(batch_size=1, columns=["url"]))
                starts.append(batch["url"][0].as_py())
                kept.append(f)
        files = kept or files[:1]
        for prev, cur, f in zip(starts, starts[1:], files[1:]):
            if not prev < cur:
                raise ValueError(
                    f"page store requires globally url-sorted files: "
                    f"{f!r} starts at {cur!r} <= previous file start {prev!r}"
                )
        self._starts = np.array(starts[1:], dtype=object)  # boundaries after file 0
        # do NOT block here: the loads overlap the caller's seed
        # bootstrap; the first task that reads a file waits for it
        self.files = [_load_file.remote(f, self.COLUMNS) for f in files]

    def file_of(self, urls: list[str]) -> np.ndarray:
        """The index into :attr:`files` of the file each url falls in."""
        return np.searchsorted(self._starts, np.array(urls, dtype=object), side="right")
