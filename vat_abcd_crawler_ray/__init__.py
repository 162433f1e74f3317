"""vat_abcd_crawler_ray — a Ray-Data-native re-creation of the
gfbio/vat-abcd-crawler harvest pipeline, generalized to a web-scale
URL-frontier + fetch scheduler + extraction engine over Parquet tables
of Common-Crawl-style pages ``(url, warc_ts, html, text, lang)``.

Layout
------
- ``functions/`` pure scalar / per-batch functions (extract, url keys,
  hashing, text analysis) — stateless ``map_batches`` bodies.
- ``sources/``  readers + deterministic synthetic corpora generators.
- ``state/``    stateful components (driver-held seen set, cuckoo
  filter, object-store page store, lineage manifest).
- ``ops/``      reusable distributed operators Ray Data lacks
  (first-wins winners, hash combine, bucketed hash join, per-key
  top-k, semi join).
- ``stages/``   map_batches stage classes (fetch, extract, score).
- ``pipelines/``end-to-end pipelines (crawl, extract-only, listing,
  dedup, similarity).

Reference semantics are cited per function as ``file:line`` into
``/root/reference`` (gfbio/vat-abcd-crawler); nothing is ported —
every operator is re-expressed on ``ray.data.Dataset``.
"""

__version__ = "0.1.0"
