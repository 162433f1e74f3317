"""Hash-partitioned combine for partial-aggregate tables.

Ray Data's ``groupby().aggregate()`` is a sort-based shuffle whose
reduce path pays per-row/per-group Python costs; on the dedup
pipelines' mostly-singleton bucket tables it measured **705 s** for
5.7M partial rows at 32 CPUs (SCALING run, 800k docs — the 8-CPU level
happened to stay under the driver gate and finished the whole query in
20 s). The combine itself is trivial for C++ hash-agg: the same 5.7M
rows group in well under a second via ``pa.TableGroupBy``.

This module performs the identical one-exchange combine with plain Ray
tasks and Arrow kernels:

- **map**: one task per partial block splits its rows into ``parts``
  partitions by a multiplicative hash of the key (``num_returns=parts``
  so each partition is its own object — a reducer fetches only its
  slice, which on a multi-node cluster is the same network volume as
  any hash shuffle, minus the sort).
- **reduce**: task ``p`` concatenates its slice (≈ total/parts rows,
  bounding per-reducer memory at any scale) and hash-aggregates it
  with ``pa.TableGroupBy`` (C++, O(n)), keeping groups with
  ``sum >= min_count``.
- **driver**: pulls per-reducer HOT counts first, so a caller gate
  (``hot_limit``) can bail out before fetching a single result table.

Used by the dedup family (``pipelines/dedup.py``: the exact-copy
finder's digest partitions, MinHash's hot-rep combine and the
hot-bucket combine), by substring dedup, and by the crawl, whose seed
bootstrap, link admission and frontier backlog are key-hash parts of
``partition_refs`` sized by ``combine_parts``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .blocks import as_arrow

# SplitMix64-style multiplicative mix: decorrelates the partition id
# from any arithmetic structure in the key (band buckets are already
# hashes, but callers may pass raw ids).
_MIX = np.uint64(0x9E3779B97F4A7C15)

_EMPTY_SCHEMA_COLS = ("key", "total", "rep")


def _partition_ids(keys: np.ndarray, parts: int) -> np.ndarray:
    """Partition id per key: top bits of a multiplicative hash."""
    k = keys.astype(np.int64, copy=False).view(np.uint64)
    with np.errstate(over="ignore"):
        h = k * _MIX
    return ((h >> np.uint64(33)) % np.uint64(parts)).astype(np.int64)


def _column_partition_ids(col: "pa.ChunkedArray", parts: int) -> np.ndarray:
    """Partition ids for an arbitrary key column: integers go through
    the multiplicative mix directly; strings/binary through pandas'
    vectorized siphash (``pd.util.hash_array``)."""
    if pa.types.is_integer(col.type):
        return _partition_ids(
            col.to_numpy(zero_copy_only=False).astype(np.int64), parts
        )
    import pandas as pd

    h = pd.util.hash_array(col.to_pandas().to_numpy())
    return (h % np.uint64(parts)).astype(np.int64)


def split_table(tbl: pa.Table, key: str, parts: int) -> tuple:
    """Split ``tbl`` into ``parts`` sub-tables by the hash of ``key``
    (the split :func:`partition_refs` makes), each in ``tbl``'s row
    order."""
    if parts == 1:
        return (tbl,)
    if not tbl.num_rows:
        empty = tbl.slice(0, 0)
        return tuple(empty for _ in range(parts))
    pids = _column_partition_ids(tbl[key], parts)
    order = np.argsort(pids, kind="stable")
    sorted_pids = pids[order]
    bounds = np.searchsorted(sorted_pids, np.arange(parts + 1))
    picked = tbl.take(pa.array(order))
    return tuple(
        picked.slice(bounds[p], bounds[p + 1] - bounds[p])
        for p in range(parts)
    )


@ray.remote
def _split_block(block, key: str, parts: int):
    """Split one partial block into ``parts`` (≥ 2) sub-tables by key
    hash."""
    return split_table(as_arrow(block), key, parts)


def partition_refs(refs: list, key: str, parts: int) -> list:
    """``matrix[i][p]``: the rows of block ``refs[i]`` whose ``key``
    hashes to partition ``p``. One partition takes every block as-is,
    with no split wave."""
    if parts == 1:
        return [[r] for r in refs]
    split = _split_block.options(num_returns=parts)
    return [split.remote(r, key, parts) for r in refs]


@ray.remote
def _combine_partition(
    key: str,
    sum_col: str,
    min_col: str | None,
    min_count: int,
    *tables: pa.Table,
):
    """Hash-aggregate one partition's slices; keep groups with
    ``sum(sum_col) >= min_count``. Returns (hot_row_count, hot_table)
    with columns renamed to (key, total[, rep])."""
    import pyarrow.compute as pc

    live = [t for t in tables if t.num_rows]
    if not live:
        n_cols = 3 if min_col is not None else 2
        empty = pa.table(
            {
                c: pa.array([], type=pa.int64())
                for c in _EMPTY_SCHEMA_COLS[:n_cols]
            }
        )
        return 0, empty
    tbl = pa.concat_tables(live)
    spec = [(sum_col, "sum")]
    names = [key, "total"]
    if min_col is not None:
        spec.append((min_col, "min"))
        names.append("rep")
    g = pa.TableGroupBy(tbl, key).aggregate(spec)
    # TableGroupBy emits (sum_col_sum[, min_col_min], key); align by name
    out = pa.table(
        {
            names[0]: g[key],
            names[1]: g[f"{sum_col}_sum"],
            **(
                {names[2]: g[f"{min_col}_min"]}
                if min_col is not None
                else {}
            ),
        }
    )
    out = out.filter(pc.greater_equal(out["total"], pa.scalar(min_count)))
    return out.num_rows, out


@ray.remote
def _multisum_partition(key: str, sum_cols: tuple, *tables: pa.Table):
    """Sum every column in ``sum_cols`` per key over one partition's
    slices (C++ hash-agg)."""
    live = [t for t in tables if t.num_rows]
    if not live:
        if tables:
            return tables[0].select([key, *sum_cols])
        return pa.table(
            {c: pa.array([], type=pa.int64()) for c in (key, *sum_cols)}
        )
    g = pa.TableGroupBy(pa.concat_tables(live), key).aggregate(
        [(c, "sum") for c in sum_cols]
    )
    return pa.table(
        {key: g[key], **{c: g[f"{c}_sum"] for c in sum_cols}}
    )


def sum_combine_dataset(
    partials: "ray.data.Dataset",
    key: str,
    sum_cols: list[str],
    parts: int | None = None,
) -> "ray.data.Dataset":
    """Combine per-block partial sums over MULTIPLE columns into one
    row per key, returned AS A DATASET (one block per hash partition;
    values never pass through the driver), for per-entity aggregates
    whose key cardinality is data-sized (e.g. per-document rollups)."""
    import ray.data as rd

    refs = partials.to_arrow_refs()
    if parts is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        parts = max(8, min(256, cpus))
    if not refs:
        return rd.from_arrow(
            pa.table(
                {c: pa.array([], type=pa.int64()) for c in (key, *sum_cols)}
            )
        )
    matrix = partition_refs(refs, key, parts)
    return rd.from_arrow_refs(
        [
            _multisum_partition.remote(
                key, tuple(sum_cols), *[row[p] for row in matrix]
            )
            for p in range(parts)
        ]
    )


# partial rows per combine partition when a caller sizes ``parts`` from
# the observed partial volume: ~24 MB of (key, n, min) per reducer
_ROWS_PER_PART = 1 << 20


def combine_parts(partial_rows: int, cpus: int | None = None) -> int:
    """Partition count for ``partial_rows`` partial rows: one per
    ``_ROWS_PER_PART`` rows, capped at ``cpus`` (default: the cluster's
    CPUs), so a small combine pays one reducer (and no split wave), not
    one per CPU."""
    if cpus is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(1, min(cpus, -(-partial_rows // _ROWS_PER_PART)))


def hot_combine(
    partials: "ray.data.Dataset",
    *,
    key: str = "bucket",
    sum_col: str = "n",
    min_col: str | None = None,
    min_count: int = 2,
    hot_limit: int | None = None,
    parts: int | None = None,
):
    """Combine partial (key, sum[, min]) rows — a Dataset, or a list of
    Arrow table refs — into the HOT groups (``sum >= min_count``),
    sorted by key.

    Returns ``(keys, mins)`` (``mins`` is None when ``min_col`` is
    None), or ``None`` when ``hot_limit`` is set and the hot-group
    count exceeds it (checked from per-reducer counts before any result
    table is fetched). Integer keys come back as int64; other key types
    (the dedup's 16-byte content digests) as an object array of their
    Python values. ``mins`` is int64.
    """
    refs = partials if isinstance(partials, list) else partials.to_arrow_refs()
    if parts is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        # per-reducer slice ≈ total/parts; one reducer per CPU saturates
        # the combine without over-scheduling tiny slices
        parts = max(8, min(256, cpus))
    if not refs:
        keys = np.zeros(0, np.int64)
        return (keys, np.zeros(0, np.int64)) if min_col else (keys, None)

    matrix = partition_refs(refs, key, parts)
    combine = _combine_partition.options(num_returns=2)
    reduces = [
        combine.remote(
            key, sum_col, min_col, min_count, *[row[p] for row in matrix]
        )
        for p in range(parts)
    ]
    counts = ray.get([r[0] for r in reduces])
    if hot_limit is not None and sum(counts) > hot_limit:
        return None
    tables = ray.get([r[1] for r in reduces])
    live = [t for t in tables if t.num_rows]
    if not live:
        keys = np.zeros(0, np.int64)
        return (keys, np.zeros(0, np.int64)) if min_col else (keys, None)
    tbl = pa.concat_tables(live)
    keys = tbl[key].to_numpy(zero_copy_only=False)
    if pa.types.is_integer(tbl[key].type):
        keys = keys.astype(np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    if min_col is None:
        return keys, None
    mins = tbl["rep"].to_numpy(zero_copy_only=False).astype(np.int64)
    return keys, mins[order]
