"""Join operators (SURVEY §2.4) — Ray-Data-first implementations.

- :func:`broadcast_join` — small side ``ray.put`` once, pandas merge per
  batch inside ``map_batches`` (no shuffle). The J4 translation-table /
  dimension join.
- :func:`broadcast_semi_join` / anti — broadcast the key SET and filter
  vectorized (J2-style existence checks without moving the big side).
- :func:`bucket_hash_join` — both sides large: tag + pad to a common
  schema, union, hash-partition on ``hash(key) % num_buckets`` and merge
  per bucket inside ``map_groups``. One explicit all-to-all; bucket
  count and skew handling (salt) are caller-visible knobs.
"""

from __future__ import annotations

from typing import Literal

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data


def broadcast_join(
    big: "ray.data.Dataset",
    small_df: pd.DataFrame,
    on: str | list[str],
    how: Literal["left", "inner"] = "inner",
) -> "ray.data.Dataset":
    """Join a Dataset against a small in-memory table, shuffle-free.

    ``small_df`` is put in the object store ONCE; every task reads the
    same copy (zero re-shipping per batch).
    """
    small_ref = ray.put(small_df)

    class _Merge:
        def __init__(self):
            self.small = ray.get(small_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(self.small, on=on, how=how)

    return big.map_batches(_Merge, batch_format="pandas", concurrency=(1, 8))


def broadcast_semi_join(
    big: "ray.data.Dataset",
    keys,
    on: str,
    anti: bool = False,
) -> "ray.data.Dataset":
    """Keep rows whose ``on`` value is (not) in ``keys`` — a broadcast
    semi/anti join. ``keys`` may be a list/ndarray/set."""
    # np.unique, not sorted(set(...)): this sits on the distributed-
    # admission hot path with up to broadcast_limit keys — the set
    # route boxed millions of Python objects on the driver, while
    # np.unique is vectorized and preserves the sorted/unique layout
    # pc.is_in benefits from.
    if isinstance(keys, (set, frozenset)):
        keys = list(keys)
    key_ref = ray.put(pa.array(np.unique(np.asarray(keys))))

    def _filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.is_in(batch[on], value_set=ray.get(key_ref))
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return big.map_batches(_filter, batch_format="pyarrow")


def anti_join_keys(
    big: "ray.data.Dataset",
    keys: "ray.data.Dataset",
    on: str,
    broadcast_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """Remove rows of ``big`` whose ``on`` value appears in the
    single-column key Dataset ``keys``.

    Below ``broadcast_limit`` keys: broadcast the key set (``ray.put``
    once) and stream ``big`` through a vectorized anti-filter — no
    big-side shuffle. Above it: bucketed LEFT join against the flagged
    key set, keep rows with no match — one big-side shuffle, driver
    memory independent of the key count."""
    keys = keys.materialize()  # count + consume = 2 executions if lazy
    n = keys.count()
    if n <= broadcast_limit:
        if n == 0:
            return big
        vals = keys.to_pandas()[on].to_numpy()
        return broadcast_semi_join(big, vals, on=on, anti=True)

    flagged = keys.map_batches(
        lambda t: t.append_column(
            "__hit", pa.array(np.ones(t.num_rows, dtype=np.int8))
        ),
        batch_format="pyarrow",
    )
    joined = bucket_hash_join(big, flagged, on=on, how="left")

    def keep_misses(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_null(t["__hit"])).drop_columns(["__hit"])

    return joined.map_batches(keep_misses, batch_format="pyarrow")


def membership_flag_join(
    big: "ray.data.Dataset",
    keys: "ray.data.Dataset",
    on: str,
    flag_col: str,
    broadcast_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """Append boolean ``flag_col`` = (row's ``on`` value ∈ ``keys``) —
    the EXISTS-flag form of a semi join (J2/A2 georeference flag).

    Below ``broadcast_limit`` keys: ``ray.put`` the key set once and
    flag via a vectorized ``is_in`` — no big-side shuffle. Above it:
    bucketed LEFT join against the flagged key set — one shuffle,
    driver memory independent of the key count (the auto-switch the
    unbounded listing broadcast lacked)."""
    import pyarrow.compute as pc

    keys = keys.materialize()  # count + consume = 2 executions if lazy
    n = keys.count()
    if n <= broadcast_limit:
        if n == 0:
            return big.map_batches(
                lambda t: t.append_column(
                    flag_col, pa.array(np.zeros(t.num_rows, dtype=bool))
                ),
                batch_format="pyarrow",
            )
        vals = keys.to_pandas()[on].to_numpy()
        # np.unique, not sorted(set(...)): same rationale as
        # broadcast_semi_join above — no per-key Python boxing on the
        # driver for up to broadcast_limit listing keys.
        key_ref = ray.put(pa.array(np.unique(vals)))

        def _flag(batch: pa.Table) -> pa.Table:
            mask = pc.is_in(batch[on], value_set=ray.get(key_ref))
            return batch.append_column(flag_col, mask)

        return big.map_batches(_flag, batch_format="pyarrow")

    flagged = keys.select_columns([on]).map_batches(
        lambda t: t.append_column(
            "__hit", pa.array(np.ones(t.num_rows, dtype=np.int8))
        ),
        batch_format="pyarrow",
    )
    joined = bucket_hash_join(big, flagged, on=on, how="left")

    def mark(t: pa.Table) -> pa.Table:
        return t.append_column(flag_col, pc.is_valid(t["__hit"])).drop_columns(
            ["__hit"]
        )

    return joined.map_batches(mark, batch_format="pyarrow")


def _tag_and_pad(
    ds: "ray.data.Dataset", side: int, all_cols: dict[str, pa.DataType]
) -> "ray.data.Dataset":
    def pad(batch: pa.Table) -> pa.Table:
        arrays, names = [], []
        for name, typ in all_cols.items():
            if name in batch.column_names:
                arrays.append(batch[name].cast(typ))
            else:
                arrays.append(pa.nulls(batch.num_rows, typ))
            names.append(name)
        arrays.append(pa.array(np.full(batch.num_rows, side, dtype=np.int8)))
        names.append("__side")
        return pa.table(arrays, names=names)

    return ds.map_batches(pad, batch_format="pyarrow")


def _arrow_schema(ds: "ray.data.Dataset"):
    """``ds`` and its column types as Arrow types. ``schema()`` reports
    a pandas block's string column as the Python ``object`` type, which
    is no Arrow type; such a side is read through an Arrow-block map so
    its schema is Arrow's."""
    schema = ds.schema()
    if not all(isinstance(t, pa.DataType) for t in schema.types):
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
        schema = ds.schema()
    return ds, dict(zip(schema.names, schema.types))


def bucket_hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str | list[str],
    num_buckets: int = 64,
    how: Literal["inner", "left"] = "inner",
) -> "ray.data.Dataset":
    """Partitioned hash join for two large Datasets.

    Hash-partitions both sides on the join key into ``num_buckets``
    groups (ONE shuffle for both sides via a tagged union), then merges
    each bucket with a pandas hash join inside ``map_groups``. Choose
    ``num_buckets`` ≈ cluster cores; a skewed key should be salted by
    the caller before joining (append a salt column to both sides).
    """
    on_cols = [on] if isinstance(on, str) else list(on)
    left, lcols = _arrow_schema(left)
    right, rcols = _arrow_schema(right)
    for c in on_cols:
        if lcols[c] != rcols[c]:
            raise TypeError(f"join key {c!r}: {lcols[c]} != {rcols[c]}")
    all_cols: dict[str, pa.DataType] = dict(lcols)
    for name, typ in rcols.items():
        if name not in all_cols:
            all_cols[name] = typ
        elif name not in on_cols and all_cols[name] != typ:
            raise TypeError(f"conflicting non-key column {name!r}")

    both = _tag_and_pad(left, 0, all_cols).union(_tag_and_pad(right, 1, all_cols))

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = np.zeros(batch.num_rows, dtype=np.uint64)
        for c in on_cols:
            col = batch[c].to_pandas()
            h ^= pd.util.hash_array(col.to_numpy(copy=False), categorize=False)
        return batch.append_column(
            "__bucket", pa.array((h % num_buckets).astype(np.int32))
        )

    both = both.map_batches(add_bucket, batch_format="pyarrow")

    lval = [c for c in lcols if c not in on_cols]
    rval = [c for c in rcols if c not in on_cols]
    out_schema = pa.schema(
        [(c, all_cols[c]) for c in on_cols + lval + rval]
    )

    def merge(group: pa.Table) -> pa.Table:
        # Split the sides in ARROW before any pandas conversion: the
        # null-padding from _tag_and_pad lives only in the OTHER side's
        # columns, so selecting each side's own columns first keeps int
        # columns free of NaN (a whole-group to_pandas silently promoted
        # them to float64 — the round-1 q_hash_join hash mismatch).
        import pyarrow.compute as pc

        lmask = pc.equal(group["__side"], 0)
        l = group.filter(lmask).select(on_cols + lval).to_pandas()
        r = group.filter(pc.invert(lmask)).select(on_cols + rval).to_pandas()
        merged = l.merge(r, on=on_cols, how=how)
        # cast back to the recorded Arrow types — a left join may still
        # introduce genuine NULLs in right-side columns (float64/NaN in
        # pandas); from_pandas + explicit schema restores them as nulls.
        return pa.Table.from_pandas(merged, schema=out_schema, preserve_index=False)

    return both.groupby("__bucket").map_groups(merge, batch_format="pyarrow")
