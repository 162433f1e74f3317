"""Test helper: read every parquet file under a directory as one table."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq


def read_parquet_dir(d: str, columns: list[str] | None = None) -> pa.Table:
    parts = []
    for root, _dirs, files in os.walk(d):
        for f in sorted(files):
            if f.endswith(".parquet"):
                parts.append(pq.read_table(os.path.join(root, f), columns=columns))
    if not parts:
        return pa.table({c: pa.array([]) for c in columns or []})
    return pa.concat_tables(parts, promote_options="default")
