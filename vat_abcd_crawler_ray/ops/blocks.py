"""Block-level access to a materialized Dataset, for the operators that
run plain Ray tasks over its blocks instead of Dataset executions."""

from __future__ import annotations

import pyarrow as pa


def block_refs(ds: "ray.data.Dataset") -> list:
    """The block refs of a MATERIALIZED Dataset, in order. Iterating a
    ``MaterializedDataset`` starts no executor; a
    ``from_pandas``/``from_arrow_refs`` result is only marked executed
    by ``materialize()``, which for it runs nothing."""
    return [
        ref for bundle in ds.iter_internal_ref_bundles() for ref in bundle.block_refs
    ]


def as_arrow(block) -> pa.Table:
    """A Dataset block as an Arrow table: blocks are Arrow tables OR
    pandas frames, depending on the operator that produced them."""
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)
