"""First-wins winner selection (min-val-per-key) over Arrow block refs.

First-wins semantics (reference
``/root/reference/src/storage/surrogate_key.rs:16-41``: the FIRST
occurrence of a key claims it): among rows sharing a canonical
``key``, the winner is the row with the smallest globally-unique
``val`` — seed ``seq`` at bootstrap, packed discovery order ``ordv``
at link admission. Because vals are unique, the winner SET is exactly
identified by its val values, and each winner's dense rank in
ascending-val order equals its position after a global
``sort(val)`` — so downstream seq/surrogate assignment needs no
Dataset sort and no global row numbering, only a broadcast
``np.searchsorted`` against the sorted winner vals.

One path, two task waves:

1. one per-block partial-min TASK next to each block (output ≤
   unique-keys-per-block rows of (key, n, val) — the raw rows never
   move);
2. the hash-partitioned combine of :func:`ops.hashagg.hot_combine`
   (``min_count=1``): each reducer hash-aggregates its slice of the
   partials, so no single process ever holds them all.

Driver-memory contract: the driver receives only the winners — one
(key, count, min) row of 24 B per winning key while the reducer
outputs are concatenated, then the returned sorted array of 8 B per
winning key. At link admission the winners number at most Σ(per-host
budget) × ``link_cap_per_page`` per round; at distributed bootstrap
they are the distinct seed keys.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .blocks import as_arrow
from .hashagg import combine_parts, hot_combine


@ray.remote(num_cpus=0.5, num_returns=2)
def _partial_min(block, key: str, val: str):
    """(meta, partial) for one block: meta = (partial_rows, raw_rows,
    vmax) — all driver-cheap scalars; partial = per-key (key, n = row
    count, val = min val) table. Empty/schemaless blocks (sort and
    shuffle ops emit them) yield a typed empty partial."""
    import pyarrow.compute as pc

    t = as_arrow(block)
    if t.num_rows == 0 or key not in t.column_names:
        return (0, 0, -1), pa.table(
            {c: pa.array([], pa.int64()) for c in (key, "n", val)}
        )
    part = (
        t.select([key, val])
        .group_by(key)
        .aggregate([(val, "min"), (val, "max"), (val, "count")])
    )
    vmax = int(pc.max(part[f"{val}_max"]).as_py())
    partial = pa.table(
        {key: part[key], "n": part[f"{val}_count"], val: part[f"{val}_min"]}
    )
    return (partial.num_rows, t.num_rows, vmax), partial


def winner_vals(
    block_refs: list,
    key: str = "key",
    val: str = "ordv",
    parts: int | None = None,
) -> tuple[np.ndarray, dict]:
    """→ ``(win_sorted, stats)``.

    ``win_sorted`` is the ascending np.int64 array of winning vals (the
    minimum ``val`` of every distinct ``key``). ``stats`` =
    ``{"raw_rows", "vmax"}`` (vmax = max val over ALL rows, −1 when
    empty — bootstrap derives ``next_seq`` from it without a separate
    Dataset ``max()`` execution). ``parts`` is the combine's
    partition count; by default it follows the observed partial volume
    (:func:`ops.hashagg.combine_parts`), so a small round pays one
    reducer, not one per CPU.
    """
    metas, partial_refs = [], []
    for ref in block_refs:
        m, p = _partial_min.remote(ref, key, val)
        metas.append(m)
        partial_refs.append(p)
    metas = ray.get(metas)
    stats = {
        "raw_rows": sum(m[1] for m in metas),
        "vmax": max((m[2] for m in metas), default=-1),
    }
    if parts is None:
        parts = combine_parts(sum(m[0] for m in metas))
    _keys, mins = hot_combine(
        partial_refs,
        key=key,
        sum_col="n",
        min_col=val,
        min_count=1,
        parts=parts,
    )
    return np.sort(mins), stats


def rank_in(win_sorted: np.ndarray, vals: np.ndarray):
    """(keep_idx, rank) — positions of ``vals`` present in the sorted
    winner array and their dense ranks. The broadcast-side half of the
    fused filter + rank + finalize pass."""
    if len(win_sorted) == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    pos = np.searchsorted(win_sorted, vals)
    posc = np.minimum(pos, len(win_sorted) - 1)
    keep = np.flatnonzero(win_sorted[posc] == vals)
    return keep, pos[keep]
