"""Substring-level duplication detection via winnowed fingerprints —
the dedup family's last tier: doc-level exact dedup and MinHash/SimHash
near-dedup (``pipelines/dedup.py``) catch whole-document copies;
THIS catches verbatim SPANS shared across otherwise-different pages
(boilerplate, quoted articles, licence blocks), the case Lee et al.
2021 ("Deduplicating Training Data Makes Language Models Better")
showed matters for LLM corpora. Their suffix array is a single
global structure; the distributed-native equivalent is winnowing
(Schleimer et al. 2003, the MOSS algorithm):

- every k-gram gets a rolling hash (the dedup family's mod-(2^31-1)
  polynomial — ``pipelines/dedup.py::char_shingle_hashes``);
- each window of ``w`` consecutive hashes selects its minimum (the
  winnowing GUARANTEE: any shared substring of length >= w + k - 1
  shares at least one selected fingerprint; nothing shorter than k is
  ever flagged), at ~2/(w+1) density — the corpus-size-independent
  sampling suffix arrays lack.

Scale shape: fingerprinting is a per-doc ``map_batches``; the only
all-to-all is the fingerprint-count combine, routed through the
hash-partitioned task combine (``ops/hashagg.hot_combine``); the
flag-back is the gated broadcast/bucketed membership machinery
(``ops/joins``). Never all-pairs, never a global index.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..ops.hashagg import hot_combine, sum_combine_dataset
from .dedup import char_shingle_hashes

DEFAULT_K = 20  # chars per gram (Lee et al. use 50-token spans; 20
#                 chars keeps the small-corpus tests meaningful)
DEFAULT_W = 16  # winnow window -> guarantee length k + w - 1


def winnow(text: str, k: int = DEFAULT_K, w: int = DEFAULT_W) -> np.ndarray:
    """Winnowed fingerprint set of one document (unique int64 hashes).

    Selects the min hash of each w-window over the positional k-gram
    hash sequence (leftmost tie-break — the tie direction affects
    density only, not the detection guarantee)."""
    h = char_shingle_hashes(text, k)
    if len(h) <= w:
        return np.unique(h.min(keepdims=True))
    wins = np.lib.stride_tricks.sliding_window_view(h, w)
    sel = wins.argmin(axis=1) + np.arange(len(wins))
    return np.unique(h[np.unique(sel)])


def fingerprints_batch(
    df: pd.DataFrame,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = DEFAULT_K,
    w: int = DEFAULT_W,
) -> pd.DataFrame:
    """map_batches body: docs → flat (doc_id, fp) rows, each doc's
    rows contiguous, in input order."""
    ids, fps = [], []
    id_vals = df[id_col].to_numpy()  # int64 OR string ids both work:
    # the doc-keyed combine partitions strings via vectorized siphash
    for i, text in zip(id_vals, df[text_col]):
        u = winnow(text or "", k, w)
        ids.append(np.full(len(u), i, dtype=id_vals.dtype))
        fps.append(u)
    if not ids:
        return pd.DataFrame(
            {id_col: pd.Series([], dtype=df[id_col].dtype),
             "fp": pd.Series([], dtype=np.int64)}
        )
    return pd.DataFrame(
        {id_col: np.concatenate(ids), "fp": np.concatenate(fps)}
    )


def substring_dup_stats(
    docs,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = DEFAULT_K,
    w: int = DEFAULT_W,
    min_docs: int = 2,
    broadcast_limit: int = 5_000_000,
):
    """Per-doc substring-duplication stats Dataset:
    ``(doc_id, n_fp, n_dup_fp, dup_fp_frac)`` — ``dup_fp_frac`` is the
    fraction of the doc's winnowed fingerprints that appear in at
    least ``min_docs`` documents corpus-wide (an unbiased sample of
    its duplicated-span coverage; threshold ~0.2+ marks heavy
    boilerplate per the Lee et al. motivation).

    Regimes: the duplicated-fingerprint key set is combined via
    hash-partitioned tasks; below ``broadcast_limit`` it broadcasts
    and each fingerprint block flags its own rows. Above it, rows are
    flagged via the bucketed membership join — the driver never holds
    the key set. Both regimes then re-aggregate per doc with one
    doc-keyed combine (a small exchange of per-doc partial counts), so
    each doc gets exactly one row whatever its id order or type."""
    import ray
    import ray.data

    # Arrow blocks: a pandas block reports a string id column as a
    # Python object type, which the above-gate bucketed join rejects
    fp = docs.map_batches(
        lambda df: pa.Table.from_pandas(
            fingerprints_batch(df, text_col, id_col, k, w),
            preserve_index=False,
        ),
        batch_format="pandas",
    ).materialize()  # consumed twice below; fingerprint once

    # partial counts per block, then the task combine -> duplicated fps
    def partial_counts(t: pa.Table) -> pa.Table:
        v, c = np.unique(
            t["fp"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {"fp": v.astype(np.int64), "n": c.astype(np.int64)}
        )

    partials = fp.map_batches(partial_counts, batch_format="pyarrow")
    hot = hot_combine(
        partials, key="fp", sum_col="n", min_count=min_docs,
        hot_limit=broadcast_limit,
    )

    if hot is not None:  # dup-key set fits the broadcast gate
        dup_keys, _ = hot
        ref = ray.put(np.sort(dup_keys))

        def flag(t: pa.Table) -> pa.Table:
            keys = ray.get(ref)
            f = t["fp"].to_numpy(zero_copy_only=False)
            dup = np.zeros(len(f), dtype=bool)
            if len(keys):
                pos = np.clip(np.searchsorted(keys, f), 0, len(keys) - 1)
                dup = keys[pos] == f
            return t.append_column("is_dup", pa.array(dup))

        flagged = fp.map_batches(flag, batch_format="pyarrow")
    else:
        # above-gate: the dup-key set never touches the driver —
        # recombine the partials AS A DATASET, filter to hot keys and
        # flag via the bucketed membership join
        import pyarrow.compute as pc

        from ..ops.joins import membership_flag_join

        keys_ds = sum_combine_dataset(
            partials, key="fp", sum_cols=["n"]
        ).map_batches(
            lambda t: t.filter(
                pc.greater_equal(t["n"], pa.scalar(min_docs))
            ).select(["fp"]),
            batch_format="pyarrow",
        )
        flagged = membership_flag_join(
            fp, keys_ds, on="fp", flag_col="is_dup",
            broadcast_limit=broadcast_limit,
        )

    # per-batch partial counts, re-aggregated with a doc-keyed task
    # combine: a doc whose rows a block or batch boundary splits still
    # gets one row, whatever order its ids arrive in
    def doc_partials(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        dup = t["is_dup"].to_numpy(zero_copy_only=False).astype(np.int64)
        uids, inv = np.unique(ids, return_inverse=True)
        n_fp = np.bincount(inv)
        n_dup = np.bincount(inv, weights=dup).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(uids),
                "n_fp": pa.array(n_fp.astype(np.int64), pa.int64()),
                "n_dup_fp": pa.array(n_dup, pa.int64()),
            }
        )

    parts = flagged.map_batches(doc_partials, batch_format="pyarrow")
    combined = sum_combine_dataset(
        parts, key=id_col, sum_cols=["n_fp", "n_dup_fp"]
    )
    return combined.map_batches(
        lambda t: t.append_column(
            "dup_fp_frac",
            pa.array(
                t["n_dup_fp"].to_numpy(zero_copy_only=False)
                / np.maximum(1, t["n_fp"].to_numpy(zero_copy_only=False)),
                pa.float64(),
            ),
        ),
        batch_format="pyarrow",
    )
