"""Deduplication family over a document Dataset — the training-data
core ops: exact (hash-partitioned first-wins), MinHash+LSH, SimHash,
n-gram Jaccard, embedding-cosine near-dup.

Design (all Ray-Data-first):

- **exact**: content key per batch (vectorized) → ``groupby(key)`` →
  per-group first-wins by min id — the T1 surrogate-dedup semantics
  (``/root/reference/src/storage/surrogate_key.rs:16-41``) applied to
  content instead of URLs. Only (key64, row) shuffles; within-group
  exact-text check guards hash collisions.
- **minhash-LSH**: per batch shingle → k-permutation MinHash (numpy) →
  explode to ``(bucket, id, signature)`` rows — bucket =
  murmur3(band ‖ band-signature), the fixed 512-byte signature travels
  through the shuffle, the text does NOT → hot-bucket prefilter →
  ``groupby(bucket).map_groups`` star verification (signature-estimated
  Jaccard against the min-id representative, REMOTE — the round-1
  driver candidate pull is gone) → connected components
  (ops/components.py: driver loop for sparse edge sets, iterated
  Dataset min-label joins at scale) → duplicate keys removed via
  ``ops.joins.anti_join_keys`` (broadcast below a size gate, bucketed
  left-anti join above it).
- **ngram-jaccard**: exact word-n-gram Jaccard verification for a
  given candidate pair set (the precise second pass).
- **simhash**: 64-bit token simhash — fully vectorized (batched
  murmur3 over the flattened token stream + segment reduction); near-
  dup = Hamming ≤ r with 4×16-bit band blocking (pigeonhole: distance
  ≤ 3 ⇒ one band equal); same remote verify / components / anti-join
  spine as minhash.
- **embedding near-dup**: block-wise cosine pairs via per-group numpy
  matmul (block = label here; kmeans/LSH cell at scale).

Deterministic: permutation parameters derive from a fixed seed; all
tiebreaks by min id; no wall-clock anywhere.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray
import ray.data

from ..functions.urlkeys import murmur3_64_batch
from ..ops.components import min_label_components
from ..ops.joins import anti_join_keys

_TOKEN = re.compile(r"\S+")

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    key_len: int | None = None,
) -> "ray.data.Dataset":
    """Keep the min-``id`` row per distinct text (optionally per text
    prefix of ``key_len`` chars)."""

    def add_key(batch: pd.DataFrame) -> pd.DataFrame:
        keys = batch[text_col].str[:key_len] if key_len else batch[text_col]
        return batch.assign(__k=murmur3_64_batch(list(keys)), __ckey=keys)

    def first_wins(group: pd.DataFrame) -> pd.DataFrame:
        return (
            group.sort_values(id_col, kind="mergesort")
            .drop_duplicates("__ckey", keep="first")
            .drop(columns=["__k", "__ckey"])
        )

    return (
        ds.map_batches(add_key, batch_format="pandas")
        .groupby("__k")
        .map_groups(first_wins, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# shingles + MinHash
# ---------------------------------------------------------------------------


# Mersenne-prime modulus: every product a·h stays under 2^62, so the
# whole MinHash family is exact int64 arithmetic on BOTH sides — numpy
# here, BIGINT in the DuckDB oracle (uint64-wraparound hashing is not
# SQL-expressible; this is what makes q_dedup_minhash hash-checkable).
_MH_P = 2147483647  # 2^31 - 1
_MH_CB = 257  # char-chain base (Unicode code points)
_MH_B1 = 1000003  # band-fold bases (two folds → 62-bit bucket key)
_MH_B2 = 1000033


def _perm_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """Carter-Wegman (a·h + b) mod P parameters, fixed seed — the
    oracle SQL embeds these exact values as literals."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MH_P, size=num_perm).astype(np.int64)
    b = rng.randint(0, _MH_P, size=num_perm).astype(np.int64)
    return a, b


def char_shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """mod-P polynomial hash of EVERY k-character shingle in POSITION
    order (code points via utf-32 reinterpret; k vectorized passes, no
    per-shingle Python loop). A text shorter than k yields one
    whole-text hash. The positional form is what winnowing
    (``pipelines/substring_dedup``) needs; MinHash wants the set —
    use :func:`char_shingles`."""
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    n = len(cp)
    if n < k:
        h = np.int64(0)
        for c in cp:
            h = (h * _MH_CB + c) % _MH_P
        return np.array([h], dtype=np.int64)
    h = np.zeros(n - k + 1, dtype=np.int64)
    for j in range(k):  # k (=5) vectorized passes, not n passes
        h = (h * _MH_CB + cp[j : n - k + 1 + j]) % _MH_P
    return h


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """Sorted unique mod-P hashes of the k-character shingle SET."""
    return np.unique(char_shingle_hashes(text, k))


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minima of (a·h + b) mod P — exact int64, SQL-identical.
    In-place ops: see the slow-path note in minhash_signatures_batch."""
    v = a[:, None] * shingles[None, :]
    v += b[:, None]
    v %= _MH_P
    return v.min(axis=1)


def _mod_p62(v: np.ndarray) -> np.ndarray:
    """Exact in-place ``v mod P`` for 0 ≤ v < 2^62, P = 2^31−1: two
    Mersenne folds (x ≡ (x>>31) + (x & P) mod P) + one correction —
    ~6 cheap vector ops instead of integer division."""
    hi = v >> 31
    v &= _MH_P
    v += hi
    np.right_shift(v, 31, out=hi)
    v &= _MH_P
    v += hi
    v[v >= _MH_P] -= _MH_P
    return v


def minhash_signatures_batch(
    texts: list[str], a: np.ndarray, b: np.ndarray, k: int = 5
) -> np.ndarray:
    """(len(texts), num_perm) signature matrix, bit-identical to
    ``minhash_signature(char_shingles(t, k), a, b)`` per row but
    vectorized ACROSS the batch: one utf-32 encode of the joined text,
    k global fold passes, segmented unique (lexsort + boundary diff)
    and ``np.minimum.reduceat`` per permutation — no per-doc Python in
    the hot loop (the per-doc path measured 0.19 ms/doc, ~10× this)."""
    D = len(texts)
    num_perm = len(a)
    if D == 0:
        return np.zeros((0, num_perm), dtype=np.int64)
    lens = np.fromiter((len(t) for t in texts), np.int64, D)
    cp = np.frombuffer("".join(texts).encode("utf-32-le"), np.uint32).astype(
        np.int64
    )
    ends = np.cumsum(lens)
    starts = ends - lens
    n = len(cp)
    # global k-pass shingle fold; positions crossing doc boundaries are
    # masked out by the per-doc valid ranges below
    if n >= k:
        h = np.zeros(n - k + 1, dtype=np.int64)
        for j in range(k):
            h *= _MH_CB
            h += cp[j : n - k + 1 + j]
            _mod_p62(h)
    else:
        h = np.zeros(0, dtype=np.int64)
    cnt = np.where(lens >= k, lens - k + 1, 1)  # short docs: 1 whole-text hash
    tot = int(cnt.sum())
    seg = np.repeat(np.arange(D, dtype=np.int64), cnt)
    within = np.arange(tot, dtype=np.int64) - np.repeat(
        np.cumsum(cnt) - cnt, cnt
    )
    hv = np.empty(tot, dtype=np.int64)
    long_mask = lens[seg] >= k
    hv[long_mask] = h[(starts[seg] + within)[long_mask]]
    short_docs = np.flatnonzero(lens < k)
    for d in short_docs:  # rare; each is a ≤k-codepoint fold
        hh = np.int64(0)
        for c in cp[starts[d] : ends[d]]:
            hh = (hh * _MH_CB + c) % _MH_P
        hv[np.searchsorted(seg, d)] = hh
    # NO per-doc shingle dedup: duplicates can't change a segment MIN,
    # and ``hv`` is already doc-contiguous by construction, so the
    # reduceat boundaries come straight from ``cnt`` — dropping the
    # segmented-unique lexsort (23 ms of the 77 ms batch) outweighs the
    # ~40 % extra elements in the perm loop. Per-perm loop over ONE
    # reusable cache-resident buffer instead of a (num_perm × S)
    # matrix: the matrix form allocates 8·perm·S bytes per batch
    # (77 MB at 512×300-char docs) and saturates memory bandwidth
    # across concurrent workers (measured 16 s → 66 s when batch size
    # ×8); this form's working set is 8·S bytes. ``%`` beats the
    # Mersenne fold here (1 hardware-div pass vs 9 cheap passes,
    # measured 0.59 vs 0.84 per 10 batches).
    doc_starts = np.r_[0, np.cumsum(cnt)[:-1]]
    sigs = np.empty((D, num_perm), dtype=np.int64)
    buf = np.empty(tot, dtype=np.int64)
    for p in range(num_perm):
        np.multiply(hv, a[p], out=buf)
        buf += b[p]
        buf %= _MH_P
        sigs[:, p] = np.minimum.reduceat(buf, doc_starts)
    return sigs


def band_buckets_batch(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(D, bands) bucket keys — ``band_buckets`` vectorized across a
    signature matrix."""
    D = sigs.shape[0]
    rows = sigs.reshape(D, bands, -1)
    h1 = np.broadcast_to(
        np.arange(bands, dtype=np.int64), (D, bands)
    ).copy()
    h2 = h1.copy()
    for r in range(rows.shape[2]):
        h1 *= _MH_B1
        h1 += rows[:, :, r]
        _mod_p62(h1)
        h2 *= _MH_B2
        h2 += rows[:, :, r]
        _mod_p62(h2)
    return h1 * _MH_P + h2


def band_buckets(sig: np.ndarray, bands: int) -> np.ndarray:
    """One int64 bucket key per band: two polynomial folds (bases B1,
    B2) over [band, s0..s_{r-1}] combined as bh1·P + bh2 (< 2^62) — a
    62-bit key, collision-safe at corpus scale and exactly reproducible
    in SQL."""
    rows = sig.reshape(bands, -1)
    h1 = np.arange(bands, dtype=np.int64)
    h2 = np.arange(bands, dtype=np.int64)
    for r in range(rows.shape[1]):
        h1 = (h1 * _MH_B1 + rows[:, r]) % _MH_P
        h2 = (h2 * _MH_B2 + rows[:, r]) % _MH_P
    return h1 * _MH_P + h2


def word_ngrams(text: str, n: int = 3) -> set[tuple[str, ...]]:
    toks = _TOKEN.findall(text)
    if len(toks) < n:
        return {tuple(toks)}
    return {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Exact word n-gram Jaccard — the precise verifier."""
    sa, sb = word_ngrams(text_a, n), word_ngrams(text_b, n)
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return inter / union if union else 1.0


_EMPTY_EDGES = {"src": pd.Series(dtype=np.int64), "dst": pd.Series(dtype=np.int64)}


def _hot_buckets(
    signed: "ray.data.Dataset", driver_limit: int = 5_000_000
) -> np.ndarray:
    """Bucket ids with ≥2 members, via per-batch PARTIAL counts (≤ one
    row per distinct bucket per batch). The HOT set itself is
    duplicate-bounded — tiny relative to the corpus — so it always
    returns driver-side (it is broadcast next); only the COMBINE of
    partials switches: below ``driver_limit`` partial rows a pandas
    combine (a per-group map_groups over mostly-singleton buckets
    costs ~0.1 ms Python each, and Ray's sort-based groupby-count
    measured 37 s on 80k rows — both pathological here), above it the
    hash-partitioned task combine (``ops/hashagg.py``) so the driver
    never holds the full bucket-count table."""
    partials = signed.map_batches(
        lambda df: df.groupby("bucket", sort=False).size().reset_index(name="n"),
        batch_format="pandas",
    ).materialize()
    if partials.count() <= driver_limit:
        import pyarrow as pa
        import pyarrow.compute as pc

        tbl = pa.concat_tables(ray.get(partials.to_arrow_refs()))
        if not tbl.num_rows:
            return np.zeros(0, np.int64)
        g = pa.TableGroupBy(tbl, "bucket").aggregate([("n", "sum")])
        g = g.filter(pc.greater_equal(g["n_sum"], pa.scalar(2)))
        return np.sort(
            g["bucket"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
    # past the driver gate: hash-partitioned task combine (C++ hash-agg
    # per partition) — Ray's sort-based groupby measured 705 s on 5.7M
    # mostly-singleton partials at 32 CPUs (ops/hashagg.py docstring)
    from ..ops.hashagg import hot_combine

    keys, _ = hot_combine(partials, key="bucket", sum_col="n", min_count=2)
    return keys


# Max hot-bucket count for the broadcast star verify: the rep table
# costs ~(16 + 8·num_perm) B per bucket, so 1M buckets ≈ 0.5 GiB in the
# object store — comfortably a broadcast; above it the grouped shuffle
# path takes over.
_REP_BROADCAST_LIMIT = 1_000_000


def _verify_fanout(n_groups: int, groups_per_task: int = 256) -> int:
    """Block count for the grouped verify shuffle: enough tasks to
    spread the per-group pandas overhead (~0.3 ms each), capped by the
    data (``groups_per_task`` per task) so tiny hot sets don't schedule
    cluster-proportional fan-out, and by 2× cluster CPUs."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(1, min((n_groups + groups_per_task - 1) // groups_per_task, cpus * 2))


def _sig_matrix(col: pd.Series) -> np.ndarray:
    """(D, num_perm) int64 view of a bytes signature column."""
    if not len(col):
        return np.zeros((0, 1), np.int64)
    return np.frombuffer(b"".join(col), np.int64).reshape(len(col), -1)


def _hot_reps(
    sigs_ds: "ray.data.Dataset", bands: int, driver_limit: int = 5_000_000
):
    """(hot_buckets, rep_ids) for buckets with ≥2 band-table rows, via
    ONE slim pass over the per-doc signature table: each batch
    recomputes its docs' band buckets from the signatures (a pure
    function — the ×bands-replicated band table is never materialized)
    and emits a partial (bucket, n, min_id) row per distinct bucket.
    Below ``driver_limit`` partial rows the combine is a driver numpy
    reduceat (Ray's sort groupby measured 37 s on 80k mostly-singleton
    buckets); above it the hash-partitioned task combine of
    ``ops/hashagg.py`` and the driver only pulls the duplicate-bounded
    hot slice. Returns None if the
    hot set exceeds the broadcast gate (caller falls back to the
    grouped shuffle verify)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "bucket": pd.Series(dtype=np.int64),
                    "n": pd.Series(dtype=np.int64),
                    "min_id": pd.Series(dtype=np.int64),
                }
            )
        ids = df["id"].to_numpy(np.int64)
        flat = band_buckets_batch(_sig_matrix(df["sig"]), bands).ravel()
        mids = np.repeat(ids, bands)
        order = np.lexsort((mids, flat))
        flat, mids = flat[order], mids[order]
        first = np.ones(len(flat), dtype=bool)
        first[1:] = flat[1:] != flat[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(flat)))
        return pd.DataFrame(
            {"bucket": flat[first], "n": counts, "min_id": mids[first]}
        )

    partials = sigs_ds.map_batches(partial, batch_format="pandas").materialize()
    if partials.count() <= driver_limit:
        import pyarrow as pa
        import pyarrow.compute as pc

        tbl = pa.concat_tables(ray.get(partials.to_arrow_refs()))
        if not tbl.num_rows:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        # C++ hash-agg (O(n)) instead of a driver-side numpy sort —
        # only the duplicate-bounded HOT slice gets sorted (the rep
        # arrays are searchsorted downstream)
        g = pa.TableGroupBy(tbl, "bucket").aggregate(
            [("n", "sum"), ("min_id", "min")]
        )
        g = g.filter(pc.greater_equal(g["n_sum"], pa.scalar(2)))
        if g.num_rows > _REP_BROADCAST_LIMIT:
            return None  # same broadcast gate as the distributed branch
        bk = g["bucket"].to_numpy(zero_copy_only=False).astype(np.int64)
        mi = g["min_id_min"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(bk)
        return bk[order], mi[order]
    # past the driver gate: hash-partitioned task combine (C++ hash-agg
    # per partition) — Ray's sort-based groupby measured 705 s on 5.7M
    # mostly-singleton partials at 32 CPUs (ops/hashagg.py docstring);
    # the broadcast gate is checked from per-reducer counts before any
    # hot slice is fetched
    from ..ops.hashagg import hot_combine

    res = hot_combine(
        partials,
        key="bucket",
        sum_col="n",
        min_col="min_id",
        min_count=2,
        hot_limit=_REP_BROADCAST_LIMIT,
    )
    if res is None:
        return None
    return res


def _star_verify_broadcast(
    sigs_ds: "ray.data.Dataset",
    rep_buckets: np.ndarray,
    rep_ids: np.ndarray,
    bands: int,
    threshold: float,
) -> "ray.data.Dataset":
    """Shuffle-free star verification over the per-doc signature table:
    fetch the hot buckets' min-id representative signatures (a filter
    pass bounded by the rep count, which already passed the broadcast
    gate), broadcast them, and in ONE vectorized pass recompute each
    doc's band buckets, match them against the rep table and compare
    signatures. Emits the same edge set as the grouped star verify:
    (rep_id, member_id) where the estimated Jaccard (mean signature
    agreement) ≥ threshold — a member meets each hot bucket it occupies
    exactly as a band-table row would, minus the ×bands sig-byte
    replication through the object store (measured 1.6 GB → 0.1 GB at
    200k docs × 16 bands × 64 perms)."""
    uniq_rep_ids = np.unique(rep_ids)
    rep_id_ref = ray.put(uniq_rep_ids)

    def is_rep(df: pd.DataFrame) -> pd.DataFrame:
        ri = ray.get(rep_id_ref)
        if not len(ri) or not len(df):
            return df.iloc[:0][["id", "sig"]]
        ids = df["id"].to_numpy(np.int64)
        pos = np.searchsorted(ri, ids)
        pos[pos == len(ri)] = 0
        return df.loc[ri[pos] == ids, ["id", "sig"]]

    reps = sigs_ds.map_batches(is_rep, batch_format="pandas").to_pandas()
    rid = reps["id"].to_numpy(np.int64)
    rorder = np.argsort(rid)
    rep_sigs_by_id = _sig_matrix(reps["sig"].iloc[rorder])  # id-sorted
    # per-bucket → index into the id-sorted rep sig matrix (a doc can
    # rep many buckets; near-dup members share most bands, so keying
    # comparisons by REP ID — not bucket — collapses the ~bands-fold
    # duplicate (member, rep) pairs before the signature compare)
    rep_idx = np.searchsorted(rid[rorder], rep_ids)
    rep_ref = ray.put((rep_buckets, uniq_rep_ids, rep_idx, rep_sigs_by_id))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        rb, uri, ridx, rs = ray.get(rep_ref)
        if not len(df) or not len(rb):
            return pd.DataFrame(_EMPTY_EDGES)
        ids = df["id"].to_numpy(np.int64)
        sigs = _sig_matrix(df["sig"])
        flat = band_buckets_batch(sigs, bands).ravel()
        rows = np.repeat(np.arange(len(df)), bands)
        pos = np.searchsorted(rb, flat)
        pos[pos == len(rb)] = 0
        valid = (rb[pos] == flat) & (uri[ridx[pos]] != ids[rows])
        rows, ri_hit = rows[valid], ridx[pos[valid]]
        # one comparison per distinct (member, rep) pair
        pair = np.unique(rows * np.int64(len(rs) + 1) + ri_hit)
        rows, ri_hit = pair // (len(rs) + 1), pair % (len(rs) + 1)
        est = (
            (sigs[rows] == rs[ri_hit]).mean(axis=1) if len(rows) else np.zeros(0)
        )
        hit = est >= threshold
        return pd.DataFrame({"src": uri[ri_hit[hit]], "dst": ids[rows[hit]]})

    return sigs_ds.map_batches(verify, batch_format="pandas")


def _drop_duplicate_ids(
    ds: "ray.data.Dataset", edges: "ray.data.Dataset", id_col: str
) -> "ray.data.Dataset":
    """Cluster verified edges, keep min id per cluster, remove the rest
    from ``ds`` — every step Dataset-native (components and the anti
    join auto-switch to their distributed forms past their size gates).
    """
    labels = min_label_components(edges)

    def dups(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        t = t.filter(pc.not_equal(t["label"], t["node"]))
        return pa.table({id_col: t["node"]})

    dup_keys = labels.map_batches(dups, batch_format="pyarrow")
    return anti_join_keys(ds, dup_keys, on=id_col)


def minhash_lsh_dedup(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.8,
    seed: int = 42,
    return_edges: bool = False,
):
    """Near-duplicate removal via MinHash + LSH banding; returns the
    kept rows (min id per duplicate cluster).

    Parallelism contract: the signing stage (the compute-dominant
    step) runs one task per INPUT BLOCK — a dataset read from a single
    parquet file without ``override_num_blocks`` arrives as one block
    and signs on one core. Readers should split to ~2 blocks per CPU
    (see bench.py); the redundant decode that over-splitting causes is
    trivial next to the signing compute it parallelizes.

    ``ds`` is read twice, to sign and in the final anti-join: a caller
    whose ``ds`` has an expensive upstream (``curate``'s clean map)
    materializes it first."""
    assert num_perm % bands == 0
    a, b = _perm_params(num_perm, seed)

    # Per-DOC signature table: (id, sig-bytes) once per doc. Band
    # buckets are a pure function of the signature, so every later
    # stage recomputes them per batch (64 cheap int folds per doc)
    # instead of shipping a ×bands-replicated (id, bucket, sig) band
    # table through the object store — measured 1.6 GB → 0.1 GB and
    # 40.8 s → see bench at 200k docs × 16 bands.
    def sign(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col].to_numpy(dtype=np.int64)
        sigs = minhash_signatures_batch(
            list(batch[text_col]), a, b, shingle_k
        )
        return pd.DataFrame({"id": ids, "sig": [s.tobytes() for s in sigs]})

    sigs_ds = ds.select_columns([id_col, text_col]).map_batches(
        sign, batch_format="pandas", batch_size=512  # bound signature RAM
    )
    sigs_ds = sigs_ds.materialize()  # consumed by hot/rep pass + verify

    # STAR verification: estimate Jaccard only against the min-id
    # representative of each hot (≥2-member) bucket — O(|bucket|), not
    # O(|bucket|²); transitive members meet the same representative
    # through other bands, and min-label components still merge across
    # buckets.
    #
    # Below the gate the rep table (one (bucket, id, sig) per hot
    # bucket) is BROADCAST, so verification is a row-local vectorized
    # map_batches with NO shuffle. Above the gate (rep table too big to
    # broadcast: ~8·num_perm bytes per bucket) fall back to a grouped
    # shuffle star verify over an (id, bucket, sig) band table built
    # only in that branch.
    reps = _hot_reps(sigs_ds, bands)
    if reps is not None:
        rep_buckets, rep_ids = reps
        edges = _star_verify_broadcast(
            sigs_ds, rep_buckets, rep_ids, bands, threshold
        ).materialize()
    else:

        def to_bands(df: pd.DataFrame) -> pd.DataFrame:
            sigs = _sig_matrix(df["sig"])
            return pd.DataFrame(
                {
                    "id": np.repeat(df["id"].to_numpy(np.int64), bands),
                    "bucket": band_buckets_batch(sigs, bands).ravel(),
                    "sig": np.repeat(df["sig"].to_numpy(), bands),
                }
            )

        signed = sigs_ds.map_batches(to_bands, batch_format="pandas")
        signed = signed.materialize()
        hot_arr = _hot_buckets(signed)
        hot_ref = ray.put(hot_arr)

        def in_hot(df: pd.DataFrame) -> pd.DataFrame:
            return df[df["bucket"].isin(ray.get(hot_ref))]

        def star_verify(group: pd.DataFrame) -> pd.DataFrame:
            g = group.drop_duplicates("id").sort_values("id")
            if len(g) < 2:
                return pd.DataFrame(_EMPTY_EDGES)
            ids = g["id"].to_numpy()
            sigs = np.stack(
                [np.frombuffer(s, dtype=np.int64) for s in g["sig"]]
            )
            est = (sigs[1:] == sigs[0]).mean(axis=1)
            hit = np.flatnonzero(est >= threshold)
            return pd.DataFrame(
                {"src": np.full(len(hit), ids[0]), "dst": ids[1 + hit]}
            )

        edges = (
            signed.map_batches(in_hot, batch_format="pandas")
            .repartition(_verify_fanout(len(hot_arr)))
            .groupby("bucket")
            .map_groups(star_verify, batch_format="pandas")
            .materialize()
        )

    out = _drop_duplicate_ids(ds, edges, id_col)
    return (out, edges) if return_edges else out


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

_SHIFTS = np.arange(64, dtype=np.uint64)
_BIT_WEIGHTS = np.left_shift(np.uint64(1), _SHIFTS)

# Token-hash family for the 64 simhash bits, chosen to be exactly
# SQL-reproducible (the q_dedup_simhash oracle): three mod-(2^31-1)
# char-chain folds (bases 257/263/269) each scrambled by two Lehmer
# rounds (h·48271 + 11 mod P — a full-period multiplicative mix, so
# near-identical tokens still flip bits across the word), supplying
# 31 + 31 + 2 = 64 bits.
_SH_BASES = (257, 263, 269)
_SH_MIX_A, _SH_MIX_C = 48271, 11


def _segmented_poly(cp: np.ndarray, lens: np.ndarray, base: int) -> np.ndarray:
    """(h·base + c) mod P fold per SEGMENT of the concatenated
    code-point stream — evaluated as per-position power products +
    ``np.add.reduceat`` (fully vectorized across all tokens)."""
    from ..functions.textstats import _FP_P, _fp_powers

    ends = np.cumsum(lens)
    starts = ends - lens
    pos = np.arange(len(cp), dtype=np.int64)
    exp = np.repeat(ends, lens) - 1 - pos
    pw = _fp_powers(base, int(lens.max()) + 1)
    vals = cp * pw[exp] % _FP_P
    return np.add.reduceat(vals, starts) % _FP_P


def _mix(h: np.ndarray) -> np.ndarray:
    for _ in range(2):
        h = (h * _SH_MIX_A + _SH_MIX_C) % _MH_P
    return h


def simhash64_batch(texts) -> np.ndarray:
    """Vectorized 64-bit simhash over whitespace tokens (unit weights):
    token hashes from three segmented mod-P folds over ONE concatenated
    code-point stream, bit expansion and per-document segment sums in
    numpy — no per-token Python loop, and bit-for-bit reproducible by
    the DuckDB oracle."""
    toks_per = [_TOKEN.findall(t) for t in texts]
    counts = np.fromiter((len(ts) for ts in toks_per), np.int64, len(toks_per))
    out = np.zeros(len(texts), dtype=np.int64)
    flat = [tok for ts in toks_per for tok in ts]
    if not flat:
        return out
    lens = np.fromiter((len(t) for t in flat), np.int64, len(flat))
    cp = np.frombuffer("".join(flat).encode("utf-32-le"), dtype=np.uint32).astype(
        np.int64
    )
    h1, h2, h3 = (_mix(_segmented_poly(cp, lens, b)) for b in _SH_BASES)
    bits = np.empty((len(flat), 64), dtype=np.int32)
    for j in range(31):
        bits[:, j] = (h1 >> j) & 1
        bits[:, 31 + j] = (h2 >> j) & 1
    bits[:, 62] = h3 & 1
    bits[:, 63] = (h3 >> 1) & 1
    bits = bits * 2 - 1
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    nz = np.flatnonzero(counts > 0)
    acc = np.add.reduceat(bits, starts[nz], axis=0)  # (n_nonzero, 64)
    v = ((acc > 0).astype(np.uint64) * _BIT_WEIGHTS).sum(axis=1)
    out[nz] = v.view(np.int64)
    return out


def simhash64(text: str) -> int:
    """64-bit simhash over whitespace tokens (unit weights)."""
    return int(simhash64_batch([text])[0])


def _popcount64(x: np.ndarray) -> np.ndarray:
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 64).sum(axis=1)


def simhash_dedup(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    hamming_max: int = 3,
) -> "ray.data.Dataset":
    """Near-dup removal by simhash Hamming ≤ r with 16-bit band blocking.

    ``ds`` is read twice, to sign and in the final anti-join: a caller
    whose ``ds`` has an expensive upstream materializes it first."""

    def sign(batch: pd.DataFrame) -> pd.DataFrame:
        hs = simhash64_batch(list(batch[text_col]))
        ids = batch[id_col].to_numpy(dtype=np.int64)
        u = hs.view(np.uint64)
        parts = []
        for bi in range(4):
            band_val = ((u >> np.uint64(16 * bi)) & np.uint64(0xFFFF)).astype(np.int64)
            parts.append(
                pd.DataFrame(
                    {
                        "id": ids,
                        "simhash": hs,
                        # bucket = band_val*4 + band: one exact int64 key
                        "bucket": band_val * 4 + bi,
                    }
                )
            )
        return pd.concat(parts, ignore_index=True)

    signed = ds.select_columns([id_col, text_col]).map_batches(
        sign, batch_format="pandas", batch_size=512  # bound bit-matrix RAM
    )
    signed = signed.materialize()

    hot_arr = _hot_buckets(signed)
    hot_ref = ray.put(hot_arr)

    def in_hot(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["bucket"].isin(ray.get(hot_ref))]

    # Verify is genuine ALL-PAIRS within each bucket (a pair can be
    # close without either being close to the min-id member), so the
    # broadcast star trick doesn't apply — keep the group shuffle but
    # size its fan-out by GROUP count (the per-group pandas overhead is
    # the serial cost), capped at 2× cluster CPUs.
    verify_blocks = _verify_fanout(len(hot_arr))

    hamming = hamming_max

    def pair_verify(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates("id").sort_values("id")
        if len(g) < 2:
            return pd.DataFrame(_EMPTY_EDGES)
        ids = g["id"].to_numpy()
        hs = g["simhash"].to_numpy().astype(np.int64).view(np.uint64)
        src_l, dst_l = [], []
        for i in range(len(ids) - 1):
            d = _popcount64(hs[i] ^ hs[i + 1 :])
            for j in np.flatnonzero(d <= hamming):
                src_l.append(ids[i])
                dst_l.append(ids[i + 1 + j])
        return pd.DataFrame(
            {
                "src": np.asarray(src_l, dtype=np.int64),
                "dst": np.asarray(dst_l, dtype=np.int64),
            }
        )

    edges = (
        signed.map_batches(in_hot, batch_format="pandas")
        .repartition(verify_blocks)
        .groupby("bucket")
        .map_groups(pair_verify, batch_format="pandas")
        .materialize()
    )

    return _drop_duplicate_ids(ds, edges, id_col)


# ---------------------------------------------------------------------------
# embedding near-dup
# ---------------------------------------------------------------------------


def embedding_neardup_pairs(
    ds: "ray.data.Dataset",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    block_col: str = "label",
    threshold: float = 0.95,
) -> "ray.data.Dataset":
    """(id_a, id_b) pairs with cosine ≥ threshold within each block —
    per-block numpy matmul inside ``map_groups``."""

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) < 2:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64)})
        g = group.sort_values(id_col)
        ids = g[id_col].to_numpy()
        m = np.stack([np.asarray(v, dtype=np.float64) for v in g[vec_col]])
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        sim = m @ m.T
        iu = np.triu_indices(len(ids), k=1)
        mask = sim[iu] >= threshold
        return pd.DataFrame(
            {"id_a": ids[iu[0][mask]], "id_b": ids[iu[1][mask]]}
        )

    return ds.groupby(block_col).map_groups(pairs, batch_format="pandas")
