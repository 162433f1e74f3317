"""Deduplication family over a document Dataset — the training-data
core ops: exact (hash-partitioned first-wins), MinHash+LSH, SimHash,
n-gram Jaccard, embedding-cosine near-dup.

Design:

- **exact copies** (``_copy_edges``): each block task keys its
  non-null texts (or text prefixes) by a 128-bit BLAKE2b digest; the
  (digest, id) rows are hash-partitioned by digest
  (``ops/hashagg.partition_refs``) and each reducer sorts its slice
  into (min id, id) copy edges — the T1 surrogate-dedup first-wins
  (``/root/reference/src/storage/surrogate_key.rs:16-41``) applied to
  content instead of URLs. No text is shuffled and nothing passes
  through the driver. ``exact_dedup`` removes every edge's ``dst``
  with ``ops.joins.anti_join_keys``.
- **minhash-LSH**: plain Ray tasks over the input's materialized
  blocks (one task per block per stage; no Dataset executions below
  the broadcast gate). The exact-copy edges come first: a row whose
  text a smaller id holds is an exact copy and is not signed. It is
  removed as a copy of that id, unless that id represents none of its
  band buckets and verifies against none of their reps: then signing
  every row would keep it too. Each signing task shingles →
  k-permutation MinHash (numpy) and also emits its (bucket, n, min_id)
  band partials — bucket = fold of (band ‖ band-signature);
  signatures, never text, leave the task → ``ops/hashagg.hot_combine``
  gives the hot buckets and their min-id representatives → the reps'
  signatures are broadcast and each block is star-verified
  (signature-estimated Jaccard against the rep) → connected components
  (ops/components.py: driver loop for sparse edge sets, iterated
  Dataset min-label joins at scale) → component non-roots and exact
  copies removed via ``ops.joins.anti_join_keys`` (broadcast below a
  size gate, bucketed left-anti join above it). Above a broadcast gate
  every row is signed (more exact-copy rows) or the star verify runs
  as ``groupby(bucket).map_groups`` over an exploded (id, bucket, sig)
  band table (more hot buckets).
- **ngram-jaccard**: exact word-n-gram Jaccard verification for a
  given candidate pair set (the precise second pass).
- **simhash**: 64-bit token simhash, signed by one task per block —
  fully vectorized (mod-P polynomial folds over the flattened token
  stream + segment reduction); near-dup = Hamming ≤ r with 4×16-bit
  band blocking (pigeonhole: distance ≤ 3 ⇒ one band equal); all-pairs
  ``groupby(bucket)`` verify, then the same components / anti-join
  spine as minhash.
- **embedding near-dup**: block-wise cosine pairs via per-group numpy
  matmul (block = label here; kmeans/LSH cell at scale).

Exact, MinHash and SimHash dedup key on a non-null integer id column
and raise ``ValueError`` on any other (the CLI dedups string or null ids through
an int64 surrogate). Deterministic: permutation parameters derive from
a fixed seed; all tiebreaks by min id; no wall-clock anywhere.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..ops.blocks import block_refs
from ..ops.components import min_label_components
from ..ops.hashagg import combine_parts, hot_combine, partition_refs
from ..ops.joins import anti_join_keys

_TOKEN = re.compile(r"\S+")

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def _block_ids(col: "pa.ChunkedArray", id_col: str) -> np.ndarray:
    """The int64 ids of one block's id column. The dedup family keys on
    non-null integer ids; any other id column raises."""
    if not pa.types.is_integer(col.type):
        raise ValueError(f"dedup ids must be integers: {id_col!r} is {col.type}")
    if col.null_count:
        raise ValueError(f"dedup ids must be non-null: {id_col!r} has {col.null_count}")
    return col.to_numpy().astype(np.int64, copy=False)


def _id_text(block, id_col: str, text_col: str):
    """(ids, texts, live) of one Arrow or pandas block: int64 ids, the
    texts as a list, and the positions of the non-null texts. An empty
    block may have no schema (filter and shuffle ops emit such)."""
    if not len(block):
        return np.zeros(0, np.int64), [], np.zeros(0, np.int64)
    if not isinstance(block, pa.Table):
        block = pa.Table.from_pandas(block[[id_col, text_col]], preserve_index=False)
    text = block[text_col]
    live = np.flatnonzero(pc.is_valid(text).to_numpy(zero_copy_only=False))
    return _block_ids(block[id_col], id_col), text.to_pylist(), live


@ray.remote(num_returns=2)
def _key_block(block, id_col: str, text_col: str, key_len: int | None):
    """(rows, keyed) for one block: a (k0, k1, id) row per non-null
    text, k0‖k1 the 128-bit BLAKE2b digest of the text or of its
    ``key_len``-character prefix."""
    ids, texts, live = _id_text(block, id_col, text_col)
    keys = [texts[i][:key_len] if key_len else texts[i] for i in live]
    digests = np.frombuffer(_content_keys(keys), np.int64).reshape(-1, 2)
    return len(live), pa.table(
        {"k0": digests[:, 0], "k1": digests[:, 1], "id": ids[live]}
    )


@ray.remote(num_returns=2)
def _copy_reduce(*keyed: pa.Table):
    """(edge count, edge table) of one digest partition: its rows
    sorted by (digest, id), each row after its digest's first is a copy
    of that first (min) id."""
    t = pa.concat_tables(keyed)
    k0, k1, ids = (t[c].to_numpy() for c in ("k0", "k1", "id"))
    order = np.lexsort((ids, k1, k0))
    k0, k1, ids = k0[order], k1[order], ids[order]
    first = np.ones(len(ids), bool)
    first[1:] = (k0[1:] != k0[:-1]) | (k1[1:] != k1[:-1])
    owner = ids[first][np.cumsum(first) - 1]
    return int(len(ids) - first.sum()), _edge_table(owner[~first], ids[~first])


def _copy_edges(refs: list, id_col: str, text_col: str, key_len: int | None = None):
    """The exact copies among the blocks ``refs``, as (edge-count refs,
    edge-table refs), one of each per digest partition: an edge
    (min id, id) for every row whose text — or ``key_len`` prefix — a
    smaller id holds. Null texts are neither keyed nor matched. The
    keyed rows are hash-partitioned by digest (one partition per
    ``ops/hashagg.combine_parts`` share of them), so no text is
    shuffled and no edge passes through the driver."""
    rows, keyed = zip(*(_key_block.remote(r, id_col, text_col, key_len) for r in refs))
    parts = combine_parts(sum(ray.get(list(rows))))
    matrix = partition_refs(list(keyed), "k0", parts)
    out = [_copy_reduce.remote(*[row[p] for row in matrix]) for p in range(parts)]
    return [o[0] for o in out], [o[1] for o in out]


def exact_dedup(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    key_len: int | None = None,
) -> "ray.data.Dataset":
    """Keep the min-``id`` row per distinct text (optionally per text
    prefix of ``key_len`` characters). A null text is kept and never
    matched. ``ds`` is materialized once (a no-op for a
    ``MaterializedDataset``); its copy edges' ``dst`` ids are removed
    by an anti-join over the same blocks."""
    ds = ds.materialize()
    refs = block_refs(ds)
    if not refs:
        return ds
    _, copy_refs = _copy_edges(refs, id_col, text_col, key_len)
    return _drop_duplicate_ids(ds, None, id_col, copy_refs)


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
    q = np.empty_like(h)
    for j in range(k):  # k vectorized passes, not n passes
        h *= _MH_CB
        h += cp[j : n - k + 1 + j]
        _mod_p(h, q)
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


def _mod_p(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact in-place ``v mod P`` for 0 ≤ v < 2^63, with ``q`` a scratch
    buffer of ``v``'s shape: ``v - (v // P)·P``. numpy divides by a
    scalar through libdivide (a multiply and shifts per element), so
    this beats ``v %= P``, whose int64 remainder is one hardware
    division per element."""
    np.floor_divide(v, _MH_P, out=q)
    q *= _MH_P
    v -= q
    return v


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
    # ×8); this form's working set is 16·S bytes. The reduction is
    # ``_mod_p``'s floor-divide form: faster than both ``%=`` and the
    # Mersenne fold (9 cheap passes), and bit-identical to ``%``.
    doc_starts = np.r_[0, np.cumsum(cnt)[:-1]]
    sigs = np.empty((D, num_perm), dtype=np.int64)
    buf = np.empty(tot, dtype=np.int64)
    q = np.empty_like(buf)
    for p in range(num_perm):
        np.multiply(hv, a[p], out=buf)
        buf += b[p]
        _mod_p(buf, q)
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

# Max sizes of the two broadcast tables: the exact-copy ids (copy rows:
# 8 B per copy and per owner) and the rep table (~(16 + 8·num_perm) B
# per hot bucket, so 1M buckets ≈ 0.5 GiB in the object store). Above
# the first every row is signed; above the second the star verify falls
# back to the grouped shuffle.
_COPY_BROADCAST_LIMIT = 1_000_000
_REP_BROADCAST_LIMIT = 1_000_000

# texts per signing-kernel call: bounds the kernel's working set
_SIGN_BATCH = 512


def _verify_fanout(n_groups: int, groups_per_task: int = 256) -> int:
    """Block count for the grouped verify shuffle: enough tasks to
    spread the per-group pandas overhead (~0.3 ms each), capped by the
    data (``groups_per_task`` per task) so tiny hot sets don't schedule
    cluster-proportional fan-out, and by 2× cluster CPUs."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(1, min((n_groups + groups_per_task - 1) // groups_per_task, cpus * 2))


def _content_keys(texts: list) -> bytes:
    """128-bit BLAKE2b digest of each text, concatenated (16 B each)."""
    return b"".join(
        hashlib.blake2b(t.encode("utf-8", "surrogatepass"), digest_size=16).digest()
        for t in texts
    )


def _fixed_binary(buf, n: int, width: int) -> pa.Array:
    """``n`` values of ``width`` bytes each over one contiguous buffer."""
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(width), n, [None, pa.py_buffer(buf)]
    )


def _table_sigs(t: pa.Table) -> np.ndarray:
    """(D, num_perm) int64 view of a signature table's ``sig`` column."""
    col = t["sig"].combine_chunks()
    width = col.type.byte_width
    if not len(col):
        return np.zeros((0, width // 8), np.int64)
    return np.frombuffer(
        col.buffers()[1], np.int64, len(col) * width // 8, col.offset * width
    ).reshape(len(col), width // 8)


def _in_sorted(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per value: is it in the sorted, non-empty ``keys``."""
    pos = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return keys[pos] == values


def _id_concat(arrays: list) -> np.ndarray:
    """One int64 id array of the ``arrays`` (empty when none)."""
    return np.concatenate([np.zeros(0, np.int64), *arrays])


def _edge_table(src: np.ndarray, dst: np.ndarray) -> pa.Table:
    return pa.table(
        {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
    )


def _edge_dataset(refs: list) -> "ray.data.Dataset":
    """Edge Dataset over edge-table refs; one empty table when none."""
    if not refs:
        none = np.zeros(0, np.int64)
        refs = [ray.put(_edge_table(none, none))]
    return ray.data.from_arrow_refs(refs)


def _band_partial(ids: np.ndarray, sigs: np.ndarray, bands: int) -> pa.Table:
    """One (bucket, n, min_id) row per distinct band bucket of these
    docs — the bucket keys are recomputed from the signatures, so the
    ×bands band table is never built."""
    if not len(ids):
        none = pa.array([], pa.int64())
        return pa.table({"bucket": none, "n": none, "min_id": none})
    flat = band_buckets_batch(sigs, bands).ravel()
    mids = np.repeat(ids, bands)
    order = np.lexsort((mids, flat))
    flat, mids = flat[order], mids[order]
    first = np.ones(len(flat), dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    counts = np.diff(np.append(np.flatnonzero(first), len(flat)))
    return pa.table({"bucket": flat[first], "n": counts, "min_id": mids[first]})


@ray.remote(num_returns=3)
def _sign_block(block, id_col, text_col, a, b, k, bands, copies):
    """Sign one block → (partial_rows, sig table (id, sig), band
    partial). The ids in ``copies`` (sorted exact-copy ids) and null
    texts are not signed."""
    ids, texts, live = _id_text(block, id_col, text_col)
    if copies is not None:
        live = live[~_in_sorted(copies, ids[live])]
    sigs = np.empty((len(live), len(a)), np.int64)
    for s in range(0, len(live), _SIGN_BATCH):
        chunk = live[s : s + _SIGN_BATCH]
        sigs[s : s + len(chunk)] = minhash_signatures_batch(
            [texts[i] for i in chunk], a, b, k
        )
    ids = ids[live]
    partial = _band_partial(ids, sigs, bands)
    sig_table = pa.table(
        {"id": ids, "sig": _fixed_binary(sigs, len(ids), 8 * len(a))}
    )
    return partial.num_rows, sig_table, partial


def _hot_reps(partials: list, partial_rows: int):
    """(hot_buckets, rep_ids): the sorted buckets held by ≥2 signed docs
    and each one's min id, combined from the signing tasks' band
    partials by the hash-partitioned task combine (partition count
    from the observed partial volume)."""
    return hot_combine(
        partials,
        key="bucket",
        sum_col="n",
        min_col="min_id",
        min_count=2,
        parts=combine_parts(partial_rows),
    )


@ray.remote
def _lone_owners(
    sig_table: pa.Table, hot: tuple, bands: int, owners: np.ndarray
) -> np.ndarray:
    """The ids of one signature block that are in ``owners`` and
    represent none of their band buckets: each bucket is hot with a
    smaller rep (``hot`` = sorted hot buckets, rep id of each)."""
    hb, hr = hot
    ids = sig_table["id"].to_numpy()
    mine = np.flatnonzero(np.isin(ids, owners))
    if not len(mine) or not len(hb):
        return np.zeros(0, np.int64)
    ids = ids[mine]
    flat = band_buckets_batch(_table_sigs(sig_table)[mine], bands).ravel()
    pos = np.minimum(np.searchsorted(hb, flat), len(hb) - 1)
    other = (hb[pos] == flat) & (hr[pos] != np.repeat(ids, bands))
    return ids[other.reshape(len(ids), bands).all(axis=1)]


@ray.remote
def _dsts_in(block, ids: np.ndarray) -> np.ndarray:
    """The edge ``dst`` values of one edge block that are in ``ids``."""
    if not len(block):
        return np.zeros(0, np.int64)
    dst = np.asarray(block["dst"], np.int64)
    return dst[np.isin(dst, ids)]


@ray.remote
def _without_src(edges: pa.Table, srcs: np.ndarray) -> pa.Table:
    """The exact-copy edges whose owner is not in ``srcs``."""
    return edges.filter(pa.array(~np.isin(edges["src"].to_numpy(), srcs)))


@ray.remote
def _rep_rows(sig_table: pa.Table, rep_ids: np.ndarray) -> pa.Table:
    """The rows of one signature block whose id is a representative."""
    return sig_table.filter(_in_sorted(rep_ids, sig_table["id"].to_numpy()))


@ray.remote(num_returns=2)
def _verify_block(
    sig_table: pa.Table, reps: tuple, bands: int, threshold: float, owners
):
    """Star-verify one signature block against the broadcast rep table:
    recompute each doc's band buckets, match them against the hot
    buckets and compare signatures with each distinct rep met.
    Returns (edges, lone owners): the ids in ``owners`` that represent
    none of their buckets (each is hot with a smaller rep) and verify
    against none of those reps."""
    rb, uri, ridx, rs = reps
    ids = sig_table["id"].to_numpy()
    if not len(ids):
        return _edge_table(ids, ids), ids
    sigs = _table_sigs(sig_table)
    flat = band_buckets_batch(sigs, bands).ravel()
    rows = np.repeat(np.arange(len(ids)), bands)
    pos = np.minimum(np.searchsorted(rb, flat), len(rb) - 1)
    valid = (rb[pos] == flat) & (uri[ridx[pos]] != ids[rows])
    lone = valid.reshape(len(ids), bands).all(axis=1)
    rows, ri_hit = rows[valid], ridx[pos[valid]]
    # one comparison per distinct (member, rep) pair: near-dup members
    # share most bands, so keying by REP ID — not bucket — collapses
    # the ~bands-fold duplicate pairs before the signature compare
    pair = np.unique(rows * np.int64(len(rs) + 1) + ri_hit)
    rows, ri_hit = pair // (len(rs) + 1), pair % (len(rs) + 1)
    est = (sigs[rows] == rs[ri_hit]).mean(axis=1) if len(rows) else np.zeros(0)
    hit = est >= threshold
    lone[rows[hit]] = False
    lone_ids = ids[lone & np.isin(ids, owners)] if owners is not None else ids[:0]
    return _edge_table(uri[ri_hit[hit]], ids[rows[hit]]), lone_ids


def _star_verify_broadcast(
    sig_refs: list,
    rep_buckets: np.ndarray,
    rep_ids: np.ndarray,
    bands: int,
    threshold: float,
    owners,
) -> tuple:
    """Shuffle-free star verification → (edge-table refs, lone-owner
    refs), one of each per signature block (see ``_verify_block``):
    fetch the hot buckets' min-id representative
    signatures (bounded by the rep count, which already passed the
    broadcast gate), broadcast them, and verify each block in one
    vectorized task. Emits the same edge set as the grouped star
    verify: (rep_id, member_id) where the estimated Jaccard (mean
    signature agreement) ≥ threshold — a member meets each hot bucket
    it occupies exactly as a band-table row would, minus the ×bands
    sig-byte replication through the object store (measured 1.6 GB →
    0.1 GB at 200k docs × 16 bands × 64 perms)."""
    if not len(rep_ids):
        return [], []
    uniq_rep_ids = np.unique(rep_ids)
    uniq_ref = ray.put(uniq_rep_ids)
    reps = pa.concat_tables(ray.get([_rep_rows.remote(r, uniq_ref) for r in sig_refs]))
    rid = reps["id"].to_numpy()
    rorder = np.argsort(rid)
    rep_sigs_by_id = _table_sigs(reps.take(rorder))
    # per-bucket index into the id-sorted rep sig matrix (a doc can rep
    # many buckets)
    rep_idx = np.searchsorted(rid[rorder], rep_ids)
    rep_ref = ray.put((rep_buckets, uniq_rep_ids, rep_idx, rep_sigs_by_id))
    out = [_verify_block.remote(r, rep_ref, bands, threshold, owners) for r in sig_refs]
    return [o[0] for o in out], [o[1] for o in out]


@ray.remote
def _removed_ids(block, keep_col: str, drop_col: str, id_col: str) -> pa.Table:
    """``drop_col`` of the rows whose ``keep_col`` differs, as ``id_col``:
    the non-root nodes of a (node, label) block, or the dst of an
    exact-copy edge block."""
    t = block
    if not isinstance(t, pa.Table):
        t = pa.Table.from_pandas(t, preserve_index=False)
    t = t.filter(pc.not_equal(t[keep_col], t[drop_col]))
    return pa.table({id_col: t[drop_col].cast(pa.int64())})


def _drop_duplicate_ids(
    ds: "ray.data.Dataset",
    edges: "ray.data.Dataset | None",
    id_col: str,
    copy_refs: list = (),
) -> "ray.data.Dataset":
    """Remove from ``ds`` the dst of every exact-copy edge block in
    ``copy_refs`` and, with an ``edges`` Dataset of verified edges,
    every id but the min of its edge cluster (components and the anti
    join auto-switch to their distributed forms past their size
    gates)."""
    removed = [_removed_ids.remote(r, "src", "dst", id_col) for r in copy_refs]
    if edges is not None:
        labels = min_label_components(edges).materialize()
        removed += [
            _removed_ids.remote(r, "label", "node", id_col) for r in block_refs(labels)
        ]
    if not removed:
        return ds
    return anti_join_keys(ds, ray.data.from_arrow_refs(removed), on=id_col)


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
    kept rows (min id per duplicate cluster). Null texts are kept and
    never matched.

    ``ds`` is materialized once (a no-op for a ``MaterializedDataset``);
    every stage then runs as plain Ray tasks over its blocks, one task
    per block per stage, and the kept rows are a lazy anti-join over
    the same blocks. The signing (the compute-dominant step) thus runs
    one task per INPUT BLOCK: a dataset read from a single parquet
    file without ``override_num_blocks`` arrives as one block and
    signs on one core. Readers should split to ~2 blocks per CPU.

    Each distinct text is signed once: only the min id of each text
    (128-bit content digest) is signed, and its other rows leave as
    exact copies. The kept rows are those of signing every row. An
    owner's copies share all its buckets and are never a bucket's
    min-id representative, so signing them adds only their own
    (rep, copy) edges: (owner, copy) where the owner represents a
    bucket (the copy verifies against it at Jaccard 1.0), else one
    edge from each rep the owner verifies against. A copy is thus
    removed as an (owner, copy) edge unless its owner is LONE — each
    of its buckets also holds a smaller signed id and none of those
    reps verifies it — in which case owner and copies are all kept.

    ``return_edges`` also returns the edge Dataset: the verified
    (rep_id, member_id) pairs and the exact-copy (min_id, id) pairs.
    The removed ids are exactly the nodes of this edge graph that are
    not their connected component's min id (a rep that verifies a
    member of a smaller rep is removed without being a ``dst``). Its
    schema is int64 ``src``/``dst`` on every path, an edge-free one
    included (Ray's ``to_pandas()`` of a zero-row Dataset still has no
    columns; ``to_arrow_refs()`` keeps them)."""
    if bands < 1 or num_perm % bands:
        raise ValueError(f"num_perm ({num_perm}) must be a multiple of bands ({bands})")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    a, b = _perm_params(num_perm, seed)
    ds = ds.materialize()
    refs = block_refs(ds)
    if not refs:
        return (ds, _edge_dataset([])) if return_edges else ds

    # exact copies first: below the gate their ids are broadcast, and a
    # copy of a smaller id's text skips the signing
    counts, copy_refs = _copy_edges(refs, id_col, text_col)
    copies = owners = None
    if 0 < sum(ray.get(counts)) <= _COPY_BROADCAST_LIMIT:
        copy_edges = pa.concat_tables(ray.get(copy_refs))
        copies = ray.put(np.sort(copy_edges["dst"].to_numpy()))
        owners = ray.put(np.unique(copy_edges["src"].to_numpy()))
    else:
        copy_refs = []
    signed = [
        _sign_block.remote(r, id_col, text_col, a, b, shingle_k, bands, copies)
        for r in refs
    ]
    sig_refs = [s[1] for s in signed]

    # STAR verification: estimate Jaccard only against the min-id
    # representative of each hot (≥2-member) bucket — O(|bucket|), not
    # O(|bucket|²); transitive members meet the same representative
    # through other bands, and min-label components still merge across
    # buckets. Below the gate the rep table is BROADCAST and each
    # signature block verifies in one task, with no shuffle; above it
    # (~8·num_perm bytes per bucket) a grouped shuffle star verify runs
    # over an (id, bucket, sig) band table built only in that branch.
    hot = _hot_reps([s[2] for s in signed], sum(ray.get([s[0] for s in signed])))
    if len(hot[0]) <= _REP_BROADCAST_LIMIT:
        edge_refs, lone_refs = _star_verify_broadcast(
            sig_refs, *hot, bands, threshold, owners
        )
        edges = _edge_dataset(edge_refs)
        lone = _id_concat(ray.get(lone_refs) if copy_refs else [])
    else:
        sigs_ds = ray.data.from_arrow_refs(sig_refs)
        hot_ref = ray.put(hot)

        def to_bands(t: pa.Table) -> pa.Table:
            rows = pa.array(np.repeat(np.arange(t.num_rows), bands))
            return pa.table(
                {
                    "id": t["id"].take(rows),
                    "bucket": band_buckets_batch(_table_sigs(t), bands).ravel(),
                    "sig": t["sig"].take(rows),
                }
            )

        def in_hot(t: pa.Table) -> pa.Table:
            hot_buckets = ray.get(hot_ref)[0]
            return t.filter(pa.array(np.isin(t["bucket"].to_numpy(), hot_buckets)))

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
            sigs_ds.map_batches(to_bands, batch_format="pyarrow")
            .map_batches(in_hot, batch_format="pyarrow")
            .repartition(_verify_fanout(len(hot[0])))
            .groupby("bucket")
            .map_groups(star_verify, batch_format="pandas")
            .materialize()
        )
        if not edges.count():  # no hot bucket: no group, no schema
            edges = _edge_dataset([])
        lone = _id_concat(
            ray.get([_lone_owners.remote(r, hot_ref, bands, owners) for r in sig_refs])
            if copy_refs
            else []
        )
        if len(lone):  # an owner a rep verifies is not lone
            verified = ray.get([_dsts_in.remote(r, lone) for r in block_refs(edges)])
            lone = np.setdiff1d(lone, _id_concat(verified))

    # a lone owner's copies stay, as its own row does
    if len(lone):
        lone_ref = ray.put(lone)
        copy_refs = [_without_src.remote(r, lone_ref) for r in copy_refs]
    out = _drop_duplicate_ids(ds, edges, id_col, copy_refs)
    if not return_edges:
        return out
    if copy_refs:
        edges = edges.union(_edge_dataset(copy_refs))
    return out, edges


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


@ray.remote(num_returns=3)
def _simhash_block(block, id_col: str, text_col: str):
    """Sign one block → (partial_rows, band table, band partial): the
    band table has four (id, simhash, bucket) rows per non-null text,
    bucket = 16-bit band value·4 + band (one exact int64 key), and the
    partial one (bucket, n) row per distinct bucket."""
    ids, texts, live = _id_text(block, id_col, text_col)
    hs = np.zeros(len(live), np.int64)
    for s in range(0, len(live), _SIGN_BATCH):  # bounds the bit matrix
        hs[s : s + _SIGN_BATCH] = simhash64_batch(
            [texts[i] for i in live[s : s + _SIGN_BATCH]]
        )
    shifts = np.arange(0, 64, 16, dtype=np.uint64)[:, None]
    band_val = (hs.view(np.uint64) >> shifts) & np.uint64(0xFFFF)
    bucket = (band_val.astype(np.int64) * 4 + np.arange(4)[:, None]).ravel()
    table = pa.table(
        {"id": np.tile(ids[live], 4), "simhash": np.tile(hs, 4), "bucket": bucket}
    )
    keys, n = np.unique(bucket, return_counts=True)
    return len(keys), table, pa.table({"bucket": keys, "n": n})


def simhash_dedup(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    hamming_max: int = 3,
) -> "ray.data.Dataset":
    """Near-dup removal by simhash Hamming ≤ r with 16-bit band blocking.
    Null texts are kept and never matched. ``ds`` is materialized once
    (a no-op for a ``MaterializedDataset``) and signed by one task per
    block; the kept rows are an anti-join over the same blocks."""
    ds = ds.materialize()
    refs = block_refs(ds)
    if not refs:
        return ds
    signed = [_simhash_block.remote(r, id_col, text_col) for r in refs]
    hot_arr, _ = hot_combine(
        [s[2] for s in signed],
        key="bucket",
        sum_col="n",
        min_count=2,
        parts=combine_parts(sum(ray.get([s[0] for s in signed]))),
    )
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
        ray.data.from_arrow_refs([s[1] for s in signed])
        .map_batches(in_hot, batch_format="pandas")
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
