"""Connected components by iterated min-label propagation.

The dedup pipelines cluster verified duplicate-pair edges and keep the
min id per cluster. Two equivalent implementations (tested identical):

- :func:`components_driver` — tight loop over an in-memory edge list;
  right when the VERIFIED edge set is small (near-dup edges are sparse
  relative to the corpus).
- :func:`components_dataset` — the scale path, gated on NODE count.
  Below the gate the labels are a dense driver array: each iteration
  is ONE shuffle-free Dataset execution over the detached undirected
  edge blocks (broadcast label lookup, per-block-deduped improvement
  rows only) folded on the driver with ``np.minimum.at`` plus
  vectorized pointer compression, so chains converge in O(log
  diameter) outer passes and the final pass moves zero rows. Above
  the gate labels stay distributed as stable hash buckets and each
  iteration is a Pregel-style task-level exchange moving only the
  CHANGED labels (plus cross-bucket shortcut answers for pointer
  doubling) — no per-iteration shuffle of the edge side anywhere.
  Near-dup clusters are star/clique shaped, so 1-2 iterations in
  practice either way.

:func:`min_label_components` auto-selects by edge count.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .blocks import block_refs

DRIVER_EDGE_LIMIT = 1_000_000


@ray.remote(num_cpus=0.25)
def _coalesce_blocks(*tables: pa.Table) -> pa.Table:
    ts = [t for t in tables if t.num_rows]
    return pa.concat_tables(ts) if ts else tables[0]


def _bucket_of(v: np.ndarray, nb: int) -> np.ndarray:
    """Stable multiplicative hash bucket of int64 ids (plain ``% nb``
    skews on structured id spaces, e.g. all-even surrogate keys)."""
    h = v.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return (h % np.uint64(nb)).astype(np.int64)


def _split_table(t: pa.Table, key: np.ndarray, nb: int) -> list[pa.Table]:
    """Rows of ``t`` partitioned by precomputed bucket ids ``key``."""
    order = np.argsort(key, kind="stable")
    ks = key[order]
    t2 = t.take(pa.array(order))
    starts = np.searchsorted(ks, np.arange(nb))
    ends = np.searchsorted(ks, np.arange(nb), side="right")
    return [t2.slice(int(s), int(e - s)) for s, e in zip(starts, ends)]


def _dedup_min(node: np.ndarray, lab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unique nodes, per-node min label) — the message combiner."""
    if not len(node):
        return node, lab
    order = np.argsort(node, kind="stable")
    ns, ls = node[order], lab[order]
    starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
    return ns[starts], np.minimum.reduceat(ls, starts)


_EMPTY_NL = pa.table(
    {"node": pa.array([], pa.int64()), "lab": pa.array([], pa.int64())}
)


@ray.remote
def _split_und_block(t: pa.Table, nb: int) -> list[pa.Table]:
    """One-time partition of an undirected edge block by hash(nbr)."""
    return _split_table(t, _bucket_of(t["nbr"].to_numpy(), nb), nb)


@ray.remote
def _split_partial_block(t: pa.Table, nb: int) -> list[pa.Table]:
    """One-time partition of an initial-partial block by hash(node)."""
    return _split_table(t, _bucket_of(t["node"].to_numpy(), nb), nb)


@ray.remote
def _msg_gen(und_b: pa.Table, changed_b: pa.Table, nb: int) -> list[pa.Table]:
    """Edge messages from the CHANGED labels of bucket ``b``:
    for every und row whose nbr's label just changed, emit
    (node, new_label_of_nbr), deduped-min per destination shard.
    und_b holds exactly the rows with hash(nbr) in bucket b, so the
    changed set it needs is exactly fold task b's output."""
    if not changed_b.num_rows or not und_b.num_rows:
        return [_EMPTY_NL] * nb
    cn = changed_b["node"].to_numpy()
    cl = changed_b["lab"].to_numpy()
    order = np.argsort(cn, kind="stable")
    cn, cl = cn[order], cl[order]
    nbr = und_b["nbr"].to_numpy()
    node = und_b["node"].to_numpy()
    pos = np.clip(np.searchsorted(cn, nbr), 0, len(cn) - 1)
    hit = cn[pos] == nbr
    n, c = node[hit], cl[pos[hit]]
    n, c = _dedup_min(n, c)
    out = []
    for part in _split_table(
        pa.table({"node": pa.array(n), "lab": pa.array(c)}),
        _bucket_of(n, nb) if len(n) else np.empty(0, np.int64),
        nb,
    ):
        out.append(part if part.num_rows else _EMPTY_NL)
    return out


@ray.remote
def _fold(label_b: pa.Table, nb: int, *shards: pa.Table) -> tuple:
    """Fold incoming message shards into this label bucket.

    Flat multi-return for ``num_returns=3+nb``: (new label table,
    changed table, changed count, *shortcut-query shards). Shortcut
    shards implement pointer doubling across buckets: every changed
    node queries its new label's owner bucket for THAT node's label
    (label-of-label); answers arrive as ordinary min-fold messages
    NEXT iteration — delayed delivery is safe because labels only
    decrease."""
    nodes = label_b["node"].to_numpy()
    labs = label_b["label"].to_numpy().copy()
    msg = [s for s in shards if s.num_rows]
    changed_mask = np.zeros(len(nodes), dtype=bool)
    if msg:
        mt = pa.concat_tables(msg)
        mn = mt["node"].to_numpy(zero_copy_only=False)
        ml = mt["lab"].to_numpy(zero_copy_only=False)
        # every message is routed by hash(node) of a universe node, so
        # a miss here is a bug — fail loudly rather than mislabel
        pos = np.clip(np.searchsorted(nodes, mn), 0, max(0, len(nodes) - 1))
        if len(nodes) == 0 or not np.array_equal(nodes[pos], mn):
            raise RuntimeError("components exchange: misrouted message")
        np.minimum.at(labs, pos, ml)
        changed_mask = labs < label_b["label"].to_numpy()
    new_t = pa.table({"node": pa.array(nodes), "label": pa.array(labs)})
    ch_nodes = nodes[changed_mask]
    ch_labs = labs[changed_mask]
    changed_t = pa.table({"node": pa.array(ch_nodes), "lab": pa.array(ch_labs)})
    q_shards = [
        part if part.num_rows else _EMPTY_NL
        for part in _split_table(
            changed_t,
            _bucket_of(ch_labs, nb) if len(ch_labs) else np.empty(0, np.int64),
            nb,
        )
    ]
    return (new_t, changed_t, int(changed_mask.sum()), *q_shards)


@ray.remote
def _init_bucket(*parts: pa.Table) -> pa.Table:
    """Initial label bucket: min-fold of the partial shards routed
    here; node-sorted by construction (the exchange relies on it)."""
    ps = [p for p in parts if p.num_rows]
    if not ps:
        return pa.table(
            {"node": pa.array([], pa.int64()),
             "label": pa.array([], pa.int64())}
        )
    t = pa.concat_tables(ps)
    n, l = _dedup_min(
        t["node"].to_numpy(zero_copy_only=False),
        t["lab"].to_numpy(zero_copy_only=False),
    )
    return pa.table({"node": pa.array(n), "label": pa.array(l)})


@ray.remote
def _as_changed(label_b: pa.Table) -> pa.Table:
    return pa.table({"node": label_b["node"], "lab": label_b["label"]})


@ray.remote
def _answer_shortcuts(label_b: pa.Table, nb: int, *queries: pa.Table) -> list:
    """Answer (origin, queried_id) with (origin, label[queried_id]),
    shipped toward origin's bucket as ordinary min-fold messages."""
    qs = [s for s in queries if s.num_rows]
    if not qs:
        return [_EMPTY_NL] * nb
    qt = pa.concat_tables(qs)
    origin = qt["node"].to_numpy(zero_copy_only=False)
    qid = qt["lab"].to_numpy(zero_copy_only=False)
    nodes = label_b["node"].to_numpy()
    labs = label_b["label"].to_numpy()
    pos = np.clip(np.searchsorted(nodes, qid), 0, max(0, len(nodes) - 1))
    if len(nodes) == 0 or not np.array_equal(nodes[pos], qid):
        raise RuntimeError("components exchange: misrouted shortcut")
    ans_lab = labs[pos]
    keep = ans_lab < qid  # only answers that can improve anything
    origin, ans_lab = _dedup_min(origin[keep], ans_lab[keep])
    return [
        part if part.num_rows else _EMPTY_NL
        for part in _split_table(
            pa.table({"node": pa.array(origin), "lab": pa.array(ans_lab)}),
            _bucket_of(origin, nb) if len(origin) else np.empty(0, np.int64),
            nb,
        )
    ]


def components_driver(edges: pd.DataFrame, src: str = "src", dst: str = "dst") -> dict:
    """{node: component_min_label} over an in-memory edge list.

    Same vectorized kernel as the Dataset path's below-gate regime —
    per-pass ``np.minimum.at`` improvement over ALL edges followed by
    pointer compression (label ← label[label] to fixpoint) — so each
    outer pass is O(E) numpy work and the pass count is O(log
    diameter). Replaces the old per-edge Python union-find loop, whose
    ~1M serial iterations were slower than the distributed path on 2M
    edges."""
    if not len(edges):
        return {}
    s = edges[src].to_numpy(dtype=np.int64)
    d = edges[dst].to_numpy(dtype=np.int64)
    ids = np.unique(np.concatenate([s, d]))
    si = np.searchsorted(ids, s)
    di = np.searchsorted(ids, d)
    # labels are POSITIONS into ids (ids is sorted, so min position ⇔
    # min node id) — keeps the indirection a plain array index
    lab = np.arange(len(ids), dtype=np.int64)
    while True:
        new = lab.copy()
        np.minimum.at(new, si, lab[di])
        np.minimum.at(new, di, lab[si])
        while True:  # pointer compression
            nn = np.minimum(new, new[new])
            if np.array_equal(nn, new):
                break
            new = nn
        if np.array_equal(new, lab):
            break
        lab = new
    return dict(zip(ids.tolist(), ids[lab].tolist()))


def components_dataset(
    edges: "ray.data.Dataset",
    src: str = "src",
    dst: str = "dst",
    max_iters: int = 64,
    broadcast_limit: int = 5_000_000,
) -> "ray.data.Dataset":
    """(node, label) per node of ``edges``, label = component min id.

    Auto-gated like every other wide op in this repo, on the NODE
    count (invariant across iterations — one label row per node):

    - **node count ≤ broadcast_limit** — the labels live as a dense
      driver array. Each iteration is ONE Dataset execution: an edge
      pass over the detached undirected blocks that looks neighbor
      labels up in the broadcast array and emits only per-block-deduped
      IMPROVEMENTS (node, better_label); the driver folds them with
      ``np.minimum.at`` and then runs vectorized pointer compression
      (label ← label[label] to fixpoint) for free, so chains collapse
      in O(log diameter) OUTER passes with no shuffle anywhere. The
      iteration traffic shrinks with convergence (zero rows on the
      final pass).
    - **above the gate** — a Pregel-style exchange over plain Ray
      tasks (never Ray's experimental ``Dataset.join``, whose blocking
      actor pool the crawl spine measured pathological and evicted):
      the undirected edges are hash-partitioned by nbr ONCE, labels by
      node ONCE, and each iteration ships only per-block-deduped
      messages derived from the labels that CHANGED last iteration,
      plus shortcut (label-of-label) answers across buckets, so the
      exchanged volume decays to zero as components converge.

    Both paths start from the same per-block partial mins (node →
    min(self, neighbors))."""

    def sym(t: pa.Table) -> pa.Table:
        a = pa.concat_arrays(
            [t[src].combine_chunks().cast(pa.int64()),
             t[dst].combine_chunks().cast(pa.int64())]
        )
        b = pa.concat_arrays(
            [t[dst].combine_chunks().cast(pa.int64()),
             t[src].combine_chunks().cast(pa.int64())]
        )
        return pa.table({"node": a, "nbr": b})

    def _block_min_self(t: pa.Table) -> pa.Table:
        """Per-block (node, min(self, min nbr)) — deduped within the
        block, so downstream sees per-block-unique rows only."""
        node = t["node"].to_numpy(zero_copy_only=False)
        nbr = t["nbr"].to_numpy(zero_copy_only=False)
        vals = np.minimum(node, nbr)
        order = np.argsort(node, kind="stable")
        ns, vs = node[order], vals[order]
        starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
        return pa.table(
            {"node": ns[starts], "lab": np.minimum.reduceat(vs, starts)}
        )

    ncpu = int(ray.cluster_resources().get("CPU", 8))

    def _detach(ds: "ray.data.Dataset") -> "ray.data.Dataset":
        """Materialize, sever the logical plan, and CAP the block
        count. Two iterative-loop pathologies this kills (both found
        the hard way):

        - a MaterializedDataset further transformed (union /
          map_batches) in a loop re-plans its whole retained lineage
          (~2.5× slower per iteration, exponential over the loop);
          rebuilding from block refs (``from_arrow_refs``, zero data
          movement) gives the next iteration a plan of depth 1;
        - the union triples the label table's block count every
          iteration, so the groupby's shuffle task grid (maps ×
          reduces) grows quadratically in blocks and the DRIVER spins
          serializing thousands of shuffle task args; coalescing to
          ≤ ~2·CPU blocks keeps the grid constant."""
        refs = block_refs(ds.materialize())
        target = max(2, 2 * ncpu)
        if len(refs) > target:
            chunks = np.array_split(np.arange(len(refs)), target)
            refs = [
                _coalesce_blocks.remote(*[refs[i] for i in c])
                for c in chunks
                if len(c)
            ]
        if not refs:
            return mat
        return ray.data.from_arrow_refs(refs)

    # und is consumed EVERY iteration — detach it too, or each
    # iteration re-runs the sym map over the raw edges
    und = _detach(edges.map_batches(sym, batch_format="pyarrow"))

    # both paths start from per-block partial mins; their total row
    # count bounds the node count from above, so it also decides the
    # gate without a separate distinct-count pass
    partials = _detach(und.map_batches(_block_min_self, batch_format="pyarrow"))
    n_partial = partials.count()

    if n_partial <= 3 * broadcast_limit:
        part_blocks = [
            b
            for b in ray.get(block_refs(partials))
            if b.num_rows
        ]
        part_t = (
            pa.concat_tables(part_blocks)
            if part_blocks
            else pa.table(
                {"node": pa.array([], pa.int64()),
                 "lab": pa.array([], pa.int64())}
            )
        )
        pn = part_t["node"].to_numpy(zero_copy_only=False)
        pl = part_t["lab"].to_numpy(zero_copy_only=False)
        nodes_sorted, inv = np.unique(pn, return_inverse=True)
        if len(nodes_sorted) <= broadcast_limit:
            labels_arr = np.full(
                len(nodes_sorted), np.iinfo(np.int64).max, dtype=np.int64
            )
            np.minimum.at(labels_arr, inv, pl)

            def _compress(labels_arr: np.ndarray) -> np.ndarray:
                """Vectorized pointer compression on the driver:
                label ← min(label, label-of-label) to fixpoint. Label
                values are node ids, so the indirection is a
                searchsorted into the node universe."""
                while True:
                    pos = np.searchsorted(nodes_sorted, labels_arr)
                    nl = np.minimum(labels_arr, labels_arr[pos])
                    if np.array_equal(nl, labels_arr):
                        return labels_arr
                    labels_arr = nl

            labels_arr = _compress(labels_arr)
            converged = False
            for _ in range(max_iters):
                lab_ref = ray.put((nodes_sorted, labels_arr))

                def _improve(t: pa.Table) -> pa.Table:
                    nodes_s, labs_s = ray.get(lab_ref)
                    node = t["node"].to_numpy(zero_copy_only=False)
                    nbr = t["nbr"].to_numpy(zero_copy_only=False)
                    posn = np.searchsorted(nodes_s, node)
                    posb = np.searchsorted(nodes_s, nbr)
                    # every node/nbr IS in the universe; fail loudly
                    # rather than mislabel if that ever breaks
                    if not np.array_equal(nodes_s[posn], node) or not (
                        np.array_equal(nodes_s[posb], nbr)
                    ):
                        raise RuntimeError("label lookup miss")
                    cand = labs_s[posb]
                    m = cand < labs_s[posn]
                    if not m.any():
                        return pa.table(
                            {"node": pa.array([], pa.int64()),
                             "lab": pa.array([], pa.int64())}
                        )
                    nm, cm = node[m], cand[m]
                    order = np.argsort(nm, kind="stable")
                    ns, cs = nm[order], cm[order]
                    starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
                    return pa.table(
                        {"node": ns[starts],
                         "lab": np.minimum.reduceat(cs, starts)}
                    )

                imp = und.map_batches(
                    _improve, batch_format="pyarrow"
                ).materialize()
                imp_blocks = [
                    b
                    for b in ray.get(block_refs(imp))
                    if b.num_rows
                ]
                if not imp_blocks:
                    # no edge improves any label ⇒ labels constant
                    # across every edge ⇒ exact component minima
                    converged = True
                    break
                imp_t = pa.concat_tables(imp_blocks)
                np.minimum.at(
                    labels_arr,
                    np.searchsorted(
                        nodes_sorted,
                        imp_t["node"].to_numpy(zero_copy_only=False),
                    ),
                    imp_t["lab"].to_numpy(zero_copy_only=False),
                )
                labels_arr = _compress(labels_arr)
            if not converged:
                import warnings

                warnings.warn(
                    f"components_dataset: label propagation did not "
                    f"converge in {max_iters} iterations — returned "
                    f"labels may split components",
                    RuntimeWarning,
                    stacklevel=2,
                )
            out = pa.table(
                {"node": pa.array(nodes_sorted),
                 "label": pa.array(labels_arr)}
            )
            return ray.data.from_arrow(out)

    # ---- above the gate: a Pregel-style exchange loop over plain Ray
    # tasks. und is hash-partitioned by nbr ONCE and label buckets are
    # hash-partitioned by node ONCE; every iteration moves only the
    # CHANGED labels (edge messages) plus shortcut answers (pointer
    # doubling across buckets), so the exchanged volume shrinks toward
    # zero as components converge — no per-iteration Dataset shuffle,
    # no re-bucketing of the big edge side, no driver data.
    nb = max(2, 2 * ncpu)

    und_shards = [
        _split_und_block.options(num_returns=nb).remote(ref, nb)
        for ref in block_refs(und)
    ]
    und_buckets = [
        _coalesce_blocks.remote(*[s[b] for s in und_shards])
        for b in range(nb)
    ]
    part_shards = [
        _split_partial_block.options(num_returns=nb).remote(ref, nb)
        for ref in block_refs(partials)
    ]
    label_refs = [
        _init_bucket.remote(*[s[b] for s in part_shards]) for b in range(nb)
    ]
    changed_refs = [_as_changed.remote(label_refs[b]) for b in range(nb)]
    pending: list[list] = [[] for _ in range(nb)]  # answer shards per bucket
    converged = False
    for _ in range(max_iters):
        msg_shards = [
            _msg_gen.options(num_returns=nb).remote(
                und_buckets[b], changed_refs[b], nb
            )
            for b in range(nb)
        ]
        fold_out = [
            _fold.options(num_returns=3 + nb).remote(
                label_refs[d],
                nb,
                *([msg_shards[b][d] for b in range(nb)] + pending[d]),
            )
            for d in range(nb)
        ]
        label_refs = [o[0] for o in fold_out]
        changed_refs = [o[1] for o in fold_out]
        counts = ray.get([o[2] for o in fold_out])
        q_shards = [o[3:] for o in fold_out]  # q_shards[d][a]
        if sum(counts) == 0:
            # zero changes ⇒ no queries issued, no answers in flight,
            # and next iteration's edge messages would be empty: for
            # every edge the endpoint labels are equal ⇒ exact minima
            converged = True
            break
        ans = [
            _answer_shortcuts.options(num_returns=nb).remote(
                label_refs[a], nb, *[q_shards[d][a] for d in range(nb)]
            )
            for a in range(nb)
        ]
        pending = [[ans[a][d] for a in range(nb)] for d in range(nb)]
    if not converged:
        # a component with propagation diameter > max_iters would exit
        # here with SPLIT labels (silent under-deduplication downstream)
        import warnings

        warnings.warn(
            f"components_dataset: label propagation did not converge in "
            f"{max_iters} iterations — returned labels may split "
            f"components with diameter > {max_iters}",
            RuntimeWarning,
            stacklevel=2,
        )
    return ray.data.from_arrow_refs(label_refs)


def min_label_components(
    edges: "ray.data.Dataset", src: str = "src", dst: str = "dst"
) -> "ray.data.Dataset":
    """(node, label) Dataset for the edge Dataset — driver kernel below
    :data:`DRIVER_EDGE_LIMIT` edges (verified near-dup edge sets are
    sparse), iterated Dataset label propagation above it.

    The edge plan is materialized ONCE at entry: for the dedup family
    the upstream is the (expensive) verify stage, and the old
    count-then-consume pattern executed it twice — once for the gate,
    once for the chosen path (both branches re-ran the lazy plan)."""
    edges = edges.materialize()
    n = edges.count()  # metadata on a MaterializedDataset — no re-run
    if n > DRIVER_EDGE_LIMIT:
        return components_dataset(edges, src, dst)
    if n == 0:
        lab: dict = {}
    else:
        lab = components_driver(edges.to_pandas(), src, dst)
    return ray.data.from_pandas(
        pd.DataFrame(
            {"node": np.fromiter(lab.keys(), np.int64, len(lab)),
             "label": np.fromiter(lab.values(), np.int64, len(lab))}
        )
    )
