"""URL-seen set — first-wins surrogate-key assignment (T1, SURVEY §2.3).

Reference semantics (``/root/reference/src/storage/surrogate_key.rs:16-41``):
a dense counter starting at 1; the FIRST sight of an id allocates the
next key, later sights reuse it. The reference is single-threaded so
"first" is trivially arrival order; under parallelism we make it
**min(seq)** per canonical key — seq is an explicit, deterministic
sequence number carried in the rows (never wall-clock), so the result
is independent of task scheduling.

Two implementations, same semantics:

- :func:`first_wins_dataset` — pure Dataset ops
  (``groupby(key).min(seq)`` → sort → dense index). The
  oracle-checkable path, used for batch dedup.
- :class:`ShardedSeenSet` — the streaming path for the crawl frontier:
  N shard actors (shard = ``key % num_shards``), each holding a cuckoo
  prefilter (state/cuckoo.py) + a TIERED exact ``key → (surrogate,
  first_seq)`` store (bounded dict tail → sorted RAM runs → memmapped
  disk runs past ``ram_cap``). Links discovered mid-round are filtered through
  ``offer`` (batched actor calls from ``map_batches`` tasks); at the
  round barrier ``commit_round`` resolves min-seq winners and assigns
  dense surrogates in (round, first_seq) order — reproducing the
  sequential crawl's first-seen ordering. Shards snapshot per round for
  kill/resume (the reference rebuilds from scratch,
  ``database_sink.rs:91-101``; at 10^10 we must not).

N comes from the cluster (:func:`seen_shard_count`: one shard per CPU,
at most 8) unless pinned. Surrogates are assigned globally, so N never
changes a result; a shard's prefilter doubles on overflow, so N does
not bound the key count either. A snapshot chain restores only into a
pool of the N it was written with (the crawl records N per round).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray

from .cuckoo import CuckooFilter

# ray.data is imported only inside the Dataset functions: a shard actor
# imports this module before its first call, and ray.data would add
# about 1 s to that start-up on a 1-CPU host (the driver-path shard
# calls exchange numpy for the same reason)


def _as_arrow_block(block) -> pa.Table:
    """Dataset blocks may be Arrow tables OR pandas frames depending on
    the producing operator; the shard block methods accept both."""
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def block_refs(ds: "ray.data.Dataset") -> list:
    """The Arrow block refs of a MATERIALIZED Dataset, in order."""
    return [
        ref for bundle in ds.iter_internal_ref_bundles() for ref in bundle.block_refs
    ]


def first_wins_dataset(
    ds: "ray.data.Dataset",
    key_col: str,
    seq_col: str,
    surrogate_col: str = "surrogate",
    start: int = 1,
) -> "ray.data.Dataset":
    """Dense first-seen surrogate per key: one row per distinct key with
    ``first_seq = min(seq)`` and surrogates ``start..`` in first_seq
    order. Deterministic given unique seqs."""
    from ray.data.aggregate import Min

    from ..ops.zip_with_index import zip_with_index

    firsts = ds.groupby(key_col).aggregate(Min(seq_col, alias_name="first_seq"))
    return zip_with_index(firsts.sort("first_seq"), surrogate_col, start=start)


class _Run:
    """One sorted committed run: ``keys`` ascending, values aligned.
    RAM-backed (plain ndarrays) or disk-backed (``np.load(...,
    mmap_mode='r')`` memmaps — a ``searchsorted`` probe touches only
    O(log n) pages, which is why runs are raw ``.npy`` rather than the
    Parquet the cuckoo module's docstring originally sketched: Parquet
    membership probes would decode whole row groups per miss)."""

    __slots__ = ("keys", "surrogates", "first_seqs", "path")

    def __init__(self, keys, surrogates, first_seqs, path: str | None = None):
        self.keys = keys
        self.surrogates = surrogates
        self.first_seqs = first_seqs
        self.path = path  # spill file prefix when disk-backed

    def __len__(self) -> int:
        return len(self.keys)


# Consolidate the tail dict into a sorted run past this size, so the
# vectorized run probes (not per-key dict loops) carry the steady state.
_TAIL_MAX = 1 << 16
# Merge RAM runs down to one when this many accumulate (amortized
# O(n log n) concatenate+argsort, keeps the per-probe run count small).
_RAM_RUN_MAX = 6


# auto shard count ceiling: the 8-actor layout the 32-CPU scaling runs use
MAX_AUTO_SEEN_SHARDS = 8


def seen_shard_count(num_seen_shards: int, cpus: int | None = None) -> int:
    """The shard count a crawl runs with: ``num_seen_shards > 0`` pins
    it; 0 means one shard per cluster CPU (``cpus``, read from Ray when
    omitted), capped at :data:`MAX_AUTO_SEEN_SHARDS`. Every shard is a
    worker process the crawl waits for at its first seen-set call, so
    on a small host fewer shards start faster, and the shard count is
    never a key ceiling (filters grow)."""
    if num_seen_shards > 0:
        return num_seen_shards
    if cpus is None:
        cpus = int(ray.cluster_resources().get("CPU", 1))
    return max(1, min(cpus, MAX_AUTO_SEEN_SHARDS))


# num_cpus=0: shard actors are memory-bound state holders that must not
# reserve data-plane CPUs (a pool of them would otherwise starve the
# map_batches stages on small clusters — observed deadlock at num_cpus=4).
@ray.remote(num_cpus=0)
class SeenSetShard:
    """One shard of the seen set. All methods take/return numpy or Arrow
    (zero pickling of Python row objects).

    Committed state is TIERED (the 10^10-key design the cuckoo module
    promises): a small ``exact`` dict holds only the entries committed
    since the last consolidation; everything older lives in sorted
    ``(key, surrogate, first_seq)`` runs — RAM ndarrays first, spilled
    to disk as memmapped ``.npy`` runs once RAM-resident entries exceed
    ``ram_cap``. Membership and lookup are a cuckoo prefilter, then a
    vectorized ``searchsorted`` over the runs, then a dict probe over
    the bounded tail — so neither a steady-state crawl (mostly-seen
    candidates) nor a 10^10-key shard ever walks keys one by one or
    holds them all in actor memory."""

    def __init__(
        self,
        shard_id: int,
        capacity: int = 1 << 20,
        ram_cap: int | None = None,
        spill_dir: str | None = None,
    ):
        self.shard_id = shard_id
        self.exact: dict[int, tuple[int, int]] = {}  # unconsolidated tail
        self.filter = CuckooFilter(capacity)
        self.pending: dict[int, int] = {}  # this round: key -> min seq
        # (key, surrogate, first_seq) stored since the last snapshot —
        # the payload of a DELTA snapshot (O(round), not O(total))
        self._delta: list[tuple[int, int, int]] = []
        self._runs: list[_Run] = []  # oldest → newest
        if ram_cap is not None and spill_dir is None:
            raise ValueError("ram_cap requires spill_dir")
        self.ram_cap = ram_cap
        self.spill_dir = spill_dir
        self._spill_seq = 0
        # the tail must consolidate before it alone can exceed ram_cap
        self._tail_max = min(_TAIL_MAX, ram_cap) if ram_cap else _TAIL_MAX

    # -- committed-tier internals ------------------------------------

    def _in_runs(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership of ``keys`` in the sorted runs."""
        out = np.zeros(len(keys), dtype=bool)
        for run in self._runs:
            rk = run.keys
            if not len(rk):
                continue
            pos = np.clip(np.searchsorted(rk, keys), 0, len(rk) - 1)
            out |= rk[pos] == keys
        return out

    def _committed_mask(self, keys: np.ndarray) -> np.ndarray:
        """True where ``keys[i]`` is committed-seen (runs OR tail)."""
        mask = self._in_runs(keys)
        exact = self.exact
        if exact:
            for i in np.flatnonzero(~mask):
                if int(keys[i]) in exact:
                    mask[i] = True
        return mask

    def _consolidate_tail(self) -> None:
        """Fold the tail dict into a sorted RAM run; merge RAM runs
        when too many accumulate; spill past ``ram_cap``. Runs never
        contain duplicate keys across each other (commit filters
        already-committed keys before assignment), but lookup/dump
        resolve newest-run-wins anyway, matching dict.update."""
        n = len(self.exact)
        if n:
            keys = np.fromiter(self.exact.keys(), np.int64, n)
            vals = np.array(list(self.exact.values()), np.int64).reshape(-1, 2)
            order = np.argsort(keys, kind="stable")
            self._runs.append(
                _Run(keys[order], vals[order, 0].copy(), vals[order, 1].copy())
            )
            self.exact = {}
        ram_runs = [r for r in self._runs if r.path is None]
        if len(ram_runs) > _RAM_RUN_MAX:
            merged_keys = np.concatenate([r.keys for r in ram_runs])
            merged_sur = np.concatenate([r.surrogates for r in ram_runs])
            merged_seq = np.concatenate([r.first_seqs for r in ram_runs])
            order = np.argsort(merged_keys, kind="stable")
            merged = _Run(merged_keys[order], merged_sur[order], merged_seq[order])
            self._runs = [r for r in self._runs if r.path is not None] + [merged]
            ram_runs = [merged]
        if self.ram_cap is not None:
            while sum(len(r) for r in ram_runs) > self.ram_cap and ram_runs:
                victim = max(ram_runs, key=len)
                self._spill_run(victim)
                ram_runs.remove(victim)

    def _spill_run(self, run: _Run) -> None:
        """Write one RAM run to disk as three ``.npy`` files and swap
        its arrays for read-only memmaps (RAM freed; probes hit the
        page cache)."""
        os.makedirs(self.spill_dir, exist_ok=True)
        prefix = os.path.join(
            self.spill_dir, f"shard{self.shard_id}_run{self._spill_seq}"
        )
        self._spill_seq += 1
        for name, arr in (
            ("keys", run.keys),
            ("sur", run.surrogates),
            ("seq", run.first_seqs),
        ):
            tmp = f"{prefix}_{name}.tmp.npy"  # .npy suffix: np.save
            np.save(tmp, np.ascontiguousarray(arr))  # won't re-append
            os.replace(tmp, f"{prefix}_{name}.npy")
        run.keys = np.load(f"{prefix}_keys.npy", mmap_mode="r")
        run.surrogates = np.load(f"{prefix}_sur.npy", mmap_mode="r")
        run.first_seqs = np.load(f"{prefix}_seq.npy", mmap_mode="r")
        run.path = prefix

    def _filter_add(self, keys: np.ndarray) -> None:
        """Add never-committed ``keys`` to the prefilter. On overflow,
        rebuild it at double the buckets from the exact committed keys
        plus ``keys``: the capacity is a starting size, not a limit,
        and a no-false-negative filter's size never changes a result."""
        try:
            self.filter.add(keys)
        except RuntimeError:
            self.filter = self.filter.doubled(
                np.concatenate([self._all_committed()[0], keys])
            )

    def _store_committed(self, kl, gl, sl) -> None:
        """Append committed entries to the tail; consolidate past the
        tail bound (append + periodic merge — assign-time cost is
        amortized O(1) per key)."""
        self.exact.update(zip(kl, zip(gl, sl)))  # C-level bulk store
        self._delta.extend(zip(kl, gl, sl))
        if len(self.exact) >= self._tail_max:
            self._consolidate_tail()

    def offer(self, keys: np.ndarray, seqs: np.ndarray) -> np.ndarray:
        """Mark candidate (key, seq) pairs; returns a bool mask of keys
        NOT yet committed-seen (i.e. candidates for the next round).
        Within-round duplicates all return True — the round barrier
        (commit_round) resolves the min-seq winner."""
        keys = np.asarray(keys, dtype=np.int64)
        seqs = np.asarray(seqs, dtype=np.int64)
        maybe_seen = self.filter.contains(keys)
        fresh = np.ones(len(keys), dtype=bool)
        pos_idx = np.flatnonzero(maybe_seen)
        if len(pos_idx):
            fresh[pos_idx] = ~self._committed_mask(keys[pos_idx])
        idx = np.flatnonzero(fresh)
        if len(idx):
            # within-call min-seq per key VECTORIZED (lexsort + first
            # occurrence), then one bulk dict update; the per-key
            # prev-min comparison only runs when pending already holds
            # entries (a second offer within the same round)
            k, s = keys[idx], seqs[idx]
            order = np.lexsort((s, k))
            k, s = k[order], s[order]
            first = np.concatenate([[True], k[1:] != k[:-1]])
            k, s = k[first], s[first]
            pend = self.pending
            if pend:
                for kk, ss in zip(k.tolist(), s.tolist()):
                    prev = pend.get(kk)
                    if prev is None or ss < prev:
                        pend[kk] = ss
            else:
                pend.update(zip(k.tolist(), s.tolist()))
        return fresh

    def commit_round(self) -> tuple[np.ndarray, np.ndarray]:
        """Round barrier step 1: return this shard's NEW (keys,
        first_seqs) (keys never committed before), clearing the pending
        set. numpy, not Arrow: an actor that returns an Arrow table
        imports ray.data and pandas for it, about 1 s on a 1-CPU host."""
        n = len(self.pending)
        keys = np.fromiter(self.pending.keys(), np.int64, n)
        seqs = np.fromiter(self.pending.values(), np.int64, n)
        self.pending = {}
        if n:
            mask = ~self._committed_mask(keys)
            keys, seqs = keys[mask], seqs[mask]
        return keys, seqs

    def assign(self, keys: np.ndarray, surrogates: np.ndarray, first_seqs: np.ndarray) -> int:
        """Round barrier step 2: store driver-assigned dense surrogates."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys):
            self._filter_add(keys)
            self._store_committed(
                keys.tolist(),
                np.asarray(surrogates).tolist(),
                np.asarray(first_seqs).tolist(),
            )
        return self.size()

    def assign_block(self, table: pa.Table, num_shards: int) -> int:
        """Bulk-load pre-assigned rows from a shared Dataset block: keep
        only this shard's keys (``key % num_shards == shard_id``) and
        store them. Used by the distributed bootstrap and admission —
        the block lives once in the object store and every
        shard filters its own slice, so no per-shard routing ever
        touches the driver."""
        table = _as_arrow_block(table)
        if table.num_rows == 0 or "key" not in table.column_names:
            return self.size()  # sort/shuffle ops emit schemaless empties
        keys = table["key"].to_numpy()
        mask = (keys % num_shards) == self.shard_id
        sel = np.flatnonzero(mask)
        if len(sel):
            self._filter_add(keys[sel])
            self._store_committed(
                keys[sel].tolist(),
                table["surrogate"].to_numpy()[sel].tolist(),
                table["seq"].to_numpy()[sel].tolist(),
            )
        return self.size()

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """surrogate per key, -1 if unseen. Tail probe first (newest
        wins), then vectorized run probes newest → oldest."""
        keys = np.asarray(keys, dtype=np.int64)
        out = np.full(len(keys), -1, dtype=np.int64)
        resolved = np.zeros(len(keys), dtype=bool)
        exact = self.exact
        if exact:
            for i, k in enumerate(keys.tolist()):
                hit = exact.get(k)
                if hit is not None:
                    out[i] = hit[0]
                    resolved[i] = True
        for run in reversed(self._runs):
            todo = np.flatnonzero(~resolved)
            if not len(todo) or not len(run.keys):
                continue
            pos = np.clip(np.searchsorted(run.keys, keys[todo]), 0,
                          len(run.keys) - 1)
            hit = run.keys[pos] == keys[todo]
            out[todo[hit]] = run.surrogates[pos[hit]]
            resolved[todo[hit]] = True
        return out

    def filter_unseen_block(self, table: pa.Table, num_shards: int) -> pa.Table:
        """Shard-parallel anti-filter for the distributed link
        admission: from a shared candidate block (one object-store copy,
        every shard reads it), return THIS shard's rows (``key %
        num_shards == shard_id``) whose key is not committed-seen.
        Driver traffic is O(num_blocks) refs; the concatenation of all
        shards' outputs over all blocks is exactly the unseen candidate
        set."""
        table = _as_arrow_block(table)
        if table.num_rows == 0 or "key" not in table.column_names:
            return table  # schemaless empty block: nothing to filter
        keys = table["key"].to_numpy()
        mine = np.flatnonzero((keys % num_shards) == self.shard_id)
        if len(mine) == 0:
            return table.take(pa.array(mine, pa.int64()))
        # cuckoo prefilter (no false negatives, same pattern as
        # ``offer``): filter-POSITIVE rows resolve through the
        # vectorized run probes + bounded tail — a steady-state crawl
        # (mostly-seen candidates) no longer degenerates to a per-key
        # Python dict loop
        maybe = self.filter.contains(keys[mine])
        unseen_mask = ~maybe
        pos = np.flatnonzero(maybe)
        if len(pos):
            unseen_mask[pos] = ~self._committed_mask(keys[mine[pos]])
        unseen = mine[unseen_mask]
        return table.take(pa.array(unseen, pa.int64()))

    def snapshot(self, path: str, mode: str = "full") -> dict:
        """``full`` writes the whole shard state (O(total keys));
        ``delta`` writes only the entries stored since the LAST snapshot
        of either kind (O(round's novelty)) — the per-round scale path
        at 10^10 keys. Both clear the delta buffer. Returns the tier
        sizes at the cut (:meth:`tiers`)."""
        tmp = path + ".tmp"
        if mode == "delta":
            d = np.array(self._delta, dtype=np.int64).reshape(-1, 3)
            np.savez(
                tmp,
                delta_keys=d[:, 0],
                delta_surrogates=d[:, 1],
                delta_first_seqs=d[:, 2],
            )
        else:
            keys, sur, seq = self._all_committed()
            # uncompressed: snapshots happen EVERY round; compression cost
            # grows with the seen set while the write stays page-cache fast
            np.savez(
                tmp,
                keys=keys,
                surrogates=sur,
                first_seqs=seq,
                filter_table=self.filter.table,
                filter_count=self.filter.count,
                filter_slots=self.filter.slots,
            )
        os.replace(tmp + ".npz", path)
        self._delta = []
        return self.tiers()

    def tiers(self) -> dict:
        """Committed entries per tier (dict tail, RAM-run rows, disk-run
        rows), the disk-run count and the prefilter's bucket count."""
        disk = [len(r) for r in self._runs if r.path is not None]
        return {
            "tail": len(self.exact),
            "ram_rows": sum(len(r) for r in self._runs if r.path is None),
            "disk_rows": sum(disk),
            "disk_runs": len(disk),
            "filter_buckets": self.filter.nbuckets,
        }

    def restore(self, path: str) -> int:
        st = np.load(path)
        keys = st["keys"].astype(np.int64, copy=False)
        order = np.argsort(keys, kind="stable")
        # restore into ONE sorted run, not a dict: a 10^10-key shard
        # must come back as probe-able arrays, never Python objects
        self._runs = [
            _Run(
                keys[order],
                st["surrogates"].astype(np.int64, copy=False)[order],
                st["first_seqs"].astype(np.int64, copy=False)[order],
            )
        ]
        self.exact = {}
        self.filter = CuckooFilter.from_state(
            {
                "table": st["filter_table"],
                "count": int(st["filter_count"]),
                "slots": int(st["filter_slots"]),
            }
        )
        self.pending = {}
        self._delta = []
        self._consolidate_tail()  # apply the ram_cap spill policy
        return self.size()

    def apply_delta(self, path: str) -> int:
        """Replay one delta snapshot on top of the current state (chain
        restore: full base + deltas in round order). The cuckoo filter
        is rebuilt incrementally by re-adding the delta keys. The
        replayed entries do NOT re-enter the delta buffer — they came
        from a durable snapshot already."""
        st = np.load(path)
        keys = st["delta_keys"]
        if len(keys):
            self._filter_add(keys.astype(np.int64))
            self.exact.update(
                zip(
                    keys.tolist(),
                    zip(
                        st["delta_surrogates"].tolist(),
                        st["delta_first_seqs"].tolist(),
                    ),
                )
            )
            if len(self.exact) >= self._tail_max:
                self._consolidate_tail()
        return self.size()

    def size(self) -> int:
        return len(self.exact) + sum(len(r) for r in self._runs)

    def _all_committed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, surrogates, first_seqs) across tail + runs, newest
        occurrence winning on (never-expected) duplicates — the
        dict.update semantics the single-tier store had."""
        parts_k, parts_s, parts_q = [], [], []
        for run in self._runs:
            parts_k.append(np.asarray(run.keys))
            parts_s.append(np.asarray(run.surrogates))
            parts_q.append(np.asarray(run.first_seqs))
        n = len(self.exact)
        if n:
            parts_k.append(np.fromiter(self.exact.keys(), np.int64, n))
            vals = np.array(list(self.exact.values()), np.int64).reshape(-1, 2)
            parts_s.append(vals[:, 0])
            parts_q.append(vals[:, 1])
        if not parts_k:
            z = np.zeros(0, np.int64)
            return z, z, z
        keys = np.concatenate(parts_k)
        sur = np.concatenate(parts_s)
        seq = np.concatenate(parts_q)
        uniq, idx = np.unique(keys[::-1], return_index=True)
        if len(uniq) != len(keys):  # newest-wins dedup, rare path
            take = len(keys) - 1 - idx
            keys, sur, seq = keys[take], sur[take], seq[take]
        return keys, sur, seq

    def dump(self) -> pa.Table:
        """(key, surrogate, first_seq) for this shard."""
        keys, sur, seq = self._all_committed()
        return pa.table(
            {
                "key": pa.array(keys),
                "surrogate": pa.array(sur),
                "first_seq": pa.array(seq),
            }
        )


class ShardedSeenSet:
    """Driver-side handle over the shard actor pool."""

    def __init__(
        self,
        num_shards: int = 8,
        capacity_per_shard: int = 1 << 20,
        ram_cap_per_shard: int | None = None,
        spill_dir: str | None = None,
    ):
        self.num_shards = num_shards
        self.shards = [
            SeenSetShard.remote(i, capacity_per_shard, ram_cap_per_shard, spill_dir)
            for i in range(num_shards)
        ]
        self.next_surrogate = 1

    def offer_batch(self, keys: np.ndarray, seqs: np.ndarray) -> np.ndarray:
        """Route one batch through the shards; bool mask of fresh keys.
        Called from inside map_batches tasks (actor handles serialize)."""
        keys = np.asarray(keys, dtype=np.int64)
        seqs = np.asarray(seqs, dtype=np.int64)
        shard_ids = keys % self.num_shards
        mask = np.zeros(len(keys), dtype=bool)
        futures, idxs = [], []
        for sid in np.unique(shard_ids):
            sel = np.flatnonzero(shard_ids == sid)
            futures.append(self.shards[int(sid)].offer.remote(keys[sel], seqs[sel]))
            idxs.append(sel)
        for sel, res in zip(idxs, ray.get(futures)):
            mask[sel] = res
        return mask

    def commit_round(self) -> pa.Table:
        """Resolve the round: gather new keys from all shards, assign
        dense surrogates in first_seq order, push assignments back.
        Returns (key, first_seq, surrogate) for the round's new keys.
        Driver-side by design: every caller offers at most a driver-
        sized round (the crawl's distributed stages bulk-load the
        shards with :meth:`load_assigned_blocks` instead)."""
        parts = ray.get([s.commit_round.remote() for s in self.shards])
        keys = np.concatenate([k for k, _ in parts])
        seqs = np.concatenate([q for _, q in parts])
        order = np.argsort(seqs, kind="stable")
        keys, seqs = keys[order], seqs[order]
        surrogates = np.arange(
            self.next_surrogate, self.next_surrogate + len(keys), dtype=np.int64
        )
        self.next_surrogate += len(keys)
        shard_ids = keys % self.num_shards
        futs = []
        for sid in np.unique(shard_ids):
            sel = np.flatnonzero(shard_ids == sid)
            futs.append(
                self.shards[int(sid)].assign.remote(keys[sel], surrogates[sel], seqs[sel])
            )
        ray.get(futs)
        return pa.table(
            {
                "key": pa.array(keys),
                "first_seq": pa.array(seqs),
                "surrogate": pa.array(surrogates),
            }
        )

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        shard_ids = keys % self.num_shards
        out = np.full(len(keys), -1, dtype=np.int64)
        futures, idxs = [], []
        for sid in np.unique(shard_ids):
            sel = np.flatnonzero(shard_ids == sid)
            futures.append(self.shards[int(sid)].lookup.remote(keys[sel]))
            idxs.append(sel)
        for sel, res in zip(idxs, ray.get(futures)):
            out[sel] = res
        return out

    def filter_unseen_refs(self, refs: list) -> list:
        """Distributed anti-filter over Arrow block refs: every shard
        actor extracts its own not-yet-committed rows from each shared
        block (``filter_unseen_block``). Returns the refs of the unseen
        rows — no driver materialization, O(blocks × shards) small
        tasks."""
        return [
            shard.filter_unseen_block.remote(ref, self.num_shards)
            for ref in refs
            for shard in self.shards
        ]

    def load_assigned_blocks(self, refs: list) -> None:
        """Bulk-commit pre-assigned (key, surrogate, seq) rows from
        Arrow block refs: every shard filters each shared block for its
        own keys (``assign_block``). Used by the distributed bootstrap
        and link admission."""
        ray.get(
            [
                shard.assign_block.remote(ref, self.num_shards)
                for ref in refs
                for shard in self.shards
            ]
        )

    def snapshot_async(self, dir_path: str, mode: str = "full") -> list:
        """Submit the per-shard snapshot writes and return their
        futures WITHOUT blocking. Per-actor message ordering makes the
        snapshot a consistent post-round cut even while the next
        round's ``offer`` calls queue behind it; the caller must
        ``ray.get`` the futures before treating the round as durable
        (a half-written snapshot can only belong to an uncommitted
        round, which is never restored).

        ``mode="delta"`` writes only each shard's additions since its
        previous snapshot — O(round) IO instead of O(total seen);
        restore then needs the chain back to the last full snapshot
        (``restore_chain``). The crawl takes a full snapshot every
        ``snapshot_full_every`` rounds and deltas between."""
        os.makedirs(dir_path, exist_ok=True)
        futs = [
            s.snapshot.remote(os.path.join(dir_path, f"shard_{i}.npz"), mode)
            for i, s in enumerate(self.shards)
        ]
        tmp = os.path.join(dir_path, "_meta.tmp")
        with open(tmp, "w") as fh:
            fh.write(f"{self.next_surrogate}\n{mode}")
        os.replace(tmp, os.path.join(dir_path, "_meta"))
        return futs

    def snapshot(self, dir_path: str, mode: str = "full") -> None:
        ray.get(self.snapshot_async(dir_path, mode))

    def _read_meta(self, dir_path: str) -> int:
        with open(os.path.join(dir_path, "_meta")) as fh:
            return int(fh.read().split()[0])

    def restore(self, dir_path: str) -> None:
        ray.get(
            [
                s.restore.remote(os.path.join(dir_path, f"shard_{i}.npz"))
                for i, s in enumerate(self.shards)
            ]
        )
        self.next_surrogate = self._read_meta(dir_path)

    def restore_chain(self, dirs: list[str]) -> None:
        """Restore from a FULL snapshot followed by its delta snapshots
        in round order; ``next_surrogate`` comes from the last link."""
        self.restore(dirs[0])
        for d in dirs[1:]:
            ray.get(
                [
                    s.apply_delta.remote(os.path.join(d, f"shard_{i}.npz"))
                    for i, s in enumerate(self.shards)
                ]
            )
        self.next_surrogate = self._read_meta(dirs[-1])

    def to_table(self) -> pa.Table:
        """Full (key, surrogate, first_seq) table, sorted by surrogate.
        Test/summary scale only (materializes every shard)."""
        t = pa.concat_tables(ray.get([s.dump.remote() for s in self.shards]))
        return t.sort_by("surrogate")
