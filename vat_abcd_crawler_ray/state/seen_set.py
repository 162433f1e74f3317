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
  N shards (shard = ``key % num_shards``), each holding a cuckoo
  prefilter (state/cuckoo.py) + a TIERED exact ``key → (surrogate,
  first_seq)`` store (bounded tail → sorted RAM runs → memmapped
  disk runs past ``ram_cap``). Links discovered mid-round are filtered
  through ``offer`` (batched calls from the driver); at the round
  barrier ``commit_round`` resolves min-seq winners and assigns dense
  surrogates in (round, first_seq) order — reproducing the sequential
  crawl's first-seen ordering. Shards snapshot per round for
  kill/resume (the reference rebuilds from scratch,
  ``database_sink.rs:91-101``; at 10^10 we must not).

N comes from the cluster (:func:`seen_shard_count`: one shard per CPU,
at most 8) unless pinned, and :func:`seen_placement` puts the shards
from N: one shard is a plain object in the driver, more are actors.
Surrogates are assigned globally, so N never changes a result; a
shard's prefilter doubles on overflow, so N does not bound the key
count either. A snapshot chain restores only into a pool of the N it
was written with (the crawl records N per round), under either
placement: both write the same files.
"""

from __future__ import annotations

import functools
import os
import zipfile

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


# Consolidate the tail into a RAM run past this size: the tail is
# re-sorted at the first probe after each store, so it stays small.
_TAIL_MAX = 1 << 16
# Merge RAM runs down to one when this many accumulate (amortized
# O(n log n) concatenate+argsort, keeps the per-probe run count small).
_RAM_RUN_MAX = 6


# auto shard count ceiling: the 8-actor layout the 32-CPU scaling runs use
MAX_AUTO_SEEN_SHARDS = 8


def seen_shard_count(num_seen_shards: int, cpus: int | None = None) -> int:
    """The shard count a crawl runs with: ``num_seen_shards > 0`` pins
    it; 0 means one shard per cluster CPU (``cpus``, read from Ray when
    omitted), capped at :data:`MAX_AUTO_SEEN_SHARDS`. Above one shard
    each is an actor (:func:`seen_placement`) the crawl waits for at its
    first seen-set call; the shard count is never a key ceiling
    (filters grow)."""
    if num_seen_shards > 0:
        return num_seen_shards
    if cpus is None:
        cpus = int(ray.cluster_resources().get("CPU", 1))
    return max(1, min(cpus, MAX_AUTO_SEEN_SHARDS))


def seen_placement(num_shards: int) -> str:
    """Where a pool of ``num_shards`` seen-set shards lives: ``"driver"``
    (plain objects called directly) for one shard, ``"actors"`` above.
    One shard's state fits in the driver, and an actor's start-up
    (about 1 s on a 1-CPU host) would be the largest cost of a small
    crawl; several shards are actors so their work spreads over the
    cluster. :class:`ShardedSeenSet` reads the rule here, so tests force
    a placement by monkeypatching this one function."""
    return "driver" if num_shards == 1 else "actors"


@functools.cache
def _shard_actor():
    # num_cpus=0: shard actors are memory-bound state holders that must
    # not reserve data-plane CPUs (a pool of them would otherwise starve
    # the map_batches stages on small clusters — observed deadlock at
    # num_cpus=4)
    return ray.remote(num_cpus=0)(SeenSetShard)


def _write_npz(path: str, arrays: dict) -> None:
    """``np.savez`` (uncompressed) without its copy: each array goes
    into the stored zip member as a ``.npy`` header and then its own
    buffer, where ``np.savez`` first copies it to bytes. Same file
    format, so ``np.load`` reads either."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, arr in arrays.items():
            arr = np.asarray(arr)  # keeps 0-d (ascontiguousarray would not)
            if not arr.flags.c_contiguous:
                arr = arr.copy(order="C")
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(
                    fh, np.lib.format.header_data_from_array_1_0(arr)
                )
                fh.write(memoryview(arr.reshape(-1)))


def _newest_wins(keys, surrogates, first_seqs) -> _Run:
    """A sorted run of the entries, the last occurrence of a repeated
    key winning (the ``dict.update`` order)."""
    uniq, idx = np.unique(keys[::-1], return_index=True)
    take = len(keys) - 1 - idx
    return _Run(uniq, surrogates[take], first_seqs[take])


class SeenSetShard:
    """One shard of the seen set: a plain class that
    :class:`ShardedSeenSet` holds in the driver or runs as an actor
    (:func:`seen_placement`). All methods take/return numpy or Arrow
    (zero pickling of Python row objects).

    Committed state is TIERED (the 10^10-key design the cuckoo module
    promises): a bounded tail holds the entries committed since the
    last consolidation, as the stored array chunks plus one sorted run
    of them built at the first probe after a store; everything older
    lives in sorted ``(key, surrogate, first_seq)`` runs — RAM ndarrays
    first, spilled to disk as memmapped ``.npy`` runs once RAM-resident
    entries exceed ``ram_cap``. Membership and lookup are a cuckoo
    prefilter, then a vectorized ``searchsorted`` over the tail and the
    runs — so neither a steady-state crawl (mostly-seen candidates) nor
    a 10^10-key shard ever walks keys one by one or holds them all in
    memory, and the state is arrays, not one Python object per key."""

    def __init__(
        self,
        shard_id: int,
        capacity: int = 1 << 20,
        ram_cap: int | None = None,
        spill_dir: str | None = None,
    ):
        self.shard_id = shard_id
        self._clear_tail()
        self.filter = CuckooFilter(capacity)
        # this round's fresh offered (keys, seqs) chunks; commit_round
        # resolves each key's min seq
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        # (keys, surrogates, first_seqs) array chunks stored since the
        # last snapshot — the payload of a DELTA snapshot (O(round), not
        # O(total))
        self._delta: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._runs: list[_Run] = []  # oldest → newest
        if ram_cap is not None and spill_dir is None:
            raise ValueError("ram_cap requires spill_dir")
        self.ram_cap = ram_cap
        self.spill_dir = spill_dir
        self._spill_seq = 0
        # the tail must consolidate before it alone can exceed ram_cap
        self._tail_max = min(_TAIL_MAX, ram_cap) if ram_cap else _TAIL_MAX

    # -- committed-tier internals ------------------------------------

    def _clear_tail(self) -> None:
        # (keys, surrogates, first_seqs) chunks committed since the last
        # consolidation, their entry count, and their sorted run
        # (None until the first probe after a store)
        self._tail: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._tail_len = 0
        self._tail_run: _Run | None = None

    def _sorted_tail(self) -> _Run | None:
        """The tail as one sorted run, built at the first probe after a
        store; the chunks collapse into it, so the next build sorts one
        sorted chunk plus the new ones."""
        if self._tail_run is None and self._tail:
            run = _newest_wins(*(np.concatenate(c) for c in zip(*self._tail)))
            self._tail = [(run.keys, run.surrogates, run.first_seqs)]
            self._tail_len = len(run)
            self._tail_run = run
        return self._tail_run

    def _probe_runs(self) -> list[_Run]:
        """Every committed run, newest first: the tail, then the runs."""
        tail = self._sorted_tail()
        return ([tail] if tail is not None else []) + self._runs[::-1]

    def _committed_mask(self, keys: np.ndarray) -> np.ndarray:
        """True where ``keys[i]`` is committed-seen (tail or runs)."""
        out = np.zeros(len(keys), dtype=bool)
        for run in self._probe_runs():
            rk = run.keys
            if not len(rk):
                continue
            pos = np.clip(np.searchsorted(rk, keys), 0, len(rk) - 1)
            out |= rk[pos] == keys
        return out

    def _consolidate_tail(self) -> None:
        """Move the sorted tail into the RAM runs; merge RAM runs
        when too many accumulate; spill past ``ram_cap``. Runs never
        contain duplicate keys across each other (commit filters
        already-committed keys before assignment), but lookup/dump
        resolve newest-run-wins anyway, matching dict.update."""
        tail = self._sorted_tail()
        if tail is not None:
            self._runs.append(tail)
            self._clear_tail()
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

    def _store_committed(
        self,
        keys: np.ndarray,
        surrogates: np.ndarray,
        first_seqs: np.ndarray,
        log_delta: bool = True,
    ) -> None:
        """Append committed int64 entries to the tail and (unless they
        are replayed from a snapshot) the delta buffer; consolidate past
        the tail bound (append + periodic merge — store-time cost is
        amortized O(1) per key)."""
        self._tail.append((keys, surrogates, first_seqs))
        self._tail_len += len(keys)
        self._tail_run = None
        if log_delta:
            self._delta.append((keys, surrogates, first_seqs))
        if self._tail_len >= self._tail_max:
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
            self._pending.append((keys[idx], seqs[idx]))
        return fresh

    def commit_round(self) -> tuple[np.ndarray, np.ndarray]:
        """Round barrier step 1: return this shard's NEW (keys,
        first_seqs) (keys never committed before), clearing the pending
        set; keys come out ascending, each with its min offered seq.
        numpy, not Arrow: an actor that returns an Arrow table imports
        ray.data and pandas for it, about 1 s on a 1-CPU host."""
        if not self._pending:
            z = np.zeros(0, np.int64)
            return z, z
        keys = np.concatenate([k for k, _ in self._pending])
        seqs = np.concatenate([q for _, q in self._pending])
        self._pending = []
        order = np.lexsort((seqs, keys))  # by key, then seq
        keys, seqs = keys[order], seqs[order]
        first = np.concatenate([[True], keys[1:] != keys[:-1]])
        keys, seqs = keys[first], seqs[first]
        mask = ~self._committed_mask(keys)
        return keys[mask], seqs[mask]

    def assign(self, keys: np.ndarray, surrogates: np.ndarray, first_seqs: np.ndarray) -> int:
        """Round barrier step 2: store driver-assigned dense surrogates."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys):
            self._filter_add(keys)
            self._store_committed(
                keys,
                np.asarray(surrogates, dtype=np.int64),
                np.asarray(first_seqs, dtype=np.int64),
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
                keys[sel].astype(np.int64, copy=False),
                table["surrogate"].to_numpy()[sel].astype(np.int64, copy=False),
                table["seq"].to_numpy()[sel].astype(np.int64, copy=False),
            )
        return self.size()

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """surrogate per key, -1 if unseen: vectorized probes of the
        tail, then the runs newest → oldest (newest wins)."""
        keys = np.asarray(keys, dtype=np.int64)
        out = np.full(len(keys), -1, dtype=np.int64)
        resolved = np.zeros(len(keys), dtype=bool)
        for run in self._probe_runs():
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
        # uncompressed: snapshots happen EVERY round; compression cost
        # grows with the seen set while the write stays page-cache fast
        if mode == "delta":
            cols = (
                [np.concatenate(c) for c in zip(*self._delta)]
                if self._delta
                else [np.zeros(0, np.int64)] * 3
            )
            _write_npz(
                tmp,
                dict(zip(("delta_keys", "delta_surrogates", "delta_first_seqs"), cols)),
            )
        else:
            keys, sur, seq = self._all_committed()
            _write_npz(
                tmp,
                {
                    "keys": keys,
                    "surrogates": sur,
                    "first_seqs": seq,
                    "filter_table": self.filter.table,
                    "filter_count": np.int64(self.filter.count),
                    "filter_slots": np.int64(self.filter.slots),
                },
            )
        os.replace(tmp, path)
        self._delta = []
        return self.tiers()

    def tiers(self) -> dict:
        """Committed entries per tier (tail, RAM-run rows, disk-run
        rows), the disk-run count and the prefilter's bucket count."""
        disk = [len(r) for r in self._runs if r.path is not None]
        return {
            "tail": self._tail_len,
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
        self._clear_tail()
        self.filter = CuckooFilter.from_state(
            {
                "table": st["filter_table"],
                "count": int(st["filter_count"]),
                "slots": int(st["filter_slots"]),
            }
        )
        self._pending = []
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
        keys = st["delta_keys"].astype(np.int64, copy=False)
        if len(keys):
            self._filter_add(keys)
            self._store_committed(
                keys,
                st["delta_surrogates"].astype(np.int64, copy=False),
                st["delta_first_seqs"].astype(np.int64, copy=False),
                log_delta=False,
            )
        return self.size()

    def size(self) -> int:
        """Committed entries (no key is stored twice: commit filters
        committed keys before assignment)."""
        return self._tail_len + sum(len(r) for r in self._runs)

    def _all_committed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, surrogates, first_seqs) across runs + tail, ascending
        by key, newest occurrence winning on (never-expected)
        duplicates — the dict.update semantics the single-tier store
        had."""
        parts = [
            (np.asarray(r.keys), np.asarray(r.surrogates), np.asarray(r.first_seqs))
            for r in self._runs
        ] + self._tail
        if not parts:
            z = np.zeros(0, np.int64)
            return z, z, z
        run = _newest_wins(*(np.concatenate(c) for c in zip(*parts)))
        return run.keys, run.surrogates, run.first_seqs

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


class PendingSnapshot:
    """A seen-set snapshot as :meth:`ShardedSeenSet.snapshot_async`
    returns it: still being written by the shard actors, or already
    written by the driver-held shards. ``wait()`` returns once every
    shard file is written, with each shard's tier sizes at the cut."""

    def __init__(self, futs: list | None = None, tiers: list | None = None):
        self._futs = futs
        self._tiers = tiers

    def wait(self) -> list[dict]:
        if self._tiers is None:
            self._tiers = ray.get(self._futs)
        return self._tiers


class ShardedSeenSet:
    """Driver-side handle over the shards, held where
    :func:`seen_placement` puts them: plain :class:`SeenSetShard`
    objects in the driver, or ``num_cpus=0`` actors. Every method has the
    same result and writes the same snapshot files under both
    placements."""

    def __init__(
        self,
        num_shards: int = 8,
        capacity_per_shard: int = 1 << 20,
        ram_cap_per_shard: int | None = None,
        spill_dir: str | None = None,
    ):
        self.num_shards = num_shards
        self.placement = seen_placement(num_shards)
        shard = SeenSetShard if self.placement == "driver" else _shard_actor().remote
        self.shards = [
            shard(i, capacity_per_shard, ram_cap_per_shard, spill_dir)
            for i in range(num_shards)
        ]
        self.next_surrogate = 1

    def _call(self, method: str, calls: list) -> list:
        """``shards[i].method(*args)`` for each ``(i, args)`` in
        ``calls``, results in order: direct calls in the driver, or one
        actor call each, joined by one ``ray.get``."""
        if self.placement == "driver":
            return [getattr(self.shards[i], method)(*args) for i, args in calls]
        return ray.get(
            [getattr(self.shards[i], method).remote(*args) for i, args in calls]
        )

    def _each(self, method: str, *args) -> list:
        """``method(*args)`` on every shard, results in shard order."""
        return self._call(method, [(i, args) for i in range(self.num_shards)])

    def _route(self, keys: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """``(shard id, row indices)`` per shard that owns some of
        ``keys`` (shard = ``key % num_shards``)."""
        shard_ids = keys % self.num_shards
        return [
            (int(sid), np.flatnonzero(shard_ids == sid)) for sid in np.unique(shard_ids)
        ]

    def offer_batch(self, keys: np.ndarray, seqs: np.ndarray) -> np.ndarray:
        """Route one batch through the shards; bool mask of fresh keys.
        Called by the driver: the seed bootstrap and the driver link
        admission."""
        keys = np.asarray(keys, dtype=np.int64)
        seqs = np.asarray(seqs, dtype=np.int64)
        routes = self._route(keys)
        res = self._call("offer", [(sid, (keys[sel], seqs[sel])) for sid, sel in routes])
        mask = np.zeros(len(keys), dtype=bool)
        for (_sid, sel), fresh in zip(routes, res):
            mask[sel] = fresh
        return mask

    def commit_round(self) -> pa.Table:
        """Resolve the round: gather new keys from all shards, assign
        dense surrogates in first_seq order, push assignments back.
        Returns (key, first_seq, surrogate) for the round's new keys.
        Driver-side by design: every caller offers at most a driver-
        sized round (the crawl's distributed stages bulk-load the
        shards with :meth:`load_assigned_blocks` instead)."""
        parts = self._each("commit_round")
        keys = np.concatenate([k for k, _ in parts])
        seqs = np.concatenate([q for _, q in parts])
        order = np.argsort(seqs, kind="stable")
        keys, seqs = keys[order], seqs[order]
        surrogates = np.arange(
            self.next_surrogate, self.next_surrogate + len(keys), dtype=np.int64
        )
        self.next_surrogate += len(keys)
        self._call(
            "assign",
            [
                (sid, (keys[sel], surrogates[sel], seqs[sel]))
                for sid, sel in self._route(keys)
            ],
        )
        return pa.table(
            {
                "key": pa.array(keys),
                "first_seq": pa.array(seqs),
                "surrogate": pa.array(surrogates),
            }
        )

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        routes = self._route(keys)
        res = self._call("lookup", [(sid, (keys[sel],)) for sid, sel in routes])
        out = np.full(len(keys), -1, dtype=np.int64)
        for (_sid, sel), sur in zip(routes, res):
            out[sel] = sur
        return out

    def filter_unseen_refs(self, refs: list) -> list:
        """Anti-filter over Arrow block refs: every shard extracts its
        own not-yet-committed rows from each shared block
        (``filter_unseen_block``). Returns the refs of the unseen rows,
        block-major. Actors read each block from the object store, so
        nothing passes through the driver; driver-held shards take one
        block at a time (``ray.get``, filter, ``ray.put``), so the driver
        holds one block. The crawl calls this only above its driver
        size gate (``DRIVER_ROWS_MAX``)."""
        if self.placement == "actors":
            return [
                shard.filter_unseen_block.remote(ref, self.num_shards)
                for ref in refs
                for shard in self.shards
            ]
        out = []
        for ref in refs:
            block = ray.get(ref)
            out.extend(
                ray.put(shard.filter_unseen_block(block, self.num_shards))
                for shard in self.shards
            )
        return out

    def load_assigned_blocks(self, refs: list) -> None:
        """Bulk-commit pre-assigned (key, surrogate, seq) rows from
        Arrow block refs: every shard filters each shared block for its
        own keys (``assign_block``). Driver-held shards take one block
        at a time (``ray.get``, then assign), so the driver holds one
        block. Used by the distributed bootstrap and link admission,
        which run only above the crawl's driver size gate
        (``DRIVER_ROWS_MAX``)."""
        if self.placement == "actors":
            ray.get(
                [
                    shard.assign_block.remote(ref, self.num_shards)
                    for ref in refs
                    for shard in self.shards
                ]
            )
            return
        for ref in refs:
            block = ray.get(ref)
            for shard in self.shards:
                shard.assign_block(block, self.num_shards)

    def snapshot_async(self, dir_path: str, mode: str = "full") -> PendingSnapshot:
        """Snapshot every shard to ``dir_path``. Actors write in the
        background: per-actor message ordering makes the snapshot a
        consistent post-round cut even while the next round's ``offer``
        calls queue behind it. Driver-held shards write before this
        returns. Either way the caller must ``wait()`` on the result
        before treating the round as durable (a half-written snapshot
        can only belong to an uncommitted round, which is never
        restored).

        ``mode="delta"`` writes only each shard's additions since its
        previous snapshot — O(round) IO instead of O(total seen);
        restore then needs the chain back to the last full snapshot
        (``restore_chain``). The crawl takes a full snapshot every
        ``snapshot_full_every`` rounds and deltas between."""
        os.makedirs(dir_path, exist_ok=True)
        calls = [
            (i, (os.path.join(dir_path, f"shard_{i}.npz"), mode))
            for i in range(self.num_shards)
        ]
        if self.placement == "driver":
            pending = PendingSnapshot(tiers=self._call("snapshot", calls))
        else:
            pending = PendingSnapshot(
                futs=[self.shards[i].snapshot.remote(*args) for i, args in calls]
            )
        tmp = os.path.join(dir_path, "_meta.tmp")
        with open(tmp, "w") as fh:
            fh.write(f"{self.next_surrogate}\n{mode}")
        os.replace(tmp, os.path.join(dir_path, "_meta"))
        return pending

    def snapshot(self, dir_path: str, mode: str = "full") -> None:
        self.snapshot_async(dir_path, mode).wait()

    def _read_meta(self, dir_path: str) -> int:
        with open(os.path.join(dir_path, "_meta")) as fh:
            return int(fh.read().split()[0])

    def _shard_files(self, dir_path: str) -> list:
        return [
            (i, (os.path.join(dir_path, f"shard_{i}.npz"),))
            for i in range(self.num_shards)
        ]

    def restore(self, dir_path: str) -> None:
        self._call("restore", self._shard_files(dir_path))
        self.next_surrogate = self._read_meta(dir_path)

    def restore_chain(self, dirs: list[str]) -> None:
        """Restore from a FULL snapshot followed by its delta snapshots
        in round order; ``next_surrogate`` comes from the last link."""
        self.restore(dirs[0])
        for d in dirs[1:]:
            self._call("apply_delta", self._shard_files(d))
        self.next_surrogate = self._read_meta(dirs[-1])

    def to_table(self) -> pa.Table:
        """Full (key, surrogate, first_seq) table, sorted by surrogate.
        Test/summary scale only (materializes every shard)."""
        return pa.concat_tables(self._each("dump")).sort_by("surrogate")
