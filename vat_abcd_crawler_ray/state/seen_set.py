"""URL-seen set — first-wins surrogate-key assignment (T1, SURVEY §2.3).

Reference semantics (``surrogate_key.rs:16-41``): a dense counter
starting at 1; the FIRST sight of an id allocates the next key, later
sights reuse it. The reference is single-threaded so "first" is
trivially arrival order; under parallelism we make it **min(seq)** per
canonical key — seq is an explicit, deterministic sequence number
carried in the rows (never wall-clock), so the result is independent of
task scheduling.

:class:`SeenSet` is the crawl frontier's seen set, one object held in
the driver whatever the cluster size: a cuckoo prefilter
(state/cuckoo.py) in front of a TIERED exact ``key → (surrogate,
first_seq)`` store (bounded tail → sorted RAM runs → memmapped disk
runs past ``ram_cap``). A filter in front of tiered exact runs needs no
shards to scale: the prefilter doubles on overflow and the runs spill
to disk. Links discovered mid-round are filtered through
``offer_batch``; at the round barrier ``commit_round`` resolves min-seq
winners and assigns dense surrogates in (round, first_seq) order —
reproducing the sequential crawl's first-seen ordering. The crawl
snapshots the set at each commit for kill/resume (the reference
rebuilds from scratch, ``database_sink.rs:91-101``; at 10^10 we must
not). The crawl runs first-wins in its bootstrap and admission parts
(``pipelines/crawl.first_wins``) and offers the set only each key's
survivor.

A snapshot directory holds ``shard_0.npz`` and ``_meta``. Directories
written while the set was split over N shards (by ``key % N``) hold
``shard_0.npz`` .. ``shard_<N-1>.npz``; a restore merges them.
"""

from __future__ import annotations

import glob
import os
import zipfile

import numpy as np
import pyarrow as pa

from .cuckoo import CuckooFilter

# starting size of the cuckoo prefilter; a full filter doubles, so this
# is not a key limit
FILTER_CAPACITY = 1 << 20


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


def _load_snapshot(dir_path: str, names: tuple) -> tuple[list, list[np.ndarray]]:
    """The loaded ``shard_*.npz`` files of a snapshot directory and the
    ``names`` arrays concatenated over them, as int64."""
    files = [np.load(f) for f in sorted(glob.glob(os.path.join(dir_path, "shard_*.npz")))]
    return files, [
        np.concatenate([f[n] for f in files]).astype(np.int64, copy=False) for n in names
    ]


class SeenSet:
    """The seen set, held in the driver. All methods take/return numpy
    or Arrow (zero Python row objects).

    Committed state is TIERED (the 10^10-key design the cuckoo module
    promises): a bounded tail holds the entries committed since the
    last consolidation, as the stored array chunks plus one sorted run
    of them built at the first probe after a store; everything older
    lives in sorted ``(key, surrogate, first_seq)`` runs — RAM ndarrays
    first, spilled to disk as memmapped ``.npy`` runs once RAM-resident
    entries exceed ``ram_cap``. Membership and lookup are a cuckoo
    prefilter, then a vectorized ``searchsorted`` over the tail and the
    runs — so neither a steady-state crawl (mostly-seen candidates) nor
    a 10^10-key set ever walks keys one by one or holds them all in
    memory, and the state is arrays, not one Python object per key."""

    def __init__(
        self,
        capacity: int | None = None,  # prefilter start (None: FILTER_CAPACITY)
        ram_cap: int | None = None,
        spill_dir: str | None = None,
    ):
        if ram_cap is not None and spill_dir is None:
            raise ValueError("ram_cap requires spill_dir")
        self.capacity = capacity or FILTER_CAPACITY
        self.filter = CuckooFilter(self.capacity)
        self._clear_tail()
        # this round's fresh offered (keys, seqs) chunks; commit_round
        # resolves each key's min seq
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        # (keys, surrogates, first_seqs) array chunks stored since the
        # last snapshot — the payload of a DELTA snapshot (O(round), not
        # O(total))
        self._delta: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._runs: list[_Run] = []  # oldest → newest
        self.ram_cap = ram_cap
        self.spill_dir = spill_dir
        self._spill_seq = 0
        # the tail must consolidate before it alone can exceed ram_cap
        self._tail_max = min(_TAIL_MAX, ram_cap) if ram_cap else _TAIL_MAX
        self.next_surrogate = 1

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

    def _unseen(self, keys: np.ndarray) -> np.ndarray:
        """True where ``keys[i]`` is not committed-seen: the cuckoo
        prefilter (no false negatives) answers most keys, and only its
        positives resolve through the vectorized run probes."""
        unseen = ~self.filter.contains(keys)
        maybe = np.flatnonzero(~unseen)
        if len(maybe):
            unseen[maybe] = ~self._committed_mask(keys[maybe])
        return unseen

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
        prefix = os.path.join(self.spill_dir, f"run{self._spill_seq}")
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

    def _store(
        self,
        keys: np.ndarray,
        surrogates: np.ndarray,
        first_seqs: np.ndarray,
        log_delta: bool = True,
    ) -> None:
        """Commit never-committed int64 entries: add the keys to the
        prefilter, append the entries to the tail and (unless they are
        replayed from a snapshot) the delta buffer, and consolidate past
        the tail bound (append + periodic merge — store-time cost is
        amortized O(1) per key)."""
        if not len(keys):
            return
        self._filter_add(keys)
        self._tail.append((keys, surrogates, first_seqs))
        self._tail_len += len(keys)
        self._tail_run = None
        if log_delta:
            self._delta.append((keys, surrogates, first_seqs))
        if self._tail_len >= self._tail_max:
            self._consolidate_tail()

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

    # -- the crawl's calls ---------------------------------------------

    def offer_batch(self, keys: np.ndarray, seqs: np.ndarray) -> np.ndarray:
        """Mark candidate (key, seq) pairs; returns a bool mask of keys
        NOT yet committed-seen (i.e. candidates for the next round).
        Within-round duplicates all return True — the round barrier
        (commit_round) resolves the min-seq winner. Called by the seed
        bootstrap and the link admission."""
        keys = np.asarray(keys, dtype=np.int64)
        seqs = np.asarray(seqs, dtype=np.int64)
        fresh = self._unseen(keys)
        idx = np.flatnonzero(fresh)
        if len(idx):
            self._pending.append((keys[idx], seqs[idx]))
        return fresh

    def commit_round(self) -> pa.Table:
        """Resolve the round: each offered key never committed before
        wins with its min offered seq, and the winners take dense
        surrogates in first_seq order. Returns (key, first_seq,
        surrogate) for the round's new keys. The crawl offers it one
        bootstrap's or admission's first-wins survivors, whatever their
        part count: 16 B of (key, seq) per survivor."""
        if self._pending:
            keys = np.concatenate([k for k, _ in self._pending])
            seqs = np.concatenate([q for _, q in self._pending])
            order = np.lexsort((seqs, keys))  # by key, then seq
            keys, seqs = keys[order], seqs[order]
            first = np.concatenate([[True], keys[1:] != keys[:-1]])
            keys, seqs = keys[first], seqs[first]
            new = ~self._committed_mask(keys)
            order = np.argsort(seqs[new], kind="stable")
            keys, seqs = keys[new][order], seqs[new][order]
        else:
            keys = seqs = np.zeros(0, np.int64)
        self._pending = []
        surrogates = np.arange(
            self.next_surrogate, self.next_surrogate + len(keys), dtype=np.int64
        )
        self.next_surrogate += len(keys)
        self._store(keys, surrogates, seqs)
        return pa.table(
            {
                "key": pa.array(keys),
                "first_seq": pa.array(seqs),
                "surrogate": pa.array(surrogates),
            }
        )

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

    def snapshot_async(self, dir_path: str, mode: str = "full") -> dict:
        """Snapshot the set to ``dir_path`` (``shard_0.npz`` and
        ``_meta``) before returning; returns the committed entries per
        tier at the cut (tail, RAM-run rows, disk-run rows), the
        disk-run count and the prefilter's bucket count. The name is the
        one ``perfbench/spans.py`` wraps; nothing is left in flight.

        ``full`` writes the whole state (O(total keys)); ``delta``
        writes only the entries stored since the LAST snapshot of either
        kind (O(round's novelty)) — restore then needs the chain back to
        the last full snapshot (:meth:`restore_chain`). The crawl takes
        a full snapshot every ``snapshot_full_every`` rounds and deltas
        between. A half-written snapshot can only belong to an
        uncommitted group, which is never restored."""
        os.makedirs(dir_path, exist_ok=True)
        path = os.path.join(dir_path, "shard_0.npz")
        # an uncommitted group's directory may hold the shard files of
        # an earlier layout: a restore would merge them in
        for stale in glob.glob(os.path.join(dir_path, "shard_*.npz")):
            if stale != path:
                os.remove(stale)
        tmp = path + ".tmp"
        # uncompressed: snapshots happen at every commit; compression
        # cost grows with the seen set while the write stays page-cache
        # fast
        if mode == "delta":
            cols = (
                [np.concatenate(c) for c in zip(*self._delta)]
                if self._delta
                else [np.zeros(0, np.int64)] * 3
            )
            arrays = dict(zip(("delta_keys", "delta_surrogates", "delta_first_seqs"), cols))
        else:
            keys, sur, seq = self._all_committed()
            arrays = {
                "keys": keys,
                "surrogates": sur,
                "first_seqs": seq,
                "filter_table": self.filter.table,
                "filter_count": np.int64(self.filter.count),
                "filter_slots": np.int64(self.filter.slots),
            }
        _write_npz(tmp, arrays)
        os.replace(tmp, path)
        self._delta = []
        tmp = os.path.join(dir_path, "_meta.tmp")
        with open(tmp, "w") as fh:
            fh.write(f"{self.next_surrogate}\n{mode}")
        os.replace(tmp, os.path.join(dir_path, "_meta"))
        disk = [len(r) for r in self._runs if r.path is not None]
        return {
            "tail": self._tail_len,
            "ram_rows": sum(len(r) for r in self._runs if r.path is None),
            "disk_rows": sum(disk),
            "disk_runs": len(disk),
            "filter_buckets": self.filter.nbuckets,
        }

    def restore_chain(self, dirs: list[str]) -> None:
        """Restore from a FULL snapshot directory followed by its delta
        directories in round order; ``next_surrogate`` comes from the
        last link. A directory with several shard files (written while
        the set was split by ``key % N``) restores as their concatenated
        entries, the prefilter rebuilt from the keys."""
        files, (keys, sur, seq) = _load_snapshot(
            dirs[0], ("keys", "surrogates", "first_seqs")
        )
        self._clear_tail()
        self._pending, self._delta, self._runs = [], [], []
        if len(files) == 1:
            (st,) = files
            self.filter = CuckooFilter.from_state(
                {
                    "table": st["filter_table"],
                    "count": int(st["filter_count"]),
                    "slots": int(st["filter_slots"]),
                }
            )
            # restore into ONE sorted run, not a dict: a 10^10-key set
            # must come back as probe-able arrays, never Python objects
            order = np.argsort(keys, kind="stable")
            self._runs = [_Run(keys[order], sur[order], seq[order])]
        else:
            self.filter = CuckooFilter(self.capacity)
            self._store(keys, sur, seq, log_delta=False)
        self._consolidate_tail()  # apply the ram_cap spill policy
        # the replayed deltas do NOT re-enter the delta buffer — they
        # came from a durable snapshot already
        for d in dirs[1:]:
            _files, cols = _load_snapshot(
                d, ("delta_keys", "delta_surrogates", "delta_first_seqs")
            )
            self._store(*cols, log_delta=False)
        with open(os.path.join(dirs[-1], "_meta")) as fh:
            self.next_surrogate = int(fh.read().split()[0])

    def to_table(self) -> pa.Table:
        """Full (key, surrogate, first_seq) table, sorted by surrogate.
        Test/summary scale only (materializes every entry)."""
        keys, sur, seq = self._all_committed()
        return pa.table(
            {"key": pa.array(keys), "surrogate": pa.array(sur), "first_seq": pa.array(seq)}
        ).sort_by("surrogate")


# the name perfbench/spans.py patches for its seen_set.* spans
ShardedSeenSet = SeenSet
