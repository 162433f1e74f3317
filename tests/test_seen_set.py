"""Seen-set semantics: cuckoo filter, snapshot files, the driver-held
seen set and its spill tier.

Reference oracle: surrogate_key.rs:47-66 — dense keys from 1, first
sight New(k), later Existing(k)."""

from __future__ import annotations

import numpy as np
import pytest

from vat_abcd_crawler_ray.state import seen_set
from vat_abcd_crawler_ray.state.cuckoo import CuckooFilter
from vat_abcd_crawler_ray.state.seen_set import SeenSet


def _unseen_keys(ss: SeenSet, keys: np.ndarray) -> list:
    """Sorted ``keys`` the seen set has not committed: the mask
    ``offer_batch`` returns (the crawl's seen filter)."""
    keys = np.asarray(keys, dtype=np.int64)
    return sorted(keys[ss.offer_batch(keys, np.arange(len(keys)))].tolist())


class TestCuckoo:
    def test_no_false_negatives(self):
        rng = np.random.RandomState(42)
        keys = rng.randint(-(2**62), 2**62, size=5000).astype(np.int64)
        keys = np.unique(keys)
        f = CuckooFilter(capacity=8192)
        f.add(keys)
        assert f.contains(keys).all()

    def test_low_false_positive_rate(self):
        rng = np.random.RandomState(7)
        keys = np.unique(rng.randint(-(2**62), 2**62, size=4000).astype(np.int64))
        other = np.unique(rng.randint(-(2**62), 2**62, size=20000).astype(np.int64))
        other = np.setdiff1d(other, keys)
        f = CuckooFilter(capacity=8192)
        f.add(keys)
        fpr = f.contains(other).mean()
        assert fpr < 0.01, fpr

    def test_snapshot_roundtrip(self):
        keys = np.arange(100, dtype=np.int64) * 7919
        f = CuckooFilter(capacity=512)
        f.add(keys)
        g = CuckooFilter.from_state(f.state())
        assert g.contains(keys).all()
        assert g.count == f.count

    def test_deterministic(self):
        keys = np.arange(1000, dtype=np.int64) * 104729
        f1, f2 = CuckooFilter(2048), CuckooFilter(2048)
        f1.add(keys)
        f2.add(keys)
        assert (f1.table == f2.table).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_add_on_colliding_batches(self, seed):
        """Random batches, several sharing few primary buckets (both the
        numpy placement pass and the one-key kick path run), into a
        filter that overflows and doubles: every added key is found,
        the count is exact, and the same input gives the same table."""

        def fill() -> CuckooFilter:
            rng = np.random.default_rng(seed)
            f = CuckooFilter(64)
            added = np.zeros(0, dtype=np.int64)
            for _ in range(6):
                keys = rng.integers(-(2**62), 2**62, size=int(rng.integers(1, 200)))
                # a third of the batch lands in 3 primary buckets
                hot = rng.random(len(keys)) < 1 / 3
                keys[hot] = keys[hot] - keys[hot] % f.nbuckets + rng.integers(0, 3, hot.sum())
                keys = np.setdiff1d(keys, added)
                try:
                    f.add(keys)
                except RuntimeError:
                    f = f.doubled(np.concatenate([added, keys]))
                added = np.concatenate([added, keys])
                assert f.contains(added).all()
                assert f.count == len(added)
            return f

        first = fill()
        assert first.nbuckets > CuckooFilter(64).nbuckets  # the doubled path ran
        assert (fill().table == first.table).all()


def _filled_set(capacity: int = 1 << 12, n: int = 500) -> SeenSet:
    ss = SeenSet(capacity)
    keys = np.arange(n, dtype=np.int64) * 7919
    ss.offer_batch(keys, np.arange(n, dtype=np.int64))
    ss.commit_round()
    return ss


class TestSnapshotFiles:
    """The snapshot writer keeps ``np.savez``'s file format."""

    def test_full_snapshot_reads_like_savez(self, tmp_path):
        ss = _filled_set()
        ss.snapshot_async(str(tmp_path / "seen"), "full")
        path = str(tmp_path / "seen" / "shard_0.npz")
        keys, sur, seq = ss._all_committed()
        ref = str(tmp_path / "ref.npz")
        np.savez(
            ref,
            keys=keys,
            surrogates=sur,
            first_seqs=seq,
            filter_table=ss.filter.table,
            filter_count=ss.filter.count,
            filter_slots=ss.filter.slots,
        )
        got, want = np.load(path), np.load(ref)
        assert sorted(got.files) == sorted(want.files)
        for name in want.files:
            assert got[name].dtype == want[name].dtype, name
            np.testing.assert_array_equal(got[name], want[name])

    def test_savez_snapshot_restores(self, tmp_path):
        """A snapshot written by ``np.savez`` (the earlier writer)
        restores into the same state."""
        ss = _filled_set()
        keys, sur, seq = ss._all_committed()
        (tmp_path / "ref").mkdir()
        (tmp_path / "ref" / "_meta").write_text(f"{ss.next_surrogate}\nfull")
        ref = str(tmp_path / "ref" / "shard_0.npz")
        with open(ref, "wb") as fh:
            np.savez(
                fh,
                keys=keys,
                surrogates=sur,
                first_seqs=seq,
                filter_table=ss.filter.table,
                filter_count=ss.filter.count,
                filter_slots=ss.filter.slots,
            )
        back = SeenSet(64)
        back.restore_chain([str(tmp_path / "ref")])
        assert back.to_table().equals(ss.to_table())
        np.testing.assert_array_equal(back.filter.table, ss.filter.table)

    def test_delta_snapshot_holds_entries_in_store_order(self, tmp_path):
        ss = _filled_set(n=50)
        ss.snapshot_async(str(tmp_path / "full"), "full")
        ss.offer_batch(np.array([5, 3], np.int64), np.array([60, 61]))
        ss.commit_round()
        ss.offer_batch(np.array([9], np.int64), np.array([62]))
        ss.commit_round()
        ss.snapshot_async(str(tmp_path / "delta"), "delta")
        d = np.load(str(tmp_path / "delta" / "shard_0.npz"))
        assert d["delta_keys"].tolist() == [5, 3, 9]
        assert d["delta_surrogates"].tolist() == [51, 52, 53]
        assert d["delta_first_seqs"].tolist() == [60, 61, 62]
        assert d["delta_keys"].dtype == np.int64
        ss.snapshot_async(str(tmp_path / "empty"), "delta")
        assert len(np.load(str(tmp_path / "empty" / "shard_0.npz"))["delta_keys"]) == 0

    def test_snapshot_drops_an_earlier_shard_layout(self, tmp_path):
        """A directory that still holds an uncommitted group's shard
        files from an N-shard layout keeps only the new snapshot's file,
        so a restore does not merge the leftovers in."""
        ss = _filled_set(n=50)
        d = tmp_path / "seen"
        d.mkdir()
        for i in range(4):
            np.savez(d / f"shard_{i}.npz", delta_keys=np.array([i], np.int64))
        ss.snapshot_async(str(d), "delta")
        assert sorted(p.name for p in d.iterdir()) == ["_meta", "shard_0.npz"]
        assert len(np.load(d / "shard_0.npz")["delta_keys"]) == 50

    def test_full_snapshot_does_not_copy_the_filter(self, tmp_path):
        """The prefilter table goes to disk from its own buffer: the
        write's traced peak stays far below the table's size."""
        import tracemalloc

        ss = _filled_set(capacity=1 << 20)
        table_bytes = ss.filter.table.nbytes
        tracemalloc.start()
        try:
            ss.snapshot_async(str(tmp_path / "seen"), "full")
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes // 4, (peak, table_bytes)


@pytest.mark.usefixtures("ray_session")
class TestShardedSeenSet:
    """The seen set (``ShardedSeenSet`` is its older name, kept as an
    alias)."""

    def test_round_commit_matches_sequential(self):
        ss = SeenSet(4096)
        # round 1: keys with dup offers, out-of-order seqs
        keys = np.array([11, 22, 11, 33, 22, 44], dtype=np.int64)
        seqs = np.array([5, 1, 0, 3, 9, 2], dtype=np.int64)
        fresh = ss.offer_batch(keys, seqs)
        assert fresh.all()  # nothing committed yet
        t = ss.commit_round()
        got = list(zip(t["key"].to_pylist(), t["surrogate"].to_pylist(), t["first_seq"].to_pylist()))
        # first_seq: 11→0, 22→1, 44→2, 33→3 → surrogates in that order
        assert got == [(11, 1, 0), (22, 2, 1), (44, 3, 2), (33, 4, 3)]

        # round 2: repeats are filtered, new key gets next dense surrogate
        keys2 = np.array([11, 55, 22], dtype=np.int64)
        fresh2 = ss.offer_batch(keys2, np.array([10, 11, 12], dtype=np.int64))
        assert fresh2.tolist() == [False, True, False]
        t2 = ss.commit_round()
        assert t2["key"].to_pylist() == [55]
        assert t2["surrogate"].to_pylist() == [5]

        # lookup
        assert ss.lookup(np.array([22, 55, 999])).tolist() == [2, 5, -1]

    def test_snapshot_restore(self, tmp_path):
        ss = SeenSet(1024)
        ss.offer_batch(np.array([1, 2, 3]), np.array([0, 1, 2]))
        ss.commit_round()
        snap = str(tmp_path / "seen")
        ss.snapshot_async(snap)

        ss2 = SeenSet(1024)
        ss2.restore_chain([snap])
        assert ss2.lookup(np.array([1, 2, 3])).tolist() == [1, 2, 3]
        assert ss2.next_surrogate == 4
        # restored set keeps filtering
        fresh = ss2.offer_batch(np.array([2, 9]), np.array([5, 6]))
        assert fresh.tolist() == [False, True]

    def test_filter_unseen_dataset(self):
        ss = SeenSet(1024)
        ss.offer_batch(np.array([10, 20, 30]), np.array([0, 1, 2]))
        ss.commit_round()
        assert _unseen_keys(ss, [10, 15, 20, 25]) == [15, 25]

    def test_filter_unseen_dataset_randomized(self):
        """Randomized parity vs a plain Python set, at a key volume
        where the cuckoo prefilter sees real load (and occasional
        false positives must fall through to the exact runs)."""
        rng = np.random.RandomState(1234)
        seen_keys = np.unique(
            rng.randint(0, 1 << 40, size=20_000).astype(np.int64)
        )
        ss = SeenSet(1 << 15)
        ss.offer_batch(seen_keys, np.arange(len(seen_keys), dtype=np.int64))
        ss.commit_round()
        # candidates: half committed keys, half fresh (some duplicated)
        fresh = np.unique(
            rng.randint(1 << 40, 1 << 41, size=10_000).astype(np.int64)
        )
        cand_keys = np.concatenate(
            [rng.choice(seen_keys, 8_000), fresh, fresh[:500]]
        )
        rng.shuffle(cand_keys)
        seen = set(seen_keys.tolist())
        expect = sorted(int(k) for k in cand_keys if int(k) not in seen)
        assert _unseen_keys(ss, cand_keys) == expect

    def test_delta_snapshot_chain_restore(self, tmp_path):
        """full@r0 + delta@r1 + delta@r2 must restore to exactly the
        state a full snapshot would give — same table, same
        next_surrogate, same filtering behavior."""
        ss = SeenSet(2048)
        dirs = []
        rng = np.random.RandomState(7)
        seq = 0
        for rnd in range(3):
            keys = rng.randint(0, 400, size=60).astype(np.int64)
            seqs = np.arange(seq, seq + 60, dtype=np.int64)
            seq += 60
            ss.offer_batch(keys, seqs)
            ss.commit_round()
            d = str(tmp_path / f"seen_{rnd}")
            ss.snapshot_async(d, mode="full" if rnd == 0 else "delta")
            dirs.append(d)

        restored = SeenSet(2048)
        restored.restore_chain(dirs)
        pd_orig = ss.to_table().to_pandas()
        pd_rest = restored.to_table().to_pandas()
        import pandas as pd

        pd.testing.assert_frame_equal(pd_orig, pd_rest)
        assert restored.next_surrogate == ss.next_surrogate
        # the rebuilt cuckoo filter keeps filtering correctly
        probe = rng.randint(0, 800, size=200).astype(np.int64)
        np.testing.assert_array_equal(
            restored.lookup(probe), ss.lookup(probe)
        )

    def test_tiny_filter_grows_instead_of_failing(self, tmp_path):
        """A set whose prefilter starts at 64 slots takes ~6k keys:
        the filter doubles on overflow (the capacity is not a key
        limit) and the set equals a large-capacity one, directly and
        after a full + delta snapshot chain restore (the deltas grow
        the restored filter again)."""
        import pandas as pd

        small = SeenSet(64)
        big = SeenSet(1 << 15)
        rng = np.random.RandomState(5)
        dirs, seq = [], 0
        for rnd in range(5):
            keys = rng.randint(0, 1 << 40, size=1200).astype(np.int64)
            seqs = np.arange(seq, seq + len(keys), dtype=np.int64)
            seq += len(keys)
            for s in (small, big):
                s.offer_batch(keys, seqs)
                s.commit_round()
            d = str(tmp_path / f"seen_{rnd}")
            small.snapshot_async(d, mode="full" if rnd == 0 else "delta")
            dirs.append(d)
        want = big.to_table().to_pandas()
        assert len(want) > 5000
        probe = np.concatenate(
            [want["key"].to_numpy()[::3],
             rng.randint(1 << 41, 1 << 42, size=300).astype(np.int64)]
        )
        restored = SeenSet(64)
        restored.restore_chain(dirs)
        for got in (small, restored):
            pd.testing.assert_frame_equal(got.to_table().to_pandas(), want)
            assert got.next_surrogate == big.next_surrogate
            np.testing.assert_array_equal(got.lookup(probe), big.lookup(probe))
            fresh = got.offer_batch(probe, np.arange(len(probe)) + seq)
            np.testing.assert_array_equal(fresh, big.lookup(probe) < 0)

    def test_to_table(self):
        ss = SeenSet()
        ss.offer_batch(np.array([7, 8, 9]), np.array([2, 0, 1]))
        ss.commit_round()
        t = ss.to_table()
        assert t["surrogate"].to_pylist() == [1, 2, 3]
        assert t["key"].to_pylist() == [8, 9, 7]


class _RunTiers:
    """Mixin: a tail bound of 2 entries and at most one RAM run, so
    nearly every commit moves the tail into a sorted run and merges
    the RAM runs — probes, dumps and snapshots go through the run
    tiers instead of the tail."""

    @pytest.fixture(autouse=True)
    def _tiny_tiers(self, monkeypatch):
        monkeypatch.setattr(seen_set, "_TAIL_MAX", 2)
        monkeypatch.setattr(seen_set, "_RAM_RUN_MAX", 1)


class TestShardedSeenSetInDriver(_RunTiers, TestShardedSeenSet):
    """Every contract above through the run tiers. (The name is kept
    from when the set could also be held by actors; it is always held
    in the driver now.)"""


@pytest.mark.usefixtures("ray_session")
class TestSpillTier:
    """The 10^10-key seam: a tiny ram_cap forces the tail → RAM-run →
    disk-run path on every commit, and every seen-set contract must
    hold unchanged (VERDICT r4 #3)."""

    def _spilled(self, tmp_path, ram_cap=64):
        return SeenSet(1 << 15, ram_cap=ram_cap, spill_dir=str(tmp_path / "spill"))

    def test_commit_lookup_filter_with_spill(self, tmp_path):
        import os

        import pandas as pd

        rng = np.random.RandomState(99)
        ss = self._spilled(tmp_path)
        ref = SeenSet(1 << 15)
        seq = 0
        all_keys = []
        for _ in range(4):
            keys = np.unique(
                rng.randint(0, 1 << 40, size=3000).astype(np.int64)
            )
            seqs = np.arange(seq, seq + len(keys), dtype=np.int64)
            seq += len(keys)
            for s in (ss, ref):
                s.offer_batch(keys, seqs)
                s.commit_round()
            all_keys.append(keys)
        # disk runs actually exist (the cap is far below the volume)
        spill_files = os.listdir(tmp_path / "spill")
        assert any(f.endswith("_keys.npy") for f in spill_files), spill_files
        # lookups agree with the un-capped reference across all tiers
        probe = np.concatenate(
            [np.concatenate(all_keys)[::7],
             rng.randint(1 << 41, 1 << 42, size=500).astype(np.int64)]
        )
        np.testing.assert_array_equal(ss.lookup(probe), ref.lookup(probe))
        # the seen filter resolves via the run probes
        cand_keys = np.concatenate(
            [all_keys[0][:1000],
             rng.randint(1 << 41, 1 << 42, size=1000).astype(np.int64)]
        )
        assert _unseen_keys(ss, cand_keys) == _unseen_keys(ref, cand_keys)
        # full dump equality (to_table sorts by surrogate)
        pd.testing.assert_frame_equal(
            ss.to_table().to_pandas(), ref.to_table().to_pandas()
        )

    def test_snapshot_restore_with_spill(self, tmp_path):
        ss = self._spilled(tmp_path, ram_cap=32)
        rng = np.random.RandomState(3)
        keys = np.unique(rng.randint(0, 1 << 30, size=500).astype(np.int64))
        ss.offer_batch(keys, np.arange(len(keys), dtype=np.int64))
        ss.commit_round()
        snap = str(tmp_path / "snap")
        ss.snapshot_async(snap)
        # restore into ANOTHER capped set: state comes back as runs and
        # immediately re-spills past the cap
        ss2 = self._spilled(tmp_path / "r2", ram_cap=32)
        ss2.restore_chain([snap])
        np.testing.assert_array_equal(ss2.lookup(keys), ss.lookup(keys))
        assert ss2.next_surrogate == ss.next_surrogate
        fresh = ss2.offer_batch(
            np.array([int(keys[0]), 1 << 60]), np.array([9000, 9001])
        )
        assert fresh.tolist() == [False, True]

    def test_delta_chain_with_spill(self, tmp_path):
        ss = self._spilled(tmp_path, ram_cap=48)
        ref = SeenSet(2048)
        dirs = []
        rng = np.random.RandomState(11)
        seq = 0
        for rnd in range(3):
            keys = rng.randint(0, 2000, size=200).astype(np.int64)
            seqs = np.arange(seq, seq + 200, dtype=np.int64)
            seq += 200
            for s in (ss, ref):
                s.offer_batch(keys, seqs)
                s.commit_round()
            d = str(tmp_path / f"seen_{rnd}")
            ss.snapshot_async(d, mode="full" if rnd == 0 else "delta")
            dirs.append(d)
        restored = self._spilled(tmp_path / "rest", ram_cap=48)
        restored.restore_chain(dirs)
        import pandas as pd

        pd.testing.assert_frame_equal(
            restored.to_table().to_pandas(), ref.to_table().to_pandas()
        )
        assert restored.next_surrogate == ref.next_surrogate


class TestSpillTierInDriver(_RunTiers, TestSpillTier):
    """The spill tier with every commit consolidating the tail and
    merging the RAM runs before they spill. (The name is kept from when
    the set could also be held by actors.)"""
