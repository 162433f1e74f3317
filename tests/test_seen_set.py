"""Seen-set semantics: cuckoo filter, first-wins dedup, the sharded
set under both shard placements (driver-held and actors).

Reference oracle: surrogate_key.rs:47-66 — dense keys from 1, first
sight New(k), later Existing(k)."""

from __future__ import annotations

import numpy as np
import pytest

import pyarrow as pa
import ray
import ray.data as rd

from vat_abcd_crawler_ray.ops.blocks import block_refs
from vat_abcd_crawler_ray.state import seen_set
from vat_abcd_crawler_ray.state.cuckoo import CuckooFilter
from vat_abcd_crawler_ray.state.seen_set import (
    SeenSetShard,
    ShardedSeenSet,
    first_wins_dataset,
    seen_placement,
    seen_shard_count,
)


def _unseen_keys(ss: ShardedSeenSet, ds: "rd.Dataset") -> list:
    """Sorted keys of ``ds``'s rows the seen set has not committed,
    through the shard-parallel anti-filter over its block refs."""
    refs = ss.filter_unseen_refs(block_refs(ds.materialize()))
    return sorted(pa.concat_tables(ray.get(refs))["key"].to_pylist())


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


@pytest.mark.parametrize("cpus,want", [(1, 1), (4, 4), (8, 8), (32, 8)])
def test_auto_shard_count_follows_cluster(cpus, want):
    """0 = one shard per CPU up to 8; a positive setting pins it."""
    assert seen_shard_count(0, cpus) == want
    assert seen_shard_count(3, cpus) == 3


@pytest.mark.parametrize("shards,want", [(1, "driver"), (2, "actors"), (8, "actors")])
def test_placement_follows_shard_count(shards, want):
    """One shard is held in the driver; a pool of several is actors."""
    assert seen_placement(shards) == want


def _filled_shard(capacity: int = 1 << 12, n: int = 500) -> SeenSetShard:
    shard = SeenSetShard(0, capacity)
    keys = np.arange(n, dtype=np.int64) * 7919
    shard.offer(keys, np.arange(n, dtype=np.int64))
    k, q = shard.commit_round()
    shard.assign(k, np.arange(1, len(k) + 1, dtype=np.int64), q)
    return shard


class TestSnapshotFiles:
    """The shard's snapshot writer keeps ``np.savez``'s file format."""

    def test_full_snapshot_reads_like_savez(self, tmp_path):
        shard = _filled_shard()
        path = str(tmp_path / "shard_0.npz")
        shard.snapshot(path, "full")
        keys, sur, seq = shard._all_committed()
        ref = str(tmp_path / "ref.npz")
        np.savez(
            ref,
            keys=keys,
            surrogates=sur,
            first_seqs=seq,
            filter_table=shard.filter.table,
            filter_count=shard.filter.count,
            filter_slots=shard.filter.slots,
        )
        got, want = np.load(path), np.load(ref)
        assert sorted(got.files) == sorted(want.files)
        for name in want.files:
            assert got[name].dtype == want[name].dtype, name
            np.testing.assert_array_equal(got[name], want[name])

    def test_savez_snapshot_restores(self, tmp_path):
        """A snapshot written by ``np.savez`` (the earlier writer)
        restores into the same state."""
        shard = _filled_shard()
        keys, sur, seq = shard._all_committed()
        ref = str(tmp_path / "ref.npz")
        with open(ref, "wb") as fh:
            np.savez(
                fh,
                keys=keys,
                surrogates=sur,
                first_seqs=seq,
                filter_table=shard.filter.table,
                filter_count=shard.filter.count,
                filter_slots=shard.filter.slots,
            )
        back = SeenSetShard(0, 64)
        back.restore(ref)
        assert back.dump().equals(shard.dump())
        np.testing.assert_array_equal(back.filter.table, shard.filter.table)

    def test_delta_snapshot_holds_entries_in_store_order(self, tmp_path):
        shard = _filled_shard(n=50)
        shard.snapshot(str(tmp_path / "full.npz"), "full")
        shard.assign(np.array([5, 3], np.int64), np.array([51, 52]), np.array([60, 61]))
        shard.assign(np.array([9], np.int64), np.array([53]), np.array([62]))
        shard.snapshot(str(tmp_path / "delta.npz"), "delta")
        d = np.load(str(tmp_path / "delta.npz"))
        assert d["delta_keys"].tolist() == [5, 3, 9]
        assert d["delta_surrogates"].tolist() == [51, 52, 53]
        assert d["delta_first_seqs"].tolist() == [60, 61, 62]
        assert d["delta_keys"].dtype == np.int64
        shard.snapshot(str(tmp_path / "empty.npz"), "delta")
        assert len(np.load(str(tmp_path / "empty.npz"))["delta_keys"]) == 0

    def test_full_snapshot_does_not_copy_the_filter(self, tmp_path):
        """The prefilter table goes to disk from its own buffer: the
        write's traced peak stays far below the table's size."""
        import tracemalloc

        shard = _filled_shard(capacity=1 << 20)
        table_bytes = shard.filter.table.nbytes
        tracemalloc.start()
        try:
            shard.snapshot(str(tmp_path / "shard_0.npz"), "full")
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes // 4, (peak, table_bytes)


@pytest.mark.usefixtures("ray_session")
class TestFirstWins:
    def test_dataset_first_wins(self):
        # keys seen at seqs; first sight wins, dense keys in first-seen order
        rows = [
            {"key": 100, "seq": 0},
            {"key": 200, "seq": 1},
            {"key": 100, "seq": 2},
            {"key": 300, "seq": 3},
            {"key": 200, "seq": 4},
        ]
        out = (
            first_wins_dataset(rd.from_items(rows).repartition(3), "key", "seq")
            .to_pandas()
            .sort_values("surrogate")
        )
        assert out["key"].tolist() == [100, 200, 300]
        assert out["surrogate"].tolist() == [1, 2, 3]
        assert out["first_seq"].tolist() == [0, 1, 3]


class _Placed:
    """Forces the shard placement of every ShardedSeenSet a test builds
    to ``PLACEMENT`` through the one placement rule."""

    PLACEMENT = "actors"

    @pytest.fixture(autouse=True)
    def _placement(self, monkeypatch):
        monkeypatch.setattr(seen_set, "seen_placement", lambda n: self.PLACEMENT)


@pytest.mark.usefixtures("ray_session")
class TestShardedSeenSet(_Placed):
    def test_round_commit_matches_sequential(self):
        ss = ShardedSeenSet(num_shards=4, capacity_per_shard=4096)
        assert ss.placement == self.PLACEMENT
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
        ss = ShardedSeenSet(num_shards=2, capacity_per_shard=1024)
        ss.offer_batch(np.array([1, 2, 3]), np.array([0, 1, 2]))
        ss.commit_round()
        snap = str(tmp_path / "seen")
        ss.snapshot(snap)

        ss2 = ShardedSeenSet(num_shards=2, capacity_per_shard=1024)
        ss2.restore(snap)
        assert ss2.lookup(np.array([1, 2, 3])).tolist() == [1, 2, 3]
        assert ss2.next_surrogate == 4
        # restored set keeps filtering
        fresh = ss2.offer_batch(np.array([2, 9]), np.array([5, 6]))
        assert fresh.tolist() == [False, True]

    def test_filter_unseen_dataset(self):
        import pandas as pd

        ss = ShardedSeenSet(num_shards=3, capacity_per_shard=1024)
        ss.offer_batch(np.array([10, 20, 30]), np.array([0, 1, 2]))
        ss.commit_round()
        cand = rd.from_pandas(
            pd.DataFrame({"key": np.array([10, 15, 20, 25], dtype=np.int64),
                          "x": [1, 2, 3, 4]})
        ).repartition(2)
        assert _unseen_keys(ss, cand) == [15, 25]

    def test_filter_unseen_dataset_randomized(self):
        """Randomized parity vs a plain Python set, at a key volume
        where the cuckoo prefilter sees real load (and occasional
        false positives must fall through to the exact dict)."""
        import pandas as pd

        rng = np.random.RandomState(1234)
        seen_keys = np.unique(
            rng.randint(0, 1 << 40, size=20_000).astype(np.int64)
        )
        ss = ShardedSeenSet(num_shards=4, capacity_per_shard=1 << 15)
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
        cand = rd.from_pandas(
            pd.DataFrame({"key": cand_keys, "x": np.arange(len(cand_keys))})
        ).repartition(5)
        seen = set(seen_keys.tolist())
        expect = sorted(int(k) for k in cand_keys if int(k) not in seen)
        assert _unseen_keys(ss, cand) == expect

    def test_delta_snapshot_chain_restore(self, tmp_path):
        """full@r0 + delta@r1 + delta@r2 must restore to exactly the
        state a full snapshot would give — same table, same
        next_surrogate, same filtering behavior."""
        ss = ShardedSeenSet(num_shards=3, capacity_per_shard=2048)
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
            ss.snapshot(d, mode="full" if rnd == 0 else "delta")
            dirs.append(d)

        restored = ShardedSeenSet(num_shards=3, capacity_per_shard=2048)
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
        """One shard whose prefilter starts at 64 slots takes ~6k keys:
        the filter doubles on overflow (the capacity is not a key
        limit) and the set equals a large-capacity one, directly and
        after a full + delta snapshot chain restore (the deltas grow
        the restored filter again)."""
        import pandas as pd

        small = ShardedSeenSet(num_shards=1, capacity_per_shard=64)
        big = ShardedSeenSet(num_shards=1, capacity_per_shard=1 << 15)
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
            small.snapshot(d, mode="full" if rnd == 0 else "delta")
            dirs.append(d)
        want = big.to_table().to_pandas()
        assert len(want) > 5000
        probe = np.concatenate(
            [want["key"].to_numpy()[::3],
             rng.randint(1 << 41, 1 << 42, size=300).astype(np.int64)]
        )
        restored = ShardedSeenSet(num_shards=1, capacity_per_shard=64)
        restored.restore_chain(dirs)
        for got in (small, restored):
            pd.testing.assert_frame_equal(got.to_table().to_pandas(), want)
            assert got.next_surrogate == big.next_surrogate
            np.testing.assert_array_equal(got.lookup(probe), big.lookup(probe))
            fresh = got.offer_batch(probe, np.arange(len(probe)) + seq)
            np.testing.assert_array_equal(fresh, big.lookup(probe) < 0)

    def test_to_table(self):
        ss = ShardedSeenSet(num_shards=3)
        ss.offer_batch(np.array([7, 8, 9]), np.array([2, 0, 1]))
        ss.commit_round()
        t = ss.to_table()
        assert t["surrogate"].to_pylist() == [1, 2, 3]
        assert t["key"].to_pylist() == [8, 9, 7]


class TestShardedSeenSetInDriver(TestShardedSeenSet):
    """Every contract above with the shards held in the driver."""

    PLACEMENT = "driver"


@pytest.mark.usefixtures("ray_session")
class TestSpillTier(_Placed):
    """The 10^10-key seam: a tiny ram_cap forces the tail → RAM-run →
    disk-run path on every commit, and every seen-set contract must
    hold unchanged (VERDICT r4 #3)."""

    def _spilled(self, tmp_path, num_shards=4, ram_cap=64):
        return ShardedSeenSet(
            num_shards=num_shards,
            capacity_per_shard=1 << 15,
            ram_cap_per_shard=ram_cap,
            spill_dir=str(tmp_path / "spill"),
        )

    def test_commit_lookup_filter_with_spill(self, tmp_path):
        import os

        import pandas as pd

        rng = np.random.RandomState(99)
        ss = self._spilled(tmp_path)
        ref = ShardedSeenSet(num_shards=4, capacity_per_shard=1 << 15)
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
        # the distributed anti-filter resolves via the run probes
        cand_keys = np.concatenate(
            [all_keys[0][:1000],
             rng.randint(1 << 41, 1 << 42, size=1000).astype(np.int64)]
        )
        cand = rd.from_pandas(
            pd.DataFrame({"key": cand_keys, "x": np.arange(len(cand_keys))})
        ).repartition(3)
        assert _unseen_keys(ss, cand) == _unseen_keys(ref, cand)
        # full dump equality (to_table sorts by surrogate)
        pd.testing.assert_frame_equal(
            ss.to_table().to_pandas(), ref.to_table().to_pandas()
        )

    def test_snapshot_restore_with_spill(self, tmp_path):
        ss = self._spilled(tmp_path, num_shards=2, ram_cap=32)
        rng = np.random.RandomState(3)
        keys = np.unique(rng.randint(0, 1 << 30, size=500).astype(np.int64))
        ss.offer_batch(keys, np.arange(len(keys), dtype=np.int64))
        ss.commit_round()
        snap = str(tmp_path / "snap")
        ss.snapshot(snap)
        # restore into ANOTHER capped set: state comes back as runs and
        # immediately re-spills past the cap
        ss2 = self._spilled(tmp_path / "r2", num_shards=2, ram_cap=32)
        ss2.restore(snap)
        np.testing.assert_array_equal(ss2.lookup(keys), ss.lookup(keys))
        assert ss2.next_surrogate == ss.next_surrogate
        fresh = ss2.offer_batch(
            np.array([int(keys[0]), 1 << 60]), np.array([9000, 9001])
        )
        assert fresh.tolist() == [False, True]

    def test_delta_chain_with_spill(self, tmp_path):
        ss = self._spilled(tmp_path, num_shards=3, ram_cap=48)
        ref = ShardedSeenSet(num_shards=3, capacity_per_shard=2048)
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
            ss.snapshot(d, mode="full" if rnd == 0 else "delta")
            dirs.append(d)
        restored = self._spilled(tmp_path / "rest", num_shards=3, ram_cap=48)
        restored.restore_chain(dirs)
        import pandas as pd

        pd.testing.assert_frame_equal(
            restored.to_table().to_pandas(), ref.to_table().to_pandas()
        )
        assert restored.next_surrogate == ref.next_surrogate


class TestSpillTierInDriver(TestSpillTier):
    """The spill tier with the shards held in the driver."""

    PLACEMENT = "driver"
