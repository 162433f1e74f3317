"""ops/hashagg.hot_combine — the hash-partitioned partial combine that
replaces Ray's sort-based groupby on the dedup scale paths."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from vat_abcd_crawler_ray.ops.hashagg import hot_combine


def _reference(df: pd.DataFrame, min_count: int, with_min: bool):
    g = df.groupby("bucket", sort=True).agg(
        total=("n", "sum"), **({"rep": ("min_id", "min")} if with_min else {})
    )
    g = g[g["total"] >= min_count]
    keys = g.index.to_numpy(np.int64)
    mins = g["rep"].to_numpy(np.int64) if with_min else None
    return keys, mins


@pytest.mark.usefixtures("ray_session")
class TestHotCombine:
    def _partials(self, rng, n_rows, n_keys, blocks):
        df = pd.DataFrame(
            {
                # include negative keys so the uint64 view path is hit
                "bucket": rng.integers(-n_keys, n_keys, n_rows, dtype=np.int64),
                "n": rng.integers(1, 4, n_rows).astype(np.int64),
                "min_id": rng.integers(0, 10_000, n_rows).astype(np.int64),
            }
        )
        ds = rd.from_pandas([d for _, d in df.groupby(np.arange(n_rows) % blocks)])
        return df, ds

    @pytest.mark.parametrize("parts", [1, 4, 32])
    def test_matches_pandas_reference(self, parts):
        rng = np.random.default_rng(7)
        df, ds = self._partials(rng, 5_000, 800, blocks=9)
        keys, mins = hot_combine(
            ds, min_col="min_id", min_count=2, parts=parts
        )
        ref_keys, ref_mins = _reference(df, 2, with_min=True)
        np.testing.assert_array_equal(keys, ref_keys)
        np.testing.assert_array_equal(mins, ref_mins)

    def test_sum_only_and_min_count(self):
        rng = np.random.default_rng(11)
        df, ds = self._partials(rng, 3_000, 500, blocks=5)
        keys, mins = hot_combine(ds, min_count=3, parts=8)
        ref_keys, _ = _reference(df, 3, with_min=False)
        assert mins is None
        np.testing.assert_array_equal(keys, ref_keys)

    def test_hot_limit_bails_without_fetch(self):
        rng = np.random.default_rng(3)
        _, ds = self._partials(rng, 4_000, 200, blocks=4)
        assert hot_combine(ds, min_col="min_id", hot_limit=1, parts=8) is None

    def test_empty_input(self):
        ds = rd.from_pandas(
            pd.DataFrame(
                {
                    "bucket": pd.Series(dtype=np.int64),
                    "n": pd.Series(dtype=np.int64),
                    "min_id": pd.Series(dtype=np.int64),
                }
            )
        )
        keys, mins = hot_combine(ds, min_col="min_id", parts=4)
        assert keys.size == 0 and mins.size == 0

    def test_all_singletons_hot_empty(self):
        df = pd.DataFrame(
            {
                "bucket": np.arange(100, dtype=np.int64),
                "n": np.ones(100, np.int64),
                "min_id": np.arange(100, dtype=np.int64),
            }
        )
        ds = rd.from_pandas(df)
        keys, mins = hot_combine(ds, min_col="min_id", parts=8)
        assert keys.size == 0 and mins.size == 0

    @pytest.mark.parametrize("parts", [1, 4])
    def test_fixed_binary_keys(self, parts):
        # the MinHash exact-copy combine keys on 16-byte content digests
        import pyarrow as pa
        import ray

        rng = np.random.default_rng(13)
        pool = rng.bytes(16 * 300)
        keys = [pool[16 * j : 16 * j + 16] for j in rng.integers(0, 300, 2_000)]
        ids = rng.permutation(2_000).astype(np.int64)
        blocks = [
            ray.put(pa.table({
                "key": pa.array(keys[s : s + 500], pa.binary(16)),
                "n": np.ones(len(keys[s : s + 500]), np.int64),
                "min_id": ids[s : s + 500],
            }))
            for s in range(0, 2_000, 500)
        ]
        got_keys, got_mins = hot_combine(
            blocks, key="key", min_col="min_id", min_count=2, parts=parts
        )
        ref = pd.DataFrame({"key": keys, "id": ids}).groupby("key")["id"].agg(
            ["size", "min"]
        )
        ref = ref[ref["size"] >= 2].sort_index()
        assert list(got_keys) == list(ref.index)
        np.testing.assert_array_equal(got_mins, ref["min"].to_numpy(np.int64))
