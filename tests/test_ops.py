"""Distributed operator tests: joins, top-k, connected components,
sketches."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from vat_abcd_crawler_ray.ops.components import (
    components_dataset,
    components_driver,
)
from vat_abcd_crawler_ray.ops.joins import (
    anti_join_keys,
    broadcast_join,
    broadcast_semi_join,
    bucket_hash_join,
    membership_flag_join,
)
from vat_abcd_crawler_ray.ops.sketches import (
    hll_count_distinct,
    hll_estimate,
    hll_register_batch,
)
from vat_abcd_crawler_ray.ops.topk import topk_per_key


def test_hll_math_accuracy_and_merge():
    for n in (100, 5000, 100000):
        regs = np.zeros(1 << 12, np.uint8)
        vals = [f"key-{i}" for i in range(n)]
        for c in range(0, n, 7000):
            np.maximum(regs, hll_register_batch(vals[c : c + 7000]), out=regs)
        assert abs(hll_estimate(regs) - n) / n < 0.05
    a = hll_register_batch([f"k{i}" for i in range(1000)])
    b = hll_register_batch([f"k{i}" for i in range(500, 1500)])
    est = hll_estimate(np.maximum(a, b))
    assert abs(est - 1500) / 1500 < 0.05  # overlap not double-counted


@pytest.mark.usefixtures("ray_session")
class TestOps:
    def test_broadcast_join(self):
        big = rd.from_items([{"k": i % 3, "v": i} for i in range(30)])
        small = pd.DataFrame({"k": [0, 1, 2], "name": ["a", "b", "c"]})
        out = broadcast_join(big, small, on="k").to_pandas()
        assert len(out) == 30
        assert set(out[out["k"] == 1]["name"]) == {"b"}

    def test_broadcast_semi_and_anti_join(self):
        big = rd.from_items([{"k": i} for i in range(20)])
        keep = broadcast_semi_join(big, [1, 5, 7], on="k").to_pandas()
        assert sorted(keep["k"]) == [1, 5, 7]
        drop = broadcast_semi_join(big, list(range(15)), on="k", anti=True).to_pandas()
        assert sorted(drop["k"]) == [15, 16, 17, 18, 19]

    def test_bucket_hash_join_inner(self):
        left = rd.from_items([{"k": i, "l": i * 10} for i in range(50)])
        right = rd.from_items([{"k": i, "r": i * 100} for i in range(25, 75)])
        out = bucket_hash_join(left, right, on="k", num_buckets=4).to_pandas()
        assert sorted(out["k"]) == list(range(25, 50))
        row = out[out["k"] == 30].iloc[0]
        assert row["l"] == 300 and row["r"] == 3000

    def test_bucket_hash_join_left(self):
        left = rd.from_items([{"k": i, "l": i} for i in range(10)])
        right = rd.from_items([{"k": i, "r": i} for i in range(5)])
        out = bucket_hash_join(left, right, on="k", num_buckets=2, how="left").to_pandas()
        assert len(out) == 10
        assert out[out["k"] >= 5]["r"].isna().all()

    def test_bucket_hash_join_string_key(self):
        left = rd.from_items([{"k": f"h{i}", "l": i} for i in range(20)])
        right = rd.from_items([{"k": f"h{i}", "r": -i} for i in range(10, 30)])
        out = bucket_hash_join(left, right, on="k", num_buckets=3).to_pandas()
        assert len(out) == 10

    def test_bucket_hash_join_pandas_string_key(self):
        left = rd.from_pandas(pd.DataFrame({"k": [f"h{i}" for i in range(20)], "l": range(20)}))
        right = rd.from_pandas(
            pd.DataFrame({"k": [f"h{i}" for i in range(10, 30)], "r": range(10, 30)})
        )
        out = bucket_hash_join(left, right, on="k", num_buckets=3).to_pandas()
        assert sorted(out["l"]) == list(range(10, 20))
        assert (out["k"] == "h" + out["r"].astype(str)).all()

    @pytest.mark.parametrize("broadcast_limit", [5_000_000, 0])
    def test_membership_flag_join_pandas_string_keys(self, broadcast_limit):
        """String keys in pandas blocks flag the same rows below and
        above the broadcast gate (``schema()`` reports a pandas string
        column as a Python ``object``, not an Arrow type)."""
        big = rd.from_pandas(
            pd.DataFrame({"k": [f"h{i}" for i in range(40)], "v": range(40)})
        ).repartition(3)
        keys = rd.from_pandas(pd.DataFrame({"k": [f"h{i}" for i in range(30, 50, 2)]}))
        out = (
            membership_flag_join(big, keys, on="k", flag_col="hit",
                                 broadcast_limit=broadcast_limit)
            .to_pandas()
            .sort_values("v")
        )
        assert out["v"].tolist() == list(range(40))
        assert out["k"].tolist() == [f"h{i}" for i in range(40)]
        assert out["hit"].tolist() == [i >= 30 and i % 2 == 0 for i in range(40)]

    def test_bucket_hash_join_randomized_vs_pandas(self):
        """5 seeded random shapes (dup keys, skew, partial overlap,
        empty intersections) — inner and left joins must equal the
        pandas merge oracle row-for-row."""
        for seed in range(5):
            rng = np.random.RandomState(seed)
            nl, nr = rng.randint(1, 60, size=2)
            ldf = pd.DataFrame(
                {
                    "k": rng.randint(0, 20, size=nl),
                    "l": rng.randint(-100, 100, size=nl),
                }
            )
            rdf = pd.DataFrame(
                {
                    "k": rng.randint(10, 30, size=nr),
                    "r": rng.randint(-100, 100, size=nr),
                }
            )
            for how in ("inner", "left"):
                got = (
                    bucket_hash_join(
                        rd.from_pandas(ldf).repartition(3),
                        rd.from_pandas(rdf).repartition(2),
                        on="k",
                        num_buckets=4,
                        how=how,
                    )
                    .to_pandas()
                    .sort_values(["k", "l", "r"], na_position="last")
                    .reset_index(drop=True)
                )
                want = (
                    ldf.merge(rdf, on="k", how=how)
                    .sort_values(["k", "l", "r"], na_position="last")
                    .reset_index(drop=True)
                )
                assert len(got) == len(want), (seed, how)
                for c in ("k", "l", "r"):
                    ga = got[c].to_numpy(dtype=np.float64, na_value=np.nan)
                    wa = want[c].to_numpy(dtype=np.float64, na_value=np.nan)
                    assert np.allclose(ga, wa, equal_nan=True), (seed, how, c)

    def test_anti_join_keys_broadcast_vs_bucketed(self):
        big = rd.from_items([{"k": i, "v": i * 2} for i in range(40)])
        keys = rd.from_items([{"k": i} for i in range(0, 40, 3)])
        bc = anti_join_keys(big, keys, on="k").to_pandas()
        bk = anti_join_keys(big, keys, on="k", broadcast_limit=0).to_pandas()
        want = sorted(i for i in range(40) if i % 3 != 0)
        assert sorted(bc["k"]) == want
        assert sorted(bk["k"]) == want
        got = bk.sort_values("k").reset_index(drop=True)
        assert got["v"].tolist() == [2 * k for k in want]

    def test_components_driver_vs_dataset(self):
        # two chains, one star, one isolated edge — multi-iteration case
        edges = [(1, 2), (2, 3), (3, 4), (10, 11), (12, 11), (13, 11),
                 (20, 21), (30, 31), (31, 32), (32, 30)]
        df = pd.DataFrame(edges, columns=["src", "dst"])
        drv = components_driver(df)
        ds = components_dataset(rd.from_pandas(df).repartition(3)).to_pandas()
        got = dict(zip(ds["node"], ds["label"]))
        assert got == drv
        assert got[4] == 1 and got[13] == 10 and got[21] == 20 and got[32] == 30

    def test_components_long_chain_pointer_doubling(self):
        """A 300-node path graph has propagation diameter 300 — plain
        min-label needs 300 iterations, far past max_iters=64. The
        pointer-doubling pass (engaged from iteration 3) must converge
        it to ONE component without tripping the non-convergence
        warning."""
        import warnings

        n = 300
        edges = pd.DataFrame(
            {"src": np.arange(n - 1), "dst": np.arange(1, n)}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ds = components_dataset(
                rd.from_pandas(edges).repartition(4)
            ).to_pandas()
        assert len(ds) == n
        assert (ds["label"] == 0).all()

    def test_hll_count_distinct_dataset(self):
        rows = [{"k": f"key-{i % 3000}"} for i in range(20000)]
        est = hll_count_distinct(rd.from_items(rows).repartition(6), "k")
        assert abs(est - 3000) / 3000 < 0.05

    def test_components_randomized_graphs(self):
        """Random sparse graphs (3 seeds): the Dataset label-propagation
        path must match the driver loop AND a union-find reference."""
        for seed in range(3):
            rng = np.random.RandomState(seed)
            n_edges = rng.randint(5, 40)
            edges = pd.DataFrame(
                {
                    "src": rng.randint(0, 30, size=n_edges),
                    "dst": rng.randint(0, 30, size=n_edges),
                }
            )
            drv = components_driver(edges)
            ds = components_dataset(
                rd.from_pandas(edges).repartition(2)
            ).to_pandas()
            got = dict(zip(ds["node"], ds["label"]))
            assert got == drv, seed

            # forced above-gate: the exchange loop must agree
            # (broadcast_limit=0 disables the driver-array path)
            ds2 = components_dataset(
                rd.from_pandas(edges).repartition(2), broadcast_limit=0
            ).to_pandas()
            got2 = dict(zip(ds2["node"], ds2["label"]))
            assert got2 == drv, seed

            # independent union-find reference
            parent: dict = {}

            def find(x):
                while parent.setdefault(x, x) != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for s_, d_ in zip(edges["src"], edges["dst"]):
                ra, rb = find(int(s_)), find(int(d_))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            want = {x: find(x) for x in parent}
            # union-find roots are component minima only if we always
            # attach the larger root under the smaller (done above)
            assert {k: v for k, v in got.items()} == {
                k: want[k] for k in got
            }, seed

    def test_components_exchange_midsize(self):
        """Forced exchange loop at multi-shard volume: 6k mixed edges
        (stars + random + a 500-node chain) across 6 blocks so messages
        really cross bucket boundaries, vs the union-find driver."""
        rng = np.random.RandomState(99)
        src = rng.randint(0, 2000, size=5000)
        dst = np.where(
            rng.random(5000) < 0.5,
            src - (src % 25),
            rng.randint(0, 2000, size=5000),
        )
        chain = np.arange(2000, 2500)
        edges = pd.DataFrame(
            {
                "src": np.concatenate([src, chain[:-1]]),
                "dst": np.concatenate([dst, chain[1:]]),
            }
        )
        drv = components_driver(edges)
        ds = components_dataset(
            rd.from_pandas(edges).repartition(6), broadcast_limit=0
        ).to_pandas()
        got = dict(zip(ds["node"], ds["label"]))
        assert got == drv

    def test_min_label_components_single_upstream_execution(self):
        """VERDICT r4 #3/#4: the edge plan must execute ONCE — the old
        count-then-consume pattern ran the (expensive dedup-verify)
        upstream twice. A counting actor inside the edge pipeline
        observes how many times each input block is processed."""
        import ray

        from vat_abcd_crawler_ray.ops.components import min_label_components

        @ray.remote
        class Counter:
            def __init__(self):
                self.n = 0

            def incr(self, k: int) -> None:
                self.n += k

            def get(self) -> int:
                return self.n

        counter = Counter.remote()
        edges = pd.DataFrame(
            {"src": np.arange(0, 99), "dst": np.arange(1, 100)}
        )
        n_parts = 4
        src = rd.from_pandas(edges).repartition(n_parts)

        def count_rows(t):
            ray.get(counter.incr.remote(t.num_rows))
            return t

        out = min_label_components(
            src.map_batches(count_rows, batch_format="pyarrow")
        ).to_pandas()
        assert (out["label"] == 0).all() and len(out) == 100
        # every edge row flowed through the counting stage exactly once
        assert ray.get(counter.get.remote()) == len(edges)
        rows = [
            {"host": f"h{i % 4}", "priority": (i * 7) % 13, "seq": i}
            for i in range(100)
        ]
        out = topk_per_key(
            rd.from_items(rows).repartition(5),
            key="host",
            k=3,
            sort_cols=["priority", "seq"],
            ascending=[False, True],
        ).to_pandas()
        assert len(out) == 12
        expect = (
            pd.DataFrame(rows)
            .sort_values(["priority", "seq"], ascending=[False, True], kind="mergesort")
            .groupby("host", sort=False)
            .head(3)
        )
        got = out.sort_values(["host", "priority", "seq"]).reset_index(drop=True)
        want = expect.sort_values(["host", "priority", "seq"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["host", "priority", "seq"]], want[["host", "priority", "seq"]])


@pytest.mark.parametrize("parts", [1, 3, 8])
def test_first_wins_matches_pandas_groupby_min(parts):
    """The crawl's first-wins kernel over the key-hash parts of the
    rows (an empty table among the inputs): each key's survivor is its
    row with the least ``ordv`` — pandas ``groupby.min`` — carrying its
    own columns, and each part's survivors come in ``ordv`` order."""
    import pyarrow as pa

    from vat_abcd_crawler_ray.ops.hashagg import split_table
    from vat_abcd_crawler_ray.pipelines.crawl import first_wins

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 300, size=2_000)
    vals = rng.permutation(10_000)[:2_000]  # globally unique
    rows = pa.concat_tables(
        [pa.table({"key": keys, "ordv": vals, "tag": vals * 10}),
         pa.table({"key": pa.array([], pa.int64()), "ordv": pa.array([], pa.int64()),
                   "tag": pa.array([], pa.int64())})]
    )
    won = [first_wins(part, "ordv") for part in split_table(rows, "key", parts)]
    for t in won:
        assert (np.diff(t["ordv"].to_numpy()) > 0).all()
    got = pa.concat_tables(won).to_pandas().sort_values("key").reset_index(drop=True)
    expect = (
        pd.DataFrame({"key": keys, "ordv": vals}).groupby("key", as_index=False)["ordv"].min()
    )
    pd.testing.assert_frame_equal(got[["key", "ordv"]], expect)
    assert (got["tag"] == got["ordv"] * 10).all()
    assert first_wins(rows.slice(0, 0), "ordv").num_rows == 0
