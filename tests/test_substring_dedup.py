"""pipelines/substring_dedup — winnowed-fingerprint substring-level
duplication (Schleimer et al. 2003 winnowing; Lee et al. 2021
motivation). The detection guarantee is the test spine: any shared
substring of length >= k + w - 1 must be detected; clean docs must
stay near zero."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from vat_abcd_crawler_ray.pipelines.substring_dedup import (
    fingerprints_batch,
    substring_dup_stats,
    winnow,
)


def _rand_text(rng, n):
    return "".join(rng.choice(list("abcdefghijklmnop rstuvw"), n))


class TestWinnow:
    def test_deterministic_and_sorted_unique(self):
        rng = np.random.default_rng(0)
        t = _rand_text(rng, 500)
        a, b = winnow(t), winnow(t)
        assert (a == b).all()
        assert (np.diff(a) > 0).all()

    def test_density(self):
        # winnowing selects ~2/(w+1) of positions; unique-ing dedupes
        rng = np.random.default_rng(1)
        t = _rand_text(rng, 4000)
        fp = winnow(t, k=20, w=16)
        assert 0.02 < len(fp) / len(t) < 0.2

    def test_guarantee_shared_span_detected(self):
        # ANY shared substring of length >= k + w - 1 must share a
        # fingerprint, wherever it lands in either document
        rng = np.random.default_rng(2)
        k, w = 10, 8
        span = _rand_text(rng, k + w - 1)
        for trial in range(20):
            a = _rand_text(rng, 200) + span + _rand_text(rng, 200)
            cut = int(rng.integers(0, 300))
            b = _rand_text(rng, cut) + span + _rand_text(rng, 300 - cut)
            shared = np.intersect1d(winnow(a, k, w), winnow(b, k, w))
            assert len(shared) > 0, trial

    def test_short_doc(self):
        assert len(winnow("tiny", k=20, w=16)) == 1


@pytest.mark.usefixtures("ray_session")
class TestSubstringDupStats:
    K, W = 10, 8

    def _corpus(self, rng, n_clean=40, n_boiler=20):
        boiler = _rand_text(rng, 120)  # far above the guarantee length
        rows = []
        for i in range(n_clean):
            rows.append({"doc_id": i, "text": _rand_text(rng, 400)})
        for i in range(n_boiler):
            body = _rand_text(rng, 300)
            rows.append({"doc_id": 1000 + i, "text": body + boiler})
        return rows

    def test_boilerplate_docs_flagged_clean_docs_not(self):
        rng = np.random.default_rng(3)
        ds = rd.from_items(self._corpus(rng))
        out = substring_dup_stats(ds, k=self.K, w=self.W).to_pandas()
        out = out.set_index("doc_id").sort_index()
        clean = out[out.index < 1000]
        boiler = out[out.index >= 1000]
        # every boilerplate doc shares the 120-char block
        assert (boiler["n_dup_fp"] > 0).all()
        assert boiler["dup_fp_frac"].mean() > 0.1
        # random 23-char alphabet text: accidental shared 10-grams are
        # possible but rare
        assert clean["dup_fp_frac"].mean() < 0.05

    def test_above_gate_path_matches_broadcast(self):
        rng = np.random.default_rng(4)
        ds = rd.from_items(self._corpus(rng, 20, 10)).repartition(4)
        a = substring_dup_stats(
            ds, k=self.K, w=self.W
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = substring_dup_stats(
            ds, k=self.K, w=self.W, broadcast_limit=0
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert (a["doc_id"] == b["doc_id"]).all()
        assert (a["n_fp"] == b["n_fp"]).all()
        assert (a["n_dup_fp"] == b["n_dup_fp"]).all()

    def test_every_doc_gets_exactly_one_row(self):
        rng = np.random.default_rng(5)
        ds = rd.from_items(self._corpus(rng, 15, 5)).repartition(3)
        out = substring_dup_stats(ds, k=self.K, w=self.W).to_pandas()
        assert len(out) == 20 and out["doc_id"].is_unique

    @staticmethod
    def _reference(rows, k, w, min_docs=2):
        """Per-doc stats in plain pandas, from ``winnow`` alone."""
        fp = pd.DataFrame(
            [(r["doc_id"], f) for r in rows for f in winnow(r["text"], k, w)],
            columns=["doc_id", "fp"],
        )
        n_docs = fp.groupby("fp")["doc_id"].transform("size")
        fp["dup"] = (n_docs >= min_docs).astype(np.int64)
        ref = fp.groupby("doc_id").agg(n_fp=("fp", "size"),
                                       n_dup_fp=("dup", "sum"))
        ref["dup_fp_frac"] = ref["n_dup_fp"] / ref["n_fp"]
        return ref.sort_index()

    @pytest.mark.parametrize("limit", [5_000_000, 0],
                             ids=["broadcast", "above_gate"])
    @pytest.mark.parametrize("id_kind", ["int", "str"])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_unordered_ids_match_reference(self, limit, id_kind, blocks):
        # ids neither ascending nor contiguous-sorted within a block:
        # per-doc counts must not depend on the order ids arrive in
        rng = np.random.default_rng(8)
        rows = self._corpus(rng, 12, 6)
        ids = rng.permutation(len(rows))[::-1]
        for r, i in zip(rows, ids):
            r["doc_id"] = int(i) if id_kind == "int" else f"https://h{i % 3}/p{i}"
        ds = rd.from_pandas(pd.DataFrame(rows))
        if blocks > 1:
            ds = ds.repartition(blocks)
        got = substring_dup_stats(
            ds, k=self.K, w=self.W, broadcast_limit=limit
        ).to_pandas().set_index("doc_id").sort_index()
        want = self._reference(rows, self.K, self.W)
        assert got.index.is_unique and list(got.index) == list(want.index)
        assert (got["n_fp"].to_numpy() == want["n_fp"].to_numpy()).all()
        assert (got["n_dup_fp"].to_numpy() == want["n_dup_fp"].to_numpy()).all()
        np.testing.assert_allclose(got["dup_fp_frac"], want["dup_fp_frac"])

    def test_min_docs_threshold(self):
        # a span shared by exactly 2 docs disappears at min_docs=3
        rng = np.random.default_rng(6)
        span = _rand_text(rng, 60)
        rows = [
            {"doc_id": 0, "text": _rand_text(rng, 200) + span},
            {"doc_id": 1, "text": span + _rand_text(rng, 200)},
            {"doc_id": 2, "text": _rand_text(rng, 260)},
        ]
        ds = rd.from_items(rows)
        two = substring_dup_stats(ds, k=self.K, w=self.W).to_pandas()
        three = substring_dup_stats(
            ds, k=self.K, w=self.W, min_docs=3
        ).to_pandas()
        assert two.set_index("doc_id")["n_dup_fp"][0] > 0
        assert (three["n_dup_fp"] == 0).all()


class TestFingerprintsBatch:
    def test_contiguous_rows_per_doc(self):
        rng = np.random.default_rng(7)
        df = pd.DataFrame({
            "doc_id": [5, 3, 9],
            "text": [_rand_text(rng, 300) for _ in range(3)],
        })
        out = fingerprints_batch(df, k=10, w=8)
        # rows grouped by doc in input order
        change = out["doc_id"].ne(out["doc_id"].shift()).sum()
        assert change == 3
