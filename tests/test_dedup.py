"""Dedup family tests over synthetic near-duplicate corpora."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

import ray
import ray.data as rd

from vat_abcd_crawler_ray.pipelines.dedup import (
    char_shingles,
    embedding_neardup_pairs,
    exact_dedup,
    minhash_lsh_dedup,
    minhash_signature,
    ngram_jaccard,
    _perm_params,
    simhash64,
    simhash_dedup,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from the warm windowsill and the birds sing in the garden trees"
)


def _docs():
    rows = []
    for i in range(20):
        filler = " ".join(f"w{i}x{j}" for j in range(40))
        rows.append({"doc_id": i, "text": f"{BASE} variant {i} {filler}"})
    # exact duplicates of doc 0
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    rows.append({"doc_id": 101, "text": rows[0]["text"]})
    # near duplicate of doc 1 (one word changed)
    rows.append({"doc_id": 102, "text": rows[1]["text"].replace("garden", "forest")})
    return rows


@pytest.mark.usefixtures("ray_session")
class TestExactDedup:
    def test_first_wins(self):
        out = exact_dedup(rd.from_items(_docs())).to_pandas()
        assert 100 not in out["doc_id"].values
        assert 101 not in out["doc_id"].values
        assert 0 in out["doc_id"].values
        assert 102 in out["doc_id"].values  # near-dup kept by exact
        assert len(out) == 21

    def test_prefix_key(self):
        rows = [
            {"doc_id": 3, "text": "abcdefXX tail one"},
            {"doc_id": 1, "text": "abcdefYY tail two"},
            {"doc_id": 2, "text": "zzzzzzzz other"},
        ]
        out = exact_dedup(rd.from_items(rows), key_len=6).to_pandas()
        assert sorted(out["doc_id"]) == [1, 2]  # min doc_id wins per prefix

    @pytest.mark.parametrize("partitions", ["one", "many"])
    @given(
        texts=st.lists(
            st.one_of(st.none(), st.text(alphabet="abé✨", max_size=5)),
            min_size=1,
            max_size=40,
        ),
        key_len=st.sampled_from([None, 1, 2, 3]),
        blocks=st.integers(2, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    @hyp_settings(max_examples=6, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_kept_ids_equal_pandas_reference(
        self, partitions, texts, key_len, blocks, seed
    ):
        # copies spread over several blocks, prefix collisions under
        # key_len, null texts, and (with "many") several digest
        # partitions of the copy finder at the session's 4 CPUs
        from vat_abcd_crawler_ray.ops import hashagg

        ids = np.random.default_rng(seed).permutation(10 * len(texts))[: len(texts)]
        frame = pd.DataFrame({"doc_id": ids, "text": texts})
        ds = rd.from_pandas([frame.iloc[i::blocks] for i in range(blocks)])
        with pytest.MonkeyPatch.context() as mp:
            if partitions == "many":
                mp.setattr(hashagg, "_ROWS_PER_PART", 3)
            kept = sorted(exact_dedup(ds, key_len=key_len).to_pandas()["doc_id"])
        ref = frame.sort_values("doc_id")
        key = ref["text"].str.slice(0, key_len) if key_len else ref["text"]
        dup = key.duplicated() & key.notna()
        assert kept == sorted(ref.loc[~dup, "doc_id"])

    def test_many_partitions_split_the_copies(self, monkeypatch):
        # the multi-partition reducer path is taken: every partition
        # returns its own edge table, and together they hold each copy
        import vat_abcd_crawler_ray.pipelines.dedup as dd
        from vat_abcd_crawler_ray.ops import hashagg

        monkeypatch.setattr(hashagg, "_ROWS_PER_PART", 4)
        ds = rd.from_items(_docs()).materialize()
        counts, refs = dd._copy_edges(dd.block_refs(ds), "doc_id", "text")
        assert len(refs) == 4
        edges = pa.concat_tables(ray.get(refs))
        assert sum(ray.get(counts)) == edges.num_rows == 2
        assert set(zip(edges["src"].to_pylist(), edges["dst"].to_pylist())) == {
            (0, 100),
            (0, 101),
        }


@pytest.mark.usefixtures("ray_session")
class TestIdPolicy:
    """The dedup family keys on non-null integer ids and says so."""

    @pytest.mark.parametrize("ids", ["string", "null"])
    @pytest.mark.parametrize("method", ["exact", "minhash", "simhash"])
    def test_non_integer_or_null_ids_raise(self, method, ids):
        import vat_abcd_crawler_ray.pipelines.dedup as dd

        frame = pd.DataFrame([(r["doc_id"], r["text"]) for r in _docs()],
                             columns=["doc_id", "text"])
        if ids == "string":
            frame["doc_id"] = "u" + frame["doc_id"].astype(str)
        else:
            frame["doc_id"] = frame["doc_id"].astype("Int64")
            frame.loc[3, "doc_id"] = None
        run = {"exact": dd.exact_dedup, "minhash": dd.minhash_lsh_dedup,
               "simhash": dd.simhash_dedup}[method]
        with pytest.raises(ValueError, match="dedup ids must be"):
            run(rd.from_pandas(frame)).materialize()


class TestMinhashMath:
    def test_jaccard_estimate(self):
        a, b = _perm_params(128)
        s1 = char_shingles(BASE)
        s2 = char_shingles(BASE.replace("dog", "cat"))
        est = (minhash_signature(s1, a, b) == minhash_signature(s2, a, b)).mean()
        import numpy as np
        inter = np.intersect1d(s1, s2).size
        true_j = inter / (s1.size + s2.size - inter)
        assert abs(est - true_j) < 0.15

    def test_batch_kernels_bit_identical_to_scalar(self):
        # the vectorized batch kernels must reproduce the scalar path
        # bit-for-bit (the SQL oracle re-derives the scalar math)
        from vat_abcd_crawler_ray.pipelines.dedup import (
            band_buckets,
            band_buckets_batch,
            minhash_signatures_batch,
        )

        a, b = _perm_params(32)
        texts = [
            BASE,
            BASE.replace("dog", "cat"),
            "",  # empty
            "ab",  # shorter than k=5 → whole-text fold
            "abcd",  # exactly k-1
            "abcde",  # exactly k → one shingle
            "aaaaaaaaaa",  # all-identical shingles → unique collapses to 1
            "naïve café — ünïcode ✓ text with ✨ emoji",  # multi-byte
            BASE * 3,  # long
        ]
        sigs = minhash_signatures_batch(texts, a, b, k=5)
        assert sigs.shape == (len(texts), 32)
        for i, t in enumerate(texts):
            expected = minhash_signature(char_shingles(t, 5), a, b)
            np.testing.assert_array_equal(sigs[i], expected, err_msg=t[:30])
        buckets = band_buckets_batch(sigs, bands=8)
        assert buckets.shape == (len(texts), 8)
        for i in range(len(texts)):
            np.testing.assert_array_equal(buckets[i], band_buckets(sigs[i], 8))

    def test_char_shingle_hashes_equal_percent_form(self):
        # the floor-divide mod must give the `%` fold's hashes bit for
        # bit (winnowing fingerprints are compared across runs)
        from vat_abcd_crawler_ray.pipelines.dedup import (
            _MH_CB,
            _MH_P,
            char_shingle_hashes,
        )

        def percent_form(text, k):
            cp = np.frombuffer(text.encode("utf-32-le"), np.uint32).astype(np.int64)
            n = len(cp)
            if n < k:
                h = np.int64(0)
                for c in cp:
                    h = (h * _MH_CB + c) % _MH_P
                return np.array([h], dtype=np.int64)
            h = np.zeros(n - k + 1, dtype=np.int64)
            for j in range(k):
                h = (h * _MH_CB + cp[j : n - k + 1 + j]) % _MH_P
            return h

        rng = np.random.default_rng(5)
        # code points from ASCII to the astral planes, surrogates excluded
        pool = np.r_[
            np.arange(32, 127), np.arange(0xA0, 0xD800), np.arange(0xE000, 0x110000)
        ]
        for _ in range(200):
            text = "".join(map(chr, rng.choice(pool, int(rng.integers(0, 80)))))
            for k in (5, 20):
                np.testing.assert_array_equal(
                    char_shingle_hashes(text, k), percent_form(text, k)
                )

    def test_ngram_jaccard(self):
        assert ngram_jaccard("a b c d e", "a b c d e") == 1.0
        assert ngram_jaccard("a b c d e", "x y z w v") == 0.0
        assert 0.0 < ngram_jaccard(BASE, BASE.replace("dog", "cat")) < 1.0

    def test_simhash_near_for_near_texts(self):
        h1 = simhash64(BASE)
        h2 = simhash64(BASE.replace("garden", "forest"))
        h3 = simhash64("completely different words entirely here now")
        d12 = bin((h1 ^ h2) & (1 << 64) - 1).count("1")
        d13 = bin((h1 ^ h3) & (1 << 64) - 1).count("1")
        assert d12 < d13
        assert d12 <= 6


@pytest.mark.usefixtures("ray_session")
class TestGateBranches:
    """The size-gated scale paths must agree with the default paths."""

    @pytest.mark.parametrize("parts", [1, 4])
    def test_hot_reps_one_or_many_partitions_equal_reference(
        self, parts, monkeypatch
    ):
        # _hot_reps combines the signing tasks' per-block band partials
        # with hot_combine alone; one reducer or several, it must give
        # the hot buckets and min ids of the exploded band table
        import ray

        import vat_abcd_crawler_ray.pipelines.dedup as dd

        a, b = dd._perm_params(64)
        rows = _docs()
        ids = np.array([r["doc_id"] for r in rows], np.int64)
        sigs = dd.minhash_signatures_batch([r["text"] for r in rows], a, b, 5)
        partials = [
            dd._band_partial(ids[s], sigs[s], 16)
            for s in (slice(0, 9), slice(9, 17), slice(17, None))
        ]
        monkeypatch.setattr(dd, "combine_parts", lambda rows: parts)
        buckets, rep_ids = dd._hot_reps(
            [ray.put(p) for p in partials], sum(p.num_rows for p in partials)
        )
        band = pd.DataFrame(
            {
                "bucket": dd.band_buckets_batch(sigs, 16).ravel(),
                "id": np.repeat(ids, 16),
            }
        )
        ref = band.groupby("bucket").agg(n=("id", "size"), rep=("id", "min"))
        ref = ref[ref["n"] >= 2]
        np.testing.assert_array_equal(buckets, ref.index.to_numpy(np.int64))
        np.testing.assert_array_equal(rep_ids, ref["rep"].to_numpy(np.int64))
        assert len(buckets) >= 16  # the planted copies share every band

    def test_minhash_grouped_fallback_equals_broadcast(self, monkeypatch):
        import vat_abcd_crawler_ray.pipelines.dedup as dd

        kept_default = sorted(
            dd.minhash_lsh_dedup(rd.from_items(_docs()), threshold=0.8)
            .to_pandas()["doc_id"]
            .tolist()
        )
        # force the above-gate band-table grouped star verify
        monkeypatch.setattr(dd, "_REP_BROADCAST_LIMIT", -1)
        kept_grouped = sorted(
            dd.minhash_lsh_dedup(rd.from_items(_docs()), threshold=0.8)
            .to_pandas()["doc_id"]
            .tolist()
        )
        assert kept_default == kept_grouped


@pytest.mark.usefixtures("ray_session")
class TestMinhashArguments:
    def test_bands_must_divide_num_perm(self):
        with pytest.raises(ValueError, match="multiple of bands"):
            minhash_lsh_dedup(rd.from_items(_docs()), num_perm=64, bands=10)

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.01])
    def test_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            minhash_lsh_dedup(rd.from_items(_docs()), threshold=threshold)


@pytest.mark.usefixtures("ray_session")
class TestNearDedup:
    def test_minhash_lsh_removes_exact_and_near(self):
        out, edges = minhash_lsh_dedup(
            rd.from_items(_docs()), threshold=0.8, return_edges=True
        )
        kept = out.to_pandas()["doc_id"].tolist()
        assert 100 not in kept and 101 not in kept
        assert 102 not in kept  # near-dup of 1 caught
        assert 0 in kept and 1 in kept
        assert edges.count() >= 3

    def test_minhash_on_blocks_left_empty_by_a_filter(self):
        # a filter can leave empty blocks without a schema; the dedup's
        # block tasks must take them
        ds = rd.from_items(_docs()).filter(lambda r: r["doc_id"] > 10_000)
        assert minhash_lsh_dedup(ds).count() == 0

    def test_simhash_dedup(self):
        out = simhash_dedup(rd.from_items(_docs()), hamming_max=3).to_pandas()
        kept = out["doc_id"].tolist()
        assert 100 not in kept and 101 not in kept
        assert 0 in kept

    def test_embedding_neardup(self):
        rng = np.random.RandomState(0)
        rows = []
        for i in range(30):
            v = rng.normal(size=16)
            rows.append({"vec_id": i, "embedding": v.tolist(), "label": i % 3})
        # vec 100 ≈ vec 0 (same label block)
        v = np.asarray(rows[0]["embedding"]) + rng.normal(scale=1e-3, size=16)
        rows.append({"vec_id": 100, "embedding": v.tolist(), "label": 0})
        pairs = embedding_neardup_pairs(
            rd.from_items(rows), threshold=0.99
        ).to_pandas()
        assert {(0, 100)} == set(zip(pairs["id_a"], pairs["id_b"]))


# ---------------------------------------------------------------------------
# kept ids against a per-document reference
# ---------------------------------------------------------------------------

_VOCAB = [f"{c}{v}{n}" for c in "bcdfgklmnprst" for v in "aeiou" for n in "lnrs"]


def _reference_kept(rows, threshold=0.8, num_perm=64, bands=16, k=5):
    """Kept ids from signing EVERY row on its own: per-doc
    ``minhash_signature`` + ``band_buckets``, star verify against each
    bucket's min id, ``components_driver``, min id per component."""
    from collections import defaultdict

    from vat_abcd_crawler_ray.ops.components import components_driver
    from vat_abcd_crawler_ray.pipelines.dedup import band_buckets

    a, b = _perm_params(num_perm)
    sigs = {
        i: minhash_signature(char_shingles(t, k), a, b)
        for i, t in rows
        if t is not None
    }
    buckets = defaultdict(set)
    for i, sig in sigs.items():
        for bucket in band_buckets(sig, bands):
            buckets[int(bucket)].add(i)
    edges = set()
    for members in buckets.values():
        rep = min(members)
        for m in members - {rep}:
            if (sigs[m] == sigs[rep]).mean() >= threshold:
                edges.add((rep, m))
    labels = components_driver(pd.DataFrame(sorted(edges), columns=["src", "dst"]))
    removed = {n for n, lab in labels.items() if n != lab}
    return sorted(i for i, _ in rows if i not in removed)


def _lone_copies_corpus(rng, verified: bool):
    """A text held by rows 100-102 whose every band bucket also holds a
    smaller-id variant of it, so no bucket has 100 as its rep. With
    ``verified`` the variants reach the 0.8 threshold, and signing
    every row removes all three; without, they fall short, nothing
    links the three, and all are kept."""
    from vat_abcd_crawler_ray.pipelines.dedup import band_buckets

    a, b = _perm_params(64)
    words = list(rng.choice(_VOCAB, 50))
    text = " ".join(words)
    sig = minhash_signature(char_shingles(text), a, b)
    buckets = band_buckets(sig, 16)
    cover = {}  # band → the first variant found sharing it
    for _ in range(5000):
        w = list(words)
        changes = rng.integers(1, 3) if verified else rng.integers(4, 7)
        for j in rng.choice(len(w), int(changes), replace=False):
            w[j] = str(rng.choice(_VOCAB))
        v = " ".join(w)
        vs = minhash_signature(char_shingles(v), a, b)
        if v == text or ((vs == sig).mean() >= 0.8) != verified:
            continue
        for band in np.flatnonzero(band_buckets(vs, 16) == buckets):
            cover.setdefault(int(band), v)
        if len(cover) == 16:
            break
    assert len(cover) == 16, "variant search did not cover every band"
    variants = sorted(set(cover.values()))
    rows = [(i + 1, v) for i, v in enumerate(variants)]
    return rows + [(100, text), (101, text), (102, text), (103, None)]


def _corpus(kind: str, seed: int):
    """(id, text) rows of one corpus kind, ids shuffled so that a copy's
    id may be smaller than its original's; two null texts ride along."""
    rng = np.random.default_rng(seed)
    if kind in ("lone_copies", "verified_lone_copies"):
        return _lone_copies_corpus(rng, verified=kind == "verified_lone_copies")
    base = [
        " ".join(rng.choice(_VOCAB, int(rng.integers(30, 60))))
        for _ in range(int(rng.integers(4, 10)))
    ]
    texts = list(base)
    near = []
    if kind in ("near", "copies_of_near"):
        for t in base[: len(base) // 2]:
            words = t.split()
            words[int(rng.integers(len(words)))] = "zzz"
            near.append(" ".join(words))
        texts += near
    if kind == "exact":
        texts += [base[int(j)] for j in rng.integers(0, len(base), len(base))]
    if kind == "copies_of_near":
        texts += [near[int(j)] for j in rng.integers(0, len(near), 2 * len(near))]
    texts += [None, None]
    ids = rng.permutation(10 * len(texts))[: len(texts)]
    return [(int(i), t) for i, t in zip(ids, texts)]


@pytest.mark.usefixtures("ray_session")
class TestMinhashEqualsPerDocReference:
    """The kept ids of the one-sign-per-distinct-text pipeline equal a
    reference that signs every row: with the exact-copy collapse on the
    broadcast and the grouped star verify, and with the collapse off."""

    @pytest.mark.parametrize("path", ["broadcast", "grouped", "uncollapsed"])
    @pytest.mark.parametrize(
        "kind",
        [
            "exact",
            "near",
            "copies_of_near",
            "distinct",
            "lone_copies",
            "verified_lone_copies",
        ],
    )
    @given(seed=st.integers(0, 2**31 - 1))
    @hyp_settings(max_examples=3, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_kept_ids_and_edges(self, kind, path, seed):
        import vat_abcd_crawler_ray.pipelines.dedup as dd
        from vat_abcd_crawler_ray.ops.components import components_driver

        rows = _corpus(kind, seed)
        frame = pd.DataFrame(rows, columns=["doc_id", "text"])
        ds = rd.from_pandas([frame.iloc[0::2], frame.iloc[1::2]])
        with pytest.MonkeyPatch.context() as mp:
            if path == "grouped":
                mp.setattr(dd, "_REP_BROADCAST_LIMIT", -1)
            if path == "uncollapsed":
                mp.setattr(dd, "_COPY_BROADCAST_LIMIT", -1)
            out, edges = dd.minhash_lsh_dedup(ds, return_edges=True)
            kept = sorted(out.to_pandas()["doc_id"].tolist())
            # every path types its edge set, an edge-free one too; it is
            # read by block, since Ray's to_pandas() of a zero-row
            # Dataset has no columns
            assert edges.schema().names == ["src", "dst"]
            edges = pa.concat_tables(ray.get(edges.to_arrow_refs())).to_pandas()
        assert kept == _reference_kept(rows)
        # the removed ids are exactly the non-root nodes of the edge
        # graph's components
        removed = set(frame["doc_id"]) - set(kept)
        labels = components_driver(edges)
        assert {n for n, label in labels.items() if n != label} == removed
        assert set(frame.loc[frame["text"].isna(), "doc_id"]) <= set(kept)
        if path != "uncollapsed":
            # removed exact copies are (min id of their text, id) edges
            texts = frame.dropna()
            owner = texts.groupby("text")["doc_id"].transform("min")
            copies = (owner != texts["doc_id"]) & texts["doc_id"].isin(removed)
            assert set(zip(owner[copies], texts["doc_id"][copies])) <= set(
                zip(edges["src"], edges["dst"])
            )
        if kind == "lone_copies":
            assert {100, 101, 102} <= set(kept)
        if kind == "verified_lone_copies":
            assert not {100, 101, 102} & set(kept)
