"""CLI subcommand tests (SURVEY §2.8 user surface).

The ``dedup`` / ``textstats`` subcommands are the batch front door to
the LLM-pipeline operators the oracle queries gate; these tests drive
``cli.main`` in-process (the commands join the session fixture's Ray
session and must NOT tear it down — `_init_ray` ownership contract)
and check the written parquet against the library pipelines called
directly.
"""

from __future__ import annotations

import glob
import json

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from vat_abcd_crawler_ray import cli


def _docs_frame(n: int = 120) -> pd.DataFrame:
    words = ["the", "quick", "brown", "fox", "jumps", "over", "lazy",
             "dog", "and", "runs", "far", "away", "home", "again"]
    rng = np.random.default_rng(7)
    texts = []
    for i in range(n):
        if i % 10 == 3:  # exact duplicate of the previous doc
            texts.append(texts[-1])
        else:
            k = 8 + int(rng.integers(0, 12))
            texts.append(" ".join(words[int(j) % len(words)]
                                  for j in rng.integers(0, len(words), k)))
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "text": texts})


@pytest.fixture(scope="module")
def docs_parquet(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_docs") / "documents.parquet"
    _docs_frame().to_parquet(path, index=False)
    return str(path)


def _read_dir(out_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pds

    # handles both flat dirs and hive-partitioned layouts (curate
    # writes split=... subdirectories when splits are requested)
    ds = pds.dataset(out_dir, format="parquet", partitioning="hive")
    df = ds.to_table().to_pandas()
    assert len(df.columns), f"no parquet written under {out_dir}"
    for c in df.columns:  # hive partition cols come back as category
        if df[c].dtype.name == "category":
            df[c] = df[c].astype(str)
    return df


@pytest.mark.parametrize("method", ["exact", "minhash", "simhash"])
def test_cli_dedup_matches_library(method, docs_parquet, tmp_path,
                                   capsys, ray_session):
    import ray.data

    out = str(tmp_path / f"out_{method}")
    rc = cli.main(["dedup", "--input", docs_parquet, "--out", out,
                   "--method", method])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    got = _read_dir(out)

    from vat_abcd_crawler_ray.pipelines import dedup as dd

    ds = ray.data.read_parquet(docs_parquet)
    if method == "exact":
        want = dd.exact_dedup(ds).to_pandas()
    elif method == "minhash":
        want = dd.minhash_lsh_dedup(ds).to_pandas()
    else:
        want = dd.simhash_dedup(ds).to_pandas()

    assert report["rows_in"] == 120
    assert report["rows_kept"] == len(got) == len(want)
    assert report["rows_removed"] == 120 - len(want)
    assert sorted(got["doc_id"]) == sorted(want["doc_id"])
    # kept rows retain the full input schema
    assert {"doc_id", "text"} <= set(got.columns)
    # the exact-duplicate plants guarantee something was removed
    assert report["rows_removed"] > 0


def test_cli_dedup_exact_key_len(docs_parquet, tmp_path, capsys,
                                 ray_session):
    import ray.data

    out = str(tmp_path / "out_prefix")
    rc = cli.main(["dedup", "--input", docs_parquet, "--out", out,
                   "--method", "exact", "--key-len", "8"])
    assert rc == 0
    got = _read_dir(out)

    from vat_abcd_crawler_ray.pipelines import dedup as dd

    want = dd.exact_dedup(ray.data.read_parquet(docs_parquet),
                          key_len=8).to_pandas()
    assert sorted(got["doc_id"]) == sorted(want["doc_id"])


def test_cli_textstats_matches_library(docs_parquet, tmp_path, capsys,
                                       ray_session):
    out = str(tmp_path / "out_ts")
    rc = cli.main(["textstats", "--input", docs_parquet, "--out", out])
    assert rc == 0
    got = _read_dir(out).sort_values("doc_id").reset_index(drop=True)

    from vat_abcd_crawler_ray.functions import textstats as ts

    src = pd.read_parquet(docs_parquet).sort_values("doc_id")
    texts = src["text"].reset_index(drop=True)
    assert list(got["doc_id"]) == list(src["doc_id"])
    assert list(got["lang_pred"]) == list(ts.langid(texts))
    np.testing.assert_array_equal(got["n_tokens"].to_numpy(),
                                  np.asarray(ts.token_count(texts)))
    np.testing.assert_array_equal(got["fp"].to_numpy(),
                                  np.asarray(ts.fingerprint(texts)))
    q = ts.quality_features(texts)
    for col in q.columns:
        np.testing.assert_allclose(got[col].to_numpy(),
                                   q[col].to_numpy(), rtol=1e-12)


def test_cli_leaves_session_alive(docs_parquet, tmp_path, capsys,
                                  ray_session):
    """Commands joining an existing Ray session must not shut it down."""
    import ray

    assert ray.is_initialized()
    cli.main(["textstats", "--input", docs_parquet,
              "--out", str(tmp_path / "ts2")])
    assert ray.is_initialized()


def test_cli_curate_full_chain(docs_parquet, tmp_path, capsys, ray_session):
    """curate = clean_lines → scrub_pii → sample → split → pack, all
    deterministic; output columns and invariants checked end to end."""
    out_dir = str(tmp_path / "curated")
    rc = cli.main([
        "curate", "--input", docs_parquet, "--out", out_dir,
        "--keep-unterminated",
        "--sample", "0.9", "--splits", "train=0.8,val=0.2",
        "--salt", "3", "--pack-budget", "256",
    ])
    assert rc == 0
    got = _read_dir(out_dir)
    src = pd.read_parquet(docs_parquet)
    # sampled subset of source ids, with every curation column present
    assert 0 < len(got) <= len(src)
    assert set(got["doc_id"]) <= set(src["doc_id"])
    for col in ("text", "n_lines", "n_kept", "n_email", "n_tokens",
                "split", "pack_id", "pack_offset", "oversize"):
        assert col in got.columns, col
    assert set(got["split"]) <= {"train", "val"}
    fills = got[~got.oversize].groupby("pack_id")["n_tokens"].sum()
    assert (fills <= 256).all()
    # determinism: a second run selects the identical sample
    out2 = str(tmp_path / "curated2")
    cli.main([
        "curate", "--input", docs_parquet, "--out", out2,
        "--keep-unterminated",
        "--sample", "0.9", "--splits", "train=0.8,val=0.2",
        "--salt", "3", "--pack-budget", "256",
    ])
    assert sorted(_read_dir(out2)["doc_id"]) == sorted(got["doc_id"])


def test_cli_ingest_then_curate(tmp_path, capsys, ray_session):
    """The full web-corpus chain as two commands: WARC dir → ingest →
    documents parquet → curate → filtered/split parquet."""
    from vat_abcd_crawler_ray.sources.warc import write_warc

    wdir = tmp_path / "warcs"
    wdir.mkdir()
    for f in range(2):
        recs = [{
            "url": f"https://s{f}.example/p{i}",
            "status": 200 if i % 5 else 503,  # some non-2xx to filter
            "content_type": "text/html",
            "body": (
                f"<html><head><title>T{f}-{i}</title></head><body>"
                f"<p>A proper sentence number {i} appears here.</p>"
                f"</body></html>"
            ).encode(),
        } for i in range(20)]
        (wdir / f"{f}.warc.gz").write_bytes(write_warc(recs, gz=True))

    docs_out = str(tmp_path / "docs")
    rc = cli.main(["ingest", "--warc", str(wdir), "--out", docs_out])
    assert rc == 0
    docs = _read_dir(docs_out)
    assert len(docs) == 2 * 16  # 4 of 20 per file were 503
    assert {"url", "title", "text", "n_links"} <= set(docs.columns)
    assert docs["text"].str.contains("proper sentence").all()
    assert not docs["text"].str.contains("title").any()

    cur_out = str(tmp_path / "curated")
    rc = cli.main([
        "curate", "--input", docs_out, "--out", cur_out,
        "--id-col", "url", "--splits", "train=0.9,val=0.1",
    ])
    assert rc == 0
    cur = _read_dir(cur_out)
    assert len(cur) == len(docs)
    assert set(cur["split"]) <= {"train", "val"}


def test_cli_analyze_report(docs_parquet, tmp_path, capsys, ray_session):
    rc = cli.main([
        "analyze", "--input", docs_parquet,
        "--top-terms", "50",
        "--out-terms", str(tmp_path / "terms.parquet"),
    ])
    assert rc == 0
    import json as _json

    report = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    src = pd.read_parquet(docs_parquet)
    assert report["n_docs"] == len(src)
    assert report["total_tokens"] > 0
    assert 0 <= report["low_quality_frac"] <= 1
    assert abs(sum(report["lang_mix"].values()) - 1.0) < 0.01
    assert 0 <= report["substring_dup_frac_mean"] <= 1
    assert len(report["top_terms"]) <= 20
    terms = pd.read_parquet(tmp_path / "terms.parquet")
    assert {"term", "tf", "df"} <= set(terms.columns)
    # report's top term agrees with the written table
    assert report["top_terms"][0]["term"] == terms.iloc[0]["term"]


def test_cli_lm_train_then_curate_ppl_filter(docs_parquet, tmp_path,
                                             capsys, ray_session):
    """lm-train → curate --ppl-model: the CCNet filter as commands."""
    lm_path = str(tmp_path / "ref_lm.npy")
    rc = cli.main(["lm-train", "--input", docs_parquet, "--out", lm_path])
    assert rc == 0

    out_all = str(tmp_path / "no_filter")
    cli.main(["curate", "--input", docs_parquet, "--out", out_all,
              "--keep-unterminated"])
    n_all = len(_read_dir(out_all))

    # a generous cap keeps everything (docs ARE the training corpus)
    out_keep = str(tmp_path / "keep")
    cli.main(["curate", "--input", docs_parquet, "--out", out_keep,
              "--keep-unterminated", "--ppl-model", lm_path,
              "--ppl-max", "1000"])
    kept = _read_dir(out_keep)
    assert len(kept) == n_all
    assert "ppl" in kept.columns and kept["ppl"].notna().all()

    # an impossible cap drops everything
    out_drop = str(tmp_path / "drop")
    cli.main(["curate", "--input", docs_parquet, "--out", out_drop,
              "--keep-unterminated", "--ppl-model", lm_path,
              "--ppl-max", "1.0001"])
    import glob as _glob

    files = _glob.glob(out_drop + "/**/*.parquet", recursive=True)
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    assert total == 0


def test_cli_curate_with_dedup(docs_parquet, tmp_path, capsys, ray_session):
    """curate --dedup minhash removes the near-duplicates the corpus
    generator plants, inside the one-pass chain."""
    out_dir = str(tmp_path / "cur_dedup")
    rc = cli.main([
        "curate", "--input", docs_parquet, "--out", out_dir,
        "--keep-unterminated", "--dedup", "minhash",
    ])
    assert rc == 0
    kept = _read_dir(out_dir)
    src = pd.read_parquet(docs_parquet)
    assert 0 < len(kept) < len(src)          # something was removed
    assert kept["doc_id"].is_unique
    # library parity: same kept set as the standalone dedup operator
    from vat_abcd_crawler_ray.functions import textstats as ts
    from vat_abcd_crawler_ray.pipelines import dedup as dd
    import ray.data as rd

    cleaned = rd.from_pandas(pd.DataFrame({
        "doc_id": src["doc_id"],
        "text": ts.scrub_pii(
            ts.clean_lines(src["text"], require_terminal=False)["text"]
        )["text"],
    }))
    want = sorted(
        r["doc_id"]
        for r in dd.minhash_lsh_dedup(
            cleaned, text_col="text", id_col="doc_id", threshold=0.8
        ).select_columns(["doc_id"]).take_all()
    )
    assert sorted(kept["doc_id"]) == want


@pytest.mark.parametrize("id_col", ["doc_id", "url"])
def test_cli_curate_hands_dedup_a_materialized_table(
        id_col, docs_parquet, tmp_path, monkeypatch, capsys, ray_session):
    """curate cleans each document once: the dedup reads its input
    twice (sign, anti-join), so it must get the materialized cleaned
    table, with an int id and with a string id (murmur3 surrogate)."""
    from ray.data.dataset import MaterializedDataset

    from vat_abcd_crawler_ray.pipelines import dedup as dd

    src = pd.read_parquet(docs_parquet)
    src["url"] = [f"https://h{i % 5}.example/p{i}" for i in src["doc_id"]]
    path = str(tmp_path / "docs.parquet")
    src.to_parquet(path, index=False)
    real, calls = dd.minhash_lsh_dedup, []

    def checked(ds, *args, **kwargs):
        calls.append(type(ds).__name__)
        assert isinstance(ds, MaterializedDataset)
        return real(ds, *args, **kwargs)

    monkeypatch.setattr(dd, "minhash_lsh_dedup", checked)
    out_dir = str(tmp_path / "cur")
    rc = cli.main([
        "curate", "--input", path, "--out", out_dir, "--id-col", id_col,
        "--keep-unterminated", "--dedup", "minhash",
    ])
    assert rc == 0 and calls == ["MaterializedDataset"]
    kept = _read_dir(out_dir)
    assert 0 < len(kept) < len(src) and kept[id_col].is_unique
    assert "__dedup_sid" not in kept.columns
    if id_col == "url":
        # the surrogate changes which row of a cluster wins, not the
        # clusters: the corpus only plants exact copies, so each kept
        # url row maps one-to-one, by text, onto a kept row of the
        # doc_id run
        by_doc = str(tmp_path / "cur_doc_id")
        assert cli.main([
            "curate", "--input", path, "--out", by_doc, "--id-col", "doc_id",
            "--keep-unterminated", "--dedup", "minhash",
        ]) == 0
        kept_doc = _read_dir(by_doc)
        assert kept["text"].is_unique and kept_doc["text"].is_unique
        assert sorted(kept["text"]) == sorted(kept_doc["text"])


@pytest.mark.parametrize("method", ["exact", "minhash", "simhash"])
def test_cli_dedup_keeps_null_text_rows(method, tmp_path, capsys, ray_session):
    """A null text is kept and never matched; it does not fail the job."""
    path = str(tmp_path / "nulls.parquet")
    pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": ["one shared text of the corpus", None,
                 "one shared text of the corpus", None],
    }).to_parquet(path, index=False)
    out = str(tmp_path / f"out_{method}")
    assert cli.main(["dedup", "--input", path, "--out", out,
                     "--method", method]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["rows_removed"] == 1
    assert sorted(_read_dir(out)["doc_id"]) == [0, 1, 3]


@pytest.mark.parametrize("method", ["exact", "minhash", "simhash"])
def test_cli_curate_dedup_int_ids_with_nulls(method, tmp_path, ray_session):
    """An integer id column with nulls: each null-id row gets a dedup
    surrogate of its own, so one row per text is kept, copies among
    null-id rows included, and the rows with a unique text all stay."""
    import pyarrow as pa
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    texts = list(_docs_frame(12)["text"].drop_duplicates())[:5]
    path = str(tmp_path / "null_ids.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, None, None, None, 5, None, 7], pa.int64()),
        "text": [texts[0], texts[1], texts[0], texts[2], texts[2], texts[3],
                 texts[4], texts[4]],
    }), path)
    out = str(tmp_path / f"cur_{method}")
    assert cli.main([
        "curate", "--input", path, "--out", out, "--keep-unterminated",
        "--dedup", method,
    ]) == 0
    kept = pds.dataset(out).to_table().to_pandas()
    assert len(kept) == 5 and kept["text"].is_unique
    assert {1, 5} <= set(kept["doc_id"].dropna().astype(int))
    assert "__dedup_sid" not in kept.columns


@pytest.mark.parametrize("dedup", [None, "exact", "minhash"])
def test_cli_curate_null_ids_keep_one_id_type(dedup, tmp_path, ray_session):
    """Every part file types the id column as the input does, so the
    output reads as one dataset, even where a block's ids are all null
    (8 rows, 5 null ids, 4 CPUs)."""
    import pyarrow as pa
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    texts = list(_docs_frame(12)["text"].drop_duplicates())[:8]
    path = str(tmp_path / "null_ids.parquet")
    ids = pa.array([0, None, None, 3, None, None, 6, None], pa.int64())
    pq.write_table(pa.table({"doc_id": ids, "text": texts}), path)
    out = str(tmp_path / "cur")
    argv = ["curate", "--input", path, "--out", out, "--keep-unterminated",
            "--num-cpus", "4"]
    assert cli.main(argv + (["--dedup", dedup] if dedup else [])) == 0
    kept = pds.dataset(out).to_table()
    assert kept.schema.field("doc_id").type == pa.int64()
    assert sorted(kept["doc_id"].drop_null().to_pylist()) == [0, 3, 6]
    assert kept["doc_id"].null_count == 5


@pytest.mark.parametrize("ids", ["url", "nullable_int"])
@pytest.mark.parametrize("method", ["exact", "minhash", "simhash"])
def test_cli_dedup_ids_of_any_type(method, ids, tmp_path, capsys,
                                   ray_session):
    """dedup keys a string or null-holding id column through the int64
    surrogate that curate uses: every method keeps one row per text,
    the same row (the smallest surrogate: a null id sorts after any
    id), and every part file types the id column as the input does."""
    import pyarrow as pa

    from vat_abcd_crawler_ray.functions.urlkeys import murmur3_64_batch

    distinct = list(_docs_frame(40)["text"].drop_duplicates())[:6]
    texts = [distinct[i] for i in (0, 1, 2, 0, 3, 1, 4, 0, 5, 2, 3, 5)]
    if ids == "url":
        id_arr = pa.array([f"https://h{i % 3}.example/p{i}"
                           for i in range(len(texts))])
        sid = murmur3_64_batch(id_arr.to_pylist())
    else:  # the [None, None, None, 4] case: text 0 keeps the row with id 4
        id_arr = pa.array([None, None, None, 4, None, 6, None, 8, 9, None,
                           None, None], pa.int64())
        sid = np.array([np.iinfo(np.int64).max if v is None else v
                        for v in id_arr.to_pylist()])
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": id_arr, "text": texts}), path)
    out = str(tmp_path / "out")
    assert cli.main(["dedup", "--input", path, "--out", out,
                     "--method", method]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["rows_kept"] == len(distinct)

    for part in glob.glob(f"{out}/*.parquet"):
        assert pq.read_schema(part).field("doc_id").type == id_arr.type
    kept = pq.ParquetDataset(out).read().to_pandas()
    assert sorted(kept["text"]) == sorted(distinct)
    frame = pd.DataFrame({"doc_id": id_arr.to_pandas(), "text": texts,
                          "sid": sid})
    winners = frame.sort_values("sid").drop_duplicates("text")
    want = winners.set_index("text")["doc_id"]
    got = kept.set_index("text")["doc_id"]
    assert got.isna().equals(want.isna()[got.index])
    assert (got.dropna() == want[got.dropna().index]).all()
    if ids == "nullable_int":
        assert want[texts[0]] == 4


def test_cli_full_story_ingest_analyze_curate(tmp_path, capsys, ray_session):
    """The product story as one flow: WARC shards → ingest → analyze
    (report sanity) → curate with dedup + split + packing."""
    import json as _json

    from vat_abcd_crawler_ray.sources.warc import write_warc

    wdir = tmp_path / "w"
    wdir.mkdir()
    import numpy as np

    rng = np.random.default_rng(3)
    words = ["alpha", "bridge", "copper", "delta", "ember", "forest",
             "glacier", "harbor", "island", "jungle", "kernel", "lumen",
             "meadow", "nectar", "onyx", "prairie"]
    page = ("<html><head><title>T</title></head><body>"
            "<p>%s</p></body></html>")
    recs = [{
        "url": f"https://site{i % 4}.example/p{i}",
        "status": 200,
        "content_type": "text/html",
        # genuinely distinct word salads: near-dup removal must keep
        # all 30 and drop only the planted exact copies
        "body": (page % (" ".join(rng.choice(words, 40)) + ".")).encode(),
    } for i in range(30)]
    # plant near-duplicates: last 5 repeat earlier pages
    for i in range(5):
        recs.append(dict(recs[i], url=f"https://dup.example/{i}"))
    (wdir / "a.warc.gz").write_bytes(write_warc(recs, gz=True))

    docs = str(tmp_path / "docs")
    assert cli.main(["ingest", "--warc", str(wdir), "--out", docs]) == 0

    assert cli.main(["analyze", "--input", docs, "--id-col", "url"]) == 0
    report = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["n_docs"] == 35
    assert report["substring_dup_frac_mean"] > 0  # planted dups visible

    out = str(tmp_path / "final")
    assert cli.main([
        "curate", "--input", docs, "--out", out, "--id-col", "url",
        "--keep-unterminated", "--dedup", "minhash",
        "--splits", "train=0.8,val=0.2", "--pack-budget", "64",
    ]) == 0
    final = _read_dir(out)
    assert len(final) == 30  # the 5 planted duplicates are gone
    assert {"split", "pack_id", "pack_offset"} <= set(final.columns)
