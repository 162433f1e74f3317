"""North-rule oracle: the distributed crawl must reproduce the crawl
ordering, URL-seen set and surrogate assignment of the straight-line
SEQUENTIAL crawler (vat_abcd_crawler_ray/oracle/seqcrawl.py — plain
dicts and lists, no Ray, no shared logic with pipelines/crawl.py) given
the same seed list + politeness budget.
"""

from __future__ import annotations

import os

import pandas as pd
import pytest

from vat_abcd_crawler_ray.oracle.seqcrawl import sequential_crawl
from vat_abcd_crawler_ray.pipelines.crawl import CrawlRun, _read_parquet_dir
from vat_abcd_crawler_ray.sources.synthetic import corpus_dir


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("modes", ["auto", "distributed"])
def test_distributed_crawl_matches_sequential_reference(tmp_path, modes):
    """``modes="distributed"`` forces EVERY gated stage (bootstrap,
    selection, admission) down its scale path simultaneously — the full
    distributed spine, including the hash-combined first-wins of
    bootstrap and admission, against the independent oracle, not just
    each stage's pairwise equivalence."""
    corpus = corpus_dir("/root/testdata/sf0.001")
    seq_log, seq_seen, _ds, _li, _er, _un = sequential_crawl(corpus)

    kw = (
        dict(bootstrap_mode="distributed", select_mode="distributed",
             admission_mode="distributed")
        if modes == "distributed"
        else {}
    )
    run = CrawlRun(
        f"{corpus}/pages.parquet",
        f"{corpus}/seeds.parquet",
        f"{corpus}/politeness.parquet",
        str(tmp_path / "run"),
        **kw,
    )
    run.run()

    # seen set: identical keys, surrogates, first_seqs
    dist_seen = run.seen.to_table().to_pandas()
    seq_df = (
        pd.DataFrame(
            [(k, v[0], v[1]) for k, v in seq_seen.items()],
            columns=["key", "surrogate", "first_seq"],
        )
        .sort_values("surrogate")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        dist_seen[["key", "surrogate", "first_seq"]], seq_df
    )

    # fetch log: same (round, url, surrogate, seq) set and order
    base = os.path.join(str(tmp_path / "run"), "staging", "extracted")
    frames = []
    for rnd in sorted(os.listdir(base)):
        # fetched = dataset rows + parse-error rows (both were fetched);
        # fetch-miss errors were never fetched
        for kind in ("dataset", "error"):
            d = os.path.join(base, rnd, f"record_type={kind}")
            if os.path.isdir(d):
                df = _read_parquet_dir(
                    d, columns=["url", "surrogate", "seq", "round", "error_kind"]
                )
                if kind == "error" and "error_kind" in df.columns:
                    df = df[df["error_kind"] != "FetchMiss"]
                frames.append(df[["url", "surrogate", "seq", "round"]])
    dist_log = (
        pd.concat(frames, ignore_index=True)
        .sort_values(["round", "seq"])
        .reset_index(drop=True)
    )
    seq_log_df = pd.DataFrame(
        seq_log, columns=["round", "url", "surrogate", "seq"]
    ).sort_values(["round", "seq"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        dist_log[["round", "url", "surrogate", "seq"]].astype(
            {"round": "int64", "surrogate": "int64", "seq": "int64"}
        ),
        seq_log_df.astype({"round": "int64", "surrogate": "int64", "seq": "int64"}),
    )
