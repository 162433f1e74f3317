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
from parquet_dirs import read_parquet_dir
from vat_abcd_crawler_ray.pipelines.crawl import CrawlRun
from vat_abcd_crawler_ray.sources.synthetic import corpus_dir
from vat_abcd_crawler_ray.state import seen_set

STAGES = ("bootstrap", "admission", "backlog")

# which stages each configuration splits into key-hash parts of 20 rows:
# this corpus's 137 seeds give 4 bootstrap parts on the 4-CPU test
# cluster, its admissions (75-350 surviving links) 4, and its backlogs
# 3 and 4, so the rests are re-split as P changes ("distributed": every
# stage at once, the first-wins and project kernels as part tasks)
SPLIT = {
    "auto": (),
    "distributed": STAGES,
    "bootstrap": ("bootstrap",),
    "partitioned": ("backlog",),
    "admission": ("admission",),
    # the seen set's prefilter starts at 64 slots and must grow
    # mid-crawl (457 keys). (The names are kept from the sharded seen
    # set: one driver-held set is now its only layout.)
    "one_shard": (),
    "one_shard_partitioned": STAGES,
}
SMALL_FILTER = ("one_shard", "one_shard_partitioned")


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("modes", list(SPLIT))
def test_distributed_crawl_matches_sequential_reference(
    tmp_path, auto_run, monkeypatch, split_stages, modes
):
    """Each configuration splits its stages into several key-hash parts
    and is checked against the independent oracle and against the auto
    run's metrics."""
    corpus = corpus_dir("/root/testdata/sf0.001")
    seq_log, seq_seen, _ds, _li, _er, _un = sequential_crawl(corpus)

    if modes == "auto":
        run = auto_run(corpus)
    else:
        if modes in SMALL_FILTER:
            monkeypatch.setattr(seen_set, "FILTER_CAPACITY", 64)
        split_stages(20, *SPLIT[modes])
        run = _crawl(corpus, str(tmp_path / "run"))
        assert run.metrics.as_dict() == auto_run(corpus).metrics.as_dict()
    if modes in SMALL_FILTER:
        tiers = run.manifest.round_info(run.manifest.last_complete_round())["seen_tiers"]
        assert tiers["filter_buckets"] > 32  # grew from 64 slots (32 buckets)
    # every committed round records the parts its backlog and its
    # admission took, round 0 also the bootstrap's
    infos = run.manifest.round_infos()
    assert "paths" not in infos[0]
    assert all("bootstrap_parts" not in i for i in infos[1:])
    split = SPLIT[modes]
    bootstrap = infos[0]["bootstrap_parts"]
    admission = {i["admission_parts"] for i in infos} - {0}
    backlog = {i["backlog_parts"] for i in infos} - {0}
    assert bootstrap == (4 if "bootstrap" in split else 1)
    if "admission" in split:
        assert max(admission) >= 2, admission
    else:
        assert admission == {1}, admission
    if "backlog" in split:
        assert len(backlog) >= 2, backlog
    elif not split:
        assert backlog == {1}, backlog

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
    base = os.path.join(run.run_dir, "staging", "extracted")
    frames = []
    for rnd in sorted(os.listdir(base)):
        # fetched = dataset rows + parse-error rows (both were fetched);
        # fetch-miss errors were never fetched
        # (each kind's part files hold only its own columns)
        for kind, extra in (("dataset", []), ("error", ["error_kind"])):
            d = os.path.join(base, rnd, f"record_type={kind}")
            if os.path.isdir(d):
                df = read_parquet_dir(
                    d, columns=["url", "surrogate", "seq", "round"] + extra
                ).to_pandas()
                if kind == "error":
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


def _crawl(corpus: str, run_dir: str) -> CrawlRun:
    run = CrawlRun(
        f"{corpus}/pages.parquet",
        f"{corpus}/seeds.parquet",
        f"{corpus}/politeness.parquet",
        run_dir,
    )
    run.run()
    return run


@pytest.fixture(scope="module")
def auto_run(tmp_path_factory):
    """``auto_run(corpus)``: the default-settings run every other
    configuration must equal, crawled once per module by the first test
    that asks."""
    cache = {}

    def get(corpus: str) -> CrawlRun:
        if corpus not in cache:
            cache[corpus] = _crawl(corpus, str(tmp_path_factory.mktemp("auto") / "run"))
        return cache[corpus]

    return get
