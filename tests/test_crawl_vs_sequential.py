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

from vat_abcd_crawler_ray.ops import hashagg
from vat_abcd_crawler_ray.oracle.seqcrawl import sequential_crawl
from parquet_dirs import read_parquet_dir
from vat_abcd_crawler_ray.pipelines.crawl import CrawlRun
from vat_abcd_crawler_ray.sources.synthetic import corpus_dir
from vat_abcd_crawler_ray.state import seen_set

GATED = ("bootstrap", "admission")

# which stages each configuration forces down the distributed path
FORCED = {
    "auto": (),
    "distributed": GATED,
    "bootstrap": ("bootstrap",),
    "partitioned": (),
    "admission": ("admission",),
    # the seen set's prefilter starts at 64 slots and must grow
    # mid-crawl (457 keys); with every stage distributed the set's block
    # methods run too. (The names are kept from the sharded seen set:
    # one driver-held set is now its only layout.)
    "one_shard": (),
    "one_shard_distributed": GATED,
}
SMALL_FILTER = ("one_shard", "one_shard_distributed")
# configurations whose frontier backlog splits into key-hash parts: 20
# rows per part gives this corpus's backlogs (50-300 rows) 3 and 4
# parts on the 4-CPU test cluster, so the rests are re-split as P
# changes; "distributed" rebuilds the backlog from the frontier files
# every round (its bootstrap and admission write them as a Dataset)
PARTITIONED = ("partitioned", "distributed")


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("modes", list(FORCED))
def test_distributed_crawl_matches_sequential_reference(
    tmp_path, force_paths, auto_run, monkeypatch, modes
):
    """Each configuration forces its stages down the distributed path
    through the size rule (``modes="distributed"``: EVERY gated stage
    at once — the full distributed spine, including the hash-combined
    first-wins of bootstrap and admission, with the backlog rebuilt
    from the frontier files in several parts) and is checked against
    the independent oracle and against the auto run's metrics."""
    corpus = corpus_dir("/root/testdata/sf0.001")
    seq_log, seq_seen, _ds, _li, _er, _un = sequential_crawl(corpus)

    if modes == "auto":
        run = auto_run(corpus)
    else:
        force_paths(**{stage: "distributed" for stage in FORCED[modes]})
        if modes in SMALL_FILTER:
            monkeypatch.setattr(seen_set, "FILTER_CAPACITY", 64)
        if modes in PARTITIONED:
            monkeypatch.setattr(hashagg, "_ROWS_PER_PART", 20)
        run = _crawl(corpus, str(tmp_path / "run"))
        assert run.metrics.as_dict() == auto_run(corpus).metrics.as_dict()
    if modes in SMALL_FILTER:
        tiers = run.manifest.round_info(run.manifest.last_complete_round())["seen_tiers"]
        assert tiers["filter_buckets"] > 32  # grew from 64 slots (32 buckets)
    # every committed round records the path each gated stage took
    # and the parts its backlog was left in
    infos = run.manifest.round_infos()
    for r, info in enumerate(infos):
        paths = info["paths"]
        assert set(paths) <= set(GATED), paths
        for stage in paths:
            want = "distributed" if stage in FORCED[modes] else "driver"
            assert paths[stage] == want, (r, stage, paths)
    assert "bootstrap" in infos[0]["paths"]
    parts = {i["backlog_parts"] for i in infos} - {0}
    if modes in PARTITIONED:
        assert max(parts) == 4 and len(parts) >= 2, parts
    else:
        assert parts == {1}, parts

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
    """``auto_run(corpus)``: the unforced run every forced configuration
    must equal, crawled once per module by the first test that asks."""
    cache = {}

    def get(corpus: str) -> CrawlRun:
        if corpus not in cache:
            cache[corpus] = _crawl(corpus, str(tmp_path_factory.mktemp("auto") / "run"))
        return cache[corpus]

    return get
