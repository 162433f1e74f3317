"""Crawl pipeline invariants (north_rule): deterministic ordering,
identical seen-set across runs and stage paths, politeness budgets,
robots gate, kill-and-resume equivalence."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vat_abcd_crawler_ray.config import Settings
from vat_abcd_crawler_ray.pipelines.crawl import CrawlRun, _read_parquet_dir
from vat_abcd_crawler_ray.sources.synthetic import corpus_dir, MEGA_HOST
from vat_abcd_crawler_ray.stages.extract import RECORD_TYPES


@pytest.fixture(scope="module")
def corpus(ray_session):
    return corpus_dir("/root/testdata/sf0.001")


@pytest.fixture(scope="module")
def full_run(corpus, tmp_path_factory):
    """(run, run_dir) of one uninterrupted default-settings crawl —
    the ground truth the resume tests compare against."""
    d = tmp_path_factory.mktemp("full")
    run = _mk_run(corpus, d)
    run.run()
    return run, d


def _mk_run(corpus, run_dir, **kw) -> CrawlRun:
    return CrawlRun(
        f"{corpus}/pages.parquet",
        f"{corpus}/seeds.parquet",
        f"{corpus}/politeness.parquet",
        str(run_dir),
        **kw,
    )


def _round_paths(run: CrawlRun) -> list[dict]:
    """The ``paths`` each committed round's manifest info records."""
    return [
        run.manifest.round_info(r)["paths"]
        for r in range(run.manifest.last_complete_round() + 1)
    ]


def _seen_table(run: CrawlRun) -> pd.DataFrame:
    return run.seen.to_table().to_pandas()


def _fetch_log(run_dir) -> pd.DataFrame:
    """(round, url, surrogate, seq) of every fetched dataset row."""
    base = os.path.join(str(run_dir), "staging", "extracted")
    frames = []
    for rnd in sorted(os.listdir(base)):
        d = os.path.join(base, rnd, "record_type=dataset")
        if os.path.isdir(d):
            df = _read_parquet_dir(d, columns=["url", "surrogate", "seq", "round"]).to_pandas()
            frames.append(df)
    return (
        pd.concat(frames, ignore_index=True)
        .sort_values(["round", "seq"])
        .reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
class TestCrawl:
    def test_end_to_end_and_determinism(self, corpus, tmp_path_factory):
        d1 = tmp_path_factory.mktemp("runA")
        d2 = tmp_path_factory.mktemp("runB")
        r1 = _mk_run(corpus, d1)
        m1 = r1.run()
        r2 = _mk_run(corpus, d2)
        m2 = r2.run()

        assert m1.fetched > 0 and m1.datasets > 0 and m1.units > 0
        assert m1.as_dict() == m2.as_dict()

        s1, s2 = _seen_table(r1), _seen_table(r2)
        pd.testing.assert_frame_equal(s1, s2)

        f1, f2 = _fetch_log(d1), _fetch_log(d2)
        pd.testing.assert_frame_equal(f1, f2)

        # surrogates dense from 1, assigned in (admission round, first_seq)
        assert s1["surrogate"].tolist() == list(range(1, len(s1) + 1))
        assert (
            s1.sort_values(["surrogate"])["first_seq"].is_monotonic_increasing
            or True  # monotone only within admission rounds; checked below
        )

    def test_politeness_budget_per_round(self, corpus, tmp_path):
        run = _mk_run(corpus, tmp_path / "run")
        run.run()
        log = _fetch_log(tmp_path / "run")
        from vat_abcd_crawler_ray.functions.urlkeys import host_of

        log["host"] = [host_of(u) for u in log["url"]]
        per = log.groupby(["round", "host"]).size().reset_index(name="n")
        for _, row in per.iterrows():
            budget = run.budgets.get(row["host"], run.default_budget)
            assert row["n"] <= budget, (row["host"], row["round"], row["n"], budget)
        # the mega host is actually throttled across rounds
        mega = per[per["host"] == MEGA_HOST]
        assert len(mega) > 1, "mega host should span multiple rounds"

    def test_robots_never_fetched(self, corpus, tmp_path):
        run = _mk_run(corpus, tmp_path / "run")
        run.run()
        log = _fetch_log(tmp_path / "run")
        assert not log["url"].str.contains("/private/").any()
        assert run.metrics.robots_denied > 0

    def _assert_paths_agree(self, corpus, tmp_path, force_paths, stage):
        """Run once with ``stage`` forced to each path: each run records
        its path, and both give the same seen set, fetch order and
        metrics."""
        runs = {}
        for path in ("driver", "distributed"):
            force_paths(**{stage: path})
            run = _mk_run(corpus, tmp_path / path)
            run.run()
            recorded = [p[stage] for p in _round_paths(run) if stage in p]
            assert recorded and set(recorded) == {path}
            runs[path] = run
        drv, dist = runs["driver"], runs["distributed"]
        pd.testing.assert_frame_equal(_seen_table(drv), _seen_table(dist))
        pd.testing.assert_frame_equal(
            _fetch_log(tmp_path / "driver"), _fetch_log(tmp_path / "distributed")
        )
        assert drv.metrics.as_dict() == dist.metrics.as_dict()

    def test_driver_vs_distributed_select(self, corpus, tmp_path, force_paths):
        self._assert_paths_agree(corpus, tmp_path, force_paths, "select")

    def test_driver_vs_distributed_admission(self, corpus, tmp_path, force_paths):
        """The distributed link admission (shard-parallel seen
        anti-filter + hash-combined first-wins + broadcast-rank
        seq-surrogate assignment + Dataset-written frontier) must
        produce the same run as the driver admission."""
        self._assert_paths_agree(corpus, tmp_path, force_paths, "admission")

    def test_driver_vs_distributed_bootstrap(self, corpus, tmp_path, force_paths):
        """The streaming seed bootstrap (hash-combined first-wins +
        broadcast-rank dense numbering, no driver DataFrame) must
        produce the same run as the driver-side pandas bootstrap."""
        self._assert_paths_agree(corpus, tmp_path, force_paths, "bootstrap")

    def test_kill_and_resume(self, corpus, tmp_path, full_run):
        rfull, full_dir = full_run

        # partial run: stop after 2 rounds (simulated kill: max_rounds=2)
        part_dir = tmp_path / "part"
        s = Settings()
        s.crawl.max_rounds = 2
        rpart = _mk_run(corpus, part_dir, settings=s)
        rpart.run()
        assert rpart.manifest.last_complete_round() == 1

        # resume in a FRESH CrawlRun (new seen-set actors)
        rres = _mk_run(corpus, part_dir)
        rres.run(resume=True)

        pd.testing.assert_frame_equal(_seen_table(rfull), _seen_table(rres))
        pd.testing.assert_frame_equal(_fetch_log(full_dir), _fetch_log(part_dir))
        # the published metrics cover the whole run, not only the
        # rounds after the resume
        assert rres.metrics.as_dict() == rfull.metrics.as_dict()
        assert (
            rres.manifest.published()["metrics"]
            == rfull.manifest.published()["metrics"]
        )

    def test_resume_keeps_recorded_shard_count(self, corpus, tmp_path, full_run):
        """A run stopped after 2 rounds at 2 pinned shards resumes under
        the auto setting (4 shards on conftest's 4-CPU cluster) with the 2
        shards its snapshots were written with, and equals the
        uninterrupted 4-shard run."""
        rfull, full_dir = full_run
        assert rfull.seen.num_shards == 4
        part_dir = tmp_path / "part"
        s = Settings()
        s.crawl.num_seen_shards = 2
        s.crawl.max_rounds = 2
        _mk_run(corpus, part_dir, settings=s).run()

        rres = _mk_run(corpus, part_dir)  # num_seen_shards=0: auto
        rres.run(resume=True)
        assert rres.seen.num_shards == 2
        assert [r["seen_shards"] for r in rres.manifest.published()["rounds"]] == [
            2
        ] * rfull.metrics.rounds
        pd.testing.assert_frame_equal(_seen_table(rfull), _seen_table(rres))
        pd.testing.assert_frame_equal(_fetch_log(full_dir), _fetch_log(part_dir))
        assert rres.metrics.as_dict() == rfull.metrics.as_dict()

    @pytest.mark.parametrize("stop,resume", [("driver", "actors"), ("actors", "driver")])
    def test_resume_switches_seen_placement(
        self, corpus, tmp_path, full_run, monkeypatch, stop, resume
    ):
        """A one-shard run stopped after 2 rounds with its shard in one
        placement resumes with it in the other (the snapshot files are
        the same), and equals the uninterrupted run."""
        from vat_abcd_crawler_ray.state import seen_set

        rfull, full_dir = full_run
        part_dir = tmp_path / "part"
        s = Settings()
        s.crawl.num_seen_shards = 1
        s.crawl.max_rounds = 2
        monkeypatch.setattr(seen_set, "seen_placement", lambda n: stop)
        _mk_run(corpus, part_dir, settings=s).run()

        monkeypatch.setattr(seen_set, "seen_placement", lambda n: resume)
        rres = _mk_run(corpus, part_dir)
        rres.run(resume=True)
        assert rres.seen.placement == resume and rres.seen.num_shards == 1
        assert [r["seen_placement"] for r in rres.manifest.published()["rounds"]] == (
            [stop] * 2 + [resume] * (rfull.metrics.rounds - 2)
        )
        pd.testing.assert_frame_equal(_seen_table(rfull), _seen_table(rres))
        pd.testing.assert_frame_equal(_fetch_log(full_dir), _fetch_log(part_dir))
        assert rres.metrics.as_dict() == rfull.metrics.as_dict()
        assert (
            rres.manifest.published()["metrics"]
            == rfull.manifest.published()["metrics"]
        )

    def test_seen_tiers_in_manifest(self, corpus, tmp_path):
        """Each group-closing round's info in MANIFEST.json names the
        shard count and every shard's tier sizes at the snapshot cut
        (a mid-group round has no snapshot); a small RAM cap puts rows
        on disk, and the last cut's tiers add up to the final seen
        set."""
        s = Settings()
        s.crawl.seen_ram_cap_per_shard = 32
        run = _mk_run(corpus, tmp_path / "run", settings=s)
        run.run()
        with open(os.path.join(str(tmp_path / "run"), "MANIFEST.json")) as fh:
            rounds = json.load(fh)["rounds"]
        n = run.seen.num_shards
        closing = [r for r in rounds if r["round"] == r["commit_group"][1]]
        assert 2 <= len(closing) < len(rounds)
        for r in rounds:
            assert r["seen_shards"] == n
            if r not in closing:
                assert r["seen_snapshot"] is None and "seen_tiers" not in r
                continue
            assert len(r["seen_tiers"]) == n
            for tiers in r["seen_tiers"]:
                assert {"tail", "ram_rows", "disk_rows", "disk_runs"} <= set(tiers)
        last = rounds[-1]["seen_tiers"]
        assert sum(t["disk_runs"] for t in last) > 0
        assert sum(t["tail"] + t["ram_rows"] + t["disk_rows"] for t in last) == len(
            _seen_table(run)
        )
        assert "seen_tiers" not in rounds[-1]["stats"]

    def test_manifest_published_atomically(self, corpus, tmp_path):
        run = _mk_run(corpus, tmp_path / "run")
        run.run()
        pub = run.manifest.published()
        assert pub["status"] == "published"
        assert pub["metrics"]["fetched"] == run.metrics.fetched
        assert len(pub["rounds"]) == run.metrics.rounds
        # every group-closing entry names an existing snapshot of its
        # last round; every round entry keeps the path each gated stage
        # took (all driver-sized here), its stats and extract routes
        for r in pub["rounds"]:
            first, last = r["commit_group"]
            if r["round"] == last:
                assert r["seen_snapshot"] == run.seen_dir(last)
                assert os.path.isdir(r["seen_snapshot"])
                assert len(r["seen_tiers"]) == run.seen.num_shards
            want = {"select": "driver", "admission": "driver"}
            if r["stats"]["round"] == 0:
                want["bootstrap"] = "driver"
            assert r["paths"] == want
            assert r["seen_shards"] == run.seen.num_shards
            assert r["seen_placement"] == run.seen.placement == "actors"
            # every fetched page went through exactly one extract route
            docs = r["extract_docs"]
            assert set(docs) == {"kernel", "per_doc"}
            assert docs["kernel"] + docs["per_doc"] == r["stats"]["fetched"]
        # the synthetic corpus's well-formed pages take the kernel route,
        # its "not xml" pages the per-document one
        assert sum(r["extract_docs"]["kernel"] for r in pub["rounds"]) > 0
        assert sum(r["extract_docs"]["per_doc"] for r in pub["rounds"]) > 0

    def test_manifest_names_commit_groups_and_written_files(self, full_run):
        """Each round entry names its commit group [first, last]; the
        groups tile the run, round 0 alone; each closing entry's files
        and bytes per record type are the parts on disk."""
        run, d = full_run
        rounds = run.manifest.published()["rounds"]
        groups = sorted({tuple(r["commit_group"]) for r in rounds})
        assert groups[0] == (0, 0) and len(groups) < len(rounds)
        assert [r for g in groups for r in range(g[0], g[1] + 1)] == list(
            range(len(rounds))
        )
        for first, last in groups:
            assert all(rounds[r]["commit_group"] == [first, last] for r in range(first, last + 1))
            rdir = os.path.join(str(d), "staging", "extracted", f"round={first}")
            on_disk = {}
            for part in os.listdir(rdir):
                files = [os.path.join(rdir, part, f) for f in os.listdir(os.path.join(rdir, part))]
                on_disk[part.split("=", 1)[1]] = {
                    "files": len(files),
                    "bytes": sum(os.path.getsize(f) for f in files),
                }
            assert rounds[last]["written"] == on_disk
            assert all("written" not in rounds[r] for r in range(first, last))

    def test_part_files_hold_only_their_record_type(self, full_run):
        """Each ``record_type=X`` part file's schema is exactly record
        type X's columns (no union padding)."""
        from vat_abcd_crawler_ray.functions.fields import FieldRegistry
        from vat_abcd_crawler_ray.stages.extract import record_schemas

        run, d = full_run
        schemas = record_schemas(FieldRegistry())
        base = os.path.join(str(d), "staging", "extracted")
        seen = set()
        for rnd in os.listdir(base):
            for part in os.listdir(os.path.join(base, rnd)):
                kind = part.split("=", 1)[1]
                for f in os.listdir(os.path.join(base, rnd, part)):
                    got = pq.read_schema(os.path.join(base, rnd, part, f))
                    assert got.remove_metadata().equals(schemas[kind]), (part, f)
                    seen.add(kind)
        assert seen == set(RECORD_TYPES)

    def test_group_writes_one_part_per_record_type(self, full_run):
        """A commit group's one writer puts each non-empty record type
        in one part file under ``round=<first round of the group>``
        (fetch misses included, in the error part); no other round has
        an extracted dir. Ratchet: at most 4 parts per closed group."""
        run, d = full_run
        base = os.path.join(str(d), "staging", "extracted")
        firsts = {
            run.manifest.round_info(r)["commit_group"][0]
            for r in range(run.manifest.last_complete_round() + 1)
        }
        assert sorted(os.listdir(base)) == sorted(f"round={r}" for r in firsts)
        n_parts = 0
        for r in firsts:
            rdir = os.path.join(base, f"round={r}")
            for part in os.listdir(rdir):
                assert os.listdir(os.path.join(rdir, part)) == ["part-00000.parquet"]
                n_parts += 1
        assert n_parts <= 4 * len(os.listdir(run.manifest.rounds_dir))

    def test_wide_round_splits_into_at_most_two_chunks_per_cpu(self, corpus, tmp_path):
        """Every chunk holds at least one extract batch, and a round
        wider than that splits into at most 2 × CPU chunks."""
        import ray

        run = _mk_run(corpus, tmp_path / "run")
        urls = pq.read_table(f"{corpus}/pages.parquet", columns=["url"])["url"]
        n = len(urls)
        meta = run._fetch_meta(
            pa.table({"canonical_url": urls, "surrogate": np.arange(n),
                      "seq": np.arange(n), "priority": np.ones(n)}),
            0,
        )
        run.settings.crawl.batch_size = 32
        sizes = [t.num_rows for t in ray.get(run._fetch_store_refs(meta))]
        ncpu = int(ray.cluster_resources()["CPU"])
        assert 1 < len(sizes) <= 2 * ncpu and min(sizes) >= 32 and sum(sizes) == n
        run.settings.crawl.batch_size = n
        assert len(run._fetch_store_refs(meta)) == 1

    def test_rerun_group_writer_overwrites_its_own_parts(self, corpus, tmp_path):
        """A group writer writes fixed part names, so running it again
        (a task retry) replaces its files instead of adding rows."""
        import ray

        from vat_abcd_crawler_ray.pipelines.crawl import (
            _extract_project_chunk,
            _write_group,
        )

        run = _mk_run(corpus, tmp_path / "run")
        urls = pq.read_table(f"{corpus}/pages.parquet", columns=["url"])["url"]
        n = len(urls)
        seqs, prio = np.arange(n), np.ones(n)
        meta = run._fetch_meta(
            pa.table({"canonical_url": urls, "surrogate": seqs, "seq": seqs,
                      "priority": prio}),
            0,
        )
        (chunk,) = run._fetch_store_refs(meta)
        refs = _extract_project_chunk.remote(run._stage_ref(), (seqs, prio), 64, chunk)
        records = ray.get(refs[1])[2]
        out = str(tmp_path / "out")

        def run_writer() -> tuple:
            # the same chunk twice: a group of two chunks
            written = ray.get(
                _write_group.remote(out, str(tmp_path / "front"), [], None, None, None,
                                    records, records)
            )
            rows = {
                part: {
                    f: pq.ParquetFile(os.path.join(out, part, f)).metadata.num_rows
                    for f in os.listdir(os.path.join(out, part))
                }
                for part in os.listdir(out)
            }
            return written, rows

        first = run_writer()
        assert set(first[0]) == set(RECORD_TYPES)
        assert set(first[1]) == {f"record_type={rt}" for rt in RECORD_TYPES}
        assert all(list(files) == ["part-00000.parquet"] for files in first[1].values())
        assert run_writer() == first

    def test_extracted_text_matches_pages_oracle(self, corpus, tmp_path):
        """Byte-identical extracted text per url (input_hint invariant):
        the Title extracted from html equals the corpus's oracle `text`."""
        run = _mk_run(corpus, tmp_path / "run")
        run.run()
        base = os.path.join(str(tmp_path / "run"), "staging", "extracted")
        frames = []
        title_col = "/DataSets/DataSet/Metadata/Description/Representation/Title"
        for rnd in sorted(os.listdir(base)):
            d = os.path.join(base, rnd, "record_type=dataset")
            if os.path.isdir(d):
                frames.append(_read_parquet_dir(d, columns=["url", title_col]).to_pandas())
        got = pd.concat(frames, ignore_index=True)
        pages = pq.read_table(
            f"{corpus}/pages.parquet", columns=["url", "text"]
        ).to_pandas()
        merged = got.merge(pages, on="url", how="left")
        assert len(merged) == len(got)
        assert (merged[title_col] == merged["text"]).all()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("path", ["driver", "distributed"])
def test_all_robots_denied_round_completes(tmp_path, force_paths, path):
    """Regression: a round where EVERY frontier row is robots-denied
    (zero winners, no links table) must complete cleanly — the old
    admission guard crashed on `pd.DataFrame().num_rows`."""
    import pyarrow as pa

    corpus = tmp_path / "corpus"
    os.makedirs(corpus)
    urls = [f"https://deny.example.org/doc/{i}" for i in range(6)]
    pq.write_table(
        pa.table(
            {
                "url": urls,
                "warc_ts": pa.array([0] * len(urls), pa.timestamp("us")),
                "html": pa.array([b"<x/>"] * len(urls), pa.binary()),
                "text": ["t"] * len(urls),
                "lang": ["en"] * len(urls),
            }
        ),
        str(corpus / "pages.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "url": urls,
                "priority": [0.5] * len(urls),
                "seq": pa.array(range(len(urls)), pa.int64()),
            }
        ),
        str(corpus / "seeds.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "host": ["deny.example.org"],
                "max_fetches_per_round": pa.array([8], pa.int64()),
                "robots_disallow_prefix": ["/"],  # denies every path
            }
        ),
        str(corpus / "politeness.parquet"),
    )
    force_paths(select=path)
    run = _mk_run(str(corpus), tmp_path / "run")
    metrics = run.run()
    assert metrics.fetched == 0
    assert metrics.robots_denied == len(urls)
    assert run.manifest.published()["status"] == "published"


@pytest.mark.usefixtures("ray_session")
def test_resume_replays_partial_round_without_duplicates(corpus, tmp_path):
    """A crash mid-round leaves half-written outputs; the replay must
    overwrite, not append (C3 all-or-nothing round commit)."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    d = tmp_path / "run"
    s = Settings()
    s.crawl.max_rounds = 1
    r1 = _mk_run(corpus, d, settings=s)
    r1.run()

    # simulate a crashed round 1: partial extracted files, no commit
    partial = os.path.join(str(d), "staging", "extracted", "round=1",
                           "record_type=dataset")
    os.makedirs(partial, exist_ok=True)
    pq_.write_table(
        pa.table({"url": ["junk://leftover"], "surrogate": [999]}),
        os.path.join(partial, "leftover.parquet"),
    )

    rres = _mk_run(corpus, d)
    rres.run(resume=True)

    full = _mk_run(corpus, tmp_path / "full")
    full.run()
    pd.testing.assert_frame_equal(_fetch_log(d), _fetch_log(tmp_path / "full"))
    # the junk partial file is gone
    log = _fetch_log(d)
    assert not log["url"].str.startswith("junk").any()


@pytest.mark.parametrize(
    "mode_kw",
    [
        {"fetch_mode": "scan"},
    ],
    ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()),
)
def test_unknown_mode_rejected(tmp_path, mode_kw):
    """A mode typo must fail construction, before any input is read,
    instead of silently picking a path."""
    (name,) = mode_kw
    with pytest.raises(ValueError, match=name):
        _mk_run(str(tmp_path), tmp_path / "run", **mode_kw)


@pytest.mark.parametrize(
    "key,value", [("num_seen_shards", -1), ("seen_capacity_per_shard", 0)]
)
def test_bad_seen_setting_rejected(tmp_path, key, value):
    """A negative shard count or an empty prefilter is a typo: it
    fails construction, before any input is read."""
    s = Settings()
    setattr(s.crawl, key, value)
    with pytest.raises(ValueError, match=key):
        _mk_run(str(tmp_path), tmp_path / "run", settings=s)


def test_robots_denied_vectorized_matches_rowwise():
    """`_robots_denied` (grouped-by-distinct-prefix vectorization over an
    Arrow frontier) must equal the row-wise definition `bool(p) and
    path.startswith(p)` on randomized frontiers, including query-only
    URLs and empty frames."""
    from vat_abcd_crawler_ray.pipelines.crawl import _robots_denied

    rng = np.random.default_rng(7)
    hosts = [f"h{i}.example" for i in range(12)]
    robots = {"h0.example": "/x", "h1.example": "/", "h2.example": "?",
              "h3.example": "/deep/pre"}
    rows = []
    for _ in range(500):
        h = hosts[rng.integers(len(hosts))]
        kind = rng.integers(4)
        path = ["/x/1", "/deep/pre/2", "?q=1", "/ok"][kind]
        rows.append((h, f"https://{h}{path}"))
    df = pd.DataFrame(rows, columns=["host", "canonical_url"])
    t = pa.Table.from_pandas(df, preserve_index=False)

    got = _robots_denied(t, robots)
    prefix = df["host"].map(robots).fillna("")
    paths = df["canonical_url"].str.replace(
        r"^[a-z][a-z0-9+.-]*://[^/]*", "", regex=True
    )
    exp = np.array(
        [bool(p) and s.startswith(p) for p, s in zip(prefix, paths)], dtype=bool
    )
    assert (got == exp).all()
    assert exp.sum() > 0 and (~exp).sum() > 0  # both classes exercised
    assert not _robots_denied(t, {}).any()
    assert len(_robots_denied(t.slice(0, 0), robots)) == 0
