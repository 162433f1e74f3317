"""Crawl pipeline invariants (north_rule): deterministic ordering,
identical seen-set across runs and part counts, politeness budgets,
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
from parquet_dirs import read_parquet_dir
from vat_abcd_crawler_ray.pipelines.crawl import CrawlRun
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


def _seen_table(run: CrawlRun) -> pd.DataFrame:
    return run.seen.to_table().to_pandas()


def _fetch_log(run_dir) -> pd.DataFrame:
    """(round, url, surrogate, seq) of every fetched dataset row."""
    base = os.path.join(str(run_dir), "staging", "extracted")
    frames = []
    for rnd in sorted(os.listdir(base)):
        d = os.path.join(base, rnd, "record_type=dataset")
        if os.path.isdir(d):
            df = read_parquet_dir(d, columns=["url", "surrogate", "seq", "round"]).to_pandas()
            frames.append(df)
    return (
        pd.concat(frames, ignore_index=True)
        .sort_values(["round", "seq"])
        .reset_index(drop=True)
    )


def _split_snapshot(seen_dir: str, n: int) -> None:
    """Rewrite a one-file seen snapshot directory in the layout of a set
    split over ``n`` shards by ``key % n``: ``shard_0..n-1.npz`` in the
    ``np.savez`` format, a full snapshot's shards each with its own
    filter table; ``_meta`` is unchanged."""
    from vat_abcd_crawler_ray.state.cuckoo import CuckooFilter

    path = os.path.join(seen_dir, "shard_0.npz")
    st = dict(np.load(path))
    os.remove(path)
    full = "keys" in st
    keys = st["keys" if full else "delta_keys"]
    for i in range(n):
        sel = keys % n == i
        part = {name: arr[sel] for name, arr in st.items() if arr.ndim == 1}
        if full:
            f = CuckooFilter(1 << 12)
            f.add(part["keys"])
            part.update(filter_table=f.table, filter_count=f.count, filter_slots=f.slots)
        np.savez(os.path.join(seen_dir, f"shard_{i}.npz"), **part)


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

    @pytest.mark.parametrize("parts", [1, 4])
    def test_robots_never_fetched(self, corpus, tmp_path, monkeypatch, parts):
        """No robots-denied url is fetched, whether the seeds and links
        are checked on the driver (one part) or in the bootstrap and
        admission part tasks (four parts)."""
        from vat_abcd_crawler_ray.ops import hashagg

        if parts == 4:
            monkeypatch.setattr(hashagg, "_ROWS_PER_PART", 4)
        run = _mk_run(corpus, tmp_path / "run")
        run.run()
        infos = run.manifest.round_infos()
        assert infos[0]["bootstrap_parts"] == parts
        assert max(i["admission_parts"] for i in infos) == parts
        log = _fetch_log(tmp_path / "run")
        assert not log["url"].str.contains("/private/").any()
        assert run.metrics.robots_denied > 0

    def test_one_and_four_parts_agree(self, corpus, tmp_path, monkeypatch):
        """The bootstrap, the link admissions and the frontier backlog
        in one part and in four key-hash parts (few rows per part on the
        4-CPU test cluster) give the same seen set, fetch order and
        metrics; each round records its parts."""
        from vat_abcd_crawler_ray.ops import hashagg

        runs = {}
        for parts, rows_per_part in ((1, hashagg._ROWS_PER_PART), (4, 4)):
            monkeypatch.setattr(hashagg, "_ROWS_PER_PART", rows_per_part)
            run = _mk_run(corpus, tmp_path / str(parts))
            run.run()
            infos = run.manifest.round_infos()
            assert infos[0]["bootstrap_parts"] == parts
            assert {i["admission_parts"] for i in infos} - {0} == {parts}
            backlog = {i["backlog_parts"] for i in infos} - {0}
            if parts == 1:
                assert backlog == {1}, backlog
            else:  # the backlog's four parts plus the last admission's
                assert max(backlog) > 4, backlog
            runs[parts] = run
        pd.testing.assert_frame_equal(_seen_table(runs[1]), _seen_table(runs[4]))
        pd.testing.assert_frame_equal(_fetch_log(tmp_path / "1"), _fetch_log(tmp_path / "4"))
        assert runs[1].metrics.as_dict() == runs[4].metrics.as_dict()

    def _assert_stage_parts_agree(self, corpus, tmp_path, split_stages, stage):
        """Run once with ``stage`` in one part on the driver and once in
        four key-hash part tasks (four rows per part), every other stage
        in one part: each run records the stage's parts, and both give
        the same seen set, fetch order and metrics."""
        runs = {}
        for path in ("driver", "distributed"):
            if path == "distributed":
                split_stages(4, stage)
            run = _mk_run(corpus, tmp_path / path)
            run.run()
            infos = run.manifest.round_infos()
            for other in ("bootstrap", "admission", "backlog"):
                recorded = {i[f"{other}_parts"] for i in infos if f"{other}_parts" in i} - {0}
                if other == stage:
                    assert recorded == {4 if path == "distributed" else 1}, (stage, recorded)
                elif other != "backlog":  # the backlog also holds the admission's parts
                    assert recorded == {1}, (other, recorded)
            runs[path] = run
        drv, dist = runs["driver"], runs["distributed"]
        pd.testing.assert_frame_equal(_seen_table(drv), _seen_table(dist))
        pd.testing.assert_frame_equal(
            _fetch_log(tmp_path / "driver"), _fetch_log(tmp_path / "distributed")
        )
        assert drv.metrics.as_dict() == dist.metrics.as_dict()

    def test_one_and_four_backlog_parts_agree(self, corpus, tmp_path, split_stages):
        """The frontier backlog pre-selected as one part and as four
        key-hash parts gives the same seen set, fetch order and
        metrics."""
        self._assert_stage_parts_agree(corpus, tmp_path, split_stages, "backlog")

    def test_driver_vs_distributed_admission(self, corpus, tmp_path, split_stages):
        """The link admission in four part tasks (seen anti-filter,
        first-wins and seq-surrogate numbering per key-hash part) must
        produce the same run as the one-part admission on the driver."""
        self._assert_stage_parts_agree(corpus, tmp_path, split_stages, "admission")

    def test_driver_vs_distributed_bootstrap(self, corpus, tmp_path, split_stages):
        """The seed bootstrap in four part tasks (first-wins per key-hash
        part, frontier 0 written as files) must produce the same run as
        the one-part bootstrap on the driver."""
        self._assert_stage_parts_agree(corpus, tmp_path, split_stages, "bootstrap")

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

    def test_kill_and_resume_at_four_parts(self, corpus, tmp_path, monkeypatch):
        """Killed after round 0 and resumed, all at four parts: frontier
        1, written by round 0's close, holds the admission parts'
        robots-denied rows too (every denial of this corpus is a round-0
        link), so the resumed run rebuilds the frontier the
        uninterrupted run selected from and counts the same frontier
        rows and denials."""
        from vat_abcd_crawler_ray.ops import hashagg

        monkeypatch.setattr(hashagg, "_ROWS_PER_PART", 4)
        rfull = _mk_run(corpus, tmp_path / "full")
        rfull.run()
        s = Settings()
        s.crawl.max_rounds = 1
        _mk_run(corpus, tmp_path / "part", settings=s).run()
        rres = _mk_run(corpus, tmp_path / "part")
        rres.run(resume=True)
        assert rres.manifest.round_info(0)["admission_parts"] == 4
        assert rres.metrics.robots_denied > 0
        pd.testing.assert_frame_equal(_seen_table(rfull), _seen_table(rres))
        pd.testing.assert_frame_equal(_fetch_log(tmp_path / "full"), _fetch_log(tmp_path / "part"))
        assert rres.metrics.as_dict() == rfull.metrics.as_dict()

    def test_resume_from_multi_shard_snapshots(self, corpus, tmp_path, full_run):
        """A run directory whose seen snapshots are in the layout of a
        set split over 4 shards (``shard_0..3.npz`` by ``key % 4``, each
        with its own filter table) resumes to the uninterrupted run: the
        restore merges the shard files of the full snapshot and of the
        delta after it."""
        rfull, full_dir = full_run
        part_dir = tmp_path / "part"
        s = Settings()
        s.crawl.max_rounds = 2
        rpart = _mk_run(corpus, part_dir, settings=s)
        rpart.run()
        infos = rpart.manifest.round_infos()
        assert [i["seen_snapshot_mode"] for i in infos] == ["full", "delta"]
        for i in infos:
            _split_snapshot(i["seen_snapshot"], 4)

        rres = _mk_run(corpus, part_dir)
        rres.run(resume=True)
        pd.testing.assert_frame_equal(_seen_table(rfull), _seen_table(rres))
        pd.testing.assert_frame_equal(_fetch_log(full_dir), _fetch_log(part_dir))
        assert rres.metrics.as_dict() == rfull.metrics.as_dict()
        assert (
            rres.manifest.published()["metrics"]
            == rfull.manifest.published()["metrics"]
        )

    def test_seen_tiers_in_manifest(self, corpus, tmp_path):
        """Each group-closing round's info in MANIFEST.json names the
        seen set's tier sizes at the snapshot cut (a mid-group round has
        no snapshot); a small RAM cap puts rows on disk, and the last
        cut's tiers add up to the final seen set."""
        s = Settings()
        s.crawl.seen_ram_cap_per_shard = 32
        run = _mk_run(corpus, tmp_path / "run", settings=s)
        run.run()
        with open(os.path.join(str(tmp_path / "run"), "MANIFEST.json")) as fh:
            rounds = json.load(fh)["rounds"]
        closing = [r for r in rounds if r["round"] == r["commit_group"][1]]
        assert 2 <= len(closing) < len(rounds)
        for r in rounds:
            if r not in closing:
                assert r["seen_snapshot"] is None and "seen_tiers" not in r
                continue
            assert {"tail", "ram_rows", "disk_rows", "disk_runs"} <= set(r["seen_tiers"])
        last = rounds[-1]["seen_tiers"]
        assert last["disk_runs"] > 0
        assert last["tail"] + last["ram_rows"] + last["disk_rows"] == len(
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
        # last round; every round entry keeps the parts its selection
        # reduced and its admission took (one, or none), its stats and
        # extract routes; round 0 the bootstrap's parts
        for r in pub["rounds"]:
            first, last = r["commit_group"]
            if r["round"] == last:
                assert r["seen_snapshot"] == run.seen_dir(last)
                assert os.path.isdir(r["seen_snapshot"])
                assert "filter_buckets" in r["seen_tiers"]
            assert r.get("bootstrap_parts") == (1 if r["round"] == 0 else None)
            assert r["backlog_parts"] in (0, 1)
            assert r["admission_parts"] in (0, 1)
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
        sizes = [args[0].num_rows for args in run._fetch_store_refs(meta)]
        ncpu = int(ray.cluster_resources()["CPU"])
        assert 1 < len(sizes) <= 2 * ncpu and min(sizes) >= 32 and sum(sizes) == n
        run.settings.crawl.batch_size = n
        assert len(run._fetch_store_refs(meta)) == 1

    def test_group_commits_before_next_round_ends(self, corpus, tmp_path, monkeypatch):
        """A closed group's manifest entry is written while the next
        round's extract tasks run: it exists when that round's admission
        starts (round 0 closes alone, so its entry is the first)."""
        committed_at_admission = {}
        admit = CrawlRun._admit

        def spy(self, fx):
            rnd = len(self.metrics.per_round)  # the rounds committed so far
            committed_at_admission[rnd] = [
                r for r in range(rnd) if os.path.exists(self.manifest.round_path(r))
            ]
            return admit(self, fx)

        monkeypatch.setattr(CrawlRun, "_admit", spy)
        run = _mk_run(corpus, tmp_path / "run")
        run.run()
        assert 0 in committed_at_admission[1]
        # so for every group: its last round is committed by the time
        # the round after it admits links
        for rnd, info in enumerate(run.manifest.round_infos()[:-1]):
            if info["commit_group"][1] == rnd:
                assert rnd in committed_at_admission[rnd + 1], rnd

    def test_store_crawl_starts_no_actor(self, corpus, tmp_path, monkeypatch):
        """The store-mode fetch tier is tasks over object-store files: a
        crawl that loads its corpus afresh creates no actor."""
        import ray._private.state as ray_state

        from vat_abcd_crawler_ray.state import page_store

        monkeypatch.setattr(page_store, "_STORE_CACHE", {})
        before = set(ray_state.actors())
        s = Settings()
        s.crawl.max_rounds = 2
        _mk_run(corpus, tmp_path / "run", settings=s).run()
        assert set(ray_state.actors()) == before

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
        refs = _extract_project_chunk.remote(run._stage_ref(), (seqs, prio), 64, *chunk)
        records = ray.get(refs[1])[2]
        out = str(tmp_path / "out")

        def run_writer() -> tuple:
            # the same chunk twice: a group of two chunks
            written = ray.get(
                _write_group.remote(out, str(tmp_path / "front"), [], None, 0,
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
                frames.append(read_parquet_dir(d, columns=["url", title_col]).to_pandas())
        got = pd.concat(frames, ignore_index=True)
        pages = pq.read_table(
            f"{corpus}/pages.parquet", columns=["url", "text"]
        ).to_pandas()
        merged = got.merge(pages, on="url", how="left")
        assert len(merged) == len(got)
        assert (merged[title_col] == merged["text"]).all()


def _write_corpus(corpus, urls: list[str], hosts: dict) -> str:
    """A corpus of ``urls`` (sorted; seeds in that order, every page a
    parse error) and ``hosts``: host → (budget, robots disallow prefix)."""
    os.makedirs(corpus)
    n = len(urls)
    pq.write_table(
        pa.table(
            {
                "url": urls,
                "warc_ts": pa.array([0] * n, pa.timestamp("us")),
                "html": pa.array([b"<x/>"] * n, pa.binary()),
                "text": ["t"] * n,
                "lang": ["en"] * n,
            }
        ),
        os.path.join(corpus, "pages.parquet"),
    )
    pq.write_table(
        pa.table({"url": urls, "priority": [0.5] * n, "seq": pa.array(range(n), pa.int64())}),
        os.path.join(corpus, "seeds.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "host": list(hosts),
                "max_fetches_per_round": pa.array([b for b, _ in hosts.values()], pa.int64()),
                "robots_disallow_prefix": [r for _, r in hosts.values()],
            }
        ),
        os.path.join(corpus, "politeness.parquet"),
    )
    return str(corpus)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "route,parts", [("memory", 1), ("bootstrap", 4), ("rebuild", 1), ("rebuild", 4)],
    ids=["memory-1", "bootstrap-4", "rebuild-1", "rebuild-4"],
)
def test_all_robots_denied_round_completes(tmp_path, monkeypatch, route, parts):
    """Regression: a frontier whose EVERY row is robots-denied selects
    nothing, so the crawl ends cleanly with no further round (as the
    sequential oracle does) and counts every denial — checked on the
    driver (``memory``: a one-part bootstrap hands round 0 the seeds in
    memory), in the bootstrap's part tasks (``bootstrap``: four parts)
    and in the backlog part tasks (``rebuild``: a resume rebuilds its
    backlog in ``parts`` parts from a frontier dir whose every row the
    resumed run's robots rules deny)."""
    from vat_abcd_crawler_ray.ops import hashagg

    urls = [f"https://deny.example.org/doc/{i}" for i in range(6)]
    monkeypatch.setattr(hashagg, "_ROWS_PER_PART", -(-len(urls) // parts))
    # "/" denies every path
    deny = {"deny.example.org": (8, "/")}
    if route != "rebuild":
        corpus = _write_corpus(tmp_path / "corpus", urls, deny)
        run = _mk_run(corpus, tmp_path / "run")
        metrics = run.run()
        assert run.manifest.round_infos() == []
        assert metrics.fetched == 0 and metrics.rounds == 0
    else:
        # a zero-budget host with no rule: round 0 fetches the one other
        # page and leaves the six rows in frontier 1
        ok = "https://ok.example.org/"
        corpus = _write_corpus(
            tmp_path / "corpus", urls + [ok],
            {"deny.example.org": (0, ""), "ok.example.org": (1, "")},
        )
        _mk_run(corpus, tmp_path / "run").run()
        _write_corpus(tmp_path / "denied", urls + [ok], {**deny, "ok.example.org": (1, "")})
        shutil.copy(tmp_path / "denied" / "politeness.parquet", f"{corpus}/politeness.parquet")
        run = _mk_run(corpus, tmp_path / "run")
        metrics = run.run(resume=True)
        assert metrics.fetched + metrics.fetch_misses == 1 and metrics.rounds == 1
    assert metrics.robots_denied == len(urls)
    assert run.manifest.published()["status"] == "published"


@pytest.mark.usefixtures("ray_session")
def test_round_that_selects_nothing_ends_the_crawl(tmp_path):
    """When only zero-budget rows are left, the round selects nothing
    and the crawl ends, as the sequential oracle does, instead of
    committing empty rounds up to ``max_rounds``; the unselected rows
    stay in the last frontier directory."""
    from vat_abcd_crawler_ray.oracle.seqcrawl import sequential_crawl
    from vat_abcd_crawler_ray.pipelines.crawl import _count_parquet_rows

    urls = [f"https://{h}.example.org/doc/{i}" for h in ("ok", "zero") for i in range(3)]
    corpus = _write_corpus(
        tmp_path / "corpus", urls, {"ok.example.org": (8, ""), "zero.example.org": (0, "")}
    )
    s = Settings()
    s.crawl.max_rounds = 10
    run = _mk_run(corpus, tmp_path / "run", settings=s)
    metrics = run.run()
    assert metrics.rounds == 1
    assert _count_parquet_rows(run.frontier_dir(1)) == 3

    seq_log = sequential_crawl(corpus, max_rounds=10)[0]
    err = read_parquet_dir(
        os.path.join(str(tmp_path / "run"), "staging", "extracted"),
        columns=["round", "url", "surrogate", "seq", "error_kind"],
    ).to_pylist()
    # every page is a parse error, so the error rows are the fetch log
    assert sorted(
        (r["round"], r["url"], r["surrogate"], r["seq"])
        for r in err if r["error_kind"] != "FetchMiss"
    ) == sorted(seq_log)


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
    "key,value",
    [("num_seen_shards", -1), ("seen_capacity_per_shard", 0), ("num_page_shards", 0)],
)
def test_bad_seen_setting_rejected(tmp_path, key, value):
    """The removed shard settings (the seen set's and the page store's)
    are unknown: a settings file that still names one fails to load
    instead of being ignored."""
    from vat_abcd_crawler_ray.config import load_settings

    path = tmp_path / "settings.toml"
    path.write_text(f"[crawl]\n{key} = {value}\n")
    with pytest.raises(ValueError, match=f"unknown setting 'crawl.{key}'"):
        load_settings(str(path))


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
