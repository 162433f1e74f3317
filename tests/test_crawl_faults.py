"""Group-commit fault injection: a crawl driver SIGKILLed at a named
point of the commit protocol, then resumed in a fresh process, must
publish the seen set, fetch log and metrics of the uninterrupted run
and of the sequential oracle.

Each process is a child of the test that joins the session's Ray
cluster; the kill is injected by patching names inside the child (the
package reads no environment variables)."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from vat_abcd_crawler_ray.config import Settings
from vat_abcd_crawler_ray.oracle.seqcrawl import sequential_crawl
from vat_abcd_crawler_ray.pipelines import crawl
from vat_abcd_crawler_ray.sources.synthetic import corpus_dir
from vat_abcd_crawler_ray.state.manifest import RunManifest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# small enough that the narrow corpus's 17 rounds close in several
# multi-round groups, e.g. [0] [1] [2..5] [6..9] ...
GROUP_BYTES = 100_000
FULL_EVERY = 3  # fulls and delta chains both occur

CHILD = r"""
import os, signal, sys
import pyarrow.parquet as pq
import ray

gcs, corpus, run_dir, point = sys.argv[1:5]
ray.init(address=gcs, logging_level="ERROR")
from vat_abcd_crawler_ray.config import Settings
from vat_abcd_crawler_ray.ops import hashagg
from vat_abcd_crawler_ray.pipelines import crawl
from vat_abcd_crawler_ray.state.manifest import RunManifest

crawl.GROUP_BYTES_MAX = int(sys.argv[5])
hashagg._ROWS_PER_PART = int(sys.argv[7])


def kill_when(owner, name, hit, after=False):
    orig = getattr(owner, name)

    def patched(self, *args, **kwargs):
        kill = hit(self, *args)
        if kill and not after:
            os.kill(os.getpid(), signal.SIGKILL)
        out = orig(self, *args, **kwargs)
        if kill:
            os.kill(os.getpid(), signal.SIGKILL)
        return out

    setattr(owner, name, patched)


if point == "before_writer":  # a multi-round group's extracts returned
    kill_when(crawl.CrawlRun, "_close_group", lambda self, *a: self._group.first > 1)
elif point == "before_entry":  # its writer and snapshot are done
    kill_when(RunManifest, "commit_round", lambda self, rnd, *a: rnd > 1)
elif point == "next_group":  # the next group has run one round
    kill_when(
        crawl.CrawlRun, "_select",
        lambda self, rnd: self._group is not None and len(self._group.infos) == 1
        and self.manifest.last_complete_round() > 1,
    )
elif point == "after_early_commit":  # group [2..5] is committed while
    # the next round's extract tasks run
    kill_when(
        crawl.CrawlRun, "_flush_pending_commit",
        lambda self: self._pending_commit is not None and self._pending_commit[1] > 1
        and self._group is not None and not self._group.infos,
        after=True,
    )
elif point == "in_finalize":  # every group committed, nothing published
    kill_when(RunManifest, "finalize", lambda self: True)
s = Settings()
s.crawl.snapshot_full_every = int(sys.argv[6])
run = crawl.CrawlRun(f"{corpus}/pages.parquet", f"{corpus}/seeds.parquet",
                     f"{corpus}/politeness.parquet", run_dir, settings=s)
run.run(resume=point == "resume")
pq.write_table(run.seen.to_table(), os.path.join(run_dir, "seen_dump.parquet"))
ray.shutdown()
"""


@pytest.fixture(scope="module")
def narrow_corpus(ray_session, tmp_path_factory):
    """The sf0.001 corpus with every host budget cut to a quarter: 17
    narrow rounds instead of 4."""
    src = corpus_dir("/root/testdata/sf0.001")
    c = str(tmp_path_factory.mktemp("narrow"))
    for f in ("pages.parquet", "seeds.parquet"):
        os.symlink(os.path.join(src, f), os.path.join(c, f))
    pol = pq.read_table(os.path.join(src, "politeness.parquet"))
    cut = pc.max_element_wise(pc.divide(pol["max_fetches_per_round"], 4), 1)
    pq.write_table(
        pol.set_column(1, "max_fetches_per_round", cut),
        os.path.join(c, "politeness.parquet"),
    )
    return c


@pytest.fixture(scope="module")
def references(narrow_corpus, tmp_path_factory):
    """(uninterrupted run, its dir, sequential oracle) for the corpus."""
    d = str(tmp_path_factory.mktemp("whole"))
    mp = pytest.MonkeyPatch()
    mp.setattr(crawl, "GROUP_BYTES_MAX", GROUP_BYTES)
    s = Settings()
    s.crawl.snapshot_full_every = FULL_EVERY
    run = crawl.CrawlRun(
        f"{narrow_corpus}/pages.parquet", f"{narrow_corpus}/seeds.parquet",
        f"{narrow_corpus}/politeness.parquet", d, settings=s,
    )
    run.run()
    mp.undo()
    return run, d, sequential_crawl(narrow_corpus)


def _child(corpus: str, run_dir: str, point: str, rows_per_part: int = 1 << 20) -> int:
    """Run the crawl in a child process; ``rows_per_part`` sizes its
    frontier backlog parts (the default keeps every backlog one part)."""
    import ray

    return subprocess.run(
        [sys.executable, "-c", CHILD, ray.get_runtime_context().gcs_address,
         corpus, run_dir, point, str(GROUP_BYTES), str(FULL_EVERY), str(rows_per_part)],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": REPO},
        timeout=300,
    ).returncode


def _fetch_log(run_dir: str) -> pd.DataFrame:
    """(round, url, surrogate, seq) of every fetched page: dataset rows
    and parse-error rows (fetch misses were never fetched)."""
    frames = []
    for kind in ("dataset", "error"):
        files = [
            os.path.join(root, f)
            for root, _d, fs in os.walk(os.path.join(run_dir, "staging", "extracted"))
            if root.endswith(f"record_type={kind}")
            for f in fs
        ]
        for f in files:
            df = pq.read_table(f).to_pandas()
            if kind == "error":
                df = df[df["error_kind"] != "FetchMiss"]
            frames.append(df[["round", "url", "surrogate", "seq"]])
    return (
        pd.concat(frames, ignore_index=True)
        .astype({"round": "int64", "surrogate": "int64", "seq": "int64"})
        .sort_values(["round", "seq"])
        .reset_index(drop=True)
    )


@pytest.mark.parametrize(
    "point,committed",
    # in_finalize: all 17 rounds committed
    [("before_writer", 1), ("before_entry", 1), ("next_group", 5),
     ("after_early_commit", 5), ("in_finalize", 16)],
)
def test_killed_driver_resumes_to_the_uninterrupted_run(
    narrow_corpus, references, tmp_path, point, committed
):
    run, whole_dir, (seq_log, seq_seen, *_rest) = references
    groups = sorted({tuple(r["commit_group"]) for r in run.manifest.published()["rounds"]})
    assert groups[:3] == [(0, 0), (1, 1), (2, 5)], groups  # the points below
    d = str(tmp_path / "run")
    assert _child(narrow_corpus, d, point) == -signal.SIGKILL
    assert not os.path.exists(os.path.join(d, "MANIFEST.json"))
    # at most one group lost: the last committed one is the group before
    assert RunManifest(d).last_complete_round() == committed
    assert _child(narrow_corpus, d, "resume") == 0
    _assert_resumed_equal(d, run, whole_dir, seq_log, seq_seen)


def test_killed_driver_resumes_at_four_backlog_parts(narrow_corpus, references, tmp_path):
    """A driver killed at ``next_group`` (one-part backlog) and resumed
    with one row per part on the 4-CPU test cluster: the resumed run
    rebuilds its first backlog from the frontier files in four key-hash
    parts, and publishes the uninterrupted run."""
    run, whole_dir, (seq_log, seq_seen, *_rest) = references
    d = str(tmp_path / "run")
    assert _child(narrow_corpus, d, "next_group") == -signal.SIGKILL
    assert RunManifest(d).last_complete_round() == 5
    assert _child(narrow_corpus, d, "resume", rows_per_part=1) == 0
    with open(os.path.join(d, "MANIFEST.json")) as fh:
        parts = [r["backlog_parts"] for r in json.load(fh)["rounds"]]
    # rounds 0-5 reduced at most one part; round 6 rebuilt four
    assert set(parts[:6]) <= {0, 1} and parts[6] == 4, parts
    _assert_resumed_equal(d, run, whole_dir, seq_log, seq_seen)


def _assert_resumed_equal(d: str, run, whole_dir: str, seq_log, seq_seen) -> None:
    """The resumed run in ``d`` publishes the seen set, fetch log and
    metrics of the uninterrupted ``run`` and of the oracle."""
    seen = pq.read_table(os.path.join(d, "seen_dump.parquet")).to_pandas()
    pd.testing.assert_frame_equal(seen, run.seen.to_table().to_pandas())
    oracle_seen = pd.DataFrame(
        [(k, s, q) for k, (s, q) in seq_seen.items()],
        columns=["key", "surrogate", "first_seq"],
    ).sort_values("surrogate").reset_index(drop=True)
    pd.testing.assert_frame_equal(seen[["key", "surrogate", "first_seq"]], oracle_seen)

    log = _fetch_log(d)
    pd.testing.assert_frame_equal(log, _fetch_log(whole_dir))
    oracle_log = pd.DataFrame(seq_log, columns=["round", "url", "surrogate", "seq"])
    pd.testing.assert_frame_equal(
        log, oracle_log.astype(log.dtypes.to_dict()).sort_values(["round", "seq"])
        .reset_index(drop=True)
    )

    with open(os.path.join(d, "MANIFEST.json")) as fh:
        metrics = json.load(fh)["metrics"]
    assert metrics == run.manifest.published()["metrics"]
    shutil.rmtree(d)
