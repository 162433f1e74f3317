"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs every workload once at tiny size (about 500 pages or 480
documents, the size of the smallest test data), requires its check to
pass on the real output, then plants one defect at a time in a copy of
that output and requires the check to report it. Exits 0 only when
every clean output passes and every planted defect is caught.
"""

from __future__ import annotations

import contextlib
import glob
import io
import os
import shutil
import sys

import pyarrow as pa
import pyarrow.parquet as pq

import run as bench

SEED = 7


def rewrite_first(run_dir: str, kind: str, edit) -> None:
    """Apply ``edit(df) -> df`` to the first output file of ``kind``."""
    path = sorted(glob.glob(os.path.join(
        run_dir, "staging", "extracted", "round=*", f"record_type={kind}", "*.parquet"
    )))[0]
    t = pq.read_table(path)
    pq.write_table(pa.Table.from_pandas(edit(t.to_pandas()), schema=t.schema,
                                        preserve_index=False), path)


def crawl_cases(name: str, scratch: str) -> list[tuple[str, list[str]]]:
    import workloads
    from vat_abcd_crawler_ray.pipelines.crawl import CrawlRun

    w = workloads.make(name, SEED, scale="tiny")
    w.prepare(os.path.join(scratch, name))
    c = w.corpus
    clean = os.path.join(scratch, f"{name}-run")
    run = CrawlRun(f"{c}/pages.parquet", f"{c}/seeds.parquet", f"{c}/politeness.parquet",
                   clean, settings=w.settings())
    run.run()
    seen = run.seen.to_table().to_pandas()
    del run

    def planted(label, edit_dir=None, edit_seen=None):
        d = os.path.join(scratch, f"{name}-{label}")
        shutil.copytree(clean, d)
        if edit_dir is not None:
            edit_dir(d)
        s = edit_seen(seen.copy()) if edit_seen is not None else seen
        return f"{name}: {label}", workloads.check_crawl(w.oracle, d, s)

    def mutate_title(df):
        df.loc[df.index[0], workloads.TITLE_COL] += "!"
        return df

    def shift_seq(df):
        df.loc[df.index[0], "seq"] += 1
        return df

    def relabel_error(df):
        df.loc[df.index[0], "error_kind"] = "PlantedError"
        return df

    return [
        (f"{name}: clean output", workloads.check_crawl(w.oracle, clean, seen)),
        planted("one seen-set key dropped", edit_seen=lambda s: s.iloc[1:]),
        planted("one seen-set surrogate changed",
                edit_seen=lambda s: s.assign(surrogate=s["surrogate"].where(s.index != 0, -1))),
        planted("one extracted text mutated",
                edit_dir=lambda d: rewrite_first(d, "dataset", mutate_title)),
        planted("one fetch-log seq shifted",
                edit_dir=lambda d: rewrite_first(d, "dataset", shift_seq)),
        planted("one dead letter relabelled",
                edit_dir=lambda d: rewrite_first(d, "error", relabel_error)),
        planted("manifest missing",
                edit_dir=lambda d: os.remove(os.path.join(d, "MANIFEST.json"))),
    ]


def curate_cases(scratch: str) -> list[tuple[str, list[str]]]:
    import workloads
    from vat_abcd_crawler_ray import cli

    w = workloads.make("curate", SEED, scale="tiny")
    w.prepare(os.path.join(scratch, "curate"))
    out = os.path.join(scratch, "curated")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["curate", "--input", w.input, "--out", out, *workloads.CURATE_FLAGS])
    kept = workloads.read_curated(out)
    o = w.oracle
    first = kept.index[0]
    cases = [
        ("curate: clean output", workloads.check_curate(o, kept)),
        ("curate: one row duplicated",
         workloads.check_curate(o, kept.iloc[[0] + list(range(len(kept)))])),
        ("curate: one text mutated",
         workloads.check_curate(o, kept.assign(text=kept["text"].where(kept.index != first, "x")))),
        ("curate: one id not an input id",
         workloads.check_curate(o, kept.assign(doc_id=kept["doc_id"].where(kept.index != first, -5)))),
        ("curate: empty output", workloads.check_curate(o, kept.iloc[:0])),
    ]
    o.kept = len(kept) + 1
    cases.append(("curate: kept count differs from an earlier run",
                  workloads.check_curate(o, kept)))
    return cases


def main() -> int:
    bench.use_checkout()
    work = os.path.join(bench.ROOT, ".perfbench")
    scratch = os.path.join(work, f"selftest-{os.getpid()}")
    os.makedirs(scratch)
    try:
        with contextlib.redirect_stdout(sys.stderr), bench.ray_session(work, bench.nproc()):
            cases = (crawl_cases("crawl_bulk", scratch)
                     + crawl_cases("crawl_deep", scratch)
                     + curate_cases(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ok = True
    for label, problems in cases:
        want_clean = label.endswith("clean output")
        good = (not problems) if want_clean else bool(problems)
        ok &= good
        verdict = "ok  " if good else "FAIL"
        print(f"{verdict} {label}: {'; '.join(problems) or 'no problems'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
