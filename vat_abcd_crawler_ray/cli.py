"""CLI entry points (SURVEY §2.8: ``crawl`` / ``extract-file`` analogs
of the reference's ``Cmd::All`` / ``Cmd::FileToCsv``,
``/root/reference/src/main.rs:288-321``).

Owns its Ray session (the driver contract ``__ray_entry__`` does not).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus: int | None) -> bool:
    """Start a local Ray session if none is live. Returns True iff this
    call started it (the caller then owns the shutdown); joining an
    already-running session must NOT tear it down on exit."""
    import ray

    if ray.is_initialized():
        return False
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    return True


def _shutdown_ray(owned: bool) -> None:
    import ray

    if owned:
        ray.shutdown()


def cmd_crawl(args: argparse.Namespace) -> int:
    import ray

    from .config import load_settings
    from .pipelines.crawl import CrawlRun
    from .pipelines.tables import write_all_tables

    owned = _init_ray(args.num_cpus)
    settings = load_settings(args.settings)
    run = CrawlRun(
        args.pages, args.seeds, args.politeness, args.out, settings=settings,
        fetch_mode=args.fetch_mode,
    )
    metrics = run.run(resume=args.resume)
    if args.tables:
        write_all_tables(args.out, os.path.join(args.out, "tables"))
    json.dump(metrics.as_dict(), sys.stdout, default=str)
    print()
    _shutdown_ray(owned)
    return 0


def cmd_extract_file(args: argparse.Namespace) -> int:
    from .config import load_settings
    from .functions.fields import FieldRegistry
    from .pipelines.tables import archive_to_csv

    settings = load_settings(args.settings)
    reg = (
        FieldRegistry.from_json_file(args.fields)
        if args.fields
        else FieldRegistry()
    )
    sys.stdout.write(archive_to_csv(args.zip, reg, settings))
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    import ray

    from .pipelines.tables import write_all_tables

    owned = _init_ray(args.num_cpus)
    paths = write_all_tables(args.run_dir, args.out)
    json.dump(paths, sys.stdout)
    print()
    _shutdown_ray(owned)
    return 0


def cmd_gpkg(args: argparse.Namespace) -> int:
    import ray

    from .pipelines.gpkg import units_gpkg

    owned = _init_ray(args.num_cpus)
    stats = units_gpkg(args.run_dir, args.out, layer=args.layer)
    json.dump(stats, sys.stdout)
    print()
    _shutdown_ray(owned)
    return 0


def cmd_dedup(args: argparse.Namespace) -> int:
    """Training-data dedup over a parquet documents table → kept rows
    as partitioned parquet (the LLM-pipeline front door: the same
    operators queries()/oracles gate, wired for batch use)."""
    import ray
    import ray.data

    owned = _init_ray(args.num_cpus)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    ds = ray.data.read_parquet(
        args.input, columns=None, override_num_blocks=ncpu * 2
    )
    n_in = ds.count()
    opts = {
        "exact": {"key_len": args.key_len or None},
        "minhash": {"threshold": args.threshold},
        "simhash": {"hamming_max": args.hamming_max},
    }[args.method]
    ids = _DedupIds(args.input, args.id_col)
    kept = ids.restore(ids.dedup(ds, args.method, args.text_col, **opts))
    kept.write_parquet(args.out)
    # count from the written footers, not a second pipeline run
    import pyarrow.parquet as pq

    n_out = sum(
        pq.ParquetFile(os.path.join(args.out, f)).metadata.num_rows
        for f in os.listdir(args.out)
        if f.endswith(".parquet")
    )
    json.dump(
        {"method": args.method, "rows_in": n_in, "rows_kept": n_out,
         "rows_removed": n_in - n_out, "out": args.out},
        sys.stdout,
    )
    print()
    _shutdown_ray(owned)
    return 0


def cmd_textstats(args: argparse.Namespace) -> int:
    """Per-document text analysis (langid / quality / token stats /
    fingerprint) over a parquet documents table → parquet."""
    import pandas as pd
    import ray
    import ray.data

    from .functions import textstats as ts

    owned = _init_ray(args.num_cpus)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    ds = ray.data.read_parquet(
        args.input, columns=[args.id_col, args.text_col],
        override_num_blocks=ncpu * 2,
    )
    id_col, text_col = args.id_col, args.text_col

    def featurize(df: pd.DataFrame) -> pd.DataFrame:
        out = {id_col: df[id_col]}
        out["lang_pred"] = ts.langid(df[text_col])
        q = ts.quality_features(df[text_col])
        out.update({k: q[k] for k in q.columns})
        tc = ts.token_count(df[text_col])
        out["n_tokens"] = tc
        out["fp"] = ts.fingerprint(df[text_col])
        return pd.DataFrame(out)

    ds.map_batches(featurize, batch_format="pandas").write_parquet(args.out)
    json.dump({"out": args.out}, sys.stdout)
    print()
    _shutdown_ray(owned)
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """WARC(.gz) files → curation-ready documents parquet: response
    records parsed, HTML decoded (charset sniff) and reduced to
    text/title/link-count rows — the front half of the standard
    web-corpus chain (follow with ``curate``)."""
    import pandas as pd
    import ray

    from .functions.html import page_records
    from .sources.warc import read_warc

    owned = _init_ray(args.num_cpus)
    paths = args.warc
    if len(paths) == 1 and os.path.isdir(paths[0]):
        paths = sorted(
            os.path.join(paths[0], f)
            for f in os.listdir(paths[0])
            if f.endswith((".warc", ".warc.gz"))
        )
    if not paths:
        raise SystemExit("no .warc/.warc.gz inputs found")
    min_status, max_status = 200, 299

    def glue(df: pd.DataFrame) -> pd.DataFrame:
        ok = df[
            df["warc_error"].isna()
            & df["status"].between(min_status, max_status)
        ]
        return page_records(
            ok[["warc_file", "url", "date", "status", "html"]].reset_index(
                drop=True
            )
        )

    read_warc(paths).map_batches(glue, batch_format="pandas").write_parquet(
        args.out
    )
    json.dump({"out": args.out, "warc_files": len(paths)}, sys.stdout)
    print()
    _shutdown_ray(owned)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Corpus report card over a documents table: token/quality/
    repetition aggregates, language mix, duplication coverage and the
    top vocabulary — one JSON to stdout (plus optional top-terms
    parquet). The look-before-you-train pass."""
    import numpy as np
    import pandas as pd
    import ray

    from .functions import textstats as ts
    from .pipelines.substring_dedup import substring_dup_stats
    from .pipelines.vocab import vocab_stats

    owned = _init_ray(args.num_cpus)
    import ray.data

    ncpu = int(ray.cluster_resources().get("CPU", 8))
    ds = ray.data.read_parquet(
        args.input, columns=[args.id_col, args.text_col],
        override_num_blocks=ncpu * 2,
    )
    id_col, text_col = args.id_col, args.text_col

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        q = ts.quality_features(df[text_col]).reset_index(drop=True)
        r = ts.repetition_features(df[text_col]).reset_index(drop=True)
        return pd.DataFrame({
            "n_tokens": q["n_tokens"],
            "n_chars": q["n_chars"],
            "quality_score": q["quality_score"],
            "dup_line_frac": r["dup_line_frac"],
            "top_bigram_char_frac": r["top_bigram_char_frac"],
            "lang": ts.langid(df[text_col]),
        })

    f = ds.map_batches(feats, batch_format="pandas").to_pandas()
    n_docs = len(f)
    sub = substring_dup_stats(
        ds, text_col=text_col, id_col=id_col
    ).to_pandas()
    top, vocab = vocab_stats(ds, text_col=text_col, top_n=args.top_terms)
    report = {
        "n_docs": int(n_docs),
        "total_tokens": vocab["total_tokens"],
        "distinct_terms": vocab["distinct_terms"],
        "tokens_per_doc_p50": float(np.median(f["n_tokens"])),
        "tokens_per_doc_mean": float(f["n_tokens"].mean()),
        "quality_score_mean": float(f["quality_score"].mean()),
        "low_quality_frac": float((f["quality_score"] < 0.2).mean()),
        "lang_mix": {
            k: round(v / n_docs, 4)
            for k, v in f["lang"].value_counts().items()
        },
        "gopher_repetition_flag_frac": float(
            ((f["dup_line_frac"] > 0.3)
             | (f["top_bigram_char_frac"] > 0.2)).mean()
        ),
        "substring_dup_frac_mean": float(sub["dup_fp_frac"].mean()),
        "heavy_boilerplate_frac": float(
            (sub["dup_fp_frac"] > 0.5).mean()
        ),
        "top_terms": top.head(20).to_dict("records"),
    }
    if args.out_terms:
        top.to_parquet(args.out_terms, index=False)
        report["top_terms_parquet"] = args.out_terms
    json.dump(report, sys.stdout)
    print()
    _shutdown_ray(owned)
    return 0


def cmd_lm_train(args: argparse.Namespace) -> int:
    """Train the byte-bigram reference LM over a (clean) documents
    table and save it — the model `curate --ppl-model` filters with."""
    from .functions.lm import save_lm, train_byte_lm

    owned = _init_ray(args.num_cpus)
    import ray
    import ray.data

    ncpu = int(ray.cluster_resources().get("CPU", 8))
    ds = ray.data.read_parquet(
        args.input, columns=[args.text_col],
        override_num_blocks=ncpu * 2,
    )
    save_lm(train_byte_lm(ds, text_col=args.text_col), args.out)
    json.dump({"out": args.out}, sys.stdout)
    print()
    _shutdown_ray(owned)
    return 0


_SID = "__dedup_sid"


def _null_count_digest(block, id_col: str) -> tuple:
    """(null-id rows, 128-bit digest of the rows) of one block."""
    import hashlib

    import pandas as pd

    frame = block if isinstance(block, pd.DataFrame) else block.to_pandas()
    rows = pd.util.hash_pandas_object(frame, index=False).to_numpy()
    digest = hashlib.blake2b(rows.tobytes(), digest_size=16).digest()
    return int(frame[id_col].isna().sum()), digest


def _sid_block(block, id_col: str, int_ids: bool, first: int):
    """One block as Arrow with its int64 dedup surrogate column: an
    integer id as itself, any other id as murmur3 of its string form
    (collision odds ~n^2/2^64 — nil at any corpus), and the null ids
    INT64_MAX - first, - first - 1, ... in row order."""
    import numpy as np
    import pyarrow as pa

    from .functions.urlkeys import murmur3_64_batch

    t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(
        block, preserve_index=False
    )
    ids = t[id_col]
    if int_ids:  # pandas holds an integer column with nulls as float
        sid = ids.cast(pa.int64()).fill_null(0).to_numpy().copy()
    else:
        sid = murmur3_64_batch(ids.cast(pa.string()).fill_null("").to_pylist())
    null = ids.is_null().to_numpy(zero_copy_only=False)
    sid[null] = np.iinfo(np.int64).max - first - np.arange(null.sum())
    return t.append_column(_SID, pa.array(sid))


class _DedupIds:
    """The one id policy of the ``dedup`` and ``curate`` commands. The
    dedup family keys on non-null int64 ids. Any other id column (urls,
    or integers with nulls) is deduplicated on a surrogate column
    instead (``dedup``), and its ids get the input's type back before
    the write (``restore``)."""

    def __init__(self, path: str, id_col: str):
        import pyarrow.dataset as pds
        import pyarrow.types as pat

        src = pds.dataset(path, format="parquet")
        self.id_col = id_col
        self.id_type = src.schema.field(id_col).type
        self.int_ids = pat.is_integer(self.id_type)
        self.null_ids = src.count_rows(filter=pds.field(id_col).is_null())
        self.plain = self.int_ids and not self.null_ids

    def dedup(self, ds, method: str, text_col: str, **opts):
        """The kept rows of dedup ``method`` over ``ds``, materialized
        first: the dedup reads its input more than once, and every read
        shares the blocks. Off the plain path it keys on the surrogate
        column: null ids get surrogates of their own that sort after
        (almost) any id's, so a row with an id wins over a copy
        without. Their ranks are counted over the blocks in
        content-digest order, so they depend only on the data (blocks of
        equal content may swap, which changes no output row)."""
        import ray
        import ray.data

        from .ops.blocks import block_refs
        from .pipelines import dedup as dd

        run = {
            "exact": dd.exact_dedup,
            "minhash": dd.minhash_lsh_dedup,
            "simhash": dd.simhash_dedup,
        }[method]
        ds = ds.materialize()
        if self.plain:
            return run(ds, text_col=text_col, id_col=self.id_col, **opts)
        refs = block_refs(ds)
        firsts = [0] * len(refs)
        if self.null_ids:
            count_digest = ray.remote(_null_count_digest)
            keys = ray.get([count_digest.remote(r, self.id_col) for r in refs])
            first = 0
            for i in sorted(range(len(refs)), key=lambda i: keys[i][1]):
                firsts[i], first = first, first + keys[i][0]
        sid_block = ray.remote(_sid_block)
        ds = ray.data.from_arrow_refs(
            [
                sid_block.remote(r, self.id_col, self.int_ids, f)
                for r, f in zip(refs, firsts)
            ]
        )
        return run(ds, text_col=text_col, id_col=_SID, **opts).drop_columns([_SID])

    def restore(self, ds):
        """``ds`` with the input's id type on every block: pandas blocks
        type a null or non-integer id column per block (null, double,
        string); non-null integer ids keep theirs already."""
        if self.plain:
            return ds
        id_col, id_type = self.id_col, self.id_type
        return ds.map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index(id_col), id_col, t[id_col].cast(id_type)
            ),
            batch_format="pyarrow",
        )


def cmd_curate(args: argparse.Namespace) -> int:
    """One-pass web-corpus curation: C4 line cleaning → PII scrub →
    token count, then optional deterministic sampling, train/val/test
    split labels and sequence packing — the standard
    filter-sample-pack chain over a parquet documents table."""
    import pandas as pd
    import ray
    import ray.data

    from .functions import textstats as ts
    from .ops.packing import pack_sequences
    from .ops.sampling import add_split_column, sample_by_hash

    owned = _init_ray(args.num_cpus)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    ds = ray.data.read_parquet(
        args.input, columns=[args.id_col, args.text_col],
        override_num_blocks=ncpu * 2,
    )
    id_col, text_col = args.id_col, args.text_col
    require_terminal = not args.keep_unterminated
    ids = _DedupIds(args.input, id_col)

    def curate(df: pd.DataFrame) -> pd.DataFrame:
        cl = ts.clean_lines(
            df[text_col], require_terminal=require_terminal
        ).reset_index(drop=True)
        sc = ts.scrub_pii(cl["text"]).reset_index(drop=True)
        out = pd.DataFrame({id_col: df[id_col].reset_index(drop=True)})
        out["text"] = sc["text"]
        out["n_lines"] = cl["n_lines"]
        out["n_kept"] = cl["n_kept"]
        for c in sc.columns:
            if c != "text":
                out[c] = sc[c]
        out["n_tokens"] = ts.token_count(sc["text"])
        return out

    ds = ds.map_batches(curate, batch_format="pandas")
    if args.dedup:
        # near-dup removal INSIDE the chain (post-clean/scrub text is
        # what should be compared — boilerplate removal first makes
        # the similarity signal about content, not chrome)
        opts = {"threshold": args.dedup_threshold} if args.dedup == "minhash" else {}
        ds = ids.dedup(ds, args.dedup, "text", **opts)
    if args.ppl_model:
        # CCNet-style LM filter: drop docs above the perplexity cap
        # (model trained once via `lm-train`, broadcast to every task)
        from .functions.lm import load_lm, perplexity

        lp_ref = ray.put(load_lm(args.ppl_model))
        ppl_max = args.ppl_max

        def ppl_filter(df: pd.DataFrame) -> pd.DataFrame:
            lp = ray.get(lp_ref)
            p = perplexity(df["text"], lp)
            out = df[(~pd.isna(p)) & (p <= ppl_max)].copy()
            out["ppl"] = p[(~pd.isna(p)) & (p <= ppl_max)]
            return out

        ds = ds.map_batches(ppl_filter, batch_format="pandas")
    if args.sample < 1.0:
        ds = sample_by_hash(ds, id_col, args.sample, salt=args.salt)
    if args.splits:
        fractions = {}
        for part in args.splits.split(","):
            name, frac = part.split("=")
            fractions[name.strip()] = float(frac)
        ds = add_split_column(ds, id_col, fractions, salt=args.salt)
    if args.pack_budget:
        ds = pack_sequences(ds, "n_tokens", args.pack_budget, id_col=id_col)
    ds = ids.restore(ds)
    if args.splits:
        # hive-partition by split: consumers read one split without
        # scanning the others, and a re-run can skip finished splits
        # (the resumable-output layout rule)
        ds.write_parquet(args.out, partition_cols=["split"])
    else:
        ds.write_parquet(args.out)
    json.dump({"out": args.out}, sys.stdout)
    print()
    _shutdown_ray(owned)
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="vat_abcd_crawler_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser(
        "crawl",
        help="run the full crawl pipeline",
        description="Run the crawl. Seed bootstrap, link admission "
                    "and the frontier backlog's pre-selection each run "
                    "in key-hash parts sized from the rows they see: "
                    "one part up to about a million rows or on one "
                    "CPU, and a one-part bootstrap or admission runs "
                    "on the driver. Each round's MANIFEST info records "
                    "its backlog and admission parts, round 0's also "
                    "the bootstrap's.",
    )
    c.add_argument("--pages", required=True)
    c.add_argument("--seeds", required=True)
    c.add_argument("--politeness", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--settings", default=None)
    c.add_argument("--resume", action="store_true")
    c.add_argument("--tables", action="store_true", help="also write final tables")
    c.add_argument("--fetch-mode", default="store",
                   choices=["store", "http"],
                   help='"store" fetches from the sharded page table; '
                        '"http" fetches over the real network via the '
                        "stdlib urllib opener built from the crawl "
                        "settings")
    c.add_argument("--num-cpus", type=int, default=None)
    c.set_defaults(fn=cmd_crawl)

    e = sub.add_parser("extract-file", help="ZIP of ABCD XML → CSV on stdout")
    e.add_argument("--zip", required=True)
    e.add_argument("--fields", default=None, help="reference-format field spec JSON")
    e.add_argument("--settings", default=None)
    e.set_defaults(fn=cmd_extract_file)

    t = sub.add_parser("tables", help="derive final tables from a run dir")
    t.add_argument("--run-dir", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--num-cpus", type=int, default=None)
    t.set_defaults(fn=cmd_tables)

    g = sub.add_parser(
        "gpkg",
        help="units → GeoPackage POINT layer (W8, csv-to-gpkg.sh analog)",
    )
    g.add_argument("--run-dir", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--layer", default="out")
    g.add_argument("--num-cpus", type=int, default=None)
    g.set_defaults(fn=cmd_gpkg)

    d = sub.add_parser(
        "dedup",
        help="deduplicate a parquet documents table (exact / minhash / simhash)",
    )
    d.add_argument("--input", required=True, help="documents parquet file/dir")
    d.add_argument("--out", required=True, help="output parquet dir (kept rows)")
    d.add_argument("--method", default="minhash",
                   choices=["exact", "minhash", "simhash"])
    d.add_argument("--text-col", default="text")
    d.add_argument("--id-col", default="doc_id")
    d.add_argument("--key-len", type=int, default=0,
                   help="exact: dedup on a text prefix of this length (0=full)")
    d.add_argument("--threshold", type=float, default=0.8,
                   help="minhash: Jaccard verify threshold")
    d.add_argument("--hamming-max", type=int, default=3,
                   help="simhash: max Hamming distance")
    d.add_argument("--num-cpus", type=int, default=None)
    d.set_defaults(fn=cmd_dedup)

    x = sub.add_parser(
        "textstats",
        help="per-document langid/quality/token/fingerprint features → parquet",
    )
    x.add_argument("--input", required=True)
    x.add_argument("--out", required=True)
    x.add_argument("--text-col", default="text")
    x.add_argument("--id-col", default="doc_id")
    x.add_argument("--num-cpus", type=int, default=None)
    x.set_defaults(fn=cmd_textstats)

    an = sub.add_parser(
        "analyze",
        help="corpus report card: tokens/quality/langs/duplication/"
        "vocabulary → JSON",
    )
    an.add_argument("--input", required=True)
    an.add_argument("--text-col", default="text")
    an.add_argument("--id-col", default="doc_id")
    an.add_argument("--top-terms", type=int, default=1000)
    an.add_argument(
        "--out-terms", default=None,
        help="also write the top-terms table to this parquet path",
    )
    an.add_argument("--num-cpus", type=int, default=None)
    an.set_defaults(fn=cmd_analyze)

    lt = sub.add_parser(
        "lm-train",
        help="train the byte-bigram reference LM → .npy (for curate "
        "--ppl-model)",
    )
    lt.add_argument("--input", required=True)
    lt.add_argument("--out", required=True)
    lt.add_argument("--text-col", default="text")
    lt.add_argument("--num-cpus", type=int, default=None)
    lt.set_defaults(fn=cmd_lm_train)

    ing = sub.add_parser(
        "ingest",
        help="WARC(.gz) files/dir → curation-ready documents parquet",
    )
    ing.add_argument(
        "--warc", nargs="+", required=True,
        help="warc file paths, or one directory of them",
    )
    ing.add_argument("--out", required=True)
    ing.add_argument("--num-cpus", type=int, default=None)
    ing.set_defaults(fn=cmd_ingest)

    cu = sub.add_parser(
        "curate",
        help="line-clean + PII-scrub + sample/split/pack a documents "
        "table → curated parquet",
    )
    cu.add_argument("--input", required=True)
    cu.add_argument("--out", required=True)
    cu.add_argument("--text-col", default="text")
    cu.add_argument("--id-col", default="doc_id")
    cu.add_argument("--num-cpus", type=int, default=None)
    cu.add_argument(
        "--sample", type=float, default=1.0,
        help="deterministic keep fraction (hash-threshold)",
    )
    cu.add_argument(
        "--splits", default=None,
        help='split fractions, e.g. "train=0.9,val=0.05,test=0.05"',
    )
    cu.add_argument("--salt", type=int, default=0)
    cu.add_argument(
        "--pack-budget", type=int, default=None,
        help="pack docs into token-budget bins (adds pack_id/offset)",
    )
    cu.add_argument(
        "--dedup", default=None,
        choices=["exact", "minhash", "simhash"],
        help="near-dup removal inside the chain (post-clean text)",
    )
    cu.add_argument("--dedup-threshold", type=float, default=0.8)
    cu.add_argument(
        "--ppl-model", default=None,
        help="byte-bigram LM (.npy from lm-train): filter by perplexity",
    )
    cu.add_argument(
        "--ppl-max", type=float, default=8.0,
        help="drop docs with byte perplexity above this (with --ppl-model)",
    )
    cu.add_argument(
        "--keep-unterminated", action="store_true",
        help="keep lines without terminal punctuation (C4 drops them)",
    )
    cu.set_defaults(fn=cmd_curate)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
