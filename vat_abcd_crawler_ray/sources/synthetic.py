"""Deterministic synthetic crawl corpus (pages / seeds / politeness).

``BASELINE.json:input_hint`` fixes the primary input shape: a Parquet
table of Common-Crawl-style pages ``(url:string, warc_ts:timestamp,
html:binary, text:string, lang:string)``. The sandbox testdata ships no
such table, so this module derives one **deterministically** from the
driver's ``documents.parquet`` (seed=42, no wall-clock, no randomness),
at any scale factor.

Single source of truth: every derived column that a DuckDB oracle needs
(url, host, expected extracted text, landing page, unit coordinates…)
is defined ONCE as a SQL fragment below. The generator itself evaluates
those fragments with DuckDB, then assembles the ABCD-XML ``html`` bytes
in vectorized Python; ``__ray_entry__.oracle_sql`` splices the same
fragments into its oracle queries, so the Ray pipelines and the oracles
can never drift.

Corpus properties (FIXTURES.md §1-2):
- Zipf-ish host skew with one mega-host holding 40% of pages
  (exercises per-host selection under skew);
- ~1% duplicate URL forms (case / trailing-slash / fragment variants)
  in the seed list (exercises the canonicalizing seen-set);
- ~10% malformed-HTML pages and ~10% no-units pages (soft-error /
  dead-letter paths, reference C2 ``src/main.rs:226-249``);
- per-unit links (RecordURI) forming a deterministic link graph for
  frontier-expansion rounds;
- a politeness table ``(host, max_fetches_per_round,
  robots_disallow_prefix)`` with ``/private/`` disallowed everywhere
  and ~2% of pages living under ``/private/``.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CACHE_ROOT = "/tmp/vat_ray_cache"

# part files per replicated bench table: ≈ 2× the largest bench CPU
# level, so parquet decode parallelizes at file granularity
_BENCH_TABLE_FILES = 64

MEGA_HOST = "mega.example.org"
MISSING_HOST = "missing.example.org"
ROBOTS_DISALLOW_PREFIX = "/private/"
MEGA_BUDGET = 50
SMALL_BUDGET = 8

# ---------------------------------------------------------------------------
# SQL fragments (DuckDB) — the oracle-side definition of every derived
# column. `d` is the documents table alias; `i` a unit index where used.
# ---------------------------------------------------------------------------

HOST_SQL = (
    "CASE WHEN d.doc_id % 5 < 2 THEN 'mega.example.org' "
    "ELSE 'h' || CAST(d.doc_id % 97 AS VARCHAR) || '.example.org' END"
)

PATH_SQL = (
    "CASE WHEN d.doc_id % 50 = 9 THEN '/private/doc/' ELSE '/doc/' END "
    "|| CAST(d.doc_id AS VARCHAR)"
)

URL_SQL = f"'https://' || ({HOST_SQL}) || ({PATH_SQL})"

WARC_TS_SQL = "TIMESTAMP '2024-01-01 00:00:00' + to_microseconds(d.doc_id * 1000000)"

# page classification: 'ok' | 'malformed' | 'nounits'
KIND_SQL = (
    "CASE WHEN d.doc_id % 10 = 7 THEN 'malformed' "
    "WHEN d.doc_id % 10 = 3 THEN 'nounits' ELSE 'ok' END"
)

# the byte-identical extracted-text invariant: escaped entities kept,
# whitespace-trimmed (reference abcd_parser.rs:108-120 + trim_text).
# NULLIF: an all-whitespace text emits no Text event at all.
EXTRACTED_TEXT_SQL = (
    "NULLIF(trim(replace(replace(replace(d.text, '&', '&amp;'), '<', '&lt;'),"
    " '>', '&gt;'), ' ' || chr(9) || chr(13) || chr(10)), '')"
)

HAS_URI_SQL = "d.doc_id % 3 <> 0"
LANDING_URI_SQL = "'https://lp.example.org/d/' || CAST(d.doc_id AS VARCHAR)"

N_UNITS_SQL = "1 + d.doc_id % 5"  # units per ok/nounits page (i in 0..n-1)

UNIT_ID_SQL = "'u' || CAST(d.doc_id AS VARCHAR) || '-' || CAST(i AS VARCHAR)"
SPECIES_SQL = "'Species ' || CAST((d.doc_id * 3 + i) % 500 AS VARCHAR)"
HAS_COORDS_SQL = "(d.doc_id + i) % 4 <> 0"
BAD_LON_SQL = "(d.doc_id + i) % 11 = 5"  # numeric field w/ unparsable text
LON_SQL = "CAST(d.doc_id % 360 AS DOUBLE) - 180.0 + i * 0.25"
LAT_SQL = "CAST((d.doc_id * 7) % 180 AS DOUBLE) - 90.0 + i * 0.125"
# link graph: unit i of page d links to page (d.doc_id*7 + i*13 + 1) % n
LINK_TARGET_SQL = "(d.doc_id * 7 + i * 13 + 1) % {n}"

SEED_FILTER_SQL = "d.doc_id % 4 = 0"
SEED_PRIORITY_SQL = "CAST((d.doc_id * 37) % 100 AS DOUBLE) / 100.0"
# non-canonical duplicate forms of urls that ARE seeds (doc_id%4==0 ⊃ %100==0)
DUP_SEED_FILTER_SQL = "d.doc_id % 100 = 0"


def _url_for(doc_ids: np.ndarray) -> np.ndarray:
    host = np.where(
        doc_ids % 5 < 2,
        MEGA_HOST,
        np.char.add(
            np.char.add("h", (doc_ids % 97).astype(str)), ".example.org"
        ),
    )
    path = np.where(doc_ids % 50 == 9, "/private/doc/", "/doc/")
    return np.char.add(
        np.char.add(np.char.add("https://", host.astype(str)), path.astype(str)),
        doc_ids.astype(str),
    )


def _escape_xml(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    from ..functions.extract import format_vat_value

    return format_vat_value(v)


def _build_html(doc_id: int, text: str, n_docs: int) -> bytes:
    """Assemble one ABCD-2.06 page. All values match the SQL fragments."""
    if doc_id % 10 == 7:
        return b"\x00<<< not xml; deterministic malformed page %d" % doc_id
    title = _escape_xml(text)
    uri = (
        f"<abcd:URI>https://lp.example.org/d/{doc_id}</abcd:URI>"
        if doc_id % 3 != 0
        else ""
    )
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<abcd:DataSets xmlns:abcd="http://www.tdwg.org/schemas/abcd/2.06">\n'
        "<abcd:DataSet>\n"
        "<abcd:Metadata><abcd:Description><abcd:Representation>"
        f"<abcd:Title>{title}</abcd:Title>{uri}"
        "</abcd:Representation></abcd:Description></abcd:Metadata>\n"
    )
    if doc_id % 10 == 3:
        return (head + "</abcd:DataSet>\n</abcd:DataSets>\n").encode()
    units = []
    for i in range(1 + doc_id % 5):
        link_target = (doc_id * 7 + i * 13 + 1) % n_docs
        link = _url_for(np.array([link_target], dtype=np.int64))[0]
        coords = ""
        if (doc_id + i) % 4 != 0:
            lon_txt = (
                "bad-lon" if (doc_id + i) % 11 == 5 else _fmt(doc_id % 360 - 180.0 + i * 0.25)
            )
            lat_txt = _fmt((doc_id * 7) % 180 - 90.0 + i * 0.125)
            coords = (
                "<abcd:Gathering><abcd:SiteCoordinateSets><abcd:SiteCoordinates>"
                "<abcd:CoordinatesLatLong>"
                f"<abcd:LongitudeDecimal>{lon_txt}</abcd:LongitudeDecimal>"
                f"<abcd:LatitudeDecimal>{lat_txt}</abcd:LatitudeDecimal>"
                "<abcd:SpatialDatum>WGS84</abcd:SpatialDatum>"
                "</abcd:CoordinatesLatLong>"
                "</abcd:SiteCoordinates></abcd:SiteCoordinateSets></abcd:Gathering>"
            )
        units.append(
            "<abcd:Unit>"
            f"<abcd:UnitID>u{doc_id}-{i}</abcd:UnitID>"
            "<abcd:Identifications><abcd:Identification><abcd:Result>"
            "<abcd:TaxonIdentified><abcd:ScientificName>"
            f"<abcd:FullScientificNameString>Species {(doc_id * 3 + i) % 500}</abcd:FullScientificNameString>"
            "</abcd:ScientificName></abcd:TaxonIdentified>"
            "</abcd:Result></abcd:Identification></abcd:Identifications>"
            f"<abcd:RecordURI>{link}</abcd:RecordURI>"
            f"{coords}"
            "</abcd:Unit>"
        )
    return (
        head + "<abcd:Units>\n" + "\n".join(units) + "\n</abcd:Units>\n"
        "</abcd:DataSet>\n</abcd:DataSets>\n"
    ).encode()


def generate_corpus(sf_dir: str, out_dir: str, replicate: int = 1,
                    budget_scale: int = 1) -> None:
    """Materialize pages/seeds/politeness parquet under ``out_dir``.

    ``replicate=K`` unions K doc_id-shifted copies of the documents
    table before applying the (purely doc_id-driven) derivation rules —
    a self-consistent K×-larger corpus for BENCHING ONLY (oracles use
    K=1). ``budget_scale`` multiplies per-host politeness budgets (a
    config knob, used to trade rounds for round size in benchmarks)."""
    import duckdb

    os.makedirs(out_dir, exist_ok=True)
    con = duckdb.connect()
    n_base = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{sf_dir}/documents.parquet')"
    ).fetchone()[0]
    copies = " UNION ALL ".join(
        f"SELECT doc_id + {k * n_base} AS doc_id, text, lang, source, n_chars "
        f"FROM read_parquet('{sf_dir}/documents.parquet')"
        for k in range(replicate)
    )
    con.execute(f"CREATE VIEW d AS {copies}")
    base = con.execute(
        f"""
        SELECT d.doc_id AS doc_id,
               {URL_SQL} AS url,
               {WARC_TS_SQL} AS warc_ts,
               d.text AS raw_text,
               {EXTRACTED_TEXT_SQL} AS text,
               d.lang AS lang
        FROM d ORDER BY d.doc_id
        """
    ).arrow()
    n_docs = base.num_rows

    doc_ids = base["doc_id"].to_numpy()
    raw_texts = base["raw_text"].to_pylist()
    html = pa.array(
        (_build_html(int(did), txt, n_docs) for did, txt in zip(doc_ids, raw_texts)),
        type=pa.binary(),
    )
    pages = pa.table(
        {
            "url": base["url"],
            "warc_ts": base["warc_ts"],
            "html": html,
            "text": base["text"],
            "lang": base["lang"],
        }
    )
    # url-sorted, MULTI-FILE page store: one file per ~4096 pages so any
    # reader (ray.data, pyarrow dataset) gets real read parallelism —
    # a single 100MB+ file collapses to 1-2 blocks and serializes every
    # downstream map_batches stage. Row-group stats still serve `isin`
    # pushdown in scan-mode fetch.
    pages = pages.sort_by("url")
    pages_dir = os.path.join(out_dir, "pages.parquet")
    os.makedirs(pages_dir, exist_ok=True)
    chunk = 4096
    nfiles = max(1, (pages.num_rows + chunk - 1) // chunk)
    for fi in range(nfiles):
        part = pages.slice(fi * chunk, chunk)
        pq.write_table(
            part,
            os.path.join(pages_dir, f"part-{fi:05d}.parquet"),
            row_group_size=1024,
        )

    # seeds: every 4th doc, in doc_id order, plus non-canonical duplicate
    # forms and a sprinkle of urls absent from pages (fetch-miss path).
    seeds = con.execute(
        f"""
        WITH doc_seeds AS (
            SELECT {URL_SQL} AS url, {SEED_PRIORITY_SQL} AS priority,
                   d.doc_id AS ord1, 0 AS ord2
            FROM d WHERE {SEED_FILTER_SQL}
        ), dup_seeds AS (
            SELECT 'HTTPS://' || upper({HOST_SQL}) || ({PATH_SQL}) || '/' AS url,
                   {SEED_PRIORITY_SQL} AS priority, d.doc_id AS ord1, 1 AS ord2
            FROM d WHERE {DUP_SEED_FILTER_SQL}
        ), miss_seeds AS (
            SELECT 'https://{MISSING_HOST}/m/' || CAST(d.doc_id AS VARCHAR) AS url,
                   0.5 AS priority, d.doc_id AS ord1, 2 AS ord2
            FROM d WHERE d.doc_id % 80 = 2
        )
        SELECT url, priority,
               CAST(row_number() OVER (ORDER BY ord1, ord2) - 1 AS BIGINT) AS seq
        FROM (SELECT * FROM doc_seeds UNION ALL SELECT * FROM dup_seeds
              UNION ALL SELECT * FROM miss_seeds)
        ORDER BY ord1, ord2
        """
    ).arrow()
    pq.write_table(seeds, os.path.join(out_dir, "seeds.parquet"))

    politeness = con.execute(
        f"""
        SELECT host,
               CAST({budget_scale} * CASE WHEN host = '{MEGA_HOST}' THEN {MEGA_BUDGET}
                    ELSE {SMALL_BUDGET} END AS BIGINT) AS max_fetches_per_round,
               '{ROBOTS_DISALLOW_PREFIX}' AS robots_disallow_prefix
        FROM (SELECT DISTINCT {HOST_SQL} AS host FROM d
              UNION SELECT '{MISSING_HOST}') ORDER BY host
        """
    ).arrow()
    pq.write_table(politeness, os.path.join(out_dir, "politeness.parquet"))
    con.close()


def corpus_dir(sf_dir: str, cache_root: str = CACHE_ROOT, replicate: int = 1,
               budget_scale: int = 1) -> str:
    """Generate-once cache: corpus for ``sf_dir`` under a stable path.

    Atomic: generation happens in a temp dir renamed into place, so a
    concurrent or killed generation never yields a half-written corpus.
    """
    sf_dir = os.path.abspath(sf_dir)
    key = sf_dir.strip("/").replace("/", "_")
    if replicate != 1 or budget_scale != 1:
        key += f"_x{replicate}_b{budget_scale}"
    out = os.path.join(cache_root, key)
    marker = os.path.join(out, "_COMPLETE")
    if os.path.exists(marker):
        return out
    tmp = out + f".tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    generate_corpus(sf_dir, tmp, replicate=replicate, budget_scale=budget_scale)
    with open(os.path.join(tmp, "_COMPLETE"), "w") as fh:
        fh.write("ok")
    os.makedirs(cache_root, exist_ok=True)
    if os.path.exists(out) and not os.path.exists(marker):
        shutil.rmtree(out, ignore_errors=True)  # stale half-written corpus
    try:
        os.rename(tmp, out)
    except OSError:
        # lost a race with a concurrent generator — its output is identical
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def _replicate_tables(sf_dir: str, out: str, doc_factor: int,
                      emb_factor: int, li_factor: int) -> None:
    """Deterministic saturated-regime copies of the dedup / knn / agg
    bench inputs. The driver's sf0.1 tables are tiny (5k docs / 2k
    vectors), so timings over them measure executor fixed overhead, not
    the operators; these replicas put each stage in the regime where
    compute dominates — the regime the 100-TB design targets.

    - ``documents``: each replica appends a per-replica token to the
      text (a NEAR-duplicate — a real dedup workload, not an exact-dup
      degenerate case) and offsets ``doc_id`` so ids stay unique.
    - ``embeddings``: each replica cyclically rolls the vector by its
      replica index (deterministic, distribution-preserving) with
      offset ``vec_id``.
    - ``lineitem``: replicated as-is (the grouped-agg result is the
      same 6 groups at any factor).

    Each table is a MULTI-FILE directory (~``_BENCH_TABLE_FILES``
    parts): a single saturated file collapses the read to 1-2 decode
    tasks, and SCALING_r4 showed the knn/agg "anti-scaling" was that
    serialized parquet DECODE of a single file, not the operators
    (VERDICT r4 #6). File-granular parts give every parallelism level
    real decode parallelism.
    """
    import pandas as pd

    os.makedirs(out, exist_ok=True)

    def write_parts(frames: list, table: str, row_group_size: int) -> None:
        """Concatenate ``frames`` into ≈_BENCH_TABLE_FILES part files
        (consecutive frames per part, order preserved)."""
        d = os.path.join(out, f"{table}.parquet")
        os.makedirs(d, exist_ok=True)
        per = max(1, (len(frames) + _BENCH_TABLE_FILES - 1) // _BENCH_TABLE_FILES)
        fi = 0
        for s in range(0, len(frames), per):
            pd.concat(frames[s : s + per], ignore_index=True).to_parquet(
                os.path.join(d, f"part-{fi:05d}.parquet"),
                row_group_size=row_group_size,
            )
            fi += 1

    docs = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    id_span = int(docs["doc_id"].max()) + 1
    reps = []
    for r in range(doc_factor):
        d = docs.copy()
        d["doc_id"] = d["doc_id"] + r * id_span
        if r:
            d["text"] = d["text"] + f" rep{r}"
        reps.append(d)
    write_parts(reps, "documents", 1 << 14)

    emb = pd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    vspan = int(emb["vec_id"].max()) + 1
    mat = np.stack(emb["embedding"].to_numpy())
    reps = []
    for r in range(emb_factor):
        e = emb.copy()
        e["vec_id"] = e["vec_id"] + r * vspan
        e["embedding"] = list(np.roll(mat, r, axis=1))
        reps.append(e)
    write_parts(reps, "embeddings", 1 << 14)

    li = pd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"))
    write_parts([li] * li_factor, "lineitem", 1 << 17)


def bench_tables_dir(sf_dir: str, cache_root: str = CACHE_ROOT,
                     doc_factor: int = 40, emb_factor: int = 200,
                     li_factor: int = 10) -> str:
    """Generate-once cache for the replicated bench tables (same atomic
    rename protocol as ``corpus_dir``)."""
    sf_dir = os.path.abspath(sf_dir)
    # `m` suffix: multi-file layout — never reuse a stale single-file cache
    key = (sf_dir.strip("/").replace("/", "_")
           + f"_tables_d{doc_factor}_e{emb_factor}_l{li_factor}m")
    out = os.path.join(cache_root, key)
    marker = os.path.join(out, "_COMPLETE")
    if os.path.exists(marker):
        return out
    tmp = out + f".tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    _replicate_tables(sf_dir, tmp, doc_factor, emb_factor, li_factor)
    with open(os.path.join(tmp, "_COMPLETE"), "w") as fh:
        fh.write("ok")
    os.makedirs(cache_root, exist_ok=True)
    if os.path.exists(out) and not os.path.exists(marker):
        shutil.rmtree(out, ignore_errors=True)
    try:
        os.rename(tmp, out)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
    return out
