"""The benchmark's workloads: seeded inputs, the one iteration each
times, and the checks every iteration's output must pass.

Each workload is prepared once per process (inputs and reference built
from the seed), then iterated: every iteration runs in a fresh run
directory through the package's public entry points
(``CrawlRun(...).run()``, ``cli.main(["curate", ...])``) and is then
checked against the reference. A check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import contextlib
import glob
import io
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from vat_abcd_crawler_ray import cli
from vat_abcd_crawler_ray.config import Settings
from vat_abcd_crawler_ray.functions import textstats
from vat_abcd_crawler_ray.functions.urlkeys import canonicalize_batch, url_keys_batch
from vat_abcd_crawler_ray.oracle.seqcrawl import sequential_crawl
from vat_abcd_crawler_ray.pipelines.crawl import CrawlRun
from vat_abcd_crawler_ray.sources.synthetic import generate_corpus
from vat_abcd_crawler_ray.stages.extract import ExtractStage

from spans import Tracer, crawl_patches, curate_patches, duration, patched, self_time_by_layer

TITLE_COL = "/DataSets/DataSet/Metadata/Description/Representation/Title"

# The last two words need XML escaping, so the extracted-text invariant
# covers the entity path too.
WORDS = np.array(
    "the fast key order sort table scan merge part window small hash join "
    "batch stream spark group query row data slow filter customer line "
    "value agg column big vector a site taxon river sample field survey "
    "r&d x<y".split()
)


@dataclass
class Sample:
    """One iteration: what it measured and what its check found."""

    job_s: float
    items: int
    first_commit_s: float
    rss_mb: float
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)


def _status_mb(*fields: str) -> list[float]:
    with open("/proc/self/status") as fh:
        found = dict(line.split(":", 1) for line in fh)
    missing = [f for f in fields if f not in found]
    if missing:
        raise RuntimeError(f"no {', '.join(missing)} in /proc/self/status")
    return [int(found[f].split()[0]) / 1024.0 for f in fields]


def peak_rss_mb(reset: bool = False) -> float:
    """The driver's peak RSS since the last reset (``VmHWM``). A reset
    that does not bring ``VmHWM`` down to the current RSS raises, so
    the iteration fails instead of reporting the set-up's peak."""
    if reset:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        hwm, rss = _status_mb("VmHWM", "VmRSS")
        if hwm > rss + 16.0:
            raise RuntimeError(f"VmHWM reset did not take: {hwm:.0f} MB peak, {rss:.0f} MB now")
        return hwm
    return _status_mb("VmHWM")[0]


def _words(rng: np.random.Generator, lens: np.ndarray) -> list[str]:
    words = WORDS[rng.integers(0, len(WORDS), int(lens.sum()))]
    return [" ".join(w) for w in np.split(words, np.cumsum(lens)[:-1])]


def crawl_documents(n: int, seed: int) -> pa.Table:
    """A documents table shaped like the synthetic generator's input.
    ``doc_id`` stays ``0..n-1``: the generator's link graph targets
    ``doc_id % n``, so shifted ids would turn every link into a miss."""
    rng = np.random.default_rng(seed)
    texts = _words(rng, rng.integers(6, 48, n))
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": texts,
            "lang": rng.choice(["en", "de", "fr", "es"], n).tolist(),
            "source": [f"src{i % 7}" for i in range(n)],
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def curate_documents(n_base: int, seed: int) -> pa.Table:
    """``n_base`` multi-line documents, each in eight forms that are
    exact or near duplicates of one another (mostly after cleaning:
    a PII-only difference, a short or blocklisted extra line), rows
    shuffled. Every document keeps at least one line through cleaning,
    so no two kept rows can both be empty."""
    rng = np.random.default_rng(seed)
    texts: list[str] = []
    for b in range(n_base):
        lines = _words(rng, rng.integers(4, 20, int(rng.integers(2, 6))))
        contact = f"write to user{b}@example.org or call +49 30 {1000 + b} 5678"
        extra = WORDS[rng.integers(0, len(WORDS))]
        variants = [
            lines,
            lines,
            lines + [contact],
            lines + [contact.replace(f"user{b}", f"desk{b}")],
            lines + ["ok thanks"],
            lines[:1] + ["we use cookie banners here"] + lines[1:],
            [lines[0] + " " + extra] + lines[1:],
            lines[::-1],
        ]
        texts.extend("\n".join(v) for v in variants)
    order = rng.permutation(len(texts))
    return pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
            "text": [texts[i] for i in order],
        }
    )


# ---------------------------------------------------------------- crawl


@dataclass
class CrawlOracle:
    seen: pd.DataFrame  # key, surrogate, first_seq by surrogate
    fetch_log: pd.DataFrame  # round, url, surrogate, seq by (round, seq)
    dead_letters: dict[str, int]  # error kind -> rows
    page_text: dict[str, str]  # url -> the page's expected extracted text


def build_crawl_oracle(corpus: str, max_rounds: int) -> CrawlOracle:
    log, seen, _ds, _listing, errors, _units = sequential_crawl(corpus, max_rounds)
    seen_df = pd.DataFrame(
        [(k, s, q) for k, (s, q) in seen.items()],
        columns=["key", "surrogate", "first_seq"],
    ).astype("int64")
    log_df = pd.DataFrame(log, columns=["round", "url", "surrogate", "seq"])
    pages = pq.read_table(os.path.join(corpus, "pages.parquet"), columns=["url", "text"])
    return CrawlOracle(
        seen=seen_df.sort_values("surrogate").reset_index(drop=True),
        fetch_log=_log_order(log_df),
        dead_letters=pd.Series([e["error_kind"] for e in errors]).value_counts().to_dict(),
        page_text=dict(zip(pages["url"].to_pylist(), pages["text"].to_pylist())),
    )


def _log_order(log: pd.DataFrame) -> pd.DataFrame:
    return (
        log.astype({"round": "int64", "surrogate": "int64", "seq": "int64"})
        .sort_values(["round", "seq"])
        .reset_index(drop=True)
    )


def read_records(run_dir: str, kind: str, columns: list[str]) -> pd.DataFrame:
    files = sorted(
        glob.glob(
            os.path.join(run_dir, "staging", "extracted", "round=*",
                         f"record_type={kind}", "*.parquet")
        )
    )
    if not files:
        return pd.DataFrame(columns=columns)
    return pa.concat_tables(
        [pq.read_table(f, columns=columns) for f in files], promote_options="default"
    ).to_pandas()


def check_crawl(oracle: CrawlOracle, run_dir: str, seen: pd.DataFrame) -> list[str]:
    """The crawl's published output against the sequential reference:
    seen set, fetch log, byte-identical extracted text, dead letters."""
    problems = []
    if not os.path.exists(os.path.join(run_dir, "MANIFEST.json")):
        problems.append("MANIFEST.json was not published")
    got = (
        seen[["key", "surrogate", "first_seq"]].astype("int64")
        .sort_values("surrogate").reset_index(drop=True)
    )
    if not got.equals(oracle.seen):
        problems.append(f"seen set differs: {len(got)} rows vs {len(oracle.seen)} expected")

    ds = read_records(run_dir, "dataset", ["url", "surrogate", "seq", "round", TITLE_COL])
    err = read_records(run_dir, "error", ["url", "surrogate", "seq", "round", "error_kind"])
    cols = ["round", "url", "surrogate", "seq"]
    fetched = pd.concat([ds[cols], err.loc[err["error_kind"] != "FetchMiss", cols]])
    log = _log_order(fetched)
    if not log.equals(oracle.fetch_log):
        problems.append(
            f"fetch log differs: {len(log)} rows vs {len(oracle.fetch_log)} expected"
        )

    expected = ds["url"].map(oracle.page_text)
    bad = int((ds[TITLE_COL] != expected).sum())
    if bad:
        problems.append(f"{bad} dataset rows' extracted text differs from pages.text")

    dead = err["error_kind"].value_counts().to_dict()
    if dead != oracle.dead_letters:
        problems.append(f"dead letters {dead} != expected {oracle.dead_letters}")
    return problems


@dataclass
class CrawlWorkload:
    """One crawl over a seeded corpus; ``budget_scale`` trades rounds
    for round width, ``seen_ram_cap`` forces seen-set spills."""

    docs: int
    budget_scale: int
    max_rounds: int
    seen_ram_cap: int
    seed: int = 0
    # worker processes of the actors a run starts and drops again
    transient_actors: tuple = ("ray::SeenSetShard",)

    def prepare(self, work: str) -> None:
        docs_dir = os.path.join(work, "docs")
        os.makedirs(docs_dir, exist_ok=True)
        pq.write_table(crawl_documents(self.docs, self.seed),
                       os.path.join(docs_dir, "documents.parquet"))
        self.corpus = os.path.join(work, "corpus")
        generate_corpus(docs_dir, self.corpus, budget_scale=self.budget_scale)
        self.oracle = build_crawl_oracle(self.corpus, self.max_rounds)

    def settings(self) -> Settings:
        s = Settings()
        s.crawl.max_rounds = self.max_rounds
        s.crawl.seen_ram_cap_per_shard = self.seen_ram_cap
        return s

    def iterate(self, run_dir: str, tracer: Tracer | None = None) -> Sample:
        c = self.corpus
        peak_rss_mb(reset=True)
        wall0, t0 = time.time(), time.perf_counter()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(patched(crawl_patches(tracer)))
                stack.enter_context(tracer.span("crawl.run"))
            run = CrawlRun(
                f"{c}/pages.parquet", f"{c}/seeds.parquet", f"{c}/politeness.parquet",
                run_dir, settings=self.settings(),
            )
            metrics = run.run()
        job_s = time.perf_counter() - t0
        rss = peak_rss_mb()
        first = os.path.getmtime(run.manifest.round_path(0)) - wall0
        seen = run.seen.to_table().to_pandas()
        sample = Sample(
            job_s=job_s,
            items=metrics.fetched,
            first_commit_s=first,
            rss_mb=rss,
            problems=check_crawl(self.oracle, run_dir, seen),
        )
        if tracer is not None:
            sample.layers = crawl_layers(run, job_s, len(seen), run_dir,
                                         tracer.of_iteration(tracer.iteration))
        return sample

    def microbench(self, limit: int = 2000) -> dict[str, float]:
        """Single-threaded driver-side rates of the extract and
        url-keying functions over this workload's own pages and links."""
        pages = pq.read_table(os.path.join(self.corpus, "pages.parquet"),
                              columns=["url", "html"]).slice(0, limit)
        stage = ExtractStage(self.settings())
        t0 = time.perf_counter()
        out = stage(pages)
        extract_s = time.perf_counter() - t0
        links = out.filter(pc.equal(out["record_type"], "link"))["link_url"]
        seeds = pq.read_table(os.path.join(self.corpus, "seeds.parquet"), columns=["url"])
        urls = seeds["url"].to_pylist() + links.to_pylist()
        t0 = time.perf_counter()
        url_keys_batch(canonicalize_batch(urls))
        keys_s = time.perf_counter() - t0
        return {
            "extract.pages_per_s_1thread": pages.num_rows / extract_s,
            "urlkeys.keys_per_s_1thread": len(urls) / keys_s,
        }


def crawl_layers(run: CrawlRun, job_s: float, seen_size: int, run_dir: str,
                 spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced crawl: the crawl's own phase
    table and counters, plus the spans around its state layers."""
    totals: dict[str, float] = {}
    round_ms = []
    for rec in run.phase_times:
        phases = {k: v for k, v in rec.items() if k != "round"}
        for k, v in phases.items():
            totals[k] = totals.get(k, 0.0) + v
        if isinstance(rec["round"], int):
            round_ms.append(1000.0 * sum(phases.values()))
    m = run.metrics

    def spans_of(name):
        return [s for s in spans if s["name"] == name]

    seen_spans = [s for s in spans if s["name"].startswith("seen_set.")]
    offers = spans_of("seen_set.offer")
    layers = {
        "crawl.job_s": job_s,
        "crawl.bootstrap_s": totals.get("bootstrap", 0.0),
        "crawl.select_s": totals.get("select", 0.0),
        "crawl.extract_s": totals.get("extract", 0.0) + totals.get("project", 0.0),
        "crawl.admission_s": totals.get("admission", 0.0),
        "crawl.snapshot_s": totals.get("snapshot", 0.0) + totals.get("write_submit", 0.0),
        "crawl.commit_wait_s": totals.get("commit_wait", 0.0),
        "crawl.final_commit_s": totals.get("final_commit", 0.0),
        "crawl.rounds": m.rounds,
        "crawl.round_p50_ms": statistics.median(round_ms) if round_ms else 0.0,
        "crawl.unaccounted_s": job_s - sum(totals.values()),
        "crawl.links_discovered": m.links_discovered,
        "crawl.link_admit_ratio": m.links_admitted / max(m.links_discovered, 1),
        "seen_set.first_call_s": duration(seen_spans[0]) if seen_spans else 0.0,
        "seen_set.offer_calls": len(offers),
        "seen_set.offer_keys": sum(s["items"] for s in offers),
        "seen_set.offer_s": sum(map(duration, offers)),
        "seen_set.lookup_keys": sum(s["items"] for s in spans_of("seen_set.lookup")),
        "seen_set.lookup_s": sum(map(duration, spans_of("seen_set.lookup"))),
        "seen_set.commit_s": sum(map(duration, spans_of("seen_set.commit"))),
        "seen_set.snapshot_s": sum(map(duration, spans_of("seen_set.snapshot"))),
        "seen_set.size": seen_size,
        "seen_set.spill_runs": len(glob.glob(os.path.join(run_dir, "seen_spill", "*_keys.npy"))),
        "page_store.open_s": sum(map(duration, spans_of("page_store.open"))),
        "page_store.fetched": m.fetched,
        "page_store.misses": m.fetch_misses,
        "extract.dataset_rows": m.datasets,
        "extract.unit_rows": m.units,
        "extract.error_rows": m.errors,
        "manifest.commit_calls": len(spans_of("manifest.commit")),
        "manifest.commit_s": sum(map(duration, spans_of("manifest.commit"))),
        "manifest.finalize_s": sum(map(duration, spans_of("manifest.finalize"))),
    }
    for layer, secs in self_time_by_layer(spans).items():
        layers[f"self.{layer}_s"] = secs
    return layers


# ---------------------------------------------------------------- curate

CURATE_FLAGS = [
    "--dedup", "minhash", "--splits", "train=0.9,val=0.1",
    "--pack-budget", "2048", "--keep-unterminated",
]


@dataclass
class CurateOracle:
    ids: np.ndarray  # every input doc_id, sorted
    clean_text: pd.Series  # doc_id -> cleaned, PII-scrubbed text
    kept: int | None = None  # rows kept by the first run of this seed


def build_curate_oracle(docs: pa.Table) -> CurateOracle:
    """Clean and scrub every input row on its own, off the Ray path."""
    texts = docs["text"].to_pandas()
    cleaned = textstats.clean_lines(texts, require_terminal=False)["text"]
    scrubbed = textstats.scrub_pii(cleaned)["text"]
    ids = docs["doc_id"].to_numpy()
    return CurateOracle(ids=np.sort(ids), clean_text=pd.Series(scrubbed.to_numpy(), index=ids))


def read_curated(out_dir: str) -> pd.DataFrame:
    files = sorted(glob.glob(os.path.join(out_dir, "**", "*.parquet"), recursive=True))
    if not files:
        return pd.DataFrame(columns=["doc_id", "text"])
    return pa.concat_tables(
        [pq.read_table(f, columns=["doc_id", "text"]) for f in files]
    ).to_pandas()


def check_curate(oracle: CurateOracle, kept: pd.DataFrame) -> list[str]:
    problems = []
    ids = kept["doc_id"].to_numpy()
    if len(kept) == 0:
        problems.append("curate kept no rows")
    if len(np.unique(ids)) != len(ids):
        problems.append("kept doc_ids are not unique")
    unknown = np.setdiff1d(ids, oracle.ids)
    if len(unknown):
        problems.append(f"{len(unknown)} kept doc_ids are not input ids")
    if kept["text"].duplicated().any():
        problems.append(f"{int(kept['text'].duplicated().sum())} kept rows repeat another's text")
    known = kept[np.isin(ids, oracle.ids)]
    bad = int((known["text"].to_numpy() != oracle.clean_text.loc[known["doc_id"]].to_numpy()).sum())
    if bad:
        problems.append(f"{bad} kept rows differ from their input cleaned and scrubbed")
    if oracle.kept is not None and len(kept) != oracle.kept:
        problems.append(f"kept {len(kept)} rows, an earlier run of this seed kept {oracle.kept}")
    return problems


@dataclass
class CurateWorkload:
    """The curate command over seeded near-duplicate documents."""

    base_docs: int
    seed: int = 0
    transient_actors: tuple = ()

    def prepare(self, work: str) -> None:
        docs = curate_documents(self.base_docs, self.seed)
        os.makedirs(work, exist_ok=True)
        self.input = os.path.join(work, "documents.parquet")
        pq.write_table(docs, self.input)
        self.docs = docs.num_rows
        self.oracle = build_curate_oracle(docs)

    def iterate(self, run_dir: str, tracer: Tracer | None = None) -> Sample:
        out = os.path.join(run_dir, "curated")
        argv = ["curate", "--input", self.input, "--out", out, *CURATE_FLAGS]
        peak_rss_mb(reset=True)
        wall0, t0 = time.time(), time.perf_counter()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(patched(curate_patches(tracer)))
                stack.enter_context(tracer.span("cli.curate"))
            with contextlib.redirect_stdout(io.StringIO()):  # its JSON line
                rc = cli.main(argv)
        job_s = time.perf_counter() - t0
        rss = peak_rss_mb()
        files = glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True)
        first = min(map(os.path.getmtime, files)) - wall0 if files else job_s
        kept = read_curated(out)
        problems = check_curate(self.oracle, kept)
        if rc != 0:
            problems.append(f"curate exited with {rc}")
        if self.oracle.kept is None:
            self.oracle.kept = len(kept)
        sample = Sample(job_s=job_s, items=self.docs, first_commit_s=first,
                        rss_mb=rss, problems=problems)
        if tracer is not None:
            spans = tracer.of_iteration(tracer.iteration)

            def secs(name):
                return sum(duration(s) for s in spans if s["name"] == name)

            clean = [s for s in spans if s["name"] == "textstats.clean"]
            dedup = [s for s in spans if s["name"] == "dedup.minhash"]
            sample.layers = {
                "textstats.clean_s": secs("textstats.clean"),
                "dedup.minhash_s": secs("dedup.minhash"),
                "dedup.kept_ratio": dedup[0]["items"] / clean[0]["items"] if dedup else 0.0,
                "sampling.split_s": secs("sampling.split"),
                "packing.pack_s": secs("packing.pack"),
                "curate.write_s": secs("curate.write"),
            }
            for layer, s in self_time_by_layer(spans).items():
                sample.layers[f"self.{layer}_s"] = s
        return sample

    def microbench(self) -> dict[str, float]:
        return {}


def make(name: str, seed: int, scale: str = "full"):
    """The named workload at its benchmark size, or at ``scale="tiny"``
    (inputs the size of the smallest test data) for the self-test."""
    tiny = scale == "tiny"
    if name == "crawl_bulk":
        return CrawlWorkload(docs=500 if tiny else 8000, budget_scale=1000,
                             max_rounds=64, seen_ram_cap=0, seed=seed)
    if name == "crawl_deep":
        return CrawlWorkload(docs=500 if tiny else 2000, budget_scale=1,
                             max_rounds=64, seen_ram_cap=16 if tiny else 64, seed=seed)
    if name == "curate":
        return CurateWorkload(base_docs=60 if tiny else 1000, seed=seed)
    raise KeyError(name)
