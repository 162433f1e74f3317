"""The flagship crawl pipeline (SURVEY §3.4): rounds of
frontier → politeness selection → fetch → extract → link discovery →
seen-set commit → staged Parquet + lineage manifest.

Maps the reference's sequential harvest loop
(``/root/reference/src/main.rs:141-275``) onto Ray Data rounds:

| reference                          | here                                |
|------------------------------------|-------------------------------------|
| catalog scroll → Vec<Entry>        | seed parquet → frontier round 0     |
| surrogate-key dedup (T1)           | sharded seen set, min-seq           |
| sequential per-dataset loop        | per-host budgeted rounds            |
| FileDownloader + cache recovery    | fetch = url lookup in the pages     |
|                                    | table; misses → dead-letter rows    |
| AbcdParser per XML                 | ExtractStage actor pool             |
| COPY into temp schema              | staged parquet per commit group     |
| schema swap                        | MANIFEST.json atomic rename         |

Determinism: every ordering decision keys on explicit ``(priority desc,
seq)`` — seq is carried in rows and assigned densely at admission
(never wall-clock), so two runs over the same seed list + politeness
budget produce identical fetch order, seen-set and surrogates
(north_rule).

Bootstrap, selection and admission each have two equivalent
implementations (tested identical); :func:`stage_path` picks one from
the row count the stage observes, and each committed round's info
records the path taken (``paths``, outside ``stats``):

- **driver** — vectorized Arrow on the driver; fastest below ~2M
  rows (no shuffle). Selection rounds are PIPELINED: the next round's
  per-host backlog ordering runs as a remote pre-selection task during
  this round's extract/project (``_preselect_backlog`` — exact by the
  winner-superset lemma; its remainder stays in the object store), and
  the admitted links stay in memory, so the per-round serial path
  sorts only (politeness-bounded candidates ∪ new links) instead of
  re-reading and re-sorting the whole accumulated frontier.
- **distributed** — the scale path: per-``(host, salt)`` budget-cap
  inside ``groupby.map_groups`` (salt = ``key % salt_buckets`` splits
  mega-host groups), ONE streaming write partitioned by outcome, then a
  per-``host`` reduce over the ≤ ``salt_buckets × budget`` survivors.
  Deferred rows are renamed (not rewritten) into the next round's
  frontier directory. Bootstrap and admission share one first-wins
  skeleton (``_first_wins_frontier``).

Every round is four steps (``CrawlRun._round``): **select** the
politeness-bounded winners, **fetch → extract → project** them in ONE
fused task per fetch chunk (``_extract_project_chunk``; the chunk is a
page-store ``get_with_meta`` ref in ``fetch_mode="store"`` or an
``HttpFetchStage`` task ref in ``fetch_mode="http"``; a chunk is at
least one extract batch unless the round is smaller, so a narrow round
is one store call and one task), **admit** the discovered links
first-wins against the seen set, and add the round to the open
**commit group** (``CrawlRun._commit`` says when it closes). A round's
remote calls are thus the pre-selection task plus one store call and
one extract task per chunk. A round inside a group writes no file
(seen-set spill runs aside); the group's close writes its records, the
next frontier, one seen snapshot and one manifest entry.

Resume: the last committed group's entry records the outputs, the
seen-set snapshot chain and the cumulative metric counters; a restarted
run restores them and replays the rounds after that group, so a crash
loses at most one group.

Driver-memory bound: the per-round WINNER set (and the fetch meta
built from it) is POLITENESS-BOUNDED — at most Σ(per-host budget) rows
per round regardless of frontier or corpus size — so holding it as a
driver Arrow table is a config-bounded cost, not a data-scaled one. The
unbounded collections (frontier, links, extracted rows, seen set)
never materialize on the driver: frontier stays on disk / in Datasets,
links arrive pre-deduplicated per fused task and above the size
gate never leave the object store (``_admit_distributed``),
extracted records wait in the object store (never pulled by the
driver) for their group's writer task, and the seen set's shards are
actors once there is more than one (one shard is held in the driver,
``seen_set.seen_placement``; its block methods take one block at a
time).

First-wins in the distributed bootstrap and admission has ONE
implementation, :func:`ops.firstwins.winner_vals`: per-block partial
mins, a hash-partitioned combine (``ops.hashagg.hot_combine``), then a
broadcast of the sorted winner array. The driver holds that array, 8 B
per winning key: at admission at most Σ(host budget) ×
``link_cap_per_page`` keys per round, at distributed bootstrap one per
distinct seed. The seen-set round commit itself is driver-side: every
caller offers it at most the gate's row count (the distributed stages
bulk-load the shards from shared blocks instead).
"""

from __future__ import annotations

import glob
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..config import Settings
from ..functions.urlkeys import key_urls
from ..ops.blocks import block_refs
from ..stages.extract import (
    RECORD_DATASET,
    RECORD_ERROR,
    RECORD_LINK,
    RECORD_TYPES,
    ExtractStage,
)
from ..state.manifest import RunManifest
from ..state.seen_set import ShardedSeenSet, seen_shard_count

from time import perf_counter as _now

_FRONTIER_SCHEMA = pa.schema([
    ("url", pa.string()), ("canonical_url", pa.string()), ("key", pa.int64()),
    ("host", pa.string()), ("priority", pa.float64()), ("seq", pa.int64()),
    ("surrogate", pa.int64()),
])
FRONTIER_COLS = _FRONTIER_SCHEMA.names

# typed empty frontier block — the fused admission/bootstrap finalize
# emits it for schemaless empty inputs (sort/shuffle ops produce
# them), so every output block carries the same schema and Ray never
# logs a block-schema-mismatch warning
_EMPTY_FRONTIER = _FRONTIER_SCHEMA.empty_table()


def keyed_frontier_batch(batch: pa.Table) -> pa.Table:
    """url → (canonical_url, key, host)."""
    canon, keys, hosts = key_urls(batch["url"])
    return (
        batch.append_column("canonical_url", canon)
        .append_column("key", pa.array(keys))
        .append_column("host", hosts)
    )


_key_frontier_chunk = ray.remote(num_cpus=1)(keyed_frontier_batch)


def _count_parquet_rows(path: str) -> int:
    """Row count of a parquet file or every parquet file under a
    directory — footer metadata only, no data pages read."""
    if os.path.isfile(path):
        return pq.ParquetFile(path).metadata.num_rows
    return sum(
        pq.ParquetFile(os.path.join(root, f)).metadata.num_rows
        for root, _dirs, files in os.walk(path)
        for f in files
        if f.endswith(".parquet")
    )


def _read_parquet_dir(d: str, columns: list[str] | None = None) -> pa.Table:
    parts = []
    for root, _dirs, files in os.walk(d):
        for f in sorted(files):
            if f.endswith(".parquet"):
                parts.append(pq.read_table(os.path.join(root, f), columns=columns))
    if not parts:
        return pa.table({c: pa.array([]) for c in columns or []})
    return pa.concat_tables(parts, promote_options="default")


def _host_codes(t: pa.Table) -> tuple[np.ndarray, list]:
    """Per-row codes into ``t``'s distinct hosts, and those hosts (the
    last entry, ``None``, is the code of a null host)."""
    enc = pc.dictionary_encode(t["host"].combine_chunks())
    hosts = enc.dictionary.to_pylist() + [None]
    return enc.indices.fill_null(len(hosts) - 1).to_numpy(), hosts


def _robots_denied(t: pa.Table, robots: dict) -> np.ndarray:
    """True = denied: the host's disallow prefix is a prefix of the
    canonical path (robots gate, S1 admission level). Vectorized by
    DISTINCT prefix — rows without a robots rule (the vast majority)
    never leave Arrow compute, and the loop that remains is over the
    handful of distinct disallow prefixes, not over rows."""
    denied = np.zeros(t.num_rows, dtype=bool)
    if not robots or not t.num_rows:
        return denied
    codes, hosts = _host_codes(t)
    rules = [robots.get(h) or "" for h in hosts]
    prefixes = sorted(set(rules) - {""})
    if not prefixes:
        return denied
    pid = {p: i for i, p in enumerate(prefixes)}
    row_pid = np.array([pid.get(r, -1) for r in rules])[codes]
    nz = np.flatnonzero(row_pid >= 0)
    paths = pc.replace_substring_regex(
        t["canonical_url"].take(nz),
        pattern=r"^[a-z][a-z0-9+.-]*://[^/]*",
        replacement="",
    )
    for i, p in enumerate(prefixes):
        pos = np.flatnonzero(row_pid[nz] == i)
        hit = pc.starts_with(paths.take(pos), pattern=p).fill_null(False)
        denied[nz[pos]] = hit.to_numpy(zero_copy_only=False)
    return denied


# The one size gate: a stage whose observed row count is above it runs
# distributed — the way adaptive query execution picks broadcast vs
# shuffle from sizes seen at run time, not from user hints ("Adaptive
# and Robust Query Execution for Lakehouses At Scale", VLDB 2024).
DRIVER_ROWS_MAX = 2_000_000


# A commit group closes once its buffered record bytes reach this (a
# size seen at run time, like the gate above)
GROUP_BYTES_MAX = 64 << 20


def stage_path(stage: str, rows: int) -> str:
    """``"driver"`` or ``"distributed"`` for a gated crawl stage
    (``bootstrap`` | ``select`` | ``admission``) that observed ``rows``
    input rows. Every gate in this module goes through here, so tests
    force a stage's path by monkeypatching this one function."""
    return "distributed" if rows > DRIVER_ROWS_MAX else "driver"


def top_budget(t: pa.Table, budgets: dict, default_budget: int):
    """The politeness ranking: order ``t`` by (priority desc, seq) and
    split it into each host's top-budget rows (the winners) and the
    rest, both in that order. A host absent from ``budgets`` (or with a
    ``None`` budget) gets ``default_budget``."""
    ordered = t.take(
        pc.sort_indices(t, sort_keys=[("priority", "descending"), ("seq", "ascending")])
    )
    n = ordered.num_rows
    if not n:
        return ordered, ordered
    codes, hosts = _host_codes(ordered)
    # rank within the host: position in a stable sort by host code,
    # minus the position where that host's run starts
    by = np.argsort(codes, kind="stable")
    pos = np.arange(n)
    run_start = np.r_[True, codes[by][1:] != codes[by][:-1]]
    rank = np.empty(n, dtype=np.int64)
    rank[by] = pos - np.maximum.accumulate(np.where(run_start, pos, 0))
    cap = np.array(
        [default_budget if budgets.get(h) is None else budgets[h] for h in hosts],
        dtype=np.int64,
    )
    win = rank < cap[codes]
    return ordered.filter(win), ordered.filter(~win)


# ordv = parent_seq * SCALE + link_idx packs the (seq, link_idx)
# discovery order into ONE int64 (link_idx < link_cap_per_page ≤ 2^20
# by config, validated at CrawlRun construction) — a single sort key
# for first-wins dedup on both admission paths
LINK_ORD_SCALE = 1 << 20


def _project_tables(prio_lookup, tables: dict[str, pa.Table]):
    """Round projection core over one chunk's extracted record tables:
    returns (fetched-url table, deduped link table, raw link count, kept
    link count). Runs inside the fused :func:`_extract_project_chunk`
    task.

    The link table carries its admission sort key ``ordv`` and the
    child ``priority`` (0.5 × parent priority, resolved here from the
    politeness-bounded winner map ``prio_lookup`` = (sorted parent
    seqs, parent priorities), shipped once per round via ``ray.put``)
    — so neither admission path needs a later pass to attach them.
    """
    wseqs, wprio = prio_lookup
    got_t = pa.concat_tables(
        [tables[rt].select(["url"]) for rt in (RECORD_ERROR, RECORD_DATASET)]
    )
    lt = tables[RECORD_LINK]
    seqs = lt["seq"].to_numpy(zero_copy_only=False)
    idxs = lt["link_idx"].to_numpy(zero_copy_only=False)
    ordv = seqs * LINK_ORD_SCALE + idxs
    if len(wseqs):
        pos = np.minimum(np.searchsorted(wseqs, seqs), len(wseqs) - 1)
        prio = np.where(wseqs[pos] == seqs, wprio[pos], 0.0) * 0.5
    else:
        prio = np.zeros(len(seqs), dtype=np.float64)
    link_t = pa.table(
        {
            "link_url": lt["link_url"],
            "canonical_url": lt["link_canonical"],
            "key": lt["link_key"],
            "host": lt["link_host"],
            "ordv": pa.array(ordv),
            "priority": pa.array(prio),
        }
    )
    n_raw = link_t.num_rows  # pre-dedup discovery count (the metric)
    # partial key-dedup REMOTELY (min ordv per key — min of per-task
    # mins is the global min, so the driver's final dedup sees only
    # each task's survivors instead of every duplicate discovery)
    if link_t.num_rows:
        order = np.argsort(
            link_t["ordv"].to_numpy(zero_copy_only=False), kind="stable"
        )
        keys = link_t["key"].to_numpy(zero_copy_only=False)[order]
        first = ~pd.Series(keys).duplicated().to_numpy()
        link_t = link_t.take(pa.array(order[first], pa.int64()))
    return got_t, link_t, n_raw, link_t.num_rows


@ray.remote(num_cpus=1)
def _http_fetch_chunk(fetch_stage, meta: pa.Table) -> pa.Table:
    """``fetch_mode="http"``: fetch one chunk of fetch meta through an
    :class:`~..stages.fetch.HttpFetchStage` (retry/backoff/status
    classes; failed fetches come back as NULL bodies that the extract
    stage turns into dead-letter rows). Its ref feeds an
    :func:`_extract_project_chunk` task exactly like a page-store
    ``get_with_meta`` ref."""
    return fetch_stage(meta)


@ray.remote(num_cpus=1, num_returns=2)
def _extract_project_chunk(stage, prio_lookup, batch_size: int, pages: pa.Table):
    """FUSED fetch-chunk worker: one plain task takes a fetched chunk
    (a page-store ``get_with_meta`` or :func:`_http_fetch_chunk` ref,
    resolved as the task arg, so extraction starts the moment the
    chunk's fetch lands — no Dataset execution, no block accounting, no
    separate projection wave), extracts it in ``batch_size`` slices
    (the wide-binary-row bound) into the four narrow record tables and
    projects them in place. It writes no file.

    Returns TWO refs: the link table (it follows the admission path)
    and (fetched-url table, counts, records ref), which the driver
    pulls. The records are ONE Arrow IPC buffer (a stream per type in
    ``RECORD_TYPES`` order: one buffer, not hundreds of column buffers)
    for the commit group's :func:`_write_group`, put by this task so no
    buffer under Ray's inline limit lands in the driver's heap (Ray
    never reaps an owner of live objects as idle)."""
    parts, counts = [], {"kernel": 0, "per_doc": 0}
    # at least one slice, so an empty chunk still yields typed tables
    for off in range(0, max(pages.num_rows, 1), batch_size):
        tables, docs = stage.extract(pages.slice(off, batch_size))
        parts.append(tables)
        for k, v in docs.items():
            counts[k] += v
    tables = {rt: pa.concat_tables([p[rt] for p in parts]) for rt in RECORD_TYPES}
    sink = pa.BufferOutputStream()
    for rt in RECORD_TYPES:
        with pa.ipc.new_stream(sink, tables[rt].schema) as w:
            w.write_table(tables[rt])
    records = sink.getvalue()
    counts["record_bytes"] = records.size
    got_t, link_t, counts["links_raw"], counts["links_kept"] = _project_tables(
        prio_lookup, tables
    )
    return link_t, (got_t, counts, ray.put(records))


@ray.remote(num_cpus=1)
def _write_group(
    out_dir: str, front_dir: str, misses: list, links, cand, rest, *records
) -> dict:
    """A commit group's one writer: its chunks' record buffers (plus
    the fetch-miss rows, error schema) become ONE zstd part per
    non-empty record type, ``out_dir/record_type=X/part-00000.parquet``,
    and the next frontier's cand, rest and links go into ``front_dir``.
    Fixed names, so a re-run overwrites its own files. Returns the
    files and bytes written per record type."""
    tables = {rt: [] for rt in RECORD_TYPES}
    for buf in records:
        reader = pa.BufferReader(buf)
        for rt in RECORD_TYPES:
            tables[rt].append(pa.ipc.open_stream(reader).read_all())
    tables[RECORD_ERROR] += misses
    written = {}
    for rt, parts in tables.items():
        if sum(t.num_rows for t in parts):
            t = pa.concat_tables(parts)
            path = os.path.join(out_dir, f"record_type={rt}", "part-00000.parquet")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            pq.write_table(t, path, compression="zstd")
            written[rt] = {"files": 1, "bytes": os.path.getsize(path)}
    for tag, t in (("cand", cand), ("rest", rest), ("links", links)):
        if t is not None and t.num_rows:
            os.makedirs(front_dir, exist_ok=True)
            pq.write_table(
                t.select(FRONTIER_COLS), os.path.join(front_dir, f"{tag}.parquet")
            )
    return written


@ray.remote(num_cpus=1, num_returns=3)
def _preselect_backlog(
    rest: pa.Table | None, losers: pa.Table, budgets: dict, default_budget: int
):
    """NEXT-round frontier pre-selection, run remotely DURING the
    current round's extract/project (the round-pipelining that removes
    the per-round frontier sort from the driver's serial path).

    backlog = ``rest`` (the previous pre-selection's remainder, passed
    by ref) ∪ ``losers`` (the current round's selection losers). Split
    it per host by the same (priority desc, seq) ordering the selection
    uses:

    - ``cand``  = per-host top-budget — returned to the driver.
      Exactness lemma: winners(backlog ∪ links) = winners(cand ∪
      links), because any backlog row OUTSIDE its host's top-budget
      already has ≥ budget same-host backlog rows ranked ahead of it,
      so it cannot win the next round whatever links are added.
      cand is politeness-bounded (≤ Σ per-host budgets), so shipping
      it to the driver is a config-bounded cost.
    - ``rest``  = the remainder, returned by ref with its row count.

    A group's close writes both into the next frontier dir. Robots
    rules are NOT re-applied: every backlog row already passed the
    selection robots gate in the round that deferred it (links are
    checked before they can become losers), so the backlog is
    robots-clean by invariant.
    """
    backlog = pa.concat_tables(
        [t for t in (rest, losers) if t is not None], promote_options="default"
    )
    cand, rest = top_budget(backlog, budgets, default_budget)
    return cand, rest.num_rows, rest


@dataclass
class CrawlMetrics:
    rounds: int = 0
    fetched: int = 0
    fetch_misses: int = 0
    datasets: int = 0
    units: int = 0
    links_discovered: int = 0
    links_admitted: int = 0
    errors: int = 0
    robots_denied: int = 0
    per_round: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return dict(self.__dict__)


# the cumulative CrawlMetrics counters every round's info persists, so a
# resumed run publishes the whole run's totals (datasets/units/errors
# are recounted from the output files at finalize)
_COUNTERS = (
    "rounds", "fetched", "fetch_misses", "links_discovered",
    "links_admitted", "robots_denied",
)


@dataclass
class _Selection:
    """What the round's select step hands to fetch, admission and
    commit."""

    fdir: str  # this round's frontier dir
    n_front: int
    path: str  # the select path taken: driver | distributed
    winners: pa.Table
    deferred_path: str | None  # distributed: deferred partition dir


@dataclass
class _Fetched:
    """What the round's fetch → extract step hands to admission and
    commit."""

    link_refs: list = field(default_factory=list)
    n_links_raw: int = 0
    n_links_kept: int = 0
    n_fetched: int = 0
    n_miss: int = 0
    # documents each extract route handled: the batch kernel, and the
    # per-document parser for pages outside its certified subset
    extract_docs: dict = field(default_factory=lambda: {"kernel": 0, "per_doc": 0})


@dataclass
class _Group:
    """The open commit group: the rounds since the last close."""

    first: int
    infos: list = field(default_factory=list)  # per-round manifest infos
    records: list = field(default_factory=list)  # record buffer refs
    misses: list = field(default_factory=list)  # fetch-miss tables
    nbytes: int = 0  # the record buffers' bytes


_FETCH_MODES = frozenset({"store", "http"})


class CrawlRun:
    """One resumable crawl over (pages, seeds, politeness) parquet."""

    def __init__(
        self,
        pages_path: str,
        seeds_path: str,
        politeness_path: str,
        run_dir: str,
        settings: Settings | None = None,
        fetch_mode: str = "store",  # store | http
        http_opener=None,  # fetch_mode="http": opener(url)->(status, bytes)
    ):
        # a typo must not silently pick a path (the fetch test below
        # checks only for "http")
        if fetch_mode not in _FETCH_MODES:
            raise ValueError(
                f"fetch_mode={fetch_mode!r}: expected one of {sorted(_FETCH_MODES)}"
            )
        self.settings = settings or Settings()
        cc = self.settings.crawl
        if cc.num_seen_shards < 0:
            raise ValueError(
                f"num_seen_shards={cc.num_seen_shards}: expected 0 (auto) or a count"
            )
        if cc.seen_capacity_per_shard < 1:
            raise ValueError(
                f"seen_capacity_per_shard={cc.seen_capacity_per_shard}: expected >= 1"
            )
        self.pages_path = pages_path
        self.seeds_path = seeds_path
        self.run_dir = run_dir
        self.fetch_mode = fetch_mode
        self.http_opener = http_opener
        self._page_store = None
        self.manifest = RunManifest(run_dir)
        if cc.link_cap_per_page > LINK_ORD_SCALE:
            raise ValueError(
                f"link_cap_per_page={cc.link_cap_per_page} > {LINK_ORD_SCALE}"
                " (ordv packs link_idx below it)"
            )
        self.seen: ShardedSeenSet | None = None  # the shard pool, built by run()
        self.metrics = CrawlMetrics()
        self.next_seq = 0

        pol = pq.read_table(politeness_path).to_pydict()
        self.budgets = dict(zip(pol["host"], pol["max_fetches_per_round"]))
        self.robots = dict(zip(pol["host"], pol["robots_disallow_prefix"]))
        self.default_budget = cc.default_host_budget
        self._stage_put = None  # ray.put(ExtractStage), once per run
        self._fetch_put = None  # ray.put(HttpFetchStage), once per run
        self._group: _Group | None = None  # the open commit group
        self._pending_commit: tuple | None = None  # the closed one's entry
        self.phase_times: list[dict] = []
        self._bootstrap_path: str | None = None  # recorded in round 0's info
        # round-pipelining state: the in-flight backlog pre-selection
        # ([cand_ref, rest_count_ref, rest_ref], submitted before
        # extract so it overlaps it), the previous round's admitted
        # links kept in memory, and the force-full-read flag set when a
        # distributed stage wrote next-frontier rows the driver never saw
        self._preselect: list | None = None
        self._next_links: pa.Table | None = None
        self._full_read_next = False

    def _stage_ref(self):
        """The extract stage in the object store, put ONCE per run —
        every fused chunk task reads the same copy (no per-task
        registry pickle)."""
        if self._stage_put is None:
            self._stage_put = ray.put(ExtractStage(self.settings))
        return self._stage_put

    # ---------------- paths ----------------
    def _p(self, *parts: str) -> str:
        return os.path.join(self.manifest.staging, *parts)

    def frontier_dir(self, rnd: int) -> str:
        return self._p("frontier", f"round={rnd}")

    def extracted_dir(self, rnd: int) -> str:
        return self._p("extracted", f"round={rnd}")

    def seen_dir(self, rnd: int) -> str:
        return self._p("seen", f"round={rnd}")

    # ---------------- bootstrap ----------------
    def _bootstrap(self) -> None:
        """Seeds → canonical keys → seen-set round-0 admission → frontier 0.

        Admission order = seed ``seq`` (catalog order in the reference,
        ``search_result.rs:88-111``; dense numbering
        ``surrogate_key.rs:16-41``).

        Two equivalent implementations (tested identical, like
        selection): **driver** (vectorized pandas; fastest for seed
        lists that fit one machine) and **distributed** (the 10^10-URL
        scale path: first-wins via :func:`ops.firstwins.winner_vals`;
        no full-seed driver DataFrame anywhere). :func:`stage_path`
        picks one from the seed row count (footer metadata); the C1
        debug window is driver-only by definition (it is a bounded
        debug knob)."""
        path = stage_path("bootstrap", _count_parquet_rows(self.seeds_path))
        if self.settings.debug:
            path = "driver"
        self._bootstrap_path = path
        if path == "distributed":
            self._bootstrap_distributed()
            return
        # plain keying tasks over slices of the seed table (driver
        # path: the seed list fits here by the gate above) — the
        # canonicalize+murmur3 Python work still fans across the
        # cluster, but without a Dataset execution's fixed startup on
        # the run's serial path (VERDICT r4 #2: every chained
        # execution was a measured per-run tax)
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        seed_t = pq.read_table(self.seeds_path)  # file or directory
        nchunks = max(1, min(2 * ncpu, seed_t.num_rows // 2048 or 1))
        size = -(-seed_t.num_rows // nchunks)
        refs = [
            _key_frontier_chunk.remote(seed_t.slice(off, size))
            for off in range(0, seed_t.num_rows, size)
        ]
        sdf = pa.concat_tables(ray.get(refs)).to_pandas()
        # C1 debug window: skip(dataset_start).take(dataset_limit), only
        # when debug is on (/root/reference/src/main.rs:154-169)
        if self.settings.debug:
            sdf = sdf.sort_values("seq", kind="mergesort")
            start = self.settings.dataset_start
            limit = self.settings.dataset_limit
            sdf = sdf.iloc[start : start + limit if limit else None]
        self.seen.offer_batch(sdf["key"].to_numpy(), sdf["seq"].to_numpy())
        admitted = self.seen.commit_round().to_pandas()
        # next_seq counts ALL seeds (pre-dedup max), matching the
        # sequential reference's `max(s['seq'] for s in seeds) + 1` even
        # when the highest-seq seed is a non-canonical duplicate form
        self.next_seq = int(sdf["seq"].max()) + 1 if len(sdf) else 0
        sdf = sdf.sort_values("seq", kind="mergesort").drop_duplicates("key")
        frontier = pa.Table.from_pandas(
            sdf.merge(admitted[["key", "surrogate"]], on="key", how="inner")[
                FRONTIER_COLS
            ],
            preserve_index=False,
        )
        os.makedirs(self.frontier_dir(0), exist_ok=True)
        pq.write_table(frontier, os.path.join(self.frontier_dir(0), "seeds.parquet"))
        # hand round 0 its frontier in memory (the disk copy above
        # stays the replay source) — the round-pipelined selection
        # then never re-reads the directory the driver just wrote;
        # robots are checked at selection, as for any link frontier
        self._next_links = frontier

    def _bootstrap_distributed(self) -> None:
        """Streaming round-0 admission: read + canonicalize + key,
        materialized ONCE, then :meth:`_first_wins_frontier` on ``seq``
        (``next_seq`` falls out of its partial maxes). Seqs are
        globally unique, so surrogate = 1 + dense rank — identical
        numbering to the sequential reference
        (``surrogate_key.rs:16-41``)."""
        seeds = (
            ray.data.read_parquet(self.seeds_path)
            .map_batches(keyed_frontier_batch, batch_format="pyarrow")
            .materialize()  # consumed twice: partial-min tasks, finalize
        )

        def project(t: pa.Table, rank: np.ndarray) -> pa.Table:
            return t.append_column("surrogate", pa.array(1 + rank)).select(
                FRONTIER_COLS
            )

        n, stats = self._first_wins_frontier(block_refs(seeds), "seq", project, 0)
        self.next_seq = stats["vmax"] + 1
        self.seen.next_surrogate = 1 + n

    def _first_wins_frontier(self, refs: list, val: str, project, rnd: int):
        """The distributed first-wins skeleton of the bootstrap and the
        admission, over Arrow block refs carrying ``key`` and a
        globally unique ``val``:

        1. :func:`ops.firstwins.winner_vals` — per-block partial mins
           next to the data, a hash-partitioned combine, and the SORTED
           winning-val array broadcast once (8 B per winning key);
        2. one ``map_batches`` pass keeps each block's winners and
           ``project(rows, dense rank)``s them to frontier rows — no
           shuffle, no sort, no zip_with_index;
        3. Dataset ``write_parquet`` into frontier ``rnd``;
        4. every seen shard loads its own keys from the shared frontier
           blocks (``load_assigned_blocks``, O(num_blocks) driver refs).

        Returns (frontier rows written, ``winner_vals`` stats)."""
        from ..ops.firstwins import rank_in, winner_vals

        win, stats = winner_vals(refs, key="key", val=val)
        win_ref = ray.put(win)

        def finalize(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or val not in t.column_names:
                return _EMPTY_FRONTIER
            keep, rank = rank_in(
                ray.get(win_ref), t[val].to_numpy(zero_copy_only=False)
            )
            return project(t.take(pa.array(keep, pa.int64())), rank)

        frontier = (
            ray.data.from_arrow_refs(refs)
            .map_batches(finalize, batch_format="pyarrow", batch_size=None)
            .materialize()
        )
        n = frontier.count()
        if n:
            os.makedirs(self.frontier_dir(rnd), exist_ok=True)
            frontier.write_parquet(self.frontier_dir(rnd))
            self.seen.load_assigned_blocks(block_refs(frontier))
        return n, stats

    # ---------------- selection ----------------
    def _select_driver(self, frontier: pa.Table):
        """Vectorized single-machine selection (identical semantics to
        the distributed path — see tests/test_crawl.py)."""
        denied = _robots_denied(frontier, self.robots)
        frontier = frontier.filter(~denied)
        winners, deferred = top_budget(frontier, self.budgets, self.default_budget)
        return winners, deferred, int(denied.sum())

    def _select_distributed(self, rnd: int, n_front: int):
        """Scale path: salted two-stage per-host top-k over the frontier
        as a Dataset; the full frontier is read and written exactly once.

        Stage 1 caps each ``(host, salt)`` group at the host budget — a
        correct superset of the per-host top-budget — and streams ALL
        rows out partitioned by outcome (``cand=true|false``); deferred
        files are later renamed into the next round's frontier. Stage 2
        reduces the ≤ salt_buckets × budget candidates per host.
        """
        cc = self.settings.crawl
        salt_buckets = cc.salt_buckets

        frontier_ds = ray.data.read_parquet(self.frontier_dir(rnd))

        robots = self.robots

        def robots_and_salt(batch: pa.Table) -> pa.Table:
            """Drop robots-denied rows, add the skew salt — vectorized,
            one pass, no per-row filter."""
            batch = batch.filter(~_robots_denied(batch, robots))
            salt = batch["key"].to_numpy() % salt_buckets
            return batch.append_column("__salt", pa.array(salt.astype(np.int32)))

        budgets, default_budget = self.budgets, self.default_budget

        def stage1(group: pa.Table) -> pa.Table:
            # one host per group: its top-budget rows are the candidates
            win, rest = top_budget(group, budgets, default_budget)
            cand = np.arange(group.num_rows) < win.num_rows
            return pa.concat_tables([win, rest]).append_column("cand", pa.array(cand))

        marked = (
            frontier_ds.map_batches(robots_and_salt, batch_format="pyarrow")
            .groupby(["host", "__salt"])
            .map_groups(stage1, batch_format="pyarrow")
        )
        sel_dir = self._p("select", f"round={rnd}")
        marked.drop_columns(["__salt"]).write_parquet(
            sel_dir, partition_cols=["cand"]
        )
        # robots-denied rows are exactly the frontier rows that
        # robots_and_salt dropped: frontier size minus what was written
        # (both counts are footer metadata — no extra pass, and the two
        # selection paths report identical metrics)
        n_denied = n_front - _count_parquet_rows(sel_dir)

        # stage 2: exact per-host top-budget over the candidate superset
        # (the files hold FRONTIER_COLS; ``cand`` is in the path only)
        cand = _read_parquet_dir(os.path.join(sel_dir, "cand=true"))
        if not cand.num_rows:
            return cand, os.path.join(sel_dir, "cand=false"), n_denied
        winners, demoted = top_budget(cand, self.budgets, self.default_budget)
        # demoted candidates join the deferred partition on disk
        if demoted.num_rows:
            dd = os.path.join(sel_dir, "cand=false")
            os.makedirs(dd, exist_ok=True)
            pq.write_table(demoted, os.path.join(dd, "demoted.parquet"))
        return winners, os.path.join(sel_dir, "cand=false"), n_denied

    # ---------------- fetch → extract ----------------
    @staticmethod
    def _fetch_meta(winners: pa.Table, rnd: int) -> pa.Table:
        return pa.table(
            {
                "url": winners["canonical_url"],
                "surrogate": winners["surrogate"],
                "seq": winners["seq"],
                "priority": winners["priority"],
                "round": pa.array(np.full(winners.num_rows, rnd, dtype=np.int64)),
            }
        )

    def _fetch_http_refs(self, meta: pa.Table) -> list:
        """The real-network tier (stages/fetch.py): one
        :func:`_http_fetch_chunk` task per slice of the fetch meta.
        Politeness holds because the selection already capped each
        host's rows this round; the stage paces a host's rows within a
        chunk."""
        if self._fetch_put is None:
            from ..stages.fetch import HttpFetchStage, urllib_opener_factory

            cc = self.settings.crawl
            # production wiring: a stdlib urllib opener built from the
            # crawl config (tests inject an in-memory opener)
            opener = self.http_opener or urllib_opener_factory(
                timeout_s=cc.http_timeout_s, user_agent=cc.http_user_agent
            )
            self._fetch_put = ray.put(
                HttpFetchStage(
                    opener,
                    max_concurrency=cc.http_fetch_concurrency,
                    per_host_delay_s=cc.http_per_host_delay_s,
                )
            )
        n = meta.num_rows
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        size = -(-n // max(1, min(4 * ncpu, n // 64)))
        return [
            _http_fetch_chunk.remote(self._fetch_put, meta.slice(off, size))
            for off in range(0, n, size)
        ]

    def _fetch_store_refs(self, meta: pa.Table) -> list:
        """Store-mode fetch, simulating the reference's S3 download
        (``src/file_downloader.rs:8-29``): O(K) lookups against the
        sharded in-memory page store (state/page_store.py), loaded ONCE
        per crawl — never a per-round corpus scan. One ref per shard
        chunk."""
        if self._page_store is None:
            from ..state.page_store import get_page_store

            self._page_store = get_page_store(
                self.pages_path, self.settings.crawl.num_page_shards
            )
        # Driver-side shard routing, k url-chunks per shard per round:
        # each chunk call returns pages WITH the fetch meta columns
        # joined in-actor (Arrow take + append — the earlier
        # repartition + per-batch pandas merge moved the whole round's
        # pages twice and halved big-round throughput). Never call
        # ray.get on the store from inside map tasks — blocked workers
        # made Ray spawn replacement processes (observed 56 workers on
        # an 8-CPU cluster: hidden oversubscription).
        store = self._page_store
        urls = meta["url"].to_pylist()
        shard_ids = store.shard_of(urls)
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        batch = self.settings.crawl.batch_size
        # chunk count per shard PROPORTIONAL to its url share (the
        # range-sharded store concentrates mega-host urls in a few
        # shards; equal per-shard chunking left straggler blocks),
        # targeting ≈ 2 equal chunks per CPU overall — but no chunk
        # below one extract batch unless the whole share is: a chunk
        # costs a store call and an extract task whatever its size, so
        # a narrow round is one of each
        refs = []
        for sid in np.unique(shard_ids):
            sel = np.flatnonzero(shard_ids == sid)
            share = round(2 * ncpu * len(sel) / len(urls))
            for chunk in np.array_split(sel, max(1, min(share, len(sel) // batch))):
                refs.append(
                    store.shards[int(sid)].get_with_meta.remote(
                        [urls[i] for i in chunk],
                        meta.take(pa.array(chunk, pa.int64())),
                    )
                )
        return refs

    def _fetch_extract(self, winners: pa.Table, rnd: int) -> _Fetched:
        """Fetch → extract → project for the round's winners: one fused
        :func:`_extract_project_chunk` task per fetch chunk, so the
        round pays no Dataset execution and no separate projection
        wave. The driver pulls only the fetched-url tables and the
        counts; the link refs go to admission, the record refs to the
        commit group."""
        fx = _Fetched()
        if not winners.num_rows:
            return fx
        # winner (seq → priority) lookup for child-link priorities,
        # sorted for the projections' searchsorted; put ONCE per round
        # (top-level ObjectRef args auto-deref in the task)
        seqs = winners["seq"].to_numpy()
        worder = np.argsort(seqs, kind="stable")
        prio_ref = ray.put((seqs[worder], winners["priority"].to_numpy()[worder]))
        # one ref per fetch chunk, resolving to the chunk's pages with
        # the fetch meta columns attached
        meta = self._fetch_meta(winners, rnd)
        if self.fetch_mode == "http":
            fetch_refs = self._fetch_http_refs(meta)
        else:
            fetch_refs = self._fetch_store_refs(meta)
        batch = self.settings.crawl.batch_size
        futs = [
            _extract_project_chunk.remote(self._stage_ref(), prio_ref, batch, ref)
            for ref in fetch_refs
        ]
        fx.link_refs = [f[0] for f in futs]
        g = self._group
        got_tbls = []
        for got_t, counts, records in ray.get([f[1] for f in futs]):
            g.records.append(records)
            if got_t.num_rows:
                got_tbls.append(got_t)
            g.nbytes += counts["record_bytes"]
            fx.n_links_raw += counts["links_raw"]
            fx.n_links_kept += counts["links_kept"]
            for route in fx.extract_docs:
                fx.extract_docs[route] += counts[route]

        # miss = winners whose url produced no dataset/error record
        # (Arrow is_in over the fetched-url tables)
        if got_tbls:
            hit = pc.is_in(
                winners["canonical_url"],
                value_set=pa.concat_tables(got_tbls)["url"].combine_chunks(),
            )
            miss = winners.filter(pc.invert(hit))
        else:
            miss = winners
        fx.n_miss = n_miss = miss.num_rows
        fx.n_fetched = winners.num_rows - n_miss
        if n_miss:
            g.misses.append(pa.table(
                {
                    "url": miss["canonical_url"],
                    "surrogate": miss["surrogate"],
                    "seq": miss["seq"],
                    "round": pa.array(np.full(n_miss, rnd, dtype=np.int64)),
                    "error_kind": pa.array(["FetchMiss"] * n_miss),
                    "error_message": pa.array(["url not in page store"] * n_miss),
                }
            ))
        return fx

    # ---------------- one round ----------------
    def _round(self, rnd: int) -> bool:
        t0 = _now()
        sel = self._select(rnd)
        if sel is None:
            return False
        if self._group is None:
            self._group = _Group(rnd)
        phase_t = {"select": _now() - t0}
        t0 = _now()
        fx = self._fetch_extract(sel.winners, rnd)
        phase_t["extract"] = _now() - t0  # fused fetch + extract + project
        t0 = _now()
        admitted, has_next, admission_path = self._admit(sel, fx, rnd)
        phase_t["admission"] = _now() - t0
        paths = {"select": sel.path, "admission": admission_path}
        if rnd == 0 and self._bootstrap_path:
            paths["bootstrap"] = self._bootstrap_path
        last = not has_next or rnd == self.settings.crawl.max_rounds - 1
        self._commit(rnd, sel, fx, admitted, paths, phase_t, last)
        return has_next

    def _select(self, rnd: int) -> _Selection | None:
        """The round's politeness selection, or None when the frontier
        is exhausted. The driver path also submits the NEXT round's
        backlog pre-selection before returning, so it overlaps
        fetch/extract."""
        fdir = self.frontier_dir(rnd)
        # round-pipelining hand-off from the previous round: the
        # overlapped backlog pre-selection and the in-memory links
        pre = self._preselect
        links_mem = self._next_links
        full_read = self._full_read_next
        self._preselect = None
        self._next_links = None
        self._full_read_next = False
        # usually instant: it ran during the prior round's extract
        pre_cand, rest_cnt = ray.get(pre[:2]) if pre is not None else (None, 0)
        mem = [t for t in (pre_cand, links_mem) if t is not None and t.num_rows]
        have_mem = (pre is not None or links_mem is not None) and not full_read
        if not have_mem:
            self._durable(pre, links_mem)  # the frontier dir is read below
            if not os.path.isdir(fdir):
                return None

        # a replayed (crashed, uncommitted) round must not APPEND to its
        # half-written outputs — the group commit is all-or-nothing (C3)
        shutil.rmtree(self.extracted_dir(rnd), ignore_errors=True)
        shutil.rmtree(self._p("select", f"round={rnd}"), ignore_errors=True)
        shutil.rmtree(self.frontier_dir(rnd + 1), ignore_errors=True)

        if have_mem:
            # counts known without touching the frontier dir (the dir
            # holds exactly cand + rest + links — the same rows)
            n_front = rest_cnt + sum(t.num_rows for t in mem)
            if n_front == 0:
                return None
        else:
            n_front = _count_parquet_rows(fdir)
        path = stage_path("select", n_front)

        if path == "distributed":
            # it reads frontier_dir(rnd): close the open group into it
            self._durable(pre, links_mem)
            winners, deferred_path, n_denied = self._select_distributed(rnd, n_front)
            self.metrics.robots_denied += n_denied
            if not winners.num_rows and not os.path.isdir(deferred_path):
                return None
            return _Selection(fdir, n_front, path, winners, deferred_path)

        if have_mem:
            # nothing in memory: a non-empty backlog with an empty cand
            # (only zero-budget hosts) selects nothing and rolls over
            frontier = pa.concat_tables(
                [t.select(FRONTIER_COLS) for t in mem] or [_EMPTY_FRONTIER],
                promote_options="default",
            )
        else:
            frontier = _read_parquet_dir(fdir)
            if not frontier.num_rows:
                return None
        winners, deferred, n_denied = self._select_driver(frontier)
        self.metrics.robots_denied += n_denied

        # submit the NEXT round's backlog pre-selection NOW, before
        # fetch/extract start, so its per-host sort runs concurrently
        # with them
        rest = pre[2] if have_mem and rest_cnt else None
        if deferred.num_rows or rest is not None:
            self._preselect = _preselect_backlog.remote(
                rest, deferred.select(FRONTIER_COLS), self.budgets, self.default_budget
            )
        return _Selection(fdir, n_front, path, winners, None)

    def _admit(
        self, sel: _Selection, fx: _Fetched, rnd: int
    ) -> tuple[int, bool, str]:
        """Link admission (deterministic child seqs, then the seen
        filter), then the next round's frontier. Returns (admitted
        links, whether a next round has work, the admission path).

        Two equivalent admission paths (tested identical, like
        selection/bootstrap): **driver** (:meth:`_admit_driver`, over
        the pre-deduplicated link survivors, bounded by winners ×
        ``link_cap_per_page``) and **distributed**
        (:meth:`_admit_distributed`). :func:`stage_path` picks one from
        the surviving link count, so no data-proportional ray.get
        remains once rounds grow."""
        admitted = 0
        new_frontier = None
        links_written = False
        path = stage_path("admission", fx.n_links_kept)
        self.metrics.links_discovered += fx.n_links_raw
        if fx.n_links_kept and path == "distributed":
            admitted = self._admit_distributed(fx.link_refs, rnd)
            links_written = admitted > 0
        elif fx.n_links_kept:
            new_frontier = self._admit_driver(fx.link_refs)
            admitted = new_frontier.num_rows

        has_next = False
        if sel.deferred_path and os.path.isdir(sel.deferred_path):
            # rename, don't rewrite, the deferred partition files
            os.makedirs(self.frontier_dir(rnd + 1), exist_ok=True)
            for f in sorted(os.listdir(sel.deferred_path)):
                if f.endswith(".parquet"):
                    os.rename(
                        os.path.join(sel.deferred_path, f),
                        os.path.join(self.frontier_dir(rnd + 1), f"def-{f}"),
                    )
                    has_next = True
        if new_frontier is not None and new_frontier.num_rows:
            # the next round's pipelined selection reads the admitted
            # links from memory; the group's close writes them to disk
            self._next_links = new_frontier
            has_next = True
        if links_written or sel.path == "distributed":
            # a distributed stage put next-frontier rows on disk the
            # driver never saw (the Dataset-written links, the renamed
            # deferred files) — the next round must read the dir in full
            self._full_read_next = True
        has_next = has_next or links_written or self._preselect is not None
        return admitted, has_next, path

    def _admit_driver(self, link_refs: list) -> pa.Table:
        """Driver link admission → the admitted links as a frontier
        table (possibly empty)."""
        links = pa.concat_tables([l for l in ray.get(link_refs) if l.num_rows])
        key_a = links["key"].to_numpy(zero_copy_only=False)
        # ordv packs (seq, link_idx), globally unique — ONE sort key
        order = np.argsort(
            links["ordv"].to_numpy(zero_copy_only=False), kind="stable"
        )
        first = ~pd.Series(key_a[order]).duplicated().to_numpy()
        cand_idx = order[first]
        ck = key_a[cand_idx]
        # a sequential crawler only numbers NOVEL urls — filter against
        # the committed seen set BEFORE consuming seqs, so the
        # seq/surrogate sequence is identical to the single-threaded
        # reference (tests/test_crawl_vs_sequential)
        known = self.seen.lookup(ck) >= 0
        cand_idx, ck = cand_idx[~known], ck[~known]
        child_seq = np.arange(
            self.next_seq, self.next_seq + len(ck), dtype=np.int64
        )
        self.next_seq += len(ck)
        base_surr = self.seen.next_surrogate
        fresh = self.seen.offer_batch(ck, child_seq)
        cand_idx, ck, child_seq = cand_idx[fresh], ck[fresh], child_seq[fresh]
        admitted = self.seen.commit_round().num_rows
        # ck is first-wins-unique and already seen-filtered, so the
        # commit admits every offered key and assigns surrogates
        # densely in first_seq (= child_seq) order: surrogate_i =
        # base_surr + i
        if admitted != len(ck):
            raise RuntimeError(
                f"seen-set commit admitted {admitted} of {len(ck)} novel links"
            )
        # child priority was resolved inside the projection tasks
        # (0.5 x parent) — no winner-map pass here
        cand_t = links.select(
            ["link_url", "canonical_url", "host", "priority"]
        ).take(pa.array(cand_idx, pa.int64()))
        return pa.table(
            {
                "url": cand_t["link_url"],
                "canonical_url": cand_t["canonical_url"],
                "key": pa.array(ck),
                "host": cand_t["host"],
                "priority": cand_t["priority"],
                "seq": pa.array(child_seq),
                "surrogate": pa.array(
                    base_surr + np.arange(len(ck), dtype=np.int64)
                ),
            }
        )

    def _commit(self, rnd: int, sel: _Selection, fx: _Fetched, admitted: int,
                paths: dict, phase_t: dict, last: bool) -> None:
        """Add the round to the open commit group (``paths``: the path
        each gated stage took) and close the group after round 0 (alone,
        so the first commit comes early), at the ``last`` round, once
        its record bytes reach :data:`GROUP_BYTES_MAX`, or when a stage
        ran distributed (it wrote frontier files the next round reads).
        The previous close is flushed first; its wait is recorded as
        that group's ``commit_wait`` (inside the flush)."""
        self._flush_pending_commit()
        t0 = _now()
        g = self._group
        self.metrics.rounds = rnd + 1
        self.metrics.fetched += fx.n_fetched
        self.metrics.fetch_misses += fx.n_miss
        self.metrics.links_admitted += admitted
        self.metrics.per_round.append(
            {
                "round": rnd,
                "frontier": int(sel.n_front),
                "selected": int(sel.winners.num_rows),
                "fetched": int(fx.n_fetched),
                "misses": int(fx.n_miss),
                "links_admitted": int(admitted),
            }
        )
        # wall times live OUTSIDE metrics (metrics must be bit-equal
        # across identical runs — the determinism contract)
        phase_rec = {"round": rnd}
        self.phase_times.append(phase_rec)
        g.infos.append(
            {
                "frontier_dir": sel.fdir,
                "extracted_dir": self.extracted_dir(g.first),
                # the close sets both on the group's last round
                "seen_snapshot": None,
                "seen_snapshot_mode": None,
                # the pool layout the snapshot needs on resume and
                # where the shards ran; outside "stats", which stay
                # equal across shard counts and placements
                "seen_shards": self.seen.num_shards,
                "seen_placement": self.seen.placement,
                "next_seq": self.next_seq,
                "next_surrogate": self.seen.next_surrogate,
                "stats": self.metrics.per_round[-1],
                "counters": {k: getattr(self.metrics, k) for k in _COUNTERS},
                "paths": paths,
                "extract_docs": dict(fx.extract_docs),
                "phase_sec": phase_rec,
            }
        )
        if rnd == 0 or last or g.nbytes >= GROUP_BYTES_MAX or (
            "distributed" in paths.values()
        ):
            self._close_group(self._preselect, self._next_links)
        phase_t["snapshot"] = _now() - t0
        phase_rec.update({k: round(v, 3) for k, v in phase_t.items()})

    def _close_group(self, pre: list | None, links: pa.Table | None) -> None:
        """Close the open group, rounds first..L: ONE
        :func:`_write_group` task writes its records under
        ``extracted/round=<first>`` and the next frontier (``pre``'s
        cand and rest, ``links``) into ``frontier_dir(L + 1)``; ONE seen
        snapshot at L is full when the group holds a multiple of
        ``snapshot_full_every``, else the group's delta. The manifest
        entry is queued for the next commit point."""
        g, self._group = self._group, None
        last = g.first + len(g.infos) - 1
        cand, rest = (pre[0], pre[2]) if pre is not None else (None, None)
        writer = _write_group.remote(
            self.extracted_dir(g.first), self.frontier_dir(last + 1),
            g.misses, links, cand, rest, *g.records,
        )
        every = self.settings.crawl.snapshot_full_every
        mode = "full" if any(r % every == 0 for r in range(g.first, last + 1)) else "delta"
        info = g.infos[-1]
        info.update(seen_snapshot=self.seen_dir(last), seen_snapshot_mode=mode)
        seen_snap = self.seen.snapshot_async(self.seen_dir(last), mode)
        for i in g.infos:
            i["commit_group"] = [g.first, last]
        self._pending_commit = (seen_snap, writer, last, info, g.infos[:-1])

    def _durable(self, pre: list | None = None, links: pa.Table | None = None) -> None:
        """Close the open group (next frontier: ``pre``, ``links``) and
        commit it now, for a frontier-dir read and at the run's end."""
        if self._group is not None:
            self._close_group(pre, links)
        self._flush_pending_commit()

    # ---------------- distributed link admission ----------------
    def _admit_distributed(self, link_refs: list, rnd: int) -> int:
        """Scale-path link admission — the distributed mirror of
        :meth:`_admit_driver`. The fused tasks already attached ``ordv``
        (packed (parent_seq, link_idx) discovery order) and the child
        ``priority``. The seen anti-filter runs FIRST, as shard-parallel
        tasks over the link refs (seen-ness is a per-key property, so
        this shrinks first-wins to the NOVEL links); then
        :meth:`_first_wins_frontier` on ``ordv`` assigns child seq =
        ``next_seq`` + rank and surrogate = ``next_surrogate`` + rank —
        identical numbering to the driver path. Returns the number of
        admitted links."""
        base_seq, base_surr = self.next_seq, self.seen.next_surrogate

        def project(t: pa.Table, rank: np.ndarray) -> pa.Table:
            return pa.table(
                {
                    "url": t["link_url"],
                    "canonical_url": t["canonical_url"],
                    "key": t["key"],
                    "host": t["host"],
                    "priority": t["priority"],
                    "seq": pa.array(base_seq + rank),
                    "surrogate": pa.array(base_surr + rank),
                }
            )

        n, _stats = self._first_wins_frontier(
            self.seen.filter_unseen_refs(link_refs), "ordv", project, rnd + 1
        )
        self.next_seq = base_seq + n
        self.seen.next_surrogate = base_surr + n
        return n

    def _flush_pending_commit(self) -> None:
        if self._pending_commit is None:
            return
        seen_snap, writer, rnd, info, earlier = self._pending_commit
        self._pending_commit = None
        t0 = _now()
        # snapshot, record parts and next frontier durable before the
        # commit; each shard's snapshot returns its tier sizes at the cut
        info["seen_tiers"] = seen_snap.wait()
        info["written"] = ray.get(writer)
        # the real snapshot/writer wall time, recorded where the
        # futures are actually joined
        info["phase_sec"]["commit_wait"] = round(_now() - t0, 3)
        self.manifest.commit_round(rnd, info, earlier)

    # ---------------- top-level ----------------
    def run(self, resume: bool = False) -> CrawlMetrics:
        # "setup" and "final" phase records bracket the per-round ones
        # so wall ≈ Σ phases (the per-round table alone left page-store
        # decode, seed bootstrap and the final commit untracked — ~30%
        # of a 3-round sandbox run's wall)
        t_setup = _now()
        cc = self.settings.crawl
        infos = self.manifest.round_infos() if resume else []
        info = infos[-1] if infos else None
        # the shard pool is built first, so an actor pool's worker
        # start-up overlaps the page-store open and the seed keying. A
        # resume rebuilds the pool its snapshots were written with
        # (manifests from before the field ran the fixed 8-shard default)
        self.seen = ShardedSeenSet(
            seen_shard_count(cc.num_seen_shards)
            if info is None
            else info.get("seen_shards", 8),
            cc.seen_capacity_per_shard,
            ram_cap_per_shard=cc.seen_ram_cap_per_shard or None,
            spill_dir=(
                os.path.join(self.run_dir, "seen_spill")
                if cc.seen_ram_cap_per_shard
                else None
            ),
        )
        if self.fetch_mode == "store" and self._page_store is None:
            # kick off shard decode now — it overlaps seed bootstrap
            # (PageStore construction no longer blocks on shard init)
            from ..state.page_store import get_page_store

            self._page_store = get_page_store(self.pages_path, cc.num_page_shards)
        start_round = 0
        setup_kind = "bootstrap"
        if info is not None:
            setup_kind = "restore"  # manifest walk + seen-snapshot
            # reload — a different cost than seed bootstrap; keep the
            # phase telemetry BASELINE.md analyzes honest about which
            # one a run paid
            # seen-set restore chain: the newest FULL snapshot, then
            # the deltas committed after it; mid-group rounds have none
            # (old manifests without the mode field are all-full)
            base = max(
                r for r, i in enumerate(infos)
                if i.get("seen_snapshot_mode", "full") == "full"
            )
            self.seen.restore_chain(
                [i["seen_snapshot"] for i in infos[base:] if i["seen_snapshot"]]
            )
            self.next_seq = info["next_seq"]
            # the published metrics cover the WHOLE run, not only the
            # rounds after the resume
            for k, v in info.get("counters", {}).items():
                setattr(self.metrics, k, v)
            self.metrics.per_round = [i["stats"] for i in infos]
            start_round = len(infos)
        else:
            self._bootstrap()
        self.phase_times.append(
            {"round": "setup", setup_kind: round(_now() - t_setup, 3)}
        )

        for rnd in range(start_round, cc.max_rounds):
            if not self._round(rnd):
                break
        # a group still open (the next selection found nothing) closes
        # here; the wait lands in the last group's commit_wait
        # (recorded inside the flush), keeping Σ additive
        self._durable(self._preselect, self._next_links)
        # a caller that keeps the finished run (for its seen set or
        # metrics) must not pin its object-store objects: Ray frees
        # released objects in batches, so holding them until the run
        # object dies keeps them in the store into the caller's next job
        self._stage_put = self._fetch_put = None
        self._preselect = self._next_links = None
        t_final = _now()

        self._count_outputs()
        self.manifest.finalize(
            tables={
                "extracted": self._p("extracted"),
                "frontier": self._p("frontier"),
            },
            metrics=self.metrics.as_dict(),
        )
        self.phase_times.append(
            {"round": "final", "final_commit": round(_now() - t_final, 3)}
        )
        return self.metrics

    def _count_outputs(self) -> None:
        for kind, attr in (("dataset", "datasets"), ("unit", "units"), ("error", "errors")):
            n = sum(map(_count_parquet_rows, _record_files(self.run_dir, kind)))
            setattr(self.metrics, attr, n)


def _record_files(run_dir: str, record_type: str) -> list[str]:
    return sorted(glob.glob(os.path.join(
        run_dir, "staging", "extracted", "round=*", f"record_type={record_type}", "*.parquet"
    )))


def extracted_dataset(run_dir: str, record_type: str) -> "ray.data.Dataset":
    """Read one logical output table of a (published) run."""
    files = _record_files(run_dir, record_type)
    if not files:
        raise FileNotFoundError(f"no {record_type} output under {run_dir}/staging/extracted")
    return ray.data.read_parquet(files)
