"""The flagship crawl pipeline (SURVEY §3.4): rounds of
frontier → politeness selection → fetch → extract → link discovery →
seen-set commit → staged Parquet + lineage manifest.

Maps the reference's sequential harvest loop
(``/root/reference/src/main.rs:141-275``) onto Ray Data rounds:

| reference                          | here                                |
|------------------------------------|-------------------------------------|
| catalog scroll → Vec<Entry>        | seed parquet → frontier round 0     |
| surrogate-key dedup (T1)           | driver-held seen set, min-seq       |
| sequential per-dataset loop        | per-host budgeted rounds            |
| FileDownloader + cache recovery    | fetch = url lookup in the pages     |
|                                    | table; misses → dead-letter rows    |
| AbcdParser per XML                 | fused extract task per fetch chunk  |
| COPY into temp schema              | staged parquet per commit group     |
| schema swap                        | MANIFEST.json atomic rename         |

Determinism: every ordering decision keys on explicit ``(priority desc,
seq)`` — seq is carried in rows and assigned densely at admission
(never wall-clock), so two runs over the same seed list + politeness
budget produce identical fetch order, seen-set and surrogates
(north_rule).

Selection has ONE path, pipelined: the next round's per-host backlog
ordering runs as remote pre-selection tasks during this round's
extract (``_preselect_backlog`` — exact by the winner-superset lemma),
the backlog's remainder stays in the object store, and the admitted
links stay in memory, so the driver sorts only the politeness-bounded
candidates ∪ new links, never the accumulated frontier. The backlog is
P key-hash parts, P = ``ops.hashagg.combine_parts(backlog rows)`` (one
part below a million rows), one pre-selection task each; a key-hash
split cannot skew on a mega-host, and each round's info records
``backlog_parts``. A round with no in-memory hand-off (a resume)
rebuilds the backlog from the frontier directory's files by the same
exchange: read tasks, ``partition_refs``, part tasks.

Seed bootstrap and link admission have ONE path each, on that same
exchange (:meth:`CrawlRun._admit_first_wins`): the keyed rows go
through ``partition_refs`` into P = ``combine_parts(rows)`` key-hash
parts; per part, the first-wins kernel (:func:`first_wins`, min
``seq`` for seeds, min ``ordv`` for links — exact, since every copy of
a key lands in the same part) hands the driver only its survivors'
(key, val) arrays; the driver numbers them against the seen set; and
the project kernel (:func:`frontier_rows`) turns each part's survivors
into frontier rows that are pre-selected like a backlog part and join
it. At P = 1 the two kernels run in the driver on the pulled rows, so
no task is added, and the admitted links are the in-memory hand-off.
Round 0's info records ``bootstrap_parts``, every round's
``admission_parts``.

Every round is four steps (``CrawlRun._round``): **select** the
politeness-bounded winners, **fetch → extract → project** them in ONE
fused task per fetch chunk (``_extract_project_chunk``; it looks its
pages up in the object-store corpus files in ``fetch_mode="store"`` or
reads an ``HttpFetchStage`` task's ref in ``fetch_mode="http"``; a
chunk is at least one extract batch unless the round is smaller, so a
narrow round is one task whatever the number of corpus files),
**admit** the discovered links first-wins against the seen set, and
add the round to the open **commit group** (``CrawlRun._commit`` says
when it closes). A store-mode round's remote calls are thus the
pre-selection task plus one extract task per chunk. A round inside a
group writes no file (seen-set spill runs aside); the group's close
submits one writer for its records and the next frontier and writes one
seen snapshot; its manifest entry is written as soon as the writer
lands, while the next round's extract tasks run.

Resume: the last committed group's entry records the outputs, the
seen-set snapshot chain and the cumulative metric counters; a restarted
run restores them and replays the rounds after that group. A crash
loses the open group's rounds, plus the last closed group's when its
writer had not yet landed.

Driver-memory bound: the per-round WINNER set (and the fetch meta
built from it) is POLITENESS-BOUNDED — at most Σ(per-host budget) rows
per round regardless of frontier or corpus size — so holding it as a
driver Arrow table is a config-bounded cost, not a data-scaled one. The
unbounded collections (frontier, links, extracted rows, seen set)
never materialize on the driver above one part: the frontier backlog
stays in the object store as parts (and on disk once its group
closes), links arrive pre-deduplicated per fused task and, split into
parts, leave only their survivors' keys and vals (16 B per survivor)
to the driver, extracted records wait in the object store (never
pulled by the driver) for their group's writer task, and the seen set,
held in the driver, keeps its committed runs as arrays that spill to
memmapped disk runs.
"""

from __future__ import annotations

import glob
import os
import shutil
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..config import Settings
from ..functions.urlkeys import key_urls
from ..ops.hashagg import combine_parts, partition_refs, split_table
from ..stages.extract import (
    RECORD_DATASET,
    RECORD_ERROR,
    RECORD_LINK,
    RECORD_TYPES,
    ExtractStage,
)
from ..state import page_store
from ..state.manifest import RunManifest
from ..state.seen_set import SeenSet

from time import perf_counter as _now

_FRONTIER_SCHEMA = pa.schema([
    ("url", pa.string()), ("canonical_url", pa.string()), ("key", pa.int64()),
    ("host", pa.string()), ("priority", pa.float64()), ("seq", pa.int64()),
    ("surrogate", pa.int64()),
])
FRONTIER_COLS = _FRONTIER_SCHEMA.names

# typed empty frontier: what a selection over no rows ranks
_EMPTY_FRONTIER = _FRONTIER_SCHEMA.empty_table()


def keyed_frontier_batch(batch: pa.Table) -> pa.Table:
    """url → (canonical_url, key, host)."""
    canon, keys, hosts = key_urls(batch["url"])
    return (
        batch.append_column("canonical_url", canon)
        .append_column("key", pa.array(keys))
        .append_column("host", hosts)
    )


@ray.remote(num_cpus=1, num_returns=2)
def _key_seed_chunk(chunk: list) -> tuple:
    """Read one chunk of seed row groups (``[(file, [row group, ...]),
    ...]``) and key it: returns (its max seq, the keyed rows)."""
    t = keyed_frontier_batch(
        pa.concat_tables([pq.ParquetFile(f).read_row_groups(rgs) for f, rgs in chunk])
    )
    return pc.max(t["seq"]).as_py(), t


def _parquet_files(path: str) -> list[str]:
    """A parquet file, or every parquet file under a directory."""
    if os.path.isfile(path):
        return [path]
    return sorted(
        os.path.join(root, f)
        for root, _dirs, files in os.walk(path)
        for f in files
        if f.endswith(".parquet")
    )


def _seed_chunks(path: str, n: int) -> tuple[list, int]:
    """The seed files' non-empty row groups, in file order, cut into at
    most ``n`` chunks of about equal rows (none below 2048 rows unless
    the whole list is), and the total rows — footer metadata only, no
    data pages read."""
    groups = []
    for f in _parquet_files(path):
        md = pq.ParquetFile(f).metadata
        groups += [(f, i, md.row_group(i).num_rows) for i in range(md.num_row_groups)]
    rows = sum(g[2] for g in groups)
    n = max(1, min(n, rows // 2048))
    chunks, start = [[] for _ in range(n)], 0
    for f, i, r in groups:
        if not r:
            continue
        chunk = chunks[start * n // rows]
        if chunk and chunk[-1][0] == f:
            chunk[-1][1].append(i)
        else:
            chunk.append((f, [i]))
        start += r
    return [c for c in chunks if c], rows


def _count_parquet_rows(path: str) -> int:
    """Row count of :func:`_parquet_files` — footer metadata only, no
    data pages read."""
    return sum(pq.ParquetFile(f).metadata.num_rows for f in _parquet_files(path))


@ray.remote(num_cpus=1)
def _read_frontier_file(path: str) -> pa.Table:
    return pq.read_table(path, columns=FRONTIER_COLS)


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


# A commit group closes once its buffered record bytes reach this: a
# size seen at run time, as the part counts are sized from the rows
# seen at run time ("Adaptive and Robust Query Execution for Lakehouses
# At Scale", VLDB 2024)
GROUP_BYTES_MAX = 64 << 20


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
# by config, validated at CrawlRun construction) — the single sort key
# of link first-wins
LINK_ORD_SCALE = 1 << 20


def _first_wins_rows(t: pa.Table, val: str) -> np.ndarray:
    """The positions of :func:`first_wins`'s rows in ``t``."""
    order = np.argsort(t[val].to_numpy(), kind="stable")
    return order[~pd.Series(t["key"].to_numpy()[order]).duplicated().to_numpy()]


def first_wins(t: pa.Table, val: str) -> pa.Table:
    """First-wins (the first sight of a key claims it,
    ``surrogate_key.rs:16-41``): per ``key``, the row of ``t`` with the
    least ``val``, in ``val`` order. ``val`` is unique (seed ``seq``,
    link ``ordv``), so the result is exact over any key-hash part of the
    rows: every copy of a key lands in the same part."""
    return t.take(pa.array(_first_wins_rows(t, val), pa.int64()))


def frontier_rows(t: pa.Table, rank: np.ndarray, seq_base: int, surr_base: int) -> pa.Table:
    """The frontier rows of ``t`` (keyed seed rows, or link rows, which
    carry ``link_url``) numbered by ``rank``, a first-wins survivor's
    position among the admitted (−1: not admitted, or not a survivor):
    surrogate = ``surr_base`` + rank; a link's seq = ``seq_base`` +
    rank, a seed keeps its own."""
    keep = np.flatnonzero(rank >= 0)
    t, rank = t.take(pa.array(keep, pa.int64())), rank[keep]
    link = "link_url" in t.column_names
    return pa.table(
        {
            "url": t["link_url" if link else "url"],
            "canonical_url": t["canonical_url"],
            "key": t["key"],
            "host": t["host"],
            "priority": t["priority"],
            "seq": pa.array(seq_base + rank) if link else t["seq"],
            "surrogate": pa.array(surr_base + rank),
        }
    )


def _write_frontier(t: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path)


def _project_tables(prio_lookup, tables: dict[str, pa.Table]):
    """Round projection core over one chunk's extracted record tables:
    returns (fetched-url table, deduped link table, raw link count, kept
    link count). Runs inside the fused :func:`_extract_project_chunk`
    task.

    The link table carries its admission sort key ``ordv`` and the
    child ``priority`` (0.5 × parent priority, resolved here from the
    politeness-bounded winner map ``prio_lookup`` = (sorted parent
    seqs, parent priorities), shipped once per round via ``ray.put``)
    — so admission needs no later pass to attach them.
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
    # partial first-wins REMOTELY (min of per-task mins is the global
    # min, so admission sees only each task's survivors instead of
    # every duplicate discovery)
    link_t = first_wins(link_t, "ordv")
    return got_t, link_t, n_raw, link_t.num_rows


@ray.remote(num_cpus=1)
def _http_fetch_chunk(fetch_stage, meta: pa.Table) -> pa.Table:
    """``fetch_mode="http"``: fetch one chunk of fetch meta through an
    :class:`~..stages.fetch.HttpFetchStage` (retry/backoff/status
    classes; failed fetches come back as NULL bodies that the extract
    stage turns into dead-letter rows). Its ref is the ``chunk`` of one
    :func:`_extract_project_chunk` task."""
    return fetch_stage(meta)


@ray.remote(num_cpus=1, num_returns=2)
def _extract_project_chunk(stage, prio_lookup, batch_size: int, chunk: pa.Table,
                           fidx: np.ndarray | None = None, *files):
    """FUSED fetch-chunk worker: one plain task fetches one chunk —
    store mode: ``chunk`` is its fetch meta, and the task looks its
    pages up (:func:`~..state.page_store.lookup`) in the loaded corpus
    ``files`` its urls fall in (``fidx``), refs resolved zero-copy as
    task args; http mode: ``chunk`` is an :func:`_http_fetch_chunk`
    ref — then extracts it in ``batch_size`` slices (the wide-binary-row
    bound) into the four narrow record tables and projects them in
    place: no Dataset execution, no block accounting, no separate
    projection wave. It writes no file.

    Returns TWO refs: the link table (it follows the admission path)
    and (fetched-url table, counts, records ref), which the driver
    pulls. The records are ONE Arrow IPC buffer (a stream per type in
    ``RECORD_TYPES`` order: one buffer, not hundreds of column buffers)
    for the commit group's :func:`_write_group`, put by this task so no
    buffer under Ray's inline limit lands in the driver's heap (Ray
    never reaps an owner of live objects as idle)."""
    pages = chunk if fidx is None else page_store.lookup(chunk, fidx, files)
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
    out_dir: str, front_dir: str, misses: list, links, n_parts: int, *inputs
) -> dict:
    """A commit group's one writer. ``inputs`` are the cand, rest and
    robots-denied rows of each of the ``n_parts`` backlog parts, then
    the group's record buffers. The record buffers (plus the fetch-miss
    rows, error schema) become ONE zstd part per non-empty record type,
    ``out_dir/record_type=X/part-00000.parquet``, and the next frontier
    (``links`` and the parts) goes into ``front_dir``. Fixed names, so a
    re-run overwrites its own files. Returns the files and bytes written
    per record type."""
    backlog, records = inputs[: 3 * n_parts], inputs[3 * n_parts :]
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
    frontier = [("links", links)]
    for p in range(n_parts):
        frontier += [
            (f"{tag}-{p:05d}", t)
            for tag, t in zip(("cand", "rest", "denied"), backlog[3 * p : 3 * p + 3])
        ]
    for tag, t in frontier:
        if t is not None and t.num_rows:
            _write_frontier(t.select(FRONTIER_COLS), os.path.join(front_dir, f"{tag}.parquet"))
    return written


def _preselect(backlog: pa.Table, budgets: dict, default_budget: int, robots: dict):
    """Pre-selection of ONE backlog part for the next selection: drop the
    rows the ``robots`` rules deny, then split the rest per host by the
    same (priority desc, seq) ordering the selection uses:

    - ``cand``  = per-host top-budget — returned to the driver.
      Exactness lemma, for ANY split of the backlog into parts:
      winners(backlog ∪ links) = winners(∪ cand ∪ links), because a row
      OUTSIDE its part's per-host top-budget already has ≥ budget
      same-host rows ranked ahead of it, so it cannot win the next
      round whatever links are added. cand is politeness-bounded
      (≤ Σ per-host budgets per part), so shipping it to the driver is
      a config-bounded cost.
    - ``rest``  = the remainder, returned by ref.

    Returns ``cand``, (rest rows, robots-denied rows), ``rest`` and the
    denied rows (None when there are none). A group's close writes cand,
    rest and the denied rows into the next frontier dir, so the dir
    holds the frontier before the robots gate, as a resume that rebuilds
    from it counts it."""
    denied = _robots_denied(backlog, robots)
    gone = None
    if denied.any():
        backlog, gone = backlog.filter(~denied), backlog.filter(denied)
    cand, rest = top_budget(backlog, budgets, default_budget)
    return cand, (rest.num_rows, int(denied.sum())), rest, gone


@ray.remote(num_cpus=1, num_returns=4)
def _preselect_backlog(budgets: dict, default_budget: int, robots: dict, *rows: pa.Table):
    """:func:`_preselect` of ONE backlog part, run remotely DURING the
    current round's extract (the round-pipelining that removes the
    per-round frontier sort from the driver's serial path). The part is
    ``rows``: its share of the previous pre-selections' remainders,
    passed by ref, and of the current round's selection losers.

    Robots rules are NOT re-applied in a pipelined round (``robots``
    empty): every backlog row already passed the selection robots gate
    in the round that deferred it (links are checked before they can
    become losers), so the backlog is robots-clean by invariant. The
    exception is a rebuild from the frontier directory, whose files also
    hold admitted links no selection has checked and the rows admission
    parts denied but no selection has counted: it passes the run's
    rules, and since a row a selection has passed is never denied, the
    denied count stays exact."""
    return _preselect(pa.concat_tables(rows, promote_options="default"),
                      budgets, default_budget, robots)


@ray.remote(num_cpus=1, num_returns=2)
def _first_wins_part(val: str, *rows: pa.Table):
    """:func:`first_wins` over one key-hash part: returns its survivors'
    (key, val) arrays, all the driver pulls, and the survivors, kept by
    ref."""
    t = first_wins(pa.concat_tables(rows), val)
    return (t["key"].to_numpy(), t[val].to_numpy()), t


@ray.remote(num_cpus=1, num_returns=4)
def _frontier_part(survivors: pa.Table, rank: np.ndarray, seq_base: int, surr_base: int,
                   budgets: dict, default_budget: int, robots: dict, path: str | None):
    """One part's admitted rows as a backlog part: the
    :func:`frontier_rows` of its ``survivors`` by their ``rank`` (the
    part's own ranks only), written to ``path`` when given (frontier 0),
    then :func:`_preselect` with the run's robots rules (admitted rows
    have passed no robots gate yet)."""
    front = frontier_rows(survivors, rank, seq_base, surr_base)
    if path is not None:
        _write_frontier(front, path)
    return _preselect(front, budgets, default_budget, robots)


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
    """What the round's select step hands to fetch and commit."""

    fdir: str  # this round's frontier dir
    n_front: int
    winners: pa.Table
    backlog_parts: int  # the backlog parts it reduced (0: none)


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
    # the previous group's commit, run while the chunks ran
    flush_s: float = 0.0


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
        self.pages_path = pages_path
        self.seeds_path = seeds_path
        self.run_dir = run_dir
        self.fetch_mode = fetch_mode
        self.http_opener = http_opener
        self.manifest = RunManifest(run_dir)
        if cc.link_cap_per_page > LINK_ORD_SCALE:
            raise ValueError(
                f"link_cap_per_page={cc.link_cap_per_page} > {LINK_ORD_SCALE}"
                " (ordv packs link_idx below it)"
            )
        self.seen: SeenSet | None = None  # built by run()
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
        self._bootstrap_parts = 0  # recorded in round 0's info
        # round-pipelining state: the in-flight backlog pre-selection
        # (one [cand, counts, rest, denied] ref list per backlog part:
        # the parts submitted before extract, so they overlap it, and
        # the parts of a bootstrap or admission above one part) and the
        # admitted links of a one-part admission, kept in memory
        self._preselect: list | None = None
        self._next_links: pa.Table | None = None

    def _stage_ref(self):
        """The extract stage in the object store, put ONCE per run —
        every fused chunk task reads the same copy (no per-task
        registry pickle)."""
        if self._stage_put is None:
            self._stage_put = ray.put(ExtractStage(self.settings))
        return self._stage_put

    @cached_property
    def _store(self) -> page_store.PageStore:
        return page_store.get_page_store(self.pages_path)

    @cached_property
    def _cpus(self) -> int:
        """The cluster's CPUs, read once per run."""
        return int(ray.cluster_resources().get("CPU", 8))

    # ---------------- paths ----------------
    def _p(self, *parts: str) -> str:
        return os.path.join(self.manifest.staging, *parts)

    def frontier_dir(self, rnd: int) -> str:
        return self._p("frontier", f"round={rnd}")

    def extracted_dir(self, rnd: int) -> str:
        return self._p("extracted", f"round={rnd}")

    def seen_dir(self, rnd: int) -> str:
        return self._p("seen", f"round={rnd}")

    # ---------------- bootstrap and admission ----------------
    def _bootstrap(self) -> None:
        """Seeds → canonical keys → seen-set round-0 admission → frontier
        0, by :meth:`_admit_first_wins` on ``seq``.

        Admission order = seed ``seq`` (catalog order in the reference,
        ``search_result.rs:88-111``; dense numbering
        ``surrogate_key.rs:16-41``). The driver reads the seed files'
        footers only; one keying task per chunk of row groups reads and
        keys its rows and returns their max seq. ``next_seq`` counts ALL
        seeds (the pre-dedup max), matching the sequential reference's
        ``max(s['seq'] for s in seeds) + 1`` even when the highest-seq
        seed is a non-canonical duplicate form. The C1 debug window
        (``skip(dataset_start).take(dataset_limit)`` in seq order, only
        when debug is on, ``main.rs:154-169``) is a bounded debug knob:
        it keeps the bootstrap in one part and is cut on the driver."""
        chunks, rows = _seed_chunks(self.seeds_path, 2 * self._cpus)
        futs = [_key_seed_chunk.remote(c) for c in chunks]
        n = 1 if self.settings.debug else combine_parts(rows, self._cpus)
        self._bootstrap_parts = n
        if n > 1:
            self.next_seq = max(ray.get([f[0] for f in futs])) + 1
            self._admit_first_wins([f[1] for f in futs], n, "seq", self.frontier_dir(0))
            return
        if not futs:
            return
        seeds = pa.concat_tables(ray.get([f[1] for f in futs]))
        if self.settings.debug:
            seeds = seeds.sort_by("seq")
            start, limit = self.settings.dataset_start, self.settings.dataset_limit
            seeds = seeds.slice(start, limit or None)
        seq_max = pc.max(seeds["seq"]).as_py()
        self.next_seq = 0 if seq_max is None else seq_max + 1
        self._admit_first_wins(seeds, 1, "seq", self.frontier_dir(0))

    def _admit_first_wins(self, rows, n: int, val: str, front_dir: str | None = None) -> int:
        """First-wins admission of keyed ``rows`` (seeds by ``seq``,
        links by ``ordv``) on the backlog's exchange, in ``n`` key-hash
        parts; returns the rows admitted. ``front_dir``: write the
        admitted rows there too (frontier 0).

        ``n`` = 1 adds no task: ``rows`` is the pulled table, and the
        driver finds its first-wins survivors, numbers them
        (:meth:`_number`) and builds their :func:`frontier_rows` (one
        ``take`` of ``rows``), which become the in-memory hand-off
        ``_next_links``. Otherwise
        ``rows`` are refs: ``partition_refs`` splits them into ``n``
        parts, a :func:`_first_wins_part` task per part returns its
        survivors' (key, val) arrays while the rows stay by ref, the
        driver numbers all survivors, and a :func:`_frontier_part` task
        per part gets back its own survivors' ranks and pre-selects
        their frontier rows; the parts join ``_preselect``."""
        links = val == "ordv"
        seq_base, surr_base = self.next_seq, self.seen.next_surrogate
        if n == 1:
            won = _first_wins_rows(rows, val)
            rank = np.full(rows.num_rows, -1, dtype=np.int64)
            rank[won] = self._number(
                rows["key"].to_numpy()[won], rows[val].to_numpy()[won], links
            )
            front = frontier_rows(rows, rank, seq_base, surr_base)
            if front_dir is not None:
                _write_frontier(front, os.path.join(front_dir, "seeds-00000.parquet"))
            if front.num_rows:
                self._next_links = front
            return front.num_rows
        matrix = partition_refs(rows, "key", n)
        wins = [_first_wins_part.remote(val, *[row[i] for row in matrix]) for i in range(n)]
        arrays = ray.get([w[0] for w in wins])
        rank = self._number(
            np.concatenate([k for k, _ in arrays]), np.concatenate([v for _, v in arrays]), links
        )
        admitted = int((rank >= 0).sum())
        if admitted:
            ranks = np.split(rank, np.cumsum([len(k) for k, _ in arrays])[:-1])
            paths = [
                None if front_dir is None else os.path.join(front_dir, f"seeds-{i:05d}.parquet")
                for i in range(n)
            ]
            self._preselect = (self._preselect or []) + [
                _frontier_part.remote(w[1], r, seq_base, surr_base, self.budgets,
                                      self.default_budget, self.robots, path)
                for w, r, path in zip(wins, ranks, paths)
            ]
        return admitted

    def _number(self, keys: np.ndarray, vals: np.ndarray, links: bool) -> np.ndarray:
        """The driver step of a first-wins admission, over its survivors'
        keys and vals (16 B per survivor): each survivor's rank among
        the admitted, in val order (−1: not admitted). Every seed is
        admitted under its own seq. A sequential crawler numbers only
        NOVEL urls, so links the seen set knows drop BEFORE child seqs
        (``next_seq`` + rank) are consumed — the seq/surrogate sequence
        is then the single-threaded reference's
        (tests/test_crawl_vs_sequential). The seen set commits the
        round, assigning surrogates densely in that order."""
        idx = np.argsort(vals, kind="stable")
        if links:
            idx = idx[self.seen.lookup(keys[idx]) < 0]
            seqs = np.arange(self.next_seq, self.next_seq + len(idx), dtype=np.int64)
            self.next_seq += len(idx)
        else:
            seqs = vals[idx]
        self.seen.offer_batch(keys[idx], seqs)
        admitted = self.seen.commit_round().num_rows
        # the survivors are unique and new, so the commit admits each
        if admitted != len(idx):
            raise RuntimeError(
                f"seen-set commit admitted {admitted} of {len(idx)} first-wins survivors"
            )
        rank = np.full(len(keys), -1, dtype=np.int64)
        rank[idx] = np.arange(len(idx))
        return rank

    # ---------------- selection ----------------
    def _select(self, rnd: int) -> _Selection | None:
        """The round's politeness selection, or None when it selects
        nothing — the frontier is exhausted, or only zero-budget or
        robots-denied rows are left. That ends the crawl, as in the
        sequential oracle; the unselected rows stay the hand-off that
        the last group's close writes. Before returning, it submits the
        NEXT round's backlog pre-selection, so that overlaps
        fetch/extract."""
        fdir = self.frontier_dir(rnd)
        # round-pipelining hand-off from the previous round: the
        # overlapped backlog pre-selection parts and the in-memory links
        parts, links = self._preselect, self._next_links
        rebuild = parts is None and links is None
        self._preselect = self._next_links = None
        # a replayed (crashed, uncommitted) round must not APPEND to its
        # half-written outputs — the group commit is all-or-nothing (C3)
        shutil.rmtree(self.extracted_dir(rnd), ignore_errors=True)
        shutil.rmtree(self.frontier_dir(rnd + 1), ignore_errors=True)
        if rebuild:
            # the backlog is rebuilt from the frontier dir: close the
            # open group into it first
            self._durable()
            n_front = _count_parquet_rows(fdir)  # 0 for a missing dir
            if not n_front:
                return None
            parts = self._rebuild_backlog(fdir, n_front)
        # usually instant: the parts ran during the prior round's extract
        pulled = ray.get([ref for p in parts or () for ref in p[:2]])
        cands, counts = pulled[0::2], pulled[1::2]
        mem = [t for t in (*cands, links) if t is not None and t.num_rows]
        if not rebuild:
            # the frontier dir would hold exactly these rows: the parts'
            # rests, robots-denied rows and candidates, and the links
            n_front = sum(c[0] + c[1] for c in counts) + sum(t.num_rows for t in mem)
        frontier = pa.concat_tables(
            [t.select(FRONTIER_COLS) for t in mem] or [_EMPTY_FRONTIER],
            promote_options="default",
        )
        denied = _robots_denied(frontier, self.robots)
        self.metrics.robots_denied += int(denied.sum()) + sum(c[1] for c in counts)
        winners, losers = top_budget(
            frontier.filter(~denied), self.budgets, self.default_budget
        )
        if not winners.num_rows:
            self._preselect, self._next_links = parts, links
            return None
        self._preselect = self._next_backlog(parts, counts, losers)
        return _Selection(fdir, n_front, winners, len(parts or ()))

    def _next_backlog(self, parts: list | None, counts: list, losers: pa.Table):
        """Submit the next round's pre-selection over the backlog — the
        parts' rests ∪ this round's ``losers`` — as P key-hash parts, P =
        ``combine_parts(backlog rows)``, one task per part; None when
        the backlog is empty. The driver splits the losers with the hash
        ``partition_refs`` uses; when P changes, the rests are re-split
        by ``partition_refs`` (at P = 1 that is no task)."""
        rows = sum(c[0] for c in counts) + losers.num_rows
        if not rows:
            return None
        n = combine_parts(rows, self._cpus)
        if n == len(parts or ()):
            shares = [[p[2]] if c[0] else [] for p, c in zip(parts, counts)]
        else:
            rests = [p[2] for p, c in zip(parts or (), counts) if c[0]]
            matrix = partition_refs(rests, "key", n)
            shares = [[row[i] for row in matrix] for i in range(n)]
        return [
            _preselect_backlog.remote(self.budgets, self.default_budget, {}, part, *share)
            for part, share in zip(split_table(losers, "key", n), shares)
        ]

    def _rebuild_backlog(self, fdir: str, rows: int) -> list:
        """The backlog parts of a round with no in-memory hand-off,
        rebuilt from the ``rows`` of the frontier directory's files by
        the same exchange: one read task per file, ``partition_refs``
        into P = ``combine_parts(rows)`` parts, one pre-selection task
        per part, which also applies the robots rules (the directory
        holds admitted links no selection has checked)."""
        n = combine_parts(rows, self._cpus)
        reads = [_read_frontier_file.remote(f) for f in _parquet_files(fdir)]
        matrix = partition_refs(reads, "key", n)
        return [
            _preselect_backlog.remote(
                self.budgets, self.default_budget, self.robots, *[row[i] for row in matrix]
            )
            for i in range(n)
        ]

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
        :func:`_http_fetch_chunk` task per chunk of the fetch meta;
        returns each chunk's :func:`_extract_project_chunk` args (the
        fetch task's ref). Politeness holds because the selection
        already capped each host's rows this round; the stage paces a
        host's rows within a chunk."""
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
        size = -(-n // max(1, min(4 * self._cpus, n // 64)))
        return [
            (_http_fetch_chunk.remote(self._fetch_put, meta.slice(off, size)),)
            for off in range(0, n, size)
        ]

    def _fetch_store_refs(self, meta: pa.Table) -> list:
        """Store-mode fetch, simulating the reference's S3 download
        (``src/file_downloader.rs:8-29``): indexed lookups in the corpus
        files loaded ONCE per session into the object store
        (state/page_store.py) — never a per-round corpus scan, and no
        remote call but the extract tasks. Returns each chunk's
        :func:`_extract_project_chunk` args: its fetch meta (cut in file
        order), each url's position in its file list, and the refs of
        the files its urls fall in."""
        store = self._store
        fidx = store.file_of(meta["url"].to_pylist())
        order = np.argsort(fidx, kind="stable")
        # about 2 chunks per CPU, but none below one extract batch
        # unless the whole round is: a chunk costs a task whatever its
        # size, so a narrow round is one task
        n = max(1, min(2 * self._cpus, len(order) // self.settings.crawl.batch_size))
        chunks = []
        for chunk in np.array_split(order, n):
            used, local = np.unique(fidx[chunk], return_inverse=True)
            chunks.append((meta.take(chunk), local, *(store.files[i] for i in used)))
        return chunks

    def _fetch_extract(self, winners: pa.Table, rnd: int) -> _Fetched:
        """Fetch → extract → project for the round's winners: one fused
        :func:`_extract_project_chunk` task per fetch chunk, so the
        round pays no Dataset execution and no separate projection
        wave. The driver pulls only the fetched-url tables and the
        counts; the link refs go to admission, the record refs to the
        commit group. While the chunks run, the group closed at the
        previous round is committed (:meth:`_flush_pending_commit`)."""
        fx = _Fetched()
        if not winners.num_rows:
            return fx
        # winner (seq → priority) lookup for child-link priorities,
        # sorted for the projections' searchsorted; put ONCE per round
        # (top-level ObjectRef args auto-deref in the task)
        seqs = winners["seq"].to_numpy()
        worder = np.argsort(seqs, kind="stable")
        prio_ref = ray.put((seqs[worder], winners["priority"].to_numpy()[worder]))
        # each fetch chunk's task args (store: meta + file refs; http:
        # the fetch task's ref)
        http = self.fetch_mode == "http"
        chunks = (self._fetch_http_refs if http else self._fetch_store_refs)(
            self._fetch_meta(winners, rnd)
        )
        batch = self.settings.crawl.batch_size
        futs = [
            _extract_project_chunk.remote(self._stage_ref(), prio_ref, batch, *args)
            for args in chunks
        ]
        fx.link_refs = [f[0] for f in futs]
        # the driver would only wait for the chunks here: make the group
        # closed at the previous round durable meanwhile
        fx.flush_s = self._flush_pending_commit()
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
        # fused fetch + extract + project
        phase_t["extract"] = _now() - t0 - fx.flush_s
        t0 = _now()
        admitted, has_next, admission_parts = self._admit(fx)
        phase_t["admission"] = _now() - t0
        parts = {"backlog_parts": sel.backlog_parts, "admission_parts": admission_parts}
        if rnd == 0:
            parts["bootstrap_parts"] = self._bootstrap_parts
        last = not has_next or rnd == self.settings.crawl.max_rounds - 1
        self._commit(rnd, sel, fx, admitted, parts, phase_t, last)
        return has_next

    def _admit(self, fx: _Fetched) -> tuple[int, bool, int]:
        """Link admission: :meth:`_admit_first_wins` on ``ordv`` over the
        fused tasks' pre-deduplicated link survivors, in P =
        ``combine_parts(surviving links)`` parts (the tasks already
        attached ``ordv``, the packed (parent_seq, link_idx) discovery
        order, and the child ``priority``). Returns (admitted links,
        whether a next round has work, P; 0 when no link survived)."""
        self.metrics.links_discovered += fx.n_links_raw
        n = combine_parts(fx.n_links_kept, self._cpus) if fx.n_links_kept else 0
        rows = fx.link_refs
        if n == 1:
            rows = pa.concat_tables([l for l in ray.get(rows) if l.num_rows])
        admitted = self._admit_first_wins(rows, n, "ordv") if n else 0
        has_next = self._next_links is not None or self._preselect is not None
        return admitted, has_next, n

    def _commit(self, rnd: int, sel: _Selection, fx: _Fetched, admitted: int,
                parts: dict, phase_t: dict, last: bool) -> None:
        """Add the round to the open commit group (``parts``: the part
        count of its backlog, admission and, at round 0, bootstrap) and
        close the group after round 0 (alone, so the first commit comes
        early), at the ``last`` round, or once its record bytes reach
        :data:`GROUP_BYTES_MAX`. The previous close was flushed during
        this round's extract; a round that fetched nothing flushes it
        here. The wait is recorded as that group's ``commit_wait``
        (inside the flush)."""
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
                "next_seq": self.next_seq,
                "next_surrogate": self.seen.next_surrogate,
                "stats": self.metrics.per_round[-1],
                "counters": {k: getattr(self.metrics, k) for k in _COUNTERS},
                **parts,
                "extract_docs": dict(fx.extract_docs),
                "phase_sec": phase_rec,
            }
        )
        if rnd == 0 or last or g.nbytes >= GROUP_BYTES_MAX:
            self._close_group(self._preselect, self._next_links)
        phase_t["snapshot"] = _now() - t0
        phase_rec.update({k: round(v, 3) for k, v in phase_t.items()})

    def _close_group(self, parts: list | None, links: pa.Table | None) -> None:
        """Close the open group, rounds first..L: ONE
        :func:`_write_group` task writes its records under
        ``extracted/round=<first>`` and the next frontier (the backlog
        ``parts``' cand, rest and denied rows, ``links``) into
        ``frontier_dir(L + 1)``; ONE seen snapshot at L is full when the group holds a multiple of
        ``snapshot_full_every``, else the group's delta. The manifest
        entry waits for the writer: the next round writes it while its
        extract tasks run (:meth:`_fetch_extract`), or :meth:`_durable`
        does."""
        g, self._group = self._group, None
        last = g.first + len(g.infos) - 1
        parts = parts or []
        writer = _write_group.remote(
            self.extracted_dir(g.first), self.frontier_dir(last + 1), g.misses,
            links, len(parts), *[t for p in parts for t in (p[0], p[2], p[3])], *g.records,
        )
        every = self.settings.crawl.snapshot_full_every
        mode = "full" if any(r % every == 0 for r in range(g.first, last + 1)) else "delta"
        info = g.infos[-1]
        info.update(
            seen_snapshot=self.seen_dir(last),
            seen_snapshot_mode=mode,
            # the tier sizes at the cut
            seen_tiers=self.seen.snapshot_async(self.seen_dir(last), mode),
        )
        for i in g.infos:
            i["commit_group"] = [g.first, last]
        self._pending_commit = (writer, last, info, g.infos[:-1])

    def _durable(self, parts: list | None = None, links: pa.Table | None = None) -> None:
        """Close the open group (next frontier: the backlog ``parts``,
        ``links``) and commit it now, for a backlog rebuild and at the
        run's end."""
        if self._group is not None:
            self._close_group(parts, links)
        self._flush_pending_commit()

    def _flush_pending_commit(self) -> float:
        """Commit the closed group once its writer lands; returns the
        seconds it took (0 when no group is pending)."""
        if self._pending_commit is None:
            return 0.0
        writer, rnd, info, earlier = self._pending_commit
        self._pending_commit = None
        t0 = _now()
        # record parts and next frontier durable before the commit (the
        # seen snapshot was written at the close)
        info["written"] = ray.get(writer)
        # the real writer wall time, recorded where the future is
        # actually joined
        info["phase_sec"]["commit_wait"] = round(_now() - t0, 3)
        self.manifest.commit_round(rnd, info, earlier)
        return _now() - t0

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
        self.seen = SeenSet(
            ram_cap=cc.seen_ram_cap_per_shard or None,
            spill_dir=(
                os.path.join(self.run_dir, "seen_spill")
                if cc.seen_ram_cap_per_shard
                else None
            ),
        )
        if self.fetch_mode == "store":
            # open the page store now: its file loads overlap bootstrap
            _ = self._store
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
    import ray.data

    files = _record_files(run_dir, record_type)
    if not files:
        raise FileNotFoundError(f"no {record_type} output under {run_dir}/staging/extracted")
    return ray.data.read_parquet(files)
