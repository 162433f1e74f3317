"""Span recorder for the traced benchmark run.

Spans are kept in memory (name, start, end, parent, iteration) and
written out once, when the run ends. They are recorded from the
benchmark's side only: the package's public entry points are wrapped
for the length of one traced iteration and restored afterwards, so the
untraced iterations run the package exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.iteration = 0  # spans of one iteration share this id

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "iteration": self.iteration,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def of_iteration(self, iteration: int) -> list[dict]:
        return [s for s in self.spans if s["iteration"] == iteration]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time_by_layer(spans: list[dict]) -> dict[str, float]:
    """Self time per layer (the span name up to its first dot): each
    span's duration minus its children's. Spans come from one thread's
    stack, so children never overlap."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"].split(".", 1)[0]] += duration(s) - child_time[s["id"]]
    return dict(out)


def wrap(tracer: Tracer, fn, name: str, count=None):
    """``fn`` inside a span; ``count(*args)`` (if given) is stored on
    the span as ``items``."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            if count is not None:
                rec["items"] = count(*args)
            return fn(*args, **kwargs)

    return traced


@contextlib.contextmanager
def patched(targets: list[tuple]):
    """Set each ``(owner, attribute, replacement)`` for the block's
    duration; the originals are always restored."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, repl in targets:
            setattr(owner, attr, repl)
        yield
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)


def crawl_patches(tracer: Tracer) -> list[tuple]:
    """Driver-side calls into the crawl's state layers."""
    from vat_abcd_crawler_ray.state import page_store
    from vat_abcd_crawler_ray.state.manifest import RunManifest
    from vat_abcd_crawler_ray.state.seen_set import ShardedSeenSet

    return [
        (ShardedSeenSet, "offer_batch",
         wrap(tracer, ShardedSeenSet.offer_batch, "seen_set.offer",
              count=lambda _self, keys, *_: len(keys))),
        (ShardedSeenSet, "lookup",
         wrap(tracer, ShardedSeenSet.lookup, "seen_set.lookup",
              count=lambda _self, keys: len(keys))),
        (ShardedSeenSet, "commit_round",
         wrap(tracer, ShardedSeenSet.commit_round, "seen_set.commit")),
        (ShardedSeenSet, "snapshot_async",
         wrap(tracer, ShardedSeenSet.snapshot_async, "seen_set.snapshot")),
        (RunManifest, "commit_round",
         wrap(tracer, RunManifest.commit_round, "manifest.commit")),
        (RunManifest, "finalize",
         wrap(tracer, RunManifest.finalize, "manifest.finalize")),
        (page_store, "get_page_store",
         wrap(tracer, page_store.get_page_store, "page_store.open")),
    ]


def curate_patches(tracer: Tracer) -> list[tuple]:
    """The curate command's stages. Ray Data builds them lazily, so
    each wrapper materializes its result inside its span; the
    clean/scrub map (run inside Ray tasks, out of the driver's reach)
    is materialized at the dedup boundary. The forced boundaries are
    part of what ``trace_overhead_s`` reports."""
    import ray.data

    from vat_abcd_crawler_ray.ops import packing, sampling
    from vat_abcd_crawler_ray.pipelines import dedup

    minhash = dedup.minhash_lsh_dedup
    split = sampling.add_split_column
    pack = packing.pack_sequences
    write = ray.data.Dataset.write_parquet

    def traced_minhash(ds, *args, **kwargs):
        with tracer.span("textstats.clean") as rec:
            ds = ds.materialize()  # read + clean_lines + scrub_pii + tokens
            rec["items"] = ds.count()
        with tracer.span("dedup.minhash") as rec:
            out = minhash(ds, *args, **kwargs).materialize()
            rec["items"] = out.count()
        return out

    def traced_split(ds, *args, **kwargs):
        with tracer.span("sampling.split"):
            return split(ds, *args, **kwargs).materialize()

    def traced_pack(ds, *args, **kwargs):
        with tracer.span("packing.pack"):
            return pack(ds, *args, **kwargs).materialize()

    return [
        (dedup, "minhash_lsh_dedup", traced_minhash),
        (sampling, "add_split_column", traced_split),
        (packing, "pack_sequences", traced_pack),
        (ray.data.Dataset, "write_parquet", wrap(tracer, write, "curate.write")),
    ]
