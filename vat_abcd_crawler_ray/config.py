"""Layered settings (S7, SURVEY §2.1).

Reference semantics (``/root/reference/src/settings.rs:73-86``): defaults
← optional local ``settings.toml`` ← explicit CLI path, later layers
winning per key. Same layering here over TOML (stdlib ``tomllib``), into
a typed dataclass tree.
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, field


@dataclass
class AbcdConfig:
    fields_file: str = ""  # empty → built-in 36-field registry
    landing_page_field: str = (
        "/DataSets/DataSet/Metadata/Description/Representation/URI"
    )
    landingpage_url: str = "https://lp-proxy.example.org/landingpage.php"


@dataclass
class CrawlConfig:
    # max exact (key → surrogate, first_seq) entries the driver-held
    # seen set keeps in RAM before spilling sorted runs to disk under
    # the run dir (0 = unlimited). At 10^10 URLs an in-memory map does
    # not fit; the cuckoo filter answers most probes and only filter
    # positives binary-search the memmapped runs. (The name predates
    # the single set.)
    seen_ram_cap_per_shard: int = 0
    max_rounds: int = 64
    default_host_budget: int = 8  # max fetches per host per round
    link_cap_per_page: int = 64
    batch_size: int = 256  # pages per extract batch (wide binary rows)
    # fetch_mode="http" opener config (stages/fetch.urllib_opener_factory)
    http_timeout_s: float = 30.0
    http_user_agent: str = "vat-abcd-crawler-ray/0.3"
    # within-task fetch fan-out across hosts (one host is always
    # sequential) and the inter-request pacing delay per host
    http_fetch_concurrency: int = 8
    http_per_host_delay_s: float = 0.0
    # full seen-set snapshot every K rounds, O(round) deltas between —
    # at 10^10 keys a per-round full rewrite is the IO bottleneck
    snapshot_full_every: int = 8


@dataclass
class OutputConfig:
    dataset_table: str = "datasets"
    unit_table: str = "units"
    translation_table: str = "translation"
    listing_table: str = "listing"


@dataclass
class Settings:
    abcd: AbcdConfig = field(default_factory=AbcdConfig)
    crawl: CrawlConfig = field(default_factory=CrawlConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    debug: bool = False
    dataset_start: int = 0
    dataset_limit: int = 0  # 0 = unlimited; debug window C1 (main.rs:154-169)


def _apply(obj, overrides: dict, prefix: str = "") -> None:
    """Overlay one settings layer; an unknown key is a typo, so it
    raises instead of silently leaving the default in place."""
    for k, v in overrides.items():
        if not hasattr(obj, k):
            raise ValueError(f"unknown setting {prefix + k!r}")
        cur = getattr(obj, k)
        if isinstance(v, dict) and not isinstance(cur, dict):
            _apply(cur, v, f"{prefix}{k}.")
        else:
            setattr(obj, k, v)


def load_settings(path: str | None = None) -> Settings:
    """defaults ← ./settings.toml (if present) ← ``path`` (if given)."""
    s = Settings()
    for layer in ["settings.toml", path]:
        if layer and os.path.exists(layer):
            with open(layer, "rb") as fh:
                _apply(s, tomllib.load(fh))
    return s
