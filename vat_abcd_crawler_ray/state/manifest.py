"""Lineage manifest + atomic publish (W5/C3/S4 analogs, SURVEY §2.6-2.7).

The reference publishes atomically by renaming temp→prod tables inside a
serializable transaction (``/root/reference/src/storage/database_sink.rs:258-284``)
and keeps a ZIP cache for per-item recovery (``src/main.rs:262-266``).
The Parquet equivalent:

- the crawl commits a GROUP of rounds: once its outputs are under
  ``<run_dir>/staging/...``, ONE entry ``rounds/round_<L>.json`` (L =
  the group's last round, carrying the earlier rounds' infos) appears
  by an atomic, fsynced ``os.replace`` — the C3 all-or-nothing commit
  flag;
- ``finalize()`` writes ``MANIFEST.json`` with one atomic rename — the
  single publish point readers trust (a crashed run leaves the previous
  manifest untouched, like prod tables during a crashed harvest);
- ``last_complete_round()`` drives resume: a restarted run replays
  from the round after the last committed group, restoring the seen-set
  from the snapshot chain instead of rebuilding from scratch.
"""

from __future__ import annotations

import json
import os
from typing import Any


def _write_atomic(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class RunManifest:
    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.staging = os.path.join(run_dir, "staging")
        self.rounds_dir = os.path.join(self.staging, "rounds")
        os.makedirs(self.rounds_dir, exist_ok=True)

    # -- per-group lineage ------------------------------------------------
    def round_path(self, rnd: int) -> str:
        return os.path.join(self.rounds_dir, f"round_{rnd:05d}.json")

    def commit_round(self, rnd: int, info: dict[str, Any], earlier: list = ()) -> None:
        """All-or-nothing commit of the group ending at round ``rnd``
        (``earlier``: the infos of its rounds before ``rnd``): the entry
        appears only after every output in ``info`` is fully written."""
        first = rnd - len(earlier)
        group = [
            {"round": first + i, "status": "complete", **e} for i, e in enumerate(earlier)
        ]
        _write_atomic(
            self.round_path(rnd),
            {"round": rnd, "status": "complete", **info, "group_rounds": group},
        )

    def _group_ends(self) -> list[int]:
        return sorted(
            int(name[6:11])
            for name in os.listdir(self.rounds_dir)
            if name.startswith("round_") and name.endswith(".json")
        )

    def round_infos(self) -> list[dict[str, Any]]:
        """Every committed round's info, in round order."""
        infos = []
        for end in self._group_ends():
            with open(self.round_path(end)) as fh:
                entry = json.load(fh)
            infos += entry.pop("group_rounds", []) + [entry]
        return infos

    def round_info(self, rnd: int) -> dict[str, Any] | None:
        return next((i for i in self.round_infos() if i["round"] == rnd), None)

    def last_complete_round(self) -> int:
        """Last round of the last committed group, or -1."""
        ends = self._group_ends()
        return ends[-1] if ends else -1

    # -- atomic publish ----------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.run_dir, "MANIFEST.json")

    def finalize(self, tables: dict[str, str], metrics: dict[str, Any]) -> None:
        _write_atomic(
            self.manifest_path,
            {
                "status": "published",
                "tables": tables,
                "metrics": metrics,
                "rounds": self.round_infos(),
            },
        )

    def published(self) -> dict[str, Any] | None:
        if not os.path.exists(self.manifest_path):
            return None
        with open(self.manifest_path) as fh:
            return json.load(fh)
