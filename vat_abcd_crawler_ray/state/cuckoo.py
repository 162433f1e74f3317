"""Cuckoo filter — approximate membership for the URL-seen set.

The scale layer of the seen-set (north_star: "sharded cuckoo-filter
URL-seen set"): at 10^10 URLs an exact per-shard hash map does not fit
in actor memory, so membership is answered by a cuckoo filter
(~2 bytes/key at 95% load) with NO false negatives; the exact
(key → surrogate, first_seq) map is only consulted on filter positives
and spills to sorted memmapped runs on disk past a RAM cap
(``seen_set._Run`` — binary-search probes touch O(log n) pages). Implemented from the
published algorithm (Fan et al., "Cuckoo Filter: Practically Better
Than Bloom", CoNEXT 2014): 4-slot buckets, 16-bit fingerprints,
partial-key cuckoo hashing with bounded eviction kicks.

numpy-backed: ``contains``/lookup is fully vectorized (the hot path —
every discovered link probes it); ``add`` places every key whose
primary bucket has room in one numpy pass and loops only over the rest,
with a deterministic eviction choice (no randomness — eviction slot =
kick counter % slots, preserving run-to-run determinism).
"""

from __future__ import annotations

import numpy as np

_FP_SEED = np.uint64(0x9E3779B97F4A7C15)
MAX_KICKS = 500


def _split(keys: np.ndarray, nbuckets: int) -> tuple[np.ndarray, np.ndarray]:
    """(fingerprint, primary bucket) per key. fp ∈ [1, 2^16-1] (0 = empty)."""
    u = keys.astype(np.int64).view(np.uint64)
    fp = ((u >> np.uint64(48)) ^ (u >> np.uint64(32))).astype(np.uint16)
    fp = np.where(fp == 0, np.uint16(1), fp)
    i1 = (u % np.uint64(nbuckets)).astype(np.int64)
    return fp, i1


def _alt_bucket(i: np.ndarray, fp: np.ndarray, nbuckets: int) -> np.ndarray:
    """Partial-key alternate bucket: i ^ hash(fp) mod nbuckets."""
    h = (fp.astype(np.uint64) * _FP_SEED) >> np.uint64(32)
    return ((i.astype(np.uint64) ^ h) % np.uint64(nbuckets)).astype(np.int64)


class CuckooFilter:
    def __init__(self, capacity: int, slots_per_bucket: int = 4):
        nbuckets = max(8, int(1 << int(np.ceil(np.log2(capacity / slots_per_bucket + 1)))))
        self.nbuckets = nbuckets
        self.slots = slots_per_bucket
        self.table = np.zeros((nbuckets, slots_per_bucket), dtype=np.uint16)
        self.count = 0

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership probe — no false negatives."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        fp, i1 = _split(np.asarray(keys, dtype=np.int64), self.nbuckets)
        i2 = _alt_bucket(i1, fp, self.nbuckets)
        fpc = fp[:, None]
        return ((self.table[i1] == fpc).any(axis=1)) | (
            (self.table[i2] == fpc).any(axis=1)
        )

    def add(self, keys: np.ndarray) -> int:
        """Insert keys (idempotence NOT checked — callers pre-filter with
        ``contains``). Returns number inserted; raises on overflow (the
        failed insert has dropped one kicked fingerprint, so the caller
        must rebuild — see :meth:`doubled`)."""
        keys = np.asarray(keys, dtype=np.int64)
        if not len(keys):
            return 0
        fps, i1s = _split(keys, self.nbuckets)
        # one numpy pass: in key order, the r-th key of a primary bucket
        # takes that bucket's r-th free slot, if it has one
        order = np.lexsort((keys, i1s))
        b = i1s[order]
        rank = np.arange(len(b)) - np.searchsorted(b, b)  # b is sorted
        free = self.table[b] == 0
        nth_free = np.cumsum(free, axis=1, dtype=np.int8) == (rank + 1)[:, None]
        fits = nth_free.any(axis=1)
        self.table[b[fits], nth_free[fits].argmax(axis=1)] = fps[order[fits]]
        self.count += int(fits.sum())
        rest = order[~fits]
        i2s = _alt_bucket(i1s[rest], fps[rest], self.nbuckets)
        for fp, i1, i2 in zip(fps[rest], i1s[rest], i2s):
            if not self._insert_one(int(fp), int(i1), int(i2)):
                raise RuntimeError(
                    f"cuckoo filter overflow at {self.count}/{self.nbuckets * self.slots}"
                )
            self.count += 1
        return len(keys)

    def _insert_one(self, fp: int, i1: int, i2: int) -> bool:
        for b in (i1, i2):
            row = self.table[b]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                return True
        b = i1
        for kick in range(MAX_KICKS):
            slot = kick % self.slots
            fp, self.table[b, slot] = int(self.table[b, slot]), fp
            b = int(
                _alt_bucket(
                    np.array([b], dtype=np.int64), np.array([fp], dtype=np.uint16), self.nbuckets
                )[0]
            )
            row = self.table[b]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                return True
        return False

    @property
    def load_factor(self) -> float:
        return self.count / (self.nbuckets * self.slots)

    # snapshot/restore for per-round checkpointing (resume path)
    def state(self) -> dict:
        return {"table": self.table.copy(), "count": self.count, "slots": self.slots}

    def doubled(self, keys: np.ndarray) -> "CuckooFilter":
        """A new filter with twice the buckets holding exactly ``keys``
        — the overflow path: the caller passes every key the filter
        must answer for. Doubles again if even that overflows."""
        nbuckets = 2 * self.nbuckets
        while True:
            f = CuckooFilter.from_state(
                {
                    "table": np.zeros((nbuckets, self.slots), dtype=np.uint16),
                    "count": 0,
                    "slots": self.slots,
                }
            )
            try:
                f.add(keys)
                return f
            except RuntimeError:
                nbuckets *= 2

    @classmethod
    def from_state(cls, st: dict) -> "CuckooFilter":
        f = cls.__new__(cls)
        f.table = st["table"].copy()
        f.nbuckets = f.table.shape[0]
        f.slots = st["slots"]
        f.count = st["count"]
        return f
