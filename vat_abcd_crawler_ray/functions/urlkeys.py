"""URL canonicalization + MurmurHash3 keys (M5/M6 analogs, SURVEY §7.2).

The reference derives stable identities twice: dataset-id → sanitized
file name (``/root/reference/src/main.rs:171-180``) and field-path →
sha1 column id (``/root/reference/src/storage/field.rs:10-31``). The
web-scale engine generalizes both to **canonical URL → murmur3 64-bit
key**, which drives the seen-set sharding, the frontier partitioning and
dedup (north_star). Murmur3 is implemented from the public algorithm
(Austin Appleby's MurmurHash3, public domain) — x64_128 variant, low
64 bits used as the key, validated against published test vectors.

Everything here is pure (no Ray, no wall-clock, no randomness): batch
helpers operate on Python lists / numpy arrays inside ``map_batches``.
"""

from __future__ import annotations

import re

import numpy as np

_MASK64 = (1 << 64) - 1

_C1 = 0x87C37B91114253D5
_C2 = 0x4CF5AD432745937F


def _rotl64(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _MASK64


def _fmix64(k: int) -> int:
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    k ^= k >> 33
    return k


def murmur3_x64_128(data: bytes, seed: int = 0) -> tuple[int, int]:
    """MurmurHash3 x64_128 (unsigned h1, h2)."""
    length = len(data)
    nblocks = length // 16
    h1 = h2 = seed & _MASK64

    for i in range(nblocks):
        off = i * 16
        k1 = int.from_bytes(data[off : off + 8], "little")
        k2 = int.from_bytes(data[off + 8 : off + 16], "little")

        k1 = (k1 * _C1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & _MASK64
        h1 ^= k1
        h1 = _rotl64(h1, 27)
        h1 = (h1 + h2) & _MASK64
        h1 = (h1 * 5 + 0x52DCE729) & _MASK64

        k2 = (k2 * _C2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & _MASK64
        h2 ^= k2
        h2 = _rotl64(h2, 31)
        h2 = (h2 + h1) & _MASK64
        h2 = (h2 * 5 + 0x38495AB5) & _MASK64

    tail = data[nblocks * 16 :]
    if tail:
        k1 = int.from_bytes(tail[:8], "little")
        k2 = int.from_bytes(tail[8:16], "little")
        if len(tail) > 8:
            k2 = (k2 * _C2) & _MASK64
            k2 = _rotl64(k2, 33)
            k2 = (k2 * _C1) & _MASK64
            h2 ^= k2
        k1 = (k1 * _C1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & _MASK64
        h1 ^= k1

    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    h1 = _fmix64(h1)
    h2 = _fmix64(h2)
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    return h1, h2


def murmur3_64(data: bytes | str, seed: int = 0) -> int:
    """Signed int64 key: low 64 bits (h1) of murmur3 x64_128 — matches
    the common ``mmh3.hash64()[0]`` convention."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h1, _ = murmur3_x64_128(data, seed)
    return h1 - (1 << 64) if h1 >= (1 << 63) else h1


_SCHEME_HOST = re.compile(r"^([a-zA-Z][a-zA-Z0-9+.-]*)://([^/?#]*)(.*)$", re.DOTALL)
_DEFAULT_PORTS = {"http": ":80", "https": ":443"}


def canonicalize_url(url: str) -> str:
    """Deterministic canonical form (T1 key, SURVEY §2.3):

    - strip the fragment (``#...``);
    - lowercase scheme and host;
    - drop the scheme's default port (``:80`` http / ``:443`` https);
    - strip a single trailing ``/`` from the path (so ``https://h/`` ≡
      ``https://h`` and ``https://h/a/`` ≡ ``https://h/a``) unless a
      query string follows.

    Percent-encoding and query-parameter order are preserved verbatim
    (documented non-goals — they change fetch semantics on real sites).
    """
    frag = url.find("#")
    if frag >= 0:
        url = url[:frag]
    m = _SCHEME_HOST.match(url)
    if not m:
        return url.rstrip("/") or url
    scheme, host, rest = m.group(1).lower(), m.group(2).lower(), m.group(3)
    port = _DEFAULT_PORTS.get(scheme)
    if port and host.endswith(port):
        host = host[: -len(port)]
    if "?" not in rest and rest.endswith("/"):
        rest = rest[:-1]  # a SINGLE trailing slash, per the contract above
    return f"{scheme}://{host}{rest}"


def host_of(url: str) -> str:
    """Host (lowercased, port kept after canonicalization drops defaults)."""
    m = _SCHEME_HOST.match(url)
    return m.group(2).lower() if m else ""


# ---- batch (map_batches-friendly) helpers ------------------------------


def canonicalize_batch(urls) -> list[str]:
    return [canonicalize_url(u) for u in urls]


_U64_C1 = np.uint64(_C1)
_U64_C2 = np.uint64(_C2)
_FMIX1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX2 = np.uint64(0xC4CEB9FE1A85EC53)


def _rotl64_vec(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _fmix64_vec(k: np.ndarray) -> np.ndarray:
    k = k ^ (k >> np.uint64(33))
    k = k * _FMIX1
    k = k ^ (k >> np.uint64(33))
    k = k * _FMIX2
    return k ^ (k >> np.uint64(33))


def _m3_chunk(blobs: list[bytes], lens: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized murmur3_x64_128 h1 for one padded chunk (uint64)."""
    m = len(blobs)
    maxlen = int(lens.max()) if m else 0
    # pad to a 16-byte multiple PLUS one spare zero block so the tail
    # words can always be read as zero-padded uint64s
    padlen = ((maxlen + 15) // 16) * 16 + 16
    buf = np.zeros((m, padlen), dtype=np.uint8)
    flat = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    starts = np.cumsum(lens) - lens
    buf[np.repeat(np.arange(m), lens), np.arange(len(flat)) - np.repeat(starts, lens)] = flat
    words = buf.view(np.uint64)  # (m, padlen//8), little-endian reads

    h1 = np.full(m, seed, dtype=np.uint64)
    h2 = np.full(m, seed, dtype=np.uint64)
    nblocks = (lens // 16).astype(np.int64)
    for j in range(int(nblocks.max()) if m else 0):
        active = nblocks > j
        k1 = words[:, 2 * j] * _U64_C1
        k1 = _rotl64_vec(k1, 31) * _U64_C2
        n1 = h1 ^ k1
        n1 = _rotl64_vec(n1, 27) + h2
        n1 = n1 * np.uint64(5) + np.uint64(0x52DCE729)
        k2 = words[:, 2 * j + 1] * _U64_C2
        k2 = _rotl64_vec(k2, 33) * _U64_C1
        n2 = h2 ^ k2
        n2 = _rotl64_vec(n2, 31) + n1
        n2 = n2 * np.uint64(5) + np.uint64(0x38495AB5)
        h1 = np.where(active, n1, h1)
        h2 = np.where(active, n2, h2)

    # tail (zero-padded reads are exactly the scalar's partial ints)
    tail_len = (lens - nblocks * 16).astype(np.int64)
    rows = np.arange(m)
    k1t = words[rows, 2 * nblocks]
    k2t = words[rows, 2 * nblocks + 1]
    k2t = k2t * _U64_C2
    k2t = _rotl64_vec(k2t, 33) * _U64_C1
    h2 = np.where(tail_len > 8, h2 ^ k2t, h2)
    k1t = k1t * _U64_C1
    k1t = _rotl64_vec(k1t, 31) * _U64_C2
    h1 = np.where(tail_len > 0, h1 ^ k1t, h1)

    h1 = h1 ^ lens.astype(np.uint64)
    h2 = h2 ^ lens.astype(np.uint64)
    h1 = h1 + h2
    h2 = h2 + h1
    h1 = _fmix64_vec(h1)
    h2 = _fmix64_vec(h2)
    h1 = h1 + h2
    return h1.view(np.int64)


def murmur3_64_batch(items, seed: int = 0, chunk: int = 512) -> np.ndarray:
    """Vectorized :func:`murmur3_64` over a sequence of str/bytes —
    identical output, numpy block arithmetic instead of per-key Python
    bytecode (the round-1 frontier-keying hot spot). Items are
    length-sorted and processed in chunks so padding waste stays
    bounded when lengths vary wildly (URL lists vs whole documents)."""
    n = len(items)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    data = [s.encode("utf-8") if isinstance(s, str) else s for s in items]
    lens = np.fromiter((len(b) for b in data), dtype=np.int64, count=n)
    order = np.argsort(lens, kind="stable")
    # chunk by row count AND padded bytes: hashing long strings must
    # not allocate a rows × max-length pad buffer — cap each chunk's
    # buffer at ~32 MB
    max_bytes = 32 << 20
    c0 = 0
    while c0 < n:
        c1 = min(c0 + chunk, n)
        # lens are ascending along `order`; the last element bounds all
        row_pad = int(lens[order[c1 - 1]]) + 32
        if row_pad * (c1 - c0) > max_bytes:
            c1 = c0 + max(1, max_bytes // row_pad)
        idx = order[c0:c1]
        out[idx] = _m3_chunk([data[i] for i in idx], lens[idx], seed)
        c0 = c1
    return out


def url_keys_batch(urls, seed: int = 0) -> np.ndarray:
    """int64 murmur3 keys for already-canonical URLs."""
    return murmur3_64_batch(list(urls), seed)


def hosts_batch(urls) -> list[str]:
    return [host_of(u) for u in urls]


def sanitize_id(dataset_id: str) -> str:
    """Reference file-name sanitization (M5,
    ``/root/reference/src/main.rs:171-180``): keep ``[a-zA-Z-]``, replace
    everything else with ``_``."""
    return "".join(c if (c.isascii() and c.isalpha()) or c == "-" else "_" for c in dataset_id)


# ---- URL hygiene beyond the canonical key ------------------------------

# tracking parameters every major pipeline strips (public lists:
# utm_* from Google Analytics, click ids from ad platforms)
_TRACKING_EXACT = frozenset((
    "gclid", "fbclid", "msclkid", "dclid", "twclid", "igshid",
    "mc_cid", "mc_eid", "ref_src", "spm", "yclid",
))
_TRACKING_PREFIX = ("utm_",)


def strip_tracking_params(url: str) -> str:
    """Remove tracking query parameters (utm_*, click ids) — they
    explode the URL-seen space with fetch-identical variants. Param
    ORDER of the survivors is preserved (canonicalize_url's documented
    non-goal stands: this removes parameters, it never reorders).
    Empty surviving query drops the '?'."""
    q = url.find("?")
    if q < 0:
        return url
    frag = ""
    rest = url[q + 1 :]
    f = rest.find("#")
    if f >= 0:
        frag = rest[f:]
        rest = rest[:f]
    kept = []
    for part in rest.split("&"):
        name = part.partition("=")[0].lower()
        if name in _TRACKING_EXACT or name.startswith(_TRACKING_PREFIX):
            continue
        kept.append(part)
    base = url[:q]
    return (base + "?" + "&".join(kept) if kept else base) + frag
