"""Byte-level language-model perplexity scoring — the CCNet-style
quality signal (Wenzek et al. 2020 filter web text by LM perplexity
against a clean reference corpus; C4's successors all carry some form
of it). A full KenLM is out of scope without external deps; a
byte-bigram model with add-alpha smoothing is the library-free tier:
256x256 counts, so the whole model is a 512 KB float64 matrix that
broadcasts to every scoring task — and it already separates natural
prose from markup soup, base64 blobs and repeated-character spam.

Scale shape: training is one ``map_batches`` of per-block count
matrices + a driver sum of fixed-size (256, 256) partials (state size
independent of corpus size); scoring is a shuffle-free ``map_batches``
with the log-prob matrix in the closure via ``ray.put``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_BOS = 0  # byte 0 is the start-of-text context; NULs are stripped from docs


def _doc_bytes(texts: pd.Series) -> list[bytes]:
    """Each doc's utf-8 bytes with NUL bytes stripped — a NUL inside a
    doc would otherwise read as a BOS, i.e. a document boundary."""
    return [t.encode("utf-8", "ignore").replace(b"\0", b"") for t in texts.fillna("")]


def count_byte_bigrams(texts: pd.Series) -> np.ndarray:
    """(256, 256) bigram counts over the utf-8 bytes of ``texts``
    (BOS context prepended per doc). One concatenated buffer + one
    bincount — no per-doc loop."""
    counts = np.zeros(256 * 256, dtype=np.int64)
    bufs = [bytes([_BOS]) + b for b in _doc_bytes(texts) if b]
    if bufs:
        arr = np.frombuffer(b"".join(bufs), dtype=np.uint8).astype(np.int64)
        # drop the pair that spans two docs' concatenation boundary:
        # pairs ENDING at a BOS byte are cross-doc artifacts
        pairs = arr[:-1] * 256 + arr[1:]
        keep = arr[1:] != _BOS
        counts = np.bincount(pairs[keep], minlength=256 * 256)
    return counts.reshape(256, 256)


def bigram_logprob(counts: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Counts → add-alpha-smoothed conditional log2 P(b | prev)."""
    c = counts.astype(np.float64) + alpha
    return np.log2(c / c.sum(axis=1, keepdims=True))


def train_byte_lm(docs, text_col: str = "text", alpha: float = 0.5):
    """Train the bigram model over a (reference) corpus Dataset:
    per-block count matrices, summed on the driver (fixed 512 KB per
    block regardless of corpus size). Returns the log-prob matrix."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"counts": [count_byte_bigrams(df[text_col]).reshape(-1)]}
        )

    parts = docs.map_batches(partial, batch_format="pandas").to_pandas()
    total = np.zeros(256 * 256, dtype=np.int64)
    for c in parts["counts"]:
        total += np.asarray(c, dtype=np.int64)
    return bigram_logprob(total.reshape(256, 256), alpha)


def perplexity(texts: pd.Series, logprob: np.ndarray) -> np.ndarray:
    """Per-doc byte-level perplexity ``2^(-mean log2 P)`` under the
    trained model (BOS-prefixed; empty docs score NaN). Vectorized:
    one concatenated buffer, one fancy-index, one reduceat."""
    docs = _doc_bytes(texts)
    lens = np.array([len(b) for b in docs], dtype=np.int64)
    out = np.full(len(lens), np.nan)
    nz = lens > 0
    if not nz.any():
        return out
    bufs = [bytes([_BOS]) + b for b in docs if b]
    arr = np.frombuffer(b"".join(bufs), dtype=np.uint8).astype(np.int64)
    pairs_prev = arr[:-1]
    pairs_next = arr[1:]
    keep = pairs_next != _BOS
    lp = logprob[pairs_prev[keep], pairs_next[keep]]
    starts = np.zeros(int(nz.sum()), dtype=np.int64)
    starts[1:] = np.cumsum(lens[nz])[:-1]
    sums = np.add.reduceat(lp, starts)
    out[nz] = 2.0 ** (-(sums / lens[nz]))
    return out


def perplexity_batch(logprob_ref):
    """map_batches factory: broadcast the log-prob matrix once
    (``ray.put``) and score each block — the scoring half of the
    CCNet filter. Appends a ``ppl`` column."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        import ray

        lp = ray.get(logprob_ref)
        out = df.copy()
        out["ppl"] = perplexity(df["text"], lp)
        return out

    return f


def save_lm(logprob: np.ndarray, path: str) -> None:
    """Persist the log-prob matrix (.npy — 512 KB)."""
    np.save(path, logprob)


def load_lm(path: str) -> np.ndarray:
    lp = np.load(path)
    if lp.shape != (256, 256):
        raise ValueError(f"not a byte-bigram LM (shape {lp.shape})")
    return lp
