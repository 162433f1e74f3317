"""Text analysis for training-data pipelines: token counting, quality
scoring, language-ID heuristic, document fingerprinting.

All are ``map_batches`` bodies over the ``documents`` table (compiled
regexes at module import = once per worker process). Each has
a DuckDB-oracle-equivalent definition where SQL can express it (see
``__ray_entry__.oracle_sql``); the rolling-hash fingerprint is the
documented non-SQL exception.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

# \S+ runs — matches DuckDB regexp_extract_all(text, '\S+')
_TOKEN = re.compile(r"\S+")
# lowercase word runs — matches regexp_extract_all(lower(text), '[a-z]+')
_WORD = re.compile(r"[a-z]+")
# ASCII punctuation [!-/:-@[-`{-~]
_PUNCT = re.compile(r"[!-/:-@\[-`{-~]")
# BPE-ish piece splitter: word runs, digit runs, single punctuation —
# the GPT-2-style pre-tokenizer shape (public pattern), ASCII-simplified
_BPEISH = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]")

STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the and of to a in is that it for on with as at by".split()),
    "de": frozenset("der die das und ist nicht ein eine mit von zu im den".split()),
    "fr": frozenset("le la les et de des un une est dans pour que sur au".split()),
}
_LANG_ORDER = ["en", "de", "fr"]  # tie precedence, fixed


_WS_RUN = re.compile(r"[ \t\r\n]+")


def normalize_text(texts: pd.Series) -> pd.Series:
    """Canonical text cleaning for dedup/training prep: collapse
    whitespace runs to single spaces, strip, lowercase. Vectorized
    pandas ``.str`` ops; SQL-identical (DuckDB
    ``lower(trim(regexp_replace(...)))`` — verified incl. Unicode)."""
    return texts.str.replace(_WS_RUN, " ", regex=True).str.strip(" ").str.lower()


def token_count(texts: pd.Series) -> np.ndarray:
    """Whitespace tokens per text (= DuckDB
    ``length(regexp_extract_all(text, '\\S+'))``)."""
    return texts.str.count(_TOKEN).to_numpy(dtype=np.int64)


def bpeish_token_count(texts: pd.Series) -> np.ndarray:
    """Sub-word-ish piece count (word runs + digit runs + punct marks)."""
    return texts.str.count(_BPEISH).to_numpy(dtype=np.int64)


def quality_features(texts: pd.Series) -> pd.DataFrame:
    """(n_chars, n_tokens, punct_ratio, stop_ratio, quality_score).

    quality_score ∈ [0,1]: length band × low punctuation × stopword
    presence — the classic cheap web-text quality gates (length /
    punctuation / stopword-ratio heuristics)."""
    n_chars = texts.str.len().to_numpy(dtype=np.int64)
    n_tokens = token_count(texts)
    n_punct = texts.str.count(_PUNCT).to_numpy(dtype=np.int64)
    words = texts.str.lower().str.findall(_WORD)
    n_words = words.str.len().to_numpy(dtype=np.int64)
    stop_en = STOPWORDS["en"]
    n_stop = np.fromiter(
        (sum(w in stop_en for w in ws) for ws in words),
        dtype=np.int64,
        count=len(words),
    )
    punct_ratio = n_punct / np.maximum(1, n_chars)
    stop_ratio = n_stop / np.maximum(1, n_words)
    length_ok = ((n_tokens >= 5) & (n_tokens <= 100000)).astype(np.float64)
    quality = length_ok * (1.0 - np.minimum(1.0, 4.0 * punct_ratio)) * np.minimum(
        1.0, 4.0 * stop_ratio
    )
    return pd.DataFrame(
        {
            "n_chars": n_chars,
            "n_tokens": n_tokens,
            "punct_ratio": punct_ratio,
            "stop_ratio": stop_ratio,
            "quality_score": quality,
        }
    )


def langid(texts: pd.Series) -> list[str]:
    """Stopword-vote language ID over {en, de, fr}; ties resolve in
    fixed precedence order (deterministic, SQL-expressible)."""
    words = texts.str.lower().str.findall(_WORD)
    out = []
    sets = [(lang, STOPWORDS[lang]) for lang in _LANG_ORDER]
    for ws in words:
        best_lang, best = _LANG_ORDER[0], -1
        for lang, sw in sets:
            c = sum(w in sw for w in ws)
            if c > best:
                best_lang, best = lang, c
        out.append(best_lang)
    return out


# Rolling-hash fingerprint parameters: Mersenne prime modulus keeps
# every intermediate inside int64 on BOTH sides (numpy here, BIGINT in
# the DuckDB oracle — uint64-wraparound hashes are not SQL-expressible,
# which is why round 1's FNV variant had no oracle).
_FP_P = 2147483647  # 2^31 - 1
_FP_B = 1000003  # token-chain base
_FP_CB = 257  # char-chain base

_FP_POWS: dict[int, np.ndarray] = {}
_TOK_FP_CACHE: dict[str, int] = {}


def _fp_powers(base: int, n: int) -> np.ndarray:
    """[base^0, …, base^(n-1)] mod P, grown on demand and cached."""
    pw = _FP_POWS.get(base)
    if pw is None or len(pw) < n:
        size = max(n, 1024 if pw is None else 2 * len(pw))
        out = np.empty(size, dtype=np.int64)
        out[0] = 1
        for i in range(1, size):
            out[i] = (out[i - 1] * base) % _FP_P
        _FP_POWS[base] = pw = out
    return pw


def _poly_fold(vals: np.ndarray, base: int) -> int:
    """fold(a, x → (a*base + x) mod P) over ``vals`` starting at 0 —
    evaluated vectorized as Σ vals[j]·base^(m-1-j) mod P."""
    m = len(vals)
    if m == 0:
        return 0
    pw = _fp_powers(base, m)[:m][::-1]
    return int((vals * pw % _FP_P).sum() % _FP_P)


def _tok_fp(tok: str) -> int:
    h = _TOK_FP_CACHE.get(tok)
    if h is None:
        cp = np.frombuffer(tok.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
        h = _poly_fold(cp, _FP_CB)
        if len(_TOK_FP_CACHE) > 1_000_000:  # bound worker memory
            _TOK_FP_CACHE.clear()
        _TOK_FP_CACHE[tok] = h
    return h


def fingerprint(texts: pd.Series) -> np.ndarray:
    """Order-sensitive rolling document fingerprint: each whitespace
    token is char-chain hashed (base 257 mod 2^31-1, Unicode code
    points), then the token hashes are chained (base 1000003 mod
    2^31-1). Whitespace-amount-insensitive, order-sensitive,
    process-independent. Exactly reproducible in SQL via nested
    ``list_reduce`` (see ``__ray_entry__.oracle_sql['q_fingerprint']``).
    Vectorized: code points via utf-32 reinterpret, folds via
    power-vector dot products; distinct-token cache across batches."""
    out = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        toks = _TOKEN.findall(t)
        v = np.fromiter((_tok_fp(tok) for tok in toks), dtype=np.int64,
                        count=len(toks))
        out[i] = _poly_fold(v, _FP_B)
    return out


# -- PII scrubbing (C4/RefinedWeb-style curation stage) ---------------------
# Conservative pattern set: emails, international-ish phone numbers,
# IPv4 addresses, IBAN-shaped strings, 13-19 digit card-like runs.
# Replacement tokens are stable so scrubbed text stays dedup-friendly
# (two docs equal up to PII remain equal after scrubbing).

_PII_PATTERNS: list[tuple[str, re.Pattern]] = [
    ("EMAIL", re.compile(
        r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b")),
    ("IP", re.compile(
        r"\b(?:(?:25[0-5]|2[0-4]\d|1?\d?\d)\.){3}"
        r"(?:25[0-5]|2[0-4]\d|1?\d?\d)\b")),
    ("IBAN", re.compile(r"\b[A-Z]{2}\d{2}(?: ?[A-Z0-9]{4}){3,7}\b")),
    # card-like: 13-19 digits with optional single spaces/dashes,
    # grouped — ordered before PHONE so it wins on long digit runs
    ("CARD", re.compile(r"\b\d{4}(?:[ -]?\d{4}){2,3}\b")),
    ("PHONE", re.compile(
        r"(?<![\w.])\+?\d{1,3}[ -.]?\(?\d{2,4}\)?(?:[ -.]?\d{2,4}){2,4}"
        r"(?![\w.])")),
]


# Every pattern needs an "@" (EMAIL) or a ``\d`` match (the rest), and
# no replacement token contains either: a text without both is clean.
_PII_HINT = re.compile(r"[@\d]")


def scrub_pii(texts: pd.Series) -> pd.DataFrame:
    """Redact PII spans with stable ``<TYPE>`` tokens. Returns a frame
    with ``text`` (scrubbed) and one ``n_<type>`` count column per
    pattern — counts feed quality filters (a page that is mostly
    phone numbers is a directory, not prose). Patterns apply in
    ``_PII_PATTERNS`` order, each as one ``subn`` per document (text
    and count in one pass); a document with no ``"@"`` and no digit
    skips the pattern loop. Nulls stay null with zero counts."""
    counts = np.zeros((len(_PII_PATTERNS), len(texts)), dtype=np.int64)
    repls = [f"<{name}>" for name, _ in _PII_PATTERNS]
    scrubbed = []
    for i, t in enumerate(texts):
        if isinstance(t, str) and _PII_HINT.search(t):
            for j, (_, pat) in enumerate(_PII_PATTERNS):
                t, counts[j, i] = pat.subn(repls[j], t)
        scrubbed.append(t)
    out = pd.DataFrame({"text": scrubbed}, index=texts.index, dtype=object)
    for j, (name, _) in enumerate(_PII_PATTERNS):
        out[f"n_{name.lower()}"] = counts[j]
    return out


# -- line-level cleaning (C4-style heuristics, Raffel et al. 2020) ----------

_TERMINAL = re.compile(r'[.!?"”]\s*$')
_LINE_BLOCKLIST = ("javascript", "lorem ipsum", "cookie", "{")


def clean_lines(
    texts: pd.Series,
    min_words: int = 3,
    require_terminal: bool = True,
    blocklist: tuple = _LINE_BLOCKLIST,
) -> pd.DataFrame:
    """C4-style line filtering: keep lines with at least ``min_words``
    words that end in terminal punctuation and contain no blocklisted
    marker (nav bars, cookie banners, code fragments). Returns
    ``text`` (kept lines, stripped, re-joined with ``"\\n"``) +
    ``n_lines`` / ``n_kept`` counts for page-level filtering downstream
    (C4 drops pages with too few surviving sentences). One Python pass
    per document: split on ``"\\n"``, strip, count words, test the
    terminal mark and the blocklist. A null document is one empty
    line."""
    kept_text = []
    n_lines = np.empty(len(texts), dtype=np.int64)
    n_kept = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        lines = t.split("\n") if isinstance(t, str) else [""]
        kept = []
        for line in lines:
            s = line.strip()
            # str.split() breaks on exactly the characters re's \s
            # matches, so this counts the _TOKEN (\S+) runs
            if len(s.split()) < min_words:
                continue
            if require_terminal and not _TERMINAL.search(s):
                continue
            low = s.lower()
            if any(marker in low for marker in blocklist):
                continue
            kept.append(s)
        kept_text.append("\n".join(kept))
        n_lines[i] = len(lines)
        n_kept[i] = len(kept)
    return pd.DataFrame(
        {"text": np.array(kept_text, dtype=object), "n_lines": n_lines,
         "n_kept": n_kept},
        index=texts.index,
    )


# -- repetition signals (Gopher rules, Rae et al. 2021) ---------------------


def repetition_features(texts: pd.Series) -> pd.DataFrame:
    """Per-doc repetition signals from the Gopher quality rules:
    ``dup_line_frac`` (lines seen before within the doc),
    ``dup_line_char_frac`` (characters in those repeat occurrences),
    ``top_bigram_char_frac`` (characters covered by the most common
    word 2-gram). Pages failing these are boilerplate/spam-shaped
    (Gopher drops dup_line_frac > 0.3, top-2-gram frac > 0.2).
    Vectorized via explode + groupby — cumcount marks repeat line
    occurrences, groupby-shift builds bigrams without a per-doc loop."""
    t = texts.fillna("")
    out = pd.DataFrame(index=t.index)

    lines = t.str.split("\n").explode().str.strip()
    lines = lines[lines.str.len() > 0]
    n_lines = lines.groupby(level=0).size()
    # occurrence rank of each (doc, line): rank > 0 = a repeat
    occ = lines.groupby([lines.index, lines]).cumcount()
    rep = occ > 0
    n_rep = rep.groupby(level=0).sum()
    line_chars = lines.str.len()
    tot_chars = line_chars.groupby(level=0).sum()
    rep_chars = line_chars[rep.to_numpy()].groupby(level=0).sum()
    out["dup_line_frac"] = (
        (n_rep / n_lines).reindex(t.index).fillna(0.0)
    )
    out["dup_line_char_frac"] = (
        (rep_chars.reindex(n_lines.index, fill_value=0) / tot_chars)
        .reindex(t.index)
        .fillna(0.0)
    )

    words = t.str.lower().str.findall(_WORD).explode().dropna()
    nxt = words.groupby(level=0).shift(-1)
    bigrams = (words + " " + nxt).dropna()
    if len(bigrams):
        counts = bigrams.groupby([bigrams.index, bigrams]).size()
        top_idx = counts.groupby(level=0).idxmax()
        top_count = counts.groupby(level=0).max()
        top_len = pd.Series(
            [len(b) for _, b in top_idx], index=top_count.index
        )
        word_chars = words.str.len().groupby(level=0).sum() + np.maximum(
            0, words.groupby(level=0).size() - 1
        )  # + separating spaces, matching the bigram's "a b" length
        frac = (top_count * top_len / word_chars).clip(upper=1.0)
        out["top_bigram_char_frac"] = frac.reindex(t.index).fillna(0.0)
    else:
        out["top_bigram_char_frac"] = 0.0
    return out
