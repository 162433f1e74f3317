"""``clean_lines`` / ``scrub_pii`` against their earlier pandas bodies.

The package runs both as one Python pass per document. The pandas
``.str`` formulations below (explode to lines, masks, a groupby
re-join; ``str.count`` then ``str.replace`` per PII pattern) are the
definitions they replaced, kept here as the reference: the package's
frames must equal these, dtypes and index included, on generated
inputs that reach the edge cases (nulls, empty and CR-only lines,
Unicode whitespace, non-ASCII digits, PII against punctuation and
back to back)."""

import warnings

import numpy as np
import pandas as pd
from hypothesis import example, given, settings, strategies as st

from vat_abcd_crawler_ray.functions.textstats import (
    _LINE_BLOCKLIST,
    _PII_PATTERNS,
    _TERMINAL,
    _TOKEN,
    clean_lines,
    scrub_pii,
)


def clean_lines_reference(texts, min_words=3, require_terminal=True,
                          blocklist=_LINE_BLOCKLIST):
    lines = texts.fillna("").str.split("\n").explode()
    stripped = lines.str.strip()
    keep = stripped.str.count(_TOKEN) >= min_words
    if require_terminal:
        keep &= stripped.str.contains(_TERMINAL)
    low = stripped.str.lower()
    for marker in blocklist:
        keep &= ~low.str.contains(marker, regex=False)
    kept = stripped[keep]
    joined = kept.groupby(level=0).agg("\n".join)
    out = pd.DataFrame(index=texts.index)
    out["text"] = joined.reindex(texts.index, fill_value="")
    out["n_lines"] = stripped.groupby(level=0).size().reindex(
        texts.index, fill_value=0
    ).astype(np.int64)
    out["n_kept"] = keep.groupby(level=0).sum().reindex(
        texts.index, fill_value=0
    ).astype(np.int64)
    return out


def scrub_pii_reference(texts):
    out = pd.DataFrame(index=texts.index)
    scrubbed = texts
    with warnings.catch_warnings():  # fillna's object downcast notice
        warnings.simplefilter("ignore", FutureWarning)
        for name, pat in _PII_PATTERNS:
            out[f"n_{name.lower()}"] = (
                scrubbed.str.count(pat).fillna(0).astype(np.int64)
            )
            scrubbed = scrubbed.str.replace(pat, f"<{name}>", regex=True)
    out.insert(0, "text", scrubbed)
    return out


# Fragments that reach every branch: line breaks of each kind, Unicode
# whitespace str.strip() and \s both know (\x85,  , \x1c), a
# non-ASCII digit, terminal marks, blocklist markers, and PII of every
# pattern with punctuation around it.
_FRAGMENTS = [
    "\n", "\r\n", "\r", " ", "\t", "\x85", " ", "\x1c", "　",
    "٣", "7", "42", ".", "!", "?", '"', "”", ",", "(", ")", "-", "+",
    "{", "@", "word", "Three", "short words here", "JavaScript",
    "cookie", "Lorem Ipsum", "a@b.co", "x.y+z@mail.example.org",
    "192.168.1.254", "999.999.1.1", "4111 1111 1111 1111",
    "4111-1111-1111-1111", "DE44 5001 0517 5407 3249 31",
    "+1 (415) 555-0134", "0049 89 123456", "415-555-0134",
    "٣٣٣٣ ٣٣٣٣ ٣٣٣٣ ٣٣٣٣",
]

_texts = st.lists(
    st.one_of(
        st.none(),
        st.lists(
            st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=4)),
            max_size=16,
        ).map("".join),
    ),
    min_size=0, max_size=12,
)

_EDGE = [None, "", "\r\n", "\n\n", " \x85 ", " a b c. ",
         "\x1cOne two three.\x1c", "٣٣ ٣٣٣٣ ٣٣٣٣.",
         "mail a@b.co, now!", "(a@b.co)(c@d.org)", "a@b.coc@d.org",
         "call +49 30 1234 5678.", "4111 1111 1111 11114111 1111 1111 1111",
         "1.2.3.4,5.6.7.8", "javascript is off. Enable it now!"]


def _series(texts):
    # a non-default index: the output must carry the input's index
    return pd.Series(texts, index=np.arange(len(texts)) * 3 + 7,
                     dtype=object)


def _assert_same(got, want):
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    assert got["text"].tolist() == want["text"].tolist()  # None stays None


@settings(max_examples=300, deadline=None)
@given(
    _texts,
    st.integers(0, 4),
    st.booleans(),
    st.sampled_from([_LINE_BLOCKLIST, (), ("word", "."), ("",)]),
)
@example(_EDGE, 3, True, _LINE_BLOCKLIST)
@example(_EDGE, 0, False, ("cookie",))
@example(_EDGE, 1, True, ())
def test_clean_lines_equals_reference(texts, min_words, require_terminal,
                                      blocklist):
    s = _series(texts)
    kw = dict(min_words=min_words, require_terminal=require_terminal,
              blocklist=blocklist)
    _assert_same(clean_lines(s, **kw), clean_lines_reference(s, **kw))


@settings(max_examples=300, deadline=None)
@given(_texts)
@example(_EDGE)
@example([None, None])
def test_scrub_pii_equals_reference(texts):
    s = _series(texts)
    _assert_same(scrub_pii(s), scrub_pii_reference(s))


def test_curate_order_equals_reference():
    """clean then scrub, as ``curate`` chains them."""
    s = _series(_EDGE * 3)
    got = scrub_pii(clean_lines(s, require_terminal=False)["text"])
    want = scrub_pii_reference(
        clean_lines_reference(s, require_terminal=False)["text"]
    )
    _assert_same(got, want)
