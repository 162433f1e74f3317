"""URL canonicalization + murmur3 key tests (published test vectors)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, strategies as st

from vat_abcd_crawler_ray.functions.urlkeys import (
    canonicalize_url,
    host_of,
    key_urls,
    murmur3_64,
    murmur3_64_batch,
    murmur3_x64_128,
    sanitize_id,
    url_keys_batch,
)


@given(
    st.lists(st.binary(max_size=300), max_size=40),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_murmur3_batch_matches_scalar(items, seed):
    got = murmur3_64_batch(items, seed, chunk=7)  # small chunk: cover splits
    want = np.array([murmur3_64(b, seed) for b in items], dtype=np.int64)
    assert got.tolist() == want.tolist()
    # an Arrow array is hashed from its offsets and data buffers
    for typ in (pa.binary(), pa.large_binary()):
        assert murmur3_64_batch(pa.array(items, typ), seed).tolist() == want.tolist()


def test_murmur3_batch_boundary_lengths():
    items = [b"x" * n for n in (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 4096)]
    got = murmur3_64_batch(items)
    want = [murmur3_64(b) for b in items]
    assert got.tolist() == want


def test_murmur3_published_vectors():
    # mmh3.hash64 convention: signed low 64 bits of x64_128
    assert murmur3_x64_128(b"", 0) == (0, 0)
    assert murmur3_64(b"hello") == -3758069500696749310
    assert (
        murmur3_x64_128(b"The quick brown fox jumps over the lazy dog", 0)[0]
        == 0xE34BBC7BBC071B6C
    )
    # seed changes the hash
    assert murmur3_64(b"hello", seed=1) != murmur3_64(b"hello", seed=0)


@given(st.binary(max_size=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_murmur3_deterministic(data, seed):
    assert murmur3_x64_128(data, seed) == murmur3_x64_128(data, seed)
    h1, h2 = murmur3_x64_128(data, seed)
    assert 0 <= h1 < 2**64 and 0 <= h2 < 2**64


@pytest.mark.parametrize(
    "raw,canon",
    [
        ("HTTPS://Example.COM:443/a/b/#frag", "https://example.com/a/b"),
        ("http://h:80/", "http://h"),
        ("http://h", "http://h"),
        ("http://h/a?b=1#c", "http://h/a?b=1"),
        ("https://h:8443/x/", "https://h:8443/x"),
        ("http://H/A", "http://h/A"),  # path case preserved
    ],
)
def test_canonicalize(raw, canon):
    assert canonicalize_url(raw) == canon
    # idempotent
    assert canonicalize_url(canon) == canon


def test_duplicate_forms_collapse():
    forms = [
        "http://Example.org/path/",
        "http://example.org/path",
        "http://example.org:80/path#sec",
    ]
    assert len({canonicalize_url(u) for u in forms}) == 1


def test_host_of():
    assert host_of("https://Sub.Host:8080/x") == "sub.host:8080"
    assert host_of("not a url") == ""


def test_url_keys_batch():
    urls = [f"http://h{i}.org/p{i}" for i in range(100)]
    keys = url_keys_batch(urls)
    assert keys.dtype == np.int64
    assert len(set(keys.tolist())) == 100
    assert keys[0] == murmur3_64(urls[0])


def test_sanitize_id():
    # main.rs:171-180: keep ascii alpha and '-', else '_'
    assert sanitize_id("abc/DEF:123-x") == "abc_DEF____-x"
    assert sanitize_id("a b") == "a_b"


# url fragments that hit every branch of canonicalize_url: schemes in
# any case (and none), default and other ports, trailing slashes, a
# query, a fragment, newlines and non-ASCII hosts and paths
_URL_PIECES = st.sampled_from([
    "http", "HTTPS", "Ftp", "x+y", "1a", "://", ":/", "/", "//", "?", "#",
    ":80", ":443", ":8080", "H.org", "é", "ÄB", "İ", "q=1&r", "\n", "",
])


@given(
    st.lists(
        st.one_of(st.lists(_URL_PIECES, max_size=10).map("".join), st.text(max_size=30)),
        max_size=30,
    )
)
def test_key_urls_matches_scalar_functions(urls):
    """The Arrow keying is byte-equal to canonicalize_url, host_of and
    murmur3_64, also over a sliced array (a non-zero offset) and a
    large_string one."""
    want = [canonicalize_url(u) for u in urls]
    for arr in (
        pa.array(urls, pa.string()),
        pa.array(["pad"] + urls).slice(1),
        pa.array(urls, pa.large_string()),
    ):
        canon, keys, hosts = key_urls(arr)
        assert canon.to_pylist() == want
        assert hosts.to_pylist() == [host_of(w) for w in want]
        assert keys.tolist() == [murmur3_64(w) for w in want]
