"""Hypothesis property tests over the codec and curation invariants —
the contracts the example-based suites pin at single points, checked
across generated input spaces. Deadlines off: media encodes are
slow-ish per example and CI noise must not flake the suite."""

import numpy as np
import pandas as pd
from hypothesis import given, settings, strategies as st

from vat_abcd_crawler_ray.functions.codecs import (
    decode_bmp,
    decode_gif,
    decode_jpeg,
    decode_png,
    decode_wav,
    encode_bmp,
    encode_gif,
    encode_jpeg,
    encode_png,
    encode_wav,
    encode_wav_adpcm,
    mulaw_compress,
    mulaw_expand,
)
from vat_abcd_crawler_ray.ops.packing import pack_rows
from vat_abcd_crawler_ray.ops.sampling import key01

_dims = st.tuples(st.integers(1, 24), st.integers(1, 24))


@st.composite
def _images(draw, max_colors=None):
    h, w = draw(_dims)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if max_colors:
        # a true palette of <= max_colors COLORS (not per-channel
        # values — 8 values/channel is up to 512 distinct colors)
        pal = rng.integers(0, 256, (max_colors, 3), dtype=np.uint8)
        img = pal[rng.integers(0, max_colors, (h, w))]
    else:
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    return img


class TestLosslessCodecs:
    """PNG / BMP / GIF are LOSSLESS for in-gamut content: decode must
    invert encode bit-for-bit on arbitrary images."""

    @settings(max_examples=40, deadline=None)
    @given(_images(), st.integers(0, 4))
    def test_png_roundtrip(self, img, filt):
        assert (decode_png(encode_png(img, filter_type=filt)) == img).all()

    @settings(max_examples=40, deadline=None)
    @given(_images())
    def test_bmp_roundtrip(self, img):
        assert (decode_bmp(encode_bmp(img)) == img).all()

    @settings(max_examples=30, deadline=None)
    @given(_images(max_colors=8), st.booleans())
    def test_gif_roundtrip(self, img, interlace):
        assert (decode_gif(encode_gif(img, interlace=interlace)) == img).all()


class TestLossyCodecs:
    """JPEG/ADPCM are lossy but BOUNDED: shape preserved, error within
    the codec's quantization envelope."""

    @settings(max_examples=25, deadline=None)
    @given(_images(), st.sampled_from([70, 90, 100]),
           st.sampled_from(["444", "420"]))
    def test_jpeg_shape_and_range(self, img, q, sub):
        out = decode_jpeg(encode_jpeg(img, quality=q, subsampling=sub))
        assert out.shape == img.shape and out.dtype == np.uint8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(16, 2000))
    def test_adpcm_bounded_error_on_smooth(self, seed, n):
        rng = np.random.default_rng(seed)
        # smooth signal: bounded step size keeps ADPCM tracking
        sig = (8000 * np.sin(np.arange(n) / 20)).astype(np.int16)
        out, rate = decode_wav(encode_wav_adpcm(sig, 8000, 64))
        assert out.shape == (n, 1) and rate == 8000
        err = np.abs(out[:, 0].astype(np.int32) - sig.astype(np.int32))
        assert err.max() < 2000  # quantizer envelope, not exactness

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=500))
    def test_mulaw_double_roundtrip_fixed_point(self, pcm):
        # expand(compress(x)) is idempotent after one application:
        # y = E(C(x)) implies E(C(y)) == y (y is a codec lattice point)
        x = np.array(pcm, np.int16)
        y = mulaw_expand(mulaw_compress(x))
        z = mulaw_expand(mulaw_compress(y))
        assert (y == z).all()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=500),
           st.sampled_from([8000, 16000]))
    def test_pcm_wav_roundtrip_exact(self, pcm, rate):
        x = np.array(pcm, np.int16)
        out, r = decode_wav(encode_wav(x, rate))
        assert r == rate and (out[:, 0] == x).all()


class TestCurationInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 3000), min_size=1, max_size=400),
           st.integers(128, 4096))
    def test_packing_budget_and_coverage(self, lens, budget):
        lens = np.array(lens)
        bins, offs = pack_rows(lens, budget)
        # every row assigned; fits within budget unless oversize alone
        fill = np.zeros(bins.max() + 1, np.int64)
        np.add.at(fill, bins, lens)
        for b in range(bins.max() + 1):
            members = np.flatnonzero(bins == b)
            assert len(members) > 0
            if fill[b] > budget:
                assert len(members) == 1  # oversize singleton
        # offsets place rows disjointly
        for b in np.unique(bins):
            rows = np.flatnonzero(bins == b)
            spans = sorted((offs[i], offs[i] + lens[i]) for i in rows)
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert a1 <= b0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=500),
           st.integers(0, 1000), st.integers(0, 1000))
    def test_key01_uniform_range_and_salt(self, keys, s1, s2):
        k = np.array(keys, np.int64)
        u1, u2 = key01(k, s1), key01(k, s2)
        assert (0 <= u1).all() and (u1 < 1).all()
        assert (key01(k, s1) == u1).all()  # deterministic
        if s1 != s2 and len(set(keys)) > 20:
            assert (u1 != u2).mean() > 0.5  # salts decorrelate

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.text(min_size=0, max_size=200), min_size=1,
                    max_size=50))
    def test_clean_lines_never_invents_text(self, texts):
        from vat_abcd_crawler_ray.functions.textstats import clean_lines

        df = clean_lines(pd.Series(texts), require_terminal=False)
        for orig, row in zip(texts, df.itertuples()):
            for line in row.text.split("\n"):
                if line:
                    assert line in orig
            assert row.n_kept <= row.n_lines

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.one_of(st.none(), st.text(
            alphabet=st.one_of(st.sampled_from("\x00ab "), st.characters()),
            max_size=40,
        )),
        min_size=1, max_size=12,
    ))
    def test_batch_perplexity_equals_per_doc(self, texts):
        """Scoring a batch gives each doc the score it gets alone —
        whatever it holds (NULs, non-ASCII, empty, missing), it must
        not shift the scores of the docs after it."""
        from vat_abcd_crawler_ray.functions.lm import (
            bigram_logprob,
            count_byte_bigrams,
            perplexity,
        )

        lp = bigram_logprob(count_byte_bigrams(pd.Series(["abc ab\x00a", "zz"])))
        batch = perplexity(pd.Series(texts, dtype=object), lp)
        alone = [perplexity(pd.Series([t], dtype=object), lp)[0] for t in texts]
        np.testing.assert_allclose(batch, alone, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.text(max_size=300), min_size=1, max_size=30))
    def test_repetition_fracs_in_range(self, texts):
        from vat_abcd_crawler_ray.functions.textstats import (
            repetition_features,
        )

        df = repetition_features(pd.Series(texts))
        for c in df.columns:
            assert (df[c] >= 0).all() and (df[c] <= 1).all()


class TestIngestRoundTrips:
    """Generated-content round trips for the ingest formats: what the
    fixture writers emit, the parsers must recover exactly."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.binary(min_size=0, max_size=400),
        ),
        min_size=1, max_size=12,
    ), st.booleans())
    def test_warc_roundtrip(self, pages, gz):
        from vat_abcd_crawler_ray.sources.warc import (
            parse_warc_file,
            write_warc,
        )

        recs = [{
            "url": f"https://h.example/p{i}",
            "status": 200,
            "content_type": "application/octet-stream",
            "body": body,
        } for i, body in pages]
        t = parse_warc_file("f", write_warc(recs, gz=gz))
        assert t["warc_error"].to_pylist() == [None] * len(recs)
        assert t["html"].to_pylist() == [r["body"] for r in recs]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(
            st.from_regex(r"[a-z][a-z0-9]{0,10}", fullmatch=True),
            st.binary(min_size=0, max_size=300),
        ),
        min_size=1, max_size=10,
        unique_by=lambda kv: kv[0],
    ))
    def test_webdataset_roundtrip(self, samples):
        from vat_abcd_crawler_ray.sources.webdataset import (
            parse_shard,
            write_webdataset_shard,
        )

        groups = [(k, {"bin": payload}) for k, payload in samples]
        t = parse_shard("s", write_webdataset_shard(groups), ["bin"])
        assert t["key"].to_pylist() == [k for k, _ in samples]
        assert t["bin"].to_pylist() == [p for _, p in samples]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.from_regex(r"https://[a-z]{1,8}\.example/[a-z0-9/]{0,20}",
                      fullmatch=True),
        min_size=1, max_size=15,
    ))
    def test_sitemap_roundtrip(self, urls):
        from vat_abcd_crawler_ray.functions.sitemap import parse_sitemap

        xml = "<urlset>" + "".join(
            f"<url><loc>{u}</loc></url>" for u in urls
        ) + "</urlset>"
        assert parse_sitemap(xml)["urls"] == urls

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.from_regex(r"/[a-z0-9/*]{0,12}", fullmatch=True),
                    min_size=0, max_size=8),
           st.from_regex(r"/[a-z0-9/]{0,15}", fullmatch=True))
    def test_robots_never_crashes_and_is_deterministic(self, pats, path):
        from vat_abcd_crawler_ray.functions.robots import parse_robots

        txt = "User-agent: *\n" + "\n".join(
            f"{'Allow' if i % 2 else 'Disallow'}: {p}"
            for i, p in enumerate(pats)
        )
        r = parse_robots(txt, "anybot")
        assert r.allowed(path) == r.allowed(path)
