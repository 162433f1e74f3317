"""functions/codecs JPEG — the baseline sequential DCT codec (encoder
and decoder share only published constants, so round trips exercise
both directions of every code path)."""

import struct

import numpy as np
import pytest

from vat_abcd_crawler_ray.functions.codecs import (
    _ZIGZAG,
    decode_jpeg,
    encode_jpeg,
)


def _gradient(h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack(
        [
            np.clip(yy * 3 + 10, 0, 255),
            np.clip(xx * 2 + 40, 0, 255),
            np.clip(xx + yy, 0, 255),
        ],
        axis=2,
    ).astype(np.uint8)


def _psnr(a, b):
    mse = ((a.astype(float) - b.astype(float)) ** 2).mean()
    return 10 * np.log10(255**2 / max(mse, 1e-12))


class TestJpegCodec:
    def test_zigzag_is_the_standard_order(self):
        np.testing.assert_array_equal(
            _ZIGZAG[:10], [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]
        )
        assert sorted(_ZIGZAG.tolist()) == list(range(64))

    def test_round_trip_high_quality(self):
        img = _gradient(48, 56)
        out = decode_jpeg(encode_jpeg(img, quality=95))
        assert out.shape == img.shape
        assert _psnr(img, out) > 45.0

    def test_round_trip_odd_dimensions(self):
        img = _gradient(37, 29)  # forces edge-replicate padding
        out = decode_jpeg(encode_jpeg(img, quality=90))
        assert out.shape == (37, 29, 3)
        assert _psnr(img, out) > 40.0

    def test_quality_monotone(self):
        img = _gradient(40, 40)
        e95 = _psnr(img, decode_jpeg(encode_jpeg(img, 95)))
        e30 = _psnr(img, decode_jpeg(encode_jpeg(img, 30)))
        assert e95 > e30
        assert len(encode_jpeg(img, 30)) < len(encode_jpeg(img, 95))

    def test_actually_compresses(self):
        img = _gradient(64, 64)
        assert len(encode_jpeg(img, 85)) < img.nbytes // 4

    def test_grayscale_round_trip(self):
        g = np.clip(np.add.outer(np.arange(32) * 4, np.arange(40) * 2), 0, 255).astype(
            np.uint8
        )
        out = decode_jpeg(encode_jpeg(g, quality=92))
        assert out.shape == (32, 40, 3)
        # grayscale expands to identical channels
        np.testing.assert_array_equal(out[:, :, 0], out[:, :, 1])
        assert _psnr(np.repeat(g[:, :, None], 3, axis=2), out) > 40.0

    def test_restart_markers_round_trip(self):
        img = _gradient(48, 48)
        plain = decode_jpeg(encode_jpeg(img, 90))
        with_rst = encode_jpeg(img, 90, restart_interval=3)
        assert b"\xff\xdd" in with_rst  # DRI present
        np.testing.assert_array_equal(decode_jpeg(with_rst), plain)

    def test_deterministic(self):
        img = _gradient(24, 24)
        assert encode_jpeg(img, 77) == encode_jpeg(img, 77)

    def test_marker_framing(self):
        b = encode_jpeg(_gradient(16, 16), 85)
        assert b[:2] == b"\xff\xd8" and b[-2:] == b"\xff\xd9"
        # SOF0 carries the real dimensions
        i = b.index(b"\xff\xc0")
        _, h, w, nf = struct.unpack(">BHHB", b[i + 4 : i + 10])
        assert (h, w, nf) == (16, 16, 3)

    def test_lossless_sofn_rejected(self):
        b = bytearray(encode_jpeg(_gradient(16, 16), 85))
        i = bytes(b).index(b"\xff\xc0")
        b[i + 1] = 0xC3  # flip SOF0 -> SOF3 (lossless)
        with pytest.raises(NotImplementedError):
            decode_jpeg(bytes(b))

    def test_mislabeled_progressive_rejected(self):
        # SOF2 with a baseline full-band scan violates G.1.1.1.1
        b = bytearray(encode_jpeg(_gradient(16, 16), 85))
        i = bytes(b).index(b"\xff\xc0")
        b[i + 1] = 0xC2
        with pytest.raises(ValueError, match="progressive scan"):
            decode_jpeg(bytes(b))

    def test_corrupt_rejected(self):
        with pytest.raises(ValueError):
            decode_jpeg(b"not a jpeg")
        truncated = encode_jpeg(_gradient(16, 16), 85)[:40]
        with pytest.raises(ValueError):
            decode_jpeg(truncated)

    @pytest.mark.parametrize("category,pred,bits", [(12, 0, b"\x00"), (200, 0, b"\x00"),
                                                    (11, 2047, b"\x7f\xf0")])
    def test_dc_beyond_baseline_rejected(self, category, pred, bits):
        """A DC difference category above 11 (a corrupt DHT) or a DC sum
        outside the 8-bit range is a ValueError, never an int32 wrap."""
        from vat_abcd_crawler_ray.functions.codecs import (
            _BitReader,
            _decode_block,
            _huff_decode_table,
        )

        one_code = [1] + [0] * 15  # the 1-bit code "0"
        dc, ac = _huff_decode_table(one_code, [category]), _huff_decode_table(one_code, [0])
        with pytest.raises(ValueError, match="category|range"):
            _decode_block(_BitReader(bits + bytes(8)), pred, dc, ac)

    def test_noise_image_survives(self):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
        out = decode_jpeg(encode_jpeg(img, quality=100))
        assert out.shape == img.shape
        assert _psnr(img, out) > 25.0  # noise is the worst case


@pytest.mark.usefixtures("ray_session")
class TestJpegStage:
    def test_decode_image_stage_jpeg(self):
        import pyarrow as pa
        import ray.data as rd

        from vat_abcd_crawler_ray.stages.multimodal import DecodeImageStage

        imgs = [_gradient(20 + 4 * i, 24) for i in range(6)]
        blobs = [encode_jpeg(im, 90) for im in imgs]
        blobs[3] = b"\xff\xd8garbage"  # corrupt -> soft error, not crash
        ds = rd.from_arrow(
            pa.table({"doc_id": list(range(6)), "media": blobs})
        )
        out = (
            ds.map_batches(
                DecodeImageStage,
                fn_constructor_kwargs={
                    "out_hw": (16, 16),
                    "decoder": "jpeg",
                },
                batch_format="pyarrow",
                batch_size=3,
                concurrency=1,
            )
            .to_pandas()
            .sort_values("doc_id")
        )
        assert len(out) == 6
        errs = out["image_decode_error"].tolist()
        assert errs[3] is not None and all(
            e is None for i, e in enumerate(errs) if i != 3
        )
        assert out["src_height"].tolist()[0] == 20


class TestSubsampling:
    """4:2:2 / 4:2:0 chroma subsampling via the spec's general MCU
    structure (T.81 A.2.3) — the dominant profile in crawled JPEGs."""

    @pytest.mark.parametrize("sub", ["422", "420"])
    def test_round_trip(self, sub):
        img = _gradient(45, 61)
        dec = decode_jpeg(encode_jpeg(img, quality=90, subsampling=sub))
        assert dec.shape == img.shape
        assert _psnr(img, dec) > 33  # chroma is lossy, luma isn't

    def test_quality_ordering_by_subsampling(self):
        # at equal quality: 444 >= 422 >= 420 fidelity
        img = _gradient(40, 56)
        p = [
            _psnr(img, decode_jpeg(encode_jpeg(img, 90, subsampling=s)))
            for s in ("444", "422", "420")
        ]
        assert p[0] >= p[1] >= p[2]

    def test_420_smaller_than_444(self):
        img = _gradient(64, 64)
        assert len(encode_jpeg(img, 90, subsampling="420")) < len(
            encode_jpeg(img, 90, subsampling="444")
        )

    def test_constant_color_bit_exact_at_q100(self):
        # DC-only + unit quantizer survives downsample/upsample exactly
        # (this is what lets 4:2:0 JPEGs sit inside the SQL oracle)
        for rgb in ((77, 77, 77), (3, 21, 39), (250, 14, 130)):
            img = np.empty((10, 14, 3), np.uint8)
            img[..., 0], img[..., 1], img[..., 2] = rgb
            for sub in ("422", "420"):
                dec = decode_jpeg(encode_jpeg(img, 100, subsampling=sub))
                assert (dec == img).all(), (rgb, sub)

    @pytest.mark.parametrize("hw", [(1, 1), (7, 9), (9, 17), (17, 25)])
    def test_odd_dimensions(self, hw):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, (*hw, 3), dtype=np.uint8)
        assert decode_jpeg(
            encode_jpeg(img, 95, subsampling="420")
        ).shape == img.shape

    def test_restart_markers_with_subsampling(self):
        img = _gradient(40, 48)
        a = decode_jpeg(encode_jpeg(img, 90, subsampling="420"))
        b = decode_jpeg(
            encode_jpeg(img, 90, subsampling="420", restart_interval=2)
        )
        assert (a == b).all()  # resync must not change pixels

    def test_444_output_unchanged_by_generalization(self):
        # the general MCU writer must emit the identical byte stream
        # for 1x1 factors (backward compat with round-5 golden hashes)
        img = _gradient(24, 24)
        blob = encode_jpeg(img, quality=85)
        assert blob[blob.index(b"\xff\xc0") + 11] == 0x11  # hv for Y
        assert _psnr(img, decode_jpeg(blob)) > 40

    def test_unknown_subsampling_rejected(self):
        with pytest.raises(ValueError, match="subsampling"):
            encode_jpeg(_gradient(8, 8), subsampling="411")

    def test_nonint_ratio_rejected(self):
        # hand-craft an SOF with 3x1 luma vs 2x1 chroma (3 % 2 != 0)
        blob = bytearray(encode_jpeg(_gradient(16, 16), subsampling="422"))
        i = blob.index(b"\xff\xc0")
        assert blob[i + 11] == 0x21  # luma hv
        blob[i + 11] = 0x31
        blob[i + 14] = 0x21  # first chroma hv: 1x1 → 2x1
        with pytest.raises(NotImplementedError, match="non-integer"):
            decode_jpeg(bytes(blob))


class TestProgressive:
    """SOF2 progressive: spectral selection + successive approximation.
    The invariant under test: progressive and baseline encode the SAME
    quantized coefficients, so their decodes must match bit-for-bit."""

    @pytest.mark.parametrize("sub", ["444", "422", "420"])
    @pytest.mark.parametrize("q", [70, 100])
    def test_matches_baseline_exactly(self, sub, q):
        from vat_abcd_crawler_ray.functions.codecs import (
            encode_jpeg_progressive,
        )

        img = _gradient(45, 61)
        base = decode_jpeg(encode_jpeg(img, quality=q, subsampling=sub))
        prog = decode_jpeg(
            encode_jpeg_progressive(img, quality=q, subsampling=sub)
        )
        assert (base == prog).all()

    def test_noise_matches_baseline(self):
        # dense coefficients: exercises ZRL, correction bits and
        # newly-significant insertions in the refinement scans
        from vat_abcd_crawler_ray.functions.codecs import (
            encode_jpeg_progressive,
        )

        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, (24, 40, 3), dtype=np.uint8)
        assert (
            decode_jpeg(encode_jpeg(img, 80, subsampling="420"))
            == decode_jpeg(encode_jpeg_progressive(img, 80, subsampling="420"))
        ).all()

    def test_flat_image_long_eob_runs(self):
        # mostly-zero AC bands: EOBn run lengths well past 1
        from vat_abcd_crawler_ray.functions.codecs import (
            encode_jpeg_progressive,
        )

        img = np.full((64, 96, 3), 100, np.uint8)
        img[30, 40] = 200
        assert (
            decode_jpeg(encode_jpeg(img, 85))
            == decode_jpeg(encode_jpeg_progressive(img, 85))
        ).all()

    def test_grayscale(self):
        from vat_abcd_crawler_ray.functions.codecs import (
            encode_jpeg_progressive,
        )

        g = _gradient(20, 30)[..., 0]
        assert (
            decode_jpeg(encode_jpeg(g, 85))
            == decode_jpeg(encode_jpeg_progressive(g, 85))
        ).all()

    def test_emits_sof2_and_multiple_scans(self):
        from vat_abcd_crawler_ray.functions.codecs import (
            encode_jpeg_progressive,
        )

        blob = encode_jpeg_progressive(_gradient(16, 16), 85)
        assert b"\xff\xc2" in blob and b"\xff\xc0" not in blob
        # DC first + DC refine + (AC first + AC refine) x 3 components
        assert blob.count(b"\xff\xda") == 8

    def test_truncated_progressive_rejected(self):
        from vat_abcd_crawler_ray.functions.codecs import (
            encode_jpeg_progressive,
        )

        blob = encode_jpeg_progressive(_gradient(16, 16), 85)
        with pytest.raises(ValueError):
            decode_jpeg(blob[: len(blob) // 2])
