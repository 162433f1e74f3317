"""Pure-numpy media codec tests (no Ray)."""

from __future__ import annotations

import numpy as np
import pytest

from vat_abcd_crawler_ray.functions.codecs import (
    decode_ppm,
    decode_wav,
    encode_ppm,
    encode_wav,
    resize_nearest,
)


def test_ppm_roundtrip():
    rng = np.random.RandomState(7)
    img = rng.randint(0, 256, (13, 9, 3), dtype=np.uint8)
    assert (decode_ppm(encode_ppm(img)) == img).all()


def test_pgm_gray_expands_and_comments_skipped():
    pgm = b"P5\n# comment line\n4 2\n255\n" + bytes(range(8))
    img = decode_ppm(pgm)
    assert img.shape == (2, 4, 3)
    assert (img[:, :, 0] == img[:, :, 1]).all()
    assert img[0, 0, 0] == 0 and img[1, 3, 2] == 7


def test_ppm_rejects_garbage():
    with pytest.raises(ValueError):
        decode_ppm(b"\x89PNG not a ppm")
    with pytest.raises(ValueError):
        decode_ppm(b"P6\n2 2\n65535\n" + b"\x00" * 24)  # 16-bit maxval


def test_resize_nearest():
    img = np.arange(6 * 4 * 3, dtype=np.uint8).reshape(6, 4, 3)
    up = resize_nearest(img, (12, 8))
    assert up.shape == (12, 8, 3)
    assert (up[::2, ::2] == img).all()  # every source pixel survives
    down = resize_nearest(img, (3, 2))
    assert (down == img[[0, 2, 4]][:, [0, 2]]).all()


def test_wav_roundtrip_stereo_and_mono():
    rng = np.random.RandomState(3)
    s = rng.randint(-30000, 30000, (555, 2)).astype(np.int16)
    dec, rate = decode_wav(encode_wav(s, 22050))
    assert rate == 22050 and (dec == s).all()
    mono, rate = decode_wav(encode_wav(s[:, 0], 8000))
    assert mono.shape == (555, 1) and (mono[:, 0] == s[:, 0]).all()


def test_wav_rejects_non_pcm16():
    with pytest.raises(ValueError):
        decode_wav(b"OggS not a wav")
    import struct

    fmt = struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)  # float32 fmt
    bad = (
        b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8) + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", 0)
    )
    with pytest.raises(ValueError):
        decode_wav(bad)


def _png_truncated_idat() -> bytes:
    """A PNG whose chunks all carry valid CRCs but whose IDAT holds
    only the first half of the deflate stream."""
    import struct
    import zlib

    def chunk(ctype: bytes, body: bytes) -> bytes:
        crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0)
    stream = zlib.compress(bytes(range(4 * (4 * 3 + 1))))
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", stream[: len(stream) // 2])
        + chunk(b"IEND", b"")
    )


def test_decode_stages_dead_letter_corrupt_blobs():
    """C2 'errors are data': corrupt/null media blobs must yield NULL/
    zero features + a decode_error column, never a raised exception
    (which would kill the whole map_batches task)."""
    import pyarrow as pa

    from vat_abcd_crawler_ray.functions.codecs import encode_ppm, encode_wav
    from vat_abcd_crawler_ray.stages.multimodal import (
        AudioFeatureStage,
        DecodeImageStage,
    )

    good_img = encode_ppm(np.full((4, 4, 3), 7, np.uint8))
    out = DecodeImageStage(out_hw=(4, 4), decoder="ppm")(
        pa.table({"media": pa.array([good_img, b"not a ppm", None], pa.binary())})
    )
    assert out["image_decode_error"].to_pylist()[0] is None
    assert out["image_decode_error"].to_pylist()[1].startswith("DecodeError")
    assert out["image_decode_error"].to_pylist()[2].startswith("DecodeError")
    assert out["src_height"].to_pylist() == [4, 0, 0]

    # a valid-CRC PNG with a truncated IDAT dead-letters the blob
    # instead of failing the task
    out = DecodeImageStage(out_hw=(4, 4), decoder="png")(
        pa.table({"media": pa.array([_png_truncated_idat()], pa.binary())})
    )
    assert out["image_decode_error"].to_pylist()[0].startswith("DecodeError")
    assert out["src_height"].to_pylist() == [0]

    good_wav = encode_wav(np.array([1, -2, 3], np.int16), 8000)
    out = AudioFeatureStage()(
        pa.table({"media": pa.array([good_wav, b"RIFFgarbage", None], pa.binary())})
    )
    assert out["n_samples"].to_pylist() == [3, None, None]
    errs = out["audio_decode_error"].to_pylist()
    assert errs[0] is None and errs[1] and errs[2]


# ---------------------------------------------------------------------------
# PNG (stdlib-zlib real compressed-format decoder)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_png_roundtrip_every_filter(filter_type):
    """encode_png writes truly FILTERED scanlines, so a round trip
    exercises the decoder's unfilter branch against known pixels."""
    from vat_abcd_crawler_ray.functions.codecs import decode_png, encode_png

    rng = np.random.RandomState(11 + filter_type)
    img = rng.randint(0, 256, (17, 23, 3), dtype=np.uint8)
    data = encode_png(img, filter_type=filter_type)
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    assert (decode_png(data) == img).all()
    # gradients stress the predictor filters far more than noise
    grad = (
        np.arange(19)[:, None, None] * 7
        + np.arange(31)[None, :, None] * 3
        + np.arange(3)[None, None, :]
    ).astype(np.uint8)
    assert (decode_png(encode_png(grad, filter_type=filter_type)) == grad).all()


def test_png_gray_palette_alpha_normalize_to_rgb():
    import struct
    import zlib

    from vat_abcd_crawler_ray.functions.codecs import decode_png

    def chunk(ctype, body):
        return (
            struct.pack(">I", len(body))
            + ctype
            + body
            + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
        )

    def png(w, h, color_type, raw, plte=None):
        ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
        out = b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
        if plte is not None:
            out += chunk(b"PLTE", plte)
        return out + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b"")

    # gray (type 0): 2x2, values 0..3
    img = decode_png(png(2, 2, 0, b"\x00\x00\x01" + b"\x00\x02\x03"))
    assert img.shape == (2, 2, 3)
    assert (img[:, :, 0] == img[:, :, 2]).all()
    assert img[1, 1, 0] == 3
    # palette (type 3): indices into a 2-entry palette
    img = decode_png(
        png(2, 1, 3, b"\x00\x01\x00", plte=b"\x10\x20\x30\x40\x50\x60")
    )
    assert img.tolist() == [[[0x40, 0x50, 0x60], [0x10, 0x20, 0x30]]]
    # gray+alpha (type 4) and RGBA (type 6): alpha dropped
    img = decode_png(png(1, 1, 4, b"\x00\x07\xff"))
    assert img.tolist() == [[[7, 7, 7]]]
    img = decode_png(png(1, 1, 6, b"\x00\x01\x02\x03\x80"))
    assert img.tolist() == [[[1, 2, 3]]]
    # out-of-range palette index is data corruption, not a crash
    with pytest.raises(ValueError):
        decode_png(png(1, 1, 3, b"\x00\x05", plte=b"\x00\x00\x00"))


def test_png_rejects_malformed():
    import struct
    import zlib

    from vat_abcd_crawler_ray.functions.codecs import decode_png, encode_png

    good = encode_png(np.zeros((4, 4, 3), np.uint8))
    with pytest.raises(ValueError):
        decode_png(b"P6\n1 1\n255\n\x00\x00\x00")  # not a PNG
    with pytest.raises(ValueError):
        decode_png(good[:30])  # truncated mid-chunk
    # flip one IDAT payload byte -> CRC mismatch, loud failure
    bad = bytearray(good)
    idat_at = good.index(b"IDAT")
    bad[idat_at + 6] ^= 0xFF
    with pytest.raises(ValueError):
        decode_png(bytes(bad))
    # Adam7 interlace: declared unsupported, not silently wrong
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 1)
    chunks = (
        struct.pack(">I", 13)
        + b"IHDR"
        + ihdr
        + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr) & 0xFFFFFFFF)
    )
    body = zlib.compress(b"\x00\x00\x00\x00")
    chunks += (
        struct.pack(">I", len(body))
        + b"IDAT"
        + body
        + struct.pack(">I", zlib.crc32(b"IDAT" + body) & 0xFFFFFFFF)
    )
    with pytest.raises(ValueError):
        decode_png(b"\x89PNG\r\n\x1a\n" + chunks)
    # valid CRCs over a truncated IDAT stream: the inflate fails, and
    # that must surface as ValueError, not zlib.error
    with pytest.raises(ValueError, match="IDAT"):
        decode_png(_png_truncated_idat())


def test_decode_image_stage_png_path():
    """The actor-pool stage decodes real PNG bytes and dead-letters
    corrupt ones, same soft-error contract as the ppm path."""
    import pyarrow as pa

    from vat_abcd_crawler_ray.functions.codecs import encode_png
    from vat_abcd_crawler_ray.stages.multimodal import DecodeImageStage

    rng = np.random.RandomState(5)
    img = rng.randint(0, 256, (16, 16, 3), dtype=np.uint8)
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "media": pa.array(
                [encode_png(img, filter_type=4), b"corrupt", None],
                pa.binary(),
            ),
        }
    )
    out = DecodeImageStage(out_hw=(8, 8), decoder="png")(batch)
    errs = out["image_decode_error"].to_pylist()
    assert errs[0] is None and errs[1] is not None and errs[2] is not None
    assert out["src_height"].to_pylist() == [16, 0, 0]
    px = np.asarray(out["pixels"][0].as_py(), dtype=np.uint8).reshape(8, 8, 3)
    from vat_abcd_crawler_ray.functions.codecs import resize_nearest

    assert (px == resize_nearest(img, (8, 8))).all()


class TestResizeBilinear:
    """Half-pixel-center bilinear resize (the model-preprocessor
    convention), vectorized."""

    def test_identity(self):
        import numpy as np

        from vat_abcd_crawler_ray.functions.codecs import resize_bilinear

        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, (12, 17, 3), dtype=np.uint8)
        assert (resize_bilinear(img, (12, 17)) == img).all()

    def test_constant_stays_constant(self):
        import numpy as np

        from vat_abcd_crawler_ray.functions.codecs import resize_bilinear

        img = np.full((9, 7, 3), 123, np.uint8)
        assert (resize_bilinear(img, (16, 16)) == 123).all()

    def test_downsample_averages(self):
        import numpy as np

        from vat_abcd_crawler_ray.functions.codecs import resize_bilinear

        # 2x2 checkerboard of 0/255 downsampled 2:1 with half-pixel
        # centers lands exactly between the four pixels -> mean 128
        img = np.zeros((2, 2), np.uint8)
        img[0, 1] = img[1, 0] = 255
        out = resize_bilinear(img, (1, 1))
        assert out.shape == (1, 1) and abs(int(out[0, 0]) - 128) <= 1

    def test_gradient_smoother_than_nearest(self):
        import numpy as np

        from vat_abcd_crawler_ray.functions.codecs import (
            resize_bilinear,
            resize_nearest,
        )

        ramp = np.tile(np.arange(0, 256, 16, dtype=np.uint8), (4, 1))
        up_b = resize_bilinear(ramp, (4, 64)).astype(int)
        up_n = resize_nearest(ramp, (4, 64)).astype(int)
        # bilinear interpolates between samples; nearest steps
        assert np.abs(np.diff(up_b[0])).max() < np.abs(np.diff(up_n[0])).max()

    def test_gray_and_color_shapes(self):
        import numpy as np

        from vat_abcd_crawler_ray.functions.codecs import resize_bilinear

        g = np.arange(30, dtype=np.uint8).reshape(5, 6)
        assert resize_bilinear(g, (10, 3)).shape == (10, 3)
        c = np.dstack([g, g, g])
        assert resize_bilinear(c, (7, 11)).shape == (7, 11, 3)

    def test_stage_accepts_resample(self):
        import numpy as np
        import pyarrow as pa

        from vat_abcd_crawler_ray.functions.codecs import encode_png
        from vat_abcd_crawler_ray.stages.multimodal import DecodeImageStage

        img = np.full((8, 8, 3), 55, np.uint8)
        t = pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "media": pa.array([encode_png(img)], pa.binary()),
        })
        out = DecodeImageStage(
            out_hw=(4, 4), decoder="png", resample="bilinear"
        )(t)
        px = np.asarray(out["pixels"].to_pylist()[0]).reshape(4, 4, 3)
        assert (px == 55).all()  # constant image: bilinear == nearest

    def test_bad_resample_rejected(self):
        import pytest

        from vat_abcd_crawler_ray.stages.multimodal import DecodeImageStage

        with pytest.raises(ValueError, match="resample"):
            DecodeImageStage(resample="lanczos")


class TestBmp:
    """Uncompressed 24/32-bit BMP (row padding, bottom-up/top-down)."""

    def test_roundtrip_exact(self):
        import numpy as np

        from vat_abcd_crawler_ray.functions.codecs import (
            decode_bmp,
            encode_bmp,
        )

        rng = np.random.default_rng(2)
        for h, w in ((1, 1), (5, 7), (13, 33)):
            img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            assert (decode_bmp(encode_bmp(img)) == img).all()

    def test_top_down_and_32bit(self):
        import struct

        import numpy as np

        from vat_abcd_crawler_ray.functions.codecs import decode_bmp

        # hand-build a 2x2 top-down 32-bit BMP
        px = np.array([[[1, 2, 3], [4, 5, 6]],
                       [[7, 8, 9], [10, 11, 12]]], np.uint8)
        rows = b""
        for r in range(2):
            for c in range(2):
                b, g, rr = px[r, c, 2], px[r, c, 1], px[r, c, 0]
                rows += bytes([b, g, rr, 255])
        hdr = struct.pack("<2sIHHI", b"BM", 54 + len(rows), 0, 0, 54)
        info = struct.pack("<IiiHHIIiiII", 40, 2, -2, 1, 32, 0,
                           len(rows), 0, 0, 0, 0)
        assert (decode_bmp(hdr + info + rows) == px).all()

    def test_corrupt_and_unsupported(self):
        import pytest

        from vat_abcd_crawler_ray.functions.codecs import decode_bmp

        with pytest.raises(ValueError):
            decode_bmp(b"BMshort")
        with pytest.raises(ValueError):
            decode_bmp(b"XX" + bytes(60))

    def test_auto_sniff(self):
        import numpy as np
        import pyarrow as pa

        from vat_abcd_crawler_ray.functions.codecs import encode_bmp
        from vat_abcd_crawler_ray.stages.multimodal import DecodeImageStage

        img = np.full((8, 8, 3), 42, np.uint8)
        t = pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "media": pa.array([encode_bmp(img)], pa.binary()),
        })
        out = DecodeImageStage(out_hw=(4, 4), decoder="auto")(t)
        assert (np.asarray(out["pixels"].to_pylist()[0]) == 42).all()
