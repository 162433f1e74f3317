"""Pure-numpy media codecs — REAL decoders for the uncompressed
container formats that need no external library:

- PPM (P6) / PGM (P5) binary images: header parse + ``np.frombuffer``
  pixel load; grayscale expands to 3 channels.
- PNG (bit depth 8, color types 0/2/3/4/6, non-interlaced): chunk
  walk with CRC verification, stdlib-zlib inflate, numpy per-row
  unfilter of all five spec filters — a REAL compressed-format
  decoder with no external library.
- WAV RIFF PCM-16: chunk walk + sample load.
- nearest-neighbor resize via strided index sampling.

- JPEG baseline sequential DCT (SOF0, grayscale / YCbCr 4:4:4): a
  REAL entropy-coded codec — Annex-K quantization + typical Huffman
  tables, zigzag / DC-differential / run-length symbols, numpy
  matrix DCT, byte stuffing and restart markers (see the JPEG
  section below).

These give the multimodal stages (stages/multimodal.py) a genuine
bytes→pixels/samples path in this container; the remaining formats
(progressive/subsampled JPEG, MP3/MP4) still require PIL/ffmpeg and
stay behind the documented ``decoder="real"`` seam. Encoders are
included so tests and oracle-gated queries can synthesize
deterministic media.
"""

from __future__ import annotations

import struct

import numpy as np


# ---------------------------------------------------------------------------
# PPM / PGM
# ---------------------------------------------------------------------------


def encode_ppm(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → binary PPM (P6)."""
    img = np.asarray(img, dtype=np.uint8)
    h, w, c = img.shape
    assert c == 3, "encode_ppm expects (h, w, 3)"
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()


def _read_ppm_tokens(data: bytes, n: int) -> tuple[list[bytes], int]:
    """First ``n`` whitespace-separated header tokens (with ``#``
    comment lines skipped, per the netpbm spec) and the offset just
    past the single whitespace byte that terminates the last one."""
    toks: list[bytes] = []
    i = 0
    while len(toks) < n:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise ValueError("truncated netpbm header")
        toks.append(data[i:j])
        i = j
    return toks, i + 1  # past the single whitespace after the last token


def decode_ppm(data: bytes) -> np.ndarray:
    """Binary PPM (P6) or PGM (P5) → (h, w, 3) uint8 (gray expands)."""
    magic = data[:2]
    if magic not in (b"P6", b"P5"):
        raise ValueError(f"not a binary PPM/PGM: magic={magic!r}")
    toks, off = _read_ppm_tokens(data, 4)
    w, h, maxval = int(toks[1]), int(toks[2]), int(toks[3])
    if maxval != 255:
        raise ValueError(f"only maxval=255 supported, got {maxval}")
    channels = 3 if magic == b"P6" else 1
    need = w * h * channels
    pix = np.frombuffer(data, dtype=np.uint8, count=need, offset=off)
    img = pix.reshape(h, w, channels)
    if channels == 1:
        img = np.repeat(img, 3, axis=2)
    return img


# Decompression-bomb guard shared by all image decoders: a crawled
# corpus WILL contain blobs whose dimension fields claim gigapixel
# canvases (fuzzing reproduces it) — allocating them OOM-kills the
# actor instead of dead-lettering the row. 2^26 px = 192 MB RGB.
_MAX_PIXELS = 1 << 26


def _check_dims(w: int, h: int, what: str) -> None:
    if w <= 0 or h <= 0 or w * h > _MAX_PIXELS:
        raise ValueError(f"{what} dimensions {w}x{h} out of bounds")


def resize_nearest(img: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize by strided index sampling (pure numpy)."""
    oh, ow = out_hw
    h, w = img.shape[:2]
    ri = (np.arange(oh) * h // oh).astype(np.int64)
    ci = (np.arange(ow) * w // ow).astype(np.int64)
    return img[ri][:, ci]


def resize_bilinear(img: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Bilinear resize with half-pixel-center alignment (the convention
    model-input preprocessors use), fully vectorized: two gathers + a
    separable lerp per axis. uint8 in → uint8 out (rounded)."""
    oh, ow = out_hw
    h, w = img.shape[:2]
    # half-pixel centers: out pixel i samples src at (i + .5)*scale - .5
    fy = np.clip((np.arange(oh) + 0.5) * (h / oh) - 0.5, 0, h - 1)
    fx = np.clip((np.arange(ow) + 0.5) * (w / ow) - 0.5, 0, w - 1)
    y0 = np.floor(fy).astype(np.int64)
    x0 = np.floor(fx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (fy - y0)[:, None, None] if img.ndim == 3 else (fy - y0)[:, None]
    wx = (fx - x0)[None, :, None] if img.ndim == 3 else (fx - x0)[None, :]
    a = img[y0].astype(np.float64)
    b = img[y1].astype(np.float64)
    rows = a + (b - a) * wy  # lerp along y at full width
    left = rows[:, x0]
    right = rows[:, x1]
    out = left + (right - left) * wx
    if img.dtype == np.uint8:
        return np.clip(np.round(out), 0, 255).astype(np.uint8)
    return out.astype(img.dtype)


# ---------------------------------------------------------------------------
# WAV (RIFF PCM-16)
# ---------------------------------------------------------------------------


def encode_wav(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    """(n,) or (n, channels) int16 → RIFF WAVE PCM-16 bytes."""
    s = np.asarray(samples, dtype=np.int16)
    if s.ndim == 1:
        s = s[:, None]
    n, ch = s.shape
    data = s.tobytes()
    byte_rate = sample_rate * ch * 2
    fmt = struct.pack("<HHIIHH", 1, ch, sample_rate, byte_rate, ch * 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wav(data: bytes) -> tuple[np.ndarray, int]:
    """RIFF WAVE bytes → ((n, channels) int16, sample_rate).

    Real COMPRESSED-audio support alongside PCM-16: format tag 7
    (G.711 μ-law, 8-bit logarithmic companding — a genuine ITU
    compression standard) expands through the closed-form table, so a
    mixed crawled corpus of PCM and μ-law clips decodes through ONE
    per-blob format dispatch (the audio analog of the image stages'
    ``decoder="auto"``)."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    pos = 12
    sample_rate = channels = audio_fmt = None
    block_align = fact_samples = None
    raw = None
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        size = struct.unpack("<I", data[pos + 4 : pos + 8])[0]
        payload = data[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if len(payload) < 16:  # fuzz contract: truncated fmt is
                raise ValueError("truncated WAVE fmt chunk")  # corrupt DATA
            audio_fmt, channels, sample_rate = struct.unpack("<HHI", payload[:8])
            block_align, bits = struct.unpack("<HH", payload[12:16])
            if (audio_fmt, bits) not in ((1, 16), (7, 8), (0x11, 4)):
                raise ValueError(
                    f"only PCM-16, mu-law-8 and IMA-ADPCM-4 supported "
                    f"(fmt={audio_fmt}, bits={bits})"
                )
            if audio_fmt == 0x11 and channels != 1:
                raise ValueError("IMA ADPCM: mono only")
        elif cid == b"fact":
            if len(payload) >= 4:
                fact_samples = struct.unpack("<I", payload[:4])[0]
        elif cid == b"data":
            raw = payload
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if sample_rate is None or raw is None:
        raise ValueError("missing fmt/data chunk")
    if audio_fmt == 0x11:
        s = decode_adpcm_ima(raw, block_align, fact_samples)
    elif audio_fmt == 7:
        s = mulaw_expand(np.frombuffer(raw, dtype=np.uint8))
    else:
        s = np.frombuffer(raw, dtype=np.int16)
    return s.reshape(-1, channels), sample_rate


# -- G.711 mu-law (ITU-T, public spec) --------------------------------------
# Expansion is closed-form integer arithmetic over the encoded byte:
#   u' = ~u;  t = ((u' & 0x0F) << 3 | 0x84) << ((u' >> 4) & 7)
#   linear = 0x84 - t  if sign bit set else  t - 0x84
# which is why mu-law clips can sit inside the SQL hash oracle — the
# same formula is expressible per-sample in DuckDB.

_ULAW_BIAS = 0x84


def _build_ulaw_table() -> np.ndarray:
    u = np.arange(256, dtype=np.int32) ^ 0xFF  # complement
    t = (((u & 0x0F) << 3) + _ULAW_BIAS) << ((u >> 4) & 0x07)
    return np.where(u & 0x80, _ULAW_BIAS - t, t - _ULAW_BIAS).astype(np.int16)


_ULAW_TABLE = _build_ulaw_table()


def mulaw_expand(enc: np.ndarray) -> np.ndarray:
    """uint8 mu-law bytes → int16 linear samples (vectorized lookup)."""
    return _ULAW_TABLE[np.asarray(enc, dtype=np.uint8)]


def mulaw_compress(samples: np.ndarray) -> np.ndarray:
    """int16 linear samples → uint8 mu-law bytes (G.711 segment
    search). Inverse property: compress(expand(u)) == u for all code
    points except negative zero (0x7F → 0xFF, both expand to 0 —
    the same collapse the stdlib ``audioop`` reference encoder
    makes); tested exhaustively."""
    # canonical CCITT 14-bit algorithm (the one the stdlib audioop /
    # sox encoder implements): arithmetic >>2 first — negatives floor
    # toward -inf, which shifts their magnitude by up to one code vs
    # the naive 16-bit formulation
    s14 = np.asarray(samples, dtype=np.int32) >> 2
    sign = s14 < 0
    mag = np.minimum(np.abs(s14), 8159) + (_ULAW_BIAS >> 2)
    # segment = first i with mag <= {0x3F,0x7F,...,0x1FFF}[i]
    # (mag in [33, 8192] so log2 in [5.04, 13])
    seg = np.clip(np.floor(np.log2(mag)).astype(np.int32) - 5, 0, 8)
    uval = np.where(
        seg >= 8, 0x7F, (seg << 4) | ((mag >> (seg + 1)) & 0x0F)
    )
    return (uval ^ np.where(sign, 0x7F, 0xFF)).astype(np.uint8)


# -- IMA ADPCM (WAV format tag 0x11; IMA/DVI spec, public) ------------------
# Real PREDICTIVE audio compression (4:1): each 4-bit code is a
# quantized delta against an adaptive predictor. Blocks are
# independent (each carries its predictor + step index in a 4-byte
# header), which is exactly what makes the format scale-shaped: a
# Dataset of clips decodes embarrassingly parallel per blob, and
# within a blob the decoder vectorizes ACROSS blocks (numpy ops over
# all blocks in lockstep, serial only in the per-block sample
# position — the same pattern as the PNG Paeth unfilter).

_IMA_STEPS = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
], dtype=np.int32)

_IMA_INDEX = np.array(
    [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int32
)


def _ima_step(nib: np.ndarray, pred: np.ndarray, idx: np.ndarray):
    """One IMA ADPCM decode step, vectorized over blocks: 4-bit codes
    ``nib`` update (pred, idx) in place and return the new samples."""
    step = _IMA_STEPS[idx]
    diff = step >> 3
    diff += np.where(nib & 1, step >> 2, 0)
    diff += np.where(nib & 2, step >> 1, 0)
    diff += np.where(nib & 4, step, 0)
    pred += np.where(nib & 8, -diff, diff)
    np.clip(pred, -32768, 32767, out=pred)
    idx += _IMA_INDEX[nib]
    np.clip(idx, 0, 88, out=idx)
    return pred


def decode_adpcm_ima(
    data: bytes, block_align: int, n_samples: int | None = None
) -> np.ndarray:
    """IMA ADPCM block stream (mono) → int16 samples.

    Each ``block_align``-byte block: 4-byte header (int16 predictor =
    sample 0, uint8 step index, reserved) then 4-bit codes, LOW nibble
    first (the WAV byte order). All blocks decode in lockstep —
    numpy over the block axis, serial only within the block."""
    ba = np.frombuffer(data, dtype=np.uint8)
    if block_align < 5 or len(ba) % block_align:
        raise ValueError("ADPCM payload is not whole blocks")
    blocks = ba.reshape(-1, block_align)
    nb = len(blocks)
    pred = blocks[:, :2].copy().view(np.int16)[:, 0].astype(np.int32)
    idx = blocks[:, 2].astype(np.int32)
    if (idx > 88).any():
        raise ValueError("ADPCM step index out of range")
    body = blocks[:, 4:]
    spb = (block_align - 4) * 2 + 1  # header sample + 2 per byte
    out = np.empty((nb, spb), dtype=np.int16)
    out[:, 0] = pred
    nibs = np.empty((nb, spb - 1), dtype=np.uint8)
    nibs[:, 0::2] = body & 0x0F
    nibs[:, 1::2] = body >> 4
    for s in range(spb - 1):
        out[:, s + 1] = _ima_step(nibs[:, s], pred, idx)
    flat = out.reshape(-1)
    return flat[:n_samples] if n_samples is not None else flat


def encode_adpcm_ima(samples: np.ndarray, block_align: int = 256) -> bytes:
    """int16 mono samples → IMA ADPCM block stream (greedy standard
    quantizer). Pads the tail block by repeating the last sample."""
    s = np.asarray(samples, dtype=np.int16)
    if s.ndim != 1 or not len(s):
        raise ValueError("encode_adpcm_ima expects non-empty mono int16")
    spb = (block_align - 4) * 2 + 1
    n_blocks = -(-len(s) // spb)
    padded = np.full(n_blocks * spb, s[-1], dtype=np.int16)
    padded[: len(s)] = s
    grid = padded.reshape(n_blocks, spb).astype(np.int32)
    pred = grid[:, 0].copy()
    # per-block starting step index: best match for the first delta
    first_diff = np.abs(grid[:, 1] - grid[:, 0])
    idx = np.searchsorted(_IMA_STEPS, first_diff).astype(np.int32)
    np.clip(idx, 0, 88, out=idx)
    header = np.zeros((n_blocks, 4), dtype=np.uint8)
    header[:, :2] = pred.astype(np.int16).view(np.uint8).reshape(n_blocks, 2)
    header[:, 2] = idx
    nibs = np.empty((n_blocks, spb - 1), dtype=np.uint8)
    for t in range(1, spb):
        step = _IMA_STEPS[idx]
        delta = grid[:, t] - pred
        nib = np.where(delta < 0, 8, 0).astype(np.uint8)
        diff = np.abs(delta)
        for bit, shift in ((4, 0), (2, 1), (1, 2)):
            th = step >> shift
            take = diff >= th
            nib |= np.where(take, bit, 0).astype(np.uint8)
            diff -= np.where(take, th, 0)
        _ima_step(nib, pred, idx)  # track the decoder's state exactly
        nibs[:, t - 1] = nib
    body = (nibs[:, 0::2] | (nibs[:, 1::2] << 4)).astype(np.uint8)
    return np.concatenate([header, body], axis=1).tobytes()


def encode_wav_adpcm(
    samples: np.ndarray, sample_rate: int = 8000, block_align: int = 256
) -> bytes:
    """int16 mono samples → RIFF WAVE (format tag 0x11, IMA ADPCM).

    Writes the spec's extended fmt chunk (cbSize=2, wSamplesPerBlock)
    and a fact chunk with the true sample count so the decoder can
    strip tail padding."""
    s = np.asarray(samples, dtype=np.int16)
    data = encode_adpcm_ima(s, block_align)
    spb = (block_align - 4) * 2 + 1
    byte_rate = (sample_rate * block_align + spb - 1) // spb
    fmt = struct.pack(
        "<HHIIHHHH", 0x11, 1, sample_rate, byte_rate, block_align, 4, 2, spb
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"fact" + struct.pack("<II", 4, len(s))
    body += b"data" + struct.pack("<I", len(data)) + data
    if len(data) & 1:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


def encode_wav_mulaw(enc_bytes: bytes | np.ndarray, sample_rate: int = 8000) -> bytes:
    """Raw mu-law code bytes → RIFF WAVE (format tag 7, mono 8-bit).

    Takes the ENCODED bytes (not PCM): pipelines that derive the code
    stream deterministically can round-trip bit-exactly; use
    :func:`mulaw_compress` first to encode linear audio."""
    enc = np.asarray(
        np.frombuffer(enc_bytes, np.uint8)
        if isinstance(enc_bytes, (bytes, bytearray))
        else enc_bytes,
        dtype=np.uint8,
    )
    data = enc.tobytes()
    # fmt tag 7 requires cbSize (0) per the WAVE spec
    fmt = struct.pack("<HHIIHHH", 7, 1, sample_rate, sample_rate, 1, 8, 0)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    if len(data) & 1:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


# ---------------------------------------------------------------------------
# PNG (RFC 2083 / W3C PNG spec) — a REAL compressed-format decoder:
# zlib inflate is in the stdlib, so PNG needs no external library.
# Supported: bit depth 8, color types 0 (gray), 2 (RGB), 3 (palette),
# 4 (gray+alpha), 6 (RGBA), non-interlaced. JPEG/MP4 remain the
# documented PIL/ffmpeg seam (entropy coding + DCT are out of scope
# for a stdlib decoder).
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def encode_png(img: np.ndarray, filter_type: int = 0) -> bytes:
    """(h, w, 3) uint8 → PNG bytes (color type 2, bit depth 8).

    ``filter_type`` picks the per-row filter (0 none, 1 sub, 2 up,
    3 average, 4 paeth) so tests can exercise every unfilter branch of
    :func:`decode_png` against known pixels; real encoders choose per
    row, which changes size, not semantics."""
    import zlib

    img = np.asarray(img, dtype=np.uint8)
    h, w, c = img.shape
    assert c == 3, "encode_png expects (h, w, 3)"
    bpp = 3
    raw = bytearray()
    prev = np.zeros(w * bpp, dtype=np.int32)
    for r in range(h):
        line = img[r].reshape(-1).astype(np.int32)
        left = np.concatenate([np.zeros(bpp, np.int32), line[:-bpp]])
        ul = np.concatenate([np.zeros(bpp, np.int32), prev[:-bpp]])
        if filter_type == 0:
            filt = line
        elif filter_type == 1:
            filt = line - left
        elif filter_type == 2:
            filt = line - prev
        elif filter_type == 3:
            filt = line - (left + prev) // 2
        elif filter_type == 4:
            p = left + prev - ul
            pa_, pb, pc_ = np.abs(p - left), np.abs(p - prev), np.abs(p - ul)
            pred = np.where(
                (pa_ <= pb) & (pa_ <= pc_), left, np.where(pb <= pc_, prev, ul)
            )
            filt = line - pred
        else:
            raise ValueError(f"unknown filter {filter_type}")
        raw.append(filter_type)
        raw += (filt % 256).astype(np.uint8).tobytes()
        prev = line

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + ctype
            + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        _PNG_SIG
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(raw)))
        + chunk(b"IEND", b"")
    )


def _png_unfilter(raw: np.ndarray, h: int, w: int, bpp: int) -> np.ndarray:
    """Per-row unfilter (spec §6): returns (h, w*bpp) uint8. Sub is an
    exact per-lane cumsum mod 256 (addition mod 256 commutes with
    cumsum); up is one vector add; average/paeth carry a left-pixel
    serial dependency → per-pixel loop of bpp-lane vector ops."""
    stride = w * bpp + 1
    rows = raw.reshape(h, stride)
    out = np.zeros((h, w * bpp), dtype=np.uint8)
    prev = np.zeros(w * bpp, dtype=np.int32)
    for r in range(h):
        ft = int(rows[r, 0])
        line = rows[r, 1:].astype(np.int32)
        if ft == 0:
            rec = line
        elif ft == 1:  # sub: recon[i] = raw[i] + recon[i-bpp]
            rec = np.cumsum(line.reshape(w, bpp), axis=0).reshape(-1) % 256
        elif ft == 2:  # up
            rec = (line + prev) % 256
        elif ft == 3:  # average
            rec = np.empty(w * bpp, dtype=np.int32)
            left = np.zeros(bpp, dtype=np.int32)
            lw = line.reshape(w, bpp)
            pw = prev.reshape(w, bpp)
            rw = rec.reshape(w, bpp)
            for x in range(w):
                left = (lw[x] + (left + pw[x]) // 2) % 256
                rw[x] = left
        elif ft == 4:  # paeth
            rec = np.empty(w * bpp, dtype=np.int32)
            left = np.zeros(bpp, dtype=np.int32)
            ulp = np.zeros(bpp, dtype=np.int32)
            lw = line.reshape(w, bpp)
            pw = prev.reshape(w, bpp)
            rw = rec.reshape(w, bpp)
            for x in range(w):
                p = left + pw[x] - ulp
                pa_ = np.abs(p - left)
                pb = np.abs(p - pw[x])
                pc_ = np.abs(p - ulp)
                pred = np.where(
                    (pa_ <= pb) & (pa_ <= pc_),
                    left,
                    np.where(pb <= pc_, pw[x], ulp),
                )
                left = (lw[x] + pred) % 256
                rw[x] = left
                ulp = pw[x]
        else:
            raise ValueError(f"invalid PNG filter type {ft}")
        out[r] = rec.astype(np.uint8)
        prev = rec
    return out


def decode_png(data: bytes) -> np.ndarray:
    """PNG bytes → (h, w, 3) uint8. Gray/palette/alpha normalize to
    RGB (alpha dropped — these stages feed RGB feature extractors).
    Raises ``ValueError`` on anything malformed (CRC mismatch,
    truncation, unsupported depth/interlace) — the decode stages turn
    that into a ``decode_error`` row, never a task failure."""
    import zlib

    if data[: len(_PNG_SIG)] != _PNG_SIG:
        raise ValueError("not a PNG: bad signature")
    pos = len(_PNG_SIG)
    ihdr = None
    plte = None
    idat = bytearray()
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if len(body) != length:
            raise ValueError("truncated PNG chunk")
        crc = data[pos + 8 + length : pos + 12 + length]
        if len(crc) != 4 or struct.unpack(">I", crc)[0] != (
            zlib.crc32(ctype + body) & 0xFFFFFFFF
        ):
            raise ValueError(f"PNG CRC mismatch in {ctype!r}")
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif ctype == b"PLTE":
            plte = np.frombuffer(body, np.uint8).reshape(-1, 3)
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if ihdr is None or not idat:
        raise ValueError("missing IHDR/IDAT")
    w, h, depth, ctype_i, comp, filt, interlace = ihdr
    _check_dims(w, h, "PNG")
    if depth != 8:
        raise ValueError(f"only bit depth 8 supported, got {depth}")
    if comp != 0 or filt != 0:
        raise ValueError("invalid compression/filter method")
    if interlace != 0:
        raise ValueError("Adam7 interlace not supported")
    nch = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}.get(ctype_i)
    if nch is None:
        raise ValueError(f"unknown color type {ctype_i}")
    try:
        raw = np.frombuffer(zlib.decompress(bytes(idat)), np.uint8)
    except zlib.error as exc:  # CRCs can be valid over a bad stream
        raise ValueError(f"corrupt PNG IDAT stream: {exc}") from exc
    if raw.size != h * (w * nch + 1):
        raise ValueError("PNG pixel data size mismatch")
    px = _png_unfilter(raw, h, w, nch).reshape(h, w, nch)
    if ctype_i == 0:
        return np.repeat(px, 3, axis=2)
    if ctype_i == 2:
        return px
    if ctype_i == 3:
        if plte is None:
            raise ValueError("palette image without PLTE")
        idx = px[:, :, 0]
        if int(idx.max(initial=0)) >= len(plte):
            raise ValueError("palette index out of range")
        return plte[idx]
    if ctype_i == 4:
        return np.repeat(px[:, :, :1], 3, axis=2)
    return px[:, :, :3]  # RGBA → drop alpha


# ---------------------------------------------------------------------------
# JPEG (baseline sequential DCT, ITU-T T.81)
# ---------------------------------------------------------------------------
# A REAL entropy-coded codec with no external library: 8x8 DCT as a
# numpy matrix product, Annex-K quantization tables scaled by the
# libjpeg quality formula, zigzag + DC-differential + AC run-length
# symbols, canonical Huffman coding with the Annex-K typical tables,
# JFIF marker framing, byte stuffing, and optional restart markers.
# Scope (asserted at decode, raised as NotImplementedError beyond it):
# 8-bit precision, grayscale or YCbCr 4:4:4, sequential baseline
# (SOF0) only — progressive (SOF2), subsampled chroma and arithmetic
# coding stay behind the documented PIL/libjpeg seam. Encode and
# decode share no state beyond these published constants, so the
# round-trip tests exercise both directions of every code path.

_JPEG_QL = np.array([  # Annex K.1 luminance quantization
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.int32)

_JPEG_QC = np.array([  # Annex K.2 chrominance quantization
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
], dtype=np.int32)

# Annex K.3-K.6 typical Huffman tables: (BITS counts for lengths
# 1..16, HUFFVAL symbol list)
_DC_L_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_L_VALS = list(range(12))
_DC_C_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_C_VALS = list(range(12))
_AC_L_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125]
_AC_L_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
    0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]
_AC_C_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119]
_AC_C_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
    0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
    0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
    0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
    0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]


def _zigzag_indices() -> np.ndarray:
    """Flat (row*8+col) indices in JPEG zigzag scan order."""
    rc = sorted(
        ((r, c) for r in range(8) for c in range(8)),
        key=lambda p: (p[0] + p[1], p[0] if (p[0] + p[1]) % 2 else p[1]),
    )
    return np.array([r * 8 + c for r, c in rc], dtype=np.int64)


_ZIGZAG = _zigzag_indices()


def _dct_matrix() -> np.ndarray:
    """Orthonormal 8x8 DCT-II matrix D: F = D @ f @ D.T."""
    x = np.arange(8)
    d = np.cos((2 * x[None, :] + 1) * x[:, None] * np.pi / 16) / 2.0
    d[0] /= np.sqrt(2.0)
    return d


_DCT = _dct_matrix()


def _quality_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """Annex-K tables scaled by the libjpeg quality formula."""
    q = min(100, max(1, int(quality)))
    scale = 5000 // q if q < 50 else 200 - 2 * q
    ql = np.clip((_JPEG_QL * scale + 50) // 100, 1, 255)
    qc = np.clip((_JPEG_QC * scale + 50) // 100, 1, 255)
    return ql.astype(np.int32), qc.astype(np.int32)


def _huff_encode_table(bits: list, vals: list) -> dict:
    """symbol -> (code, length) from a canonical (BITS, HUFFVAL) pair."""
    table, code, k = {}, 0, 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            table[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return table


def _huff_decode_table(bits: list, vals: list) -> tuple:
    """(mincode, maxcode, valptr, vals) per T.81 F.16 decode procedure."""
    mincode = [0] * 17
    maxcode = [-1] * 17
    valptr = [0] * 17
    code, k = 0, 0
    for length in range(1, 17):
        n = bits[length - 1]
        if n:
            valptr[length] = k
            mincode[length] = code
            code += n
            k += n
            maxcode[length] = code - 1
        code <<= 1
    return mincode, maxcode, valptr, list(vals)


class _BitWriter:
    """MSB-first bit accumulator with JPEG byte stuffing (FF -> FF 00)."""

    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        if not length:
            return
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            byte = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)
            self.nbits -= 8
            self.acc &= (1 << self.nbits) - 1

    def flush(self) -> None:
        if self.nbits:  # pad final byte with 1-bits (T.81 F.1.2.3)
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)


class _BitReader:
    """MSB-first reader over a destuffed entropy segment."""

    def __init__(self, data: bytes) -> None:
        self.bits = np.unpackbits(np.frombuffer(data, np.uint8))
        self.pos = 0

    def read_bit(self) -> int:
        if self.pos >= len(self.bits):
            raise ValueError("truncated JPEG entropy segment")
        b = int(self.bits[self.pos])
        self.pos += 1
        return b

    def receive(self, n: int) -> int:
        if not n:
            return 0
        if self.pos + n > len(self.bits):
            raise ValueError("truncated JPEG entropy segment")
        chunk = self.bits[self.pos : self.pos + n]
        self.pos += n
        return int(chunk @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64)))


def _receive_extend(reader: "_BitReader", t: int, limit: int = 10) -> int:
    """T.81 F.12: read a t-bit magnitude and map it to its signed value.
    A category above the 8-bit baseline ``limit`` (10 for AC
    coefficients, 11 for DC differences) is a corrupt stream."""
    if t > limit:
        raise ValueError(f"JPEG magnitude category {t} > {limit}")
    v = reader.receive(t)
    return v - (1 << t) + 1 if t and v < (1 << (t - 1)) else v


def _decode_dc(reader: "_BitReader", tab: tuple, pred: int) -> int:
    """The predictor plus one decoded DC difference; a sum outside the
    8-bit baseline range (T.81 F.1.2) is a corrupt stream."""
    dc = pred + _receive_extend(reader, _huff_decode(reader, tab), 11)
    if abs(dc) > 2047:
        raise ValueError(f"JPEG DC coefficient {dc} out of the 8-bit range")
    return dc


def _csize(v: int) -> int:
    """Magnitude category (number of bits) of a coefficient."""
    return int(abs(v)).bit_length()


def _forward_blocks(plane: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """Level-shift, 8x8 DCT and quantize a (h, w) plane (h, w multiples
    of 8) -> (n_blocks, 64) int32 coefficients in zigzag order, blocks
    in raster (left-to-right, top-to-bottom) order."""
    h, w = plane.shape
    blocks = (
        plane.reshape(h // 8, 8, w // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
        .astype(np.float64)
        - 128.0
    )
    coeffs = np.einsum("ux,nxy,vy->nuv", _DCT, blocks, _DCT)
    quant = np.round(coeffs / qtab[None, :, :]).astype(np.int32)
    return quant.reshape(-1, 64)[:, _ZIGZAG]


def _encode_block(
    w: "_BitWriter", zz: np.ndarray, pred: int, dc_tab: dict, ac_tab: dict
) -> int:
    """Huffman-encode one zigzag block; returns the new DC predictor."""
    dc = int(zz[0])
    diff = dc - pred
    t = _csize(diff)
    code, length = dc_tab[t]
    w.write(code, length)
    if t:
        w.write(diff if diff >= 0 else diff + (1 << t) - 1, t)
    nz = np.flatnonzero(zz[1:])  # positions 0..62 for coeffs 1..63
    prev = 0
    for idx in nz:
        run = int(idx) - prev
        prev = int(idx) + 1
        while run > 15:
            zcode, zlen = ac_tab[0xF0]  # ZRL: 16 zeros
            w.write(zcode, zlen)
            run -= 16
        v = int(zz[1 + idx])
        t = _csize(v)
        code, length = ac_tab[(run << 4) | t]
        w.write(code, length)
        w.write(v if v >= 0 else v + (1 << t) - 1, t)
    if prev < 63:
        code, length = ac_tab[0x00]  # EOB
        w.write(code, length)
    return dc


def _seg(marker: int, payload: bytes) -> bytes:
    return struct.pack(">HH", marker, len(payload) + 2) + payload


_SUBSAMPLING = {
    # luma (h, v); chroma is always (1, 1)
    "444": (1, 1),
    "422": (2, 1),
    "420": (2, 2),
}


def _jpeg_prepare(img: np.ndarray, quality: int, subsampling: str) -> tuple:
    """Shared forward path of both JPEG encoders: color transform,
    chroma downsample, padding, DCT + quantization. Returns
    (h, w, factors, hmax, vmax, mcus_x, mcus_y, ql, qc, zz_per_comp)
    — ``zz_per_comp[ci]`` is that component's (n_blocks, 64) zigzag
    coefficients over its padded block grid."""
    img = np.asarray(img, dtype=np.uint8)
    gray = img.ndim == 2
    if not gray and (img.ndim != 3 or img.shape[2] != 3):
        raise ValueError("encode_jpeg expects (h, w, 3) RGB or (h, w) gray")
    if subsampling not in _SUBSAMPLING:
        raise ValueError(f"subsampling must be one of {set(_SUBSAMPLING)}")
    h, w = img.shape[:2]
    if not (h and w):
        raise ValueError("empty image")
    if gray:
        factors = [(1, 1)]
        full = [img.astype(np.float64)]
    else:
        factors = [_SUBSAMPLING[subsampling], (1, 1), (1, 1)]
        rgb = img.astype(np.float64)
        r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
        full = [
            0.299 * r + 0.587 * g + 0.114 * b,
            128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b,
            128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b,
        ]
    hmax = max(f[0] for f in factors)
    vmax = max(f[1] for f in factors)
    mcus_x, mcus_y = -(-w // (8 * hmax)), -(-h // (8 * vmax))
    planes = []
    for (fh, fv), p in zip(factors, full):
        if (fh, fv) != (hmax, vmax):
            # box-average chroma down by the sampling ratio (pad to a
            # multiple of the ratio first so the reshape is exact)
            ry, rx = vmax // fv, hmax // fh
            pp = np.pad(
                p,
                ((0, -h % ry), (0, -w % rx)),
                mode="edge",
            )
            p = pp.reshape(
                pp.shape[0] // ry, ry, pp.shape[1] // rx, rx
            ).mean(axis=(1, 3))
        cph, cpw = mcus_y * fv * 8, mcus_x * fh * 8
        planes.append(
            np.pad(
                p,
                ((0, cph - p.shape[0]), (0, cpw - p.shape[1])),
                mode="edge",
            )
        )
    ql, qc = _quality_tables(quality)
    qtabs = [ql] + [qc, qc][: len(planes) - 1]
    zz_per_comp = [
        _forward_blocks(np.clip(p, 0, 255), q) for p, q in zip(planes, qtabs)
    ]
    return h, w, factors, hmax, vmax, mcus_x, mcus_y, ql, qc, zz_per_comp


def encode_jpeg(
    img: np.ndarray,
    quality: int = 85,
    restart_interval: int = 0,
    subsampling: str = "444",
) -> bytes:
    """(h, w, 3) RGB or (h, w) grayscale uint8 -> baseline JFIF bytes.

    YCbCr with ``subsampling`` "444" (no subsampling), "422"
    (chroma halved horizontally) or "420" (halved both ways — the
    dominant profile in crawled JPEGs; chroma is box-averaged down),
    Annex-K quantization scaled by ``quality`` (libjpeg formula) and
    Annex-K typical Huffman tables. ``restart_interval`` > 0 emits
    DRI + RSTn markers every that many MCUs (exercises the decoder's
    restart resync path)."""
    (h, w, factors, hmax, vmax, mcus_x, mcus_y, ql, qc,
     zz_per_comp) = _jpeg_prepare(img, quality, subsampling)
    n_comp = len(zz_per_comp)

    dc_l = _huff_encode_table(_DC_L_BITS, _DC_L_VALS)
    ac_l = _huff_encode_table(_AC_L_BITS, _AC_L_VALS)
    dc_c = _huff_encode_table(_DC_C_BITS, _DC_C_VALS)
    ac_c = _huff_encode_table(_AC_C_BITS, _AC_C_VALS)
    enc_tabs = [(dc_l, ac_l)] + [(dc_c, ac_c)] * (n_comp - 1)

    out = bytearray(b"\xff\xd8")  # SOI
    out += _seg(  # APP0 / JFIF 1.1
        0xFFE0, b"JFIF\x00\x01\x01\x00" + struct.pack(">HHBB", 1, 1, 0, 0)
    )
    out += _seg(0xFFDB, b"\x00" + bytes(ql.reshape(64)[_ZIGZAG].tolist()))
    if n_comp > 1:
        out += _seg(0xFFDB, b"\x01" + bytes(qc.reshape(64)[_ZIGZAG].tolist()))
    sof = struct.pack(">BHHB", 8, h, w, n_comp)
    for ci, (fh, fv) in enumerate(factors):
        sof += struct.pack(
            ">BBB", ci + 1, (fh << 4) | fv, 0 if ci == 0 else 1
        )
    out += _seg(0xFFC0, sof)
    for tc_th, (bits, vals) in (
        (0x00, (_DC_L_BITS, _DC_L_VALS)),
        (0x10, (_AC_L_BITS, _AC_L_VALS)),
        (0x01, (_DC_C_BITS, _DC_C_VALS)),
        (0x11, (_AC_C_BITS, _AC_C_VALS)),
    ):
        if tc_th & 0x01 and n_comp == 1:
            continue
        out += _seg(0xFFC4, bytes([tc_th] + bits + list(vals)))
    if restart_interval:
        out += _seg(0xFFDD, struct.pack(">H", restart_interval))
    sos = bytes([n_comp])
    for ci in range(n_comp):
        sos += bytes([ci + 1, 0x00 if ci == 0 else 0x11])
    out += _seg(0xFFDA, sos + b"\x00\x3f\x00")

    # general MCU structure (ITU-T T.81 A.2.3): per MCU, each
    # component contributes v_i x h_i blocks in raster order, indexed
    # into that component's own block grid (mcus_y*v_i, mcus_x*h_i)
    n_mcu = mcus_x * mcus_y
    writer = _BitWriter()
    preds = [0] * n_comp
    rst = 0
    for m in range(n_mcu):
        if restart_interval and m and m % restart_interval == 0:
            writer.flush()
            out += writer.out
            writer = _BitWriter()
            out += struct.pack(">H", 0xFFD0 + rst)
            rst = (rst + 1) & 7
            preds = [0] * n_comp
        my, mx = divmod(m, mcus_x)
        for ci, (dc_tab, ac_tab) in enumerate(enc_tabs):
            fh, fv = factors[ci]
            row_blocks = mcus_x * fh
            for by in range(fv):
                for bx in range(fh):
                    bi = (my * fv + by) * row_blocks + mx * fh + bx
                    preds[ci] = _encode_block(
                        writer, zz_per_comp[ci][bi], preds[ci],
                        dc_tab, ac_tab,
                    )
    writer.flush()
    out += writer.out
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# progressive AC scans need EOBn symbols (0x10..0xE0) that the
# Annex-K baseline tables lack; a flat all-length-8 canonical table
# over every (run, size) pair used in progressive coding is valid
# (176 codes < 255, so the all-ones length-8 code stays unused) and
# keeps the encoder table-free. Compression is slightly worse than a
# tuned table — irrelevant for a correctness-first codec.
_PROG_AC_BITS = [0] * 7 + [176] + [0] * 8
_PROG_AC_VALS = [(r << 4) | s for r in range(16) for s in range(11)]


def _emit_eobrun(writer, ac_tab, eobrun: int, bits: list) -> None:
    """T.81 G.1.2.2 EOBn: run length as 2^n + appended low bits, then
    any buffered correction bits (refinement scans)."""
    if eobrun:
        nbits = eobrun.bit_length() - 1
        code, ln = ac_tab[nbits << 4]
        writer.write(code, ln)
        if nbits:
            writer.write(eobrun - (1 << nbits), nbits)
        for b in bits:
            writer.write(b, 1)
        bits.clear()


def encode_jpeg_progressive(
    img: np.ndarray, quality: int = 85, subsampling: str = "444"
) -> bytes:
    """(h, w, 3) RGB or (h, w) grayscale uint8 -> progressive (SOF2)
    JFIF bytes.

    Scan script (spectral selection + one successive-approximation
    level, the same shape libjpeg's default script uses): interleaved
    DC first at Al=1, DC refinement, then per component an AC 1..63
    first scan at Al=1 and an AC refinement — so every progressive
    decode path (EOB runs, ZRL-in-refinement, correction bits, newly
    significant insertions) is exercised by a round trip. The
    quantized coefficients are IDENTICAL to the baseline encoder's at
    the same quality/subsampling, so baseline and progressive decodes
    of the same image must match bit-for-bit — the codec's strongest
    self-check."""
    (h, w, factors, hmax, vmax, mcus_x, mcus_y, ql, qc,
     zz) = _jpeg_prepare(img, quality, subsampling)
    n_comp = len(zz)
    comps = [
        (ci + 1, fh, fv, 0 if ci == 0 else 1)
        for ci, (fh, fv) in enumerate(factors)
    ]
    dc_enc = [_huff_encode_table(_DC_L_BITS, _DC_L_VALS)] + [
        _huff_encode_table(_DC_C_BITS, _DC_C_VALS)
    ] * (n_comp - 1)
    ac_enc = _huff_encode_table(_PROG_AC_BITS, _PROG_AC_VALS)

    out = bytearray(b"\xff\xd8")
    out += _seg(
        0xFFE0, b"JFIF\x00\x01\x01\x00" + struct.pack(">HHBB", 1, 1, 0, 0)
    )
    out += _seg(0xFFDB, b"\x00" + bytes(ql.reshape(64)[_ZIGZAG].tolist()))
    if n_comp > 1:
        out += _seg(0xFFDB, b"\x01" + bytes(qc.reshape(64)[_ZIGZAG].tolist()))
    sof = struct.pack(">BHHB", 8, h, w, n_comp)
    for cid, fh, fv, tq in comps:
        sof += struct.pack(">BBB", cid, (fh << 4) | fv, tq)
    out += _seg(0xFFC2, sof)  # SOF2: progressive DCT
    out += _seg(0xFFC4, bytes([0x00] + _DC_L_BITS + list(_DC_L_VALS)))
    if n_comp > 1:
        out += _seg(0xFFC4, bytes([0x01] + _DC_C_BITS + list(_DC_C_VALS)))
    out += _seg(0xFFC4, bytes([0x10] + _PROG_AC_BITS + list(_PROG_AC_VALS)))

    def sos(scan_cis, ss, se, ah, al):
        hdr = bytes([len(scan_cis)])
        for ci in scan_cis:
            td = 0 if ci == 0 else 1
            hdr += bytes([ci + 1, (td << 4) | 0x00])
        return _seg(0xFFDA, hdr + bytes([ss, se, (ah << 4) | al]))

    all_cis = list(range(n_comp))
    units = lambda cis: _scan_units(  # noqa: E731 - local shorthand
        comps, cis, hmax, vmax, mcus_x, mcus_y, h, w
    )

    # scan 1: DC first, interleaved, successive approximation Al=1
    out += sos(all_cis, 0, 0, 0, 1)
    writer = _BitWriter()
    preds: dict = {}
    for unit in units(all_cis):
        for ci, bi in unit:
            v = int(zz[ci][bi][0]) >> 1  # arithmetic shift (T.81 G.1.2.1)
            diff = v - preds.get(ci, 0)
            preds[ci] = v
            t = _csize(diff)
            code, ln = dc_enc[ci][t]
            writer.write(code, ln)
            if t:
                writer.write(diff if diff >= 0 else diff + (1 << t) - 1, t)
    writer.flush()
    out += writer.out

    # scan 2: DC refinement — one raw bit per block, no Huffman
    out += sos(all_cis, 0, 0, 1, 0)
    writer = _BitWriter()
    for unit in units(all_cis):
        for ci, bi in unit:
            writer.write(int(zz[ci][bi][0]) & 1, 1)
    writer.flush()
    out += writer.out

    # per component: AC first scan (band 1..63 at Al=1)
    for ci in range(n_comp):
        out += sos([ci], 1, 63, 0, 1)
        writer = _BitWriter()
        eobrun = 0
        for unit in units([ci]):
            (_, bi), = unit
            band = zz[ci][bi][1:]
            vals = np.sign(band) * (np.abs(band) >> 1)
            nz = np.flatnonzero(vals)
            if not len(nz):
                eobrun += 1
                if eobrun == 0x7FFF:
                    _emit_eobrun(writer, ac_enc, eobrun, [])
                    eobrun = 0
                continue
            _emit_eobrun(writer, ac_enc, eobrun, [])
            eobrun = 0
            run = 0
            for k in range(int(nz[-1]) + 1):
                v = int(vals[k])
                if v == 0:
                    run += 1
                    continue
                while run > 15:
                    code, ln = ac_enc[0xF0]
                    writer.write(code, ln)
                    run -= 16
                t = _csize(v)
                code, ln = ac_enc[(run << 4) | t]
                writer.write(code, ln)
                writer.write(v if v >= 0 else v + (1 << t) - 1, t)
                run = 0
            if int(nz[-1]) < 62:
                eobrun = 1  # EOB for this block, mergeable with next
        _emit_eobrun(writer, ac_enc, eobrun, [])
        writer.flush()
        out += writer.out

    # per component: AC refinement (Ah=1 -> Al=0), the jcphuff
    # algorithm: correction bits for already-significant coefficients
    # ride along with ZRL / newly-significant emissions or the EOBn
    for ci in range(n_comp):
        out += sos([ci], 1, 63, 1, 0)
        writer = _BitWriter()
        eobrun = 0
        pend: list = []  # correction bits buffered across the EOB run
        for unit in units([ci]):
            (_, bi), = unit
            band = zz[ci][bi][1:]
            absv = np.abs(band)
            newly = np.flatnonzero(absv == 1)
            eob_k = int(newly[-1]) if len(newly) else -1
            r = 0
            br: list = []
            for k in range(63):
                temp = int(absv[k])
                if temp == 0:
                    r += 1
                    continue
                while r > 15 and k <= eob_k:
                    _emit_eobrun(writer, ac_enc, eobrun, pend)
                    eobrun = 0
                    code, ln = ac_enc[0xF0]
                    writer.write(code, ln)
                    r -= 16
                    for b in br:
                        writer.write(b, 1)
                    br = []
                if temp > 1:
                    br.append(temp & 1)  # previously significant
                    continue
                _emit_eobrun(writer, ac_enc, eobrun, pend)
                eobrun = 0
                code, ln = ac_enc[(r << 4) | 1]
                writer.write(code, ln)
                writer.write(1 if int(band[k]) >= 0 else 0, 1)
                for b in br:
                    writer.write(b, 1)
                br = []
                r = 0
            if r > 0 or br:
                eobrun += 1
                pend.extend(br)
                if eobrun == 0x7FFF:
                    _emit_eobrun(writer, ac_enc, eobrun, pend)
                    eobrun = 0
        _emit_eobrun(writer, ac_enc, eobrun, pend)
        writer.flush()
        out += writer.out

    out += b"\xff\xd9"
    return bytes(out)


def _huff_decode(reader: "_BitReader", tab: tuple) -> int:
    """One symbol via the T.81 F.16 mincode/maxcode walk."""
    mincode, maxcode, valptr, vals = tab
    code = reader.read_bit()
    length = 1
    while code > maxcode[length]:
        if length >= 16:
            raise ValueError("invalid Huffman code in JPEG stream")
        code = (code << 1) | reader.read_bit()
        length += 1
    return vals[valptr[length] + code - mincode[length]]


def _decode_block(
    reader: "_BitReader", pred: int, dc_tab: tuple, ac_tab: tuple
) -> tuple:
    """One block's zigzag coefficients; returns (zz int32[64], new_pred)."""
    zz = np.zeros(64, np.int32)
    dc = _decode_dc(reader, dc_tab, pred)
    zz[0] = dc
    k = 1
    while k < 64:
        rs = _huff_decode(reader, ac_tab)
        run, size = rs >> 4, rs & 0x0F
        if size == 0:
            if run == 15:  # ZRL
                k += 16
                continue
            break  # EOB
        k += run
        if k > 63:
            raise ValueError("AC coefficient index overflow")
        zz[k] = _receive_extend(reader, size)
        k += 1
    return zz, dc


def _entropy_segments(data: bytes, pos: int) -> tuple:
    """Destuffed entropy segments from SOS payload end to the next real
    marker, split at restart markers. Returns (segments, marker_pos) —
    ``marker_pos`` points at the 0xFF of the terminating marker (the
    next SOS/DHT/EOI for progressive multi-scan files)."""
    segs, cur = [], bytearray()
    n = len(data)
    while pos < n:
        byte = data[pos]
        if byte != 0xFF:
            cur.append(byte)
            pos += 1
            continue
        nxt = data[pos + 1] if pos + 1 < n else None
        if nxt == 0x00:  # stuffed FF
            cur.append(0xFF)
            pos += 2
        elif nxt is not None and 0xD0 <= nxt <= 0xD7:  # RSTn
            segs.append(bytes(cur))
            cur = bytearray()
            pos += 2
        else:  # any real marker ends the scan's entropy data
            break
    segs.append(bytes(cur))
    return segs, pos


def _scan_units(comps, scan_cis, hmax, vmax, mcus_x, mcus_y, h, w):
    """Restart-unit sequence for one scan: each unit is a list of
    (comp_index, block_index-into-the-padded-grid) pairs.

    Interleaved scans (ns > 1): one unit per MCU, each component
    contributing fv x fh blocks (T.81 A.2.3). Non-interleaved scans
    (ns == 1): one unit per block, iterating ONLY the component's true
    block extent (ceil of its sampled dimensions — the MCU-padded
    columns are not coded in single-component scans, T.81 A.2.2)."""
    if len(scan_cis) > 1:
        for m in range(mcus_x * mcus_y):
            my, mx = divmod(m, mcus_x)
            unit = []
            for ci in scan_cis:
                _, fh, fv, _ = comps[ci]
                row_blocks = mcus_x * fh
                for by in range(fv):
                    for bx in range(fh):
                        unit.append(
                            (ci, (my * fv + by) * row_blocks + mx * fh + bx)
                        )
            yield unit
    else:
        ci = scan_cis[0]
        _, fh, fv, _ = comps[ci]
        bw = (-(-w * fh // hmax) + 7) // 8
        bh = (-(-h * fv // vmax) + 7) // 8
        row_blocks = mcus_x * fh
        for by in range(bh):
            for bx in range(bw):
                yield [(ci, by * row_blocks + bx)]


def _decode_scan_progressive(
    segs, units, coef, dec_tabs, ss, se, ah, al, restart_interval
):
    """One progressive scan (T.81 G.2 / the public libjpeg phuff
    algorithms) applied to the coefficient store ``coef``.

    DC first: baseline DC diff coding of (coeff >> Al). DC refine: one
    raw bit per block ORed into bit Al. AC first: EOB-run coding of
    the Ss..Se band at precision Al. AC refine: correction bits for
    already-significant coefficients + newly-significant insertions."""
    reader = _BitReader(segs[0])
    seg_idx = 0
    preds: dict = {}
    eobrun = 0
    p1 = 1 << al
    m1 = -p1
    for u, unit in enumerate(units):
        if restart_interval and u and u % restart_interval == 0:
            seg_idx += 1
            if seg_idx >= len(segs):
                raise ValueError("missing JPEG restart segment")
            reader = _BitReader(segs[seg_idx])
            preds = {}
            eobrun = 0
        for ci, bi in unit:
            zz = coef[ci][bi]
            if ss == 0:  # DC scan (Se must be 0)
                if ah == 0:
                    preds[ci] = _decode_dc(reader, dec_tabs[ci][0], preds.get(ci, 0))
                    zz[0] = preds[ci] << al
                elif reader.read_bit():
                    zz[0] |= p1
                continue
            if ah == 0:  # AC first scan
                if eobrun:
                    eobrun -= 1
                    continue
                k = ss
                while k <= se:
                    rs = _huff_decode(reader, dec_tabs[ci][1])
                    r, s = rs >> 4, rs & 0x0F
                    if s == 0:
                        if r != 15:
                            eobrun = (1 << r) - 1
                            if r:
                                eobrun += reader.receive(r)
                            break
                        k += 16  # ZRL
                        continue
                    k += r
                    if k > se:
                        raise ValueError("AC index overflow in scan")
                    zz[k] = _receive_extend(reader, s) << al
                    k += 1
                continue
            # AC refinement scan
            k = ss
            if eobrun == 0:
                while k <= se:
                    rs = _huff_decode(reader, dec_tabs[ci][1])
                    r, s = rs >> 4, rs & 0x0F
                    if s:
                        if s != 1:
                            raise ValueError(
                                "bad newly-significant size in AC refine"
                            )
                        s = p1 if reader.read_bit() else m1
                    elif r != 15:
                        eobrun = 1 << r
                        if r:
                            eobrun += reader.receive(r)
                        break
                    # advance r zero-history positions (16 for ZRL),
                    # correcting already-nonzero coeffs along the way
                    while k <= se:
                        if zz[k]:
                            if reader.read_bit() and not (zz[k] & p1):
                                zz[k] += p1 if zz[k] >= 0 else m1
                        else:
                            r -= 1
                            if r < 0:
                                break
                        k += 1
                    if s and k <= se:
                        zz[k] = s
                    k += 1
            if eobrun > 0:
                while k <= se:
                    if zz[k]:
                        if reader.read_bit() and not (zz[k] & p1):
                            zz[k] += p1 if zz[k] >= 0 else m1
                    k += 1
                eobrun -= 1


def decode_jpeg(data: bytes) -> np.ndarray:
    """JFIF bytes -> (h, w, 3) uint8 RGB (grayscale expands).

    Corrupt streams ALWAYS raise ValueError (fuzz-enforced contract:
    internal KeyError/IndexError/OverflowError/struct.error from
    corrupted bytes are converted at this boundary so the stages'
    soft-error dead-lettering stays reliable).

    Supports the real-world profiles: baseline SOF0 AND progressive
    SOF2 (spectral selection + successive approximation, EOB runs),
    8-bit, 1 or 3 components at any integer sampling ratio — 4:4:4,
    4:2:2 and 4:2:0 all decode via the spec's general MCU structure
    (T.81 A.2.3), with nearest-neighbor chroma upsampling. 8-bit DQT
    tables, restart markers, multi-scan files. Extended-sequential /
    lossless / arithmetic-coded SOFn and 16-bit DQT raise
    NotImplementedError — the documented PIL/libjpeg seam."""
    try:
        return _decode_jpeg_inner(data)
    except (KeyError, IndexError, OverflowError, struct.error) as exc:
        raise ValueError(f"corrupt JPEG stream: {exc!r}") from exc


def _decode_jpeg_inner(data: bytes) -> np.ndarray:
    if len(data) < 4 or data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    qtabs: dict[int, np.ndarray] = {}
    htabs: dict[tuple, tuple] = {}
    sof = None
    progressive = False
    restart_interval = 0
    coef = None  # per-comp (n_blocks, 64) int32 zigzag coefficients
    geo = None  # (hmax, vmax, mcus_x, mcus_y)
    saw_scan = False
    pos = 2
    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            raise ValueError("bad marker alignment")
        marker = data[pos + 1]
        if marker == 0xD9:  # EOI
            break
        seg_len = struct.unpack(">H", data[pos + 2 : pos + 4])[0]
        body = data[pos + 4 : pos + 2 + seg_len]
        pos += 2 + seg_len
        if marker == 0xDB:  # DQT (possibly several tables per segment)
            i = 0
            while i < len(body):
                pq, tq = body[i] >> 4, body[i] & 0x0F
                if pq != 0:
                    raise NotImplementedError("16-bit DQT not supported")
                zz = np.frombuffer(body[i + 1 : i + 65], np.uint8)
                tab = np.zeros(64, np.int32)
                tab[_ZIGZAG] = zz
                qtabs[tq] = tab.reshape(8, 8)
                i += 65
        elif marker == 0xC4:  # DHT
            i = 0
            while i < len(body):
                tc, th = body[i] >> 4, body[i] & 0x0F
                bits = list(body[i + 1 : i + 17])
                nv = sum(bits)
                vals = list(body[i + 17 : i + 17 + nv])
                htabs[(tc, th)] = _huff_decode_table(bits, vals)
                i += 17 + nv
        elif marker in (0xC0, 0xC2):  # SOF0 baseline / SOF2 progressive
            progressive = marker == 0xC2
            prec, h, w, nf = struct.unpack(">BHHB", body[:6])
            _check_dims(w, h, "JPEG")
            if prec != 8:
                raise NotImplementedError("only 8-bit precision supported")
            comps = []
            for ci in range(nf):
                cid, hv, tq = body[6 + 3 * ci : 9 + 3 * ci]
                fh, fv = hv >> 4, hv & 0x0F
                if not (1 <= fh <= 4 and 1 <= fv <= 4):
                    raise ValueError(f"bad sampling factors {fh}x{fv}")
                comps.append((cid, fh, fv, tq))
            hmax = max(c[1] for c in comps)
            vmax = max(c[2] for c in comps)
            if any(hmax % c[1] or vmax % c[2] for c in comps):
                # spec allows e.g. 3:2 ratios; no real encoder emits
                # them and replication upsampling can't express them
                raise NotImplementedError(
                    "non-integer sampling ratios unsupported"
                )
            if nf not in (1, 3):
                raise NotImplementedError(f"{nf}-component JPEG unsupported")
            sof = (h, w, comps)
            mcus_x, mcus_y = -(-w // (8 * hmax)), -(-h // (8 * vmax))
            geo = (hmax, vmax, mcus_x, mcus_y)
            coef = [
                np.zeros((mcus_y * fv * mcus_x * fh, 64), np.int32)
                for _, fh, fv, _ in comps
            ]
        elif marker in (0xC1, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA,
                        0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                "non-baseline JPEG (extended/lossless/arithmetic) "
                "requires PIL/libjpeg"
            )
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack(">H", body[:2])[0]
        elif marker == 0xDA:  # SOS (possibly one of many scans)
            if sof is None:
                raise ValueError("SOS before SOF")
            h, w, comps = sof
            hmax, vmax, mcus_x, mcus_y = geo
            ns = body[0]
            scan_cis, scan_htabs = [], {}
            by_id = {c[0]: i for i, c in enumerate(comps)}
            for si in range(ns):
                cid, tdta = body[1 + 2 * si : 3 + 2 * si]
                if cid not in by_id:
                    raise ValueError("SOS names unknown component")
                scan_cis.append(by_id[cid])
                scan_htabs[by_id[cid]] = (tdta >> 4, tdta & 0x0F)
            ss, se, ahal = body[1 + 2 * ns : 4 + 2 * ns]
            ah, al = ahal >> 4, ahal & 0x0F
            if progressive:
                # T.81 G.1.1.1.1: DC scans are exactly Ss=Se=0; AC
                # scans are single-component with 1 <= Ss <= Se <= 63
                if (ss == 0) != (se == 0) or se > 63 or (
                    ss > 0 and ns != 1
                ):
                    raise ValueError("bad progressive scan parameters")
            segs, pos = _entropy_segments(data, pos)
            units = _scan_units(
                comps, scan_cis, hmax, vmax, mcus_x, mcus_y, h, w
            )
            # table needs per scan role: DC-first (and baseline) scans
            # use a DC table, any scan touching AC coefficients uses an
            # AC table, DC refinement uses none (raw bits)
            dec_tabs = {}
            for ci in scan_cis:
                td, ta = scan_htabs[ci]
                dc_tab, ac_tab = htabs.get((0, td)), htabs.get((1, ta))
                if ss == 0 and ah == 0 and dc_tab is None:
                    raise ValueError("missing DC Huffman table")
                if se > 0 and ac_tab is None:
                    raise ValueError("missing AC Huffman table")
                dec_tabs[ci] = (dc_tab, ac_tab)
            if progressive:
                _decode_scan_progressive(
                    segs, units, coef,
                    {ci: dec_tabs[ci] for ci in scan_cis},
                    ss, se, ah, al, restart_interval,
                )
            else:
                if ss != 0 or se != 63:
                    raise ValueError("bad spectral band in baseline scan")
                reader = _BitReader(segs[0])
                seg_idx = 0
                preds = {ci: 0 for ci in scan_cis}
                for u, unit in enumerate(units):
                    if restart_interval and u and u % restart_interval == 0:
                        seg_idx += 1
                        if seg_idx >= len(segs):
                            raise ValueError("missing JPEG restart segment")
                        reader = _BitReader(segs[seg_idx])
                        preds = {ci: 0 for ci in scan_cis}
                    for ci, bi in unit:
                        zz, preds[ci] = _decode_block(
                            reader, preds[ci], *dec_tabs[ci]
                        )
                        coef[ci][bi] = zz
            saw_scan = True
            continue  # marker walk resumes at the scan terminator
        # all other markers (APPn, COM): payload already skipped
    if sof is None or not saw_scan:
        raise ValueError("no SOS marker found")
    h, w, comps = sof
    hmax, vmax, mcus_x, mcus_y = geo
    planes = []
    for (cid, fh, fv, tq), zzs in zip(comps, coef):
        nb = len(zzs)
        coeffs = np.zeros((nb, 64), np.float64)
        coeffs[:, _ZIGZAG] = zzs
        coeffs = coeffs.reshape(-1, 8, 8) * qtabs[tq][None, :, :]
        px = np.einsum("xu,nuv,yv->nxy", _DCT.T, coeffs, _DCT.T)
        plane = (
            px.reshape(mcus_y * fv, mcus_x * fh, 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(mcus_y * fv * 8, mcus_x * fh * 8)
            + 128.0
        )
        # crop to the component's true extent, then replicate
        # up to full resolution (nearest-neighbor upsampling)
        ch = -(-h * fv // vmax)
        cw = -(-w * fh // hmax)
        plane = plane[:ch, :cw]
        ry, rx = vmax // fv, hmax // fh
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, 0), rx, 1)
        planes.append(plane[:h, :w])
    if len(planes) == 1:
        y = np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
        return np.repeat(y[:, :, None], 3, axis=2)
    y, cb, cr = planes
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    rgb = np.stack([r, g, b], axis=2)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# AVI / Motion-JPEG (Microsoft RIFF AVI spec) — a REAL video container
# path: mux/demux is pure RIFF chunk arithmetic (the same walk the WAV
# decoder does, nested one level) and every frame is a baseline JPEG
# that decode_jpeg already handles, so "video" needs no external
# library either. The remaining seam is inter-frame codecs
# (H.264/MP4) — that is ffmpeg territory, stages/multimodal keeps the
# honest NotImplementedError for it.
# ---------------------------------------------------------------------------


def _riff_chunk(cid: bytes, payload: bytes) -> bytes:
    """One word-aligned RIFF chunk (spec: odd-size payloads pad 1)."""
    return cid + struct.pack("<I", len(payload)) + payload + (
        b"\x00" if len(payload) & 1 else b""
    )


def encode_avi_mjpeg(
    frames: list[bytes], width: int, height: int, fps: int = 25
) -> bytes:
    """JPEG frame blobs → minimal single-stream MJPG AVI bytes.

    Writes RIFF('AVI ') → LIST(hdrl){avih, LIST(strl){strh,strf}} →
    LIST(movi){00dc×F}. No idx1 (optional per spec; the demuxer and
    every mainstream player walk movi when it is absent)."""
    if not frames:
        raise ValueError("encode_avi_mjpeg needs at least one frame")
    max_sz = max(len(f) for f in frames)
    avih = struct.pack(
        "<10I16x",
        1_000_000 // fps,   # dwMicroSecPerFrame
        max_sz * fps,       # dwMaxBytesPerSec
        0, 0,               # padding granularity, flags
        len(frames), 0, 1,  # total frames, initial frames, streams
        max_sz,             # suggested buffer size
        width, height,
    )
    strh = (
        b"vidsMJPG"
        + struct.pack(
            "<IHHIIIIIIII4h",
            0, 0, 0, 0,       # flags, priority, language, initial frames
            1, fps,           # scale, rate (fps = rate/scale)
            0, len(frames),   # start, length
            max_sz, 0, 0,     # buffer size, quality, sample size
            0, 0, width, height,  # rcFrame
        )
    )
    strf = struct.pack(
        "<IiiHH4sIiiII", 40, width, height, 1, 24, b"MJPG",
        width * height * 3, 0, 0, 0, 0,
    )
    hdrl = b"hdrl" + _riff_chunk(b"avih", avih) + _riff_chunk(
        b"LIST", b"strl" + _riff_chunk(b"strh", strh) + _riff_chunk(b"strf", strf)
    )
    movi = b"movi" + b"".join(_riff_chunk(b"00dc", f) for f in frames)
    body = b"AVI " + _riff_chunk(b"LIST", hdrl) + _riff_chunk(b"LIST", movi)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def demux_avi_mjpeg(data: bytes) -> list[bytes]:
    """MJPG AVI bytes → list of per-frame JPEG blobs (decode order).

    Tolerant movi walk: accepts 00dc/00db (compressed/uncompressed
    video) chunks for any stream number, descends into 'rec ' groups
    (interleaved-AV files wrap frames in them), ignores idx1 and any
    unknown chunk. Raises ValueError on a non-AVI or truncated file —
    the callers' soft-error path turns that into a dead-letter row."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"AVI ":
        raise ValueError("not a RIFF/AVI file")

    frames: list[bytes] = []

    def walk_movi(lo: int, hi: int) -> None:
        pos = lo
        while pos + 8 <= hi:
            cid = data[pos : pos + 4]
            size = struct.unpack("<I", data[pos + 4 : pos + 8])[0]
            end = pos + 8 + size
            if end > hi:
                raise ValueError("truncated AVI chunk")
            if cid == b"LIST" and data[pos + 8 : pos + 12] == b"rec ":
                walk_movi(pos + 12, end)
            elif cid[2:4] in (b"dc", b"db"):
                frames.append(data[pos + 8 : end])
            pos = end + (size & 1)

    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        size = struct.unpack("<I", data[pos + 4 : pos + 8])[0]
        end = pos + 8 + size
        if cid == b"LIST" and data[pos + 8 : pos + 12] == b"movi":
            walk_movi(pos + 12, min(end, len(data)))
        pos = end + (size & 1)
    if not frames:
        raise ValueError("no video frames in movi list")
    return frames


# ---------------------------------------------------------------------------
# GIF (GIF87a/GIF89a, the public CompuServe/W3C spec) — a REAL
# LZW-compressed image/animation path: variable-width LZW (3..12-bit
# codes, clear/EOI, dictionary growth), global/local palettes,
# interlacing, sub-block framing, GCE transparency + frame compositing.
# LZW is inherently serial per stream (each code extends the
# dictionary the next code may reference), so the per-blob loop IS the
# decode — parallelism comes from the actor pool over blobs, same as
# every other codec here.
# ---------------------------------------------------------------------------


def _gif_subblocks(data: bytes, pos: int) -> tuple[bytes, int]:
    """Concatenate a sub-block chain starting at ``pos`` (len byte +
    payload, 0-terminated). Returns (payload, pos_after)."""
    out = bytearray()
    while True:
        if pos >= len(data):
            raise ValueError("truncated GIF sub-block chain")
        n = data[pos]
        pos += 1
        if n == 0:
            return bytes(out), pos
        out += data[pos : pos + n]
        if len(data) < pos + n:
            raise ValueError("truncated GIF sub-block")
        pos += n


def _lzw_decode(data: bytes, min_code_size: int, n_pixels: int) -> np.ndarray:
    """GIF variable-width LZW → palette indices (uint8)."""
    if not 1 <= min_code_size <= 8:  # spec range; corrupt byte = bomb
        raise ValueError(f"bad LZW minimum code size {min_code_size}")
    clear = 1 << min_code_size
    end = clear + 1
    # dictionary as (prefix_code, last_byte) pairs; roots are -1
    prefix = np.full(4096, -1, np.int32)
    suffix = np.zeros(4096, np.uint8)
    suffix[:clear] = np.arange(clear, dtype=np.uint8)
    next_code = end + 1
    width = min_code_size + 1
    out = np.empty(n_pixels, np.uint8)
    n_out = 0
    acc = bits = 0
    prev = -1
    buf = bytearray()  # decode buffer for one code's expansion
    for byte in data:
        acc |= byte << bits
        bits += 8
        while bits >= width:
            code = acc & ((1 << width) - 1)
            acc >>= width
            bits -= width
            if code == clear:
                next_code = end + 1
                width = min_code_size + 1
                prev = -1
                continue
            if code == end:
                return out[:n_out]
            if prev < 0:  # first code after clear: must be a root
                if code >= clear:
                    raise ValueError("bad first LZW code")
                out[n_out] = code
                n_out += 1
                prev = code
                continue
            # expand `code` (KwKwK case: code == next_code)
            if code < next_code:
                c = code
            elif code == next_code:
                c = prev
            else:
                raise ValueError("LZW code out of range")
            buf.clear()
            while c >= clear:
                buf.append(suffix[c])
                c = int(prefix[c])
            buf.append(c)
            first = buf[-1]
            if code == next_code:
                buf.insert(0, first)
            take = min(len(buf), n_pixels - n_out)
            out[n_out : n_out + take] = np.frombuffer(
                bytes(buf), np.uint8
            )[::-1][:take]
            n_out += take
            if n_out >= n_pixels:
                return out
            if next_code < 4096:
                prefix[next_code] = prev
                suffix[next_code] = first
                next_code += 1
                if next_code == (1 << width) and width < 12:
                    width += 1
            prev = code
    return out[:n_out]


_GIF_INTERLACE = ((0, 8), (4, 8), (2, 4), (1, 2))


def decode_gif_frames(data: bytes) -> list[np.ndarray]:
    """GIF bytes → list of composited (h, w, 3) uint8 RGB frames.

    Composites each frame onto the canvas honoring GCE transparency
    and disposal (none/keep vs restore-background); interlaced frames
    are de-interlaced. Single-image GIFs yield one frame. Corrupt
    streams always raise ValueError (same boundary contract as
    decode_jpeg)."""
    try:
        return _decode_gif_frames_inner(data)
    except (KeyError, IndexError, OverflowError, struct.error) as exc:
        raise ValueError(f"corrupt GIF stream: {exc!r}") from exc


def _decode_gif_frames_inner(data: bytes) -> list[np.ndarray]:
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF (bad signature)")
    if len(data) < 14:
        raise ValueError("truncated GIF header")
    w, h = struct.unpack("<HH", data[6:10])
    _check_dims(w, h, "GIF")
    packed, bg = data[10], data[11]
    pos = 13
    gpal = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        gpal = np.frombuffer(data[pos : pos + 3 * n], np.uint8).reshape(-1, 3)
        pos += 3 * n
    canvas = np.zeros((h, w, 3), np.uint8)
    if gpal is not None and bg < len(gpal):
        canvas[:] = gpal[bg]
    frames: list[np.ndarray] = []
    transparent = -1
    disposal = 0
    while pos < len(data):
        b = data[pos]
        pos += 1
        if b == 0x3B:  # trailer
            break
        if b == 0x21:  # extension
            if pos >= len(data):
                raise ValueError("truncated GIF extension")
            label = data[pos]
            pos += 1
            payload, pos = _gif_subblocks(data, pos)
            if label == 0xF9 and len(payload) >= 4:  # GCE
                disposal = (payload[0] >> 2) & 0x07
                transparent = payload[3] if payload[0] & 0x01 else -1
            continue
        if b != 0x2C:
            raise ValueError(f"unexpected GIF block 0x{b:02X}")
        if pos + 9 > len(data):
            raise ValueError("truncated GIF image descriptor")
        fx, fy, fw, fh = struct.unpack("<HHHH", data[pos : pos + 8])
        _check_dims(max(fw, 1), max(fh, 1), "GIF frame")
        if fx + fw > w or fy + fh > h or fw == 0 or fh == 0:
            raise ValueError("GIF frame rect outside canvas")
        fpacked = data[pos + 8]
        pos += 9
        pal = gpal
        if fpacked & 0x80:  # local color table
            n = 2 << (fpacked & 0x07)
            pal = np.frombuffer(
                data[pos : pos + 3 * n], np.uint8
            ).reshape(-1, 3)
            pos += 3 * n
        if pal is None:
            raise ValueError("GIF frame without a color table")
        min_code = data[pos]
        pos += 1
        lzw, pos = _gif_subblocks(data, pos)
        idx = _lzw_decode(lzw, min_code, fw * fh)
        if len(idx) < fw * fh:
            raise ValueError("GIF frame pixel data truncated")
        idx = idx.reshape(fh, fw)
        if fpacked & 0x40:  # interlaced: reorder rows into place
            de = np.empty_like(idx)
            r = 0
            for start, step in _GIF_INTERLACE:
                rows = range(start, fh, step)
                de[list(rows)] = idx[r : r + len(rows)]
                r += len(rows)
            idx = de
        before = canvas.copy()
        region = canvas[fy : fy + fh, fx : fx + fw]
        px = pal[np.minimum(idx, len(pal) - 1)]
        if transparent >= 0:
            opaque = idx != transparent
            region[opaque] = px[opaque]
        else:
            region[:] = px
        frames.append(canvas.copy())
        if disposal == 2:  # restore background
            bg_rgb = gpal[bg] if gpal is not None and bg < len(gpal) else 0
            canvas[fy : fy + fh, fx : fx + fw] = bg_rgb
        elif disposal == 3:  # restore previous
            canvas = before
        transparent = -1
        disposal = 0
    if not frames:
        raise ValueError("GIF contains no image data")
    return frames


def decode_gif(data: bytes) -> np.ndarray:
    """GIF bytes → first composited frame as (h, w, 3) uint8 RGB."""
    return decode_gif_frames(data)[0]


def _lzw_encode(indices: np.ndarray, min_code_size: int) -> bytes:
    """GIF variable-width LZW encoder (dict-reset on overflow)."""
    clear = 1 << min_code_size
    end = clear + 1
    acc = bits = 0
    out = bytearray()

    def put(code: int, width: int) -> None:
        nonlocal acc, bits
        acc |= code << bits
        bits += width
        while bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            bits -= 8

    table: dict = {(-1, i): i for i in range(clear)}
    next_code = end + 1
    width = min_code_size + 1
    put(clear, width)
    prev = -1
    for v in indices.tolist():
        key = (prev, v)
        if key in table:
            prev = table[key]
            continue
        put(prev, width)
        table[key] = next_code
        next_code += 1
        if next_code - 1 == (1 << width) and width < 12:
            width += 1
        if next_code >= 4096:
            put(clear, width)
            table = {(-1, i): i for i in range(clear)}
            next_code = end + 1
            width = min_code_size + 1
        prev = v
    put(prev, width)
    put(end, width)
    if bits:
        out.append(acc & 0xFF)
    return bytes(out)


def encode_gif(
    frames: list[np.ndarray] | np.ndarray,
    delay_cs: int = 10,
    interlace: bool = False,
) -> bytes:
    """(h, w, 3) frame(s) → GIF89a bytes (shared global palette built
    from the frames' unique colors; > 256 unique colors raises — this
    encoder exists for round-trip testing, not production quantizing)."""
    if isinstance(frames, np.ndarray):
        frames = [frames]
    if not frames:
        raise ValueError("encode_gif needs at least one frame")
    h, w = frames[0].shape[:2]
    stack = np.concatenate([f.reshape(-1, 3) for f in frames])
    pal, inv = np.unique(stack, axis=0, return_inverse=True)
    if len(pal) > 256:
        raise ValueError(f"{len(pal)} unique colors > 256 (quantize first)")
    size_exp = max(1, int(np.ceil(np.log2(max(len(pal), 2)))))
    table = np.zeros((1 << size_exp, 3), np.uint8)
    table[: len(pal)] = pal
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | ((size_exp - 1) & 7), 0, 0)
    out += table.tobytes()
    min_code = max(2, size_exp)
    offset = 0
    for f in frames:
        if f.shape[:2] != (h, w):
            raise ValueError("all frames must share dimensions")
        if len(frames) > 1:  # GCE with delay for animations
            out += bytes([0x21, 0xF9, 4, 0]) + struct.pack(
                "<H", delay_cs
            ) + bytes([0, 0])
        idx = inv[offset : offset + h * w].astype(np.uint8).reshape(h, w)
        offset += h * w
        if interlace:
            rows = []
            for start, step in _GIF_INTERLACE:
                rows.extend(range(start, h, step))
            idx = idx[rows]
        out += bytes([0x2C]) + struct.pack("<HHHH", 0, 0, w, h)
        out += bytes([0x40 if interlace else 0x00, min_code])
        lzw = _lzw_encode(idx.reshape(-1), min_code)
        for i in range(0, len(lzw), 255):
            chunk = lzw[i : i + 255]
            out += bytes([len(chunk)]) + chunk
        out += b"\x00"
    out += b"\x3b"
    return bytes(out)


# ---------------------------------------------------------------------------
# BMP (Windows BITMAPINFOHEADER, uncompressed 24/32-bit) — the
# remaining common uncompressed crawl format; header walk +
# bottom-up row flip + 4-byte row padding, all numpy.
# ---------------------------------------------------------------------------


def encode_bmp(img: np.ndarray) -> bytes:
    """(h, w, 3) RGB uint8 → 24-bit BI_RGB BMP bytes."""
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("encode_bmp expects (h, w, 3) RGB")
    h, w = img.shape[:2]
    row = w * 3
    pad = (-row) % 4
    body = np.zeros((h, row + pad), np.uint8)
    body[:, :row] = img[::-1, :, ::-1].reshape(h, row)  # bottom-up BGR
    data = body.tobytes()
    header = struct.pack("<2sIHHI", b"BM", 54 + len(data), 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(data),
                       2835, 2835, 0, 0)
    return header + info + data


def decode_bmp(data: bytes) -> np.ndarray:
    """24/32-bit BI_RGB BMP bytes → (h, w, 3) uint8 RGB. Top-down
    (negative height) and bottom-up rows both handled; compressed
    (RLE/bitfields) and paletted variants raise — a crawled corpus
    routes those to the dead-letter path."""
    try:
        if data[:2] != b"BM" or len(data) < 54:
            raise ValueError("not a BMP")
        offset = struct.unpack("<I", data[10:14])[0]
        hdr_size = struct.unpack("<I", data[14:18])[0]
        if hdr_size < 40:
            raise NotImplementedError("BITMAPCOREHEADER BMP unsupported")
        w, h = struct.unpack("<ii", data[18:26])
        planes, bpp = struct.unpack("<HH", data[26:30])
        comp = struct.unpack("<I", data[30:34])[0]
        top_down = h < 0
        h = abs(h)
        _check_dims(w, h, "BMP")
        if comp != 0 or bpp not in (24, 32):
            raise NotImplementedError(
                f"only uncompressed 24/32-bit BMP (bpp={bpp}, comp={comp})"
            )
        nch = bpp // 8
        row = (w * nch + 3) & ~3
        px = np.frombuffer(data, np.uint8, count=h * row, offset=offset)
        px = px.reshape(h, row)[:, : w * nch].reshape(h, w, nch)
        rgb = px[:, :, 2::-1]  # BGR(A) → RGB
        return np.ascontiguousarray(rgb if top_down else rgb[::-1])
    except (IndexError, struct.error) as exc:
        raise ValueError(f"corrupt BMP stream: {exc!r}") from exc
