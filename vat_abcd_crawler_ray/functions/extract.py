"""ABCD XML extraction — the core per-record transform (M1-M4, SURVEY §2.2).

A pure function of ``(xml bytes, field registry)`` → one dataset row +
N unit rows, re-expressing the reference's SAX event loop
(``/root/reference/src/abcd/abcd_parser.rs:39-157``) byte-for-byte:

- tag-path stack with namespace stripping (``abcd:Name`` → ``Name``,
  ``abcd_parser.rs:55-58, :90-98, :173-179``);
- ABCD version sniffed from the ``DataSets`` root attributes but never
  branched on (``abcd_parser.rs:62-78``);
- the dataset value-map is flushed when the ``<Units>`` start tag is
  reached (``abcd_parser.rs:79-86``); one unit value-map per ``</Unit>``
  end tag (``:100-106``);
- only spec'd paths are extracted (``:109``); duplicate occurrences of a
  path within one scope overwrite — last wins (``:113-119``);
- text values are the **raw escaped bytes** (entities NOT unescaped),
  whitespace-trimmed (``trim_text(true)``), decoded UTF-8-lossy
  (``:47-48, :108-120``) — this is the byte-identical-text invariant;
- numeric fields parse as f64, a failed parse silently drops the value
  (``:110-114``);
- landing page: prefer the dataset's own landing-page field value, else
  the caller's proposal (``:137-153``);
- a document that never reaches ``<Units>`` has no dataset metadata →
  error (``:154-156``).

Two implementations share these semantics. :func:`parse_abcd` parses one
document; it is the unit the reference's parser tests re-express against
(pytest oracles, SURVEY §5), and the sequential oracle and the table
helpers call it directly. :func:`extract_batch` is the batch kernel
``stages/extract.py`` runs first: one pass over a whole batch's
contiguous ``html`` buffer (Arrow offsets, zero-copy) that handles every
*certified* document — each ``<`` closes at a ``>`` before the next
``<``, no ``<!`` token, ``<?`` only as a complete ``<?…?>``, no empty or
whitespace-led tag name, every end tag's stripped name equal to its
start tag's. On that subset the event loop above is a proper element
stack, so paths, scopes and text runs can be computed column-wise. Every
other document (comments, CDATA, the cut-by-length end-tag quirk, the
bare-``<`` error…) goes to :func:`parse_abcd` unchanged. No Ray here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fields import DEFAULT_LANDING_PAGE_FIELD, FieldRegistry

ABCD_VERSION_UNKNOWN = ""
ABCD_VERSION_206 = "2.06"
ABCD_VERSION_210 = "2.1"

_NS_206 = b"http://www.tdwg.org/schemas/abcd/2.06"
_NS_210 = b"http://www.tdwg.org/schemas/abcd/2.1"

_WS = b" \t\r\n"

# One pass over the document: markup alternatives first (CDATA, comment,
# doctype, processing instruction / xml decl, end tag, start-or-empty
# tag), then a run of character data up to the next '<'. Mirrors the
# event stream quick-xml produces for the reference: CDATA / comments /
# decls / PIs / Empty tags are distinct events the reference ignores
# (`abcd_parser.rs:129` catch-all), so matching-and-skipping them here
# reproduces the semantics exactly.
_TOKEN = re.compile(
    rb"<!\[CDATA\[.*?\]\]>"
    rb"|<!--.*?-->"
    rb"|<![^>]*>"
    rb"|<\?[^>]*\?>"
    rb"|</([^>]*)>"
    rb"|<([^>]*)>"
    rb"|([^<]+)"
    rb"|(<)",  # bare '<' forming no token: malformed-markup sentinel
    re.DOTALL,
)

_ATTR_VALUE = re.compile(rb'=\s*(?:"([^"]*)"|\'([^\']*)\')')


NO_DATASET_MESSAGE = "ABCD file contains no dataset metadata."


class AbcdParseError(ValueError):
    """Malformed XML (soft error — C2: warn + continue per record)."""


class AbcdNoDatasetMetadata(ValueError):
    """Document never reached ``<Units>`` (``abcd_parser.rs:154-156``)."""


@dataclass
class AbcdResult:
    """Parse result (``abcd_parser.rs:183-190``): one dataset row + N units."""

    dataset_id: str
    dataset_path: str
    landing_page: str
    provider_name: str
    dataset: dict[str, object]
    units: list[dict[str, object]]
    version: str = ABCD_VERSION_UNKNOWN


def _strip_tag(tag: bytes) -> bytes:
    """Drop the namespace prefix: ``abcd:Name`` → ``Name`` (``:173-179``)."""
    i = tag.find(b":")
    return tag[i + 1 :] if i >= 0 else tag


# raw tag bytes → namespace-stripped name. Distinct tags per corpus are
# bounded (~tens), so a capped memo turns the per-event split+find+slice
# into one dict hit — measured ~12% of parse time (profiled).
_TAG_NAME_CACHE: dict[bytes, bytes] = {}
_TAG_CACHE_MAX = 8192


def _tag_name(raw: bytes) -> bytes:
    v = _TAG_NAME_CACHE.get(raw)
    if v is None:
        parts = raw.split(None, 1)
        if not parts:  # ``<>``, ``< >``, ``</>``
            raise AbcdParseError("empty tag name")
        v = _strip_tag(parts[0])
        if len(_TAG_NAME_CACHE) < _TAG_CACHE_MAX:
            _TAG_NAME_CACHE[raw] = v
    return v


def _parse_f64(s: str) -> float | None:
    """Rust ``str::parse::<f64>`` semantics: no underscores, no padding
    (input is pre-trimmed), ASCII only; inf/nan accepted (``:110-114``)."""
    if not s or "_" in s or not s.isascii():
        return None
    try:
        return float(s)
    except ValueError:
        return None


def _sniff_version(start_tag: bytes) -> str | None:
    """The ABCD version named by a ``DataSets`` start tag's first
    schema-namespace attribute value, else None (``:62-78``)."""
    raw = start_tag.split(None, 1)
    for g1, g2 in _ATTR_VALUE.findall(raw[1] if len(raw) > 1 else b""):
        val = g1 or g2
        if val == _NS_206:
            return ABCD_VERSION_206
        if val == _NS_210:
            return ABCD_VERSION_210
    return None


def parse_abcd(
    xml_bytes: bytes,
    registry: FieldRegistry,
    *,
    dataset_id: str = "",
    dataset_path: str = "",
    landing_page_proposal: str = "",
    provider_name: str = "",
    landing_page_field: str = DEFAULT_LANDING_PAGE_FIELD,
) -> AbcdResult:
    """Parse one ABCD XML document. Raises :class:`AbcdParseError` /
    :class:`AbcdNoDatasetMetadata`; callers in pipelines catch both and
    emit dead-letter rows (C2, ``/root/reference/src/main.rs:226-249``)."""
    fields_by_path = registry.by_path_bytes
    path = bytearray()
    values: dict[str, object] = {}
    dataset_data: dict[str, object] | None = None
    units: list[dict[str, object]] = []
    version = ABCD_VERSION_UNKNOWN

    # Every byte matches SOME alternative (text eats non-'<' runs, the
    # markup branches eat well-formed constructs, and the final bare-'<'
    # branch catches what nothing else can), so the token stream has no
    # gaps by construction — malformed markup surfaces as group 4
    # instead of a per-token position check (which cost two C calls per
    # event on the hot path).
    for m in _TOKEN.finditer(xml_bytes):
        gi = m.lastindex  # 1=end tag, 2=start tag, 3=text, None=ignored
        if gi is None:
            continue  # CDATA / comment / decl / PI — ignored events
        if gi == 4:
            raise AbcdParseError(f"unparsable markup at byte {m.start()}")
        if gi == 3:
            t = m.group(3).strip(_WS)  # trim_text(true)
            if not t:
                continue
            f = fields_by_path.get(bytes(path))
            if f is None:
                continue
            if f.numeric:
                num = _parse_f64(t.decode("utf-8", "replace"))
                if num is not None:
                    values[f.name] = num  # failed parse: silent drop
            else:
                # raw escaped bytes, UTF-8-lossy — byte-identical invariant
                values[f.name] = t.decode("utf-8", "replace")
        elif gi == 2:
            start_tag = m.group(2)
            if start_tag.endswith(b"/"):
                continue  # Empty element event — ignored (no path change)
            name = _tag_name(start_tag)
            path += b"/"
            path += name
            if path == b"/DataSets":
                version = _sniff_version(start_tag) or version
            elif path == b"/DataSets/DataSet/Units":
                dataset_data = values
                values = {}
        else:
            name = _tag_name(m.group(1))
            cut = len(path) - len(name) - 1
            if cut < 0:
                raise AbcdParseError("unbalanced end tag")
            del path[cut:]
            if name == b"Unit" and path == b"/DataSets/DataSet/Units":
                units.append(values)
                values = {}

    if dataset_data is None:
        raise AbcdNoDatasetMetadata(NO_DATASET_MESSAGE)

    lp = dataset_data.get(landing_page_field)
    landing_page = lp if isinstance(lp, str) else landing_page_proposal

    return AbcdResult(
        dataset_id=dataset_id,
        dataset_path=dataset_path,
        landing_page=landing_page,
        provider_name=provider_name,
        dataset=dataset_data,
        units=units,
        version=version,
    )


# ---- batch kernel ------------------------------------------------------

_LT, _GT = b"<>"
_TRIM_LUT = np.zeros(256, dtype=bool)  # the ``trim_text`` set
_TRIM_LUT[list(_WS)] = True
_TRIM_STEPS = 4  # vectorized one-byte trim steps before the per-value path
_SPLIT_WS = b" \t\n\r\x0b\x0c"  # the ``bytes.split(None)`` set
# numeric strings Arrow's float cast and ``_parse_f64`` read alike;
# anything else (inf, nan, underscores, non-ASCII…) takes the Python path
_PLAIN_FLOAT = r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$"

# token kinds, classified once per distinct tag content
_OTHER, _START, _END, _BAD = range(4)


class AbcdKernel:
    """The registry compiled for :func:`extract_batch`: a trie over the
    spec'd paths plus ``/DataSets`` and ``/DataSets/DataSet/Units``,
    walked one element level at a time through a (node × name)
    transition table. Names off the trie lead to an absorbing dead
    state."""

    def __init__(self, registry: FieldRegistry):
        names: dict[bytes, int] = {}
        children: list[dict[int, int]] = [{}]  # node 0 = the root

        def add(path: bytes) -> int:
            node = 0
            for comp in path.split(b"/")[1:]:
                nid = names.setdefault(comp, len(names))
                nxt = children[node].get(nid)
                if nxt is None:
                    nxt = children[node][nid] = len(children)
                    children.append({})
                node = nxt
            return node

        paths = [f.name.encode("utf-8") for f in registry]
        field_nodes = {i: add(p) for i, p in enumerate(paths) if p.startswith(b"/")}
        self.datasets_node = add(b"/DataSets")
        self.units_node = add(b"/DataSets/DataSet/Units")
        dead = len(children)
        self.names = names
        # row = node (last row: dead), column = name id (last: off-trie)
        self.trans = np.full((dead + 1, len(names) + 1), dead, np.int64)
        for node, kids in enumerate(children):
            for nid, child in kids.items():
                self.trans[node, nid] = child
        self.node_field = np.full(dead + 1, -1, np.int64)
        for i, node in field_nodes.items():
            self.node_field[node] = i
        self.numeric = np.array([f.numeric for f in registry], dtype=bool)


@dataclass
class AbcdBatch:
    """What :func:`extract_batch` found in a batch of documents.

    Documents are batch row indices. Scopes are batch-unique ids below
    ``n_scopes``; every value is one ``(scope, field, value)`` triple,
    numeric-dropped and trimmed, in document order (so the last triple
    of a ``(scope, field)`` wins). ``field`` indexes the registry."""

    certified: np.ndarray  # bool per document
    n_scopes: int
    ds_doc: np.ndarray  # documents with dataset metadata …
    ds_scope: np.ndarray  # … and the scope their last ``<Units>`` flushed
    version: list[str]  # per ``ds_doc``
    unit_doc: np.ndarray  # one entry per ``</Unit>`` flush, in order
    unit_scope: np.ndarray
    nodata_doc: np.ndarray  # certified documents that never reach <Units>
    text_scope: np.ndarray
    text_field: np.ndarray
    text_value: pa.Array  # string
    num_scope: np.ndarray
    num_field: np.ndarray
    num_value: np.ndarray  # float64


def _spans(html: pa.Array, start: np.ndarray, end: np.ndarray) -> pa.Array:
    """``html``'s data bytes ``[start[i], end[i])`` (ascending,
    non-overlapping) as one binary array, sliced zero-copy by Arrow."""
    if not len(start):
        return pa.array([], pa.binary())
    bounds = np.empty(2 * len(start), np.int64)
    bounds[0::2], bounds[1::2] = start, end
    wide = pa.types.is_large_binary(html.type)
    every = pa.Array.from_buffers(
        pa.large_binary() if wide else pa.binary(), len(bounds) - 1,
        [None, pa.py_buffer(bounds if wide else bounds.astype(np.int32)),
         html.buffers()[2]],
    )
    return every.take(pa.array(np.arange(0, len(bounds), 2)))


def _classify(raw: bytes) -> tuple[int, bytes]:
    """(kind, namespace-stripped name) of one tag content ``<raw>``,
    as :func:`parse_abcd`'s token regex and ``_tag_name`` read it;
    ``_BAD`` marks what only the per-document route reproduces."""
    head = raw[:1]
    if head == b"!":
        return _BAD, b""
    if head == b"?":
        return (_OTHER if len(raw) > 1 and raw.endswith(b"?") else _BAD), b""
    kind = _END if head == b"/" else _START
    body = raw[1:] if kind == _END else raw
    if kind == _START and body.endswith(b"/"):
        return _OTHER, b""  # empty element: ignored
    if not body or body[:1] in _SPLIT_WS:
        return _BAD, b""
    return kind, _strip_tag(body.split(None, 1)[0])


def _trim(d: np.ndarray, s: np.ndarray, e: np.ndarray) -> None:
    """Trim ``trim_text`` whitespace off each ``d[s:e]`` in place: a few
    vectorized one-byte steps over the padded runs, then per value for
    the rare long padding."""
    for lead in (True, False):
        pad = np.flatnonzero(s < e)
        for step in range(_TRIM_STEPS + 1):
            pad = pad[_TRIM_LUT[d[s[pad] if lead else e[pad] - 1]]]
            if not len(pad):
                break
            if step == _TRIM_STEPS:
                for i in pad:
                    raw = d[s[i] : e[i]].tobytes()
                    if lead:
                        s[i] += len(raw) - len(raw.lstrip(_WS))
                    else:
                        e[i] -= len(raw) - len(raw.rstrip(_WS))
            elif lead:
                s[pad] += 1
            else:
                e[pad] -= 1
            pad = pad[s[pad] < e[pad]]


def _decode_text(raw: pa.Array) -> pa.Array:
    """UTF-8-lossy text: one Arrow cast; per value only if it fails."""
    try:
        return raw.cast(pa.string())
    except pa.ArrowInvalid:
        return pa.array(
            [v.decode("utf-8", "replace") for v in raw.to_pylist()], pa.string()
        )


def _parse_f64_batch(text: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """``_parse_f64`` over trimmed text: (values, keep mask), the plain
    decimal forms through one Arrow cast, the rest per value."""
    plain = pc.match_substring_regex(text, _PLAIN_FLOAT).to_numpy(zero_copy_only=False)
    out = np.zeros(len(text))
    keep = plain.copy()
    if plain.any():
        out[plain] = text.filter(pa.array(plain)).cast(pa.float64()).to_numpy()
    odd = np.flatnonzero(~plain)
    for i, s in zip(odd, text.take(pa.array(odd, pa.int64())).to_pylist()):
        v = _parse_f64(s)
        if v is not None:
            out[i], keep[i] = v, True
    return out, keep


def extract_batch(html: pa.Array, kernel: AbcdKernel) -> AbcdBatch:
    """One pass over a batch's ``html`` buffer for every certified
    document (a Mison/simdjson-style structural index: the positions of
    ``<`` and ``>`` found in bulk, then only those walked).

    A document is *certified* when each ``<`` closes at a ``>`` before
    the next ``<``, it has no ``<!`` token, every ``<?`` token is a
    complete ``<?…?>``, no tag name is empty or starts with whitespace,
    and every end tag's stripped name equals its start tag's. On those
    documents :func:`parse_abcd`'s event loop is a proper element
    stack, which this computes column-wise; every other document
    (``certified`` False, or NULL) is left to the caller's
    per-document :func:`parse_abcd`."""
    n = len(html)
    bufs = html.buffers()
    odt = np.int64 if pa.types.is_large_binary(html.type) else np.int32
    offs = np.frombuffer(bufs[1], odt)[html.offset : html.offset + n + 1].astype(np.int64)
    base = int(offs[0]) if n else 0
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    d = data[base : offs[-1]] if n else data[:0]
    off = offs - base
    size = len(d)
    cand = html.is_valid().to_numpy(zero_copy_only=False).copy()

    # -- structural index: a '<' closes at the next structural byte iff
    # that byte is a '>' inside the same document
    pos = np.flatnonzero((d | 2) == _GT)  # only '<' and '>' or-2 to '>'
    is_lt = d[pos] == _LT
    li = np.flatnonzero(is_lt)
    lt = pos[li]
    nxt = np.append(lt[1:], size)  # the next '<' (text runs end there)
    closed = li + 1 < len(pos)
    closed[closed] = ~is_lt[li[closed] + 1]
    close = np.where(closed, pos[np.minimum(li + 1, len(pos) - 1)], size)
    tdoc = np.repeat(np.arange(n), np.diff(np.searchsorted(lt, off)))
    dend = off[tdoc + 1]
    cand[tdoc[close >= dend]] = False

    k = cand[tdoc]
    lt, nxt, close, tdoc = lt[k], nxt[k], close[k], tdoc[k]

    # -- tag contents, dictionary-encoded; each distinct one classified
    enc = _spans(html, lt + 1 + base, close + base).dictionary_encode()
    words: dict[bytes, int] = {}
    kinds, word, trie = [], [], []
    for raw in enc.dictionary.to_pylist():
        k, w = _classify(raw)
        kinds.append(k)
        word.append(words.setdefault(w, len(words)))
        trie.append(kernel.names.get(w, len(kernel.names)))
    ix = enc.indices.to_numpy(zero_copy_only=False)
    kind = np.array(kinds, np.int8)[ix] if len(kinds) else np.zeros(0, np.int8)
    word = np.array(word, np.int64)[ix] if len(word) else ix.astype(np.int64)
    trie = np.array(trie, np.int64)[ix] if len(trie) else ix.astype(np.int64)
    cand[tdoc[kind == _BAD]] = False

    # -- element depth per document (never below zero). From here on
    # tokens of rejected documents ride along; a document's result
    # never depends on another's tokens, and ``ok`` drops them at the end
    is_start, is_end = kind == _START, kind == _END
    delta = is_start.astype(np.int64) - is_end
    before = np.cumsum(delta) - delta
    heads = np.flatnonzero(np.diff(tdoc, prepend=-1))
    before -= np.repeat(before[heads], np.diff(np.append(heads, len(tdoc))))
    after = before + delta
    cand[tdoc[after < 0]] = False

    # -- tags sorted by (level, position): an end tag's start is the slot
    # before it, a start tag's parent the last slot one level up, and
    # each token's owner is the innermost element open after it
    tags = np.flatnonzero(is_start | is_end)
    level = np.where(is_end, after, before)
    deep = int(level.max()) + 1 if len(level) else 1
    small = -(1 << 15) < level.min(initial=0) and deep < 1 << 15
    # int16 keys make numpy's stable argsort a radix sort
    order = tags[np.argsort(level[tags].astype(np.int16 if small else np.int64), kind="stable")]
    olev = level[order]
    span = size + 1
    keys = olev * span + lt[order]
    s_slot = np.flatnonzero(is_start[order])
    e_slot = np.flatnonzero(is_end[order])
    opener = np.maximum(e_slot - 1, 0)
    cand[tdoc[order[e_slot]][word[order[e_slot]] != word[order[opener]]]] = False
    parent = np.full(len(order), -1, np.int64)
    parent[s_slot] = np.searchsorted(keys, keys[s_slot] - span) - 1
    node = np.zeros(len(order), np.int64)  # per slot
    bounds = np.searchsorted(olev[s_slot], np.arange(deep + 1))
    for lv in range(deep):
        sl = s_slot[bounds[lv] : bounds[lv + 1]]
        if not len(sl):
            break
        node[sl] = kernel.trans[node[parent[sl]] if lv else 0, trie[order[sl]]]
    tnode = np.zeros(len(lt), np.int64)
    tnode[order] = node
    owner = tnode.copy()  # a start tag owns what follows it
    up = parent[opener]
    owner[order[e_slot]] = np.where(olev[e_slot] > 0, node[np.maximum(up, 0)], 0)
    rest = np.flatnonzero(~is_start & ~is_end & (after > 0))
    if len(rest):
        inner = np.searchsorted(keys, (after[rest] - 1) * span + lt[rest], "right") - 1
        owner[rest] = node[np.maximum(inner, 0)]

    # -- scopes: flushed at each <Units> start and each </Unit> in Units
    ok = cand[tdoc]
    ds_flush = ok & is_start & (tnode == kernel.units_node)
    unit_word = words.get(b"Unit", -1)
    unit_flush = ok & is_end & (word == unit_word) & (owner == kernel.units_node)
    cumf = np.cumsum(ds_flush | unit_flush)
    closes = cumf - 1 + tdoc  # the scope a flush token closes
    dt = np.flatnonzero(ds_flush)
    last_ds = dt[np.append(tdoc[dt][1:] != tdoc[dt][:-1], True)] if len(dt) else dt
    ut = np.flatnonzero(unit_flush)
    docs = np.flatnonzero(cand)
    has_ds = np.zeros(n, dtype=bool)
    has_ds[tdoc[last_ds]] = True

    # -- version sniff from the /DataSets start tags, last match wins
    version = dict.fromkeys(tdoc[last_ds].tolist(), ABCD_VERSION_UNKNOWN)
    sniffed: dict[int, str | None] = {}
    for t in np.flatnonzero(ok & is_start & (tnode == kernel.datasets_node)):
        doc, w = int(tdoc[t]), int(ix[t])
        if doc in version:
            if w not in sniffed:
                sniffed[w] = _sniff_version(enc.dictionary[w].as_py())
            if sniffed[w] is not None:
                version[doc] = sniffed[w]

    # -- text runs owned by spec'd fields
    rs, re_ = close + 1, np.minimum(nxt, off[tdoc + 1])
    fid = kernel.node_field[owner]
    runs = np.flatnonzero(ok & (rs < re_) & (fid >= 0))
    rs, re_ = rs[runs], re_[runs]
    _trim(d, rs, re_)
    live = rs < re_
    runs, rs, re_ = runs[live], rs[live], re_[live]
    text = _decode_text(_spans(html, rs + base, re_ + base))
    fid, scope = fid[runs], (cumf + tdoc)[runs]
    num = kernel.numeric[fid]
    num_val, num_keep = _parse_f64_batch(text.filter(pa.array(num)))

    return AbcdBatch(
        certified=cand,
        n_scopes=int(cumf[-1]) + n + 1 if len(cumf) else n + 1,
        ds_doc=tdoc[last_ds],
        ds_scope=closes[last_ds],
        version=[version[int(x)] for x in tdoc[last_ds]],
        unit_doc=tdoc[ut],
        unit_scope=closes[ut],
        nodata_doc=docs[~has_ds[docs]],
        text_scope=scope[~num],
        text_field=fid[~num],
        text_value=text.filter(pa.array(~num)),
        num_scope=scope[num][num_keep],
        num_field=fid[num][num_keep],
        num_value=num_val[num_keep],
    )


def propose_landing_page(landingpage_url: str, dataset_url: str) -> str:
    """``"{landingpage_url}?archive={dataset_url}"`` — the fallback landing
    page (M4, ``/root/reference/src/main.rs:355-364``)."""
    return f"{landingpage_url}?archive={dataset_url}"


def format_vat_value(value: object) -> str:
    """Shortest-round-trip scalar formatting (M8, ``src/vat_type.rs:35-42``):
    Rust ``{}`` on f64 prints ``42`` for 42.0 and never uses exponent
    notation. Needed for byte-identical CSV output (W7)."""
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        r = repr(value)
        if "e" in r or "E" in r:
            # expand exponent notation to plain decimal like Rust Display
            from decimal import Decimal

            r = format(Decimal(r), "f")
        return r
    return str(value)
