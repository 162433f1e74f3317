"""The batch extract kernel against the per-document parser.

``ExtractStage`` sends every *certified* page through the batch kernel
(``functions.extract.extract_batch``) and every other page through
``parse_abcd``. These tests generate ABCD-like documents full of the
markup the two routes could disagree on and require the kernel route's
tables to equal the same pages forced through ``parse_abcd``."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from vat_abcd_crawler_ray.functions.extract import AbcdKernel, extract_batch
from vat_abcd_crawler_ray.functions.fields import FieldRegistry
from vat_abcd_crawler_ray.sources.synthetic import generate_corpus
from vat_abcd_crawler_ray.stages.extract import RECORD_TYPES, ExtractStage

PREFIXES = [b"abcd:", b"", b"x:y:"]
ATTRS = [
    b"", b"", b' a="1"', b" b='x>y'", b'\n c="2"',
    b' xmlns:abcd="http://www.tdwg.org/schemas/abcd/2.06"',
    b" v='http://www.tdwg.org/schemas/abcd/2.1'",
]
TEXTS = [
    b"plain", b"  padded \r\n\t", b"A &amp; B &lt;C&gt;", b"caf\xe9", b"\xff\xfe",
    b"", b"   ", b"x>y", b"1_0", b"inf", b"-0", "١٢".encode(), b"5.", b".5",
    b"-2e3", b"nan", b"1e400", b"12.25", b" 7 ", b"bad-lon", b"\x0b4\x0c",
    b"-180.5", b"0.0001", b"https://h1.example.org/doc/7/",
]
# markup both routes read the same way …
PLAIN_JUNK = [b"<?pi x?>", b"<e/>", b"<abcd:Empty a='1'/>", b"\n  ", b"&amp;"]
# … and markup only the per-document route reproduces
QUIRK_JUNK = [
    b"<!-- c -->", b"<![CDATA[ <Title>z</Title> ]]>", b"<!DOCTYPE x>", b"<?bad>",
    b"<<", b"<>", b"< a>", b"</>",
]


@st.composite
def abcd_docs(draw, quirks: bool = True):
    """One ABCD-like document: prefixes, attributes, empty elements,
    PIs, entities, CR/LF/tab padding, invalid UTF-8, numeric edge
    strings, zero to two ``Units`` and a ``Unit`` outside ``Units``.
    With ``quirks``, markup only the per-document route reads the same
    appears: either inside the tree at a per-document rate (comments,
    CDATA, mismatched or missing end tags, a doubled ``<``…), or as the
    one quirk of an otherwise certified document (a doctype or comment
    before the root, a bare ``<`` or a stray end tag after it)."""
    mode = draw(st.sampled_from(["markup", "markup", "junk", "head", "tail"])) if quirks else ""
    rate = draw(st.sampled_from([2, 8])) if mode == "markup" else 0
    # one prefix per document, another now and then (``x:y:`` strips to
    # ``y:Name``, off every spec'd path)
    doc_pre = draw(st.sampled_from(PREFIXES))

    def quirk() -> bool:
        return rate > 0 and draw(st.integers(0, 99)) < rate

    def junk() -> bytes:
        if draw(st.integers(0, 9)):
            return b""
        odd = quirk() or (mode == "junk" and not draw(st.integers(0, 3)))
        return draw(st.sampled_from(QUIRK_JUNK if odd else PLAIN_JUNK))

    def element(name: bytes, children: list[bytes]) -> bytes:
        pre = draw(st.sampled_from(PREFIXES)) if not draw(st.integers(0, 9)) else doc_pre
        end_name, end_pre = name, pre
        if quirk():
            end_name = draw(st.sampled_from([b"Unit", b"Units", b"Bogus", name + b"s"]))
        if quirk():
            end_pre = draw(st.sampled_from(PREFIXES))
        body = b"".join(junk() + c for c in children)
        end = b"" if quirk() else b"</" + end_pre + end_name + b">"
        return b"<" + pre + name + draw(st.sampled_from(ATTRS)) + b">" + body + end

    def leaf(name: bytes) -> bytes:
        return element(name, [draw(st.sampled_from(TEXTS)), junk(), draw(st.sampled_from(TEXTS))])

    def unit() -> bytes:
        kids = [leaf(n) for n in (b"UnitID", b"RecordURI") if draw(st.booleans())]
        if draw(st.booleans()):
            coords = [leaf(b"LongitudeDecimal"), leaf(b"LatitudeDecimal")]
            c = element(b"CoordinatesLatLong", coords)
            for n in (b"SiteCoordinates", b"SiteCoordinateSets", b"Gathering"):
                c = element(n, [c])
            kids.append(c)
        return element(b"Unit", kids)

    rep = element(b"Representation", [leaf(b"Title")] + ([leaf(b"URI")] if draw(st.booleans()) else []))
    kids = [element(b"Metadata", [element(b"Description", [rep])])]
    if draw(st.booleans()):
        kids.append(leaf(b"DatasetGUID"))
    for _ in range(draw(st.integers(0, 2))):  # missing, one or repeated Units
        kids.append(element(b"Units", [unit() for _ in range(draw(st.integers(0, 2)))]))
    if not draw(st.integers(0, 9)):
        kids.append(unit())  # a Unit outside Units
    if draw(st.booleans()):
        kids.append(leaf(b"DatasetGUID"))  # after the Units
    root = element(b"DataSets", [b"\r\n", element(b"DataSet", kids), b"\n"])
    head = draw(st.sampled_from(
        [b"<!DOCTYPE abcd>\n", b"<!-- head -->", b"<?bad>", b"<?>"] if mode == "head"
        else [b"", b'<?xml version="1.0"?>\n', b"\xef\xbb\xbf"]
    ))
    tail = draw(st.sampled_from(
        [b"<", b"</abcd:DataSets>", b"</x>"] if mode == "tail"
        else [b"", b"\n", b" trailing"]
    ))
    return head + root + tail


@given(
    docs=st.lists(abcd_docs(), max_size=5),
    clean=abcd_docs(quirks=False),
    fetch_failed=st.booleans(),
)
@hyp_settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_kernel_route_equals_per_document_route(docs, clean, fetch_failed):
    # the clean document must be certified; a doubled '<' never is
    pages = [clean] + docs + [b"<" + clean] + ([None] if fetch_failed else [])
    batch = pa.table({
        "url": [f"https://h{i % 3}.example.org/doc/{i}/" for i in range(len(pages))],
        "html": pa.array(pages, pa.binary()),
    })
    got, routes = ExtractStage().extract(batch)
    # an identity hook forces every page through parse_abcd
    want, want_routes = ExtractStage(result_hook=lambda res: res).extract(batch)
    assert routes["kernel"] >= 1 and routes["per_doc"] >= 1, routes
    assert want_routes == {"kernel": 0, "per_doc": len(pages) - fetch_failed}
    for rt in RECORD_TYPES:
        # rows compared by repr: Table.equals holds NaN unequal to itself
        assert got[rt].schema == want[rt].schema, rt
        assert repr(got[rt].to_pylist()) == repr(want[rt].to_pylist()), rt


def test_synthetic_corpus_pages_are_certified(tmp_path):
    """Every well-formed page of the synthetic corpus takes the kernel
    route; only its deliberately malformed "not xml" pages do not."""
    n = 300
    words = np.array(["taxon", "r&d", "x<y", "a>b", "café", "river", "  "])
    rng = np.random.default_rng(7)
    texts = [" ".join(rng.choice(words, int(k))) for k in rng.integers(1, 9, n)]
    os.makedirs(tmp_path / "docs")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": texts,
            "lang": ["en"] * n,
            "source": ["s"] * n,
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }),
        tmp_path / "docs" / "documents.parquet",
    )
    generate_corpus(str(tmp_path / "docs"), str(tmp_path / "corpus"))
    html = pq.read_table(tmp_path / "corpus" / "pages.parquet", columns=["html"])["html"]
    kb = extract_batch(html.combine_chunks(), AbcdKernel(FieldRegistry()))
    malformed = np.array([b"not xml" in h for h in html.to_pylist()])
    assert malformed.any() and (~malformed).any()
    assert (kb.certified == ~malformed).all()
