"""Parser oracle tests — the reference's inline-XML tests re-expressed
(``/root/reference/src/abcd/abcd_parser.rs:232-298`` and the fixture
variants demanded by FIXTURES.md §3)."""

from __future__ import annotations

import os

import pytest

from vat_abcd_crawler_ray.functions.extract import (
    ABCD_VERSION_206,
    AbcdNoDatasetMetadata,
    AbcdParseError,
    format_vat_value,
    parse_abcd,
    propose_landing_page,
)
from vat_abcd_crawler_ray.functions.fields import (
    DEFAULT_LANDING_PAGE_FIELD,
    LATITUDE_PATH,
    LONGITUDE_PATH,
    DEFAULT_FIELDS,
    FieldRegistry,
)

TC_NAME = "/DataSets/DataSet/TechnicalContacts/TechnicalContact/Name"
TITLE = "/DataSets/DataSet/Metadata/Description/Representation/Title"
UNIT_ID = "/DataSets/DataSet/Units/Unit/UnitID"
SPATIAL_DATUM = (
    "/DataSets/DataSet/Units/Unit/Gathering/SiteCoordinateSets"
    "/SiteCoordinates/CoordinatesLatLong/SpatialDatum"
)


def make_xml(
    *,
    title: str = "DESCRIPTION TITLE",
    uri: str | None = "http://LANDING-PAGE/",
    units: list[str] | None = None,
    units_section: bool = True,
) -> bytes:
    unit_xml = units if units is not None else [
        """<abcd:Unit><abcd:UnitID>UNIT ID</abcd:UnitID>
           <abcd:Gathering><abcd:SiteCoordinateSets><abcd:SiteCoordinates>
             <abcd:CoordinatesLatLong>
               <abcd:LongitudeDecimal>10.911</abcd:LongitudeDecimal>
               <abcd:LatitudeDecimal>49.911</abcd:LatitudeDecimal>
               <abcd:SpatialDatum>WGS84</abcd:SpatialDatum>
             </abcd:CoordinatesLatLong>
           </abcd:SiteCoordinates></abcd:SiteCoordinateSets></abcd:Gathering>
           </abcd:Unit>"""
    ]
    uri_xml = f"<abcd:URI>{uri}</abcd:URI>" if uri is not None else ""
    body = (
        f"<abcd:Units>{''.join(unit_xml)}</abcd:Units>" if units_section else ""
    )
    return f"""<?xml version="1.0" encoding="UTF-8"?>
<abcd:DataSets xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
               xmlns:abcd="http://www.tdwg.org/schemas/abcd/2.06">
<abcd:DataSet>
  <abcd:TechnicalContacts><abcd:TechnicalContact>
    <abcd:Name>TECHNICAL CONTACT NAME</abcd:Name>
  </abcd:TechnicalContact></abcd:TechnicalContacts>
  <abcd:Metadata><abcd:Description><abcd:Representation language="en">
    <abcd:Title>{title}</abcd:Title>{uri_xml}
  </abcd:Representation></abcd:Description></abcd:Metadata>
  {body}
</abcd:DataSet>
</abcd:DataSets>""".encode()


@pytest.fixture(scope="module")
def reg() -> FieldRegistry:
    return FieldRegistry()


def test_simple_file(reg):
    # mirrors abcd_parser.rs:232-298
    r = parse_abcd(
        make_xml(),
        reg,
        dataset_id="dataset_id",
        dataset_path="dataset_path",
        landing_page_proposal="landing_page proposal",
        provider_name="provider_id",
    )
    assert r.dataset_id == "dataset_id"
    assert r.dataset_path == "dataset_path"
    assert r.landing_page == "http://LANDING-PAGE/"
    assert r.provider_name == "provider_id"
    assert r.version == ABCD_VERSION_206
    assert r.dataset[TC_NAME] == "TECHNICAL CONTACT NAME"
    assert r.dataset[TITLE] == "DESCRIPTION TITLE"
    assert len(r.units) == 1
    u = r.units[0]
    assert u[UNIT_ID] == "UNIT ID"
    assert u[SPATIAL_DATUM] == "WGS84"
    assert abs(u[LONGITUDE_PATH] - 10.911) < 1e-9
    assert abs(u[LATITUDE_PATH] - 49.911) < 1e-9


def test_landing_page_fallback_to_proposal(reg):
    r = parse_abcd(make_xml(uri=None), reg, landing_page_proposal="PROPOSAL")
    assert r.landing_page == "PROPOSAL"


def test_numeric_parse_failure_silently_drops(reg):
    unit = "<abcd:Unit><abcd:Gathering><abcd:SiteCoordinateSets><abcd:SiteCoordinates><abcd:CoordinatesLatLong><abcd:LongitudeDecimal>not a number</abcd:LongitudeDecimal></abcd:CoordinatesLatLong></abcd:SiteCoordinates></abcd:SiteCoordinateSets></abcd:Gathering></abcd:Unit>"
    r = parse_abcd(make_xml(units=[unit]), reg)
    assert LONGITUDE_PATH not in r.units[0]


def test_rust_float_semantics(reg):
    # underscores are a Python-ism Rust rejects; inf is accepted by both
    for text, expect_present, value in [
        ("1_000", False, None),
        ("inf", True, float("inf")),
        ("  ", False, None),  # trimmed-to-empty → no text event at all
        ("5.", True, 5.0),
        ("-2e3", True, -2000.0),
    ]:
        unit = f"<abcd:Unit><abcd:Gathering><abcd:SiteCoordinateSets><abcd:SiteCoordinates><abcd:CoordinatesLatLong><abcd:LongitudeDecimal>{text}</abcd:LongitudeDecimal></abcd:CoordinatesLatLong></abcd:SiteCoordinates></abcd:SiteCoordinateSets></abcd:Gathering></abcd:Unit>"
        r = parse_abcd(make_xml(units=[unit]), reg)
        if expect_present:
            assert r.units[0][LONGITUDE_PATH] == value, text
        else:
            assert LONGITUDE_PATH not in r.units[0], text


def test_repeated_path_last_wins(reg):
    r = parse_abcd(make_xml(title="T1</abcd:Title><abcd:Title>T2"), reg)
    assert r.dataset[TITLE] == "T2"


def test_entities_kept_escaped_and_trimmed(reg):
    r = parse_abcd(make_xml(title="  A &amp; B &lt;C&gt;  "), reg)
    assert r.dataset[TITLE] == "A &amp; B &lt;C&gt;"


def test_no_units_errors(reg):
    with pytest.raises(AbcdNoDatasetMetadata):
        parse_abcd(make_xml(units_section=False), reg)


def test_malformed_xml_raises_parse_error(reg):
    with pytest.raises(AbcdParseError):
        parse_abcd(b"this is < not xml at all", FieldRegistry())
    with pytest.raises(AbcdParseError):
        parse_abcd(b"<a><b></b></a></too-many>", FieldRegistry())
    # empty or whitespace-only tags: a parse error, not an IndexError
    for bad in (b"<a:DataSets><>", b"<a:DataSets>< >", b"<a:DataSets></>"):
        with pytest.raises(AbcdParseError):
            parse_abcd(bad, FieldRegistry())


def test_stage_dead_letters_one_bad_page():
    """A page the parser rejects becomes one error row; the other pages
    of its batch still extract."""
    import pyarrow as pa

    from vat_abcd_crawler_ray.stages.extract import ExtractStage

    urls = ["https://h/ok1", "https://h/bad", "https://h/ok2"]
    batch = pa.table({
        "url": urls,
        "html": pa.array([make_xml(), b"<a:DataSets><>", make_xml(title="T2")],
                         pa.binary()),
    })
    out = ExtractStage()(batch).to_pandas()
    err = out[out["record_type"] == "error"]
    assert err["url"].tolist() == ["https://h/bad"]
    assert err["error_kind"].tolist() == ["AbcdParseError"]
    ds = out[out["record_type"] == "dataset"]
    assert ds["url"].tolist() == ["https://h/ok1", "https://h/ok2"]
    assert ds[TITLE].tolist() == ["DESCRIPTION TITLE", "T2"]
    assert (out["record_type"] == "unit").sum() == 2


def test_multiple_units(reg):
    units = [f"<abcd:Unit><abcd:UnitID>U{i}</abcd:UnitID></abcd:Unit>" for i in range(5)]
    r = parse_abcd(make_xml(units=units), reg)
    assert [u[UNIT_ID] for u in r.units] == [f"U{i}" for i in range(5)]


def test_cdata_and_comments_ignored(reg):
    r = parse_abcd(make_xml(title="T<!-- comment -->X"), reg)
    # comment splits the text run; both chunks hit the same path → last wins
    assert r.dataset[TITLE] == "X"


def test_utf8_lossy(reg):
    xml = make_xml(title="PLACEHOLDER").replace(b"PLACEHOLDER", b"caf\xe9")  # invalid UTF-8
    r = parse_abcd(xml, reg)
    assert r.dataset[TITLE] == "caf�"


def test_field_registry_roundtrip(tmp_path):
    reg = FieldRegistry()
    assert len(reg) == 36
    assert sum(f.global_field for f in reg) == 13
    assert sum(f.numeric for f in reg) == 2
    p = tmp_path / "fields.json"
    p.write_text(reg.to_json())
    reg2 = FieldRegistry.from_json_file(str(p))
    assert reg2.fields == reg.fields
    # sha1 golden (field.rs:55-59)
    import hashlib

    assert hashlib.sha1(b"test").hexdigest() == "a94a8fe5ccb19ba61c4c0873d391e987982fbbd3"
    assert reg.value_of(DEFAULT_LANDING_PAGE_FIELD) is not None


def test_propose_landing_page():
    assert (
        propose_landing_page("http://lp.example/page.php", "http://x/y.zip")
        == "http://lp.example/page.php?archive=http://x/y.zip"
    )


def test_format_vat_value():
    # vat_type.rs:35-42 Display semantics (shortest repr, no exponent)
    assert format_vat_value(42.0) == "42"
    assert format_vat_value(10.911) == "10.911"
    assert format_vat_value(-0.5) == "-0.5"
    assert format_vat_value(1e21) == "1000000000000000000000"
    assert format_vat_value(None) == ""
    assert format_vat_value("x") == "x"


from hypothesis import example, given, settings as hyp_settings, strategies as st


@given(st.binary(max_size=400))
@example(b"<>")
@hyp_settings(max_examples=200, deadline=None)
def test_parser_total_on_arbitrary_bytes(data):
    """parse_abcd is total: arbitrary bytes either parse or raise one of
    the two controlled error types — never crash, hang, or corrupt."""
    try:
        res = parse_abcd(data, FieldRegistry())
        assert isinstance(res.units, list)
    except (AbcdParseError, AbcdNoDatasetMetadata):
        pass


REFERENCE_SPEC = "/root/reference/abcd-fields.json"


@pytest.mark.skipif(
    not os.path.exists(REFERENCE_SPEC),
    reason="the reference checkout is absent; the built-in registry is "
    "the vendored copy of its spec",
)
def test_builtin_registry_equals_reference_spec_file():
    """The built-in 36-field registry is BYTE-IDENTICAL to the
    reference's shipped schema (REFERENCE_SPEC) — name, numeric flag,
    mandatory flags, global/unit split, unit string, in spec order."""
    from vat_abcd_crawler_ray.functions.fields import FieldRegistry

    ref = FieldRegistry.from_json_file(REFERENCE_SPEC)
    builtin = FieldRegistry()

    def rows(reg):
        return [
            (f.name, f.numeric, f.vat_mandatory, f.gfbio_mandatory,
             f.global_field, f.unit)
            for f in reg
        ]

    assert rows(ref) == rows(builtin)
    assert len(builtin) == 36
