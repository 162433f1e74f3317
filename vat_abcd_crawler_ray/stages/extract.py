"""Extract stage — actor-pool ``map_batches`` over fetched pages.

The T2 analog (``/root/reference/src/main.rs:152``: one parser instance
reused across files): the :class:`ExtractStage` callable class is an
actor pool — the field registry, its compiled :class:`AbcdKernel` and
the settings load ONCE per actor in ``__init__``; each call extracts one
Arrow batch of pages.

One input page row → (1 dataset row + N unit rows + L link rows) or
1 error row (soft, C2: ``src/main.rs:226-249`` warn-and-continue).

Two routes produce the same ``(doc, scope, field, value)`` triples:

- the **kernel** (:func:`~..functions.extract.extract_batch`): one pass
  over the batch's contiguous ``html`` buffer for every *certified*
  document — the markup subset on which :func:`parse_abcd` reduces to
  a proper element stack (no comments, CDATA, doctype or bare ``<``;
  matched end tags);
- the **per-document** route (:func:`parse_abcd`, unchanged): every
  other document, and every document when a ``result_hook`` is set
  (the hook takes and returns an :class:`AbcdResult`).

One columnar assembly scatters the triples into per-field arrays with
``take`` (last wins per scope and field) and builds each record type at
its own width: :meth:`ExtractStage.extract` returns four narrow tables
(``dataset``, ``unit``, ``link``, ``error``; :func:`record_schemas`),
which the crawl writes as ``record_type=X`` part files.
:meth:`ExtractStage.__call__` concatenates them into the single tagged
stream (``record_type`` ∈ error | dataset | unit | link, in that order)
with the sparse union schema :func:`output_schema`, for ``map_batches``
users.

Units carry their page's ``surrogate`` (J1 parent/child propagation:
produced together, no shuffle — ``database_sink.rs:642-657``), plus a
``geom_wkt`` column built like the reference's ``POINT(lon lat)``
(M7, ``database_sink.rs:659-679``: only when both coords present).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import Settings
from ..functions.extract import (
    NO_DATASET_MESSAGE,
    AbcdKernel,
    AbcdNoDatasetMetadata,
    AbcdParseError,
    extract_batch,
    format_vat_value,
    parse_abcd,
    propose_landing_page,
)
from ..functions.fields import LATITUDE_PATH, LONGITUDE_PATH, FieldRegistry
from ..functions.urlkeys import host_of, key_urls

RECORD_DATASET = "dataset"
RECORD_UNIT = "unit"
RECORD_LINK = "link"
RECORD_ERROR = "error"
RECORD_TYPES = (RECORD_ERROR, RECORD_DATASET, RECORD_UNIT, RECORD_LINK)

LINK_FIELD = "/DataSets/DataSet/Units/Unit/RecordURI"

PAGE_COLS: list[tuple[str, pa.DataType]] = [
    ("url", pa.string()),
    ("surrogate", pa.int64()),
    ("seq", pa.int64()),
    ("round", pa.int64()),
]
# each record type's own columns after the page columns (then, for
# dataset and unit, the registry's global / unit fields)
RECORD_COLS: dict[str, list[tuple[str, pa.DataType]]] = {
    RECORD_DATASET: [
        ("dataset_id", pa.string()),
        ("dataset_path", pa.string()),
        ("dataset_landing_page", pa.string()),
        ("dataset_provider", pa.string()),
        ("abcd_version", pa.string()),
    ],
    RECORD_UNIT: [("geom_wkt", pa.string())],
    RECORD_LINK: [
        ("link_url", pa.string()),
        ("link_idx", pa.int64()),
        # link keying computed AT EMISSION inside the parallel parse
        # task (canonicalize + murmur3 + host) so no later stage or the
        # driver pays a serial keying pass over 10^5 links per round
        ("link_canonical", pa.string()),
        ("link_key", pa.int64()),
        ("link_host", pa.string()),
    ],
    RECORD_ERROR: [("error_kind", pa.string()), ("error_message", pa.string())],
}


def _field_type(f) -> pa.DataType:
    return pa.float64() if f.numeric else pa.string()


def record_schemas(registry: FieldRegistry) -> dict[str, pa.Schema]:
    """Each record type's narrow schema (the columns of its part files)."""
    fields = {
        RECORD_DATASET: registry.global_fields(),
        RECORD_UNIT: registry.unit_fields(),
    }
    return {
        rt: pa.schema(
            PAGE_COLS + RECORD_COLS[rt]
            + [(f.name, _field_type(f)) for f in fields.get(rt, [])]
        )
        for rt in RECORD_TYPES
    }


def output_schema(registry: FieldRegistry) -> pa.Schema:
    """The tagged stream's sparse union schema."""
    cols = [("record_type", pa.string())] + PAGE_COLS
    for rt in (RECORD_DATASET, RECORD_UNIT, RECORD_LINK, RECORD_ERROR):
        cols += RECORD_COLS[rt]
    return pa.schema(cols + [(f.name, _field_type(f)) for f in registry])


def _dataset_path(url: str) -> str:
    rest = url.split("://", 1)[-1]
    return rest.split("/", 1)[-1] if "/" in rest else ""


def _vat_text(col: pa.Array) -> pa.Array:
    """``format_vat_value`` over a float column: one Arrow cast where it
    prints the same digits (1e-4 ≤ |v| < 1e15, no exponent), the rest
    per value."""
    if not pa.types.is_floating(col.type):
        return col
    text = col.cast(pa.string())
    v = np.abs(col.to_numpy(zero_copy_only=False))
    with np.errstate(invalid="ignore"):
        odd = ~((v >= 1e-4) & (v < 1e15))  # zero, tiny, huge, inf, nan
    odd |= pc.fill_null(pc.match_substring(text, "e"), False).to_numpy(zero_copy_only=False)
    odd &= col.is_valid().to_numpy(zero_copy_only=False)
    if not odd.any():
        return text
    fixed = [format_vat_value(x) for x in col.filter(pa.array(odd)).to_pylist()]
    return pc.replace_with_mask(text, pa.array(odd), pa.array(fixed, pa.string()))


class _Triples:
    """Both routes' output for one batch: documents with a dataset row,
    unit scopes, ``(scope, field, value)`` triples and error rows."""

    def __init__(self):
        self.ds_doc, self.ds_scope, self.version = [], [], []
        self.unit_doc, self.unit_scope = [], []
        self.text = ([], [], [])  # scope, field, value
        self.num = ([], [], [])
        self.err_doc, self.err_kind, self.err_msg = [], [], []
        self.meta: dict[int, tuple] = {}  # doc → per-document route's ids
        self.n_scopes = 0  # every scope id is below this

    def add_kernel(self, kb) -> None:
        self.ds_doc.append(kb.ds_doc)
        self.ds_scope.append(kb.ds_scope)
        self.version += kb.version
        self.unit_doc.append(kb.unit_doc)
        self.unit_scope.append(kb.unit_scope)
        self.n_scopes = kb.n_scopes
        for dst, cols in ((self.text, (kb.text_scope, kb.text_field, kb.text_value)),
                          (self.num, (kb.num_scope, kb.num_field, kb.num_value))):
            for lst, c in zip(dst, cols):
                lst.append(c)
        self.err_doc.append(kb.nodata_doc)
        self.err_kind += [AbcdNoDatasetMetadata.__name__] * len(kb.nodata_doc)
        self.err_msg += [NO_DATASET_MESSAGE] * len(kb.nodata_doc)


def _ints(parts: list) -> np.ndarray:
    return np.concatenate(parts).astype(np.int64) if parts else np.zeros(0, np.int64)


def _runs_from(doc: np.ndarray) -> np.ndarray:
    """0, 1, 2… within each run of equal (sorted) ``doc`` values."""
    heads = np.flatnonzero(np.diff(doc, prepend=-1))
    return np.arange(len(doc)) - np.repeat(heads, np.diff(np.append(heads, len(doc))))


class ExtractStage:
    """map_batches(ExtractStage, batch_format="pyarrow", concurrency=N,
    batch_size=B) — B small (wide binary html rows)."""

    def __init__(
        self,
        settings: Settings | None = None,
        registry: FieldRegistry | None = None,
        result_hook=None,
    ):
        """``result_hook`` is the user-extension seam (SURVEY §2.8):
        a picklable ``AbcdResult -> AbcdResult`` callable applied to each
        successful parse before row emission (e.g. enrichment, redaction,
        custom landing-page policy). With a hook every page takes the
        per-document route."""
        self.settings = settings or Settings()
        self.result_hook = result_hook
        ab = self.settings.abcd
        self.registry = registry or (
            FieldRegistry.from_json_file(ab.fields_file)
            if ab.fields_file
            else FieldRegistry()
        )
        self.landing_page_field = ab.landing_page_field
        self.landingpage_url = ab.landingpage_url
        self.link_cap = self.settings.crawl.link_cap_per_page
        self.kernel = AbcdKernel(self.registry)
        self.schema = output_schema(self.registry)
        self.schemas = record_schemas(self.registry)
        reg = self.registry.fields
        self._field_ix = {f.name: i for i, f in enumerate(reg)}
        # the registry fields each scope kind scatters into columns; the
        # dataset scope also scatters a text landing-page field, which
        # the landing page reads even when it is not a dataset column
        self._ds_fields = [i for i, f in enumerate(reg) if f.global_field]
        self._unit_fields = [i for i, f in enumerate(reg) if not f.global_field]
        lp = self._field_ix.get(self.landing_page_field)
        self._lp_col = -1
        if lp is not None and not reg[lp].numeric:
            if lp not in self._ds_fields:
                self._ds_fields.append(lp)
            self._lp_col = self._ds_fields.index(lp)

    # ---- the per-document route ----------------------------------------
    def _per_doc(self, tr: _Triples, urls: list, html: pa.Array, docs) -> None:
        """:func:`parse_abcd` (plus the hook) per document, its result
        flattened into scopes numbered on from ``tr.n_scopes``."""
        numeric = self.kernel.numeric
        fix = self._field_ix
        trip = {False: ([], [], []), True: ([], [], [])}
        scope = tr.n_scopes

        def emit(values: dict, sc: int) -> None:
            for path, value in values.items():
                i = fix.get(path)
                if i is not None:
                    dst = trip[bool(numeric[i])]
                    dst[0].append(sc)
                    dst[1].append(i)
                    dst[2].append(value)

        for doc in docs.tolist():
            url = urls[doc]
            try:
                res = parse_abcd(
                    html[doc].as_py(),
                    self.registry,
                    dataset_id=url,
                    dataset_path=_dataset_path(url),
                    landing_page_proposal=propose_landing_page(self.landingpage_url, url),
                    provider_name=host_of(url),
                    landing_page_field=self.landing_page_field,
                )
                if self.result_hook is not None:
                    res = self.result_hook(res)
            except (AbcdParseError, AbcdNoDatasetMetadata) as e:
                tr.err_doc.append([doc])
                tr.err_kind.append(type(e).__name__)
                tr.err_msg.append(str(e))
                continue
            tr.ds_doc.append([doc])
            tr.ds_scope.append([scope])
            tr.version.append(res.version)
            tr.meta[doc] = (res.dataset_id, res.dataset_path, res.landing_page,
                            res.provider_name)
            emit(res.dataset, scope)
            for unit in res.units:
                scope += 1
                tr.unit_doc.append([doc])
                tr.unit_scope.append([scope])
                emit(unit, scope)
            scope += 1
        tr.n_scopes = scope
        for is_num, (sc, fi, val) in trip.items():
            if sc:
                dst = tr.num if is_num else tr.text
                dst[0].append(np.array(sc, np.int64))
                dst[1].append(np.array(fi, np.int64))
                dst[2].append(np.array(val, np.float64) if is_num else pa.array(val, pa.string()))

    # ---- assembly ------------------------------------------------------
    def _scatter(self, streams, scope_row, scope_unit, fields, unit: bool,
                 n_rows: int) -> list[pa.Array]:
        """One column per registry field in ``fields`` for the dataset
        (``unit`` False) or unit rows: each cell takes the last triple
        of its (scope, field)."""
        reg = self.registry.fields
        n_cols = len(fields)
        col_of = np.full(len(reg), -1, np.int64)
        col_of[fields] = np.arange(n_cols)
        out = [None] * n_cols
        for is_num, (sc, fi, val) in streams.items():
            row, col = scope_row[sc], col_of[fi]
            sel = np.flatnonzero((row >= 0) & (scope_unit[sc] == unit) & (col >= 0))
            last = np.full(n_rows * n_cols, -1, np.int64)
            np.maximum.at(last, row[sel] * n_cols + col[sel], sel)
            last = last.reshape(n_rows, n_cols)
            present = (last >= 0).any(axis=0)
            for c, i in enumerate(fields):
                if reg[i].numeric != is_num:
                    continue
                typ = _field_type(reg[i])
                ix = last[:, c]
                if not present[c]:
                    out[c] = pa.nulls(n_rows, typ)
                elif is_num:
                    out[c] = pa.array(val[np.maximum(ix, 0)], typ, mask=ix < 0)
                else:
                    out[c] = val.take(pa.array(ix, pa.int64(), mask=ix < 0))
        return out

    def extract(self, batch: pa.Table) -> tuple[dict[str, pa.Table], dict[str, int]]:
        """One batch of pages → the four narrow record tables, plus how
        many documents each route handled."""
        n = batch.num_rows
        names = batch.column_names

        def col(name):
            return batch[name].combine_chunks() if name in names else None

        url_arr = col("url").cast(pa.string())
        html = col("html")
        valid = html.is_valid().to_numpy(zero_copy_only=False).astype(bool)
        urls = url_arr.to_pylist()
        tr = _Triples()
        n_kernel = 0
        per_doc = np.flatnonzero(valid)
        if self.result_hook is None and n:
            kb = extract_batch(html, self.kernel)
            tr.add_kernel(kb)
            per_doc = np.flatnonzero(valid & ~kb.certified)
            n_kernel = int(kb.certified.sum())
        self._per_doc(tr, urls, html, per_doc)
        null_docs = np.flatnonzero(~valid)
        if len(null_docs):
            # the fetch tier (stages/fetch.py) emits NULL bodies for
            # failed fetches — dead-letter rows carrying its error class
            kinds, msgs = col("fetch_error_kind"), col("fetch_error_message")
            tr.err_doc.append(null_docs)
            for d in null_docs.tolist():
                tr.err_kind.append((kinds[d].as_py() if kinds else None) or "FetchMiss")
                tr.err_msg.append((msgs[d].as_py() if msgs else None) or "no page body")

        page = {name: col(name) for name, _ in PAGE_COLS}
        page["url"] = url_arr

        def page_cols(docs: np.ndarray) -> list[pa.Array]:
            ix = pa.array(docs, pa.int64())
            return [
                page[name].take(ix).cast(typ) if page[name] is not None
                else pa.nulls(len(docs), typ)
                for name, typ in PAGE_COLS
            ]

        tables = {}
        # errors, in page order
        err_doc = _ints(tr.err_doc)
        eo = np.argsort(err_doc, kind="stable")
        tables[RECORD_ERROR] = pa.Table.from_arrays(
            page_cols(err_doc[eo]) + [
                pa.array(tr.err_kind, pa.string()).take(pa.array(eo)),
                pa.array(tr.err_msg, pa.string()).take(pa.array(eo)),
            ],
            schema=self.schemas[RECORD_ERROR],
        )

        # scope → output row: datasets in page order, units in (page,
        # document) order
        ds_doc, ds_scope = _ints(tr.ds_doc), _ints(tr.ds_scope)
        do = np.argsort(ds_doc, kind="stable")
        ds_doc, ds_scope = ds_doc[do], ds_scope[do]
        unit_doc, unit_scope = _ints(tr.unit_doc), _ints(tr.unit_scope)
        uo = np.lexsort((unit_scope, unit_doc))
        unit_doc, unit_scope = unit_doc[uo], unit_scope[uo]
        scope_row = np.full(tr.n_scopes, -1, np.int64)
        scope_unit = np.zeros(tr.n_scopes, dtype=bool)
        scope_row[ds_scope] = np.arange(len(ds_scope))
        scope_row[unit_scope] = np.arange(len(unit_scope))
        scope_unit[unit_scope] = True
        streams = {
            False: (_ints(tr.text[0]), _ints(tr.text[1]),
                    pa.concat_arrays(tr.text[2]) if tr.text[2] else pa.array([], pa.string())),
            True: (_ints(tr.num[0]), _ints(tr.num[1]),
                   np.concatenate(tr.num[2]) if tr.num[2] else np.zeros(0)),
        }

        # datasets: ids from the url unless the per-document route gave
        # its own (a hook may rewrite them)
        ds_vals = self._scatter(streams, scope_row, scope_unit, self._ds_fields,
                                False, len(ds_doc))
        ds_urls = [urls[d] for d in ds_doc.tolist()]
        ds_url_arr = url_arr.take(pa.array(ds_doc, pa.int64()))
        proposal = pc.binary_join_element_wise(
            f"{self.landingpage_url}?archive=", ds_url_arr, ""
        )
        ids = ds_url_arr
        paths = pa.array([_dataset_path(u) for u in ds_urls], pa.string())
        landing = (pc.coalesce(ds_vals[self._lp_col], proposal)
                   if self._lp_col >= 0 else proposal)
        providers = pa.array([host_of(u) for u in ds_urls], pa.string())
        if tr.meta:
            given = [tr.meta.get(d) for d in ds_doc.tolist()]
            mask = pa.array([m is not None for m in given])
            ids, paths, landing, providers = (
                pc.replace_with_mask(
                    arr, mask, pa.array([m[k] for m in given if m is not None], pa.string())
                )
                for k, arr in enumerate((ids, paths, landing, providers))
            )
        version = pa.array(tr.version, pa.string()).take(pa.array(do))
        n_global = len(self.registry.global_fields())
        tables[RECORD_DATASET] = pa.Table.from_arrays(
            page_cols(ds_doc) + [ids, paths, landing, providers, version]
            + ds_vals[:n_global],
            schema=self.schemas[RECORD_DATASET],
        )

        # units, with POINT(lon lat) where both coordinates parsed
        unit_vals = self._scatter(streams, scope_row, scope_unit, self._unit_fields,
                                  True, len(unit_doc))
        reg = self.registry.fields
        by_name = {reg[i].name: v for i, v in zip(self._unit_fields, unit_vals)}
        if LONGITUDE_PATH in by_name and LATITUDE_PATH in by_name:
            geom = pc.binary_join_element_wise(
                "POINT(", _vat_text(by_name[LONGITUDE_PATH]), " ",
                _vat_text(by_name[LATITUDE_PATH]), ")", "",
            )
        else:
            geom = pa.nulls(len(unit_doc), pa.string())
        tables[RECORD_UNIT] = pa.Table.from_arrays(
            page_cols(unit_doc) + [geom] + unit_vals,
            schema=self.schemas[RECORD_UNIT],
        )

        # links: each page's first ``link_cap`` units with a text
        # RecordURI, keyed here
        link = by_name.get(LINK_FIELD)
        if link is None or not pa.types.is_string(link.type):
            link = pa.nulls(len(unit_doc), pa.string())
        has = np.flatnonzero(link.is_valid().to_numpy(zero_copy_only=False))
        rank = _runs_from(unit_doc[has])
        has, rank = has[rank < self.link_cap], rank[rank < self.link_cap]
        link_url = link.take(pa.array(has, pa.int64()))
        canon, keys, hosts = key_urls(link_url)
        tables[RECORD_LINK] = pa.Table.from_arrays(
            page_cols(unit_doc[has]) + [
                link_url,
                pa.array(rank, pa.int64()),
                canon,
                pa.array(keys, pa.int64()),
                hosts,
            ],
            schema=self.schemas[RECORD_LINK],
        )
        return tables, {"kernel": n_kernel, "per_doc": len(per_doc)}

    def __call__(self, batch: pa.Table) -> pa.Table:
        """The batch's four record tables as one tagged stream (error,
        dataset, unit, then link rows) in the union schema."""
        tables = self.extract(batch)[0]
        parts = []
        for rt in RECORD_TYPES:
            t = tables[rt]
            tag = pa.array([rt], pa.string()).take(pa.array(np.zeros(t.num_rows, np.int64)))
            parts.append(t.add_column(0, "record_type", tag))
        return (
            pa.concat_tables(parts, promote_options="default")
            .select(self.schema.names)
            .cast(self.schema)
        )
