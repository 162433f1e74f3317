"""``top_budget`` / ``_robots_denied`` against their earlier pandas bodies.

The crawl ranks and robots-gates its round frontier as Arrow tables
(``pc.sort_indices``, a per-host rank from ``dictionary_encode`` plus
numpy, and ``replace_substring_regex`` / ``starts_with`` per distinct
disallow prefix). The pandas formulations below (a mergesort on
(priority desc, seq), ``groupby("host").cumcount()`` against the mapped
budget; ``str.replace`` + ``str.startswith`` per distinct prefix) are
the definitions they replaced, kept here as the reference: the Arrow
results must equal them row for row, on generated frontiers that reach
the edge cases (priority ties broken by ``seq``, hosts absent from the
budget map, ``None`` and zero budgets, hosts with and without a robots
prefix, empty tables)."""

import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings, strategies as st

from vat_abcd_crawler_ray.pipelines.crawl import (
    FRONTIER_COLS,
    _robots_denied,
    top_budget,
)


def top_budget_reference(frame, budgets, default_budget):
    ordered = frame.sort_values(
        ["priority", "seq"], ascending=[False, True], kind="mergesort"
    )
    rank = ordered.groupby("host", sort=False).cumcount()
    with warnings.catch_warnings():  # fillna's object downcast notice
        warnings.simplefilter("ignore", FutureWarning)
        budget = ordered["host"].map(budgets).fillna(default_budget).astype(np.int64)
    mask = (rank < budget).to_numpy()
    return ordered[mask], ordered[~mask]


def robots_denied_reference(df, robots):
    denied = np.zeros(len(df), dtype=bool)
    if not robots or not len(df):
        return denied
    prefix = df["host"].map(robots).fillna("")
    nz = prefix.to_numpy() != ""
    if not nz.any():
        return denied
    paths = df["canonical_url"].str.replace(
        r"^[a-z][a-z0-9+.-]*://[^/]*", "", regex=True
    )
    sub_paths = paths[nz]
    sub_pre = prefix[nz]
    sub_denied = np.zeros(len(sub_paths), dtype=bool)
    for p, pos in sub_pre.groupby(sub_pre, sort=False).indices.items():
        sub_denied[pos] = sub_paths.iloc[pos].str.startswith(p).to_numpy()
    denied[nz] = sub_denied
    return denied


_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("canonical_url", pa.string()),
        ("key", pa.int64()),
        ("host", pa.string()),
        ("priority", pa.float64()),
        ("seq", pa.int64()),
        ("surrogate", pa.int64()),
    ]
)
assert _SCHEMA.names == FRONTIER_COLS
_HOSTS = [f"h{i}.example" for i in range(6)]
_PATHS = ["/x/1", "/", "/deep/pre/2", "?q=1", "/ok", "/xy", "/déjà"]


@st.composite
def _frontiers(draw):
    """(frontier table, budgets, default budget, robots): few hosts and
    few priorities, so ties and over-budget hosts are common."""
    n = draw(st.integers(0, 40))
    hosts = draw(st.lists(st.sampled_from(_HOSTS), min_size=n, max_size=n))
    paths = draw(st.lists(st.sampled_from(_PATHS), min_size=n, max_size=n))
    prio = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n))
    seqs = draw(st.permutations(range(n))) if n else []
    canon = [f"https://{h}{p}" for h, p in zip(hosts, paths)]
    t = pa.table(
        {
            "url": canon,
            "canonical_url": canon,
            "key": np.arange(n, dtype=np.int64) * 7919,
            "host": hosts,
            "priority": prio,
            "seq": list(seqs),
            "surrogate": np.arange(1, n + 1, dtype=np.int64),
        },
        schema=_SCHEMA,
    )
    budgets = draw(
        st.dictionaries(st.sampled_from(_HOSTS), st.sampled_from([None, 0, 1, 2, 5]))
    )
    default = draw(st.sampled_from([0, 1, 3]))
    robots = draw(
        st.dictionaries(
            st.sampled_from(_HOSTS),
            st.sampled_from([None, "", "/x", "/", "?", "/deep/pre", "/dé"]),
        )
    )
    return t, budgets, default, robots


def _frame(t: pa.Table) -> pd.DataFrame:
    return t.to_pandas().reset_index(drop=True)


@settings(max_examples=300, deadline=None)
@given(_frontiers())
@example((_SCHEMA.empty_table(), {}, 1, {"h0.example": "/"}))
def test_top_budget_matches_pandas_reference(case):
    t, budgets, default, _robots = case
    win, rest = top_budget(t, budgets, default)
    ref_win, ref_rest = top_budget_reference(t.to_pandas(), budgets, default)
    pd.testing.assert_frame_equal(_frame(win), ref_win.reset_index(drop=True))
    pd.testing.assert_frame_equal(_frame(rest), ref_rest.reset_index(drop=True))
    assert win.schema == t.schema and rest.schema == t.schema


@settings(max_examples=300, deadline=None)
@given(_frontiers())
def test_robots_denied_matches_pandas_reference(case):
    t, _budgets, _default, robots = case
    got = _robots_denied(t, robots)
    exp = robots_denied_reference(t.to_pandas(), robots)
    assert got.dtype == bool and (got == exp).all()


def test_seq_breaks_ties_and_prefix_gates_its_host_only():
    """By hand: a priority tie goes to the smaller seq, a host over its
    budget defers the rest, and a prefix denies only its own host's
    matching paths."""
    urls = ["https://h0.example/x/1", "https://h0.example/ok", "https://h1.example/x/1"]
    t = pa.table(
        {
            "url": urls,
            "canonical_url": urls,
            "key": [1, 2, 3],
            "host": ["h0.example", "h0.example", "h1.example"],
            "priority": [1.0, 1.0, 1.0],
            "seq": [5, 2, 9],
            "surrogate": [1, 2, 3],
        },
        schema=_SCHEMA,
    )
    win, rest = top_budget(t, {"h0.example": 1}, 0)
    assert win["seq"].to_pylist() == [2] and rest["seq"].to_pylist() == [5, 9]
    assert _robots_denied(t, {"h0.example": "/x"}).tolist() == [True, False, False]
