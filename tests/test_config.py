"""Layered settings (S7) — reference oracle settings.rs:94-107:
defaults ← file ← explicit path, later layers win per key."""

from __future__ import annotations

import ast
import os

import pytest

import vat_abcd_crawler_ray
from vat_abcd_crawler_ray.config import Settings, load_settings


def test_defaults():
    s = Settings()
    assert s.abcd.landing_page_field.endswith("/Representation/URI")
    assert s.crawl.default_host_budget == 8
    assert not s.debug


def test_overlay_chain(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "settings.toml").write_text(
        "[crawl]\ndefault_host_budget = 99\nmax_rounds = 5\n"
    )
    override = tmp_path / "override.toml"
    override.write_text(
        "debug = true\n[crawl]\nmax_rounds = 7\n[abcd]\nlandingpage_url = 'http://x'\n"
    )
    s = load_settings(str(override))
    # local file layer applied
    assert s.crawl.default_host_budget == 99
    # explicit path wins over local file
    assert s.crawl.max_rounds == 7
    assert s.debug is True
    assert s.abcd.landingpage_url == "http://x"
    # untouched keys keep defaults
    assert s.crawl.link_cap_per_page == 64
    # the removed mega-host salt setting is unknown now
    (tmp_path / "old.toml").write_text("[crawl]\nsalt_buckets = 16\n")
    with pytest.raises(ValueError, match="unknown setting 'crawl.salt_buckets'"):
        load_settings(str(tmp_path / "old.toml"))


@pytest.mark.parametrize(
    "toml, name",
    [("[crawl]\nnot_a_key = 1\n", "crawl.not_a_key"), ("[nope]\nx = 2\n", "nope")],
    ids=["nested", "section"],
)
def test_unknown_keys_rejected(tmp_path, toml, name):
    """A settings typo is an error naming the key, not a silent
    default."""
    p = tmp_path / "s.toml"
    p.write_text(toml)
    with pytest.raises(ValueError, match=name):
        load_settings(str(p))


def test_package_reads_no_environment():
    """Settings come from ``Settings`` layers only: no module of the
    package reads an environment variable (no hidden ``VAT_*`` knobs
    that switch paths or print timers)."""
    pkg = os.path.dirname(vat_abcd_crawler_ray.__file__)
    offenders = []
    for root, _dirs, files in os.walk(pkg):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(root, f)
            with open(path, encoding="utf-8") as fh:
                src = fh.read()
            for node in ast.walk(ast.parse(src)):
                if isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = {a.name for a in node.names}
                else:
                    continue
                if names & {"environ", "environb", "getenv"}:
                    offenders.append(f"{path}:{node.lineno}")
            if "VAT_" in src:
                offenders.append(f"{path}: VAT_")
    assert not offenders, offenders
