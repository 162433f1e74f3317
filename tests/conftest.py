"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def split_stages(monkeypatch):
    """``split_stages(rows_per_part, "admission", ...)`` splits the named
    crawl stages (``bootstrap`` / ``admission`` / ``backlog``) into
    key-hash parts of ``rows_per_part`` rows; the other stages keep the
    default part size (one part at test scale). Each stage picks its
    part count by ``ops.hashagg.combine_parts`` on the driver, so the
    smaller size holds only while the stage's method runs."""
    from vat_abcd_crawler_ray.ops import hashagg
    from vat_abcd_crawler_ray.pipelines.crawl import CrawlRun

    methods = {"bootstrap": "_bootstrap", "admission": "_admit", "backlog": "_select"}

    def split(rows_per_part: int, *stages: str) -> None:
        for stage in stages:
            method = getattr(CrawlRun, methods[stage])

            def split_method(self, *args, _method=method):
                default = hashagg._ROWS_PER_PART
                hashagg._ROWS_PER_PART = rows_per_part
                try:
                    return _method(self, *args)
                finally:
                    hashagg._ROWS_PER_PART = default

            monkeypatch.setattr(CrawlRun, methods[stage], split_method)

    return split


@pytest.fixture(scope="session", autouse=True)
def _quiet_ray_data():
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
    except Exception:
        pass
    yield
