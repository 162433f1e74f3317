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
def force_paths(monkeypatch):
    """``force_paths(select="distributed", ...)`` pins the named crawl
    stages (``bootstrap`` / ``select`` / ``admission``) to a path by
    patching the crawl's one size rule; the other stages keep it."""
    from vat_abcd_crawler_ray.pipelines import crawl

    rule = crawl.stage_path

    def force(**paths: str) -> None:
        monkeypatch.setattr(
            crawl, "stage_path", lambda stage, rows: paths.get(stage) or rule(stage, rows)
        )

    return force


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
