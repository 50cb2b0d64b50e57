import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
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


@pytest.fixture(scope="session")
def quiet_data_context(ray_session):
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    return ctx


@pytest.fixture
def small_blocks(quiet_data_context):
    """Perturbed block layout for execution-invariance checks: 16 KiB
    target blocks, so every operator sees many tiny blocks.  Restores
    the previous target afterwards."""
    old = quiet_data_context.target_max_block_size
    quiet_data_context.target_max_block_size = 16 * 1024
    yield quiet_data_context
    quiet_data_context.target_max_block_size = old
