import pytest

from ostbc_lab import sim


@pytest.fixture
def no_live_pool():
    """No process pool before the test and none left after it, so a pool
    (or a stand-in) the test makes is not reused by another test."""

    def drop():
        pool = sim._POOL[0]
        sim._POOL[:] = None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    drop()
    yield
    drop()
