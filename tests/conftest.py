import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True)
    yield
    ray.shutdown()


@pytest.fixture
def num_buckets(monkeypatch):
    """Setter for the bucket count of every hash exchange
    (`h3ray.ops.reduce.default_num_buckets`), undone after the test.
    Exchanges read the count when they are built, so a test may set one
    count, build and run, then set another."""
    from h3ray.ops import reduce

    def set_count(n: int):
        monkeypatch.setattr(reduce, "default_num_buckets", lambda: n)

    return set_count


@pytest.fixture(scope="session")
def reference_dataset():
    return Path("/root/reference/dataset")
