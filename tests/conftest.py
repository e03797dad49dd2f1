"""One hypothesis profile for the whole suite: no per-example deadline.

The first example of a property may build a kernel, a generator table or a
large product, which can take longer than hypothesis's 200 ms default on a
slow or busy host.  Example counts stay with each test."""

import pytest
from hypothesis import settings

from hivealg import cone, tensor_algebra

settings.register_profile("hivealg", deadline=None)
settings.load_profile("hivealg")


@pytest.fixture
def rebuilt():
    """Drop the cached presentations, searches and generator tables before
    and after a test that patches the tables they are built from."""
    caches = (cone._presentation, cone._search, tensor_algebra._build_generators)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
