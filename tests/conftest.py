"""One hypothesis profile for the whole suite: no per-example deadline.

The first example of a property may build a kernel, a generator table or a
large product, which can take longer than hypothesis's 200 ms default on a
slow or busy host.  Example counts stay with each test."""

from hypothesis import settings

settings.register_profile("hivealg", deadline=None)
settings.load_profile("hivealg")
