"""The package namespace: every public name resolves, once."""

import hivealg


def test_every_export_resolves_and_is_listed_once():
    names = hivealg.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(hivealg, name)] == []
