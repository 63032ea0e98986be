import duffing_aa


def test_every_export_resolves():
    # a stale name in __all__ breaks `from duffing_aa import *`
    assert [n for n in duffing_aa.__all__ if not hasattr(duffing_aa, n)] == []
    namespace = {}
    exec("from duffing_aa import *", namespace)
    assert set(duffing_aa.__all__) <= set(namespace)
