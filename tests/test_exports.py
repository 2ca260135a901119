import hqmmsym


def test_every_exported_name_resolves():
    assert [name for name in hqmmsym.__all__ if not hasattr(hqmmsym, name)] == []
    assert len(set(hqmmsym.__all__)) == len(hqmmsym.__all__)
    namespace = {}
    exec("from hqmmsym import *", namespace)
    assert set(hqmmsym.__all__) <= set(namespace)
