import flagcw


def test_every_export_resolves_once():
    names = flagcw.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(flagcw, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from flagcw import *", namespace)
    assert set(flagcw.__all__) <= set(namespace)
