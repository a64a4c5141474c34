import pytest

import skg


def test_every_export_resolves_once():
    assert len(skg.__all__) == len(set(skg.__all__))
    missing = [name for name in skg.__all__ if not hasattr(skg, name)]
    assert missing == []


def test_every_export_is_listed_by_dir():
    assert set(skg.__all__) <= set(dir(skg))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from skg import *", namespace)
    assert set(skg.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        skg.no_such_name
