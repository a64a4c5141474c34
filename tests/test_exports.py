import skg


def test_every_export_resolves_once():
    assert len(skg.__all__) == len(set(skg.__all__))
    missing = [name for name in skg.__all__ if not hasattr(skg, name)]
    assert missing == []
