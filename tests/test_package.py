import surfreal


def test_public_names_resolve_once():
    missing = [name for name in surfreal.__all__ if not hasattr(surfreal, name)]
    assert missing == []
    assert len(set(surfreal.__all__)) == len(surfreal.__all__)
