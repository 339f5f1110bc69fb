import pendular


def test_every_exported_name_resolves():
    missing = [name for name in pendular.__all__ if not hasattr(pendular, name)]
    assert missing == []
