import gbst


def test_every_public_name_resolves_on_the_package():
    assert len(set(gbst.__all__)) == len(gbst.__all__)
    missing = [name for name in gbst.__all__ if not hasattr(gbst, name)]
    assert missing == []
