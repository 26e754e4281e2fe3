import magflow


def test_all_names_resolve_without_duplicates():
    assert len(magflow.__all__) == len(set(magflow.__all__))
    for name in magflow.__all__:
        assert hasattr(magflow, name), name
