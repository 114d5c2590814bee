import pytest


def check_read_only_sequence(view, items):
    """``view`` holds ``items`` in order, reads them back as a sequence does
    and refuses item assignment."""
    n = len(items)
    assert len(view) == n > 3
    assert view[0] == items[0]
    assert view[-1] == items[-1]
    assert view[-3:] == items[-3:] and isinstance(view[-3:], list)
    assert list(view) == items
    assert view == items
    assert view == tuple(items)
    assert view != items[:-1]
    assert view != tuple(items[1:]) + (items[0],)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view[0] = items[0]


@pytest.fixture
def read_only_sequence():
    """The :func:`check_read_only_sequence` assertion."""
    return check_read_only_sequence
