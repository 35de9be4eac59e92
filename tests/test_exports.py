"""The package's public names: what ``__all__`` lists must exist, so that
``from causaltext import *`` works."""

import causaltext


def test_all_names_resolve_once():
    names = causaltext.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(causaltext, name)]
    assert missing == []
