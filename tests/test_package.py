"""The package's public surface."""

import nvmwear


def test_every_exported_name_resolves():
    missing = [name for name in nvmwear.__all__
               if not hasattr(nvmwear, name)]
    assert missing == []
    assert len(set(nvmwear.__all__)) == len(nvmwear.__all__)
