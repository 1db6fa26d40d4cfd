"""The package's public namespace."""
import kpoqcr


def test_every_exported_name_resolves():
    # A name removed from its module but left in __all__ breaks
    # `from kpoqcr import *`; catch it here instead.
    missing = [name for name in kpoqcr.__all__ if not hasattr(kpoqcr, name)]
    assert missing == []
