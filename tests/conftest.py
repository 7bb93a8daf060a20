"""Every warning raised in a test under tests/ fails it, a numpy
RuntimeWarning (an overflow or an invalid operation) included.  A test's own
filterwarnings mark still narrows this, as it is applied after this one.

One third-party deprecation is left alone: hypothesis raises
mypy_extensions' TypedDict DeprecationWarning inside its own report hook
when a @given test fails, and as an error it ends the session in an
INTERNALERROR before the falsifying example is shown."""

from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if TESTS in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings(
                "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning",
            ), append=False)
