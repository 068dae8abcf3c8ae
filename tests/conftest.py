"""Fixtures shared by the test modules."""

import contextlib

import pytest


@pytest.fixture
def closing():
    """``closing(thing)`` returns ``thing`` and closes it when the test ends.

    For what a test opens and does not close itself: a ``SiteStore``'s log
    file, or every store of a ``SimVO``.
    """
    with contextlib.ExitStack() as stack:
        yield lambda thing: stack.enter_context(contextlib.closing(thing))
