import os

import pytest

from bipembed import regularity


def _has_child() -> bool:
    """Whether this process has a child it has not reaped (one that has
    ended is reaped by asking)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_sampling_helper_left():
    """Fail a test that leaves a forked sampling helper running or unreaped,
    or a prefetched pair check in the registry."""
    had_child = hasattr(os, "fork") and _has_child()
    yield
    assert not regularity._prefetched, "a batch left prefetched pair checks behind"
    if hasattr(os, "fork") and not had_child:
        assert not _has_child(), "a child process was left unreaped"
