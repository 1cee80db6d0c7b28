import faulthandler
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "src"))

HANG_LIMIT_S = 600  # the slowest test takes about 30 s


def pytest_configure(config):
    # pytest redirects fd 2 while a test runs, so dump to a copy of it taken now
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """End the run with every thread's stack if one test hangs past HANG_LIMIT_S."""
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
