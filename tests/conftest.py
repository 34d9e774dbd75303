"""The suite's one passing and one failing ``dualrec selfcheck``.

Each runs through ``cli.main`` once per session: ``test_cli`` checks their
exit codes and report lines, ``test_selfcheck`` the figures of each check.
"""

import contextlib
import io
import time

import pytest

from dualrec import autodiff as ad
from dualrec import cli
from faults import faulty_matmul


def _run_selfcheck():
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["selfcheck"])
    return code, time.perf_counter() - start, out.getvalue().splitlines()


@pytest.fixture(scope="session")
def selfcheck_run():
    """(exit code, seconds, stdout lines) of ``dualrec selfcheck``."""
    return _run_selfcheck()


@pytest.fixture(scope="session")
def faulty_selfcheck_run():
    """The same, with ``faulty_matmul`` bound as ``autodiff.matmul``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "matmul", faulty_matmul)
        return _run_selfcheck()
