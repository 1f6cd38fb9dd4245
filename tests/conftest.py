"""Shared test plumbing: a one-line-per-criterion acceptance report, a traced peak and the
dense form of a projection."""

import tracemalloc

import pytest
import scipy.sparse

_LINES = []


@pytest.fixture
def criterion():
    """Record one pass/fail line for the end-of-run acceptance summary."""

    def record(num, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        tail = f" ({detail})" if detail else ""
        _LINES.append(f"[acceptance {num}] {name}: {status}{tail}")
        return ok

    return record


@pytest.fixture
def traced_peak():
    """peak(run, warm_up=None): the tracemalloc peak, in bytes, of one run().

    warm_up() (run itself when None) runs first, untraced, so that numpy's and
    LAPACK's one-time allocations stay out of the trace.
    """

    def peak(run, warm_up=None):
        (warm_up or run)()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


def dense(phi):
    """A ProjectionMatrix's m x q matrix as a new numpy array, whatever its storage."""
    return scipy.sparse.coo_array(phi.mat).toarray()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.line(line)
