import os
import select

import pytest


def _assert_no_child_process():
    """Fail if a child process of this one is running or unreaped.

    ``os.waitpid(-1, WNOHANG)`` sees every child, bare forks included: it
    raises ChildProcessError when there is none, and otherwise returns
    (0, 0) for a running child or reaps a finished one.
    """
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process is left {'running' if pid == 0 else f'unreaped ({pid})'}")


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    _assert_no_child_process()


@pytest.fixture
def assert_no_child_process():
    """The leftover-child check, for tests that need it before they end."""
    return _assert_no_child_process


@pytest.fixture
def use_cpus(monkeypatch):
    """``use_cpus(n)`` makes ``forkmap`` see ``n`` usable CPUs."""

    def use(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    return use


@pytest.fixture
def forks(monkeypatch) -> list:
    """A list that grows by one at every ``os.fork``."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.fixture
def in_workers():
    """``in_workers(act, here)``: a function that calls ``act`` in forked
    worker processes and ``here`` in this one.

    Its first call here waits until a worker has begun a call, so a worker
    surely runs ``act``, however loaded the machine: while this process
    holds its one claimed task, the workers claim the others.
    """
    pipes = []

    def make(act, here=lambda t: t):
        parent, (begun, begin) = os.getpid(), os.pipe()
        pipes.extend((begun, begin))
        waited = []

        def call(*args):
            if os.getpid() != parent:
                os.write(begin, b"\0")
                return act(*args)
            if not waited:
                waited.append(select.select([begun], [], [], 60))
            return here(*args)

        return call

    yield make
    for fd in pipes:
        os.close(fd)
