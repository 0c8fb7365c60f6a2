"""Forked children that each run one call, and an ordered map over tasks in them.

Bare forks, not a ``multiprocessing`` pool: on a 2-core VM a fork with its
pipe and ``waitpid`` took about 3.5 ms, and a pool of two about 12 ms to
start, map three tiny tasks and join, as long as a tuning trial.
"""

import contextlib
import os
import pickle
import signal
import threading
from array import array


def _worker_count(n_tasks: int) -> int:
    """Processes for ``n_tasks`` tasks, this one included: one per CPU this
    process may use, at most one per task, and 1 without fork or beside
    another thread (a child gets none of them, but may get a lock one held)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, n_tasks)


def _run_claims(fn, tasks: list, claims: int, chunk: int) -> list:
    """``(index, raised, value)`` of ``fn`` over each chunk of ``chunk`` tasks
    claimed from the pipe ``claims`` until it is empty.  A task that raises
    ends the list and empties the pipe, so that every process stops."""
    done = []
    while claim := os.read(claims, 4):
        (start,) = array("i", claim)
        for i in range(start, min(start + chunk, len(tasks))):
            try:
                done.append((i, False, fn(tasks[i])))
            except BaseException as exc:
                while os.read(claims, 4096):
                    pass
                return done + [(i, True, exc)]
    return done


class Forks(contextlib.ExitStack):
    """Children forked to run one call each, which pickle back ``(raised, value)``:
    the value or what it raised (nothing unless all of it pickles).  Closing kills
    and reaps every child."""

    _pipes = ()  # the read ends the children send their results through, in fork order

    def fork(self, fn, *args) -> None:
        r, w = os.pipe()
        if (pid := os.fork()) == 0:
            try:
                try:
                    result = (False, fn(*args))
                except BaseException as exc:
                    result = (True, exc)
                with open(w, "wb") as out:
                    out.write(pickle.dumps(result))
            finally:
                os._exit(0)
        os.close(w)
        self._pipes += (r,)
        self.callback(os.waitpid, pid, 0)  # callbacks run last first: close, kill, reap
        self.callback(os.kill, pid, signal.SIGKILL)
        self.callback(os.close, r)

    def results(self):
        """Yield the children's values in fork order; the first child that raised raises here."""
        for r in self._pipes:
            with open(r, "rb", closefd=False) as results:
                if not results.peek(1):
                    raise RuntimeError("a worker process ended without sending its results")
                raised, value = pickle.load(results)
            if raised:
                raise value
            yield value


def map_ordered(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, bit for bit, in ``_worker_count`` processes.

    This process forks the others and works too; each claims the next chunk
    of tasks from one pipe, so a slow task holds up no queue.  Children
    inherit ``fn`` and ``tasks`` and pickle back only their results.  The
    first failing task in task order raises here, as in a serial run (an
    interrupt here at once).
    """
    workers = _worker_count(len(tasks))
    if workers <= 1:  # 0 for no tasks
        return [fn(t) for t in tasks]
    chunk = -(-len(tasks) // 1024)  # at most 1024 4-byte claims: 4 KiB, the least a pipe holds
    claims, w = os.pipe()
    os.write(w, array("i", range(0, len(tasks), chunk)).tobytes())
    os.close(w)
    with Forks() as forks:
        forks.callback(os.close, claims)
        for _ in range(workers - 1):
            forks.fork(_run_claims, fn, tasks, claims, chunk)
        done = _run_claims(fn, tasks, claims, chunk)
        if done and done[-1][1] and not isinstance(done[-1][2], Exception):
            raise done[-1][2]  # an interrupt here stops the map at once
        for results in forks.results():
            done += results
    done.sort(key=lambda d: d[0])
    if raised := [value for _, failed, value in done if failed]:
        raise raised[0]
    return [value for _, _, value in done]
