"""One ordered map over independent tasks, run in forked processes.

Bare forks, not a ``multiprocessing`` pool: on a 2-core VM a fork with its
pipe and ``waitpid`` took about 3.5 ms, and a pool of two about 12 ms to
start, map three tiny tasks and join, as long as a tuning trial.
"""

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


def map_ordered(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, bit for bit, in ``_worker_count`` processes.

    This process forks the others and works too; each claims the next chunk
    of tasks from one pipe, so a slow task holds up no queue.  Children
    inherit ``fn`` and ``tasks`` and pickle back only their results.  The
    first failing task in task order raises here, as in a serial run (an
    interrupt here at once).  Every child is killed and reaped in the end.
    """
    workers = _worker_count(len(tasks))
    if workers <= 1:  # 0 for no tasks
        return [fn(t) for t in tasks]
    chunk = -(-len(tasks) // 1024)  # at most 1024 4-byte claims: 4 KiB, the least a pipe holds
    claims, w = os.pipe()
    os.write(w, array("i", range(0, len(tasks), chunk)).tobytes())
    os.close(w)
    children = []  # (pid, read end of the pipe it sends its results through)
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # nothing is written unless all of it pickles
                    with open(w, "wb") as out:
                        out.write(pickle.dumps(_run_claims(fn, tasks, claims, chunk)))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        done = _run_claims(fn, tasks, claims, chunk)
        if done and done[-1][1] and not isinstance(done[-1][2], Exception):
            raise done[-1][2]  # an interrupt here stops the map at once
        for _, r in children:
            with open(r, "rb", closefd=False) as results:
                if not results.peek(1):
                    raise RuntimeError("a worker process ended without sending its results")
                done += pickle.load(results)
        done.sort(key=lambda d: d[0])
        if raised := [value for _, failed, value in done if failed]:
            raise raised[0]
        return [value for _, _, value in done]
    finally:
        os.close(claims)
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
