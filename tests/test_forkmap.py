"""map_ordered: the serial results, in forked processes, with no child left behind.

The autouse fixture of conftest.py fails any test here that leaves a child.
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from jumphmc.cli import main
from jumphmc.forkmap import _worker_count, map_ordered

PARENT = os.getpid()


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("n_tasks", [0, 1, 2, 7, 3000])
def test_results_are_the_serial_ones_in_task_order(use_cpus, cpus, n_tasks):
    # 3000 tasks take more than one task per claim
    use_cpus(cpus)
    tasks = [(i, 1.0 / (i + 1)) for i in range(n_tasks)]
    results = map_ordered(lambda t: (t[0], t[1] ** 0.5, [t[0]] * (t[0] % 3)), tasks)
    assert results == [(i, x ** 0.5, [i] * (i % 3)) for i, x in tasks]


def test_worker_count(use_cpus, forks):
    use_cpus(3)
    assert [_worker_count(n) for n in (1, 2, 3, 9)] == [1, 2, 3, 3]
    assert map_ordered(abs, [-1, 2, -3, 4]) == [1, 2, 3, 4]
    assert len(forks) == 2  # this process is the third


def test_serial_for_one_task_and_beside_another_thread(use_cpus, forks):
    use_cpus(4)
    assert map_ordered(abs, [-5]) == [5]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert map_ordered(abs, [-1, 2, -3, 4]) == [1, 2, 3, 4]
    finally:
        release.set()
        thread.join()
    assert forks == []


def test_a_worker_error_reaches_the_caller(use_cpus, in_workers):
    use_cpus(2)

    def fail(t):
        raise KeyError(f"task {t} raised in process {os.getpid()}")

    with pytest.raises(KeyError, match="raised in process") as caught:
        map_ordered(in_workers(fail), list(range(6)))
    assert f"process {PARENT}'" not in str(caught.value)  # it came from a worker


def test_the_first_failing_task_raises_as_in_a_serial_run(use_cpus, assert_no_child_process):
    def fail_at_3_and_5(t):
        if t in (3, 5):
            raise ValueError(f"task {t}")
        time.sleep(0.002)
        return t

    for cpus in (1, 2, 3):
        use_cpus(cpus)
        with pytest.raises(ValueError, match="^task 3$"):
            map_ordered(fail_at_3_and_5, list(range(40)))
        assert_no_child_process()


def test_no_child_outlives_an_interrupt_in_a_worker(use_cpus, in_workers):
    use_cpus(3)

    def interrupt(t):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        map_ordered(in_workers(interrupt), list(range(6)))


def test_no_child_outlives_an_interrupt_here(use_cpus):
    use_cpus(3)

    def interrupt_here(t):
        if os.getpid() == PARENT:
            raise KeyboardInterrupt
        time.sleep(30)  # killed, not waited for

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        map_ordered(interrupt_here, list(range(6)))
    assert time.perf_counter() - start < 10


def test_a_worker_that_sends_nothing_is_an_error(use_cpus, in_workers, assert_no_child_process):
    use_cpus(2)
    with pytest.raises(RuntimeError, match="without sending its results"):
        map_ordered(in_workers(lambda t: os._exit(3)), list(range(6)))
    assert_no_child_process()
    with pytest.raises(RuntimeError, match="without sending its results"):
        map_ordered(in_workers(lambda t: lambda: t), list(range(6)))  # cannot be pickled


TUNE_CONFIGS = {
    "mjhmc": {"sampler": "mjhmc", "model": {"name": "rough_well"}, "budget": 5,
              "eval": {"n_samples": 400}, "seed": 21},
    "hmc": {"sampler": "hmc", "model": {"name": "gaussian", "precision_diag": [1.0, 4.0]},
            "budget": 5, "eval": {"n_samples": 400, "n_lags": 30}, "seed": 22},
}


@pytest.mark.parametrize("sampler", ["mjhmc", "hmc"])
def test_tune_outputs_are_identical_at_1_2_and_3_workers(use_cpus, tmp_path, sampler):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(TUNE_CONFIGS[sampler]))
    outputs = []
    for cpus in (1, 2, 3):
        use_cpus(cpus)
        out = tmp_path / f"t{cpus}"
        assert main(["tune", str(cfg), "--out", str(out)]) == 0
        outputs.append([Path(f"{out}{suffix}").read_bytes() for suffix in ("_trials.csv", "_best.json")])
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
