"""The bounded, order-preserving task scheduler behind every client call."""

import threading

import pytest

from noveltycheck.scheduler import LaneClosedError, Scheduler


def test_one_worker_runs_tasks_in_submission_order_on_one_other_thread():
    order = []
    caller = threading.get_ident()
    gate = threading.Event()

    def task(i):
        if i == 0:
            gate.wait(10)
        order.append((i, threading.get_ident()))
        return i

    with Scheduler(1) as scheduler:
        futures = [scheduler.submit(task, i) for i in range(5)]
        # submit returns before its task runs: the first task holds the one worker
        assert not any(future.done() for future in futures)
        gate.set()
        assert [f.result(timeout=10) for f in futures] == list(range(5))
    assert [i for i, _ in order] == list(range(5))
    assert len({thread for _, thread in order}) == 1
    assert order[0][1] != caller


@pytest.mark.parametrize("workers", [1, 4])
def test_task_exception_reraises_at_result(workers):
    def boom(message):
        raise ValueError(message)

    with Scheduler(workers) as scheduler:
        failing = scheduler.submit(boom, "task failed")
        passing = scheduler.submit(len, "abc")
        with pytest.raises(ValueError, match="task failed"):
            failing.result(timeout=10)
        assert passing.result(timeout=10) == 3


def test_delayed_tasks_hold_no_worker_and_run_before_the_lane_closes():
    released = threading.Event()
    ran = []
    before = set(threading.enumerate())
    with Scheduler(2) as scheduler:
        for i in range(3):
            scheduler.submit_after(lambda: released.wait(10), ran.append, i)
        # three waits are pending on a two-worker lane, and its workers still take tasks
        squares = [scheduler.submit(lambda i: i * i, i) for i in range(4)]
        assert [square.result(timeout=10) for square in squares] == [0, 1, 4, 9]
        assert ran == []
        released.set()
    assert sorted(ran) == [0, 1, 2]
    assert set(threading.enumerate()) <= before, "a wait or worker thread outlived the lane"


def test_one_worker_waits_for_a_delayed_task_off_the_callers_thread():
    released = threading.Event()
    order = []
    caller = threading.get_ident()
    with Scheduler(1) as scheduler:
        scheduler.submit_after(
            lambda: (released.wait(10), order.append(("wait", threading.get_ident()))),
            lambda: order.append(("task", threading.get_ident())),
        )
        # submit_after returned while its wait is pending, and the one worker takes tasks
        assert scheduler.submit(len, "abc").result(timeout=10) == 3
        assert order == []
        released.set()
    assert [step for step, _ in order] == ["wait", "task"]
    assert caller not in {thread for _, thread in order}


def test_submit_after_the_lane_closed_raises_lane_closed():
    with Scheduler(2) as scheduler:
        pass
    with pytest.raises(LaneClosedError):
        scheduler.submit(len, "abc")
