"""The bounded, order-preserving task scheduler behind every client call."""

import threading

import pytest

from noveltycheck.scheduler import LaneClosedError, Scheduler


def test_one_worker_runs_inline_in_submission_order():
    order = []
    caller = threading.get_ident()

    def task(i):
        order.append((i, threading.get_ident()))
        return i

    with Scheduler(1) as scheduler:
        futures = []
        for i in range(5):
            futures.append(scheduler.submit(task, i))
            assert futures[-1].done()  # ran before submit returned
        assert order == [(i, caller) for i in range(5)]
        assert [f.result() for f in futures] == list(range(5))


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


def test_one_worker_runs_a_delayed_task_inline_after_its_wait():
    order = []
    with Scheduler(1) as scheduler:
        scheduler.submit_after(lambda: order.append("wait"), order.append, "task")
        assert order == ["wait", "task"]


def test_submit_after_the_lane_closed_raises_lane_closed():
    with Scheduler(2) as scheduler:
        pass
    with pytest.raises(LaneClosedError):
        scheduler.submit(len, "abc")
