"""One bounded, order-preserving task scheduler for every client call.

A run owns one scheduler per client, its lane: a model lane and a search
lane, each a pool of N worker threads, N = 1 included. Up to N model calls
and N searches can be in flight at once, so even at N = 1 a model call and
a search overlap. The threads cost memory: glibc gives each thread that
allocates its own malloc arena. Six runs of ``python3 perfbench/run.py
--workload fulltext_verify --seed 1 --seconds 15 --trace 0`` (N = 1) on a
2-vCPU Linux host read peak RSS 39.6-40.1 MB, and three more under
``MALLOC_ARENA_MAX=1`` read 35.8-35.9 MB.

Phases submit each call as soon as its inputs exist, and searches start
during Phase I, as soon as a scope's queries exist; Phase II collects them,
so the manifest's phase2 ``started_at`` marks collection, not the first
search. Results are read back in each phase's own iteration order, never in
completion order, so artifacts are identical at any worker count.

Only the orchestrating caller waits on futures; a task never waits on
another task. A task may submit to its own lane and never waits: the
taxonomy task submits the core-task comparison's calls, and a model task may
submit to the search lane too. A bounded pool therefore cannot deadlock, and
at most ``workers`` tasks, and so client calls, are in flight on each lane
at once. A wait before a task, such as a search's retry backoff, holds no
worker either: ``submit_after`` waits on a thread of its own and submits the
task when the wait is over, so queued tasks run meanwhile. The lane runs
tasks first in, first out; a caller that wants some work to go first keeps
its own queues and has each task take the next item, as the search runner
does with due retries.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, TypeVar

R = TypeVar("R")

logger = logging.getLogger(__name__)


class LaneClosedError(RuntimeError):
    """A task was submitted after its lane shut down."""


class Scheduler:
    """Runs submitted tasks on a pool of ``workers`` threads.

    Use it as a context manager: leaving the block waits for running tasks
    and pending waits, and on an exception drops queued tasks whose results
    nobody will read.
    """

    def __init__(self, workers: int) -> None:
        self._pool = ThreadPoolExecutor(max_workers=workers)
        self._waits: list[threading.Thread] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._join_waits()
        self._pool.shutdown(wait=True, cancel_futures=exc_type is not None)
        self._join_waits()  # those a task started while the pool shut down

    def submit(self, fn: Callable[..., R], /, *args: Any, **kwargs: Any) -> "Future[R]":
        """Start ``fn(*args, **kwargs)``; its exception re-raises at ``.result()``.

        Raises ``LaneClosedError`` once the lane has shut down.
        """
        try:
            return self._pool.submit(fn, *args, **kwargs)
        except RuntimeError as exc:  # the pool refuses tasks once shut down
            raise LaneClosedError(str(exc)) from exc

    def submit_after(
        self, wait: Callable[[], object], fn: Callable[..., object], /, *args: Any
    ) -> None:
        """Start ``fn(*args)`` once ``wait()`` returns, holding no worker while it waits.

        ``wait`` runs on a thread of its own, and ``fn`` is dropped if the
        lane has closed by then. If ``wait`` raises, ``fn`` is dropped too,
        and the exception is only logged. Nobody reads ``fn``'s result, so
        ``wait`` and ``fn`` must report their outcome themselves.
        """

        def later() -> None:
            try:
                wait()
            except Exception:
                logger.warning("a wait before a task raised; dropped the task", exc_info=True)
                return
            try:
                self.submit(fn, *args)
            except LaneClosedError:  # the lane closed while we waited
                logger.debug("lane closed; dropped a delayed task")

        with self._lock:
            self._waits = [thread for thread in self._waits if thread.is_alive()]
            self._waits.append(threading.Thread(target=later, name="lane-wait", daemon=True))
            self._waits[-1].start()

    def _join_waits(self) -> None:
        with self._lock:
            waits, self._waits = self._waits, []
        for thread in waits:
            thread.join()
