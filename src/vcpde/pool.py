"""Worker processes forked from this one, for independent tasks on shared inputs.

`drive(loops, run)` is the one way a task runs: each loop is a generator that
yields the key of each task it needs, and each distinct key runs once as
`run(key)` on `Workers(run, len(loops))`, at most one worker per loop.  Those
fork their workers once, when the first task is submitted, so loops that ask
for no task fork nothing.  Each worker inherits `run` and what it holds (a
sweep's system with its Gram cached, say), so a task sends only its own small
description and its result comes back pickled.  With one CPU, one loop, no
`fork` start method, another thread running or inside a worker, each task runs
in this process when it is submitted.  No thread is started: results are read
in the caller's thread, so they are allocated where an inline run would
allocate them.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import sys
import threading
import traceback
import warnings
from collections import deque
from typing import Callable


def worker_count(n_tasks: int) -> int:
    """One worker per CPU this process may run on, at most one per task.  One, so the tasks
    run here, without `fork`, while another thread runs (a forked child gets no copy of that
    thread, and any lock it held stays locked there) and inside a worker, which may not have
    children of its own."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


class Workers:
    """Run `run(task)` for each submitted task, on forked workers or, with one worker, here."""

    def __init__(self, run: Callable, n_tasks: int):
        self.run = run
        self.n_workers = worker_count(n_tasks)
        self.queued: deque = deque()  # tasks not yet sent
        self.idle: list = []  # connections to workers without a task
        self.busy: dict = {}  # connection -> the task its worker runs
        self.finished: list = []  # (task, result, exception) not yet collected
        self.processes: list = []

    def _fork(self) -> None:
        context = multiprocessing.get_context("fork")
        for _ in range(self.n_workers):
            here, there = context.Pipe()
            # the worker closes the parent's ends it inherits, so each sees its own pipe close
            process = context.Process(target=_serve, args=(self.run, there, [here, *self.idle]),
                                      daemon=True)
            process.start()
            there.close()
            self.processes.append(process)
            self.idle.append(here)

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, fault, *details) -> None:
        for connection in self.idle + list(self.busy):
            connection.close()  # an idle worker reads the end of its pipe and exits
        for process in self.processes:
            if fault is not None:
                process.terminate()
            process.join()

    def submit(self, task) -> None:
        """Start `task` on an idle worker, or queue it for the next; with one worker, run it now.
        The workers fork at the first task, so a `Workers` given none forks nothing."""
        if self.n_workers < 2:
            self.finished.append((task, *_outcome(self.run, task)))
            return
        if not self.processes:
            self._fork()
        self.queued.append(task)
        self._send()

    def _send(self) -> None:
        while self.idle and self.queued:
            connection, task = self.idle.pop(), self.queued.popleft()
            connection.send(task)
            self.busy[connection] = task

    def collect(self) -> list:
        """(task, result, None) or (task, None, exception) of each task finished since the last
        call, waiting for one if none has.  The warnings a worker raised are raised again here."""
        if not self.finished:
            for connection in multiprocessing.connection.wait(list(self.busy)):
                try:
                    result, error, caught = connection.recv()
                except EOFError:
                    raise RuntimeError("a worker process exited during its task") from None
                _warn_again(caught)
                self.finished.append((self.busy.pop(connection), result, error))
                self.idle.append(connection)
            self._send()
        finished, self.finished = self.finished, []
        return finished


def drive(loops: list, run: Callable) -> list:
    """Run each loop, a generator that yields the key of each task it needs and is sent
    its result, to the value it returns, in this thread; the values in loop order.

    Each key is one task `run(key)` of `Workers(run, len(loops))`, run once: a loop asking
    for a finished key gets its result at once, and the loops waiting on a key in flight
    resume when it completes, in the order they asked.  A task's error is not kept: it is
    thrown into each loop waiting on it, and one a loop does not catch is raised here.
    """
    returned: list = [None] * len(loops)
    results: dict = {}  # finished key -> its result
    waiting: dict = {}  # key in flight -> indices of the loops waiting on it
    with Workers(run, len(loops)) as workers:

        def resume(index, value=None, error=None):
            loop = loops[index]
            try:
                key = loop.send(value) if error is None else loop.throw(error)
                while key in results:
                    key = loop.send(results[key])
            except StopIteration as done:
                returned[index] = done.value
                return
            if key not in waiting:
                waiting[key] = []
                workers.submit(key)
            waiting[key].append(index)

        for index in range(len(loops)):
            resume(index)
        while waiting:
            for key, value, error in workers.collect():
                if error is None:
                    results[key] = value
                for index in waiting.pop(key):
                    resume(index, value, error)
    return returned


def _outcome(run: Callable, task) -> tuple:
    """(result, None), or (None, the exception `run` raised): what a task's error means is the
    caller's to decide."""
    try:
        return run(task), None
    except Exception as exc:
        return None, exc


def _serve(run: Callable, connection, inherited: list) -> None:
    """A worker's loop: run each task it is sent and send back the outcome and the warnings it
    raised, until the parent closes the pipe."""
    for end in inherited:
        end.close()
    while True:
        try:
            task = connection.recv()
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught:
            result, error = _outcome(run, task)
        if error is not None:  # the traceback does not pickle; a note does, and prints with it
            error.__notes__ = [*getattr(error, "__notes__", ()), "raised in a worker process:\n"
                               + "".join(traceback.format_exception(error))]
        caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        try:
            connection.send((result, error, caught))
        except Exception as exc:  # the outcome does not pickle
            connection.send((None, RuntimeError(f"task {task!r} sent back {exc!r}"), caught))


def _warn_again(caught: list) -> None:
    """Raise each warning a worker recorded as its module raised it, so this process's filters
    and once-per-location registries apply."""
    for message, category, filename, lineno in caught:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        warnings.warn_explicit(
            message, category, filename, lineno, getattr(module, "__name__", None),
            None if module is None else vars(module).setdefault("__warningregistry__", {}))
