"""A second core for big training steps: one helper thread.

A training step of a big bundle splits in two halves that share only
parameters: ``objectives.joint_loss`` builds the unlabeled side on the
helper while the caller builds the labeled side, ``autodiff.backward`` sweeps
the two sides' graphs the same way, and ``training.Adam.step`` updates the
two halves of its flat buffers. numpy's matrix products and array loops
release the interpreter lock, so the halves run on two cores. BLAS keeps its
own thread count, and every trained bit is the serial run's.

A step splits only when its bundle or optimizer holds at least
``SPLIT_MIN_VALUES`` trainable values and the process may run on two or more
CPUs; ``training``'s docstring gives the measurement behind the constant.
Smaller steps run serially and never start the helper.

There is one helper per process, started by the first step that splits. The
caller waits for every piece of work it hands over before it returns, so no
work outlives its step, and between steps the helper holds nothing. A forked
child has no helper thread; it starts its own if it needs one.
"""

from __future__ import annotations

import os
import threading

SPLIT_MIN_VALUES = 100_000

_tasks: queue.SimpleQueue | None = None  # the helper's inbox, once it runs


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def splits(values: int) -> bool:
    """Whether a step over ``values`` trainable values runs on two cores."""
    return values >= SPLIT_MIN_VALUES and _cpus() >= 2


def pair(here, there):
    """``(here(), there())``, with ``there`` run on the helper thread while
    ``here`` runs on the caller's. Both have finished when this returns or
    raises; when both raise, ``here``'s exception is the one raised."""
    global _tasks
    import queue  # here, so that a process whose steps never split skips it

    if _tasks is None:
        _tasks = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_tasks,), name="fairvae-helper",
                         daemon=True).start()
    outcome = queue.SimpleQueue()
    _tasks.put((there, outcome))
    try:
        mine = here()
    finally:
        ok, theirs = outcome.get()
    if not ok:
        raise theirs
    return mine, theirs


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        fn, outcome = tasks.get()
        try:
            result = True, fn()
        except BaseException as exc:  # raised again by the waiting caller
            result = False, exc
        outcome.put(result)
        del fn, outcome, result  # keep nothing of a finished step alive


def _forget_helper() -> None:
    global _tasks
    _tasks = None


os.register_at_fork(after_in_child=_forget_helper)
