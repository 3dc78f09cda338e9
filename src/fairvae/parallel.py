"""A second core for training steps, the leakage probe and the embeddings
export: one helper process per training run, probe fit or export.

A step with a labeled and an unlabeled batch splits in two sides that share
only parameters: ``objectives.joint_loss`` has the helper build and sweep
the unlabeled side while the caller builds the labeled one,
``autodiff.backward`` sweeps the labeled side and then adds the helper's
gradients into the parameters, and ``training.Adam.step`` has the helper
update the second half of its flat buffers (at least
``training.ADAM_SPLIT_MIN_VALUES`` values). A probe fit
(``metrics._fit_probe``) splits each epoch's rows and columns between the
caller and the helper. An export (``experiments.export_embeddings``) has
the helper format the second half of its rows. Two processes, unlike two
threads, do not share Python's interpreter lock, which held the threaded
split back. Every trained bit and every exported byte is the serial run's.

``session`` is the scope of one ``training.train`` call, one probe fit or
one export. It gets a ``Helper`` when its caller splits it and the process
is ``forkable``: it can fork, may run on two or more CPUs, runs one thread
(BLAS pinned to one) and is not a grid's pool worker (``run_serially``: the
workers already share the CPUs by cells). Each caller decides from its own
work: training splits every run whose steps have two sides (every method
but plain), the probe a fit whose split epoch runs every product off
OpenBLAS's small-matrix path (``metrics._splits``), the export one of at
least ``experiments.EXPORT_SPLIT_MIN_VALUES`` values. The ``training``,
``metrics._fit_probe`` and ``experiments.export_embeddings`` docstrings give
the measurements behind each rule. Other runs, fits and exports never fork.

The helper's one anonymous shared mapping (``mmap.mmap(-1, n)``, inherited
by the fork; no resource-tracker process) holds the caller's shared arrays
(the optimizer's flat buffers, so both processes see every parameter
update; the probe's logit gradient) and an exchange area through which each
task's arrays cross; only small messages go through the pipes, and an
export, which makes no mapping, sends its text back through them. The
first task forks the process, which serves the session's tasks one at a
time and exits at end of file on its pipe. The session closes the pipe and
reaps the process when the block is left, by a return or an exception, so
no process outlives a run, a fit or an export.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

_serial = False  # set by run_serially


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _one_thread() -> bool:
    """Whether the process runs one thread, BLAS's worker threads counted;
    False where the system does not list them (no procfs)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def forkable() -> bool:
    """Whether this process may fork a helper: it can fork, may run on two
    or more CPUs, is not a pool worker (``run_serially``) and runs one
    thread. Forking beside other threads is unsafe, and a second thread is
    most often BLAS's: its worker threads and the helper's would then share
    the CPUs, and steps ran slower than serial ones. The command line pins
    BLAS to one thread before numpy loads (``fairvae/__init__.py``); a
    program that imports fairvae sets ``OPENBLAS_NUM_THREADS=1`` itself."""
    return (not _serial and hasattr(os, "fork") and _cpus() >= 2
            and _one_thread())


def run_serially() -> None:
    """Never split a step, a probe fit or an export in this process (a
    grid's pool worker)."""
    global _serial
    _serial = True


@contextlib.contextmanager
def session(split: bool, **held):
    """The scope of one training run, probe fit or export: yields its
    ``Helper``, holding ``held`` for its tasks, when the caller's ``split``
    holds and the process is ``forkable``; else None. The helper process, if
    one was forked, has exited when the block is left."""
    if not (split and forkable()):
        yield None
        return
    helper = Helper(held)
    try:
        yield helper
    finally:
        helper.close()
        helper.held.clear()  # the optimizer holds the helper: break the cycle


class HelperTraceback(Exception):
    """The cause attached to an exception raised in the helper process: its
    traceback there, as text."""


_ALIGN = 64  # bytes: every array in the mapping starts on a cache line


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


class Helper:
    """A session's shared mapping and helper process.

    ``buffers`` makes the mapping once, before the helper forks: the
    caller's zero-filled arrays, then the exchange area, one part for each
    direction. Arrays cross in it: ``submit`` and ``signal`` write them
    there, and so does ``place`` in the helper; the receiving side gets
    views of them. An array that does not fit crosses through the pipe.

    ``submit(task, *args, arrays=..., replies=n)`` forks the process on
    first use and has it run ``task(helper, views, *args)``, a generator
    whose ``n`` items come back one per ``reply``; ``views`` are the
    ``arrays``. ``signal(arrays)`` hands the running task more arrays, which
    its ``wait()`` returns. An exception in the task comes back instead of
    its next item, as the last reply of that task, and ``reply`` raises it
    with its type and message. A task's unread replies are dropped by the
    next ``submit`` or by ``drain``, so no task still reads what the next
    one overwrites.
    """

    def __init__(self, held: dict):
        self.held = held
        self.pid = None
        self._pending = 0
        self._tasks = 0  # submitted so far: a reply belongs to task number _tasks
        self._bytes = None
        self._area = (0, 0, 0)  # the exchange area's start, middle and end
        self._cursor = (0, 0)  # where this side writes next, and its limit
        self._inbox = None  # the helper's end of the pipe, in the helper
        self._views = {}

    # -- the mapping ------------------------------------------------------

    def buffers(self, size: int, count: int) -> list[np.ndarray]:
        """``count`` zero-filled float64 arrays of ``size`` values each, in a
        new mapping that the helper will share. The exchange area that
        follows them has room for ``size + 2**20`` values towards the helper
        (a step's unlabeled batch, noise and masks: 150k values at width
        103, hidden width 256 and 128 rows) and ``2 * size`` back (its
        gradients into the parameters, up to 1.3 times its bundle's values).
        Only the pages a step writes take memory."""
        import mmap

        if self._bytes is not None or self.pid is not None:
            raise RuntimeError("the helper's mapping is made once, before it forks")
        step = _aligned(8 * size)
        start = count * step
        middle = start + _aligned(8 * (size + 2 ** 20))
        self._bytes = np.frombuffer(
            mmap.mmap(-1, middle + _aligned(16 * size)), dtype=np.uint8)
        self._area = (start, middle, len(self._bytes))
        return [self._bytes[i * step:i * step + 8 * size].view(np.float64)
                for i in range(count)]

    def place(self, arrays) -> list:
        """Write ``arrays`` (None entries allowed) after what this side
        placed for the current task; returns what ``view`` needs."""
        lo, hi = self._cursor
        out = []
        for a in arrays:
            if a is None:
                out.append(None)
                continue
            a = np.asarray(a)
            if lo + a.nbytes > hi:
                out.append(a)  # too big for the area: pickled through the pipe
                continue
            out.append((lo, a.shape, a.dtype.str))
            self._view(out[-1])[...] = a
            lo += _aligned(a.nbytes)
        self._cursor = lo, hi
        return out

    def view(self, placed) -> list:
        """The arrays that ``place`` placed, as views of the area."""
        return [p if p is None or isinstance(p, np.ndarray) else self._view(p)
                for p in placed]

    def _view(self, placed: tuple) -> np.ndarray:
        # a step places the same shapes at the same offsets as the last one,
        # so each view is made once
        v = self._views.get(placed)
        if v is None:
            lo, shape, dtype = placed
            dtype = np.dtype(dtype)
            n = dtype.itemsize * int(np.prod(shape))
            v = self._views[placed] = \
                self._bytes[lo:lo + n].view(dtype).reshape(shape)
        return v

    # -- the caller's side ------------------------------------------------

    def submit(self, task, *args, arrays=(), replies: int = 1) -> int:
        """Hand ``task`` and ``arrays`` to the helper; returns the task's
        number."""
        self.drain()
        if self.pid is None:
            self._fork()
        self._cursor = self._area[:2]
        self._send((task, args, self.place(arrays)))
        self._pending = replies
        self._tasks += 1
        return self._tasks

    def signal(self, arrays) -> None:
        """Hand the running task ``arrays``, which its ``wait`` returns."""
        self._send(self.place(arrays))

    def reply(self, task: int | None = None):
        """The next reply of the last task (of task number ``task``, if
        given, which must be the last one and have replies left)."""
        import pickle

        if not self._pending or (task is not None and task != self._tasks):
            raise RuntimeError("no reply is left for this helper task")
        try:
            ok, item = pickle.load(self._from)
        except EOFError:
            self._pending = 0
            raise RuntimeError(f"helper process {self.pid} exited") from None
        self._pending = self._pending - 1 if ok else 0
        if not ok:
            exc, trace = item
            exc.__cause__ = HelperTraceback(trace)
            raise exc
        return item

    def drain(self) -> None:
        """Read and drop the last task's unread replies."""
        while self._pending:
            try:
                self.reply()
            except Exception:
                pass

    def close(self) -> None:
        """End the helper process, if it was forked, and wait for it."""
        if self.pid is None:
            return
        for pipe in (self._to, self._from):
            try:
                pipe.close()
            except OSError:  # its unsent bytes may go nowhere now
                pass
        os.waitpid(self.pid, 0)
        self.pid = None

    def _send(self, message) -> None:
        import pickle

        pickle.dump(message, self._to, protocol=pickle.HIGHEST_PROTOCOL)
        self._to.flush()

    # -- the helper's side ------------------------------------------------

    def wait(self) -> list:
        """In a task: the arrays of the caller's next ``signal``."""
        import pickle

        return self.view(pickle.load(self._inbox))

    def _fork(self) -> None:
        import gc

        to_child, from_child = os.pipe(), os.pipe()
        pid = os.fork()
        if pid == 0:  # the helper: serve, then leave without unwinding
            code = 1
            try:
                gc.freeze()  # never collect (or finalize) the caller's objects
                os.close(to_child[1])
                os.close(from_child[0])
                with open(to_child[0], "rb") as inbox, \
                        open(from_child[1], "wb") as outbox:
                    self._inbox = inbox
                    self._serve(outbox)
                code = 0
            finally:
                os._exit(code)
        os.close(to_child[0])
        os.close(from_child[1])
        self.pid = pid
        self._to = open(to_child[1], "wb")
        self._from = open(from_child[0], "rb")

    def _serve(self, outbox) -> None:
        import pickle
        import traceback

        def send(message):
            pickle.dump(message, outbox, protocol=pickle.HIGHEST_PROTOCOL)
            outbox.flush()

        while True:
            try:
                message = pickle.load(self._inbox)
            except EOFError:
                return
            if isinstance(message, list):
                continue  # a signal for a task that failed before its wait
            task, args, placed = message
            self._cursor = self._area[1:]
            try:
                for item in task(self, self.view(placed), *args):
                    send((True, item))
            except Exception as exc:
                trace = "".join(traceback.format_exception(exc))
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                send((False, (exc, trace)))
            del message, task, args, placed  # keep nothing of a step alive
