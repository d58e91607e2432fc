"""Noise blocks drawn ahead in a helper process.

A sweep job spends much of its time in ``streams.normal_increments``. Each
block is a pure function of its arguments (the counter-based design of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so
another process can draw it early without changing a byte. ``start`` is
given the plan of every job (the arguments of its draws, in the order it
makes them), maps one shared buffer per planned block, and forks one helper
process. The helper draws each job's blocks straight into their buffers,
one job ahead of the caller: before each job after the first it waits for
a "go" byte, which the caller writes as a job starts, and it writes a
"done" byte per block drawn. Nothing else passes between the two.

When a job calls ``normal_increments`` with arguments equal to a planned
block, it waits for that block's "done" byte and receives a view of the
buffer. Any other call draws inline, and so does every call once the helper
has failed (closed its pipe or kept the caller waiting past
``REPLY_TIMEOUT_S``). A planned block the job does not ask for is unmapped
when the next job starts, and one it does ask for when the job lets go of
it, as with a block drawn inline.

The buffers are anonymous shared mappings, all made before the fork, and
lazy: no page is resident until the helper draws into it, and the helper
unmaps its side of each block once drawn. The benchmark's filter sweep
(2 epsilons x 20 reps, five blocks a job) maps 200 blocks, about 270 MB of
address space. Where a mapping, a pipe or the fork fails, ``start``
returns None and the sweep draws its own noise.

A fast block is read once, front to back, so its buffer is freed behind the
run: as the job steps past its rows, ``streams`` hands them back through
``release``, which frees their whole pages with ``madvise(MADV_REMOVE)``. So
a job holds only the fast rows it has not yet stepped past. Slow blocks,
which a job may read twice, are never handed back. Where ``MADV_REMOVE`` is
missing or fails, the job keeps the pages and carries on.
"""

from __future__ import annotations

import collections
import itertools
import math
import mmap
import os
import select
import signal
import threading
import time
import weakref
from typing import Optional

import numpy as np

from . import streams

# Longest wait for one block; past it the helper counts as failed.
REPLY_TIMEOUT_S = 60.0
# Seconds the helper gets to exit after its pipes close, before SIGKILL.
JOIN_TIMEOUT_S = 5.0
# The advice that frees a shared mapping's pages; None where there is none.
_MADV_REMOVE = getattr(mmap, "MADV_REMOVE", None)


def _key(args) -> tuple:
    """Match key of a draw: its arguments, with the scale compared by its bits."""
    seed, label, steps, count, dims, scale = args
    return (seed, label, steps, count, dims, float(scale).hex())


def _view(buffer, args) -> np.ndarray:
    """The (steps, count, dims) float64 array over a block's buffer."""
    _, _, steps, count, dims, _ = args
    return np.frombuffer(buffer, np.float64, steps * count * dims).reshape(steps, count, dims)


def _draw(plans, buffers, go: int, done: int) -> None:
    """The helper process: draw every job's blocks into their buffers, one job
    ahead of the caller; stop at the end of the plan, or once the caller has
    closed its ends or died."""
    for job, (plan, maps) in enumerate(zip(plans, buffers)):
        if job and not os.read(go, 1):
            return
        for args, buffer in zip(plan, maps):
            streams._draw_block(*args, out=_view(buffer, args))
            buffer.close()  # the view is gone, so the mapping can close
            os.write(done, b"\0")


class DrawAhead:
    """Caller side of one helper process; see the module docstring.

    ``next_job`` marks where one job's draws begin, and ``close`` stops the
    helper. While open, the instance is ``streams``' source of blocks drawn
    ahead, for the thread that started it only.
    """

    def __init__(self, pid: int, go: int, done: int, plans, buffers):
        self.pid = pid
        self._go: Optional[int] = go
        self._done: Optional[int] = done
        self._drawn = 0  # "done" bytes read so far
        ordinals = itertools.count()  # a block's place in the helper's drawing order
        self._jobs = collections.deque(
            [(next(ordinals), _key(args), buf) for args, buf in zip(plan, maps)]
            for plan, maps in zip(plans, buffers)
        )
        self._current: list = []
        # [view, buffer, bytes freed] per block sent to the current job; the
        # references are weak, so a block's mapping still closes with its view
        self._sent: list = []
        self._thread = threading.get_ident()
        streams._drawn_ahead = self

    def next_job(self) -> None:
        """A job starts: the blocks planned for it become the ones it can
        receive, and those the last job did not ask for are unmapped."""
        self._current = self._jobs.popleft() if self._jobs else []
        self._sent = []
        if self._jobs and self._go is not None:
            try:
                os.write(self._go, b"\0")
            except OSError:
                self._shut()

    def __call__(self, args) -> Optional[np.ndarray]:
        """The block for a normal_increments call, or None to draw inline."""
        if self._done is None or threading.get_ident() != self._thread:
            return None
        key = _key(args)
        for pos, (ordinal, planned, buffer) in enumerate(self._current):
            if planned == key:
                break
        else:
            return None
        del self._current[pos]
        if not self._wait_for(ordinal):
            return None
        view = _view(buffer, args)
        self._sent.append([weakref.ref(view), weakref.ref(buffer), 0])
        return view

    def release(self, block: np.ndarray, nbytes: int) -> None:
        """Free the whole pages among the first ``nbytes`` bytes of ``block``,
        which the job has stepped past and will not read again. An array not
        sent to the current job is left as it is, and so is a block whose
        release fails."""
        sent = next((s for s in self._sent if s[0]() is block), None)
        end = nbytes - nbytes % mmap.PAGESIZE
        if sent is None or _MADV_REMOVE is None or end <= sent[2]:
            return
        try:
            sent[1]().madvise(_MADV_REMOVE, sent[2], end - sent[2])
        except OSError:
            return
        sent[2] = end

    def _wait_for(self, ordinal: int) -> bool:
        """Read "done" bytes until block ``ordinal`` is drawn; False, with the
        helper shut, if its pipe closes first or the wait runs out."""
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        poller = select.poll()
        poller.register(self._done, select.POLLIN)
        while self._drawn <= ordinal:
            left = deadline - time.monotonic()
            got = os.read(self._done, 4096) if left > 0 and poller.poll(left * 1e3) else b""
            if not got:
                self._shut()
                return False
            self._drawn += len(got)
        return True

    def _shut(self) -> None:
        for fd in (self._go, self._done):
            if fd is not None:
                os.close(fd)
        self._go = self._done = None

    def close(self) -> None:
        """Stop the helper and reap it; always leaves no process behind."""
        if streams._drawn_ahead is self:
            streams._drawn_ahead = None
        self._shut()
        self._jobs.clear()
        self._current = []
        self._sent = []
        deadline = time.monotonic() + JOIN_TIMEOUT_S
        try:
            while os.waitpid(self.pid, os.WNOHANG)[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(self.pid, signal.SIGKILL)
                time.sleep(0.005)
        except ChildProcessError:  # reaped already
            pass

    def __enter__(self) -> "DrawAhead":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start(plans) -> Optional[DrawAhead]:
    """Fork a helper that draws ``plans`` (per job, the normal_increments
    argument tuples of its draws, in order); None where ``os.fork`` is
    missing, a mapping, pipe or fork fails, or another helper already serves
    this process."""
    if streams._drawn_ahead is not None or not hasattr(os, "fork"):
        return None
    fds = []
    try:
        buffers = [
            [mmap.mmap(-1, max(8 * math.prod(args[2:5]), 1)) for args in plan] for plan in plans
        ]
        go_read, go_write = os.pipe()
        fds += [go_read, go_write]
        done_read, done_write = os.pipe()
        fds += [done_read, done_write]
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(go_write)
            os.close(done_read)
            _draw(plans, buffers, go_read, done_write)
        finally:
            os._exit(0)
    os.close(go_read)
    os.close(done_write)
    return DrawAhead(pid, go_write, done_read, plans, buffers)
