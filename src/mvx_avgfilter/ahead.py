"""Noise blocks drawn ahead in a helper process.

A sweep job spends much of its time in ``streams.normal_increments``. Each
block is a pure function of its arguments (the counter-based design of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so
another process can draw it early without changing a byte. While one job
runs on the calling thread, a helper process forked from it draws the next
job's blocks and holds them. When the job calls ``normal_increments`` with
arguments equal to a planned block, the block comes over a socket at that
moment, so the caller holds no more noise than when it draws the block
itself. Any other call draws inline, and so does every call once the helper
has failed.

In the helper, one thread draws the planned blocks in order while the main
thread answers the caller: it sends a block once it is drawn, waiting for it
if need be. The caller asks for its blocks while the next job's are being
drawn, so the answer cannot wait for a draw in progress to end.
``multiprocessing`` and ``socket`` are imported only when a helper starts.
"""

from __future__ import annotations

import concurrent.futures
import pickle
import struct
import threading
from typing import List, Optional

import numpy as np

from . import streams

# Longest wait for one reply; past it the helper counts as failed.
REPLY_TIMEOUT_S = 60.0
# Seconds the helper gets to exit after its socket closes, then after SIGTERM.
JOIN_TIMEOUT_S = 5.0

_HEADER = struct.Struct("<I")


def _key(args) -> tuple:
    """Match key of a draw: its arguments, with the scale compared by its bits."""
    seed, label, steps, count, dims, scale = args
    return (seed, label, steps, count, dims, float(scale).hex())


def _send_msg(sock, msg) -> None:
    data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_into(sock, view) -> bool:
    """Fill ``view`` from the socket; False when the peer closed first."""
    got = 0
    while got < len(view):
        n = sock.recv_into(view[got:])
        if n == 0:
            return False
        got += n
    return True


def _recv_msg(sock):
    """Next message, or None once the peer has closed."""
    header = bytearray(_HEADER.size)
    if not _recv_into(sock, memoryview(header)):
        return None
    data = bytearray(_HEADER.unpack(header)[0])
    if not _recv_into(sock, memoryview(data)):
        return None
    return pickle.loads(data)


def _serve(sock, other_end) -> None:
    """The helper process: draw planned blocks, answer the caller until it closes.

    Any failure ends the helper; the caller then draws every block itself.
    """
    other_end.close()
    drawer = concurrent.futures.ThreadPoolExecutor(max_workers=1)
    blocks = {}  # index -> future block, drawn in plan order
    try:
        while True:
            msg = _recv_msg(sock)
            if msg is None:
                return
            kind, arg = msg
            if kind == "plan":
                for index, args in arg:
                    blocks[index] = drawer.submit(streams._draw_block, *args)
            elif kind == "drop":
                for index in arg:
                    blocks.pop(index).cancel()
            else:  # "take"
                sock.sendall(memoryview(blocks.pop(arg).result()).cast("B"))
    except Exception:
        pass
    finally:
        drawer.shutdown(wait=False, cancel_futures=True)
        sock.close()


class DrawAhead:
    """Caller side of one helper process; see the module docstring.

    ``queue`` plans draws, ``next_job`` marks where one job's draws end and
    the next one's begin, and ``close`` stops the helper. While open, the
    instance is ``streams``' source of blocks drawn ahead, for the thread that
    started it only.
    """

    def __init__(self, process, sock):
        self._process = process
        self._sock = sock
        self._thread = threading.get_ident()
        self._count = 0
        self._current: List[tuple] = []
        self._upcoming: List[tuple] = []
        streams._drawn_ahead = self

    def queue(self, draws) -> None:
        """Plan ``draws`` (normal_increments argument tuples) for the job after
        the running one, in the order that job makes them."""
        planned = [(self._count + i, tuple(args)) for i, args in enumerate(draws)]
        self._count += len(planned)
        self._upcoming.extend((index, _key(args)) for index, args in planned)
        if planned:
            self._request(("plan", planned))

    def next_job(self, draws=()) -> None:
        """A job starts: the blocks planned for it become the ones it can
        receive, blocks the last job did not ask for are dropped, and
        ``draws`` are planned for the job after it."""
        if self._current:
            self._request(("drop", [index for index, _ in self._current]))
        self._current, self._upcoming = self._upcoming, []
        self.queue(draws)

    def __call__(self, args) -> Optional[np.ndarray]:
        """The block for a normal_increments call, or None to draw inline."""
        if self._sock is None or threading.get_ident() != self._thread:
            return None
        key = _key(args)
        for pos, (index, planned) in enumerate(self._current):
            if planned == key:
                break
        else:
            return None
        del self._current[pos]
        _, _, steps, count, dims, _ = args
        out = np.empty((steps, count, dims), dtype=np.float64)
        try:
            _send_msg(self._sock, ("take", index))
            if not _recv_into(self._sock, memoryview(out).cast("B")):
                raise EOFError("helper closed")
        except (OSError, EOFError):  # timeouts included: draw inline from now on
            self._shut()
            return None
        return out

    def _request(self, msg) -> None:
        if self._sock is None:
            return
        try:
            _send_msg(self._sock, msg)
        except OSError:
            self._shut()

    def _shut(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def close(self) -> None:
        """Stop the helper and wait for it; always leaves no process behind."""
        if streams._drawn_ahead is self:
            streams._drawn_ahead = None
        self._shut()
        process = self._process
        process.join(JOIN_TIMEOUT_S)
        if process.is_alive():
            process.terminate()
            process.join(JOIN_TIMEOUT_S)
        if process.is_alive():
            process.kill()
            process.join()
        process.close()

    def __enter__(self) -> "DrawAhead":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start() -> Optional[DrawAhead]:
    """Fork a helper process; None where the ``fork`` start method is missing
    or another helper already serves this process."""
    if streams._drawn_ahead is not None:
        return None
    import multiprocessing
    import socket

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    ours, theirs = socket.socketpair()
    process = multiprocessing.get_context("fork").Process(
        target=_serve, args=(theirs, ours), name="mvx-draw-ahead", daemon=True
    )
    try:
        process.start()
    except OSError:
        ours.close()
        theirs.close()
        return None
    theirs.close()
    ours.settimeout(REPLY_TIMEOUT_S)
    return DrawAhead(process, ours)
