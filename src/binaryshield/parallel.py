"""Run a function over fixed blocks of rows on every usable CPU.

:func:`map_blocks` calls ``fn(start, stop)`` once for each block of
``BLOCK_ROWS`` rows and returns the results in block order. Below
``_FORK_ROWS`` rows, on one usable CPU, off Linux, or on Python 3.12 and
later (where ``os.fork`` warns), it calls them in order in this process. Otherwise the caller and
one forked child per extra usable CPU take block numbers from one pipe,
filled before the first fork and closed for writing, so each read of a
number claims that block and an empty pipe reads as the end. A process
claims its next block only once it has finished the last, so a child
that gets no CPU holds back at most one block. Each child keeps its
results in memory and writes them to its own pipe once no blocks are
left, then ends through ``os._exit``. The caller reads every child's pipe
to its end before it reaps the child. It runs, itself, every block that a
child claimed but did not return: the child failed, was killed or wrote
short data. ``fn`` must give the same result in any process, and a child
never writes to the caller's files, so the output does not depend on
which process ran which block. There is no setting for this.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from typing import Callable, TypeVar

from . import kernels

T = TypeVar("T")

BLOCK_ROWS = 50
# Rows below which forking is not reliably faster. Forking, exiting and
# reaping a child takes about 2 ms on a 2-vCPU x86_64 VM, and each process
# fills its own embedder token cache. There, in batches of 30-40 calls
# alternating two processes with one on the same prompt file, the median
# time ratio was 1.17-1.51 at 60 prompts; 0.75-0.78 at 200 in three
# batches but 1.34 in a fourth; 0.76-0.87 at 300 and 0.65-0.68 at 400 in
# every batch, while the second CPU was partly taken by other load.
_FORK_ROWS = 300
_TICKET = 4         # bytes per block number in the claim pipe
# Blocks per call at most, so every block number fits in the claim pipe at
# once even when the kernel shrinks a pipe to one 4 KiB page; a longer
# file gets longer blocks.
_MAX_BLOCKS = 4096 // _TICKET
# os.fork warns from Python 3.12 on in a process that has other threads
# (numpy's OpenBLAS threads, the scan helper), and warnings are errors in
# the tests.
_CAN_FORK = sys.platform.startswith("linux") and sys.version_info < (3, 12)


def map_blocks(n: int, fn: Callable[[int, int], T]) -> list[T]:
    """``[fn(start, stop) for each block of rows 0..n]``, in block order."""
    size = max(BLOCK_ROWS, -(-n // _MAX_BLOCKS))
    bounds = [(start, min(start + size, n)) for start in range(0, n, size)]
    children = min(kernels._usable_cpus(), len(bounds)) - 1
    if n < _FORK_ROWS or children < 1 or not _CAN_FORK:
        return [fn(*b) for b in bounds]
    return _forked(bounds, fn, children)


def _forked(bounds, fn, children: int) -> list:
    claims, fill = os.pipe()
    os.write(fill, b"".join(b.to_bytes(_TICKET, "little") for b in range(len(bounds))))
    os.close(fill)
    done = {}
    pipes = {}          # child pid -> read end of its result pipe
    try:
        first = _claim(claims)      # the caller always runs block 0
        for _ in range(children):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:         # no process to spare: run its share here
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _serve(fn, bounds, claims, write)
            os.close(write)
            pipes[pid] = read
        block = first
        while block is not None:
            done[block] = fn(*bounds[block])
            block = _claim(claims)
        for pid, read in list(pipes.items()):
            data = _read_all(read)
            status = os.waitpid(pid, 0)[1]
            del pipes[pid]
            os.close(read)
            if os.waitstatus_to_exitcode(status) == 0:
                try:
                    done.update(pickle.loads(data))
                except Exception:   # short data: its blocks are run below
                    pass
    except BaseException:
        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        for pid, read in pipes.items():
            os.close(read)
            os.waitpid(pid, 0)
    return [done[b] if b in done else fn(*bounds[b]) for b in range(len(bounds))]


def _claim(claims: int) -> int | None:
    """The next unclaimed block number, or None once all are claimed."""
    ticket = os.read(claims, _TICKET)
    return int.from_bytes(ticket, "little") if ticket else None


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _serve(fn, bounds, claims: int, out: int) -> None:
    """A forked child: run blocks until none are left, write their results
    once and exit. It never returns into the caller's code."""
    code = 1
    try:
        done = {}
        while (block := _claim(claims)) is not None:
            done[block] = fn(*bounds[block])
        data = memoryview(pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(out, data):]
        code = 0
    finally:
        os._exit(code)
