"""A function mapped over a list on fork-started worker processes.

`Workers(fns, limit, load)` starts n = min(CPUs this process may run on,
limit) processes, each with one `Pipe` to this one.  `map(fn, shared,
items)`, for fn one of `fns`, pickles `shared` once for all workers, and
each applies `load` to it once.  Items are dealt round-robin, worker i
taking `items[i::n]`, and each worker sends a result as soon as it is
computed; the map yields `fn(load(shared), item)` for every item in list
order.  With n = 1 the same map, `load` included, runs in this process.

The workers are forked, not spawned: each sees what this process held
when it started (records, configs, `fns` and `load`), and only shared
values, item keys and results cross a pipe.  numpy's OpenBLAS stops its
thread pool around a fork, so a forked child starts with none.  Each
worker holds its OpenBLAS to one thread; when numpy's OpenBLAS does not
expose `set_num_threads`, n is 1: two processes whose BLAS threads share
the cores run slower than one alone."""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

Fn = Callable[[Any, Any], Any]


@functools.cache
def _openblas_set_num_threads():
    """`set_num_threads` of numpy's bundled OpenBLAS, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for tail in ("64_", "_64_", ""):
                fn = getattr(lib, f"{prefix}set_num_threads{tail}", None)
                if fn is not None:
                    fn.argtypes = [ctypes.c_int]
                    return fn
    return None


class Workers:
    """`fns` mapped over a list dealt round-robin to n fork-started
    processes, or in this process when n == 1 (see the module docstring).

    Use it as a context manager: leaving the block closes every pipe and
    joins every worker, terminating them first when an exception leaves it.
    """

    def __init__(self, fns: tuple[Fn, ...], limit: int, load: Callable[[Any], Any]):
        self.fns, self.load = fns, load
        self.conns: list = []
        self.procs: list = []
        n = min(len(os.sched_getaffinity(0)), limit) if _openblas_set_num_threads() else 1
        if n < 2:
            return
        import multiprocessing   # only a pool of two or more pays for the import
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(n):
                conn, child = ctx.Pipe()
                # a forked child also holds this side of its own and every earlier
                # pipe; it closes them, so each sees EOF once this process closes its end
                proc = ctx.Process(target=_serve, args=(child, fns, load, self.conns + [conn]), daemon=True)
                proc.start()
                child.close()
                self.conns.append(conn)
                self.procs.append(proc)
        except BaseException:
            self.close(terminate=True)
            raise

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(terminate=exc_type is not None)

    def close(self, terminate: bool = False) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            if terminate:
                proc.terminate()
            proc.join()
        self.conns, self.procs = [], []

    def map(self, fn: Fn, shared: Any, items: list) -> Iterator:
        """fn(load(shared), item) per item, in list order, for fn one of `fns`.
        The first item to raise, in list order, raises here when its turn comes."""
        if not self.procs:
            value = self.load(shared)
            yield from (fn(value, item) for item in items)
            return
        k = self.fns.index(fn)
        n = len(self.procs)
        blob = pickle.dumps(shared, pickle.HIGHEST_PROTOCOL)
        for i, conn in enumerate(self.conns[:len(items)]):
            conn.send_bytes(blob)
            conn.send((k, items[i::n]))
        for j in range(len(items)):
            conn, proc = self.conns[j % n], self.procs[j % n]
            try:
                ok, value = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"worker {proc.pid} exited with code {proc.exitcode}") from None
            if not ok:
                raise value
            yield value


def _serve(conn, fns: tuple[Fn, ...], load: Callable[[Any], Any], inherited: list) -> None:
    """A worker: a shared value, then (k, items) to map, sending each result
    as soon as it is computed, until the parent closes its end."""
    for c in inherited:
        c.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent takes Ctrl-C and stops its workers
    _openblas_set_num_threads()(1)
    try:
        while True:
            value = load(conn.recv())
            k, items = conn.recv()
            for item in items:
                try:
                    result = True, fns[k](value, item)
                except Exception as e:
                    result = False, e
                conn.send(result)
                if not result[0]:
                    break
                del result   # keep no sent result, say a gradient, while the next item runs
    except (EOFError, ConnectionError):   # the parent closed its end, maybe with results unread
        return
