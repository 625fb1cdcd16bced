"""Map a function over items in forked worker processes.

``fork_map(function, items)`` returns ``[function(item) for item in
items]``.  With k > 1 usable CPUs the items are split into k interleaved
shares ``items[w::k]``: the calling process maps share 0 and forked
workers map the others, so the workers inherit ``function`` and ``items``
unpickled and only their results cross a pipe.  Standard library only;
``multiprocessing`` is imported only when a fork happens.
"""
from __future__ import annotations

import os
import sys
import threading
from typing import Callable, Sequence

__all__ = ["fork_map", "share_count"]


def share_count(items: int, small: bool = False) -> int:
    """How many processes map ``items`` items: one per usable CPU, at most
    one per item.  The work stays in-process off Linux, where fork is not
    a safe default; in a process with other threads, whose locks a forked
    child could inherit held; and when the caller says it is too
    ``small`` for a fork to pay."""
    if sys.platform != "linux" or threading.active_count() > 1 or small:
        return 1
    return min(items, len(os.sched_getaffinity(0)))


def _map_share(function: Callable, items: Sequence) -> list:
    """``function`` of each item in order, up to the first that raises,
    whose exception ends the list in place of its result."""
    outcomes: list = []
    for item in items:
        try:
            outcomes.append(function(item))
        except Exception as exc:
            outcomes.append(exc)
            break
    return outcomes


def _send_share(function: Callable, items: Sequence, writer) -> None:
    """A worker process's body: map its whole share first, so that no
    send waits on the caller while work remains, then send each outcome
    as its own message."""
    for outcome in _map_share(function, items):
        writer.send(outcome)
    writer.close()


def fork_map(function: Callable, items: Sequence,
             names: Sequence[str] | None = None,
             small: bool = False) -> list:
    """``[function(item) for item in items]`` in ``share_count`` processes.

    Results come back in item order whatever the process count.  A share
    stops at its first exception, and after every worker is joined the
    first exception in item order is raised, as the serial loop would
    raise it; ``function`` must return no exception objects.  A worker
    that exits before sending a result becomes a RuntimeError naming its
    share by ``names`` (by item index when none are given).  An interrupt
    in the calling process terminates the workers.
    """
    k = share_count(len(items), small)
    if k <= 1:
        return [function(item) for item in items]
    if names is None:
        names = [f"item {i}" for i in range(len(items))]
    import multiprocessing  # only work that forks pays its import
    context = multiprocessing.get_context("fork")
    outcomes: list = [None] * len(items)
    workers = []
    complete = False
    try:
        for w in range(1, k):
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(target=_send_share,
                                      args=(function, items[w::k], writer))
            process.start()
            writer.close()
            workers.append((w, process, reader))
        for i, outcome in zip(range(0, len(items), k),
                              _map_share(function, items[::k])):
            outcomes[i] = outcome
        for w, process, reader in workers:
            for i in range(w, len(items), k):
                try:
                    outcome = reader.recv()
                except EOFError:
                    process.join()
                    outcome = RuntimeError(
                        f"the worker process for {', '.join(names[w::k])} "
                        f"exited with code {process.exitcode} before "
                        f"sending {names[i]}'s result")
                outcomes[i] = outcome
                if isinstance(outcome, Exception):
                    break
        complete = True
    finally:
        for _, process, reader in workers:
            if not complete:
                process.terminate()
            process.join()
            reader.close()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
