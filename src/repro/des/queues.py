"""The DES kernel's event queue: a binary heap over comparable tuples.

The determinism contract
------------------------
The environment's scheduler is a total order over ``(time, priority,
seq, event)`` entries, and lexicographic tuple comparison *is* the
contract:

* ``time`` — simulation time of the event;
* ``priority`` — ``URGENT (0) < NORMAL (1) < LAST (2)``;
* ``seq`` — a counter that strictly increases with push order, so ties
  at equal time and priority resolve in scheduling order.

:class:`HeapQueue` releases entries in exactly this order on any
interleaving of pushes and pops (property-tested against ``sorted()``
in ``tests/des/test_queues.py``).  :class:`~repro.des.stores.PriorityStore`
keys its items ``(priority, seq, item)`` in the same structure, so its
release order breaks ties FIFO.

The environment's queue is private: ``scripts/check_api.py`` fails CI
if any first-party module outside the environment reaches into it.
Callers read ``Environment.queue_depth`` and ``Environment.peek``
instead.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Iterable, Tuple

#: A scheduled entry.  ``entry[0]`` is the sort key's leading component
#: (event time for the kernel, priority for PriorityStore); the full
#: tuple comparison defines the pop order.
Entry = Tuple[Any, ...]

_INF = float("inf")


class HeapQueue(list):
    """Binary-heap priority queue over comparable tuples.

    Subclasses ``list`` so the kernel's hot loop keeps C-speed truth
    tests and ``len``; ``push``/``pop`` are bound ``heapq`` partials
    (note they shadow ``list.pop`` — this is a queue, not a sequence).
    ``pop`` raises ``IndexError`` when empty.
    """

    def __init__(self, entries: Iterable[Entry] = ()) -> None:
        super().__init__(entries)
        if self:
            heapify(self)
        self.push = partial(heappush, self)
        self.pop = partial(heappop, self)

    def peek(self) -> float:
        """``entry[0]`` of the smallest entry, or ``inf`` if empty."""
        return self[0][0] if self else _INF
