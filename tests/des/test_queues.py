"""The kernel's event queue: ``(time, priority, seq)`` pop order.

The load-bearing property is the determinism contract: :class:`HeapQueue`
must release entries in ascending lexicographic tuple order on *any*
interleaving of pushes and pops — including exact ties and backwards
keys (PriorityStore pushes arbitrary priorities) — checked here against
``sorted()`` as the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, PriorityItem, PriorityStore
from repro.des.queues import HeapQueue

# Keys mix continuous values, a coarse grid (frequent exact ties), and
# negative values (PriorityStore pushes arbitrary priorities).
_KEYS = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.integers(min_value=-5, max_value=5).map(lambda k: 10.0 * k),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)

# A program is a list of steps: (True, key, prio) pushes, False pops.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just(True), _KEYS, st.sampled_from([0, 1, 1, 1, 2])),
        st.just(False),
    ),
    max_size=300,
)


@settings(max_examples=120, deadline=None)
@given(steps=_STEPS)
def test_heap_matches_sorted_on_arbitrary_interleavings(steps):
    heap = HeapQueue()
    pending = []  # reference model: the sorted pending set
    seq = 0
    for step in steps:
        if step is False:
            if not pending:
                continue
            assert heap.pop() == pending.pop(0)
        else:
            _, key, prio = step
            seq += 1
            entry = (key, prio, seq, None)
            heap.push(entry)
            pending = sorted(pending + [entry])
        assert len(heap) == len(pending)
        assert heap.peek() == (pending[0][0] if pending else float("inf"))
    assert [heap.pop() for _ in range(len(pending))] == pending
    assert not heap


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(_KEYS, max_size=200),
    churn=st.integers(min_value=0, max_value=100),
)
def test_bulk_load_matches_incremental(keys, churn):
    entries = [(key, 1, seq, None) for seq, key in enumerate(keys)]
    loaded, incremental = HeapQueue(entries), HeapQueue()
    for entry in entries:
        incremental.push(entry)
    seq = len(entries)
    # Hold cycles exercise the steady-state push/pop mix on the loaded heap.
    for _ in range(min(churn, len(entries))):
        popped = incremental.pop()
        assert loaded.pop() == popped
        seq += 1
        entry = (popped[0] + 1.0, 1, seq, None)
        loaded.push(entry)
        incremental.push(entry)
    while incremental:
        assert loaded.pop() == incremental.pop()
    assert not loaded


def test_empty_queue_contract():
    queue = HeapQueue()
    assert len(queue) == 0
    assert not queue
    assert queue.peek() == float("inf")
    with pytest.raises(IndexError):
        queue.pop()


def test_priority_store_ties_release_fifo_without_comparing_items():
    # Items keyed (priority, seq, item): equal priorities release in put
    # order, and the payloads themselves are never compared.
    class Opaque:
        def __lt__(self, other):
            raise AssertionError("payloads must not be compared")

    env = Environment()
    store = PriorityStore(env)
    items = [Opaque() for _ in range(4)]
    for item in items:
        store.put(PriorityItem(priority=1, item=item))
    store.put(PriorityItem(priority=0, item="first"))
    got = []

    def consumer():
        for _ in range(5):
            got.append((yield store.get()).item)

    env.process(consumer())
    env.run()
    assert got == ["first"] + items
