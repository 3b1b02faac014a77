"""Causal span trees reconstructed from the tuple-lifecycle trace.

The storm layer already records every step of a tuple tree's life —
``tuple.emit`` when a spout opens the tree, one ``tuple.transfer`` /
``tuple.queue`` / ``tuple.execute`` triple per downstream hop, and a
single ``tuple.ack`` or ``tuple.fail`` close.  This module turns that
flat ring buffer back into per-root **span trees**, finds each tree's
**critical path** (the causal chain that ends at the edge whose ack
zeroed the XOR ledger), and decomposes the acker-measured complete
latency into components that sum *bitwise-exactly*:

``transit``
    wire + chaos-jitter time of every hop on the critical path
    (departure at the upstream execute/emit, arrival at the receiver
    queue);
``queue``
    receiver-queue wait of every hop (includes receiver-buffer
    backpressure under the ``buffer`` overflow policy);
``service``
    bolt service time of every hop, plus any deferred-ack hold (a bolt
    that acks a held tuple from a later ``execute`` call holds the tree
    open — that hold is service time of the acking bolt);
``replay``
    for replayed messages, the time between the message's *first* spout
    emission and the emission of the attempt that finally acked.

Exactness contract
------------------
The acker records ``latency = fl(t_ack - t_emit)`` — one correctly
rounded IEEE-754 subtraction of two event timestamps.  Every finite
double is an integer multiple of 2**-1074, so components here are sums
and differences of the exact integers ``timestamp * 2**1074``, which
never round.  Their sum telescopes to exactly ``(t_ack - t_emit) *
2**1074``, and the one conversion back, ``n / 2**1074``, is a correctly
rounded int true division — the same single rounding the acker did, and
the same one ``float(Fraction)`` (``numerator / denominator``) performs
on that rational.  Hence ``float(queue + service + transit) ==
latency`` **bitwise**, for every completed tuple, on any platform — no
epsilon.  (Individual components can carry the rounding residue of the
recorded ``wait`` field, so a zero-delay hop's transit may be ±1 ulp;
only the sum is pinned.)

Causality is recovered from record order: ``record()`` appends events
synchronously, and an emission's transfers are recorded in the same
event-loop step as (and immediately after) the ``tuple.execute`` or
``tuple.emit`` that produced them, so the most recent execute/emit on
the transfer's source task at the same timestamp *is* its parent.

Trees whose early events were overwritten by the ring buffer are kept
but marked path-incomplete; size ``trace_capacity`` to the run when the
decomposition must cover every tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.obs.tracer import (
    TUPLE_ACK,
    TUPLE_DROP,
    TUPLE_EMIT,
    TUPLE_EXECUTE,
    TUPLE_FAIL,
    TUPLE_LOSS,
    TUPLE_QUEUE,
    TUPLE_REPLAY,
    TUPLE_SHED,
    TUPLE_TRANSFER,
    TraceEvent,
)

__all__ = [
    "LatencyBreakdown",
    "SpanHop",
    "SpanTree",
    "SpanForest",
    "build_span_forest",
    "folded_stacks",
    "render_span_tree",
]


@dataclass
class SpanHop:
    """One edge of a tuple tree: transfer → queue wait → service."""

    edge: int
    #: parent edge id; ``0`` = fed directly by the spout emission,
    #: ``None`` = unknown (the parent's events left the ring buffer)
    parent: Optional[int] = None
    src_task: Optional[int] = None
    dst_task: Optional[int] = None
    #: destination component (set at dequeue/execute)
    component: Optional[str] = None
    transfer_time: Optional[float] = None
    queue_time: Optional[float] = None
    wait: Optional[float] = None
    exec_time: Optional[float] = None
    service: Optional[float] = None

    @property
    def complete(self) -> bool:
        """All three lifecycle stages were retained for this hop."""
        return (
            self.transfer_time is not None
            and self.queue_time is not None
            and self.exec_time is not None
            and self.parent is not None
        )


#: one second in the exact scaled-integer unit (see the module docstring)
_ONE = 1 << 1074


def _scaled(x: float) -> int:
    """``x * 2**1074`` as an exact integer, for any finite float ``x``."""
    p, q = x.as_integer_ratio()
    return p << (1075 - q.bit_length())


class _ExactComponents:
    """:class:`~fractions.Fraction` (built only when read) and ``*_s``
    float views of the ``n_*`` scaled-integer component fields."""

    queue = property(lambda self: Fraction(self.n_queue, _ONE))
    service = property(lambda self: Fraction(self.n_service, _ONE))
    transit = property(lambda self: Fraction(self.n_transit, _ONE))
    replay = property(lambda self: Fraction(self.n_replay, _ONE))
    queue_s = property(lambda self: self.n_queue / _ONE)
    service_s = property(lambda self: self.n_service / _ONE)
    transit_s = property(lambda self: self.n_transit / _ONE)
    replay_s = property(lambda self: self.n_replay / _ONE)


@dataclass(frozen=True)
class LatencyBreakdown(_ExactComponents):
    """Exact latency components of one completed tuple tree.

    Stored as seconds × 2**1074.  :meth:`total` performs the single
    rounding, which matches the acker-recorded latency bitwise (see the
    module docstring).
    """

    n_queue: int = 0
    n_service: int = 0
    n_transit: int = 0
    n_replay: int = 0

    def total(self) -> float:
        """Attempt latency: ``float(queue + service + transit)``."""
        return (self.n_queue + self.n_service + self.n_transit) / _ONE

    def end_to_end(self) -> float:
        """First-emission-to-ack latency, replay penalty included."""
        return (
            self.n_queue + self.n_service + self.n_transit + self.n_replay
        ) / _ONE

    def sums_exactly_to(self, latency: float) -> bool:
        """The bitwise attribution invariant against an acker latency."""
        return self.total() == latency


class _Walk(NamedTuple):
    """One pass over a tree's critical path, in scaled integers."""

    #: spout component, then each hop's destination component
    names: Tuple[str, ...]
    #: per hop ``(transit, queue, service)``
    hops: List[Tuple[int, int, int]]
    #: deferred-ack hold: close minus the last execute (or the emit)
    hold: int
    queue: int
    #: every hop's service plus ``hold``
    service: int
    transit: int


@dataclass
class SpanTree:
    """One spout tuple's causal tree (a single delivery attempt)."""

    root: int
    msg_id: Any = None
    spout_task: Optional[int] = None
    spout_component: Optional[str] = None
    emit_time: Optional[float] = None
    retries: int = 0
    hops: Dict[int, SpanHop] = field(default_factory=dict)
    #: "ack" | "fail" | None (still open / close not retained)
    close_kind: Optional[str] = None
    close_time: Optional[float] = None
    #: edge whose ack zeroed the ledger (critical-path endpoint)
    close_edge: Optional[int] = None
    latency: Optional[float] = None
    fail_reason: Optional[str] = None

    @property
    def acked(self) -> bool:
        return self.close_kind == "ack"

    def children(self) -> Dict[int, List[SpanHop]]:
        """``parent_edge -> [child hops]`` in edge order (0 = the root)."""
        out: Dict[int, List[SpanHop]] = {}
        for edge in sorted(self.hops):
            hop = self.hops[edge]
            if hop.parent is not None:
                out.setdefault(hop.parent, []).append(hop)
        return out

    def critical_path(self) -> Optional[List[SpanHop]]:
        """Root-first hop chain ending at the closing edge.

        ``None`` when the tree is not acked or any link of the chain is
        missing (events overwritten, or the close predates this trace
        window).  An acked tree with ``close_edge == 0`` (a spout with
        no consumers) has the empty path ``[]``.
        """
        if not self.acked or self.close_edge is None or self.emit_time is None:
            return None
        path: List[SpanHop] = []
        edge = self.close_edge
        seen = set()
        while edge != 0:
            if edge in seen:
                return None  # corrupt linkage; never happens in well-formed traces
            seen.add(edge)
            hop = self.hops.get(edge)
            if hop is None or not hop.complete:
                return None
            path.append(hop)
            edge = hop.parent  # type: ignore[assignment]
        path.reverse()
        return path

    def _walk(self) -> Optional[_Walk]:
        """The per-hop pass every decomposition reads.

        Telescoping over event timestamps: each hop contributes
        ``transit = arrival - departure``, ``queue = wait`` and
        ``service = execute - dequeue``, where the arrival is
        reconstructed as ``dequeue - wait``.  Any gap between the last
        hop's execute and the close (a deferred ack from a later
        ``execute`` call of the acking bolt) is the ``hold``, which
        folds into service, so the components always sum to exactly
        ``close - emit``.  ``None`` when the critical path is.
        """
        path = self.critical_path()
        if path is None or self.close_time is None:
            return None
        names = [self.spout_component or f"task-{self.spout_task}"]
        hops = []
        queue = service = transit = 0
        prev = _scaled(self.emit_time)  # departure of the first transfer
        for hop in path:
            wait = _scaled(hop.wait)
            dequeue = _scaled(hop.queue_time)
            exec_time = _scaled(hop.exec_time)
            hop_transit = dequeue - wait - prev
            hop_service = exec_time - dequeue
            hops.append((hop_transit, wait, hop_service))
            transit += hop_transit
            queue += wait
            service += hop_service
            names.append(hop.component or f"task-{hop.dst_task}")
            prev = exec_time
        hold = _scaled(self.close_time) - prev
        return _Walk(tuple(names), hops, hold, queue, service + hold, transit)

    def breakdown(self) -> Optional[LatencyBreakdown]:
        """Exact component decomposition along the critical path."""
        walk = self._walk()
        if walk is None:
            return None
        return LatencyBreakdown(walk.queue, walk.service, walk.transit)


@dataclass
class SpanForest:
    """Every span tree recoverable from one trace, plus accounting."""

    trees: Dict[int, SpanTree] = field(default_factory=dict)
    #: tuple.replay / tuple.drop / tuple.shed events retained
    replays: int = 0
    drops: int = 0
    sheds: int = 0
    #: tuple.loss events by reason ("loss" | "crash")
    losses: Dict[str, int] = field(default_factory=dict)
    #: tuple.* events whose root's emit left the ring buffer
    orphan_events: int = 0
    #: ``(len(trees), index)`` cache behind :meth:`_first_emits`
    _first_emit_index: Optional[Tuple[int, Dict[Any, float]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def messages(self) -> Dict[Any, List[SpanTree]]:
        """Delivery attempts grouped by ``msg_id``, in emission order.

        Replays open a *new* root per attempt; this is the linkage back
        to one logical message.  Only trees whose emit was retained (and
        thus carry a ``msg_id``) appear.
        """
        out: Dict[Any, List[SpanTree]] = {}
        for tree in self.trees.values():
            if tree.msg_id is not None:
                out.setdefault(tree.msg_id, []).append(tree)
        return out

    def _first_emits(self) -> Dict[Any, float]:
        """``msg_id`` → emit time of its first ``retries == 0`` attempt in
        ``trees`` order; built once, again only if trees were added."""
        cache = self._first_emit_index
        if cache is None or cache[0] != len(self.trees):
            index: Dict[Any, float] = {}
            for t in self.trees.values():
                if t.retries == 0 and t.emit_time is not None:
                    if t.msg_id is not None:
                        index.setdefault(t.msg_id, t.emit_time)
            cache = self._first_emit_index = (len(self.trees), index)
        return cache[1]

    def _replay_scaled(self, tree: SpanTree) -> Optional[int]:
        """:meth:`replay_penalty` as a scaled integer."""
        if tree.emit_time is None:
            return None
        if tree.retries == 0:
            return 0
        first = self._first_emits().get(tree.msg_id)
        if first is None:
            return None
        return _scaled(tree.emit_time) - _scaled(first)

    def replay_penalty(self, tree: SpanTree) -> Optional[Fraction]:
        """Exact first-emit → this-attempt-emit gap, or ``None`` if the
        first attempt's emission is not in the trace window."""
        n = self._replay_scaled(tree)
        return None if n is None else Fraction(n, _ONE)

    def acked_trees(self) -> List[SpanTree]:
        """Acked trees in close order (trace record order)."""
        return [t for t in self.trees.values() if t.acked]

    def __repr__(self) -> str:
        closed = sum(1 for t in self.trees.values() if t.close_kind)
        return (
            f"<SpanForest trees={len(self.trees)} closed={closed}"
            f" replays={self.replays} orphan_events={self.orphan_events}>"
        )


def build_span_forest(events: Iterable[TraceEvent]) -> SpanForest:
    """Reconstruct span trees from tuple-lifecycle events in record order.

    Pass ``tracer.events()`` (or any subset that preserves record
    order); non-tuple events are ignored.  Multi-root (joined) tuples
    contribute one hop instance to each of their trees.
    """
    forest = SpanForest()
    trees = forest.trees
    # task -> (edge, time, roots) of its most recent tuple.execute; the
    # synchronous record order makes this the parent of any transfer
    # from that task at the same timestamp (see module docstring).
    last_exec: Dict[int, Tuple[int, float, Tuple[int, ...]]] = {}
    for ev in events:
        kind = ev.kind
        if not kind.startswith("tuple."):
            continue
        f = ev.fields
        if kind == TUPLE_EMIT:
            root = f["root"]
            tree = trees.get(root)
            if tree is None:
                tree = SpanTree(root=root)
                trees[root] = tree
            tree.msg_id = f.get("msg_id")
            tree.spout_task = f.get("task")
            tree.spout_component = f.get("component")
            tree.emit_time = ev.time
            tree.retries = int(f.get("retries", 0))
        elif kind == TUPLE_TRANSFER:
            src = f.get("src_task")
            edge = f["edge"]
            for root in f.get("roots") or ():
                tree = trees.get(root)
                if tree is None:
                    forest.orphan_events += 1
                    continue
                hop = tree.hops.get(edge)
                if hop is None:
                    hop = SpanHop(edge=edge)
                    tree.hops[edge] = hop
                hop.src_task = src
                hop.dst_task = f.get("dst_task")
                hop.transfer_time = ev.time
                le = last_exec.get(src)
                if le is not None and le[1] == ev.time and root in le[2]:
                    hop.parent = le[0]
                elif (
                    src == tree.spout_task and ev.time == tree.emit_time
                ):
                    hop.parent = 0
        elif kind == TUPLE_QUEUE:
            edge = f["edge"]
            for root in f.get("roots") or ():
                tree = trees.get(root)
                if tree is None:
                    forest.orphan_events += 1
                    continue
                hop = tree.hops.get(edge)
                if hop is None:
                    hop = SpanHop(edge=edge)
                    tree.hops[edge] = hop
                hop.dst_task = f.get("task")
                hop.component = f.get("component")
                hop.queue_time = ev.time
                hop.wait = f.get("wait")
        elif kind == TUPLE_EXECUTE:
            edge = f["edge"]
            roots = tuple(f.get("roots") or ())
            task = f.get("task")
            for root in roots:
                tree = trees.get(root)
                if tree is None:
                    forest.orphan_events += 1
                    continue
                hop = tree.hops.get(edge)
                if hop is None:
                    hop = SpanHop(edge=edge)
                    tree.hops[edge] = hop
                hop.dst_task = task
                hop.component = f.get("component")
                hop.exec_time = ev.time
                hop.service = f.get("service")
            last_exec[task] = (edge, ev.time, roots)
        elif kind == TUPLE_ACK:
            root = f["root"]
            tree = trees.get(root)
            if tree is None:
                tree = SpanTree(root=root, msg_id=f.get("msg_id"))
                trees[root] = tree
                forest.orphan_events += 1
            tree.close_kind = "ack"
            tree.close_time = ev.time
            tree.close_edge = f.get("edge")
            tree.latency = f.get("latency")
        elif kind == TUPLE_FAIL:
            root = f["root"]
            tree = trees.get(root)
            if tree is None:
                tree = SpanTree(root=root, msg_id=f.get("msg_id"))
                trees[root] = tree
                forest.orphan_events += 1
            tree.close_kind = "fail"
            tree.close_time = ev.time
            tree.latency = f.get("latency")
            tree.fail_reason = f.get("reason")
        elif kind == TUPLE_REPLAY:
            forest.replays += 1
        elif kind == TUPLE_DROP:
            forest.drops += 1
        elif kind == TUPLE_SHED:
            forest.sheds += 1
        elif kind == TUPLE_LOSS:
            reason = f.get("reason", "loss")
            forest.losses[reason] = forest.losses.get(reason, 0) + 1
    return forest


def folded_stacks(forest: SpanForest) -> Dict[str, int]:
    """Collapse critical paths into flamegraph folded-stack lines.

    Returns ``{"spout;boltA;boltB": microseconds}`` where each frame's
    value is the time attributed *at that depth* (the hop's transit +
    queue + service, from the exact decomposition), so rendering with
    any standard flamegraph tool shows where completed-tuple latency is
    spent per pipeline stage.  Serialize with one ``f"{stack} {value}"``
    line per sorted key.
    """
    out: Dict[str, int] = {}
    for tree in forest.acked_trees():
        walk = tree._walk()
        if walk is None or not walk.hops:
            continue
        names = walk.names
        for depth, (transit, queue, service) in enumerate(walk.hops, 2):
            stack = ";".join(names[:depth])
            hop_time = (transit + queue + service) / _ONE  # execute - prev
            out[stack] = out.get(stack, 0) + round(hop_time * 1e6)
        if walk.hold:
            stack = ";".join(names)
            out[stack] = out.get(stack, 0) + round(walk.hold / _ONE * 1e6)
    return out


def render_folded(forest: SpanForest) -> str:
    """Folded-stack text (one ``stack value`` line, sorted, newline-terminated)."""
    stacks = folded_stacks(forest)
    return "".join(f"{k} {stacks[k]}\n" for k in sorted(stacks))


def render_span_tree(tree: SpanTree) -> str:
    """ASCII dump of one span tree, critical path marked with ``*``."""
    lines: List[str] = []
    close = (
        f"{tree.close_kind} @ {tree.close_time:.6f}s"
        if tree.close_kind
        else "open"
    )
    lat = f" latency={tree.latency:.6f}s" if tree.latency is not None else ""
    reason = f" reason={tree.fail_reason}" if tree.fail_reason else ""
    lines.append(
        f"root {tree.root} msg_id={tree.msg_id!r} "
        f"{tree.spout_component or '?'} task={tree.spout_task} "
        f"emit={tree.emit_time if tree.emit_time is None else format(tree.emit_time, '.6f')} "
        f"retries={tree.retries} [{close}{lat}{reason}]"
    )
    crit = {hop.edge for hop in (tree.critical_path() or ())}
    children = tree.children()

    def walk(parent: int, indent: str) -> None:
        kids = children.get(parent, [])
        for i, hop in enumerate(kids):
            last = i == len(kids) - 1
            branch = "`-" if last else "|-"
            mark = "*" if hop.edge in crit else " "
            wait = "?" if hop.wait is None else f"{hop.wait * 1e3:.3f}ms"
            svc = "?" if hop.service is None else f"{hop.service * 1e3:.3f}ms"
            lines.append(
                f"{indent}{branch}{mark} edge {hop.edge} -> "
                f"{hop.component or '?'} task={hop.dst_task} "
                f"wait={wait} service={svc}"
            )
            walk(hop.edge, indent + ("   " if last else "|  "))

    walk(0, "  ")
    incomplete = [e for e, h in sorted(tree.hops.items()) if h.parent is None]
    if incomplete:
        lines.append(f"  (unlinked hops: {incomplete})")
    return "\n".join(lines)
