"""Reference ``Fraction`` implementation of span-tree attribution.

This is the all-rational decomposition that :mod:`repro.obs.spans` and
:mod:`repro.obs.attribution` once computed directly: every timestamp
becomes a :class:`fractions.Fraction`, every per-hop component is a
rational difference, and floats appear only when a sum is reported.
The library now accumulates scaled integers instead; the tests compare
its output against this oracle, which must agree bitwise.

It reuses only the *structural* parts of the library (the parsed
:class:`~repro.obs.spans.SpanForest` and
:meth:`~repro.obs.spans.SpanTree.critical_path`), never its arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.attribution import ATTRIBUTION_SCHEMA, COMPONENTS
from repro.obs.spans import SpanForest, SpanTree


Parts = Tuple[Fraction, Fraction, Fraction]


def oracle_breakdown(tree: SpanTree) -> Optional[Parts]:
    """``(queue, service, transit)`` of the critical path, as rationals."""
    path = tree.critical_path()
    if path is None or tree.close_time is None:
        return None
    queue = service = transit = Fraction(0)
    prev = Fraction(tree.emit_time)
    for hop in path:
        wait = Fraction(hop.wait)
        dequeue = Fraction(hop.queue_time)
        transit += (dequeue - wait) - prev
        queue += wait
        service += Fraction(hop.exec_time) - dequeue
        prev = Fraction(hop.exec_time)
    service += Fraction(tree.close_time) - prev  # deferred-ack hold
    return queue, service, transit


def oracle_replay_penalty(
    messages: Dict[Any, List[SpanTree]], tree: SpanTree
) -> Optional[Fraction]:
    """First-emit → this-attempt-emit gap via the ``messages()`` grouping."""
    if tree.emit_time is None:
        return None
    if tree.retries == 0:
        return Fraction(0)
    for attempt in messages.get(tree.msg_id, ()):
        if attempt.retries == 0 and attempt.emit_time is not None:
            return Fraction(tree.emit_time) - Fraction(attempt.emit_time)
    return None


class _Bucket:
    def __init__(self) -> None:
        self.sums = {c: Fraction(0) for c in COMPONENTS}
        self.count = 0

    def add(self, parts: Dict[str, Fraction]) -> None:
        for c in COMPONENTS:
            self.sums[c] += parts[c]
        self.count += 1

    def to_dict(self) -> Dict[str, Any]:
        out = {c: float(self.sums[c]) for c in COMPONENTS}
        return dict(out, tuples=self.count)


def _bucket(buckets: Dict[Any, _Bucket], key: Any) -> _Bucket:
    if key not in buckets:
        buckets[key] = _Bucket()
    return buckets[key]


def _name(component: Optional[str], task: Optional[int]) -> str:
    return component or f"task-{task}"


def oracle_attribution_dict(
    forest: SpanForest, interval: float = 5.0
) -> Dict[str, Any]:
    """What ``attribute_forest(forest, interval).to_dict()`` must equal."""
    messages = forest.messages()
    totals = _Bucket()
    per_component: Dict[str, _Bucket] = {}
    per_interval: Dict[int, _Bucket] = {}
    failed: Dict[str, int] = {}
    incomplete = attributed = 0
    exact = True
    for tree in forest.trees.values():
        if tree.close_kind == "fail":
            reason = tree.fail_reason or "failed"
            failed[reason] = failed.get(reason, 0) + 1
    for tree in forest.acked_trees():
        base = oracle_breakdown(tree)
        if base is None or tree.latency is None:
            incomplete += 1
            continue
        queue, service, transit = base
        penalty = oracle_replay_penalty(messages, tree)
        replay = penalty if penalty is not None else Fraction(0)
        parts = dict(
            queue=queue, service=service, transit=transit, replay=replay
        )
        attributed += 1
        exact = exact and float(queue + service + transit) == tree.latency
        totals.add(parts)
        _bucket(per_interval, int(tree.close_time // interval)).add(parts)
        # per stage: transit/queue to the receiver, service to itself
        path = tree.critical_path()
        prev = Fraction(tree.emit_time)
        for hop in path:
            bucket = _bucket(per_component, _name(hop.component, hop.dst_task))
            wait = Fraction(hop.wait)
            dequeue = Fraction(hop.queue_time)
            bucket.sums["transit"] += (dequeue - wait) - prev
            bucket.sums["queue"] += wait
            bucket.sums["service"] += Fraction(hop.exec_time) - dequeue
            bucket.count += 1
            prev = Fraction(hop.exec_time)
        if path:
            hold = Fraction(tree.close_time) - prev
            if hold:
                last = _name(path[-1].component, path[-1].dst_task)
                per_component[last].sums["service"] += hold
        if replay:
            spout = _name(tree.spout_component, tree.spout_task)
            _bucket(per_component, spout).sums["replay"] += replay
    total = sum(totals.sums.values(), Fraction(0))
    shares = {
        c: (0.0 if total == 0 else float(totals.sums[c] / total))
        for c in COMPONENTS
    }
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "interval": float(interval),
        "attributed": attributed,
        "incomplete": incomplete,
        "exact": exact,
        "totals": totals.to_dict(),
        "shares": shares,
        "per_component": {
            c: per_component[c].to_dict() for c in sorted(per_component)
        },
        "per_interval": [
            dict(
                per_interval[i].to_dict(),
                t0=i * interval, t1=(i + 1) * interval,
            )
            for i in sorted(per_interval)
        ],
        "failed": dict(sorted(failed.items())),
        "replays": forest.replays,
        "drops": forest.drops,
        "sheds": forest.sheds,
        "losses": dict(sorted(forest.losses.items())),
        "orphan_events": forest.orphan_events,
    }


def oracle_folded(forest: SpanForest) -> Dict[str, int]:
    """What ``folded_stacks(forest)`` must equal."""
    out: Dict[str, int] = {}
    for tree in forest.acked_trees():
        path = tree.critical_path()
        if not path:
            continue
        frames = [_name(tree.spout_component, tree.spout_task)]
        prev = Fraction(tree.emit_time)
        for hop in path:
            frames.append(_name(hop.component, hop.dst_task))
            hop_time = Fraction(hop.exec_time) - prev
            prev = Fraction(hop.exec_time)
            stack = ";".join(frames)
            out[stack] = out.get(stack, 0) + int(round(float(hop_time) * 1e6))
        hold = Fraction(tree.close_time) - prev
        if hold:
            stack = ";".join(frames)
            out[stack] = out.get(stack, 0) + int(round(float(hold) * 1e6))
    return out
