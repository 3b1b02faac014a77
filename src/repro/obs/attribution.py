"""Latency attribution: aggregate span-tree decompositions for reports.

:func:`attribute_forest` reduces a :class:`~repro.obs.spans.SpanForest`
to an :class:`AttributionSummary`: per-component and per-control-interval
sums of the exact queue/service/transit/replay decomposition, the
component *shares* of end-to-end latency, and the bookkeeping needed to
trust them (how many acked trees were attributable, whether every one of
them satisfied the bitwise sum invariant).

All internal accumulation stays in exact scaled integers (seconds ×
2**1074, see :mod:`repro.obs.spans`), read from one walk of each tree's
critical path.  Floats appear only at the report boundary, each one the
exact rational rounded once — an int true division, the same rounding
``float(Fraction)`` performs — so the emitted JSON is byte-identical
across schedulers, ``--jobs`` values, and platforms for the same
simulated run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.obs.spans import (
    LatencyBreakdown,
    SpanForest,
    _ExactComponents,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "DEFAULT_INTERVAL",
    "TreeAttribution",
    "AttributionSummary",
    "attribute_forest",
]

ATTRIBUTION_SCHEMA = "repro-attribution/1"

#: default aggregation bucket, matching the reliability arms' control
#: cadence (``ControllerConfig.control_interval`` defaults to 5 s)
DEFAULT_INTERVAL = 5.0

COMPONENTS = ("queue", "service", "transit", "replay")


@dataclass(frozen=True)
class TreeAttribution:
    """One attributed (acked, path-complete) tuple tree."""

    root: int
    msg_id: Any
    close_time: float
    #: acker-recorded attempt latency
    latency: float
    retries: int
    path: Tuple[str, ...]
    breakdown: LatencyBreakdown
    #: bitwise sum invariant: ``breakdown.total() == latency``
    exact: bool
    #: replay penalty resolvable (first attempt's emit in the window)
    replay_known: bool


@dataclass
class _Bucket(_ExactComponents):
    """Exact component sums over one aggregation key (seconds × 2**1074;
    ``queue`` etc. read them as :class:`~fractions.Fraction`)."""

    n_queue: int = 0
    n_service: int = 0
    n_transit: int = 0
    n_replay: int = 0
    count: int = 0

    def add(
        self, queue: int, service: int, transit: int, replay: int = 0
    ) -> None:
        self.n_queue += queue
        self.n_service += service
        self.n_transit += transit
        self.n_replay += replay
        self.count += 1

    def to_dict(self) -> Dict[str, Any]:
        out = {c: getattr(self, f"{c}_s") for c in COMPONENTS}
        return dict(out, tuples=self.count)


@dataclass
class AttributionSummary:
    """Aggregated latency attribution of one traced run."""

    interval: float
    records: List[TreeAttribution] = field(default_factory=list)
    totals: _Bucket = field(default_factory=_Bucket)
    per_component: Dict[str, _Bucket] = field(default_factory=dict)
    per_interval: Dict[int, _Bucket] = field(default_factory=dict)
    #: acked trees whose path could not be reconstructed (ring overwrite)
    incomplete: int = 0
    #: failed trees by reason
    failed: Dict[str, int] = field(default_factory=dict)
    replays: int = 0
    drops: int = 0
    sheds: int = 0
    losses: Dict[str, int] = field(default_factory=dict)
    orphan_events: int = 0

    @property
    def attributed(self) -> int:
        return len(self.records)

    @property
    def exact(self) -> bool:
        """Every attributed tree satisfied the bitwise sum invariant."""
        return all(r.exact for r in self.records)

    def shares(self) -> Dict[str, float]:
        """Component fractions of total end-to-end latency (sum ≈ 1)."""
        t = self.totals
        total = t.n_queue + t.n_service + t.n_transit + t.n_replay
        if total == 0:
            return {c: 0.0 for c in COMPONENTS}
        s = -1 if total < 0 else 1  # as Fraction: 0 / negative total is +0.0
        return {c: s * getattr(t, f"n_{c}") / (s * total) for c in COMPONENTS}

    def to_dict(self) -> Dict[str, Any]:
        """Byte-stable JSON-able digest (the report's ``attribution``)."""
        intervals = [
            dict(
                self.per_interval[i].to_dict(),
                t0=i * self.interval,
                t1=(i + 1) * self.interval,
            )
            for i in sorted(self.per_interval)
        ]
        return {
            "schema": ATTRIBUTION_SCHEMA,
            "interval": self.interval,
            "attributed": self.attributed,
            "incomplete": self.incomplete,
            "exact": self.exact,
            "totals": self.totals.to_dict(),
            "shares": self.shares(),
            "per_component": {
                c: self.per_component[c].to_dict()
                for c in sorted(self.per_component)
            },
            "per_interval": intervals,
            "failed": dict(sorted(self.failed.items())),
            "replays": self.replays,
            "drops": self.drops,
            "sheds": self.sheds,
            "losses": dict(sorted(self.losses.items())),
            "orphan_events": self.orphan_events,
        }

    def publish(self, registry: "MetricsRegistry") -> None:
        """Set attribution gauges on the metrics registry.

        One ``attribution.<component>_seconds`` gauge per latency
        component (totals), the same labelled per topology component,
        and ``attribution.trees{state=...}`` accounting gauges — so the
        Prometheus exposition and deterministic dumps carry the
        decomposition next to the raw latency histograms.
        """
        totals = self.totals.to_dict()
        for name in COMPONENTS:
            registry.gauge(f"attribution.{name}_seconds").set(totals[name])
        for comp in sorted(self.per_component):
            b = self.per_component[comp].to_dict()
            for name in ("queue", "service", "transit"):
                registry.gauge(
                    f"attribution.{name}_seconds", component=comp
                ).set(b[name])
        registry.gauge("attribution.trees", state="attributed").set(
            self.attributed
        )
        registry.gauge("attribution.trees", state="incomplete").set(
            self.incomplete
        )

    def render_table(self) -> str:
        """Human attribution table: totals, shares, per component."""
        shares = self.shares()
        totals = self.totals.to_dict()
        lines = [
            f"{'component':>12}  {'seconds':>12}  {'share %':>8}",
        ]
        for name in ("transit", "queue", "service", "replay"):
            lines.append(
                f"{name:>12}  {totals[name]:12.6f}  {100 * shares[name]:8.2f}"
            )
        lines.append("")
        lines.append(
            f"{'pipeline stage':>16}  {'tuples':>7}  {'queue s':>10}"
            f"  {'service s':>10}  {'transit s':>10}"
        )
        for comp in sorted(self.per_component):
            b = self.per_component[comp].to_dict()
            lines.append(
                f"{comp:>16}  {b['tuples']:>7}  {b['queue']:10.4f}"
                f"  {b['service']:10.4f}  {b['transit']:10.4f}"
            )
        lines.append("")
        lines.append(
            f"attributed {self.attributed} trees"
            f" ({self.incomplete} incomplete,"
            f" {sum(self.failed.values())} failed,"
            f" {self.replays} replays)"
            f"  exact={self.exact}"
        )
        return "\n".join(lines)


def attribute_forest(
    forest: SpanForest, interval: float = DEFAULT_INTERVAL
) -> AttributionSummary:
    """Aggregate every attributable tree of ``forest``.

    ``interval`` buckets trees by close time into control-interval bins
    (``floor(close_time / interval)``).  An acked tree is *attributable*
    when its critical path survived the ring buffer; replay penalties
    additionally need the message's first emission in the window (a
    tree with an unresolvable penalty is attributed with ``replay=0``
    and ``replay_known=False``).
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    summary = AttributionSummary(interval=float(interval))
    summary.replays = forest.replays
    summary.drops = forest.drops
    summary.sheds = forest.sheds
    summary.losses = dict(forest.losses)
    summary.orphan_events = forest.orphan_events
    for tree in forest.trees.values():
        if tree.close_kind == "fail":
            reason = tree.fail_reason or "failed"
            summary.failed[reason] = summary.failed.get(reason, 0) + 1
    per_component: Dict[str, _Bucket] = defaultdict(_Bucket)
    per_interval: Dict[int, _Bucket] = defaultdict(_Bucket)
    for tree in forest.acked_trees():
        walk = tree._walk()
        if walk is None or tree.latency is None:
            summary.incomplete += 1
            continue
        replay = forest._replay_scaled(tree)
        parts = (walk.queue, walk.service, walk.transit, replay or 0)
        b = LatencyBreakdown(*parts)
        summary.records.append(TreeAttribution(
            root=tree.root,
            msg_id=tree.msg_id,
            close_time=tree.close_time,
            latency=tree.latency,
            retries=tree.retries,
            path=walk.names,
            breakdown=b,
            exact=b.sums_exactly_to(tree.latency),
            replay_known=replay is not None,
        ))
        summary.totals.add(*parts)
        # per stage: transit and queue belong to the receiving
        # component's ingress, service to the component itself, the
        # deferred-ack hold to the acking (last) component, and the
        # replay penalty to the spout (it is spout re-emission wait)
        for comp, (transit, queue, service) in zip(walk.names[1:], walk.hops):
            per_component[comp].add(queue, service, transit)
        if walk.hops and walk.hold:
            per_component[walk.names[-1]].n_service += walk.hold
        if replay:
            per_component[walk.names[0]].n_replay += replay
        per_interval[int(tree.close_time // interval)].add(*parts)
    summary.per_component = dict(per_component)
    summary.per_interval = dict(per_interval)
    return summary
