"""The benchmark's three workloads, their output checks and counters.

Each workload is a function ``(seed, probe) -> Outcome`` that drives the
simulator through its public calls only, with a fresh :class:`Probe`
per iteration.  The probe wraps ``SimulationBuilder.build`` and
``StormSimulation.run`` while the iteration runs, so set-up time, time
inside the simulation loop and every simulation's public counters are
read without touching ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden"

#: The E5 misbehaving-worker scenario at the scale ``benchmarks/`` runs it.
E5 = dict(
    base_rate=250.0,
    duration=240.0,
    fault_start=80.0,
    fault_duration=140.0,
    slowdown_factor=25.0,
)

#: ``tests/golden/cluster_scale.json`` pins the first 5 s of this run at
#: seed 7; the benchmark simulates 40 s in two segments.
CLUSTER_GOLDEN_SEED = 7
CLUSTER_GOLDEN_SEGMENT = 5.0
CLUSTER_DURATION = 40.0

#: ``tests/golden/attribution_smoke.json`` pins this campaign at seed 11.
#: Every seed runs the fault schedule seed 11 draws: the loss faults'
#: timing and strength stay fixed, the seed varies traffic and drops.
CHAOS_GOLDEN_SEED = 11
CHAOS_APP = "url_count"
CHAOS_RATE = 120.0
CHAOS = dict(runs=2, horizon=60.0, trace=True, trace_capacity=1 << 20,
             metrics=True, app=CHAOS_APP)


#: modules each workload imports, loaded before its first timed repetition
IMPORTS = {
    "e5_drnn": ("repro.experiments.reliability",),
    "cluster_100": ("repro.apps", "repro.storm", "repro.storm.topology"),
    "chaos_traced": ("repro.experiments.reliability", "repro.obs.report"),
}


class CheckFailed(Exception):
    """A workload's output failed one of its checks."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Outcome:
    """What one workload iteration produced, besides its timings."""

    digest: str
    #: workload-specific counts (``decisions``, ``trees``)
    counters: Dict[str, float] = field(default_factory=dict)
    #: wall seconds of named phases (``phase.fit_s`` ...)
    phases: Dict[str, float] = field(default_factory=dict)


class Probe:
    """Times builds and runs and reads each simulation's public counters.

    Installed as a context manager; restores the wrapped methods on exit.
    After every ``run()`` segment it checks tuple conservation: trees the
    spouts opened equal trees acked, failed and still in flight.
    """

    def __init__(self) -> None:
        self.build_s = 0.0
        self.run_s = 0.0
        self.sim_s = 0.0
        self.acked = 0
        #: ``SimulationResult.summary()`` of every segment, for digests
        self.summaries: List[dict] = []
        # per simulation (by id): counters read after its latest segment
        self._sims: Dict[int, Dict[str, int]] = {}

    def __enter__(self) -> "Probe":
        from repro.storm.builder import SimulationBuilder
        from repro.storm.runner import StormSimulation

        self._build = SimulationBuilder.build
        self._run = StormSimulation.run
        probe = self

        def build(builder):
            t0 = time.perf_counter()
            try:
                return probe._build(builder)
            finally:
                probe.build_s += time.perf_counter() - t0

        def run(sim, duration):
            t0 = time.perf_counter()
            result = probe._run(sim, duration)
            probe.run_s += time.perf_counter() - t0
            probe._observe(sim, result)
            return result

        SimulationBuilder.build = build
        StormSimulation.run = run
        return self

    def __exit__(self, *exc) -> None:
        from repro.storm.builder import SimulationBuilder
        from repro.storm.runner import StormSimulation

        SimulationBuilder.build = self._build
        StormSimulation.run = self._run

    def _observe(self, sim, result) -> None:
        from repro.storm.executor import SpoutExecutor

        self.sim_s += result.duration
        self.acked += result.acked
        self.summaries.append(result.summary())
        ledger = sim.cluster.ledger
        spouts = [
            ex for ex in sim.cluster.executors.values()
            if isinstance(ex, SpoutExecutor)
        ]
        opened = sum(ex.trees_opened for ex in spouts)
        check(
            opened == ledger.acked_count + ledger.failed_count
            + ledger.in_flight,
            f"tuple conservation: {opened} opened != {ledger.acked_count} "
            f"acked + {ledger.failed_count} failed + {ledger.in_flight} "
            "in flight",
        )
        tracer = sim.obs.tracer
        seen = self._sims.get(id(sim), {}).get("acked", 0) + result.acked
        check(
            seen == ledger.acked_count,
            f"segment results report {seen} acked, the ledger "
            f"{ledger.acked_count}",
        )
        self._sims[id(sim)] = {
            "acked": seen,
            "events": sim.env.scheduled_count,
            "replays": sum(ex.replayed_count for ex in spouts),
            "samples": len(sim.metrics.snapshots),
            "trace_retained": len(tracer) if tracer is not None else 0,
            "trace_dropped": tracer.dropped if tracer is not None else 0,
        }

    def totals(self) -> Dict[str, int]:
        keys = ("events", "replays", "samples", "trace_retained",
                "trace_dropped")
        return {k: sum(s[k] for s in self._sims.values()) for k in keys}


def digest(*parts) -> str:
    text = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# -- workloads -------------------------------------------------------------


def e5_drnn(seed: int, probe: Probe) -> Outcome:
    """E5's DRNN arm: calibration simulation, DRNN fit, evaluation."""
    from repro.experiments.reliability import (
        run_reliability_scenario,
        train_calibration_predictor,
    )

    t0 = time.perf_counter()
    predictor = train_calibration_predictor(
        "url_count", E5["base_rate"], seed, window=6
    )
    calibration_sim = probe.run_s
    fit = time.perf_counter() - t0 - calibration_sim - probe.build_s
    arm = run_reliability_scenario(
        app="url_count", control="drnn", k_misbehaving=1,
        predictor=predictor, seed=seed, **E5,
    )
    decisions = len(arm.controller.actions)
    check(decisions > 0, "the DRNN controller made no decision")
    return Outcome(
        digest=digest(probe.summaries, decisions, arm.degradation_pct()),
        counters={"decisions": decisions},
        phases={
            "phase.calibration_sim_s": calibration_sim,
            "phase.fit_s": fit,
            "phase.eval_sim_s": probe.run_s - calibration_sim,
        },
    )


def cluster_100(seed: int, probe: Probe) -> Outcome:
    """100 nodes, 2000 executors of ``url_count``, 40 s, no faults."""
    from repro.apps import build_url_count_topology
    from repro.storm import SimulationBuilder
    from repro.storm.cluster import NodeSpec
    from repro.storm.topology import TopologyConfig

    t0 = time.perf_counter()
    topology = build_url_count_topology(
        spout_parallelism=100,
        parse_parallelism=900,
        count_parallelism=999,
        config=TopologyConfig(num_workers=200, tick_interval=1.0),
    )
    probe.build_s += time.perf_counter() - t0
    executors = sum(spec.parallelism for spec in topology.specs.values())
    check(executors == 2000, f"{executors} executors, expected 2000")
    sim = (
        SimulationBuilder(topology)
        .nodes([NodeSpec(f"n{i:03d}", cores=4, slots=2) for i in range(100)])
        .seed(seed)
        .build()
    )
    head = sim.run(duration=CLUSTER_GOLDEN_SEGMENT).summary()
    if seed == CLUSTER_GOLDEN_SEED:
        golden = (GOLDEN_DIR / "cluster_scale.json").read_text()
        check(
            json.dumps(head, sort_keys=True, indent=2) + "\n" == golden,
            "first 5 s differ from tests/golden/cluster_scale.json",
        )
    sim.run(duration=CLUSTER_DURATION - CLUSTER_GOLDEN_SEGMENT)
    return Outcome(digest=digest(probe.summaries))


def chaos_traced(seed: int, probe: Probe) -> Outcome:
    """Traced two-run message-loss campaign with span attribution.

    Built as ``run_chaos_campaign`` builds its uncontrolled arm, except
    that the fault schedule is seed 11's for every seed.  Attribution
    time grows with the replayed trees, and a freshly drawn schedule
    moves their number by half between seeds; the fixed one keeps it
    within a few percent.  At seed 11 this is exactly the campaign the
    attribution golden pins.
    """
    from repro.experiments.reliability import ChaosTopologyFactory
    from repro.obs.report import report_to_json
    from repro.storm import ChaosCampaign, ChaosSpec

    def campaign(campaign_seed: int) -> ChaosCampaign:
        return ChaosCampaign(
            ChaosTopologyFactory(app=CHAOS_APP, base_rate=CHAOS_RATE),
            ChaosSpec(crashes=0, losses=2),
            seed=campaign_seed,
            **CHAOS,
        )

    t0 = time.perf_counter()
    chaos = campaign(seed)
    chaos.schedule_for = campaign(CHAOS_GOLDEN_SEED).schedule_for
    report = chaos.run(jobs=1)
    analysis = time.perf_counter() - t0 - probe.run_s - probe.build_s
    attributions = [r.run_report["attribution"] for r in report.runs]
    replays = sum(r.replays for r in report.runs)
    spout_replays = probe.totals()["replays"]
    check(
        replays == spout_replays,
        f"campaign reports {replays} replays, the spouts {spout_replays}",
    )
    for run, attr in zip(report.runs, attributions):
        where = f"chaos run {run.run_index}"
        check(run.conserved, f"{where}: tuples not conserved")
        check(attr["exact"] is True, f"{where}: attribution not exact")
        for key in ("incomplete", "orphan_events", "drops"):
            check(attr[key] == 0, f"{where}: attribution {key}={attr[key]}")
    text = report_to_json({
        "schema": "repro-attribution-golden/1",
        "campaign_seed": seed,
        "runs": attributions,
    })
    if seed == CHAOS_GOLDEN_SEED:
        golden = (GOLDEN_DIR / "attribution_smoke.json").read_text()
        check(text == golden,
              "attribution differs from tests/golden/attribution_smoke.json")
    return Outcome(
        digest=digest(probe.summaries, text, report.summary()),
        counters={"trees": sum(a["attributed"] for a in attributions)},
        phases={"phase.analysis_s": analysis},
    )


Workload = Callable[[int, Probe], Outcome]

WORKLOADS: Dict[str, Workload] = {
    "e5_drnn": e5_drnn,
    "cluster_100": cluster_100,
    "chaos_traced": chaos_traced,
}
