"""Golden pins of the event-queue order at scale and under in-sim training.

* a 100-node / 2000-executor cluster run (``tests/golden/
  cluster_scale.json``) must produce the pinned summary — the densest
  pending-event set in the suite, so any change to the kernel's
  ``(time, priority, seq)`` pop order shows here first;
* the online-retraining campaign (``tests/golden/online_retraining.json``)
  must replay byte-for-byte serially — in-sim DRNN refits are the
  heaviest per-event payload riding on the queue.

Regenerate ``cluster_scale.json`` by running ``_cluster_summary`` and
dumping it with ``json.dump(..., sort_keys=True, indent=2)`` plus a
trailing newline.
"""

import json
from pathlib import Path

import pytest

from repro.apps import build_url_count_topology
from repro.experiments.reliability import run_chaos_campaign
from repro.obs.export import summary_to_json
from repro.storm import ChaosSpec, SimulationBuilder
from repro.storm.cluster import NodeSpec
from repro.storm.topology import TopologyConfig

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

CLUSTER_NODES = 100
CLUSTER_EXECUTORS = 2000


@pytest.mark.slow
def test_online_retraining_golden_pinned(tmp_path):
    report = run_chaos_campaign(
        app="url_count",
        spec=ChaosSpec(crashes=1, losses=0),
        seed=11,
        runs=2,
        horizon=80.0,
        base_rate=120.0,
        control="online",
        control_interval=5.0,
        window=4,
        retrain_interval=20.0,
    )
    out = tmp_path / "online.json"
    summary_to_json(report.summary(), out)
    golden = (GOLDEN_DIR / "online_retraining.json").read_text()
    assert out.read_text() == golden, (
        "online-retraining campaign drifted from "
        "tests/golden/online_retraining.json"
    )


def _cluster_summary() -> dict:
    topology = build_url_count_topology(
        spout_parallelism=100,
        parse_parallelism=900,
        count_parallelism=999,
        config=TopologyConfig(num_workers=200, tick_interval=1.0),
    )
    total = sum(spec.parallelism for spec in topology.specs.values())
    assert total == CLUSTER_EXECUTORS
    sim = (
        SimulationBuilder(topology)
        .nodes([
            NodeSpec(f"n{i:03d}", cores=4, slots=2)
            for i in range(CLUSTER_NODES)
        ])
        .seed(7)
        .build()
    )
    return sim.run(duration=5.0).summary()


def test_cluster_scale_summary_pinned():
    golden = json.loads((GOLDEN_DIR / "cluster_scale.json").read_text())
    assert json.dumps(_cluster_summary(), sort_keys=True) == json.dumps(
        golden, sort_keys=True
    ), (
        "cluster-scale run drifted from tests/golden/cluster_scale.json; "
        "if intentional, regenerate it (see module docstring) and commit"
    )
