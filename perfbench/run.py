"""End-to-end, layer-attributed benchmark of the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload e5_drnn --seed 1 --seconds 60 --trace 0

``--trace 0`` repeats the workload untraced for up to ``--seconds``
(at least twice) and reports the end-to-end metrics as medians
over the repetitions, each scaled by the host's speed during it
(see :class:`Pace`).  ``--trace 1`` runs it once untraced and once
under ``cProfile`` and reports the per-layer metrics.  ``--workload
all`` runs every workload in turn in this process.  The last line of
standard output is one JSON object; the exit code is 0 only when every
output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import inspect
import json
import os
import pstats
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import LAYERS, UNMAPPED, LayerResolver, functions_in
from workloads import IMPORTS, WORKLOADS, Outcome, Probe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: repetitions a ``--trace 0`` run makes at least, so digests can be compared
MIN_ITERATIONS = 2

#: thread-count variables of the BLAS libraries numpy may load; the
#: benchmark runs single-threaded unless the caller sets them
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: end-to-end metrics: name -> unit
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "acked_per_wall_s": "tuples/s",
    "sim_per_wall": "s/s",
    "peak_rss_mb": "MB",
}

#: wall-time phases a workload may report; 0 on the others
PHASES = (
    "phase.calibration_sim_s",
    "phase.fit_s",
    "phase.eval_sim_s",
    "phase.analysis_s",
)


#: seconds between two host-speed samples while a repetition runs
PACE_PERIOD_S = 0.02
#: median time of one host-speed sample on the reference host, a 2-vCPU
#: Intel Xeon virtual machine; timings are scaled to that host's speed
PACE_REFERENCE_S = 1.5e-4
#: how the simulator's wall time follows the sample time on a shared
#: host: the log-log slope over 65 ``cluster_100`` and 23 ``chaos_traced``
#: repetitions was 0.45 and 0.48 (correlation 0.75 and 0.89)
PACE_ELASTICITY = 0.5


def _pace_work() -> None:
    """Fixed pure-Python work, the mix of the simulator's hot loops."""
    table: Dict[int, int] = {}
    window: List[Tuple[int, int]] = []
    for i in range(400):
        table[i & 63] = table.get(i & 63, 0) + i
        window.append((i, 2 * i))
        if len(window) > 16:
            window.pop(0)


class Pace:
    """Samples the host's speed while one repetition runs.

    On a shared host the speed of a core drifts by a fifth or more over
    minutes as other tenants load it, and that drift, not the seed or
    the code, made most of the spread between runs.  Every
    ``PACE_PERIOD_S`` a ``SIGALRM`` handler times :func:`_pace_work`
    (about 1% of the repetition's time); ``slowdown`` is the median
    sample over ``PACE_REFERENCE_S``, raised to ``PACE_ELASTICITY``.  No
    thread is started.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        _pace_work()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Pace":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PACE_PERIOD_S, PACE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._sample()

    @property
    def slowdown(self) -> float:
        ratio = statistics.median(self.samples) / PACE_REFERENCE_S
        return ratio ** PACE_ELASTICITY


@dataclass
class Sample:
    """One workload iteration: its wall time, probe and outcome."""

    wall: float
    probe: Probe
    outcome: Outcome
    #: the host's slowdown against the reference host; 1 when not paced
    slowdown: float = 1.0

    @property
    def run_s(self) -> float:
        return self.wall - self.probe.build_s


def iterate(workload, seed: int,
            profiler: Optional[cProfile.Profile] = None,
            pace: Optional[Pace] = None) -> Sample:
    gc.collect()  # start each iteration from the same collected heap
    with Probe() as probe:
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            if pace is None:
                outcome = workload(seed, probe)
            else:
                with pace:
                    outcome = workload(seed, probe)
        finally:
            if profiler is not None:
                profiler.disable()
        wall = time.perf_counter() - t0
    return Sample(wall, probe, outcome,
                  pace.slowdown if pace is not None else 1.0)


class Tally:
    """Attempted and failed iterations of one workload, plus digests."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: List[str] = []

    def attempt(self, workload, seed: int,
                profiler: Optional[cProfile.Profile] = None,
                pace: Optional[Pace] = None) -> Optional[Sample]:
        self.attempted += 1
        try:
            sample = iterate(workload, seed, profiler, pace)
        except Exception:  # a failed run is counted, never fatal
            self.failures.append(traceback.format_exc())
            print(self.failures[-1], file=sys.stderr)
            return None
        if self.digests and sample.outcome.digest != self.digests[0]:
            self.failures.append(
                f"{self.name}: result digest {sample.outcome.digest} differs "
                f"from the first run's {self.digests[0]} at seed {seed}"
            )
            print(self.failures[-1], file=sys.stderr)
            return None
        self.digests.append(sample.outcome.digest)
        return sample


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(samples: List[Sample]) -> Dict[str, Tuple[float, str]]:
    """Medians over repetitions, each timing scaled to the reference host."""
    med = statistics.median
    values = {
        "run_s": med(s.run_s / s.slowdown for s in samples),
        "setup_s": med(s.probe.build_s / s.slowdown for s in samples),
        "acked_per_wall_s": med(
            s.probe.acked * s.slowdown / s.run_s for s in samples
        ),
        "sim_per_wall": med(
            s.probe.sim_s * s.slowdown / s.probe.run_s for s in samples
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {key: (values[key], unit) for key, unit in END_TO_END.items()}


def measure(name: str, seed: int, seconds: float
            ) -> Tuple[Tally, Dict[str, Tuple[float, str]]]:
    tally = Tally(name)
    samples: List[Sample] = []
    start = time.perf_counter()
    elapsed = last = 0.0
    # past the minimum, repeat only while one more repetition as long as
    # the last still fits in ``seconds``
    while tally.attempted < MIN_ITERATIONS or elapsed + last <= seconds:
        sample = tally.attempt(WORKLOADS[name], seed, pace=Pace())
        if sample is not None:
            samples.append(sample)
        last = time.perf_counter() - start - elapsed
        elapsed += last
    if samples:
        walls = ", ".join(f"{s.run_s:.3f}" for s in samples)
        slow = ", ".join(f"{s.slowdown:.3f}" for s in samples)
        print(f"   {name}: wall run_s per repetition [{walls}], "
              f"host slowdown [{slow}]")
    return tally, end_to_end(samples) if samples else {}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(stats: dict, profiled: Sample, reference: Sample
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one profiled iteration.

    Self time, shares and calls come from the profile; counters from
    the simulations' public surfaces; phase timings and ``build_s``
    from the untraced ``reference`` iteration of the same seed.
    """
    import repro
    from repro.storm.executor import BoltExecutor
    from repro.storm.grouping import DynamicGrouping

    buckets = LayerResolver(Path(repro.__file__).parent).bucket(stats)
    total = sum(b["self_s"] for b in buckets.values())
    self_s = {layer: b["self_s"] for layer, b in buckets.items()}
    out: Dict[str, Tuple[float, str]] = {}
    for layer in list(LAYERS) + [UNMAPPED]:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.share"] = (_ratio(self_s[layer], total), "fraction")
        if layer != UNMAPPED:
            out[f"{layer}.calls"] = (buckets[layer]["calls"], "count")

    counts = profiled.probe.totals()
    acked = profiled.probe.acked
    # per-bolt tick timers; a tick design without them counts 0 here
    ticker = getattr(BoltExecutor, "_ticker", None)
    code = ticker.__code__ if ticker is not None else None
    row = stats.get(
        (code.co_filename, code.co_firstlineno, code.co_name)
    ) if code is not None else None
    ticks = row[1] if row else 0
    lines, first = inspect.getsourcelines(DynamicGrouping)
    routers = [
        row for _, row in functions_in(
            stats, inspect.getsourcefile(DynamicGrouping), first,
            first + len(lines) - 1,
        )
    ]
    router = max(routers, key=lambda row: row[1], default=(0, 0, 0, 0.0))
    counters = profiled.outcome.counters
    decisions = counters.get("decisions", 0)
    trees = counters.get("trees", 0)
    out.update({
        "des.events": (counts["events"], "count"),
        "des.events_per_acked": (
            _ratio(counts["events"], acked), "events/tuple"
        ),
        "storm.executor.ticks": (ticks, "count"),
        "storm.executor.tick_share": (
            _ratio(ticks, counts["events"]), "fraction"
        ),
        "storm.routing.dynamic_calls": (router[1], "count"),
        "storm.routing.us_per_dynamic_call": (
            _ratio(router[3], router[1], 1e6), "us"
        ),
        "storm.acker.replays": (counts["replays"], "count"),
        "storm.acker.replay_ratio": (
            _ratio(counts["replays"], acked), "fraction"
        ),
        "storm.metrics.samples": (counts["samples"], "count"),
        "storm.metrics.ms_per_sample": (
            _ratio(self_s["storm.metrics"], counts["samples"], 1e3), "ms"
        ),
        "storm.cluster.build_s": (reference.probe.build_s, "s"),
        "core.decisions": (decisions, "count"),
        "core.ms_per_decision": (
            _ratio(self_s["core"], decisions, 1e3), "ms"
        ),
        "obs.record.trace_events": (
            counts["trace_retained"] + counts["trace_dropped"], "count"
        ),
        "obs.record.trace_dropped": (counts["trace_dropped"], "count"),
        "obs.analysis.trees": (trees, "count"),
        "obs.analysis.ms_per_tree": (
            _ratio(self_s["obs.analysis"], trees, 1e3), "ms"
        ),
    })
    for phase in PHASES:
        out[phase] = (reference.outcome.phases.get(phase, 0.0), "s")
    out["trace_overhead"] = (profiled.wall / reference.wall, "ratio")
    return out


def traced(name: str, seed: int
           ) -> Tuple[Tally, Dict[str, Tuple[float, str]]]:
    tally = Tally(name)
    reference = tally.attempt(WORKLOADS[name], seed)
    profiler = cProfile.Profile()
    profiled = tally.attempt(WORKLOADS[name], seed, profiler)
    if reference is None or profiled is None:
        return tally, {}
    stats = pstats.Stats(profiler).stats
    return tally, layer_metrics(stats, profiled, reference)


def print_block(name: str, seed: int, trace: bool, tally: Tally,
                metrics: Dict[str, Tuple[float, str]]) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== {name}  seed={seed}  {mode}  runs={tally.attempted}")
    rows = dict(metrics)
    if not trace:
        rows["fail_ratio"] = (len(tally.failures) / tally.attempted, "ratio")
    width = max(len(k) for k in rows) if rows else 0
    for key, (value, unit) in rows.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {key:<{width}}  {shown} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREADS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        # import (and, in a fresh checkout, byte-compile) before timing
        for module in IMPORTS[name]:
            importlib.import_module(module)
        if args.trace:
            tally, metrics = traced(name, args.seed)
        else:
            tally, metrics = measure(name, args.seed, args.seconds)
        print_block(name, args.seed, bool(args.trace), tally, metrics)
        attempted += tally.attempted
        failed += len(tally.failures)
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in metrics.items():
            out[prefix + key] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
