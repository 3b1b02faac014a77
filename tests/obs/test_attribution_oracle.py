"""Scaled-integer attribution against the all-``Fraction`` oracle.

Properties under test:

* the scaled-integer arithmetic of :mod:`repro.obs.spans` (every finite
  double is an integer multiple of 2**-1074) agrees *bitwise* with
  :class:`fractions.Fraction` on sums, differences, float conversions
  and share ratios, for arbitrary finite doubles — subnormals, ±0,
  1-ulp residues and large timestamps included;
* ``attribute_forest(...).to_dict()`` and ``folded_stacks(...)`` equal
  the reference implementation in :mod:`tests.obs.attribution_oracle`
  on real traced runs and on synthetic forests;
* attribution stays linear: it never regroups the forest by message and
  walks each acked tree's critical path at most once.
"""

import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import attribute_forest, folded_stacks
from repro.obs.attribution import COMPONENTS, AttributionSummary
from repro.obs.spans import _ONE, SpanForest, SpanHop, SpanTree, _scaled
from tests.obs.attribution_oracle import (
    oracle_attribution_dict,
    oracle_breakdown,
    oracle_folded,
)
from tests.obs.test_attribution import forest_of, lossy_sim

finite = st.floats(allow_nan=False, allow_infinity=False)
timestamps = st.floats(min_value=0.0, max_value=1e6)


def rounded(thunk):
    """Bit pattern of a float result, or the overflow it raised."""
    try:
        return thunk().hex()
    except OverflowError:
        return "overflow"


def rounded_all(thunk):
    """:func:`rounded` over a ``{name: float}`` result."""
    try:
        return {k: v.hex() for k, v in thunk().items()}
    except OverflowError:
        return "overflow"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# -- scaled integers vs Fraction ----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(finite, min_size=1, max_size=8))
def test_scaled_arithmetic_is_bitwise_fraction_arithmetic(xs):
    ns = [_scaled(x) for x in xs]
    fs = [Fraction(x) for x in xs]
    for x, n, f in zip(xs, ns, fs):
        assert Fraction(n, _ONE) == f
        assert rounded(lambda: n / _ONE) == rounded(lambda: float(f))
        assert n / _ONE == x  # the round trip is exact
    n_total, f_total = sum(ns), sum(fs, Fraction(0))
    assert Fraction(n_total, _ONE) == f_total
    assert rounded(lambda: n_total / _ONE) == rounded(lambda: float(f_total))
    for (na, fa), (nb, fb) in zip(zip(ns, fs), zip(ns[1:], fs[1:])):
        assert rounded(lambda: (na - nb) / _ONE) == rounded(
            lambda: float(fa - fb)
        )
    # share ratios, through the summary: the first four values are the
    # queue/service/transit/replay totals
    parts = (xs + [0.0] * 4)[:4]
    summary = AttributionSummary(interval=1.0)
    summary.totals.add(*map(_scaled, parts))
    f_parts = [Fraction(x) for x in parts]
    f_sum = sum(f_parts, Fraction(0))
    assert rounded_all(summary.shares) == rounded_all(lambda: {
        c: 0.0 if f_sum == 0 else float(f / f_sum)
        for c, f in zip(COMPONENTS, f_parts)
    })


def test_scaled_edge_values():
    tiny = math.ulp(0.0)  # smallest subnormal, 2**-1074
    assert _scaled(tiny) == 1
    assert _scaled(-tiny) == -1
    assert _scaled(0.0) == _scaled(-0.0) == 0
    assert _scaled(1.0) == _ONE
    assert _scaled(2) == 2 * _ONE  # ints scale too
    big = 1e6
    residue = _scaled(math.nextafter(big, 0.0)) - _scaled(big)
    assert Fraction(residue, _ONE) == -Fraction(math.ulp(big))


@st.composite
def hop_fields(draw, values=finite):
    return draw(values), draw(values), draw(values)


@settings(max_examples=200, deadline=None)
@given(
    emit=finite, close=finite,
    hops=st.lists(hop_fields(), min_size=0, max_size=5),
)
def test_breakdown_matches_oracle_on_arbitrary_doubles(emit, close, hops):
    tree = SpanTree(
        root=1, msg_id=1, spout_task=0, spout_component="s",
        emit_time=emit, close_kind="ack", close_time=close,
        close_edge=len(hops),
    )
    for edge, (wait, dequeue, exec_time) in enumerate(hops, 1):
        tree.hops[edge] = SpanHop(
            edge=edge, parent=edge - 1, dst_task=edge, component=f"c{edge}",
            transfer_time=0.0, queue_time=dequeue, wait=wait,
            exec_time=exec_time,
        )
    b = tree.breakdown()
    queue, service, transit = oracle_breakdown(tree)
    assert (b.queue, b.service, b.transit, b.replay) == (
        queue, service, transit, 0
    )
    exact_sum = queue + service + transit
    assert rounded(b.total) == rounded(lambda: float(exact_sum))
    assert rounded(lambda: b.queue_s) == rounded(lambda: float(queue))
    assert rounded(lambda: b.service_s) == rounded(lambda: float(service))
    assert rounded(lambda: b.transit_s) == rounded(lambda: float(transit))


# -- synthetic forests --------------------------------------------------------


def chain_tree(root, msg_id, retries, emit, steps, hold, close_kind="ack"):
    """An acked (or failed) linear tree whose hops follow ``steps``.

    Each step is ``(transit, wait, service, nudge)``: the recorded
    ``wait`` is the float difference of the dequeue and arrival stamps,
    moved ``nudge`` ulps — the residue that makes a zero-delay hop's
    transit a ±1-ulp value.
    """
    tree = SpanTree(
        root=root, msg_id=msg_id, spout_task=0, spout_component="src",
        emit_time=emit, retries=retries, close_kind=close_kind,
    )
    prev = emit
    for edge, (transit, wait, service, nudge) in enumerate(steps, 1):
        arrival = prev + transit
        dequeue = arrival + wait
        recorded = dequeue - arrival
        for _ in range(abs(nudge)):
            toward = math.copysign(math.inf, nudge)
            recorded = math.nextafter(recorded, toward)
        exec_time = dequeue + service
        tree.hops[edge] = SpanHop(
            edge=edge, parent=edge - 1, src_task=edge - 1, dst_task=edge,
            component=("mid", "sink", None)[(edge - 1) % 3],
            transfer_time=prev, queue_time=dequeue, wait=recorded,
            exec_time=exec_time,
        )
        prev = exec_time
    tree.close_time = prev + hold
    if close_kind == "ack":
        tree.close_edge = len(steps)
        tree.latency = tree.close_time - emit
    else:
        tree.fail_reason = "timeout"
    return tree


durations = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=1e-300),
)
steps = st.tuples(durations, durations, durations, st.integers(-1, 1))


@st.composite
def forests(draw):
    forest = SpanForest()
    n = draw(st.integers(min_value=1, max_value=6))
    for m in range(n):
        emit = draw(timestamps)
        hold = draw(st.one_of(st.just(0.0), durations))
        path = draw(st.lists(steps, max_size=4))
        root = len(forest.trees) + 1
        if draw(st.booleans()):  # a lost first attempt, then a replay
            forest.trees[root] = chain_tree(
                root, m, 0, emit, path, hold, close_kind="fail"
            )
            emit = emit + draw(st.floats(min_value=0.0, max_value=30.0))
            root += 1
            forest.trees[root] = chain_tree(root, m, 1, emit, path, hold)
        else:
            forest.trees[root] = chain_tree(root, m, 0, emit, path, hold)
    return forest


@settings(max_examples=150, deadline=None)
@given(forest=forests(), interval=st.sampled_from([0.5, 5.0, 7.3]))
def test_synthetic_forest_matches_oracle(forest, interval):
    summary = attribute_forest(forest, interval=interval)
    assert canonical(summary.to_dict()) == canonical(
        oracle_attribution_dict(forest, interval)
    )
    assert folded_stacks(forest) == oracle_folded(forest)
    assert summary.exact


# -- real traced runs ---------------------------------------------------------


@pytest.mark.parametrize("seed,interval", [(0, 5.0), (4, 2.0), (9, 5.0)])
def test_lossy_runs_match_oracle(seed, interval):
    sim = lossy_sim(seed)
    sim.run(duration=35)
    forest = forest_of(sim)
    summary = attribute_forest(forest, interval=interval)
    assert any(r.retries > 0 for r in summary.records)
    assert canonical(summary.to_dict()) == canonical(
        oracle_attribution_dict(forest, interval)
    )
    assert folded_stacks(forest) == oracle_folded(forest)
    for tree in forest.acked_trees():
        b = tree.breakdown()
        assert (b.queue, b.service, b.transit) == oracle_breakdown(tree)


# -- scaling guard ------------------------------------------------------------


def replayed_forest(messages: int) -> SpanForest:
    """``messages`` lost-then-replayed messages, plus one clean one each."""
    forest = SpanForest()
    path = [(0.001, 0.002, 0.003, 0), (0.001, 0.0, 0.004, 1)]
    for m in range(messages):
        t = 0.01 * m
        for retries, kind in ((0, "fail"), (1, "ack")):
            root = len(forest.trees) + 1
            forest.trees[root] = chain_tree(
                root, m, retries, t + 5.0 * retries, path, 0.0, kind
            )
        root = len(forest.trees) + 1
        forest.trees[root] = chain_tree(root, f"ok-{m}", 0, t, path, 0.001)
    forest.replays = messages
    return forest


def test_attribution_is_one_walk_per_tree_without_regrouping(monkeypatch):
    forest = replayed_forest(3000)
    acked = len(forest.acked_trees())
    walks: Counter = Counter()
    paths: Counter = Counter()
    walk, critical_path = SpanTree._walk, SpanTree.critical_path

    def counting_walk(tree):
        walks[tree.root] += 1
        return walk(tree)

    def counting_critical_path(tree):
        paths[tree.root] += 1
        return critical_path(tree)

    def no_regrouping(self):
        raise AssertionError("attribution regrouped the forest by message")

    monkeypatch.setattr(SpanTree, "_walk", counting_walk)
    monkeypatch.setattr(SpanTree, "critical_path", counting_critical_path)
    monkeypatch.setattr(SpanForest, "messages", no_regrouping)

    summary = attribute_forest(forest)
    assert summary.attributed == acked == 6000
    assert sum(r.retries > 0 for r in summary.records) == 3000
    assert all(r.replay_known for r in summary.records)
    assert summary.exact
    assert len(walks) == acked and max(walks.values()) == 1
    assert len(paths) == acked and max(paths.values()) == 1

    walks.clear()
    paths.clear()
    folded_stacks(forest)
    assert len(walks) == acked and max(walks.values()) == 1
    assert max(paths.values()) == 1

    monkeypatch.undo()
    assert canonical(summary.to_dict()) == canonical(
        oracle_attribution_dict(forest)
    )
