"""The module→layer map covers ``src/repro`` exactly once per module.

Run from the repository root::

    python3 -m pytest perfbench/test_layers.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "repro"
sys.path[:0] = [str(HERE), str(PACKAGE.parent)]

from layers import (  # noqa: E402
    CLASS_LAYERS,
    LAYERS,
    UNMAPPED,
    LayerResolver,
    _matches,
    layers_of,
    source_modules,
)


def test_every_module_maps_to_exactly_one_layer():
    wrong = {
        module: layers_of(module)
        for module in source_modules(PACKAGE)
        if len(layers_of(module)) != 1
    }
    assert not wrong, (
        "modules under src/repro must map to exactly one layer in "
        f"perfbench/layers.py; these map to none or several: {wrong}"
    )


def test_every_pattern_names_an_existing_module():
    modules = source_modules(PACKAGE)
    stale = [
        (layer, pattern)
        for layer, patterns in LAYERS.items()
        for pattern in patterns
        if not any(_matches(pattern, m) for m in modules)
    ]
    assert not stale, f"layer patterns matching no module: {stale}"


def test_class_overrides_target_known_layers():
    assert set(CLASS_LAYERS.values()) <= set(LAYERS)
    LayerResolver(PACKAGE)  # imports and locates every re-layered class


def test_outside_code_is_charged_to_its_calling_layer():
    env = str(PACKAGE / "des" / "environment.py")
    spans = str(PACKAGE / "obs" / "spans.py")
    kernel = (env, 10, "run")
    analysis = (spans, 10, "breakdown")
    builtin = ("~", 0, "<built-in method builtins.len>")
    helper = ("/usr/lib/python3/fractions.py", 1, "__add__")
    top = ("bench.py", 1, "main")
    # (cc, nc, self, cumulative, callers: {caller: (cc, nc, self, cum)})
    stats = {
        top: (1, 1, 0.5, 10.0, {}),
        kernel: (1, 1, 1.0, 4.0, {top: (1, 1, 1.0, 4.0)}),
        analysis: (1, 1, 2.0, 5.0, {top: (1, 1, 2.0, 5.0)}),
        builtin: (4, 4, 1.0, 1.0, {
            kernel: (3, 3, 0.75, 0.75), top: (1, 1, 0.25, 0.25),
        }),
        helper: (2, 2, 2.0, 2.0, {analysis: (2, 2, 2.0, 2.0)}),
    }
    buckets = LayerResolver(PACKAGE).bucket(stats)
    assert buckets["des"] == {"self_s": 1.75, "calls": 1}
    assert buckets["obs.analysis"] == {"self_s": 4.0, "calls": 1}
    assert buckets[UNMAPPED]["self_s"] == 0.75
    assert sum(b["self_s"] for b in buckets.values()) == 6.5
