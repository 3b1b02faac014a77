"""Module→layer map and the profiler bucketing that uses it.

Every module under ``src/repro`` belongs to exactly one layer
(``test_layers.py`` enforces it).  A pattern is either an exact module
name relative to ``repro`` (``""`` is ``repro/__init__``) or a package
prefix ending in ``.*``, which covers the package and everything in it.

Self time of code outside ``src/repro`` — C builtins, numpy,
``fractions`` and the rest of the standard library — is charged to the
layer that called it; time no ``repro`` frame called is ``unmapped``.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "des": (
        "des", "des.environment", "des.process", "des.events",
        "des.queues", "des.resource", "des.rng",
    ),
    "des.stores": ("des.stores",),
    "storm.executor": (
        "storm.executor", "storm.node", "storm.worker", "storm.api",
    ),
    "storm.routing": ("storm.grouping", "storm.tuples"),
    "storm.acker": ("storm.acker",),
    "storm.metrics": ("storm.metrics",),
    "storm.cluster": (
        "storm", "storm.cluster", "storm.builder", "storm.topology",
        "storm.runner", "storm.faults", "storm.chaos", "storm.elastic",
        "storm.schedulers",
    ),
    "apps": ("apps.*",),
    "core": ("core.*",),
    "models": ("models.*",),
    "obs.record": (
        "obs", "obs.tracer", "obs.metrics", "obs.slo", "obs.profiler",
    ),
    "obs.analysis": (
        "obs.spans", "obs.attribution", "obs.audit", "obs.report",
        "obs.export",
    ),
    "harness": ("", "__main__", "experiments.*", "parallel.*", "bench.*"),
}

#: classes charged to another layer than their module's:
#: ``(module, class name) -> layer``
CLASS_LAYERS: Dict[Tuple[str, str], str] = {
    ("storm.executor", "Transport"): "storm.routing",
}

UNMAPPED = "unmapped"


def _matches(pattern: str, module: str) -> bool:
    if pattern.endswith(".*"):
        package = pattern[:-2]
        return module == package or module.startswith(package + ".")
    return module == pattern


def layers_of(module: str) -> List[str]:
    """Every layer whose patterns match ``module`` (one, when the map is sound)."""
    return [
        layer for layer, patterns in LAYERS.items()
        if any(_matches(p, module) for p in patterns)
    ]


def module_name(path: Path, root: Path) -> Optional[str]:
    """``repro``-relative dotted name of ``path``, or ``None`` outside ``root``."""
    try:
        rel = path.relative_to(root)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def source_modules(root: Path) -> List[str]:
    """Module names of every ``.py`` file under the ``repro`` package ``root``."""
    return sorted(module_name(p, root) for p in root.rglob("*.py"))


FuncKey = Tuple[str, int, str]  # (filename, first line, name), as cProfile keys


class LayerResolver:
    """Maps profiled functions to layers, bucketing self time."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        # filename -> (layer, resolved path)
        self._files: Dict[str, Tuple[Optional[str], str]] = {}
        # (filename, first line, last line, layer) of re-layered classes
        self._class_spans: List[Tuple[str, int, int, str]] = []
        for (module, cls_name), layer in CLASS_LAYERS.items():
            mod = importlib.import_module(
                "repro." + module if module else "repro"
            )
            cls = getattr(mod, cls_name)
            lines, first = inspect.getsourcelines(cls)
            self._class_spans.append(
                (str(Path(inspect.getsourcefile(cls)).resolve()),
                 first, first + len(lines) - 1, layer)
            )

    def layer_of(self, func: FuncKey) -> Optional[str]:
        """The layer defining ``func``, or ``None`` for code outside ``repro``."""
        filename, line, _ = func
        if filename not in self._files:
            resolved = str(Path(filename).resolve())
            module = module_name(Path(resolved), self.root)
            matched = layers_of(module) if module is not None else []
            layer = matched[0] if len(matched) == 1 else None
            self._files[filename] = (layer, resolved)
        layer, resolved = self._files[filename]
        for span_file, first, last, span_layer in self._class_spans:
            if resolved == span_file and first <= line <= last:
                return span_layer
        return layer

    def bucket(self, stats: dict) -> Dict[str, Dict[str, float]]:
        """Per-layer ``self_s`` and ``calls`` from ``pstats.Stats.stats``.

        A ``repro`` function's self time and calls go to its layer.  Any
        other function's self time is split over its callers by the
        self time each call edge carried; a caller outside ``repro`` is
        resolved in turn through its own callers, weighted by cumulative
        time.  Calls are counted for ``repro`` functions only.
        """
        memo: Dict[FuncKey, Dict[str, float]] = {}
        in_progress: set = set()

        def owners(func: FuncKey) -> Dict[str, float]:
            # layer -> fraction of ``func``'s time its callers own
            layer = self.layer_of(func)
            if layer is not None:
                return {layer: 1.0}
            if func in memo:
                return memo[func]
            in_progress.add(func)
            callers = {
                c: edge for c, edge in stats[func][4].items()
                if c not in in_progress
            } if func in stats else {}
            weights = {c: edge[3] for c, edge in callers.items()}
            if sum(weights.values()) <= 0:
                weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values())
            out: Dict[str, float] = {}
            if total <= 0:
                out = {UNMAPPED: 1.0}
            for caller, w in weights.items():
                for owner, frac in owners(caller).items():
                    out[owner] = out.get(owner, 0.0) + frac * w / total
            in_progress.discard(func)
            memo[func] = out
            return out

        totals: Dict[str, Dict[str, float]] = {
            name: {"self_s": 0.0, "calls": 0}
            for name in list(LAYERS) + [UNMAPPED]
        }
        for func, (_cc, nc, tt, _ct, callers) in stats.items():
            layer = self.layer_of(func)
            if layer is not None:
                totals[layer]["self_s"] += tt
                totals[layer]["calls"] += nc
                continue
            edge_tt = {
                c: edge[2] for c, edge in callers.items() if c != func
            }
            edge_total = sum(edge_tt.values())
            if edge_total <= 0:
                for owner, frac in owners(func).items():
                    totals[owner]["self_s"] += tt * frac
                continue
            for caller, share in edge_tt.items():
                for owner, frac in owners(caller).items():
                    totals[owner]["self_s"] += tt * frac * share / edge_total
        return totals


def functions_in(stats: dict, filename: str, first: int,
                 last: int) -> Iterable[Tuple[FuncKey, tuple]]:
    """Profiled functions defined in lines ``first..last`` of ``filename``."""
    for func, row in stats.items():
        if func[0] == filename and first <= func[1] <= last:
            yield func, row
