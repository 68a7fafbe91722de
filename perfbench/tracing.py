"""Spans around calls into each layer of the localantimagic package.

The benchmark traces from its own code: in a traced run it replaces the
public functions of each layer at their module attributes (in the
defining module and in every package module that imported them) with
wrappers that record a span.  `patched()` restores the originals on exit,
so untraced runs execute the package exactly as shipped.

A span is (name, start, end, parent, op, counts).  Spans stay in memory
and are written as JSON lines when the run ends.  A span's self time is
its duration minus the durations of its direct children; the process is
single-threaded while tracing, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# (module, function, layer).  One layer may cover several functions.
TARGETS = [
    ("matrices", "build_matrix", "matrices.build"),
    ("matrices", "matrix_column_sums", "matrices.column_sums"),
    ("formulas", "color_triple", "formulas.color_triple"),
    ("families", "build_family", "families.build_family"),
    ("families", "build_base_graph", "families.base"),
    ("families", "apply_crossing", "families.crossing"),
    ("families", "apply_merge", "families.merge"),
    ("families", "iter_connecting_swaps", "families.swap_enum"),
    ("families", "apply_swap", "families.apply_swap"),
    ("graph", "verify_local_antimagic", "graph.verify"),
    ("graph", "graph_stats", "graph.stats"),
    ("graph", "components_of", "graph.stats"),
    ("graph", "chromatic_lower_bound", "graph.stats"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "check_cell", "sweep.cell"),
    ("io", "graph_to_json", "io.graph_json_write"),
    ("io", "graph_from_json", "io.graph_json_read"),
    ("io", "graph_to_dot", "io.dot"),
    ("io", "graph_to_graph6", "io.graph6"),
    ("io", "labels_sidecar", "io.labels_sidecar"),
    ("io", "matrix_to_csv", "io.matrix_csv"),
    ("io", "certificate_to_json", "io.certificate"),
    ("io", "swaps_to_json", "io.swaps_write"),
    ("io", "swaps_from_json", "io.swaps_read"),
    ("oracle", "exhaustive_chi_la", "oracle.prep"),
    ("_kernels", "search", "kernels.search"),
]

MODULES = ["localantimagic"] + [
    f"localantimagic.{m}"
    for m in ("matrices", "formulas", "graph", "families", "io", "sweep",
              "_kernels", "oracle")
]

JSON_WRITERS = {"io.graph_json_write", "io.certificate", "io.swaps_write"}
PARSERS = {"io.graph_json_read", "io.swaps_read"}


def _counts(layer: str, args, result) -> Optional[Dict[str, int]]:
    """Work counts recorded at the layer boundary."""
    if layer == "graph.verify":
        return {"edges": args[0].q, "vertices": len(args[0].part)}
    if layer == "families.swap_enum":
        return {"moves": len(result)}
    if layer == "oracle.prep":
        return {"tried": result.labelings_tried, "valid": result.valid_labelings}
    if layer in PARSERS:
        return {"bytes": len(args[0])}
    if layer.startswith("io."):
        return {"bytes": len(result)}
    return None


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op: Optional[str] = None
        # Off while the benchmark checks outputs, so checks leave no spans.
        self.active = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter() - self.t0, None, parent,
                           self.op, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, counts: Optional[Dict[str, int]] = None) -> None:
        self.spans[idx][2] = time.perf_counter() - self.t0
        self.spans[idx][5] = counts
        self.stack.pop()

    @contextmanager
    def span(self, name: str, op: Optional[str] = None):
        if op is not None:
            self.op = op
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, layer: str) -> Callable:
        # The swap enumerator is a generator: materialise it inside the
        # span so the span covers the enumeration, not just its creation.
        materialise = layer == "families.swap_enum"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(layer)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if materialise:
                    result = list(result)
                counts = _counts(layer, args, result)
            finally:
                self.close(idx, counts)
            return iter(result) if materialise else result

        return wrapper

    def self_times(self) -> List[float]:
        """Self time of every span, by index."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_totals(self, lo: int = 0, hi: Optional[int] = None
                     ) -> Dict[str, Dict[str, float]]:
        """Per span name over spans[lo:hi]: summed self time, call count
        and summed counts."""
        totals: Dict[str, Dict[str, float]] = {}
        own_times = self.self_times()[lo:hi]
        for s, own in zip(self.spans[lo:hi], own_times):
            t = totals.setdefault(s[0], {"self_s": 0.0, "calls": 0})
            t["self_s"] += own
            t["calls"] += 1
            for key, value in (s[5] or {}).items():
                t[key] = t.get(key, 0) + value
        return totals

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "counts": counts}) + "\n")


@contextmanager
def patched(tracer: Tracer):
    """Route every TARGETS function, wherever the package binds it,
    through the tracer; restore the originals on exit."""
    mods = [importlib.import_module(m) for m in MODULES]
    saved = []
    for mod_name, fn_name, layer in TARGETS:
        original = getattr(importlib.import_module(f"localantimagic.{mod_name}"),
                           fn_name)
        wrapper = tracer.wrap(original, layer)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
