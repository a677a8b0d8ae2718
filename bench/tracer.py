"""In-process tracing of curvegraph's public functions, from outside.

`Tracer` replaces each function in `LAYERS` by a wrapper under every
curvegraph module name that binds it (``curvature`` binds ``distance_map``
through ``from .graphs import``, for example), records one span per call with
its parent span, and puts the originals back on exit. Spans stay in memory;
`metrics` turns them into the per-layer numbers. Nothing in the package
changes.
"""

from __future__ import annotations

import sys
import time

LAYERS = {
    "graphs": ("loads_json", "graph_from_json_dict", "validate_graph", "graph_to_json",
               "distance_map", "rooted_decomposition"),
    "chains": ("chain_from_json_dict", "associated_bdc", "bdc_as_graph"),
    "curvature": ("ollivier_pair", "verify_witness", "ollivier_pair_bruteforce",
                  "sphere_curvature", "average_curvature", "curvature_profile"),
    "comparison": ("volume_comparison", "asymptotic_constant", "stronger_curvature_growth",
                   "stronger_average_growth", "stronger_outside_finite", "compcurv_check",
                   "partial_sum_equiv_check", "laplacian_distance_compare",
                   "model_sphere_equality_report"),
    "verify": ("run_verification",),
    "cli": ("run",),
}

# result size recorded with the span: vertices reached, support size
SIZES = {
    "distance_map": len,
    "ollivier_pair": lambda result: len(result.support),
}

# name -> (unit, better); the order is the order of the report
METRICS = {
    "graphs.load_s": ("s", "lower"),
    "graphs.validate_s": ("s", "lower"),
    "graphs.render_s": ("s", "lower"),
    "graphs.bfs_calls": ("count", "lower"),
    "graphs.bfs_vertices": ("count", "lower"),
    "graphs.bfs_s": ("s", "lower"),
    "graphs.decompose_calls": ("count", "lower"),
    "graphs.decompose_s": ("s", "lower"),
    "curvature.pair_calls": ("count", "lower"),
    "curvature.pair_s": ("s", "lower"),
    "curvature.pair_self_s": ("s", "lower"),
    "curvature.support_sum": ("count", "lower"),
    "curvature.support_max": ("count", "lower"),
    "curvature.replay_calls": ("count", "lower"),
    "curvature.replay_s": ("s", "lower"),
    "curvature.bruteforce_calls": ("count", "lower"),
    "curvature.bruteforce_s": ("s", "lower"),
    "curvature.sphere_s": ("s", "lower"),
    "curvature.average_calls": ("count", "lower"),
    "curvature.average_s": ("s", "lower"),
    "curvature.profile_s": ("s", "lower"),
    "chains.bdc_calls": ("count", "lower"),
    "chains.bdc_s": ("s", "lower"),
    "chains.as_graph_calls": ("count", "lower"),
    "comparison.self_s": ("s", "lower"),
    "verify.run_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}


class Tracer:
    """Context manager that wraps the layer functions while it is active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, size]
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        size = SIZES.get(name)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, 0]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                span[4] = size(result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "curvegraph"]
        for layer, names in LAYERS.items():
            home = sys.modules[f"curvegraph.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    # -- aggregation --------------------------------------------------------

    def _calls(self, *names):
        return sum(1 for s in self.spans if s[0] in names)

    def _inclusive(self, *names):
        """Time in the named functions, each nest of them counted once."""
        total = 0.0
        for span in self.spans:
            if span[0] in names and not self._inside(span, names):
                total += span[2] - span[1]
        return total

    def _inside(self, span, names):
        parent = span[3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def _self(self, *names):
        """Time in the named functions minus the time of their traced children."""
        total = 0.0
        for span in self.spans:
            if span[0] in names:
                total += span[2] - span[1]
        for span in self.spans:
            if span[3] is not None and self.spans[span[3]][0] in names:
                total -= span[2] - span[1]
        return total

    def metrics(self) -> dict:
        sizes = lambda name: [s[4] for s in self.spans if s[0] == name]  # noqa: E731
        return {
            "graphs.load_s": self._inclusive("loads_json", "graph_from_json_dict",
                                             "chain_from_json_dict"),
            "graphs.validate_s": self._inclusive("validate_graph"),
            "graphs.render_s": self._inclusive("graph_to_json"),
            "graphs.bfs_calls": self._calls("distance_map"),
            "graphs.bfs_vertices": sum(sizes("distance_map")),
            "graphs.bfs_s": self._inclusive("distance_map"),
            "graphs.decompose_calls": self._calls("rooted_decomposition"),
            "graphs.decompose_s": self._inclusive("rooted_decomposition"),
            "curvature.pair_calls": self._calls("ollivier_pair"),
            "curvature.pair_s": self._inclusive("ollivier_pair"),
            "curvature.pair_self_s": self._self("ollivier_pair"),
            "curvature.support_sum": sum(sizes("ollivier_pair")),
            "curvature.support_max": max(sizes("ollivier_pair"), default=0),
            "curvature.replay_calls": self._calls("verify_witness"),
            "curvature.replay_s": self._inclusive("verify_witness"),
            "curvature.bruteforce_calls": self._calls("ollivier_pair_bruteforce"),
            "curvature.bruteforce_s": self._inclusive("ollivier_pair_bruteforce"),
            "curvature.sphere_s": self._inclusive("sphere_curvature"),
            "curvature.average_calls": self._calls("average_curvature"),
            "curvature.average_s": self._inclusive("average_curvature"),
            "curvature.profile_s": self._inclusive("curvature_profile"),
            "chains.bdc_calls": self._calls("associated_bdc"),
            "chains.bdc_s": self._inclusive("associated_bdc"),
            "chains.as_graph_calls": self._calls("bdc_as_graph"),
            "comparison.self_s": self._self(*LAYERS["comparison"]),
            "verify.run_s": self._inclusive("run_verification"),
            "cli.self_s": self._self("run"),
        }
