"""Outside-in layer trace for the benchmark's traced repetitions.

``Tracer.install`` replaces every public function of the eight layer
modules at every module attribute that holds it: the defining module,
each module that imported it by name (``cli.parse_topology``,
``overlap.point_in_region``, ...) and the package re-exports.  A wrapped
call records a span (name, start, end, parent) in memory; self time is a
span's duration minus the time its child spans cover.  Nothing inside
the program changes, so traced runs must write the same bytes.

``geo.point_in_region`` is the exception: it runs once per polygon test,
so it is counted (calls and hits) through the ``overlap`` binding, not
timed.

Counting hooks run after a wrapped call returns, inside a ``trace.hooks``
span under the caller, so their cost is the tracer's and no layer's.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("ingest", "grid_model", "geo", "overlap", "failure", "connectivity", "placement", "cli")
HOOKS = "trace.hooks"
RESOLVE = ("overlap.resolve_router_zones", "overlap.resolve_components", "overlap.sample_polygon_overlap")
REMOVED = {
    "multicast_interfaces": "removed_interfaces",
    "nodes": "removed_nodes",
    "links": "removed_links",
    "self_links": "self_links",
    "dangling_links": "dangling_links",
    "geo_for_unknown_nodes": "geo_for_unknown_nodes",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.removed: dict[str, int] = {}
        self.vertices = 0
        self.line_counts: dict[str, int] = {}

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                with self.span(HOOKS):
                    hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer at every binding."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"netwattzap.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    if attr != "point_in_region":
                        wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "netwattzap" or mod_name.startswith("netwattzap."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrappers:
                        setattr(mod, attr, wrappers[id(val)])

        overlap = sys.modules["netwattzap.overlap"]
        point_in_region = overlap.point_in_region

        def counted(point, region):
            hit = point_in_region(point, region)
            self.counts["pip.calls"] = self.counts.get("pip.calls", 0) + 1
            self.counts["pip.hits"] = self.counts.get("pip.hits", 0) + hit
            return hit

        overlap.point_in_region = counted

    def self_times(self, root: str | None = None) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in s, calls), optionally only under root spans named ``root``."""
        child = [0.0] * len(self.spans)
        top = [0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                top[i] = top[parent]
            else:
                top[i] = i
        out: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if root is not None and self.spans[top[i]][0] != root:
                continue
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += (end - start) - child[i]
            entry[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def inclusive(self, name: str) -> float:
        """Summed duration of the outermost spans named ``name``, children included."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == name:
                while parent >= 0 and self.spans[parent][0] != name:
                    parent = self.spans[parent][3]
                if parent < 0:
                    total += end - start
        return total

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced repetition (``wall_s``: its timed ops)."""
        st = self.self_times()

        def self_s(*names):
            return sum(st.get(n, (0.0, 0))[0] for n in names)

        def calls(name):
            return st.get(name, (0.0, 0))[1]

        def per(num, den, scale=1e6):
            return num * scale / den if den else 0.0

        c = self.counts
        m: dict[str, float] = {}
        m["ingest.parse_topology.self_s"] = self_s("ingest.parse_topology")
        m["ingest.parse_topology.lines"] = c.get("lines", 0)
        m["ingest.us_per_line"] = per(m["ingest.parse_topology.self_s"], c.get("lines", 0))
        for key in REMOVED:
            m[f"ingest.removed.{key}"] = self.removed.get(key, 0)
        m["ingest.parse_components.self_s"] = self_s("ingest.parse_components")
        m["grid_model.load_registry.self_s"] = self_s("grid_model.load_registry")
        m["grid_model.vertices"] = self.vertices
        m["overlap.resolve.self_s"] = self_s(*RESOLVE)
        m["overlap.resolve.points"] = c.get("points", 0)
        m["overlap.resolve.us_per_point"] = per(m["overlap.resolve.self_s"], c.get("points", 0))
        m["overlap.resolve.distinct_frac"] = per(c.get("distinct", 0), c.get("points", 0), 1.0)
        m["overlap.resolve.unzoned"] = c.get("unzoned", 0)
        m["overlap.categorize_links.self_s"] = self_s("overlap.categorize_links")
        m["overlap.categorize_links.us_per_link"] = per(m["overlap.categorize_links.self_s"], c.get("links", 0))
        m["overlap.pair_counts.self_s"] = self_s("overlap.pair_counts")
        m["overlap.distribution_report.self_s"] = self_s("overlap.distribution_report")
        m["geo.point_in_region.calls"] = c.get("pip.calls", 0)
        m["geo.point_in_region.hit_frac"] = per(c.get("pip.hits", 0), c.get("pip.calls", 0), 1.0)
        m["failure.resolve_scenario.self_s"] = self_s("failure.resolve_scenario")
        m["failure.unavailability.self_s"] = self_s("failure.unavailability")
        m["connectivity.flow_reduction.self_s"] = self_s("connectivity.flow_reduction")
        m["connectivity.gomory_hu.self_s"] = self_s("connectivity.gomory_hu")
        m["connectivity.gomory_hu.calls"] = calls("connectivity.gomory_hu")
        m["connectivity.min_cut.calls"] = calls("connectivity.min_cut")
        m["connectivity.min_cut.self_s"] = self_s("connectivity.min_cut")
        m["connectivity.flow_reduction.s_per_call"] = per(self.inclusive("connectivity.flow_reduction"),
                                                          calls("connectivity.flow_reduction"), 1.0)
        m["connectivity.gomory_hu.s_per_call"] = per(self.inclusive("connectivity.gomory_hu"),
                                                     calls("connectivity.gomory_hu"), 1.0)
        m["placement.build_ilp.self_s"] = self_s("placement.build_ilp")
        m["placement.solve.self_s"] = self_s("placement.solve")
        m["placement.nodes"] = c.get("nodes", 0)
        m["placement.nodes_per_s"] = per(c.get("nodes", 0), m["placement.solve.self_s"], 1.0)
        m["cli.main.self_s"] = sum(v[0] for k, v in st.items() if k.startswith("cli."))
        # Shares of the timed operations without the hooks, so they add up to at most 1.
        in_ops = self.self_times(root="op")
        program_s = wall_s - in_ops.get(HOOKS, (0.0, 0))[0]
        for layer in LAYERS:
            m[f"{layer}.share"] = per(sum(v[0] for k, v in in_ops.items() if k.startswith(layer + ".")), program_s, 1.0)
        m["overlap.resolve.share"] = per(sum(in_ops.get(n, (0.0, 0))[0] for n in RESOLVE), program_s, 1.0)
        for name in ("ingest.parse_topology", "overlap.categorize_links"):
            m[f"{name}.share"] = per(in_ops.get(name, (0.0, 0))[0], program_s, 1.0)
        return m


def _points(tracer, points):
    tracer.count("points", len(points))
    tracer.count("distinct", len(set(points)))


def _hook_parse_topology(tracer, args, kwargs, result):
    for source in args[:3]:
        if isinstance(source, (str, Path)):
            key = str(source)
            if key not in tracer.line_counts:
                tracer.line_counts[key] = Path(source).read_bytes().count(b"\n")
            tracer.count("lines", tracer.line_counts[key])
    tracer.removed = {key: getattr(result.report, field) for key, field in REMOVED.items()}


def _hook_router_zones(tracer, args, kwargs, result):
    located = [n for n in args[0] if n.geo is not None]
    _points(tracer, [(n.geo.lat, n.geo.lon) for n in located])
    tracer.count("unzoned", sum(1 for n in located if result[n.node_id] is None))


def _hook_components(tracer, args, kwargs, result):
    _points(tracer, [(c.geo.lat, c.geo.lon) for c in result])
    tracer.count("unzoned", sum(1 for c in result if c.zone is None))


def _hook_sample(tracer, args, kwargs, result):
    # Uniform random samples: every point is treated as distinct.
    tracer.count("points", result.samples)
    tracer.count("distinct", result.samples)


def _hook_categorize(tracer, args, kwargs, result):
    tracer.count("links", len(args[0]))


def _hook_registry(tracer, args, kwargs, result):
    tracer.vertices = sum(len(ring) for region in result for poly in region.boundary for ring in poly)


def _hook_solve(tracer, args, kwargs, result):
    tracer.count("nodes", result.nodes_explored)


_HOOKS = {
    "ingest.parse_topology": _hook_parse_topology,
    "overlap.resolve_router_zones": _hook_router_zones,
    "overlap.resolve_components": _hook_components,
    "overlap.sample_polygon_overlap": _hook_sample,
    "overlap.categorize_links": _hook_categorize,
    "grid_model.load_registry": _hook_registry,
    "placement.solve": _hook_solve,
}
