"""Span tracing of the library's layers, installed from outside the package.

``Tracer.installed()`` replaces the entry points of each layer with wrappers
that record a span (name, start, end, parent) per call, plus the counters the
per-layer ratios need, and puts the originals back on exit. Functions that
``epsplus.mission`` imports by name are patched in that module; methods are
patched on their class. Spans are kept in flat arrays and written once, at
the end of the run.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import epsplus.mission as mission_mod
import epsplus.pathfind as pathfind_mod
from epsplus.energy import EnergyState
from epsplus.grid import CellGrid
from epsplus.hierarchy import MapsHierarchy
from epsplus.mission import Mission
from epsplus.pathfind import DistanceField
from epsplus.sim import GroundTruth

# Every span name; each yields <name>.calls, <name>.s and <name>.self_s.
SPANS = (
    "mission.step",
    "grid.reachable",
    "sim.sense",
    "planner.next_waypoint",
    "planner.restart_point",
    "hierarchy.unexplored_in_extent",
    "hierarchy.on_state_change",
    "pathfind.visgraph",
    "pathfind.obstacle_vertices",
    "pathfind.astar",
    "pathfind.grid_astar",
    "pathfind.dfield.insert",
    "energy.gate",
    "setup",
    "setup.parse",
    "setup.hierarchy",
    "output.csv",
    "output.report",
    "output.svg",
)

EVENT_KINDS = ("sensed", "moved", "retreat_started", "recharged", "advance_started", "completed")


class Tracer:
    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPANS)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.visgraph_nodes: list[int] = []
        self._sensed: set = set()

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code (setup, output)."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, on_result=None):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- counters fed by wrapped calls -------------------------------------------

    def _on_step(self, args, event) -> None:
        self.counts[f"mission.events.{event.value}"] += 1

    def _on_sense(self, args, result) -> None:
        key = (id(args[0]), args[2])  # (world, pose)
        if key in self._sensed:
            self.counts["sim.sense.repeats"] += 1
        else:
            self._sensed.add(key)

    def _miss_counter(self, name: str):
        def on_result(args, result) -> None:
            if result is None:
                self.counts[f"{name}.misses"] += 1

        return on_result

    def _on_visgraph(self, args, graph) -> None:
        self.visgraph_nodes.append(len(graph.nodes))

    def _on_gate(self, args, ok) -> None:
        if not ok:
            self.counts["energy.gate.refusals"] += 1

    @contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        patches = [
            (mission_mod, "build_visibility_graph", "pathfind.visgraph", self._on_visgraph),
            (mission_mod, "astar", "pathfind.astar", self._miss_counter("pathfind.astar")),
            (mission_mod, "grid_astar", "pathfind.grid_astar", self._miss_counter("pathfind.grid_astar")),
            (mission_mod, "next_waypoint", "planner.next_waypoint", None),
            (mission_mod, "restart_point", "planner.restart_point", None),
            (pathfind_mod, "obstacle_vertices", "pathfind.obstacle_vertices", None),
            (Mission, "step", "mission.step", self._on_step),
            (CellGrid, "reachable_unexplored", "grid.reachable", None),
            (GroundTruth, "sense", "sim.sense", self._on_sense),
            (MapsHierarchy, "unexplored_in_extent", "hierarchy.unexplored_in_extent", None),
            (MapsHierarchy, "on_state_change", "hierarchy.on_state_change", None),
            (MapsHierarchy, "rebuild_counts", "setup.hierarchy", None),
            (DistanceField, "insert", "pathfind.dfield.insert", None),
            (EnergyState, "can_continue", "energy.gate", self._on_gate),
        ]
        saved = []
        try:
            for owner, attr, name, on_result in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------------

    def layer_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer counts and times; self time is derived from the spans.

        Times are multiplied by ``scale``, the host-speed factor of the pass.
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(SPANS)
        total = [0.0] * len(SPANS)
        self_total = [0.0] * len(SPANS)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            total[k] += dur[i]
            self_total[k] += dur[i] - child[i]
        out: dict[str, float] = {}
        for k, name in enumerate(SPANS):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.s"] = total[k] * scale
            out[f"{name}.self_s"] = self_total[k] * scale
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        idx = self._ids
        nodes = self.visgraph_nodes
        out["sim.sense.repeat_ratio"] = ratio(c["sim.sense.repeats"], calls[idx["sim.sense"]])
        out["planner.restart_accept_ratio"] = ratio(
            c["mission.events.advance_started"], calls[idx["planner.restart_point"]]
        )
        out["pathfind.visgraph.nodes_mean"] = ratio(sum(nodes), len(nodes))
        out["pathfind.visgraph.nodes_max"] = max(nodes, default=0)
        out["pathfind.visgraph.los_pairs"] = sum(v * (v - 1) // 2 for v in nodes)
        for name in ("pathfind.astar", "pathfind.grid_astar"):
            out[f"{name}.miss_ratio"] = ratio(c[f"{name}.misses"], calls[idx[name]])
        out["energy.gate.refusals"] = c["energy.gate.refusals"]
        out["output.bytes"] = c["output.bytes"]
        for kind in EVENT_KINDS:
            out[f"mission.events.{kind}"] = c[f"mission.events.{kind}"]
        out["trace.spans"] = n
        return out

    def write(self, path: Path) -> None:
        """Write every span as CSV: index, parent, name, start and end in seconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("index,parent,name,start_s,end_s\n")
            for i in range(len(self.name)):
                f.write(
                    f"{i},{self.parent[i]},{SPANS[self.name[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )
