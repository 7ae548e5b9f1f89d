#!/usr/bin/env python3
"""Seeded mission benchmark for epsplus (stdlib only, one process, one thread).

Run from the repository root:

    python3 bench/run.py --workload fields --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload rect80 --seed 1 --seconds 45 --trace 1
    python3 bench/run.py --workload tight --seed 1 --gen-seed 99   # held-out maps
    python3 bench/run.py --old parent/*.json --new change/*.json   # compare results

A run is a closed loop: one mission at a time, each driven through the path a
CLI run takes (``parse_map_text`` -> ``GroundTruth.from_parsed`` ->
``Mission``, stepped with ``Mission.step()`` until COMPLETED, then
``log_to_csv``, ``report_to_text`` and ``render_svg``). One pass runs every
case of the workload; passes repeat until ``--seconds`` have elapsed. Every
mission is checked; a failed check or a raised exception counts as a failed
mission. The last line of standard output is the JSON result; the full
record (metrics, output digests, exact counts) also goes to ``bench/out/``.
See ``bench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import defaultdict, deque
from contextlib import nullcontext
from pathlib import Path

from workloads import build, flood_reachable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
WORKLOADS = ("fields", "rect80", "tight")
SETUP_REPS = 10  # extra set-ups of every mission per pass
OUTPUT_REPS = 10  # renderings of every mission per pass
SPEED_EVERY_S = 0.04  # host seconds between two host-speed samples
# Time of one host-speed sample on the reference host (Intel Xeon 2.1 GHz
# virtual machine, Python 3.11.7) when it is not contended. Host times are
# reported as they would read on that host.
SPEED_REF_S = 0.0016

clock = time.perf_counter

_N = 32
_BLOCKED = frozenset(
    (c, r) for c in range(_N) for r in range(_N) if (c * 7 + r * 3) % 11 == 0 and (c, r) != (0, 0)
)


def speed_kernel() -> int:
    """Fixed pure-Python work: an 8-connected flood fill of a 32x32 grid."""
    seen = {(0, 0)}
    queue = deque(seen)
    while queue:
        c, r = queue.popleft()
        for dc in (-1, 0, 1):
            for dr in (-1, 0, 1):
                n = (c + dc, r + dr)
                if 0 <= n[0] < _N and 0 <= n[1] < _N and n not in seen and n not in _BLOCKED:
                    seen.add(n)
                    queue.append(n)
    return len(seen)


class PassTimes:
    """Host times of one pass, and the host's speed while the pass ran.

    On a shared virtual machine the same code runs up to 2x slower for
    minutes at a time, as the neighbours' load comes and goes; no statistic
    over the samples of one 45 s run removes that. So a
    pass samples the host's speed every ``SPEED_EVERY_S`` seconds with
    ``speed_kernel``, which is fixed and independent of the library, and
    every host time of the pass is scaled by ``SPEED_REF_S`` / the mean time
    of those samples. Work that a change adds to or removes from the library
    changes the scaled times; a neighbour's load changes both sides alike.
    """

    def __init__(self) -> None:
        self.speed = array("d")
        self.last = clock()
        self.steps = array("d")
        self.setup = defaultdict(list)
        self.output = defaultdict(list)

    def tick(self, now: float) -> None:
        if now - self.last >= SPEED_EVERY_S:
            self.sample()

    def sample(self) -> None:
        t = clock()
        speed_kernel()
        self.last = clock()
        self.speed.append(self.last - t)

    def scale(self) -> float:
        if not self.speed:
            self.sample()
        return SPEED_REF_S / statistics.fmean(self.speed)

    def stepping(self, scale: float) -> dict:
        q = statistics.quantiles(self.steps, n=100) if len(self.steps) > 1 else [0.0] * 99
        return {
            "mission_s": math.fsum(self.steps) * scale,
            "step_p50_us": q[49] * scale * 1e6,
            "step_p99_us": q[98] * scale * 1e6,
        }


def _no_span(name: str):
    return nullcontext()


def import_library():
    """Import epsplus from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "epsplus" / "__init__.py").is_file():
        raise ImportError(f"epsplus sources not found under {src}")
    sys.path.insert(0, str(src))
    import epsplus

    if Path(epsplus.__file__).resolve().parent != (src / "epsplus").resolve():
        raise ImportError(f"imported epsplus from {epsplus.__file__}, expected {src}")
    return epsplus


class Runner:
    """Sets up, steps, renders and checks the missions of one workload."""

    def __init__(self, lib, cases):
        self.lib = lib
        self.cases = cases

    def setup(self, case, span):
        lib = self.lib
        with span("setup"):
            with span("setup.parse"):
                parsed = lib.parse_map_text(case.map_text)
            if case.config_text is None:
                config = lib.MissionConfig()
            else:
                config = lib.parse_config(case.config_text)
            mission = lib.Mission(lib.GroundTruth.from_parsed(parsed), config)
        return parsed, mission

    def time_setup(self, times: PassTimes) -> None:
        for case in self.cases:
            t0 = clock()
            try:
                self.setup(case, _no_span)
            except Exception:
                continue  # run_case raises it again and counts the mission as failed
            t1 = clock()
            times.setup[case.name].append(t1 - t0)
            times.tick(t1)

    def run_case(self, case, times: PassTimes, tracer):
        """Run, render and check one mission; returns its exact record and problems."""
        lib = self.lib
        span = tracer.span if tracer is not None else _no_span
        completed = lib.MissionEvent.COMPLETED
        t0 = clock()
        parsed, mission = self.setup(case, span)
        t1 = clock()
        times.setup[case.name].append(t1 - t0)
        step = mission.step
        latencies = times.steps
        steps = 0
        while True:
            s = clock()
            event = step()
            e = clock()
            latencies.append(e - s)
            steps += 1
            if e - times.last >= SPEED_EVERY_S:
                times.sample()
            if event is completed:
                break
        report = mission.report
        for _ in range(OUTPUT_REPS):
            o = clock()
            with span("output.csv"):
                csv_text = lib.log_to_csv(mission.log_rows)
            with span("output.report"):
                report_text = lib.report_to_text(report)
            with span("output.svg"):
                svg_text = lib.render_svg(parsed, mission.log_rows)
            e = clock()
            times.output[case.name].append(e - o)
            times.tick(e)
        if tracer is not None:
            tracer.counts["output.bytes"] += len(csv_text) + len(report_text) + len(svg_text)
        record = {
            "sha256": hashlib.sha256((csv_text + report_text).encode()).hexdigest(),
            "covered_cells": report.covered_cell_count,
            "uncoverable_cells": report.uncoverable_cell_count,
            "overlap_cells": report.overlap_count,
            "path_length_m": report.total_length,
            "recharges": report.recharge_count,
            "steps": steps,
        }
        return record, check_mission(case, parsed, mission, report)


def check_mission(case, parsed, mission, report) -> list[str]:
    problems = []
    station = parsed.station
    e0 = mission.config.capacity_e0
    if any(row[4] < 0.0 for row in mission.log_rows):
        problems.append("remaining energy went negative in the log")
    for t in report.trajectories:
        if t.first_cell != station or t.last_cell != station:
            problems.append(f"trajectory {t.index} does not start and end at the station")
        if t.energy > e0 + 1e-9:
            problems.append(f"trajectory {t.index} used {t.energy} > E0 = {e0}")
        if any(c in parsed.obstacles for seg in t.segments for c in seg.cells):
            problems.append(f"trajectory {t.index} enters a ground-truth obstacle")
    free = parsed.width * parsed.height - len(parsed.obstacles)
    if report.covered_cell_count + report.uncoverable_cell_count != free:
        problems.append(
            f"covered {report.covered_cell_count} + uncoverable"
            f" {report.uncoverable_cell_count} != free {free}"
        )
    if case.full_coverage:
        reach = len(flood_reachable(parsed.width, parsed.height, parsed.obstacles, station))
        if report.covered_cell_count != reach:
            problems.append(f"covered {report.covered_cell_count} != flood-fill oracle {reach}")
    return problems


def run_pass(runner, order, times, tracer):
    """Run every case once; returns the exact records and the failures by case."""
    records = {}
    failures: dict[str, list[str]] = {}
    for i in order:
        case = runner.cases[i]
        try:
            record, problems = runner.run_case(case, times, tracer)
        except Exception:
            failures[case.name] = [f"raised\n{traceback.format_exc()}"]
            continue
        records[case.name] = record
        if problems:
            failures[case.name] = problems
    return records, failures


def host_metrics(passes: list[PassTimes], scaled: bool) -> dict:
    """Host-time metrics of a run, from its passes.

    The stepping metrics are the median over the passes. A set-up or an
    output takes milliseconds, so each mission's samples of the whole run are
    pooled and ``setup_s`` and ``output_s`` sum the missions' medians.
    """
    scales = [t.scale() if scaled else 1.0 for t in passes]
    per_pass = [t.stepping(k) for t, k in zip(passes, scales)]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    for kind in ("setup", "output"):
        pooled = defaultdict(list)
        for t, k in zip(passes, scales):
            for name, samples in getattr(t, kind).items():
                pooled[name].extend(x * k for x in samples)
        metrics[f"{kind}_s"] = math.fsum(statistics.median(v) for v in pooled.values())
    return metrics


def exact_totals(records: dict) -> dict:
    rs = [records[k] for k in sorted(records)]
    return {
        "covered_cells": sum(r["covered_cells"] for r in rs),
        "uncoverable_cells": sum(r["uncoverable_cells"] for r in rs),
        "overlap_cells": sum(r["overlap_cells"] for r in rs),
        "path_length_m": math.fsum(r["path_length_m"] for r in rs),
        "recharges": sum(r["recharges"] for r in rs),
        "steps": sum(r["steps"] for r in rs),
    }


def workload_digest(records: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(records):
        h.update(f"{name}:{records[name]['sha256']}\n".encode())
    return h.hexdigest()


def run(args, spec, lib) -> int:
    from spans import Tracer

    cases = build(args.workload, ROOT, args.gen_seed)
    # --seed orders the missions of a pass; the inputs themselves come from the
    # workload's generator seed, so simulated counts repeat across --seed.
    order = list(range(len(cases)))
    random.Random(args.seed).shuffle(order)
    runner = Runner(lib, cases)

    untraced: list[PassTimes] = []
    traced: list[PassTimes] = []
    layer_samples = []
    first_tracer = None
    first_records = None
    attempted = 0
    failed = 0
    messages: list[str] = []
    deadline = clock() + args.seconds
    while True:
        tracer = Tracer() if args.trace and len(untraced) > len(traced) else None
        gc.collect()
        times = PassTimes()
        if tracer is None:
            for _ in range(SETUP_REPS):
                runner.time_setup(times)
            records, fails = run_pass(runner, order, times, None)
            untraced.append(times)
        else:
            with tracer.installed():
                records, fails = run_pass(runner, order, times, tracer)
            traced.append(times)
            layer_samples.append(tracer.layer_metrics(times.scale()))
            if first_tracer is None:
                first_tracer = tracer
        if first_records is None:
            first_records = records
        for name, rec in records.items():
            if rec != first_records.get(name, rec):
                fails.setdefault(name, []).append("outputs differ from the first pass")
        attempted += len(cases)
        failed += len(fails)
        messages.extend(f"{name}: {m}" for name, ms in fails.items() for m in ms)
        if clock() >= deadline and (not args.trace or traced):
            break

    for m in messages:
        print(f"FAILED {m}", file=sys.stderr)

    exact = exact_totals(first_records)
    host = host_metrics(untraced, scaled=True)
    mission_s = host["mission_s"]
    if args.trace:
        metrics = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
        traced_s = host_metrics(traced, scaled=True)["mission_s"]
        metrics["trace.overhead_s"] = traced_s - mission_s
        metrics["trace.overhead_frac"] = (traced_s - mission_s) / mission_s if mission_s else 0.0
        declared = spec["per_layer"]
    else:
        metrics = {
            "mission_s": mission_s,
            "cells_per_s": exact["covered_cells"] / mission_s if mission_s else 0.0,
            "step_p50_us": host["step_p50_us"],
            "step_p99_us": host["step_p99_us"],
            "setup_s": host["setup_s"],
            "output_s": host["output_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "covered_cells": exact["covered_cells"],
            "path_length_m": exact["path_length_m"],
            "recharges": exact["recharges"],
            "overlap_cells": exact["overlap_cells"],
        }
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise ValueError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    stem = f"{args.workload}-seed{args.seed}"
    if args.gen_seed is not None:
        stem += f"-gen{args.gen_seed}"
    stem += f"-trace{args.trace}"
    out = Path(args.out) if args.out else OUT_DIR / f"{stem}.json"
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "gen_seed": args.gen_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        # Host times as measured, before scaling to the reference host.
        "unscaled": host_metrics(untraced, scaled=False),
        "host_scale": [t.scale() for t in untraced],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "digest": workload_digest(first_records),
        "exact": exact,
        "cases": first_records,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if first_tracer is not None:
        spans_path = out.with_name(out.stem + ".spans.csv.gz")
        first_tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(
        f"workload {args.workload}: {len(cases)} missions per pass,"
        f" {len(untraced)} untraced + {len(traced)} traced passes,"
        f" {exact['steps']} steps per pass"
    )
    for name in units:
        print(f"  {name:40s} {metrics[name]:>16.6f} {units[name]}")
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6f} ratio")
    print(f"  digest {result['digest']}")
    print(f"  record {out}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


def record_changes(ref: dict, other: dict, label: str) -> list[str]:
    """Differences in inputs, output digests and exact counts."""
    changes = []
    for key in ("workload", "gen_seed"):
        if ref[key] != other[key]:
            changes.append(f"{label}: {key} {ref[key]} -> {other[key]} (different inputs)")
    for name in sorted(set(ref["cases"]) | set(other["cases"])):
        a, b = ref["cases"].get(name), other["cases"].get(name)
        if a is None or b is None:
            changes.append(f"{label}: {name} only in {'it' if a is None else 'the reference'}")
            continue
        for field in sorted(set(a) | set(b)):
            if a.get(field) != b.get(field):
                changes.append(f"{label}: {name}.{field} {a.get(field)} -> {b.get(field)}")
    return changes


def compare(old_paths: list[str], new_paths: list[str], spec) -> int:
    """Report changes in digests and exact counts, then a timing verdict on medians."""
    old = [json.loads(Path(p).read_text(encoding="utf-8")) for p in old_paths]
    new = [json.loads(Path(p).read_text(encoding="utf-8")) for p in new_paths]
    changes = []
    for path, r in zip(old_paths[1:] + new_paths, old[1:] + new):
        changes.extend(record_changes(old[0], r, path))
    print("determinism:", "identical outputs and counts" if not changes else "CHANGED")
    for c in changes:
        print(f"  {c}")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"timing: median of {len(old)} old -> {len(new)} new runs; spread = IQR / median of old")
    for name, m in old[0]["metrics"].items():
        a = [r["metrics"][name]["value"] for r in old]
        b = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        q = statistics.quantiles(a, n=4) if len(a) > 1 else [ma, ma, ma]
        spread = (q[2] - q[0]) / ma if ma else 0.0
        rel = (mb - ma) / ma if ma else 0.0
        line = f"  {name:40s} {ma:>14.6f} -> {mb:>14.6f} {m['unit']:6s} {rel:+8.2%} spread {spread:6.2%}"
        if name in bounds:
            lower = bounds[name]["better"] == "lower"
            worse = rel if lower else -rel
            if spread > bounds[name]["bound"]:
                all_better = max(b) < min(a) if lower else min(b) > max(a)
                line += "  better" if all_better else "  unresolved"
            else:
                line += "  REGRESSED" if worse > bounds[name]["bound"] else "  ok"
        print(line)
    return 1 if changes else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1, help="orders the missions of a pass")
    p.add_argument("--gen-seed", type=int, default=None, help="replace the workload's map generator seed")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="result file (default: bench/out/<run>.json)")
    p.add_argument("--old", nargs="+", metavar="RESULT", help="compare: reference result files")
    p.add_argument("--new", nargs="+", metavar="RESULT", help="compare: result files to judge")
    args = p.parse_args(argv)
    if (args.old is None) != (args.new is None):
        p.error("--old and --new go together")
    if args.old is None and args.workload is None:
        p.error("--workload, or --old and --new, is required")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.old is not None:
            return compare(args.old, args.new, spec)
        lib = import_library()
        return run(args, spec, lib)
    except (OSError, ImportError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
