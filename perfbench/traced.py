"""The traced run: per-layer metrics from spans, and the tracing overhead.

In-process workloads run one untraced pass and then the same pass under the
tracer.  ``cli-cold`` runs each operation of the pass in a traced CLI child
(``cli_child.py``) under ``python -X importtime``.  In-process workloads also
run a CLI probe: one traced child that runs the eight commands on the two
shipped problems.  Its spans are added to the workload's, so every layer is
measured on every workload; the probe is the same on all of them.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads
from tracer import Span, median

FLOOR_REPS = 3
# "import time: self [us] | cumulative | imported package"
_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$")
SCIPY_SPLIT = ("scipy.integrate", "scipy.stats", "scipy.linalg")


def importtime_split(stderr: str) -> dict:
    """Cumulative import seconds of each module in SCIPY_SPLIT, from its
    first (outermost) line of ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(2) in SCIPY_SPLIT and m.group(2) not in out:
            out[m.group(2)] = int(m.group(1)) * 1e-6
    return {mod: out.get(mod, 0.0) for mod in SCIPY_SPLIT}


def run_cli_child(work: Path, argv_lists: list, tag: str) -> dict:
    """One traced CLI process; returns its timings, codes, spans and the
    scipy import split."""
    out_path = work / f"child-{tag}.json"
    cmd = [sys.executable, "-X", "importtime", str(workloads.HERE / "cli_child.py"),
           str(out_path), json.dumps(argv_lists)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=workloads.child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"traced CLI child exited {proc.returncode}: {proc.stderr[-500:]}")
    data = json.loads(out_path.read_text())
    data["wall_s"] = wall
    data["split"] = importtime_split(proc.stderr)
    data["spans"] = [Span.from_list(row) for row in data["spans"]]
    return data


def merge(span_lists) -> list:
    """Concatenate span lists, shifting parent indices."""
    out = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            out.append(Span(s.name, s.start, s.end, s.parent + base if s.parent >= 0 else -1,
                            s.failed, s.order, s.result_len))
    return out


def _traced_cli_pass(wl, index: int):
    """The cli-cold pass, one traced child per operation."""
    children, outcomes = [], []
    ops = wl.ops(index)
    for i, (key, args, _) in enumerate(workloads.CLI_OPS):
        out_dir = wl.work / f"traced-{index}-{i}"
        argv = workloads.cli_argv(wl.problems[key], args, out_dir)
        child = run_cli_child(wl.work, [argv], f"{index}-{i}")
        children.append(child)
        report = out_dir / workloads.report_name(args)
        outcomes.append(workloads.Outcome(
            ops[i], child["wall_s"],
            result=(child["codes"][0], report.read_bytes() if report.exists() else b"")))
    return children, outcomes


def _probe(wl) -> list:
    """One traced child running the eight commands on the shipped problems."""
    argv_lists = [
        workloads.cli_argv(workloads.SHIPPED[key], args, wl.work / f"probe-out-{i}")
        for i, (key, args, _) in enumerate(workloads.CLI_OPS) if key in workloads.SHIPPED
    ]
    return [run_cli_child(wl.work, argv_lists, "probe")]


def traced_run(wl, out_dir: Path) -> dict:
    wl.setup()
    untraced = workloads.run_pass(wl, 0)
    if wl.name == "cli-cold":
        children, traced = _traced_cli_pass(wl, 0)
        spans = merge(c["spans"] for c in children)
    else:
        tr = tracer.Tracer()
        with tr:  # inputs are loaded under the tracer: load_problem, compile_field
            traced = workloads.run_pass(wl, 0)
        children = _probe(wl)
        spans = merge([tr.spans] + [c["spans"] for c in children])
    wl.before_checks()
    workloads.check_outcomes(untraced + traced)
    untraced_s = sum(oc.seconds for oc in untraced)
    traced_s = sum(oc.seconds for oc in traced)

    floor = [workloads.child_import_seconds("import numpy, scipy.linalg")
             for _ in range(FLOOR_REPS)]
    metrics = {
        "cli.import_s": median([c["import_s"] for c in children]),
        "cli.import.scipy_integrate_s": median([c["split"]["scipy.integrate"] for c in children]),
        "cli.import.scipy_stats_s": median([c["split"]["scipy.stats"] for c in children]),
        "cli.import.scipy_linalg_s": median([c["split"]["scipy.linalg"] for c in children]),
        "cli.main_s": median([s for c in children for s in c["main_s"]]),
        "cli.floor_s": median(floor),
    }
    metrics.update(tracer.layer_metrics(spans))
    metrics["trace.overhead_s"] = traced_s - untraced_s

    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"spans-{wl.name}-seed{wl.seed}.json"
    span_file.write_text(json.dumps([s.to_list() for s in spans]))
    print(f"traced pass {traced_s:.4f} s, untraced pass "
          f"{untraced_s:.4f} s, overhead {traced_s - untraced_s:+.4f} s; "
          f"{len(spans)} spans -> {span_file}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    for key, value in metrics.items():
        print(f"{key}: {value:.6g} {units[key]}")
    outcomes = untraced + traced
    return {
        "correct": not any(oc.check_error for oc in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not oc.ok for oc in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _unit(name: str) -> str:
    if ".calls" in name or name.endswith(".failed"):
        return "count"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("jets_per_solve"):
        return "calls/solve"
    return "s"


_NAMES = (
    "cli.import_s cli.import.scipy_integrate_s cli.import.scipy_stats_s "
    "cli.import.scipy_linalg_s cli.main_s cli.floor_s".split()
    + list(tracer.layer_metrics([]))
    + ["trace.overhead_s"]
)
# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = tuple(
    (n, _unit(n), "higher" if n.endswith("verified_ratio") else "lower") for n in _NAMES
)
