"""Benchmark entry point.

usage: python3 perfbench/run.py --workload {cli-cold,solve-ladder,analyze}
                                 --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run times whole passes over the workload's operations
for about ``S`` seconds (at least one pass), checks every output and prints
the end-to-end metrics.  Their times are reference seconds: wall time scaled
by the host-speed probe around it (see ``hostspeed``); the raw wall-time
medians are printed beside them.  With ``--trace 1`` it runs one pass without
and one pass with the span tracer (``--seconds`` is not used) and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  Temporary files live under
``.perfbench_tmp/`` and spans are written to ``.perfbench_out/``, both in
the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import median

# One BLAS thread: the dense solves then run the same on a busy 2-CPU host as
# on an idle one.  Set before numpy is first imported, here or in a child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
ROOT = Path(__file__).resolve().parent.parent


def tail(values):
    """(percentile, value) for the highest of p75/p90/p95/p99 with at least
    ten samples beyond it, or None."""
    best = None
    for p in (75, 90, 95, 99):
        if len(values) * (100 - p) / 100.0 >= 10:
            best = (p, statistics.quantiles(values, n=100, method="inclusive")[p - 1])
    return best


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # show_config's layout differs across numpy versions
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        rev = ""
    return {
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "git_rev": rev or "unknown",
        "seed": seed,
    }


def peak_rss_mb(children: bool) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def print_groups(outcomes, prefix: str):
    groups = {}
    for oc in outcomes:
        groups.setdefault(oc.op.label, []).append(oc.seconds)
    for label in sorted(groups):
        vals = groups[label]
        print(f"  {prefix}.{label}: p50 {median(vals):.4f} s (n={len(vals)})")


def report_diagnostics(name, outcomes):
    """The workload's own figures, printed, never gated: per-operation
    medians, tails and failures."""
    times = [oc.seconds for oc in outcomes]
    failed = [oc for oc in outcomes if not oc.ok]
    print(f"fail_ratio: {len(failed) / len(outcomes):.4f} ({len(failed)}/{len(outcomes)})")
    t = tail(times)
    if t:
        print(f"op_s tail: p{t[0]} {t[1]:.4f} s (n={len(times)})")
    if name == "cli-cold":
        print(f"cli_s.p50: {median(times):.4f} s (n={len(times)})")
        print_groups(outcomes, "cli_s")
    elif name == "solve-ladder":
        rungs = {}
        for oc in outcomes:
            rungs.setdefault(oc.op.label.rsplit(".", 1)[0], []).append(oc)
        for rung, ocs in sorted(rungs.items()):
            bad = sum(not oc.ok for oc in ocs)
            print(f"solve_s.{rung}: p50 {median([oc.seconds for oc in ocs]):.4f} s "
                  f"(n={len(ocs)}, failed {bad})")
        print_groups(outcomes, "solve_s")
    else:
        suites = {}  # (problem, pass) -> time of the whole suite
        for oc in outcomes:
            key = (oc.op.label.rsplit(".", 1)[0], oc.index)
            suites[key] = suites.get(key, 0.0) + oc.seconds
        for problem in sorted({p for p, _ in suites}):
            vals = [t for (p, _), t in suites.items() if p == problem]
            print(f"analyze_s.{problem}: p50 {median(vals):.4f} s (n={len(vals)})")
        print_groups(outcomes, "analyze_s")
    for oc in failed[:8]:
        print(f"  failed {oc.op.label}: {oc.error or oc.check_error}"[:300])


def pass_totals(outcomes, dim=None, reference=False) -> list:
    """Operation time of each pass, or of its dim-``dim`` operations, in
    wall or (``reference``) reference seconds."""
    import hostspeed

    totals = {}
    for oc in outcomes:
        if dim is None or oc.op.dim == dim:
            t = hostspeed.reference_seconds(oc.seconds, oc.probe_s) if reference else oc.seconds
            totals[oc.index] = totals.get(oc.index, 0.0) + t
    return [totals[i] for i in sorted(totals)]


def timed_run(wl, seconds: float) -> dict:
    import hostspeed
    import workloads

    in_process = wl.name != "cli-cold"
    if in_process:
        import noether_lcs  # noqa: F401  (each set-up below imports it afresh in a child)
    setups, setups_ref = [], []
    before = hostspeed.probe()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        if in_process:
            workloads.child_import_seconds("import noether_lcs")
        wl.setup()
        setups.append(time.perf_counter() - t0)
        after = hostspeed.probe()
        setups_ref.append(hostspeed.reference_seconds(setups[-1], 0.5 * (before + after)))
        before = after

    # Whole passes, while the next one is expected to end within ``seconds``.
    outcomes = []
    started = time.perf_counter()
    index = 0
    while index == 0 or (time.perf_counter() - started) * (index + 1) / index <= seconds:
        outcomes += workloads.run_pass(wl, index, probe=hostspeed.probe)
        index += 1
    wl.before_checks()
    workloads.check_outcomes(outcomes)

    ok = sum(oc.ok for oc in outcomes)
    probes = [oc.probe_s for oc in outcomes]
    print(f"passes: {index}, operations: {len(outcomes)}, setups: {SETUP_REPS}")
    print("pass times (wall):", " ".join(f"{t:.3f}" for t in pass_totals(outcomes)))
    print(f"pass_s.wall: {median(pass_totals(outcomes)):.4f} s (n={index}); "
          f"setup_s.wall: {median(setups):.4f} s (n={SETUP_REPS})")
    print(f"host probe: p50 {median(probes) * 1e3:.3f} ms, min {min(probes) * 1e3:.3f} ms, "
          f"max {max(probes) * 1e3:.3f} ms (n={len(probes)}; reference {hostspeed.REF_S * 1e3:g} ms)")
    for dim in (1, 3):
        print(f"pass_s.d{dim}: {median(pass_totals(outcomes, dim, reference=True)):.4f} s "
              f"(n={index})")
    report_diagnostics(wl.name, outcomes)
    metrics = {
        "setup_s": (median(setups_ref), "s"),
        "pass_s": (median(pass_totals(outcomes, reference=True)), "s"),
        "peak_rss_mb": (peak_rss_mb(children=not in_process), "MB"),
        "ok_ratio": (ok / len(outcomes), "ratio"),
    }
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value:.6g} {unit}")
    return {
        "correct": not any(oc.check_error for oc in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not oc.ok for oc in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "solve-ladder", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "noether_lcs" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](seed=args.seed, work=work)
        print("environment:", json.dumps(environment(args.seed)))
        if args.trace:
            import traced

            result = traced.traced_run(wl, ROOT / ".perfbench_out")
        else:
            result = timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
