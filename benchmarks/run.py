"""eventnet benchmark: CLI workloads, end-to-end metrics and per-layer traces.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py                      # every workload, then a table

One workload runs in one process as a closed loop with one client: each
run loads the config with ``cli.load_config``, calls ``cli.run`` and
serializes the report with ``cli.serialize_report``; the next run starts
when the previous one has been checked.  BLAS is held to one thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh-interpreter set-ups, see ``setup_probe.py``), ``wall_rel``
(median run time over the time of a fixed reference kernel timed around
it, see ``calibration.py``) and ``peak_rss_mb`` (the process's resident
high-water mark).  The summary also prints the plain run time ``wall_s``.
``--trace 1`` spends half the time untraced and half with spans recorded
around the calls into each eventnet layer, and reports per-layer calls,
busy and self seconds, work counts and the tracing overhead.  Either way
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run records and spans are
written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 15
MIN_RUNS = 2

# layer name -> (module, attribute path) wrapped in traced runs
LAYERS = (
    ("cli.run", "eventnet.cli", "run"),
    ("cli.load_config", "eventnet.cli", "load_config"),
    ("cli.nesting_section", "eventnet.cli", "_nesting_section"),
    ("cli.serialize_report", "eventnet.cli", "serialize_report"),
    ("scenarios.build_scenario", "eventnet.scenarios", "build_scenario"),
    ("scenarios.evaluate_expected", "eventnet.scenarios", "evaluate_expected"),
    ("histories.enumerate_tree", "eventnet.histories", "enumerate_tree"),
    ("histories.family_commutators", "eventnet.histories", "_family_commutators"),
    ("histories.sample_paths", "eventnet.histories", "sample_paths"),
    ("opalg.State.init", "eventnet.opalg", "State.__init__"),
    ("spacetime.embed", "eventnet.spacetime", "AlgebraNet.embed"),
    ("spacetime.reduce_state", "eventnet.spacetime", "AlgebraNet.reduce_state"),
    ("spacetime.derive_causal_order", "eventnet.spacetime", "derive_causal_order"),
    ("spacetime.verify_nesting", "eventnet.spacetime", "verify_nesting"),
    ("events.spectral_family", "eventnet.events", "_spectral_family"),
    ("linalg.operator_norm", "eventnet.linalg", "operator_norm"),
)

# work counts taken at layer boundaries: name -> (unit, better)
COUNTS = {
    "histories.nodes": ("count", "lower"),
    "histories.leaves": ("count", "lower"),
    "histories.dead_leaves": ("count", "lower"),
    "histories.pruned_mass": ("prob", "lower"),
    "sample.draws": ("count", "higher"),
    "spacetime.nesting_pairs": ("count", "lower"),
    "cli.report_bytes": ("B", "lower"),
}

TRACE_METRICS = {
    "run.wall_s": ("s", "lower"),
    "run.kernel_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric a traced run reports, as BENCHMARK.json lists them."""
    spec = []
    for layer, _, _ in LAYERS:
        spec.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{layer}.busy_s", "unit": "s", "better": "lower"})
        spec.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    for table in (COUNTS, TRACE_METRICS):
        spec.extend({"name": n, "unit": u, "better": b} for n, (u, b) in table.items())
    return spec


# -- statistics ----------------------------------------------------------------


def describe(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    n = len(values)
    out = {"median": statistics.median(values) if values else math.nan, "n": n,
           "tail_pct": None, "tail": None}
    if n >= 20:  # below 20 samples no percentile above the median has 10 beyond it
        ordered = sorted(values)
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = ordered[n - 11]
    return out


def fmt_timing(name: str, unit: str, d: dict) -> str:
    tail = (f"p{d['tail_pct']:.0f} {d['tail']:.6g} {unit}" if d["tail"] is not None
            else "tail n/a (needs >= 20 samples)")
    return f"{name:<14} median {d['median']:.6g} {unit:<3} {tail:<34} n={d['n']}"


# -- machine -------------------------------------------------------------------


def _blas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine_block(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(mem_bytes / 2 ** 30, 2),
        "platform": platform.platform(),
        "workload_seed": seed,
    }


# -- one workload ----------------------------------------------------------------


def exit_class(exc: BaseException) -> str:
    """The eventnet CLI exit code an exception maps to, or "crash"."""
    from eventnet.errors import CapExceededError, ConfigError, EventNetError

    if isinstance(exc, ConfigError):
        return "1"
    if isinstance(exc, CapExceededError):
        return "3"
    if isinstance(exc, EventNetError):
        return "2"
    return "crash"


def run_once(config_path: Path, workload, ref) -> dict:
    """One closed-loop run: config to canonical report bytes, then its checks."""
    from eventnet import cli
    from workloads import report_counts

    t0 = time.perf_counter()
    try:
        cfg = cli.load_config(str(config_path), {})
        report, _ = cli.run(cfg)
        text = cli.serialize_report(report)
    except Exception as exc:  # a failed run is counted, not fatal
        return {"wall_s": time.perf_counter() - t0,
                "problems": [f"exit class {exit_class(exc)}: {type(exc).__name__}: {exc}"]}
    wall = time.perf_counter() - t0
    try:
        problems = [p for check in workload.checks for p in check(report, ref)]
        counts = report_counts(report, text, ref)
    except (KeyError, TypeError, ValueError) as exc:
        problems, counts = [f"report has an unexpected shape: {exc!r}"], {}
    return {"wall_s": wall, "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "counts": counts, "problems": problems}


def measure(config_path: Path, workload, ref, budget: float, tracer=None) -> list[dict]:
    """Run back to back while another run is expected to fit in ``budget``.

    The reference kernel is timed before the first run and after each run;
    a run's ``kernel_s`` is the mean of the two times around it.
    """
    from calibration import kernel_s

    runs: list[dict] = []
    t_start = time.perf_counter()
    kernel_before = kernel_s()
    while True:
        elapsed = time.perf_counter() - t_start
        if len(runs) >= MIN_RUNS:
            typical = elapsed / len(runs)
            if elapsed + typical > budget:
                break
        if tracer is not None:
            tracer.begin(len(runs))
            before = tracer.n_spans
        run = run_once(config_path, workload, ref)
        kernel_after = kernel_s()
        run["kernel_s"] = (kernel_before + kernel_after) / 2.0
        kernel_before = kernel_after
        if tracer is not None:
            run.update(trace_id=tracer.trace_id, counts=tracer.counts,
                       spans=tracer.n_spans - before)
        runs.append(run)
        gc.collect()
    return runs


def completed(runs: list[dict]) -> list[dict]:
    """The runs that produced a report, or all runs when none did."""
    return [r for r in runs if "digest" in r] or runs


def setup_times(config_path: Path) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh interpreters, after one untimed warm-up.

    The probes keep bytecode under ``.bench_out/pycache``, so the warm-up
    compiles eventnet once and the timed probes import it as an installed
    package would, whatever the environment says about writing bytecode.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
                              capture_output=True, text=True, timeout=120, env=env, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times[1:]


def make_tracer():
    from tracing import Tracer
    from workloads import tree_counts

    return Tracer(LAYERS, hooks={
        "histories.enumerate_tree": tree_counts,
        "histories.sample_paths": lambda s: {"sample.draws": s.n_samples},
        "cli.nesting_section": lambda sec: {"spacetime.nesting_pairs": len(sec.get("pairs", ()))},
        "cli.serialize_report": lambda text: {"cli.report_bytes": len(text.encode("utf-8"))},
    })


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, make_reference

    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    config = workload.make_config(seed)
    config_path = OUT / f"{name}-seed{seed}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    ref = make_reference(config)
    machine = machine_block(seed)

    setup = [] if trace else setup_times(config_path)
    untraced = measure(config_path, workload, ref, seconds / 2 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, tracer = [], None
    if trace:
        tracer = make_tracer()
        tracer.install()
        try:
            traced = measure(config_path, workload, ref, seconds / 2, tracer)
        finally:
            tracer.uninstall()

    runs = untraced + traced
    first = next((r["digest"] for r in runs if "digest" in r), None)
    for r in runs:
        if r.get("digest", first) != first:
            r["problems"].append("report bytes differ from the first same-seed run")
    failed = sum(bool(r["problems"]) for r in runs)
    # time every run that produced a report; a run that raised has no timing
    timed = completed(untraced)
    wall = describe([r["wall_s"] for r in timed])
    wall_rel = describe([r["wall_s"] / r["kernel_s"] for r in timed])
    kernel = describe([r["kernel_s"] for r in untraced])
    setup_d = describe(setup)
    counts = next((r["counts"] for r in timed if r.get("counts")), {})

    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": machine,
        "setup_s": setup_d, "setup_samples": setup,
        "wall_s": wall, "wall_samples": [r["wall_s"] for r in untraced],
        "wall_rel": wall_rel, "kernel_s": kernel,
        "kernel_samples": [r["kernel_s"] for r in untraced],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(runs), "failed": failed,
        "problems": sorted({p for r in runs for p in r["problems"]}),
        "counts": counts,
    }
    if trace:
        record.update(layer_report(tracer, traced, wall["median"], kernel["median"]))
        tracer.save(OUT / f"{name}-seed{seed}-spans.npz")
        values = {f"{layer}.{key}": value for layer, stats in record["layers"].items()
                  for key, value in stats.items()}
        values.update(record["traced_counts"])
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in per_layer_spec()}
    else:
        metrics = {"setup_s": {"value": setup_d["median"], "unit": "s"},
                   "wall_rel": {"value": wall_rel["median"], "unit": "ratio"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    record["metrics"] = metrics
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print_summary(record)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def layer_report(tracer, traced: list[dict], untraced_wall: float,
                 untraced_kernel: float) -> dict:
    """Per-layer medians, the enumerate_tree breakdown and the trace-level counts."""
    ids = [r["trace_id"] for r in traced]
    timed = completed(traced)
    counts = {key: statistics.median(r["counts"].get(key, 0) for r in timed) for key in COUNTS}
    traced_wall = statistics.median(r["wall_s"] for r in timed)
    counts["run.wall_s"] = untraced_wall
    counts["run.kernel_s"] = untraced_kernel
    counts["trace.wall_s"] = traced_wall
    counts["trace.overhead_s"] = traced_wall - untraced_wall
    counts["trace.spans"] = statistics.median(r["spans"] for r in traced)
    return {"layers": tracer.layer_medians(ids),
            "enumerate_tree_breakdown": tracer.breakdown("histories.enumerate_tree", ids),
            "missing_layers": tracer.missing,
            "traced_counts": counts}


def print_summary(rec: dict) -> None:
    print(f"eventnet benchmark: workload={rec['workload']} seed={rec['seed']} "
          f"trace={rec['trace']} seconds={rec['seconds']:g}")
    print(f"  why: {rec['why']}")
    print(f"  machine: {json.dumps(rec['machine'])}")
    print("  loop: closed, 1 client, 1 process, BLAS threads "
          f"{rec['machine']['blas_threads']}")
    if rec["setup_samples"]:
        print("  " + fmt_timing("setup_s", "s", rec["setup_s"]))
    print("  " + fmt_timing("wall_rel", "ratio", rec["wall_rel"]))
    print("  " + fmt_timing("wall_s", "s", rec["wall_s"]))
    print("  " + fmt_timing("kernel_s", "s", rec["kernel_s"]) + "  (reference kernel)")
    print(f"  {'peak_rss_mb':<14} {rec['peak_rss_mb']:.6g} MB  (high-water mark of the "
          "untraced runs, n=1)")
    ratio = rec["failed"] / rec["attempted"]
    print(f"  {'failed_ratio':<14} {ratio:.6g}  ({rec['failed']}/{rec['attempted']} runs)")
    for problem in rec["problems"]:
        print(f"  problem: {problem}")
    dead = rec["counts"].get("histories.dead_leaves", 0)
    if dead:
        print(f"  note: {dead:.0f} listed leaves had every child pruned; their mass is "
              "also in pruned_mass (see benchmarks/NOTES.md)")
    print("  work per run: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(rec["counts"].items())))
    if rec["trace"]:
        tc = rec["traced_counts"]
        print(f"  traced wall_s {tc['trace.wall_s']:.6g} s, overhead {tc['trace.overhead_s']:.6g} s,"
              f" {tc['trace.spans']:.0f} spans per run")
        if rec["missing_layers"]:
            print(f"  layers not found (reported as 0): {', '.join(rec['missing_layers'])}")
        print(f"  {'layer':<32}{'calls':>10}{'busy_s':>12}{'self_s':>12}")
        for layer, st in rec["layers"].items():
            print(f"  {layer:<32}{st['calls']:>10.0f}{st['busy_s']:>12.5f}{st['self_s']:>12.5f}")
        parts = rec["enumerate_tree_breakdown"]
        if parts:
            total = sum(parts.values())
            print(f"  histories.enumerate_tree self-time breakdown (median run, {total:.5f} s):")
            for layer, secs in sorted(parts.items(), key=lambda kv: -kv[1]):
                print(f"    {layer:<32}{secs:>10.5f} s {100 * secs / total:6.1f}%")


# -- all workloads ---------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process, then tabulate the results."""
    from workloads import WORKLOADS

    records = []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        records.append(json.loads((OUT / f"{name}-seed{seed}-trace{trace}.json").read_text()))
    print(f"\n{'workload':<20}{'failed_ratio':>16}{'setup_s':>18}{'wall_rel':>18}{'wall_s':>18}"
          f"{'peak_rss_mb':>13}")
    for rec in records:
        ratio = f"{rec['failed']}/{rec['attempted']}={rec['failed'] / rec['attempted']:.3g}"
        setup = (f"{rec['setup_s']['median']:.4g} s n={rec['setup_s']['n']}"
                 if rec["setup_samples"] else "n/a")
        rel = f"{rec['wall_rel']['median']:.4g} n={rec['wall_rel']['n']}"
        wall = f"{rec['wall_s']['median']:.4g} s n={rec['wall_s']['n']}"
        print(f"{rec['workload']:<20}{ratio:>16}{setup:>18}{rel:>18}{wall:>18}"
              f"{rec['peak_rss_mb']:>10.1f} MB")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eventnet" / "__init__.py").is_file():
        print(f"error: no eventnet sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
